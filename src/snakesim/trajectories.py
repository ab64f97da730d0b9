"""Timed k-space sampling plans.

Coordinates are in cycles/FOV on an integer-centered grid, each axis in
the half-open range [-N/2, N/2). Sample times are relative to the echo
center (t=0 at TE), so an in-out readout spans [-T_obs/2, +T_obs/2].
Plan generation is deterministic given (config, seed) and plans are
immutable once built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import io
from .phantom import SequenceParams


class TrajectoryError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Shot:
    """One readout: k-space points with per-sample times (s), checked
    once per object: equal lengths and strictly increasing times.

    Shots hash and compare by identity. A plan that repeats a k-point
    pattern repeats its Shot object, so the engine and the
    reconstruction find the repeats without reading any points.
    """

    points: np.ndarray       # (n_samples, ndims)
    times: np.ndarray        # (n_samples,), echo-centered

    def __post_init__(self):
        if len(self.points) != len(self.times):
            raise TrajectoryError("points and times must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise TrajectoryError("sample times must be strictly increasing")

    @property
    def n_samples(self):
        return len(self.points)


@dataclass(frozen=True)
class SamplingPlan:
    shots: tuple                 # ordered Shot list
    shots_per_frame: int
    tr_shot: float               # s
    kind: str                    # epi3d | stack_of_spirals | external
    dims: tuple

    def __post_init__(self):
        if self.shots_per_frame < 1:
            raise TrajectoryError(f"need at least one shot a frame, got {self.shots_per_frame}")
        if len(self.shots) % self.shots_per_frame != 0:
            raise TrajectoryError(
                f"{len(self.shots)} shots do not divide into whole frames "
                f"of {self.shots_per_frame}"
            )

    @property
    def n_frames(self):
        return len(self.shots) // self.shots_per_frame

    @property
    def shot_times(self):
        """Each shot's start time within the run (s)."""
        return np.arange(len(self.shots)) * self.tr_shot

    @property
    def tr_vol(self):
        return self.shots_per_frame * self.tr_shot

    def frame(self, t):
        return self.shots[t * self.shots_per_frame: (t + 1) * self.shots_per_frame]


def _check_bounds(points, dims):
    for axis, n in enumerate(dims[: points.shape[1]]):
        lo, hi = -n / 2, n / 2
        bad = np.nonzero((points[:, axis] < lo) | (points[:, axis] >= hi))[0]
        if bad.size:
            raise TrajectoryError(
                f"k-coordinate {points[bad[0], axis]} at sample {bad[0]} outside "
                f"[-{n // 2}, {n / 2}) on axis {axis}"
            )


def _echo_centered_times(n_samples, t_obs_s):
    """Times (n-1)*dt shifted so the midpoint sample sits at t=0."""
    dt = t_obs_s / n_samples
    return (np.arange(n_samples) - (n_samples - 1) / 2) * dt


def _frame_planes(nz, n_center, n, n_frames, rng=None):
    """Each frame's n kz planes, center-out, as an (n_frames, n) array.

    Center-out is a stable sort by |kz|, so the ranking of the planes puts
    the lower first on a tie. A frame takes the n_center first and
    n - n_center of the others: without ``rng`` evenly strided through the
    ranking, one array every frame shares; with it, a draw without replacement a frame.
    """
    def center_out(kz):
        return np.take_along_axis(kz, np.argsort(np.abs(kz), axis=-1, kind="stable"), axis=-1)

    ranked = center_out(np.arange(nz) - nz // 2)
    center, outer = ranked[:n_center], ranked[n_center:]
    if rng is None:
        stride = np.round(np.linspace(0, len(outer) - 1, n - n_center)).astype(int)
        frame = np.concatenate([center, outer[stride]])  # ranking order: center-out
        return np.broadcast_to(frame, (n_frames, len(frame)))
    draws = (rng.choice(outer, size=n - n_center, replace=False) for _ in range(n_frames))
    frames = np.array([np.concatenate([center, d]) for d in draws], int)
    return center_out(frames.reshape(n_frames, n))


def _stack(pattern, t_obs_s, frames, shots_per_frame, tr_shot_s, kind, dims):
    """The plan whose frame t acquires the 2D ``pattern``, echo-centred over
    ``t_obs_s``, on the kz planes ``frames[t]`` in order: one Shot of read-only
    (n, 3) points per plane used, repeated in every frame that acquires it."""
    if min(dims) < 1:
        raise TrajectoryError(f"invalid dims {tuple(dims)}: every axis needs at least 1")
    times, shift = _echo_centered_times(len(pattern), t_obs_s), dims[2] // 2
    index = frames + shift  # plane kz's Shot is by_plane[kz + shift]
    by_plane = np.empty(dims[2], dtype=object)
    for i in np.flatnonzero(np.bincount(index.ravel(), minlength=dims[2])):
        pts = np.column_stack([pattern, np.full(len(pattern), float(i - shift))])
        pts.flags.writeable = False
        by_plane[i] = Shot(points=pts, times=times)
    return SamplingPlan(shots=tuple(by_plane[index].ravel().tolist()),
                        shots_per_frame=shots_per_frame, tr_shot=tr_shot_s, kind=kind,
                        dims=tuple(dims))


# ---------------------------------------------------------------------------
# 3D EPI


def gen_epi_3d(dims, seq: SequenceParams, n_planes_per_volume=None,
               n_frames=1) -> SamplingPlan:
    """Plane-segmented 3D EPI: one snake-raster shot per kz plane.

    Covers every Cartesian point of the selected planes exactly once per
    frame, in increasing kz. Planes are taken symmetrically around kz=0
    when fewer than Nz are requested.
    """
    nx, ny, nz = dims
    if n_planes_per_volume is None:
        n_planes_per_volume = nz
    if n_planes_per_volume > nz:
        raise TrajectoryError(f"{n_planes_per_volume} EPI planes > Nz = {nz}")
    kx, ky = np.arange(nx) - nx // 2, np.arange(ny) - ny // 2
    # snake raster: the odd ky rows run in -kx
    plane = np.stack(np.meshgrid(kx, ky), axis=-1).astype(float)
    plane[1::2] = plane[1::2, ::-1]
    frames = _frame_planes(nz, n_planes_per_volume, n_planes_per_volume, n_frames)
    return _stack(plane.reshape(-1, 2), seq.t_obs_s, np.sort(frames, axis=1),
                  n_planes_per_volume, seq.tr_shot_s, "epi3d", dims)


# ---------------------------------------------------------------------------
# Spirals


def gen_spiral(dims_xy, n_samples, n_turns=4.0):
    """Archimedean in-out spiral sample points (2D, cycles/FOV).

    The readout traverses the reversed, point-symmetric half first,
    passes through k=0 at the temporal center, then spirals out; the
    radius grows linearly to k_max = (min(dims_xy) - 1) / 2, the largest
    that keeps every sample inside the grid's band.
    """
    if min(dims_xy) < 1:
        raise TrajectoryError(f"invalid dims {tuple(dims_xy)}: every axis needs at least 1")
    if n_samples < 2:
        raise TrajectoryError(f"a spiral needs at least 2 samples, got {n_samples}")
    k_max = (min(dims_xy) - 1) / 2
    theta_max = 2 * np.pi * n_turns
    s = -1.0 + 2.0 * np.arange(n_samples) / (n_samples - 1)
    r = k_max * np.abs(s)
    theta = theta_max * np.abs(s)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    # point-symmetric (conjugate-sampling) first half
    pts[s < 0] *= -1
    return pts


def gen_stack_of_spirals(spiral, dims, af=1.0, center_fraction=0.1,
                         dynamic=False, n_frames=1, seed=0, tr_shot_s=0.05,
                         t_obs_s=0.025, shots_per_frame=None) -> SamplingPlan:
    """Stack the 2D spiral along the nz = dims[2] kz planes with variable
    density plane selection.

    Per frame, ceil(center_fraction * nz) central planes are always
    acquired; the remaining budget of the round(nz / af) per-frame planes
    is filled from the outer region -- the same evenly strided set for
    every frame when static, a fresh seeded draw without replacement per
    frame when dynamic. ``shots_per_frame`` overrides the derived
    per-frame plane budget, which must keep the center planes and fit in
    Nz.
    """
    if not (0 < center_fraction < 1):
        raise TrajectoryError(f"need 0 < center_fraction < 1, got {center_fraction}")
    if af < 1:
        raise TrajectoryError("acceleration factor must be >= 1")
    nz = dims[2]
    n_center = math.ceil(center_fraction * nz)
    if shots_per_frame is None:
        shots_per_frame = max(n_center, int(round(nz / af)))
    if not n_center <= shots_per_frame <= nz:
        raise TrajectoryError(f"{shots_per_frame} planes a frame, need at least the "
                              f"{n_center} center planes and at most Nz = {nz}")
    if shots_per_frame == n_center < nz:
        warnings.warn("acceleration leaves zero outer planes: center-only plan")
    rng = np.random.default_rng(seed) if dynamic else None
    frames = _frame_planes(nz, n_center, shots_per_frame, n_frames, rng)
    return _stack(np.asarray(spiral, dtype=np.float64), t_obs_s, frames, shots_per_frame,
                  tr_shot_s, "stack_of_spirals", dims)


# ---------------------------------------------------------------------------
# External trajectories


def save_trajectory_file(path, plan: SamplingPlan, dwell_time_us):
    io.write_trajectory(path, [s.points for s in plan.shots], dwell_time_us,
                        plan.tr_shot * 1e3)


def load_trajectory_file(path, dims, shots_per_frame, n_frames) -> SamplingPlan:
    """Load an SNKT1 trajectory of exactly n_frames x shots_per_frame
    shots into a plan; timing from the dwell header.

    Shots whose (3D) points are bit-equal become one Shot, repeated in
    the plan; every shot of a file has the same sample count and so the
    same times.
    """
    shots_pts, dwell_us, tr_ms = io.read_trajectory(path)
    if len(shots_pts) != n_frames * shots_per_frame:
        raise TrajectoryError(f"{path}: {len(shots_pts)} shots, need n_frames x "
                              f"n_shots_per_frame = {n_frames} x {shots_per_frame} = "
                              f"{n_frames * shots_per_frame}")
    tr_shot_s = tr_ms * 1e-3
    distinct, shots = {}, []
    for pts in shots_pts:
        if pts.shape[1] == 2:
            pts = np.column_stack([pts, np.zeros(len(pts))])
        key = pts.tobytes()
        if key not in distinct:
            _check_bounds(pts, dims)
            t_obs_s = len(pts) * dwell_us * 1e-6
            # copied: a 3D shot is a row of the file's whole point array,
            # which a view would keep alive for the plan's lifetime
            distinct[key] = Shot(points=pts.copy(), times=_echo_centered_times(len(pts), t_obs_s))
        shots.append(distinct[key])
    return SamplingPlan(shots=tuple(shots), shots_per_frame=shots_per_frame,
                        tr_shot=tr_shot_s, kind="external", dims=tuple(dims))
