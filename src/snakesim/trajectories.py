"""Timed k-space sampling plans.

Coordinates are in cycles/FOV on an integer-centered grid, each axis in
the half-open range [-N/2, N/2). Sample times are relative to the echo
center (t=0 at TE), so an in-out readout spans [-T_obs/2, +T_obs/2].
Plan generation is deterministic given (config, seed) and plans are
immutable once built.
"""

from __future__ import annotations

import math
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


def _plane_shot(xy, kz, times):
    """The Shot of the 2D pattern ``xy`` on plane ``kz`` with sample
    ``times``, with read-only (n, 3) points; a plan builds one per plane
    and repeats it in every frame that acquires the plane."""
    pts = np.column_stack([xy, np.full(len(xy), float(kz))])
    pts.flags.writeable = False
    return Shot(points=pts, times=times)


def _echo_centered_times(n_samples, t_obs_s):
    """Times (n-1)*dt shifted so the midpoint sample sits at t=0."""
    dt = t_obs_s / n_samples
    return (np.arange(n_samples) - (n_samples - 1) / 2) * dt


# ---------------------------------------------------------------------------
# 3D EPI


def gen_epi_3d(dims, seq: SequenceParams, n_planes_per_volume=None,
               n_frames=1) -> SamplingPlan:
    """Plane-segmented 3D EPI: one snake-raster shot per kz plane.

    Covers every Cartesian point of the selected planes exactly once per
    frame. Planes are taken symmetrically around kz=0 when fewer than Nz
    are requested.
    """
    nx, ny, nz = dims
    if nx == 0 or ny == 0 or nz == 0:
        raise TrajectoryError(f"invalid dims {dims}")
    if n_planes_per_volume is None:
        n_planes_per_volume = nz
    if n_planes_per_volume > nz:
        raise TrajectoryError(f"{n_planes_per_volume} planes > Nz={nz}")
    kx = np.arange(nx) - nx // 2
    ky = np.arange(ny) - ny // 2
    all_kz = np.arange(nz) - nz // 2
    # symmetric slab around kz=0
    order = np.argsort(np.abs(all_kz), kind="stable")
    kz_sel = np.sort(all_kz[order[:n_planes_per_volume]])

    plane = np.empty((ny * nx, 2))
    for row in range(ny):
        xs = kx if row % 2 == 0 else kx[::-1]
        plane[row * nx: (row + 1) * nx, 0] = xs
        plane[row * nx: (row + 1) * nx, 1] = ky[row]
    times = _echo_centered_times(ny * nx, seq.t_obs_s)
    planes = [_plane_shot(plane, kz, times) for kz in kz_sel]
    return SamplingPlan(shots=tuple(planes * n_frames), shots_per_frame=n_planes_per_volume,
                        tr_shot=seq.tr_shot_s, kind="epi3d", dims=tuple(dims))


# ---------------------------------------------------------------------------
# Spirals


def gen_spiral(dims_xy, n_samples, n_turns=4.0, in_out=True, k_max=None):
    """Archimedean spiral sample points (2D, cycles/FOV).

    in_out readouts traverse the reversed, point-symmetric half first,
    pass through k=0 at the temporal center, then spiral out; the radius
    grows linearly to k_max.
    """
    if n_samples < 2:
        raise TrajectoryError("a spiral needs at least 2 samples")
    if k_max is None:
        k_max = (min(dims_xy) - 1) / 2
    theta_max = 2 * np.pi * n_turns
    if in_out:
        s = -1.0 + 2.0 * np.arange(n_samples) / (n_samples - 1)
    else:
        s = np.arange(n_samples) / (n_samples - 1)
    r = k_max * np.abs(s)
    theta = theta_max * np.abs(s)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    # point-symmetric (conjugate-sampling) first half
    pts[s < 0] *= -1
    return pts


def gen_stack_of_spirals(spiral, nz, af=1.0, center_fraction=0.1,
                         dynamic=False, n_frames=1, seed=0, tr_shot_s=0.05,
                         t_obs_s=0.025, dims=None,
                         shots_per_frame=None) -> SamplingPlan:
    """Stack the 2D spiral along kz with variable density plane selection.

    Per frame, ceil(center_fraction * nz) central planes are always
    acquired; the remaining budget of the round(nz / af) per-frame planes
    is filled from the outer region -- the same evenly strided set for
    every frame when static, a fresh seeded draw without replacement per
    frame when dynamic. ``shots_per_frame`` overrides the derived
    per-frame plane budget (center planes always kept).
    """
    if not (0 < center_fraction < 1):
        raise TrajectoryError("center_fraction must be in (0, 1)")
    if af < 1:
        raise TrajectoryError("acceleration factor must be >= 1")
    spiral = np.asarray(spiral, dtype=np.float64)
    all_kz = np.arange(nz) - nz // 2
    center_order = np.argsort(np.abs(all_kz), kind="stable")
    n_center = math.ceil(center_fraction * nz)
    center_kz = all_kz[center_order[:n_center]]
    outer_kz = all_kz[center_order[n_center:]]

    if shots_per_frame is not None:
        n_outer = shots_per_frame - n_center
        if n_outer < 0:
            raise TrajectoryError(
                f"shots_per_frame={shots_per_frame} below {n_center} center planes"
            )
    else:
        n_outer = max(0, int(round(nz / af)) - n_center)
    if n_outer > len(outer_kz):
        raise TrajectoryError(f"cannot select {n_outer} of {len(outer_kz)} outer planes")
    if n_outer == 0 and len(outer_kz) > 0:
        import warnings
        warnings.warn("acceleration leaves zero outer planes: center-only plan")

    rng = np.random.default_rng(seed)
    shots = []
    times = _echo_centered_times(len(spiral), t_obs_s)
    planes = {kz: _plane_shot(spiral, kz, times) for kz in all_kz}
    n_per_frame = n_center + n_outer
    if n_outer:
        stride_idx = np.round(np.linspace(0, len(outer_kz) - 1, n_outer)).astype(int)
        static_outer = outer_kz[stride_idx]
    else:
        static_outer = outer_kz[:0]
    for _ in range(n_frames):
        if dynamic and n_outer:
            sel_outer = rng.choice(outer_kz, size=n_outer, replace=False)
        else:
            sel_outer = static_outer
        # center-out acquisition order within the frame
        frame_kz = np.concatenate([center_kz, sel_outer])
        frame_kz = frame_kz[np.argsort(np.abs(frame_kz), kind="stable")]
        shots.extend(planes[kz] for kz in frame_kz)
    if dims is None:
        dims = (nz, nz, nz)
    return SamplingPlan(shots=tuple(shots), shots_per_frame=n_per_frame,
                        tr_shot=tr_shot_s, kind="stack_of_spirals", dims=tuple(dims))


# ---------------------------------------------------------------------------
# External trajectories


def save_trajectory_file(path, plan: SamplingPlan, dwell_time_us):
    io.write_trajectory(path, [s.points for s in plan.shots], dwell_time_us,
                        plan.tr_shot * 1e3)


def load_trajectory_file(path, dims, shots_per_frame=None) -> SamplingPlan:
    """Load an SNKT1 trajectory into a plan; timing from the dwell header.

    Shots whose (3D) points are bit-equal become one Shot, repeated in
    the plan; every shot of a file has the same sample count and so the
    same times.
    """
    shots_pts, dwell_us, tr_ms = io.read_trajectory(path)
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
    if shots_per_frame is None:
        shots_per_frame = len(shots)
    return SamplingPlan(shots=tuple(shots), shots_per_frame=shots_per_frame,
                        tr_shot=tr_shot_s, kind="external", dims=tuple(dims))
