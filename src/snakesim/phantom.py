"""Tissue phantom, GRE contrast and BOLD dynamics.

The phantom is a set of fuzzy tissue-fraction volumes plus per-tissue MR
parameters. All operations here are pure functions of immutable inputs:
the per-shot modulated image state is produced on demand, never mutated
in place.

Unit convention: times are stored in the units the user supplies
(SequenceParams in ms, Paradigm in s) and converted to seconds at the
point of use, so that products like TE * delta_r2s (Hz) are
dimensionless.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .io import load_volume_file

WEIGHT_SUM_EPS = 1e-6
_SUPERSAMPLE = 4  # subvoxels per axis of synthetic_phantom's coverage count
_BOLD_DT = 0.01  # s, the step of the grid the BOLD response is convolved on

#: Tissue relaxation parameters at 7T (times in ms, rho dimensionless).
TISSUE_7T = {
    "WM": dict(t1=1200.0, t2=57.0, t2_star=27.0, rho=0.77),
    "GM": dict(t1=1800.0, t2=49.0, t2_star=28.0, rho=0.86),
    "CSF": dict(t1=3730.0, t2=1010.0, t2_star=1010.0, rho=1.0),
}


class PhantomError(ValueError):
    pass


@dataclass(frozen=True)
class TissueParams:
    """MR parameters of one tissue class (times in ms)."""

    name: str
    t1: float
    t2: float
    t2_star: float
    rho: float

    def __post_init__(self):
        if self.t1 <= 0 or self.t2_star <= 0:
            raise PhantomError(f"{self.name}: relaxation times must be positive")
        if not (self.t2_star <= self.t2 <= self.t1):
            raise PhantomError(
                f"{self.name}: need t2_star <= t2 <= t1, "
                f"got {self.t2_star}, {self.t2}, {self.t1}"
            )
        if not (0 < self.rho <= 1):
            raise PhantomError(f"{self.name}: rho must be in (0, 1], got {self.rho}")


def default_tissues(names=("WM", "GM", "CSF")):
    unknown = [n for n in names if n not in TISSUE_7T]
    if unknown:
        raise PhantomError(f"unknown tissues {unknown}, known: {sorted(TISSUE_7T)}")
    return [TissueParams(name=n, **TISSUE_7T[n]) for n in names]


@dataclass(frozen=True)
class Phantom:
    """Fuzzy tissue decomposition on a regular grid.

    weights has shape (n_tissues, *dims), each in [0, 1] with a per-voxel
    sum <= 1 (+eps for rounding).
    """

    dims: tuple
    voxel_size: tuple
    tissues: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        if w.shape != (len(self.tissues), *self.dims):
            raise PhantomError(
                f"weights shape {w.shape} does not match "
                f"{len(self.tissues)} tissues on dims {self.dims}"
            )
        if w.min() < 0 or w.max() > 1:
            raise PhantomError("tissue weights must lie in [0, 1]")
        total = w.sum(axis=0)
        if total.max() > 1 + WEIGHT_SUM_EPS:
            idx = np.unravel_index(np.argmax(total), total.shape)
            raise PhantomError(
                f"tissue weights sum to {total.max():.6f} > 1 at voxel {idx}"
            )

    @property
    def n_tissues(self):
        return len(self.tissues)


@dataclass(frozen=True)
class SequenceParams:
    """GRE sequence parameters. Times in ms."""

    tr_shot: float
    te: float
    flip_angle: float
    t_obs: float

    def __post_init__(self):
        if not (0 < self.te < self.tr_shot):
            raise PhantomError(f"need 0 < TE < TR_shot, got TE={self.te}, TR={self.tr_shot}")
        if not (0 < self.t_obs <= self.tr_shot):
            raise PhantomError(f"need 0 < T_obs <= TR_shot, got {self.t_obs}, {self.tr_shot}")
        if not (0 < self.flip_angle < 180):
            raise PhantomError(f"need 0 < flip angle < 180 deg, got {self.flip_angle}")

    @property
    def tr_shot_s(self):
        return self.tr_shot * 1e-3

    @property
    def t_obs_s(self):
        return self.t_obs * 1e-3


@dataclass(frozen=True)
class Paradigm:
    """Block/event paradigm: (onset, duration, amplitude) in seconds."""

    events: tuple
    run_length: float

    def __post_init__(self):
        last = -np.inf
        for onset, duration, _amp in self.events:
            if onset < last:
                raise PhantomError("event onsets must be non-decreasing")
            if onset + duration > self.run_length + 1e-9:
                raise PhantomError(
                    f"event at {onset}s (+{duration}s) exceeds run length {self.run_length}s"
                )
            last = onset

    @classmethod
    def blocks(cls, on: float, off: float, run_length: float):
        """Alternating unit-amplitude off/on blocks over the run, e.g. 20s-off / 20s-on."""
        if not (on > 0 and off >= 0 and run_length > 0):
            raise PhantomError(f"need on > 0, off >= 0 and run_length > 0 s, "
                               f"got {on}, {off}, {run_length}")
        events = []
        t = off
        while t < run_length:
            events.append((t, min(on, run_length - t), 1.0))
            t += on + off
        return cls(events=tuple(events), run_length=run_length)


@dataclass(frozen=True)
class BoldSpec:
    """Activation ROI, effective R2* change and sampled response curve."""

    roi: np.ndarray
    delta_r2s: float  # Hz, signed (negative for a BOLD signal increase)
    h_tilde: np.ndarray  # normalized response at each shot time

    def __post_init__(self):
        if self.roi.min() < 0 or self.roi.max() > 1:
            raise PhantomError("ROI weights must lie in [0, 1]")
        h = np.asarray(self.h_tilde)
        if h.size and np.any(h != 0) and abs(h.max() - 1.0) > 1e-9:
            raise PhantomError("h_tilde must be peak-normalized to 1")


# ---------------------------------------------------------------------------
# Construction


def load_phantom(volume_files, tissue_table):
    """Load per-tissue fuzzy volumes (NIfTI-1 or SNKV1) into a Phantom.

    Files must share dims and voxel size; weights are clamped to [0, 1]
    and the per-voxel sum invariant is enforced.
    """
    if len(volume_files) != len(tissue_table):
        raise PhantomError(
            f"{len(volume_files)} volumes for {len(tissue_table)} tissues"
        )
    volumes, dims, voxel_size = [], None, None
    for path in volume_files:
        data, vs = load_volume_file(path)
        if dims is None:
            dims, voxel_size = data.shape, vs
        elif data.shape != dims:
            raise PhantomError(f"{path}: dims {data.shape} differ from {dims}")
        elif not np.allclose(vs, voxel_size, rtol=1e-5):
            raise PhantomError(f"{path}: voxel size {vs} differs from {voxel_size}")
        volumes.append(np.clip(data.astype(np.float64), 0.0, 1.0))
    weights = np.stack(volumes)
    return Phantom(dims=dims, voxel_size=tuple(float(v) for v in voxel_size),
                   tissues=tuple(tissue_table), weights=weights)


def synthetic_phantom(dims, spheres, tissues=None, voxel_size=(1.0, 1.0, 1.0)):
    """Deterministic fuzzy sphere phantom for desk-scale tests.

    Each sphere is (center, radius, tissue_index). Edge voxels get
    fractional weights from 4^3-subvoxel coverage; overlapping spheres of
    the same tissue combine by per-voxel max so the sum invariant holds.

    Coverage is counted inside each sphere's bounding box, from per-axis
    squared subvoxel distances summed into one preallocated buffer, so no
    subvoxel offset allocates a full-volume temporary.
    """
    if tissues is None:
        tissues = default_tissues()
    if not spheres:
        warnings.warn("empty sphere list: phantom is identically zero")
    weights = np.zeros((len(tissues), *dims))
    # subvoxel offsets for partial-volume estimation
    off = (np.arange(_SUPERSAMPLE) + 0.5) / _SUPERSAMPLE - 0.5
    for center, radius, ti in spheres:
        if not (radius > 0 and all(radius <= c <= n - radius for c, n in zip(center, dims))):
            raise PhantomError(f"sphere at {center} r={radius} does not fit in {dims}")
        # no subvoxel of a voxel more than radius + 1 from the center is inside
        box = tuple(slice(max(0, math.floor(c - radius - 1)),
                          min(n, math.ceil(c + radius + 1) + 1))
                    for c, n in zip(center, dims))
        # squared distances per axis, (_SUPERSAMPLE, box length) each; the
        # loop sums them as (x^2 + y^2) + z^2, the order that fixes which
        # subvoxels on the sphere's surface count as inside
        sx, sy, sz = (((np.arange(b.start, b.stop, dtype=np.float64) + off[:, None]) - c) ** 2
                      for b, c in zip(box, center))
        shape = (len(sx[0]), len(sy[0]), len(sz[0]))
        d2 = np.empty(shape)
        inside = np.empty(shape, dtype=bool)
        frac = np.zeros(shape)
        r2 = radius ** 2
        for dx2 in sx:
            for dy2 in sy:
                dxy2 = dx2[:, None, None] + dy2[:, None]
                for dz2 in sz:
                    np.add(dxy2, dz2, out=d2)
                    np.less_equal(d2, r2, out=inside)
                    frac += inside
        frac /= _SUPERSAMPLE ** 3
        np.maximum(weights[ti][box], frac, out=weights[ti][box])
    # distinct tissues may still overlap at edges; rescale offending voxels
    total = weights.sum(axis=0)
    over = total > 1.0
    if over.any():
        weights[:, over] /= total[over]
    return Phantom(dims=tuple(dims), voxel_size=voxel_size,
                   tissues=tuple(tissues), weights=weights)


# ---------------------------------------------------------------------------
# GRE contrast


def gre_contrast(phantom: Phantom, seq: SequenceParams):
    """Steady-state spoiled GRE contrast per tissue at t_ref = TE.

    mu_i = rho_i * sin(a) * (1 - E1) / (1 - cos(a) E1) * exp(-TE/T2*_i)
    with E1 = exp(-TR/T1_i). Assumes steady state and perfect spoiling;
    T1 >> TR is a model assumption and is not enforced.
    """
    alpha = np.deg2rad(seq.flip_angle)
    mus = []
    for tis in phantom.tissues:
        e1 = np.exp(-seq.tr_shot / tis.t1)
        steady = np.sin(alpha) * (1 - e1) / (1 - np.cos(alpha) * e1)
        mus.append(tis.rho * steady * np.exp(-seq.te / tis.t2_star))
    return np.array(mus)


def contrast_volume(phantom: Phantom, mu):
    """Combined baseline image sum_i mu_i * w_i."""
    return np.tensordot(np.asarray(mu), phantom.weights, axes=(0, 0))


# ---------------------------------------------------------------------------
# HRF and BOLD time course


def hrf_kernel(t, kind="double_gamma"):
    """Hemodynamic response kernel sampled at times t (seconds).

    ``double_gamma``: response peaking at 6s with a 16s undershoot scaled
    by 1/6, supported on [0, 32]s. ``single_gamma`` drops the undershoot
    (useful for hand-checkable tests).
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = (t >= 0) & (t <= 32.0)
    tp = t[pos]

    def gpdf(x, shape):
        return x ** (shape - 1) * np.exp(-x) / math.gamma(shape)

    if kind == "double_gamma":
        out[pos] = gpdf(tp, 6.0) - gpdf(tp, 16.0) / 6.0
    elif kind == "single_gamma":
        out[pos] = gpdf(tp, 6.0)
    else:
        raise PhantomError(f"unknown HRF kind: {kind}")
    return out


def _response_grid(paradigm: Paradigm):
    """The times at which :func:`bold_response` is sampled: the run and the
    HRF's 32 s tail, every ``_BOLD_DT`` seconds."""
    return np.arange(0.0, paradigm.run_length + 32.0 + _BOLD_DT, _BOLD_DT)


@functools.lru_cache(maxsize=1)
def bold_response(paradigm: Paradigm, hrf):
    """The paradigm's event train convolved with the HRF on
    :func:`_response_grid`, read-only. A run samples one response twice,
    at frame mid-times for the design and at shot times for the BOLD
    modulation, so the last one is kept and the convolution runs once; the
    run clears it (``bold_response.cache_clear()``) once both are taken."""
    grid = _response_grid(paradigm)
    boxcar = np.zeros_like(grid)
    for onset, duration, amp in paradigm.events:
        boxcar[(grid >= onset) & (grid < onset + duration)] += amp
    kernel = hrf_kernel(np.arange(0.0, 32.0 + _BOLD_DT, _BOLD_DT), kind=hrf)
    response = np.convolve(boxcar, kernel)[: grid.size] * _BOLD_DT
    response.flags.writeable = False
    return response


def build_bold_timecourse(paradigm: Paradigm, shot_times, hrf="double_gamma"):
    """Convolve the event train with the HRF and sample at shot times.

    The result is rescaled so its maximum over the sampled points is 1;
    an all-zero paradigm yields all zeros (no rescale), and no shot
    times an empty array.
    """
    shot_times = np.asarray(shot_times, dtype=np.float64)
    if shot_times.size and (shot_times.min() < -1e-9
                            or shot_times.max() > paradigm.run_length + 1e-9):
        raise PhantomError("shot times must lie within [0, run_length]")
    if not (paradigm.events and shot_times.size):
        return np.zeros_like(shot_times)
    h = np.interp(shot_times, _response_grid(paradigm), bold_response(paradigm, hrf))
    peak = np.abs(h).max()
    if peak > 0:
        h = h / peak
    return h


def bold_modulate(mu_gm, bold: BoldSpec, te_ms: float, shot_index: int):
    """Apply the BOLD modulation factor for one shot.

    mu' = mu_gm * (1 - TE * dR2* * h(t_s) * roi); with dR2* < 0 this is a
    signal increase inside the ROI and the identity elsewhere.
    """
    h = float(bold.h_tilde[shot_index])
    factor = 1.0 - (te_ms * 1e-3) * bold.delta_r2s * h * bold.roi
    return mu_gm * factor


def modulated_state(phantom: Phantom, mu, bold: BoldSpec | None,
                    te_ms: float, shot_index: int, gm_index: int | None = None):
    """Per-tissue contrast volumes (mu_i * w_i) at one shot time.

    Returns an array (n_tissues, *dims). Only the gray-matter component
    is BOLD-modulated; if gm_index is None the modulation applies to
    every tissue weighted by the ROI (used for single-tissue phantoms).
    """
    vols = np.asarray(mu)[:, None, None, None] * phantom.weights
    if bold is not None:
        if gm_index is None:
            gm_indices = range(phantom.n_tissues)
        else:
            gm_indices = [gm_index]
        for i in gm_indices:
            vols[i] = bold_modulate(vols[i], bold, te_ms, shot_index)
    return vols


def ellipsoid_roi(phantom: Phantom, gm_index: int):
    """Fuzzy GM mask intersected with an axis-aligned ellipsoid in the
    posterior third of the volume (second axis), with semi-axes of a
    quarter of each dimension."""
    dims = np.array(phantom.dims, dtype=np.float64)
    center = (dims[0] / 2, dims[1] / 6, dims[2] / 2)
    axes = tuple(dims / 4)
    grids = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in phantom.dims],
                        indexing="ij", sparse=True)
    dist = sum(((g - c) / a) ** 2 for g, c, a in zip(grids, center, axes))
    return phantom.weights[gm_index] * (dist <= 1.0)
