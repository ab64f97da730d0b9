"""Shot-wise k-space acquisition engine.

Samples are produced shot by shot from the current image state, either
under the basic Fourier model (contrast frozen at TE) or the extended
model with per-tissue T2* decay along the readout. Each shot's samples
come from one :class:`NDFT` over the shot's k-points, applied to all
coils at once, which is also the operator that reconstruction inverts.
The NDFT takes one of three exact paths: the FFT when every point is on
the grid (EPI), a per-kz-plane 2D DFT when every kz is an integer
(stack-of-spirals), and separable phase tables for any other 3D
trajectory.

The BOLD model is affine in time, so a run transforms two images per
tissue, a base and a BOLD delta, and each shot combines their samples
with its response value h_s. A k-point pattern that the plan repeats is
transformed once per run and memoized; a shot of that pattern is then a
lookup, an AXPY and the noise draw. Calibrated complex Gaussian noise is
added per sample. :func:`run_acquisition` runs the plan frame by
frame into one (n_coils, P) buffer, the layout of a frame of the dataset
body. With a sink each finished frame is appended to it, so no
run-sized array is held, and the run returns the dataset's memory map;
without one the frames fill one complex128 (n_frames, n_coils, P) array.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .io import DatasetWriter, read_dataset
from .phantom import Phantom, SequenceParams, BoldSpec, gre_contrast, contrast_volume
# modulated_state is not called here; perfbench/spans.py traces it under
# this module's name, so it stays importable from here
from .phantom import modulated_state  # noqa: F401
from .trajectories import SamplingPlan, Shot


class EngineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Fourier primitives


def centered_fft(volume):
    """Centered FFT matching the NDFT convention (DC at N//2)."""
    return np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(volume)))


def centered_ifft(spectrum):
    return np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(spectrum)))


# largest combined phase table (elements) kept in memory; bigger point
# sets rebuild it per call in chunks of this many elements
PHASE_TABLE_LIMIT = 4_000_000

def _phase(k, n):
    """(len(k), n) table exp(-2i pi k r) at voxel coordinates r = (m - n//2)/n."""
    return np.exp(-2j * np.pi * k[:, None] * ((np.arange(n) - n // 2) / n))


def _is_integer(k):
    """Whether every k-space coordinate is within 1e-9 of an integer."""
    return np.allclose(k, np.round(k), atol=1e-9, rtol=0)


class NDFT:
    """Exact unscaled non-uniform DFT at fixed 3D k-points.

    forward: y[n] = sum_m x[r_m] exp(-2i pi k_n . r_m) with voxel
    coordinates r_m = (m - N//2)/N per axis, so the DC sample equals the
    volume sum and on-grid sampling coincides with the centered FFT.
    adjoint is its exact adjoint. Both take leading batch axes (coils,
    tissues): forward maps (..., Nx, Ny, Nz) to (..., P) and adjoint
    (..., P) to (..., Nx, Ny, Nz).

    The points select one of three exact paths, named by ``path``:

    - ``"fft"``, every point on the integer grid (Cartesian, EPI): the
      centered FFT and a gather; the adjoint scatters (by assignment
      unless a grid point repeats) and inverse-FFTs.
    - ``"stack"``, every kz an integer (stack-of-spirals and other
      stack-of-X plans): the points are grouped by kz plane, z is
      contracted once per plane with a (U, Nz) phase table, then an
      exact 2D DFT over (x, y) runs on each plane's points through
      (P, Nx) and (P, Ny) tables. That is Nx*Ny*Nz*U + Nx*Ny*P MACs for
      U distinct planes, against Nx*Ny*Nz*P for the general path.
    - ``"general"``, any other points (3D trajectories): a (P, Nx)
      table and a combined (P, Ny*Nz) table. The combined table is built
      once when it has at most PHASE_TABLE_LIMIT elements and otherwise
      rebuilt per call in chunks of that size.

    Both non-FFT paths contract x last in forward and first in adjoint,
    and the adjoint uses the forward tables as conj(conj(y) E), so no
    conjugated copy of a per-point table is made.
    """

    def __init__(self, points, dims):
        self.points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.dims = tuple(dims)
        self._grid_idx = self._on_grid()
        if self._grid_idx is not None:
            self.path = "fft"
            flat = np.ravel_multi_index(self._grid_idx, self.dims)
            # the adjoint scatters by assignment unless a grid point repeats
            self._distinct = np.unique(flat).size == flat.size
            return
        n, (nx, ny, nz) = len(self.points), self.dims
        kz = self.points[:, 2]
        if _is_integer(kz):
            self.path = "stack"
            planes, plane_of = np.unique(np.round(kz), return_inverse=True)
            # tables are kept sorted by plane: row j is point _order[j] and
            # point i is row _rank[i]
            self._order = np.argsort(plane_of, kind="stable")
            bounds = np.searchsorted(plane_of[self._order], np.arange(len(planes) + 1))
            self._eplane = _phase(planes, nz)
            rows = self.points[self._order]
            self._rank = np.argsort(self._order)
            self._ex, self._table = _phase(rows[:, 0], nx), _phase(rows[:, 1], ny)
            # (plane, rows) pairs
            self._chunks = [(g, slice(lo, hi))
                            for g, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]
            return
        self.path = "general"
        self._ex = _phase(self.points[:, 0], nx)
        self._ey, self._ez = _phase(self.points[:, 1], ny), _phase(kz, nz)
        self._table = None
        if n * ny * nz <= PHASE_TABLE_LIMIT:
            self._table = self._rows(slice(0, n))
            step = n
        else:
            step = max(1, PHASE_TABLE_LIMIT // (ny * nz))
        self._chunks = [(0, slice(lo, min(lo + step, n))) for lo in range(0, n, step)]

    def _on_grid(self):
        if not _is_integer(self.points):
            return None
        idx = (np.round(self.points) + np.array(self.dims) // 2).astype(np.intp)
        if (idx < 0).any() or (idx >= np.array(self.dims)).any():
            return None
        return tuple(idx.T)

    def _rows(self, sl):
        """Rows ``sl`` of the (P, Ny) or combined (P, Ny*Nz) phase table."""
        if self._table is not None:
            return self._table[sl]
        return (self._ey[sl, :, None] * self._ez[sl, None, :]).reshape(
            sl.stop - sl.start, -1)

    def forward(self, x):
        x = np.asarray(x)
        lead, n = x.shape[:-3], len(self.points)
        x = x.reshape(-1, *self.dims)
        batch, (nx, ny, nz) = len(x), self.dims
        if self.path == "fft":
            # one 3D FFT per item: an FFT over the batch axis too saves
            # nothing and measured a few percent slower
            out = np.stack([centered_fft(v)[self._grid_idx] for v in x])
            return out.reshape(*lead, n)
        if self.path == "stack":
            # (U, B*Nx, Ny): the volume contracted along z at each plane
            vols = (self._eplane @ x.reshape(-1, nz).T).reshape(-1, batch * nx, ny)
        else:
            vols = x.reshape(1, batch * nx, ny * nz)
        out = np.empty((batch, n), dtype=np.complex128)
        for g, sl in self._chunks:
            tmp = (vols[g] @ self._rows(sl).T).reshape(batch, nx, -1)
            out[:, sl] = np.einsum("px,bxp->bp", self._ex[sl], tmp)
        if self.path == "stack":
            out = out[:, self._rank]
        return out.reshape(*lead, n)

    def adjoint(self, y):
        y = np.asarray(y, dtype=np.complex128)
        lead = y.shape[:-1]
        y = y.reshape(-1, len(self.points))
        batch, (nx, ny, nz) = len(y), self.dims
        if self.path == "fft":
            out = np.empty((batch, *self.dims), dtype=np.complex128)
            for b in range(batch):
                grid = np.zeros(self.dims, dtype=np.complex128)
                if self._distinct:
                    grid[self._grid_idx] = y[b]
                else:
                    np.add.at(grid, self._grid_idx, y[b])
                out[b] = centered_ifft(grid) * np.prod(self.dims)
            return out.reshape(*lead, *self.dims)
        yc = y.conj()
        if self.path == "stack":
            yc = yc[:, self._order]
            acc = np.zeros((len(self._eplane), batch * nx, ny), dtype=np.complex128)
        else:
            acc = np.zeros((1, batch * nx, ny * nz), dtype=np.complex128)
        for g, sl in self._chunks:
            t1 = (yc[:, None, sl] * self._ex[sl].T).reshape(batch * nx, -1)
            acc[g] += t1 @ self._rows(sl)
        np.conj(acc, out=acc)
        if self.path == "stack":
            # (B*Nx*Ny, U) @ (U, Nz) takes each plane back along z
            acc = acc.reshape(len(self._eplane), -1).T @ self._eplane.conj()
        return acc.reshape(*lead, *self.dims)


# ---------------------------------------------------------------------------
# Coils and noise


@dataclass(frozen=True)
class CoilProfile:
    maps: np.ndarray  # (L, *dims) complex

    def __post_init__(self):
        rss = np.sqrt((np.abs(self.maps) ** 2).sum(axis=0))
        if rss.max() > 1 + 1e-6:
            raise EngineError(f"coil RSS magnitude {rss.max():.8f} exceeds 1")

    @property
    def n_coils(self):
        return self.maps.shape[0]


def birdcage_coils(dims, n_coils) -> CoilProfile:
    """Analytic birdcage-style sensitivity maps, RSS-normalized to <= 1.

    Loop centers sit on a cylinder around the volume; magnitude falls off
    with distance to each loop center and the phase winds linearly with
    the loop's azimuth.
    """
    if n_coils < 1:
        raise EngineError("need at least one coil")
    if n_coils == 1:
        return CoilProfile(maps=np.ones((1, *dims), dtype=np.complex128))
    grids = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in dims], indexing="ij")
    center = [(n - 1) / 2 for n in dims]
    radius = 0.6 * max(dims)
    width = 0.8 * max(dims)
    maps = np.empty((n_coils, *dims), dtype=np.complex128)
    for l in range(n_coils):
        phi = 2 * np.pi * l / n_coils
        cx = center[0] + radius * np.cos(phi)
        cy = center[1] + radius * np.sin(phi)
        cz = center[2]
        d2 = ((grids[0] - cx) ** 2 + (grids[1] - cy) ** 2 + (grids[2] - cz) ** 2)
        mag = np.exp(-d2 / (2 * width ** 2))
        phase = phi + 2 * np.pi * (grids[0] * np.cos(phi) + grids[1] * np.sin(phi)) \
            / (4 * max(dims))
        maps[l] = mag * np.exp(1j * phase)
    rss = np.sqrt((np.abs(maps) ** 2).sum(axis=0))
    maps /= rss.max()
    return CoilProfile(maps=maps)


@dataclass(frozen=True)
class NoiseConfig:
    snr_i: float = np.inf     # input SNR; inf disables noise
    sigma: np.ndarray | None = None  # (L, L) Hermitian PSD coil covariance
    seed: int = 0
    # sigma = chol @ chol^H, or None for white noise; set from sigma
    chol: np.ndarray | None = field(init=False, default=None, repr=False,
                                    compare=False)

    def __post_init__(self):
        if not (self.snr_i > 0):
            raise EngineError("snr_i must be positive (or inf)")
        if self.sigma is not None:
            s = np.asarray(self.sigma)
            if not np.allclose(s, s.conj().T, atol=1e-12):
                raise EngineError("coil covariance must be Hermitian")
            # PSD with possible zero eigenvalues: regularized Cholesky
            eigs, vecs = np.linalg.eigh(np.asarray(s, dtype=np.complex128))
            if eigs.min() < -1e-12:
                raise EngineError("coil covariance must be positive semi-definite")
            eigs = np.clip(eigs, 0, None)
            object.__setattr__(self, "chol", vecs @ np.diag(np.sqrt(eigs)))


def phantom_energy(mu_volume):
    """Mean squared magnitude of the ideal contrast volume at TE."""
    mu = np.asarray(mu_volume)
    return float(np.mean(np.abs(mu) ** 2))


def add_noise(samples, noise: NoiseConfig, energy, shot_index=0):
    """Add circularly symmetric coil-correlated Gaussian noise.

    Per time point the L-vector has covariance (E / SNR_i) * Sigma; real
    and imaginary parts carry half the variance each. The stream is
    keyed by (seed, shot index, coil) so worker scheduling cannot change
    the draw.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if np.isinf(noise.snr_i):
        return samples
    n_coils, n_samples = samples.shape
    scale = np.sqrt(energy / noise.snr_i / 2.0)
    white = np.empty((n_coils, n_samples), dtype=np.complex128)
    for l in range(n_coils):
        rng = np.random.default_rng(np.random.SeedSequence((noise.seed, shot_index, l)))
        # one draw of 2n is the same stream as two draws of n
        draw = rng.standard_normal(2 * n_samples)
        white[l] = draw[:n_samples] + 1j * draw[n_samples:]
    if noise.chol is not None:
        white = noise.chol @ white
    return samples + scale * white


# ---------------------------------------------------------------------------
# Shot acquisition


def _pattern_numbers(shots):
    """Each shot's pattern number, with patterns numbered in order of first use."""
    first = {}
    return [first.setdefault(shot.pattern_key, len(first)) for shot in shots]


def _memoized(cache, shot, transform):
    """transform(), memoized per k-point pattern when cache is a dict.

    The stored array is read-only, and every caller of a pattern gets
    that one array. Concurrent first callers of a pattern may each
    transform, but ``setdefault`` keeps the first value stored.
    """
    if cache is None:
        return transform()
    key = shot.pattern_key
    value = cache.get(key)
    if value is None:
        value = transform()
        value.flags.writeable = False
        value = cache.setdefault(key, value)
    return value


def acquire_shot_basic(mu_volume, coils: CoilProfile, shot: Shot, cache=None):
    """Basic Fourier model: y_l = F{S_l * mu}[k] with contrast frozen at TE.

    Leading term axes of mu_volume are kept: (..., Nx, Ny, Nz) maps to
    (..., L, P). ``cache``, a dict, memoizes the result per k-point
    pattern; one dict must only ever see one mu_volume and coil set.
    """
    mu_volume = np.asarray(mu_volume)
    return _memoized(cache, shot, lambda: NDFT(shot.points, mu_volume.shape[-3:]).forward(
        mu_volume[..., None, :, :, :] * coils.maps))


def acquire_shot_t2s(tissue_volumes, tissue_t2s_s, coils: CoilProfile, shot: Shot,
                     cache=None):
    """Extended model: per-tissue T2* decay along the echo-centered readout.

    tissue_volumes are mu_i * w_i at t_ref = TE; the sample at time t_n
    (relative to the echo center) carries exp(-t_n / T2*_i), so the echo
    center sample matches the basic model exactly. Term axes after the
    tissue axis are kept: (T, ..., Nx, Ny, Nz) maps to (..., L, P).
    ``cache`` is as for :func:`acquire_shot_basic`.
    """
    tissue_volumes = np.asarray(tissue_volumes)
    if tissue_volumes.shape[0] != len(tissue_t2s_s):
        raise EngineError(
            f"{tissue_volumes.shape[0]} tissue volumes for "
            f"{len(tissue_t2s_s)} T2* values"
        )

    def transform():
        nufft = NDFT(shot.points, tissue_volumes.shape[-3:])
        out = np.zeros((*tissue_volumes.shape[1:-3], coils.n_coils, shot.n_samples),
                       dtype=np.complex128)
        for i, t2s in enumerate(tissue_t2s_s):
            decay = np.exp(-shot.times / t2s) if np.isfinite(t2s) else np.ones(shot.n_samples)
            out += decay * nufft.forward(tissue_volumes[i][..., None, :, :, :] * coils.maps)
        return out

    return _memoized(cache, shot, transform)


# ---------------------------------------------------------------------------
# Full acquisition run


def _worker_count(n_jobs=None):
    env = os.environ.get("SNAKE_NJOBS")
    if env is not None:
        return max(1, int(env))
    return max(1, n_jobs or 1)


def _check_run_inputs(phantom: Phantom, plan: SamplingPlan, coils: CoilProfile,
                      bold: BoldSpec | None, gm_index):
    """Reject mismatched inputs before any shot runs or the sink opens;
    return the per-shot sample counts, which every frame must share."""
    dims = tuple(phantom.dims)
    if tuple(plan.dims) != dims:
        raise EngineError(f"plan dims {tuple(plan.dims)} differ from phantom dims {dims}")
    if coils.maps.shape[1:] != dims:
        raise EngineError(f"coil map dims {coils.maps.shape[1:]} differ from "
                          f"phantom dims {dims}")
    if gm_index is not None and not 0 <= gm_index < phantom.n_tissues:
        raise EngineError(f"gm_index {gm_index} is not one of the "
                          f"{phantom.n_tissues} tissues")
    if bold is not None:
        if bold.roi.shape != dims:
            raise EngineError(f"BOLD roi shape {bold.roi.shape} differs from "
                              f"phantom dims {dims}")
        if np.shape(bold.h_tilde) != (len(plan.shots),):
            raise EngineError(f"h_tilde has shape {np.shape(bold.h_tilde)}, "
                              f"need one value per shot ({len(plan.shots)})")
    counts = np.array([shot.n_samples for shot in plan.shots]).reshape(plan.n_frames, -1)
    ragged = np.flatnonzero((counts != counts[0]).any(axis=1))
    if ragged.size:
        t = ragged[0]
        raise EngineError(f"frame {t} has per-shot sample counts {counts[t].tolist()}, "
                          f"frame 0 has {counts[0].tolist()}")
    return counts[0].tolist()


def run_acquisition(phantom: Phantom, plan: SamplingPlan, coils: CoilProfile,
                    seq: SequenceParams, bold: BoldSpec | None = None,
                    model="basic", noise: NoiseConfig | None = None,
                    sink_path=None, gm_index=None, n_jobs=None):
    """Acquire every shot of the plan in order and write it to the sink.

    The BOLD state is affine in time: tissue i at shot s is
    b_i + h_s * d_i with base b_i = mu_i * w_i, delta
    d_i = -(TE * 1e-3) * dR2* * roi * b_i for the modulated tissues
    (``gm_index``, or all when None, as in
    :func:`snakesim.phantom.modulated_state`) and d_i = 0 otherwise, and
    h_s = ``bold.h_tilde[s]`` (0 without BOLD). The basic model
    transforms B = sum b_i and D = sum d_i; the t2s model keeps the
    tissues apart and applies each one's decay after its transform.

    A k-point pattern that occurs in more than one shot has its term
    samples Y (2, L, P) transformed once and memoized for the run, and
    each of its shots is y = Y[0] + h_s * Y[1]. The memo holds
    2 x patterns x L x P complex128 values (0.8 MB for a 22-plane EPI
    plan at 1080 samples and one coil). A pattern that occurs once is
    transformed as the single image B + h_s * D. So no shot costs more
    transforms than rebuilding its state would. The plan runs frame by
    frame: the shots of frame t that are the first of their pattern run
    on the worker pool, then the frame's memo hits on the calling thread.

    Shot i of frame t writes its (L, n_s) samples into columns
    ``bounds[i]:bounds[i+1]`` of the frame's (n_coils, P) block, P the
    samples of one frame. With ``sink_path`` that block is one buffer,
    appended to the sink per (coil, shot) as soon as the frame is done,
    and the run returns :func:`snakesim.io.read_dataset` of the sink:
    ``(header, kdata)`` with kdata a read-only complex64 memory map of
    shape (n_frames, n_coils, P), the bytes that were written. Without a
    sink the blocks are the frames of one complex128 array of that shape,
    returned as kdata. Inputs that do not match the phantom, or frames
    with unequal per-shot sample counts, raise :class:`EngineError`
    before the sink is created.
    """
    if model not in ("basic", "t2s"):
        raise EngineError(f"unknown model {model!r}")
    counts = _check_run_inputs(phantom, plan, coils, bold, gm_index)
    noise = noise or NoiseConfig()
    mu = gre_contrast(phantom, seq)
    baseline = contrast_volume(phantom, mu)
    energy = phantom_energy(baseline)
    t2s_s = np.array([t.t2_star * 1e-3 for t in phantom.tissues])
    n_shots = len(plan.shots)

    base = mu[:, None, None, None] * phantom.weights
    delta = np.zeros_like(base)
    h = np.zeros(n_shots)
    if bold is not None:
        gain = -(seq.te * 1e-3) * bold.delta_r2s * bold.roi
        for i in range(phantom.n_tissues) if gm_index is None else [gm_index]:
            delta[i] = gain * base[i]
        h = np.asarray(bold.h_tilde, dtype=np.float64)
    terms = np.stack([base, delta], axis=1)  # (T, 2, *dims)
    if model == "basic":
        terms = terms.sum(axis=0)            # (2, *dims): B and D
    pattern = _pattern_numbers(plan.shots)
    repeated = np.bincount(pattern)[pattern] > 1
    # each pattern's first shot transforms; every other shot is a memo hit
    is_lead = np.zeros(n_shots, dtype=bool)
    is_lead[np.unique(pattern, return_index=True)[1]] = True
    memo = {}
    bounds = np.concatenate([[0], np.cumsum(counts)])
    # full precision in memory: one frame with a sink, which quantizes to
    # c64 and is read back, and the whole run without one
    kdata = np.empty((1 if sink_path else plan.n_frames, coils.n_coils, bounds[-1]),
                     dtype=np.complex128)

    def acquire(volumes, shot, cache=None):
        if model == "basic":
            return acquire_shot_basic(volumes, coils, shot, cache=cache)
        return acquire_shot_t2s(volumes, t2s_s, coils, shot, cache=cache)

    def compute_shot(s, out):
        shot = plan.shots[s]
        if repeated[s]:
            y = acquire(terms, shot, cache=memo)
            samples = y[0] + h[s] * y[1]
        else:
            samples = acquire(terms[..., 0, :, :, :] + h[s] * terms[..., 1, :, :, :], shot)
        i = s % plan.shots_per_frame
        out[:, bounds[i]:bounds[i + 1]] = add_noise(samples, noise, energy, shot_index=s)

    header = {
        "dims": list(plan.dims),
        "voxel_size": list(phantom.voxel_size),
        "n_coils": coils.n_coils,
        "n_frames": plan.n_frames,
        "n_shots_per_frame": plan.shots_per_frame,
        "samples_per_shot": counts,
        "tr_shot_ms": plan.tr_shot * 1e3,
        "te_ms": seq.te,
        "model": model,
        "seed": noise.seed,
        "snr_i": None if np.isinf(noise.snr_i) else noise.snr_i,
        "trajectory_kind": plan.kind,
    }

    workers = _worker_count(n_jobs)
    writer = DatasetWriter(sink_path, header) if sink_path else None
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for t in range(plan.n_frames):
            out = kdata[0 if writer else t]
            shots = np.arange(t * plan.shots_per_frame, (t + 1) * plan.shots_per_frame)
            leads, hits = shots[is_lead[shots]].tolist(), shots[~is_lead[shots]].tolist()
            if pool:
                list(pool.map(compute_shot, leads, [out] * len(leads)))
            else:
                for s in leads:
                    compute_shot(s, out)
            # memo hits hold the GIL for most of their time (the lookup, the
            # AXPY and the noise draw of a few thousand samples), so threads
            # would only contend for it: they run on this thread
            for s in hits:
                compute_shot(s, out)
            if writer:
                for coil in out:
                    for lo, hi in zip(bounds[:-1], bounds[1:]):
                        writer.append(coil[lo:hi])
    finally:
        if pool:
            pool.shutdown()
        if writer:
            writer.close()
    if writer:
        return read_dataset(sink_path)
    return header, kdata
