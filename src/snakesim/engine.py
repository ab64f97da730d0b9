"""Shot-wise k-space acquisition engine.

Samples are produced shot by shot from the current image state, either
under the basic Fourier model (contrast frozen at TE) or the extended
model with per-tissue T2* decay along the readout. Each shot's samples
come from one :class:`NDFT` over the shot's k-points, which is also the
operator that reconstruction inverts. Calibrated complex Gaussian noise
is added per sample, and results stream to the dataset container
without ever materializing the full 4D series.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .io import DatasetWriter, canonical_json
from .phantom import (Phantom, SequenceParams, BoldSpec, gre_contrast,
                      modulated_state, contrast_volume)
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


# largest (point, y, z) phase table built at once; bigger point sets are
# handled in chunks of this many elements
PHASE_TABLE_LIMIT = 4_000_000


class NDFT:
    """Exact single-coil, unscaled non-uniform DFT at fixed 3D k-points.

    forward: y[n] = sum_m x[r_m] exp(-2i pi k_n . r_m) with voxel
    coordinates r_m = (m - N//2)/N per axis, so the DC sample equals the
    volume sum and on-grid sampling coincides with the centered FFT.
    adjoint is its exact adjoint. When every point lies on the integer
    grid both directions go through the FFT; otherwise the separable
    phase tables are built once and shared by every call.
    """

    def __init__(self, points, dims):
        self.points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.dims = tuple(dims)
        self._grid_idx = self._on_grid()
        if self._grid_idx is not None:
            return
        n, ny, nz = len(self.points), self.dims[1], self.dims[2]
        ex, ey, ez = (np.exp(-2j * np.pi * self.points[:, a, None]
                             * ((np.arange(d) - d // 2) / d))
                      for a, d in enumerate(self.dims))
        self._ex = ex
        if n * ny * nz <= PHASE_TABLE_LIMIT:
            # combined (P, Ny*Nz) table turns both directions into one matmul
            self._eyz = (ey[:, :, None] * ez[:, None, :]).reshape(n, -1)
            step = n
        else:
            self._eyz, self._ey, self._ez = None, ey, ez
            step = max(1, PHASE_TABLE_LIMIT // (ny * nz))
        self._chunks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]

    def _on_grid(self, tol=1e-9):
        rounded = np.round(self.points)
        if not np.allclose(self.points, rounded, atol=tol, rtol=0):
            return None
        idx = (rounded + np.array(self.dims) // 2).astype(np.intp)
        if (idx < 0).any() or (idx >= np.array(self.dims)).any():
            return None
        return tuple(idx.T)

    def _eyz_chunk(self, sl):
        if self._eyz is not None:
            return self._eyz[sl]
        return (self._ey[sl, :, None] * self._ez[sl, None, :]).reshape(
            sl.stop - sl.start, -1)

    def forward(self, x):
        if self._grid_idx is not None:
            return centered_fft(x)[self._grid_idx]
        out = np.empty(len(self.points), dtype=np.complex128)
        flat = np.asarray(x).reshape(self.dims[0], -1)
        for sl in self._chunks:
            tmp = flat @ self._eyz_chunk(sl).T           # (Nx, P)
            out[sl] = np.einsum("px,xp->p", self._ex[sl], tmp)
        return out

    def adjoint(self, y):
        y = np.asarray(y, dtype=np.complex128)
        if self._grid_idx is not None:
            grid = np.zeros(self.dims, dtype=np.complex128)
            np.add.at(grid, self._grid_idx, y)
            return centered_ifft(grid) * np.prod(self.dims)
        out = np.zeros(self.dims, dtype=np.complex128)
        for sl in self._chunks:
            t1 = y[sl, None] * self._ex[sl].conj()       # (P, Nx)
            out += (t1.T @ self._eyz_chunk(sl).conj()).reshape(self.dims)
        return out


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

    def __post_init__(self):
        if not (self.snr_i > 0):
            raise EngineError("snr_i must be positive (or inf)")
        if self.sigma is not None:
            s = np.asarray(self.sigma)
            if not np.allclose(s, s.conj().T, atol=1e-12):
                raise EngineError("coil covariance must be Hermitian")
            eigs = np.linalg.eigvalsh(s)
            if eigs.min() < -1e-12:
                raise EngineError("coil covariance must be positive semi-definite")


def phantom_energy(mu_volume):
    """Mean squared magnitude of the ideal contrast volume at TE."""
    mu = np.asarray(mu_volume)
    return float(np.mean(np.abs(mu) ** 2))


def _noise_chol(sigma, n_coils):
    if sigma is None:
        return np.eye(n_coils)
    s = np.asarray(sigma, dtype=np.complex128)
    # PSD with possible zero eigenvalues: regularized Cholesky
    eigs, vecs = np.linalg.eigh(s)
    eigs = np.clip(eigs, 0, None)
    return vecs @ np.diag(np.sqrt(eigs))


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
        white[l] = rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
    chol = _noise_chol(noise.sigma, n_coils)
    return samples + scale * (chol @ white)


# ---------------------------------------------------------------------------
# Shot acquisition


def acquire_shot_basic(mu_volume, coils: CoilProfile, shot: Shot):
    """Basic Fourier model: y_l = F{S_l * mu}[k] with contrast frozen at TE."""
    nufft = NDFT(shot.points, mu_volume.shape)
    return np.stack([nufft.forward(coils.maps[l] * mu_volume)
                     for l in range(coils.n_coils)])


def acquire_shot_t2s(tissue_volumes, tissue_t2s_s, coils: CoilProfile, shot: Shot):
    """Extended model: per-tissue T2* decay along the echo-centered readout.

    tissue_volumes are mu_i * w_i at t_ref = TE; the sample at time t_n
    (relative to the echo center) carries exp(-t_n / T2*_i), so the echo
    center sample matches the basic model exactly.
    """
    tissue_volumes = np.asarray(tissue_volumes)
    if tissue_volumes.shape[0] != len(tissue_t2s_s):
        raise EngineError(
            f"{tissue_volumes.shape[0]} tissue volumes for "
            f"{len(tissue_t2s_s)} T2* values"
        )
    nufft = NDFT(shot.points, tissue_volumes.shape[1:])
    out = np.zeros((coils.n_coils, shot.n_samples), dtype=np.complex128)
    for i, t2s in enumerate(tissue_t2s_s):
        decay = np.exp(-shot.times / t2s) if np.isfinite(t2s) else np.ones(shot.n_samples)
        for l in range(coils.n_coils):
            out[l] += decay * nufft.forward(coils.maps[l] * tissue_volumes[i])
    return out


# ---------------------------------------------------------------------------
# Full acquisition run


def _worker_count(n_jobs=None):
    env = os.environ.get("SNAKE_NJOBS")
    if env is not None:
        return max(1, int(env))
    return max(1, n_jobs or 1)


def run_acquisition(phantom: Phantom, plan: SamplingPlan, coils: CoilProfile,
                    seq: SequenceParams, bold: BoldSpec | None = None,
                    model="basic", noise: NoiseConfig | None = None,
                    sink_path=None, gm_index=None, n_jobs=None):
    """Acquire every shot of the plan in order and stream to the sink.

    The modulated image state is rebuilt per shot from the immutable
    phantom (tissue parameters are frozen within a shot); only one shot's
    samples exist in memory per worker. Returns (header, frames) as from
    :func:`snakesim.io.read_dataset`.
    """
    if model not in ("basic", "t2s"):
        raise EngineError(f"unknown model {model!r}")
    noise = noise or NoiseConfig()
    mu = gre_contrast(phantom, seq)
    baseline = contrast_volume(phantom, mu)
    energy = phantom_energy(baseline)
    t2s_s = np.array([t.t2_star * 1e-3 for t in phantom.tissues])

    def compute_shot(global_idx):
        shot = plan.shots[global_idx]
        if bold is not None:
            tissue_vols = modulated_state(phantom, mu, bold, seq.te,
                                          global_idx, gm_index=gm_index)
        else:
            tissue_vols = mu[:, None, None, None] * phantom.weights
        if model == "basic":
            samples = acquire_shot_basic(tissue_vols.sum(axis=0), coils, shot)
        else:
            samples = acquire_shot_t2s(tissue_vols, t2s_s, coils, shot)
        return add_noise(samples, noise, energy, shot_index=global_idx)

    header = {
        "dims": list(plan.dims),
        "voxel_size": list(phantom.voxel_size),
        "n_coils": coils.n_coils,
        "n_frames": plan.n_frames,
        "n_shots_per_frame": plan.shots_per_frame,
        "samples_per_shot": [plan.shots[i].n_samples
                             for i in range(plan.shots_per_frame)],
        "tr_shot_ms": plan.tr_shot * 1e3,
        "te_ms": seq.te,
        "model": model,
        "seed": noise.seed,
        "snr_i": None if np.isinf(noise.snr_i) else noise.snr_i,
        "trajectory_kind": plan.kind,
    }

    workers = _worker_count(n_jobs)
    n_shots = len(plan.shots)
    frames = []
    writer = DatasetWriter(sink_path, header) if sink_path else None
    try:
        if workers == 1:
            results = map(compute_shot, range(n_shots))
            all_samples = list(results)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                all_samples = list(pool.map(compute_shot, range(n_shots)))
        for t in range(plan.n_frames):
            coils_data = []
            for l in range(coils.n_coils):
                shots_data = []
                for s in range(plan.shots_per_frame):
                    # full precision in memory; the sink quantizes to c64
                    y = all_samples[t * plan.shots_per_frame + s][l]
                    shots_data.append(y)
                    if writer:
                        writer.append(y)
                coils_data.append(shots_data)
            frames.append(coils_data)
    finally:
        if writer:
            writer.close()
    return header, frames
