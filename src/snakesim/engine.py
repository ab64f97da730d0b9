"""Shot-wise k-space acquisition engine.

Samples are produced shot by shot from the current image state, either
under the basic Fourier model (contrast frozen at TE) or the extended
model with per-tissue T2* decay along the readout, of which the basic
model is the case of one tissue with infinite T2*: both take their
samples from one shot function, :func:`acquire_shot_t2s`, through
:class:`NDFT`, the operator that reconstruction inverts, called as
reconstruction calls it: volumes and coil maps in, coil samples out,
one volume's coil images held at a time. The NDFT takes one of three
exact paths, one formula each: the FFT when every point is on the grid
(EPI), a Kronecker product of a z table and one in-plane table when
the points are one in-plane set on each of their integer kz planes
(stack-of-spirals, whose planes all carry one spiral), and separable
phase tables for any other 3D trajectory.

The BOLD model is affine in time, so a run transforms two images per
tissue, a base and a BOLD delta, and each shot combines their samples
with its response value h_s. The k-point patterns that the plan
repeats, each as one Shot object, are transformed before the first
frame, one NDFT on their joined points (one FFT per image and coil for
an EPI plan), and memoized; each shot of them is then a lookup, an
AXPY and the noise draw. A shot whose pattern occurs once is
transformed on its own. Calibrated complex Gaussian noise is added per
sample. :func:`run_acquisition` runs the plan shot by shot, in plan
order on the calling thread, into one (n_coils, P) buffer, the layout
of a frame of the dataset body. With a sink each finished frame is
appended to it, so no run-sized array is held, the dataset takes its
name only once complete, and the run returns a reader of the dataset
that reads one frame per index; without one the frames fill one
complex128 (n_frames, n_coils, P) array.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
# numpy 2 imports these on first use; every run uses both, so they are
# imported with the package and a run's first shot does not pay for them
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

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


# largest number of combined phase table elements an operator keeps in
# memory; a table past it is rebuilt per call in chunks of this many
PHASE_TABLE_LIMIT = 4_000_000

def _phase(k, n):
    """(len(k), n) table exp(-2i pi k r) at voxel coordinates r = (m - n//2)/n."""
    return np.exp(-2j * np.pi * k[:, None] * ((np.arange(n) - n // 2) / n))


def _rows(a, b, sl):
    """Rows ``sl`` of the combined phase table whose row i is the outer
    product of rows i of the tables a and b, flattened."""
    return (a[sl, :, None] * b[sl, None, :]).reshape(sl.stop - sl.start, -1)


def _row_chunks(n, width, budget):
    """Row slices of an (n, width) combined table: one slice when it has
    at most ``budget`` elements, else slices of budget // width rows."""
    step = n if n * width <= budget else max(1, budget // width)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _is_integer(k):
    """Whether every coordinate of the 1-D ``k`` is within 1e-9 of an integer."""
    d = np.round(k)
    d -= k
    return bool((np.abs(d, out=d) <= 1e-9).all())


def _grid_index(points, dims):
    """Each point's flat index k mod N (per axis) in the ifftshifted grid
    if every point is an integer in [-N//2, N - N//2), else None; made
    one axis at a time, so no (P, 3) temporary is made."""
    flat = np.zeros(len(points), dtype=np.intp)
    for k, n in zip(points.T, dims):
        if not _is_integer(k):
            return None
        k = np.round(k)
        if not ((k >= -(n // 2)).all() and (k < n - n // 2).all()):
            return None
        flat *= n
        flat += np.mod(k, n, out=k).astype(np.intp)
    return flat


def _kronecker(points):
    """(kz planes, in-plane points, flat) when the points are a Kronecker
    product: each of Q in-plane points (kx, ky) on each of U integer kz
    planes, once, in any order; None for any other set. The planes and
    the in-plane points (as complex numbers, so -0.0 equals 0.0) are in
    np.unique order, and point j is entry flat[j] of the row-major (U, Q)
    grid."""
    if not _is_integer(points[:, 2]):
        return None
    planes, plane_of = np.unique(np.round(points[:, 2]), return_inverse=True)
    xy, xy_of = np.unique(points[:, 0] + 1j * points[:, 1], return_inverse=True)
    flat = plane_of * len(xy) + xy_of
    # U*Q points, no two at one grid entry (counted: np.unique of
    # integers imports numpy.ma on first use, 20 ms)
    if len(flat) != len(planes) * len(xy) or not (np.bincount(flat) == 1).all():
        return None
    return planes, xy, flat


class NDFT:
    """Exact unscaled non-uniform DFT of coil images at fixed 3D k-points.

    With coil maps S (L, Nx, Ny, Nz), forward takes volumes x
    (..., Nx, Ny, Nz) to the samples of their coil images, (..., L, P):
    y_l[n] = sum_m S_l[r_m] x[r_m] exp(-2i pi k_n . r_m) with voxel
    coordinates r_m = (m - N//2)/N per axis, so the DC sample equals the
    image sum and on-grid sampling coincides with the centered FFT.
    adjoint is its exact adjoint, (..., L, P) to the coil-combined
    sum_l conj(S_l) E^H y_l, (..., Nx, Ny, Nz), E the transform of one
    image. This is the one call form: acquisition passes its coil
    profile's maps and reconstruction its own, and one unit coil gives
    the transform of a bare image. Both make one volume's L coil images
    at a time, inside that volume's call, and hold no other volume's;
    each volume's result equals its own call's bit for bit.

    The points select one of three exact paths, named by ``path``:

    - ``"fft"``, every point on the integer grid (Cartesian, EPI): the
      centered FFT is fftshift(fftn(ifftshift(v))), so point k is entry
      k mod N (per axis) of fftn(ifftshift(v)), found one axis at a
      time. forward FFTs each ifftshifted coil image in place and gathers
      there, with no fftshift of the spectrum; adjoint adds each sample
      there (np.add.at, so repeated grid points sum), inverse-FFTs in
      place with no ifftshift of the grid, fftshifts and scales in place.
    - ``"stack"``, a Kronecker product of U integer kz planes and Q
      in-plane (kx, ky) points: each in-plane point on each plane, once,
      in any order, so that each point is one entry of a (U, Q) grid.
      Every stack the package makes (one spiral on every plane) is one.
      forward contracts each volume's coil images along z at every
      plane, one GEMM with the (U, Nz) z table, then takes all planes of
      every volume and coil to the grid in one GEMM with the combined
      (Q, Nx*Ny) in-plane table and gathers each point from its entry:
      Nx*Ny*Nz*U + Nx*Ny*U*Q MACs per image. adjoint gathers y into its
      grid by the inverse of that gather. Integer-kz points that are no
      such product (planes with different in-plane sets, as a spiral
      rotated per plane, or a repeated point) take the general path.
    - ``"general"``, any other points (3D trajectories): a (P, Nx)
      table and a combined (P, Ny*Nz) table.

    Both non-FFT paths run one loop over the rows of their combined
    table: one chunk, built once, when it has at most PHASE_TABLE_LIMIT
    elements, else chunks of rows (in-plane points or points) of at most
    that size, rebuilt per call. Every path computes in the precision of
    its input: complex64 or float32 input gives complex64 tables,
    products and output, any other input complex128. The tables of a
    precision are built when it is first called for and then kept.

    Each path has one per-volume adjoint kernel, which returns the
    conjugated adjoint conj(E^H y_l) of each coil: the FFT path
    conjugates its scaled images in place, and the non-FFT paths take it
    from the forward tables as conj(y) E, so no conjugated copy of a
    table is made. The coil sum is then one form on every path,
    conj(sum_l S_l conj(E^H y_l)), taken in place in the data's
    precision, so no conjugated copy of the maps is made either.
    """

    def __init__(self, points, dims):
        self.points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.dims = tuple(dims)
        self._tables = {}
        nx, ny, nz = self.dims
        if (flat := _grid_index(self.points, self.dims)) is not None:
            self.path, self._flat = "fft", flat
        elif (stack := _kronecker(self.points)) is not None:
            self.path = "stack"
            # point j is entry _flat[j] of the (U, Q) grid, which holds
            # point _entries[i] at entry i
            self._kz, xy, self._flat = stack
            self._xy, self._entries = (xy.real, xy.imag), np.argsort(self._flat)
            self._chunks = _row_chunks(len(xy), nx * ny, PHASE_TABLE_LIMIT)
        else:
            self.path = "general"
            self._chunks = _row_chunks(len(self.points), ny * nz, PHASE_TABLE_LIMIT)

    def _tables_in(self, dtype):
        """The phase tables (x, z, combined) in complex ``dtype``, built on
        first use, so an operator holds tables only in the precisions it
        was called in: the stack path's of its Q in-plane points, its U
        planes and (Q, Nx*Ny) of x and y, the general path's of its P
        points and (P, Ny*Nz) of y and z. ``combined(sl)`` is rows ``sl``
        of the combined table: the table kept here when it is one chunk,
        else those rows rebuilt per call."""
        tables = self._tables.get(dtype)
        if tables is not None:
            return tables
        nx, ny, nz = self.dims

        def phase(k, n):
            return _phase(k, n).astype(dtype, copy=False)

        if self.path == "stack":
            ex, ey, ez = phase(self._xy[0], nx), phase(self._xy[1], ny), phase(self._kz, nz)
            pair = ex, ey
        else:
            ex, ey, ez = (phase(k, n) for k, n in zip(self.points.T, self.dims))
            pair = ey, ez
        whole = _rows(*pair, self._chunks[0]) if len(self._chunks) == 1 else None
        combined = functools.partial(_rows, *pair) if whole is None else lambda sl: whole
        return self._tables.setdefault(dtype, (ex, ez, combined))

    def forward(self, x, maps):
        """The samples of the coil images maps_l * x of each volume x,
        (..., Nx, Ny, Nz) to (..., L, P), for coil maps (L, Nx, Ny, Nz)."""
        x = np.asarray(x)
        dtype = np.result_type(x.dtype, np.complex64)
        vols, shape = x.reshape(-1, *self.dims), (*x.shape[:-3], len(maps), len(self.points))

        def images(v):
            # made inside each volume's call, which frees them on return
            return np.multiply(maps, v, dtype=dtype)

        if self.path != "stack":
            kernel = self._fft_forward if self.path == "fft" else self._general_forward
            out = np.empty((len(vols), *shape[-2:]), dtype=dtype)
            for v, samples in zip(vols, out):
                kernel(images(v), samples)
            return out.reshape(shape)
        (nx, ny, nz), batch = self.dims, len(vols) * len(maps)
        ez, combined = self._tables_in(dtype)[1:]
        # (U, B*Nx*Ny): each volume's coil images contracted along z at each plane
        planes = np.concatenate([ez @ images(v).reshape(-1, nz).T for v in vols], axis=1)
        planes = planes.reshape(-1, nx * ny)
        # (U*B, Nx*Ny) @ (Nx*Ny, Q), as (B, U*Q), at each point's entry
        grid = np.concatenate([planes @ combined(sl).T for sl in self._chunks], axis=1)
        grid = grid.reshape(-1, batch, grid.shape[1]).transpose(1, 0, 2)
        return np.take(grid.reshape(batch, -1), self._flat, axis=1).reshape(shape)

    def adjoint(self, y, maps):
        """The coil-combined adjoint sum_l conj(maps_l) E^H y_l of each
        volume's coil samples, (..., L, P) to (..., Nx, Ny, Nz), for coil
        maps (L, Nx, Ny, Nz)."""
        y = np.asarray(y)
        # in y's precision: complex64 (or float32) data is transformed in
        # complex64, anything else in complex128
        dtype = np.result_type(y.dtype, np.complex64)
        kernel = {"fft": self._fft_adjoint, "stack": self._stack_adjoint,
                  "general": self._general_adjoint}[self.path]
        ys = y.reshape(-1, *y.shape[-2:])
        out = None
        for i, samples in enumerate(ys):
            back = kernel(samples, dtype).reshape(len(maps), *self.dims)
            if out is None:
                # made once the first adjoint's temporaries are freed
                out = np.empty((len(ys), *self.dims), dtype=dtype)
            # sum_l S_l back_l, with back overwritten
            np.multiply(back, maps, out=back, dtype=dtype)
            back.sum(axis=0, out=out[i])
            del back  # not held while the next volume's adjoint is made
        np.conj(out, out=out)
        return out.reshape(*y.shape[:-2], *self.dims)

    def _fft_forward(self, images, out):
        """The (L, P) samples of L coil images, written to ``out``."""
        # one 3D FFT per image (over the coil axis too measured a few
        # percent slower); take's default mode would buffer ``out``
        for im, samples in zip(images, out):
            a = np.fft.ifftshift(im)
            np.take(np.fft.fftn(a, out=a).ravel(), self._flat, out=samples, mode="clip")

    def _fft_adjoint(self, y, dtype):
        """conj(E^H y_l) of L coils' samples, (L, Nx, Ny, Nz): scattered,
        inverse-FFTed (numpy >= 2 keeps complex64 through numpy.fft),
        scaled and conjugated in ``dtype``."""
        out = np.empty((len(y), *self.dims), dtype=dtype)
        for l, samples in enumerate(y):
            grid = np.zeros(self.dims, dtype=dtype)
            np.add.at(grid.reshape(-1), self._flat, samples)
            out[l] = np.fft.fftshift(np.fft.ifftn(grid, out=grid))
        # a Python int scales in out's precision
        out *= int(np.prod(self.dims))
        return np.conj(out, out=out)

    def _general_forward(self, images, out):
        """The (L, P) samples of L coil images, written to ``out``."""
        ex, _, combined = self._tables_in(images.dtype)
        n, nx = len(images), self.dims[0]
        rows = images.reshape(n * nx, -1)
        for sl in self._chunks:
            tmp = (rows @ combined(sl).T).reshape(n, nx, -1)
            out[:, sl] = np.einsum("px,bxp->bp", ex[sl], tmp)

    def _general_adjoint(self, y, dtype):
        """conj(E^H y_l) of L coils' samples, (L*Nx, Ny*Nz)."""
        ex, _, combined = self._tables_in(dtype)
        n, (nx, ny, nz) = len(y), self.dims
        yc = y.astype(dtype, copy=False).conj()
        acc = np.zeros((n * nx, ny * nz), dtype=dtype)
        for sl in self._chunks:
            acc += (yc[:, None, sl] * ex[sl].T).reshape(n * nx, -1) @ combined(sl)
        return acc

    def _stack_adjoint(self, y, dtype):
        """conj(E^H y_l) of L coils' samples, (L*Nx*Ny, Nz)."""
        _, ez, combined = self._tables_in(dtype)
        u = len(self._kz)
        # the conjugated samples on their (L*U, Q) grid, whose row l*U + u
        # holds plane u of coil l
        grid = np.take(y.astype(dtype, copy=False).conj(), self._entries, axis=1)
        grid = grid.reshape(len(y) * u, -1)
        # (L*U, Q) @ (Q, Nx*Ny), the chunks' products added left to right
        # (sum's 0 + would make -0.0 into +0.0)
        planes = functools.reduce(np.add, (grid[:, sl] @ combined(sl) for sl in self._chunks))
        # a contiguous copy of the transposed planes, for (L*Nx*Ny, U) @
        # (U, Nz). The transposed product (ez.T @ planes).T made the adjoint
        # 0.133 against 0.149 ms, but its strided volume slowed
        # FrameOperator.adj_op's coil sum to 0.269 against 0.193 ms
        # (complex64, 16x18x16, 8 coils, 4 planes of 64 points; 2-core
        # Xeon, one BLAS thread)
        planes = np.ascontiguousarray(planes.reshape(-1, u, planes.shape[1]).transpose(0, 2, 1))
        return planes.reshape(-1, u) @ ez


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
        raise EngineError(f"need at least one coil, got {n_coils}")
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
        if type(self.seed) is bool or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise EngineError(f"seed must be a non-negative integer, got {self.seed!r}")
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
    keyed by (seed, shot index, coil), so a shot's draw depends on no
    other shot.
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
        white[l].real, white[l].imag = draw[:n_samples], draw[n_samples:]
    if noise.chol is not None:
        white = noise.chol @ white
    return samples + scale * white


# ---------------------------------------------------------------------------
# Shot acquisition


def _samples(tissue_volumes, tissue_t2s_s, coils: CoilProfile, points, times):
    """(..., L, P) samples of the (T, ..., Nx, Ny, Nz) tissue volumes'
    coil images, tissue i decayed by exp(-times / T2*_i); an infinite
    T2* has no decay. Each tissue's volumes go to ``NDFT.forward`` with
    the coil maps, which holds one volume's coil images at a time."""
    nufft = NDFT(points, tissue_volumes.shape[-3:])
    out = None
    for volume, t2s in zip(tissue_volumes, tissue_t2s_s):
        y = nufft.forward(volume, coils.maps)
        if np.isfinite(t2s):
            y *= np.exp(-times / t2s)
        out = y if out is None else out + y
    return out


def acquire_shot_t2s(tissue_volumes, tissue_t2s_s, coils: CoilProfile, shot: Shot,
                     cache=None):
    """Extended model: per-tissue T2* decay along the echo-centered readout.

    tissue_volumes are mu_i * w_i at t_ref = TE; the sample at time t_n
    (relative to the echo center) carries exp(-t_n / T2*_i), so the echo
    center sample matches the basic model exactly, and an infinite T2*
    has no decay. Term axes after the tissue axis are kept:
    (T, ..., Nx, Ny, Nz) maps to (..., L, P), each term volume's coil
    images made in turn, as reconstruction makes a frame's. ``cache``, a
    dict of read-only samples per Shot (see :func:`_transform_patterns`),
    gives the samples of the Shots it holds; it must have been filled
    from the same volumes, T2* values and coil set.
    """
    if cache and shot in cache:
        return cache[shot]
    tissue_volumes = np.asarray(tissue_volumes)
    if tissue_volumes.shape[0] != len(tissue_t2s_s):
        raise EngineError(
            f"{tissue_volumes.shape[0]} tissue volumes for "
            f"{len(tissue_t2s_s)} T2* values"
        )
    return _samples(tissue_volumes, tissue_t2s_s, coils, shot.points, shot.times)


def acquire_shot_basic(mu_volume, coils: CoilProfile, shot: Shot):
    """Basic Fourier model: y_l = F{S_l * mu}[k] with contrast frozen at TE,
    the extended model of one tissue with infinite T2*.

    Leading term axes of mu_volume are kept: (..., Nx, Ny, Nz) maps to
    (..., L, P).
    """
    return acquire_shot_t2s(np.asarray(mu_volume)[None], [np.inf], coils, shot)


def _transform_patterns(patterns, tissue_volumes, tissue_t2s_s, coils: CoilProfile):
    """{shot: its samples} for the distinct Shots ``patterns``, from one
    :func:`_samples` call on the patterns' joined points, each pattern's
    samples a read-only view of its columns.

    Each sample is the sum its pattern's own call would take, so the
    views equal the per-pattern results (on the FFT path both gather from
    one spectrum). The joined points take one NDFT path: every preset
    repeats patterns of one path only, and a plan that mixes on-grid and
    off-grid patterns takes the general path for all of them. A whole
    EPI plan then costs one FFT per volume.
    """
    if not patterns:
        return {}
    y = _samples(tissue_volumes, tissue_t2s_s, coils,
                 np.concatenate([s.points for s in patterns]),
                 np.concatenate([s.times for s in patterns]))
    y.flags.writeable = False
    ends = np.cumsum([s.n_samples for s in patterns])
    return {shot: y[..., hi - shot.n_samples:hi] for shot, hi in zip(patterns, ends)}


# ---------------------------------------------------------------------------
# Full acquisition run


def _check_run_inputs(phantom: Phantom, plan: SamplingPlan, coils: CoilProfile,
                      bold: BoldSpec | None, noise: NoiseConfig, gm_index):
    """Reject mismatched inputs before any shot runs or the sink opens;
    return the per-shot sample counts, which every frame must share."""
    dims = tuple(phantom.dims)
    if tuple(plan.dims) != dims:
        raise EngineError(f"plan dims {tuple(plan.dims)} differ from phantom dims {dims}")
    if coils.maps.shape[1:] != dims:
        raise EngineError(f"coil map dims {coils.maps.shape[1:]} differ from "
                          f"phantom dims {dims}")
    if noise.sigma is not None and np.shape(noise.sigma) != (coils.n_coils,) * 2:
        raise EngineError(f"coil covariance has shape {np.shape(noise.sigma)}, the "
                          f"{coils.n_coils} coils need {(coils.n_coils,) * 2}")
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
                    sink_path=None, gm_index=None):
    """Acquire every shot of the plan in order and write it to the sink.

    The BOLD state is affine in time: tissue i at shot s is
    b_i + h_s * d_i with base b_i = mu_i * w_i, delta
    d_i = -(TE * 1e-3) * dR2* * roi * b_i for the modulated tissues
    (``gm_index``, or all when None, as in
    :func:`snakesim.phantom.modulated_state`) and d_i = 0 otherwise, and
    h_s = ``bold.h_tilde[s]`` (0 without BOLD), each formed in its slot
    of one (T, 2, *dims) array, of which no other copy is held. The basic model
    transforms B = sum b_i and D = sum d_i as one tissue of infinite
    T2*; the t2s model keeps the tissues apart and applies each one's
    decay after its transform. Both take every shot's samples from
    :func:`acquire_shot_t2s`.

    A k-point pattern that occurs in more than one shot has its term
    samples Y (2, L, P) transformed before the first frame and memoized
    for the run, and each of its shots is y = Y[0] + h_s * Y[1]. The
    repeated patterns are transformed together, one NDFT on their joined
    points, so an on-grid plan costs one FFT per term volume and coil.
    The memo holds 2 x patterns x L x P complex128 values (0.8 MB for a
    22-plane EPI plan at 1080 samples and one coil). A pattern that
    occurs once is transformed as the single image
    B + h_s * D. So no shot costs more transforms than rebuilding its
    state would. Every shot runs in plan order on the calling thread.

    Shot i of frame t writes its (L, n_s) samples into columns
    ``bounds[i]:bounds[i+1]`` of the frame's (n_coils, P) block, P the
    samples of one frame. With ``sink_path`` that block is one buffer,
    converted to complex64 once and appended to the sink per (coil,
    shot) as soon as the frame is done, and the run returns
    :func:`snakesim.io.read_dataset` of the sink: ``(header, kdata)``
    with kdata a :class:`~snakesim.io.DatasetReader` of the bytes that
    were written, whose ``kdata[t]`` reads frame t as a complex64
    (n_coils, P) array. The sink is a
    :class:`~snakesim.io.DatasetWriter`, so a dataset exists at
    ``sink_path`` only once every frame is written, and a run that fails
    leaves ``<sink_path>.partial``. Without a sink the blocks are the
    frames of one complex128 array of that shape, returned as kdata.
    Inputs that do not match the phantom or each other, or frames with
    unequal per-shot sample counts, raise :class:`EngineError` before
    the sink is created.
    """
    if model not in ("basic", "t2s"):
        raise EngineError(f"unknown model {model!r}")
    noise = noise or NoiseConfig()
    counts = _check_run_inputs(phantom, plan, coils, bold, noise, gm_index)
    mu = gre_contrast(phantom, seq)
    energy = phantom_energy(contrast_volume(phantom, mu))
    t2s_s = np.array([t.t2_star * 1e-3 for t in phantom.tissues])
    n_shots = len(plan.shots)

    terms = np.zeros((phantom.n_tissues, 2, *phantom.dims))
    np.multiply(mu[:, None, None, None], phantom.weights, out=terms[:, 0])
    h = np.zeros(n_shots)
    if bold is not None:
        gain = -(seq.te * 1e-3) * bold.delta_r2s
        for i in range(phantom.n_tissues) if gm_index is None else [gm_index]:
            np.multiply(bold.roi, gain, out=terms[i, 1])
            terms[i, 1] *= terms[i, 0]
        h = np.asarray(bold.h_tilde, dtype=np.float64)
    if model == "basic":
        # one tissue of infinite T2*, as acquire_shot_basic takes it:
        # (1, 2, *dims), B and D
        terms, t2s_s = terms.sum(axis=0, keepdims=True), [np.inf]
    bounds = np.concatenate([[0], np.cumsum(counts)])
    # full precision in memory: one frame with a sink, which quantizes to
    # c64 and is read back, and the whole run without one
    kdata = np.empty((1 if sink_path else plan.n_frames, coils.n_coils, bounds[-1]),
                     dtype=np.complex128)

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

    # every repeated pattern is transformed here, before the first frame,
    # so each of its shots is a memo hit
    memo = _transform_patterns([shot for shot, n in Counter(plan.shots).items() if n > 1],
                               terms, t2s_s, coils)
    writer = DatasetWriter(sink_path, header) if sink_path else None
    try:
        for s, shot in enumerate(plan.shots):
            t, i = divmod(s, plan.shots_per_frame)
            out = kdata[0 if writer else t]
            if shot in memo:
                y = acquire_shot_t2s(terms, t2s_s, coils, shot, cache=memo)
                samples = y[0] + h[s] * y[1]
            else:
                samples = acquire_shot_t2s(terms[:, 0] + h[s] * terms[:, 1], t2s_s, coils, shot)
            out[:, bounds[i]:bounds[i + 1]] = add_noise(samples, noise, energy, shot_index=s)
            if writer and i == plan.shots_per_frame - 1:
                for coil in out.astype(np.complex64):
                    for lo, hi in zip(bounds[:-1], bounds[1:]):
                        writer.append(coil[lo:hi])
    finally:
        if writer:
            writer.close()
    if writer:
        return read_dataset(sink_path)
    return header, kdata
