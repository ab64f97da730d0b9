"""Orthonormal separable 3D wavelet transform with periodic boundaries.

Filter taps are hardcoded (Haar and the 16-tap symlet-8) so the
transform contract does not depend on an external wavelet library.
Each axis is periodized over its even part, and an odd length passes
its last sample into the low band, so the transform is orthonormal on
any grid: perfect reconstruction and Parseval hold to machine precision.

Matrix form: one level along an axis of length n is an orthogonal
(n, n) matrix, the ceil(n/2) low-pass rows stacked on the floor(n/2)
high-pass rows. ``forward`` applies these matrices along x, y and
z to the leading block of each level, finest first; ``inverse``
applies their transposes, coarsest first. The matrices are built from
the taps once per block shape and cached on the basis. A float32 or
complex64 volume is transformed with float32 matrices and its
coefficients keep its dtype; any other is transformed in float64.
Both transforms take a stack of volumes along leading axes (the frames
of a batch) and transform each volume with matrix products of a lone
volume's shapes, so each equals its own transform bit for bit.

Coefficient layout: ``forward`` returns one dense array of the
volume's shape in Mallat layout, and ``inverse`` takes one. Along each
axis, a level's low band, the next level's block, is the first ceil(b/2)
entries of its block b, and its high band is the rest: 60 x 71 x 60
splits into 30 x 36 x 30, then 15 x 18 x 15. The coarsest approximation
is the last level's low band; at each level the seven detail subbands,
named by their axis code (e.g. ``"ddd"`` is high-pass along every axis),
fill the rest of that level's block. :func:`finest_detail` is a view of
the finest ``"ddd"`` subband; it depends only on the shape.
"""

from __future__ import annotations

import numpy as np


class WaveletError(ValueError):
    pass


_HAAR = np.array([1.0, 1.0]) / np.sqrt(2.0)

# Symlet-8 scaling (low-pass decomposition) filter, 16 taps.
_SYM8 = np.array([
    -0.0033824159510061256, -0.0005421323317911481, 0.03169508781149298,
    0.007607487324917605, -0.1432942383508097, -0.061273359067658524,
    0.4813596512583722, 0.7771857517005235, 0.3644418948353314,
    -0.05194583810770904, -0.027219029917056003, 0.049137179673607506,
    0.003808752013890615, -0.01495225833704823, -0.0003029205147213668,
    0.0018899503327594609,
])

FAMILIES = {"haar": _HAAR, "symlet8": _SYM8}


def _filters(family):
    try:
        lo = FAMILIES[family]
    except KeyError:
        raise WaveletError(f"unknown wavelet family {family!r}") from None
    hi = lo[::-1].copy()
    hi[1::2] *= -1
    return lo, hi


def _analysis_matrix(n, lo, hi):
    """(n, n) one-level DWT along one axis: ceil(n/2) low-pass rows over
    floor(n/2) high-pass rows. Row i of the periodized DWT of the first
    m = 2 * (n // 2) samples takes taps at positions (2i + j) mod m, and
    taps that wrap onto one position (m below the filter length) add up;
    an odd n passes its last sample into the last low-pass row. The
    matrix is orthogonal for any n, so its transpose inverts it.
    """
    h = n // 2
    rows = np.repeat(np.arange(h), len(lo))
    cols = (2 * rows + np.tile(np.arange(len(lo)), h)) % (2 * h)
    w = np.zeros((n, n))
    np.add.at(w, (rows, cols), np.tile(lo, h))
    np.add.at(w, (rows + n - h, cols), np.tile(hi, h))
    if n % 2:
        w[h, n - 1] = 1.0
    return w


def _band(code, shape, level):
    """Slices of the subband ``code`` of ``level`` (1 = finest) in a
    ``shape`` array: along each axis, the first ceil(b/2) entries of the
    level's block b for "a" and the rest for "d"."""
    # -(-n >> k) is ceil(n / 2^k), the block of level k + 1
    return tuple(slice(0, -(-n >> level)) if c == "a"
                 else slice(-(-n >> level), -(-n >> (level - 1)))
                 for c, n in zip(code, shape))


def finest_detail(coeffs):
    """View of the finest high-pass-on-every-axis ("ddd") subband of ``coeffs``."""
    return coeffs[_band("ddd", coeffs.shape, 1)]


class WaveletBasis:
    """Orthonormal multilevel separable 3D DWT (periodic boundary)."""

    def __init__(self, family="symlet8", levels=2):
        if levels < 1:
            raise WaveletError("need at least one decomposition level")
        self.family = family
        self.levels = levels
        self.lo, self.hi = _filters(family)
        self._matrices = {}

    def _level_matrices(self, shape, parts, real):
        """(W_x, W_y, W_z kron I_parts) for a level block of ``shape``, in
        the float dtype ``real``.

        ``parts`` is 2 for complex blocks, which are transformed as their
        real view: x and y act on whole rows of that view, and the
        Kronecker factor keeps real and imaginary parts apart along z.
        Built once per block shape, kind and precision, then cached on the
        basis.
        """
        key = (shape, parts, real)
        mats = self._matrices.get(key)
        if mats is None:
            wx, wy, wz = (_analysis_matrix(n, self.lo, self.hi).astype(real, copy=False)
                          for n in shape)
            mats = self._matrices.setdefault(
                key, (wx, wy, np.kron(wz, np.eye(parts, dtype=real))))
        return mats

    def _apply(self, block, inverse):
        """One level along x, y and z of a block, or of each block of a
        stack of them (transposed matrices when ``inverse``), as a new
        array in the block's precision. Each block of a stack goes through
        matrix products of a lone block's shapes, so it equals the lone
        block's transform bit for bit."""
        block = np.ascontiguousarray(block, dtype=np.result_type(block, np.float32))
        *lead, nx, ny, _ = block.shape
        real = np.finfo(block.dtype).dtype
        wx, wy, wz = self._level_matrices(block.shape[-3:], block.itemsize // real.itemsize,
                                          real)
        if inverse:
            wx, wy, wz = wx.T, wy.T, wz.T
        r = block.view(real)
        k = r.shape[-1]
        r = r.reshape(*lead, nx * ny, k) @ wz.T
        r = wy @ r.reshape(*lead, nx, ny, k)
        r = (wx @ r.reshape(*lead, nx, ny * k)).reshape(*lead, nx, ny, k)
        return r.view(block.dtype)

    def forward(self, volume):
        """The volume's coefficients, one array of its shape in Mallat
        layout; a stack of volumes (leading axes, e.g. frames) gives the
        stack of their coefficients."""
        volume = np.asarray(volume)
        if volume.ndim < 3:
            raise WaveletError("expected a 3D volume or a stack of them")
        out = self._apply(volume, inverse=False)
        for level in range(1, self.levels):
            sl = (..., *_band("aaa", out.shape[-3:], level))
            out[sl] = self._apply(out[sl], inverse=False)
        return out

    def inverse(self, coeffs):
        """The volume of a Mallat-layout array, or the stack of volumes of a
        stack of them; ``coeffs`` is left as it is."""
        if np.ndim(coeffs) < 3:
            raise WaveletError("expected a 3D array of coefficients or a stack of them")
        # a copy only when coarser levels are transformed in place
        out = np.array(coeffs, dtype=np.result_type(coeffs, np.float32),
                       copy=True if self.levels > 1 else None)
        for level in range(self.levels - 1, 0, -1):
            sl = (..., *_band("aaa", out.shape[-3:], level))
            out[sl] = self._apply(out[sl], inverse=True)
        return self._apply(out, inverse=True)


def soft_threshold(x, mu):
    """Complex soft-thresholding: shrink magnitudes by mu, which broadcasts
    against x (one value per frame of a stack of (F, Nx, Ny, Nz) frames
    is an (F, 1, 1, 1) array)."""
    mag = np.abs(x)
    nz = mag > 0
    # (x / mag) * max(mag - mu, 0) where mag > 0 and 0 elsewhere, in that
    # order; the shrunk magnitude takes mag's place
    out = np.divide(x, mag, out=np.zeros_like(x), where=nz)
    mag -= mu
    np.maximum(mag, 0.0, out=mag)
    return np.multiply(out, mag, out=out, where=nz)
