"""Orthonormal separable 3D wavelet transform with periodic boundaries.

Filter taps are hardcoded (Haar and the 16-tap symlet-8) so the
transform contract does not depend on an external wavelet library.
Periodization preserves orthonormality for any even signal length, so
perfect reconstruction and Parseval hold to machine precision.

Coefficient layout: a :class:`WaveletCoeffs` holds the coarsest
approximation block plus, per level from coarsest to finest, the seven
detail subbands keyed by their axis code (e.g. ``"ddd"`` is the
highest-detail subband: high-pass along every axis).
"""

from __future__ import annotations

from dataclasses import dataclass

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

_SUBBAND_ORDER = ("aad", "ada", "add", "daa", "dad", "dda", "ddd")


def _filters(family):
    try:
        lo = FAMILIES[family]
    except KeyError:
        raise WaveletError(f"unknown wavelet family {family!r}") from None
    hi = lo[::-1].copy()
    hi[1::2] *= -1
    return lo, hi


def _analysis(x, lo, hi, axis):
    """Circular convolution + downsample by 2 along one axis."""
    n = x.shape[axis]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(len(lo))[None, :]) % n
    taken = np.take(x, idx.ravel(), axis=axis)
    shape = list(x.shape)
    shape[axis: axis + 1] = [n // 2, len(lo)]
    taken = taken.reshape(shape)
    a = np.tensordot(taken, lo, axes=([axis + 1], [0]))
    d = np.tensordot(taken, hi, axes=([axis + 1], [0]))
    return a, d


def _synthesis(a, d, lo, hi, axis):
    """Adjoint of :func:`_analysis` (equal to the inverse by orthonormality)."""
    n = 2 * a.shape[axis]
    a = np.moveaxis(a, axis, 0)
    d = np.moveaxis(d, axis, 0)
    out = np.zeros((n, *a.shape[1:]), dtype=np.promote_types(a.dtype, np.float64))
    for j, (cl, ch) in enumerate(zip(lo, hi)):
        # n is even, so one tap's positions are distinct and += adds each once
        pos = (2 * np.arange(n // 2) + j) % n
        out[pos] += cl * a + ch * d
    return np.moveaxis(out, 0, axis)


@dataclass
class WaveletCoeffs:
    """Multilevel 3D coefficients: approx block + per-level detail dicts."""

    approx: np.ndarray
    details: list  # coarsest-first list of {code: array}

    def ravel(self):
        parts = [self.approx.ravel()]
        for level in self.details:
            parts.extend(level[code].ravel() for code in _SUBBAND_ORDER)
        return np.concatenate(parts)

    def map(self, fn):
        return WaveletCoeffs(
            approx=fn(self.approx),
            details=[{code: fn(level[code]) for code in _SUBBAND_ORDER}
                     for level in self.details],
        )

    @property
    def finest_detail(self):
        """The highest-detail (high-pass on all axes) finest-level subband."""
        return self.details[-1]["ddd"]


class WaveletBasis:
    """Orthonormal multilevel separable 3D DWT (periodic boundary)."""

    def __init__(self, family="symlet8", levels=2):
        if levels < 1:
            raise WaveletError("need at least one decomposition level")
        self.family = family
        self.levels = levels
        self.lo, self.hi = _filters(family)

    def _check_dims(self, dims):
        for n in dims:
            if n % (2 ** self.levels) != 0:
                raise WaveletError(
                    f"dims {tuple(dims)} not divisible by 2^{self.levels}; "
                    f"pad to a multiple of {2 ** self.levels} first"
                )

    def forward(self, volume) -> WaveletCoeffs:
        volume = np.asarray(volume)
        if volume.ndim != 3:
            raise WaveletError("expected a 3D volume")
        self._check_dims(volume.shape)
        approx = volume
        details = []
        for _ in range(self.levels):
            # one level: split along each axis in turn
            blocks = {"": approx}
            for axis in range(3):
                new = {}
                for code, arr in blocks.items():
                    a, d = _analysis(arr, self.lo, self.hi, axis)
                    new[code + "a"] = a
                    new[code + "d"] = d
                blocks = new
            approx = blocks.pop("aaa")
            details.append(blocks)
        details.reverse()  # coarsest first
        return WaveletCoeffs(approx=approx, details=details)

    def inverse(self, coeffs: WaveletCoeffs):
        approx = coeffs.approx
        for level in coeffs.details:
            blocks = dict(level)
            blocks["aaa"] = approx
            for axis in reversed(range(3)):
                new = {}
                prefixes = sorted({code[:axis] + code[axis + 1:] for code in blocks})
                for pre in prefixes:
                    a = blocks[pre[:axis] + "a" + pre[axis:]]
                    d = blocks[pre[:axis] + "d" + pre[axis:]]
                    new[pre] = _synthesis(a, d, self.lo, self.hi, axis)
                blocks = new
            approx = blocks[""]
        return approx


def soft_threshold(x, mu):
    """Complex soft-thresholding: shrink magnitudes by mu."""
    mag = np.abs(x)
    scale = np.maximum(mag - mu, 0.0)
    out = np.zeros_like(x)
    nz = mag > 0
    out[nz] = x[nz] / mag[nz] * scale[nz]
    return out
