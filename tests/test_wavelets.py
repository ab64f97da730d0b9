import numpy as np
import pytest

from snakesim.wavelets import (FAMILIES, WaveletBasis, WaveletError, _analysis_matrix,
                               _band, _filters, finest_detail, soft_threshold)

SUBBANDS = ("aad", "ada", "add", "daa", "dad", "dda", "ddd")


# ---------------------------------------------------------------------------
# Reference: the filter-bank DWT (circular convolution and downsampling per
# axis, subbands kept as separate blocks) and the masked soft threshold


def _ref_analysis(x, lo, hi, axis):
    """Circular convolution + downsample by 2 along one axis, over its
    first 2 * (n // 2) samples; an odd length's last sample is appended
    to the low band."""
    n = x.shape[axis]
    m = 2 * (n // 2)
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(len(lo))[None, :]) % m
    taken = np.take(x, idx.ravel(), axis=axis)
    shape = list(x.shape)
    shape[axis: axis + 1] = [n // 2, len(lo)]
    taken = taken.reshape(shape)
    a = np.tensordot(taken, lo, axes=([axis + 1], [0]))
    d = np.tensordot(taken, hi, axes=([axis + 1], [0]))
    return np.concatenate([a, np.take(x, range(m, n), axis=axis)], axis=axis), d


def _ref_synthesis(a, d, lo, hi, axis):
    """Adjoint of :func:`_ref_analysis`: the taps accumulated with np.add.at,
    and a low band longer than the high band passing its last entry on."""
    h = d.shape[axis]
    am, dm = np.moveaxis(a, axis, 0), np.moveaxis(d, axis, 0)
    out = np.zeros((len(am) + h, *am.shape[1:]), dtype=np.promote_types(a.dtype, np.float64))
    for j, (cl, ch) in enumerate(zip(lo, hi)):
        np.add.at(out, (2 * np.arange(h) + j) % (2 * h), cl * am[:h] + ch * dm)
    out[2 * h:] = am[h:]
    return np.moveaxis(out, 0, axis)


def _ref_forward(x, family, levels):
    """(approx, coarsest-first [{code: block}]) of the filter bank."""
    lo, hi = _filters(family)
    approx, details = x, []
    for _ in range(levels):
        blocks = {"": approx}
        for axis in range(3):
            blocks = {code + c: arr
                      for code, block in blocks.items()
                      for c, arr in zip("ad", _ref_analysis(block, lo, hi, axis))}
        approx = blocks.pop("aaa")
        details.append(blocks)
    return approx, details[::-1]


def _ref_inverse(approx, details, family):
    lo, hi = _filters(family)
    for level in details:
        blocks = {**level, "aaa": approx}
        for axis in reversed(range(3)):
            prefixes = sorted({code[:axis] + code[axis + 1:] for code in blocks})
            blocks = {pre: _ref_synthesis(blocks[pre[:axis] + "a" + pre[axis:]],
                                          blocks[pre[:axis] + "d" + pre[axis:]],
                                          lo, hi, axis)
                      for pre in prefixes}
        approx = blocks[""]
    return approx


def _ref_soft_threshold(x, mu):
    mag = np.abs(x)
    scale = np.maximum(mag - mu, 0.0)
    out = np.zeros_like(x)
    nz = mag > 0
    out[nz] = x[nz] / mag[nz] * scale[nz]
    return out


def _approx(coeffs, levels):
    """The coarsest approximation block of a dense Mallat array."""
    return coeffs[_band("aaa", coeffs.shape, levels)]


def _details(coeffs, levels):
    """Coarsest-first [{code: block}] of a dense Mallat array's detail subbands."""
    return [{code: coeffs[_band(code, coeffs.shape, level)] for code in SUBBANDS}
            for level in range(levels, 0, -1)]


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _random_volume(rng, dims, complex_=False):
    x = rng.standard_normal(dims)
    if complex_:
        x = x + 1j * rng.standard_normal(dims)
    return x


@pytest.mark.parametrize("family", ["haar", "symlet8"])
@pytest.mark.parametrize("dims", [(8, 8, 8), (16, 8, 8), (60, 71, 60)])
def test_perfect_reconstruction(family, dims):
    rng = np.random.default_rng(0)
    basis = WaveletBasis(family=family, levels=2)
    x = _random_volume(rng, dims, complex_=True)
    back = basis.inverse(basis.forward(x))
    np.testing.assert_allclose(back, x, atol=1e-10)


@pytest.mark.parametrize("family", ["haar", "symlet8"])
def test_parseval(family):
    rng = np.random.default_rng(1)
    basis = WaveletBasis(family=family, levels=2)
    x = _random_volume(rng, (8, 8, 8))
    coeffs = basis.forward(x)
    assert np.linalg.norm(coeffs.ravel()) == pytest.approx(
        np.linalg.norm(x), abs=1e-10)


def test_filter_orthonormality():
    for family, lo in FAMILIES.items():
        assert np.sum(lo ** 2) == pytest.approx(1.0, abs=1e-10)
        for shift in range(2, len(lo), 2):
            assert np.dot(lo[:-shift], lo[shift:]) == pytest.approx(0.0, abs=1e-8)


def test_constant_volume_full_depth_single_coefficient():
    basis = WaveletBasis(family="haar", levels=3)
    x = np.full((8, 8, 8), 2.0)
    coeffs = basis.forward(x)
    approx = _approx(coeffs, 3)
    assert approx.shape == (1, 1, 1)
    # Parseval: the lone approx coefficient carries all the energy
    assert approx[0, 0, 0] == pytest.approx(2.0 * np.sqrt(512), rel=1e-12)
    for level in _details(coeffs, 3):
        for arr in level.values():
            np.testing.assert_allclose(arr, 0.0, atol=1e-12)


def test_haar_impulse_hand_oracle():
    # level-1 Haar of a unit impulse at the origin voxel: all eight
    # subbands get +-1/(2*sqrt(2)) at their origin corner
    basis = WaveletBasis(family="haar", levels=1)
    x = np.zeros((4, 4, 4))
    x[0, 0, 0] = 1.0
    coeffs = basis.forward(x)
    expected = 1.0 / (2.0 * np.sqrt(2.0))
    assert abs(_approx(coeffs, 1)[0, 0, 0]) == pytest.approx(expected, rel=1e-12)
    for arr in _details(coeffs, 1)[0].values():
        assert abs(arr[0, 0, 0]) == pytest.approx(expected, rel=1e-12)
        assert np.count_nonzero(np.abs(arr) > 1e-15) == 1


def test_inverse_of_an_axis_that_halves_to_odd():
    """6 halves to 3 at level 2: the odd block's matrix is orthogonal,
    so the inverse returns the volume the forward transform took."""
    basis = WaveletBasis(family="haar", levels=2)
    x = _random_volume(np.random.default_rng(10), (6, 8, 8), complex_=True)
    _close(basis.inverse(basis.forward(x)), x)


@pytest.mark.parametrize("method", ["forward", "inverse"])
def test_fewer_than_three_dims_rejected(method):
    with pytest.raises(WaveletError, match="3D"):
        getattr(WaveletBasis(family="haar", levels=1), method)(np.zeros((8, 8)))


def test_unknown_family_rejected():
    with pytest.raises(WaveletError):
        WaveletBasis(family="db4")


def test_finest_detail_shape():
    basis = WaveletBasis(family="haar", levels=2)
    coeffs = basis.forward(np.zeros((16, 16, 16)))
    assert finest_detail(coeffs).shape == (8, 8, 8)
    assert _details(coeffs, 2)[0]["ddd"].shape == (4, 4, 4)


def test_ravel_length_preserved():
    basis = WaveletBasis(family="symlet8", levels=2)
    rng = np.random.default_rng(2)
    x = _random_volume(rng, (8, 8, 8))
    assert basis.forward(x).ravel().size == x.size


def test_soft_threshold_real():
    x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    np.testing.assert_allclose(soft_threshold(x, 1.0),
                               [-2.0, 0.0, 0.0, 0.0, 2.0])


def test_soft_threshold_complex_magnitude():
    x = np.array([3.0 * np.exp(1j * 0.7), 0.2 + 0.1j])
    out = soft_threshold(x, 1.0)
    assert abs(out[0]) == pytest.approx(2.0, rel=1e-12)
    assert np.angle(out[0]) == pytest.approx(0.7, rel=1e-12)
    assert out[1] == 0


def test_inverse_is_linear():
    basis = WaveletBasis(family="haar", levels=2)
    rng = np.random.default_rng(3)
    x = _random_volume(rng, (8, 8, 8))
    doubled = basis.inverse(2 * basis.forward(x))
    np.testing.assert_allclose(doubled, 2 * x, atol=1e-10)


@pytest.mark.parametrize("family", ["haar", "symlet8"])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_synthesis_equals_scatter_add_reference(family, axis):
    """One level's synthesis along an axis, the transposed level matrix,
    equals the np.add.at synthesis of the filter bank."""
    rng = np.random.default_rng(4)
    lo, hi = _filters(family)
    a, d = _ref_analysis(_random_volume(rng, (9, 6, 5), complex_=True), lo, hi, axis)
    n = a.shape[axis] + d.shape[axis]
    stacked = np.moveaxis(np.concatenate([a, d], axis=axis), axis, 0)
    got = np.moveaxis(np.tensordot(_analysis_matrix(n, lo, hi).T, stacked, axes=1), 0, axis)
    _close(got, _ref_synthesis(a, d, lo, hi, axis))


@pytest.mark.parametrize("family", ["haar", "symlet8"])
@pytest.mark.parametrize("n", [2, 4, 6, 18, 32])
def test_level_matrix_orthogonal(family, n):
    """Orthogonal also where taps wrap (n below the filter length)."""
    w = _analysis_matrix(n, *_filters(family))
    np.testing.assert_allclose(w @ w.T, np.eye(n), atol=1e-10)


@pytest.mark.parametrize("family", ["haar", "symlet8"])
def test_level_matrix_orthogonal_at_every_length(family):
    """Odd lengths included (max |W W^T - I| is 2.2e-16 for Haar and
    3.5e-13 for symlet-8 over n = 1..217)."""
    for n in range(1, 218):
        w = _analysis_matrix(n, *_filters(family))
        assert w.shape == (n, n)
        assert np.abs(w @ w.T - np.eye(n)).max() <= 1e-12, n


def _periodized_matrix(n, lo, hi):
    """The even-length matrix as built before odd lengths were taken."""
    rows = np.repeat(np.arange(n // 2), len(lo))
    cols = (2 * rows + np.tile(np.arange(len(lo)), n // 2)) % n
    w = np.zeros((n, n))
    np.add.at(w, (rows, cols), np.tile(lo, n // 2))
    np.add.at(w, (rows + n // 2, cols), np.tile(hi, n // 2))
    return w


@pytest.mark.parametrize("family", ["haar", "symlet8"])
def test_even_level_matrix_is_the_periodized_matrix(family):
    """Even lengths keep their matrices bit for bit, so every grid the
    transform took before odd lengths keeps its coefficients' bytes."""
    lo, hi = _filters(family)
    for n in range(2, 218, 2):
        assert _analysis_matrix(n, lo, hi).tobytes() == _periodized_matrix(n, lo, hi).tobytes()


@pytest.mark.parametrize("family", ["haar", "symlet8"])
def test_parseval_on_the_scale_1_grid(family):
    basis = WaveletBasis(family=family, levels=2)
    x = _random_volume(np.random.default_rng(11), (60, 71, 60), complex_=True)
    assert np.linalg.norm(basis.forward(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)


DENSE_CASES = [(levels, dims) for levels in (1, 2, 3)
               for dims in ((16, 24, 8), (8, 32, 16))] + [(1, (16, 18, 16))] + [
    (levels, dims) for levels in (1, 2, 3) for dims in ((9, 11, 7), (15, 18, 15))]


@pytest.mark.parametrize("family", ["haar", "symlet8"])
@pytest.mark.parametrize("levels,dims", DENSE_CASES)
def test_forward_matches_filter_bank(family, levels, dims):
    """Each block of the dense Mallat array equals the filter-bank subband."""
    rng = np.random.default_rng(6)
    x = _random_volume(rng, dims, complex_=True)
    coeffs = WaveletBasis(family, levels).forward(x)
    approx, details = _ref_forward(x, family, levels)
    assert coeffs.shape == dims
    _close(_approx(coeffs, levels), approx)
    for got, want in zip(_details(coeffs, levels), details):
        for code in SUBBANDS:
            _close(got[code], want[code])
    _close(finest_detail(coeffs), details[-1]["ddd"])
    # real volumes take the real path
    real = WaveletBasis(family, levels).forward(x.real)
    assert real.dtype == np.float64
    _close(_approx(real, levels), _ref_forward(x.real, family, levels)[0])


@pytest.mark.parametrize("family", ["haar", "symlet8"])
@pytest.mark.parametrize("levels,dims", DENSE_CASES)
def test_inverse_matches_filter_bank(family, levels, dims):
    """The inverse of an arbitrary dense array equals the filter-bank
    synthesis of its blocks, and leaves the coefficients untouched."""
    rng = np.random.default_rng(7)
    basis = WaveletBasis(family, levels)
    coeffs = _random_volume(rng, dims, complex_=True)
    before = coeffs.copy()
    want = _ref_inverse(_approx(coeffs, levels), _details(coeffs, levels), family)
    _close(basis.inverse(coeffs), want)
    assert np.array_equal(coeffs, before)


def test_finest_detail_is_a_view_of_the_dense_array():
    basis = WaveletBasis("haar", 2)
    coeffs = basis.forward(_random_volume(np.random.default_rng(8), (8, 8, 8)))
    assert np.shares_memory(finest_detail(coeffs), coeffs)


def test_soft_threshold_equals_masked_reference():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    x[::7] = 0
    x[3::11] = rng.standard_normal(len(x[3::11]))  # real-valued entries
    x[5::13] = -0.0
    x[1] = 1e-300
    for mu in (0.0, 0.3, 1.5, 10.0):
        for arr in (x, x.real, x.reshape(8, 25)):
            assert np.array_equal(soft_threshold(arr, mu), _ref_soft_threshold(arr, mu))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("family", ["haar", "symlet8"])
def test_single_precision_is_kept(family, complex_):
    """float32 and complex64 volumes give coefficients and volumes of
    their dtype, with perfect reconstruction and the float64 transform
    of the same values both within 4 float32 eps of the peak (at most
    3.2e-7 and 2.4e-7 over seeds 0-19)."""
    basis = WaveletBasis(family=family, levels=2)
    eps = np.finfo(np.float32).eps
    for seed in range(5):
        x = _random_volume(np.random.default_rng(seed), (16, 8, 8), complex_)
        x32 = x.astype(np.complex64 if complex_ else np.float32)
        coeffs = basis.forward(x32)
        back = basis.inverse(coeffs)
        assert coeffs.dtype == back.dtype == x32.dtype
        assert np.abs(back - x32).max() <= 4 * eps * np.abs(x32).max()
        want = basis.forward(x32.astype(np.complex128 if complex_ else np.float64))
        assert np.abs(coeffs - want).max() <= 4 * eps * np.abs(want).max()
