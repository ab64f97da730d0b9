import numpy as np
import pytest

from snakesim.wavelets import (FAMILIES, WaveletBasis, WaveletError,
                               _analysis, _filters, _synthesis, soft_threshold)


def _random_volume(rng, dims, complex_=False):
    x = rng.standard_normal(dims)
    if complex_:
        x = x + 1j * rng.standard_normal(dims)
    return x


@pytest.mark.parametrize("family", ["haar", "symlet8"])
@pytest.mark.parametrize("dims", [(8, 8, 8), (16, 8, 8)])
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
    assert coeffs.approx.shape == (1, 1, 1)
    # Parseval: the lone approx coefficient carries all the energy
    assert coeffs.approx[0, 0, 0] == pytest.approx(2.0 * np.sqrt(512), rel=1e-12)
    for level in coeffs.details:
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
    assert abs(coeffs.approx[0, 0, 0]) == pytest.approx(expected, rel=1e-12)
    for arr in coeffs.details[0].values():
        assert abs(arr[0, 0, 0]) == pytest.approx(expected, rel=1e-12)
        assert np.count_nonzero(np.abs(arr) > 1e-15) == 1


def test_indivisible_dims_rejected():
    basis = WaveletBasis(family="haar", levels=2)
    with pytest.raises(WaveletError, match="pad"):
        basis.forward(np.zeros((6, 8, 8)))


def test_unknown_family_rejected():
    with pytest.raises(WaveletError):
        WaveletBasis(family="db4")


def test_finest_detail_shape():
    basis = WaveletBasis(family="haar", levels=2)
    coeffs = basis.forward(np.zeros((16, 16, 16)))
    assert coeffs.finest_detail.shape == (8, 8, 8)
    assert coeffs.details[0]["ddd"].shape == (4, 4, 4)


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


def test_map_applies_everywhere():
    basis = WaveletBasis(family="haar", levels=2)
    rng = np.random.default_rng(3)
    x = _random_volume(rng, (8, 8, 8))
    doubled = basis.inverse(basis.forward(x).map(lambda c: 2 * c))
    np.testing.assert_allclose(doubled, 2 * x, atol=1e-10)


@pytest.mark.parametrize("family", ["haar", "symlet8"])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_synthesis_equals_scatter_add_reference(family, axis):
    rng = np.random.default_rng(4)
    lo, hi = _filters(family)
    a, d = _analysis(_random_volume(rng, (8, 6, 4), complex_=True), lo, hi, axis)
    # reference: the same taps accumulated with np.add.at
    n = 2 * a.shape[axis]
    am, dm = np.moveaxis(a, axis, 0), np.moveaxis(d, axis, 0)
    ref = np.zeros((n, *am.shape[1:]), dtype=np.complex128)
    for j, (cl, ch) in enumerate(zip(lo, hi)):
        np.add.at(ref, (2 * np.arange(n // 2) + j) % n, cl * am + ch * dm)
    assert np.array_equal(_synthesis(a, d, lo, hi, axis), np.moveaxis(ref, 0, axis))
