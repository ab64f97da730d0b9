"""Tests for the SURE-based threshold selection."""

import numpy as np
import pytest

from snakesim.recon import ReconError, sure_threshold, sure_threshold_coeffs
from snakesim.wavelets import WaveletBasis


def _sure_oracle(alpha):
    """Straight transcription of the selection rule, kept independent of
    the library implementation: MAD scale, sparsity test against
    log2(n)^{3/2}/sqrt(n), exhaustive risk scan over |alpha|/sigma,
    universal-threshold cap."""
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    n = alpha.size
    universal = np.sqrt(2.0 * np.log2(n))
    sigma = 0.675 * np.median(np.abs(alpha - np.median(alpha)))
    alpha = np.abs(alpha)
    if sigma == 0:
        return universal, 0.0
    a = alpha / sigma
    if np.sum(a * a) / n < np.log2(n) ** 1.5 / np.sqrt(n):
        return universal, sigma
    best_w, best_risk = None, np.inf
    for w in a:
        risk = 0.0
        for ai in a:
            risk += min(ai * ai, w * w) - 2.0 * (ai * ai < w * w)
        if risk < best_risk:
            best_risk, best_w = risk, w
    return min(best_w, universal), sigma


class TestSureThresholdCoeffs:
    def test_sparse_vector_takes_universal(self):
        # symmetric +/-1 cluster with a couple of zeros: the MAD-based scale
        # is large relative to the energy, so the sparsity test fires
        alpha = np.array([1.0, -1.0] * 7 + [0.0, 0.0])
        mu, sigma = sure_threshold_coeffs(alpha)
        assert sigma > 0
        assert mu == pytest.approx(np.sqrt(2 * np.log2(16)))

    def test_all_zero_guard(self):
        mu, sigma = sure_threshold_coeffs(np.zeros(4))
        assert mu == pytest.approx(np.sqrt(2 * np.log2(4)))  # == 2.0
        assert sigma == 0.0

    def test_constant_nonzero_guard_keeps_scale(self):
        mu, sigma = sure_threshold_coeffs(np.full(16, 3.0))
        assert mu == pytest.approx(np.sqrt(2 * np.log2(16)))
        assert sigma == pytest.approx(1e-12 * 3.0)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_exhaustive_scan(self, seed, n):
        rng = np.random.default_rng(seed)
        alpha = rng.standard_normal(n) + 0.5 * rng.standard_normal()
        mu, sigma = sure_threshold_coeffs(alpha)
        mu_ref, sigma_ref = _sure_oracle(alpha)
        assert sigma == pytest.approx(sigma_ref, rel=1e-12)
        assert mu == pytest.approx(mu_ref, rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_never_exceeds_universal(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(8, 512))
        alpha = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        mu, _ = sure_threshold_coeffs(alpha)
        assert mu <= np.sqrt(2 * np.log2(n)) + 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_on_large_tied_vector(self, seed):
        # values rounded to one decimal: ~60 distinct magnitudes over 2400
        # coefficients, half of them shrunk so the scan picks a threshold
        # below the universal cap
        rng = np.random.default_rng(200 + seed)
        n = 2400
        alpha = np.round(rng.standard_normal(n), 1)
        alpha[rng.random(n) < 0.5] *= 0.02
        sigma_ref = 0.675 * np.median(np.abs(alpha - np.median(alpha)))
        a = np.abs(alpha) / sigma_ref
        risks = [np.sum(np.minimum(a * a, w * w) - 2.0 * (a * a < w * w)) for w in a]
        best = a[int(np.argmin(risks))]
        assert best < np.sqrt(2 * np.log2(n))
        mu, sigma = sure_threshold_coeffs(alpha)
        assert sigma == pytest.approx(sigma_ref, rel=1e-12)
        assert mu == pytest.approx(best, rel=1e-12)

    def test_rejects_tiny_input(self):
        with pytest.raises(ReconError):
            sure_threshold_coeffs(np.array([1.0]))


class TestSureThreshold:
    def test_scales_back_to_coefficient_units(self):
        rng = np.random.default_rng(3)
        vol = rng.standard_normal((16, 16, 16))
        basis = WaveletBasis("haar", 2)
        mu = sure_threshold(vol, basis)
        alpha = basis.forward(vol).finest_detail.ravel()
        mu_norm, sigma = sure_threshold_coeffs(alpha)
        assert mu == pytest.approx(mu_norm * sigma)
        assert mu > 0

    def test_rejects_non_finite(self):
        vol = np.zeros((8, 8, 8))
        vol[0, 0, 0] = np.nan
        with pytest.raises(ReconError):
            sure_threshold(vol, WaveletBasis("haar", 1))
