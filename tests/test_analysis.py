"""Tests for the GLM detection and image-quality metrics."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import ndimage, special, stats

from snakesim.analysis import (
    Z_CAP,
    AnalysisError,
    DetectionResult,
    SeriesSums,
    StatMap,
    bacc,
    build_design,
    glm_fit,
    precision_recall,
    psnr,
    ssim,
    threshold_detect,
    tsnr,
)
from snakesim.analysis import _box_mean, _legendre, _norm_isf, _t_to_z, _t_upper_tail
from snakesim.phantom import Paradigm


def _peak_bytes(fn):
    """The peak of the memory that numpy and Python allocate during fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _statmap(z):
    z = np.asarray(z, dtype=np.float64)
    return StatMap(beta=z.copy(), t=z.copy(), z=z, dof=100)


class TestBuildDesign:
    def test_block_design_shape_and_names(self):
        paradigm = Paradigm.blocks(on=20.0, off=20.0, run_length=300.0)
        design = build_design(paradigm, "double_gamma", n_frames=136, tr_vol=2.2)
        assert design.matrix.shape == (136, 3)
        assert design.names == ["task", "intercept", "drift1"]

    def test_task_column_tracks_block_period(self):
        # 20 s on / 20 s off at TR 2.2 s: peaks of the task column should be
        # spaced by the 40 s block period, ~18.2 frames apart
        paradigm = Paradigm.blocks(on=20.0, off=20.0, run_length=300.0)
        design = build_design(paradigm, "double_gamma", n_frames=136, tr_vol=2.2)
        task = design.matrix[:, 0]
        spectrum = np.abs(np.fft.rfft(task - task.mean()))
        peak = int(np.argmax(spectrum))
        period_frames = 136 / peak
        assert period_frames == pytest.approx(40.0 / 2.2, rel=0.07)

    def test_zero_paradigm_rejected_as_collinear(self):
        paradigm = Paradigm(events=(), run_length=100.0)
        with pytest.raises(AnalysisError, match="collinear"):
            build_design(paradigm, "double_gamma", n_frames=40, tr_vol=2.5)

    def test_drift_order_zero_two_columns(self):
        paradigm = Paradigm.blocks(on=20.0, off=20.0, run_length=120.0)
        design = build_design(paradigm, "double_gamma", n_frames=48,
                              tr_vol=2.5, drift_order=0)
        assert design.n_regressors == 2
        assert design.names == ["task", "intercept"]
        np.testing.assert_allclose(design.matrix[:, 1], 1.0)

    def test_too_few_frames(self):
        paradigm = Paradigm.blocks(on=20.0, off=20.0, run_length=120.0)
        with pytest.raises(AnalysisError, match="too few"):
            build_design(paradigm, "double_gamma", n_frames=2, tr_vol=2.5)

    @pytest.mark.parametrize("order", range(7))
    def test_legendre_equals_numpy_legval_bit_for_bit(self, order):
        """The drift columns come from a copy of legval's Clenshaw loop,
        so the design does not import numpy.polynomial."""
        from numpy.polynomial import legendre
        coef = np.zeros(order + 1)
        coef[order] = 1.0
        for n in (2, 3, 17, 136):
            u = np.linspace(-1, 1, n)
            assert _legendre(u, order).tobytes() == legendre.legval(u, coef).tobytes()


class TestGlmFit:
    def _design(self, n_frames=40):
        paradigm = Paradigm.blocks(on=20.0, off=20.0, run_length=n_frames * 2.5)
        return build_design(paradigm, "double_gamma", n_frames=n_frames, tr_vol=2.5)

    def test_exact_fit_saturates(self):
        design = self._design()
        task = design.matrix[:, 0]
        series = np.zeros((design.n_frames, 2, 2, 2))
        series[:, 0, 0, 0] = 5.0 * task + 3.0          # exact positive fit
        series[:, 1, 1, 1] = -2.0 * task + 1.0         # exact negative fit
        series[:, 0, 1, 0] = 4.0                       # constant voxel
        sm = glm_fit(series, design)
        assert sm.beta[0, 0, 0] == pytest.approx(5.0)
        assert sm.t[0, 0, 0] == 38.0
        assert sm.t[1, 1, 1] == -38.0
        assert sm.t[0, 1, 0] == 0.0

    def test_matches_closed_form_ols(self):
        rng = np.random.default_rng(11)
        design = self._design()
        x = design.matrix
        n, k = x.shape
        series = rng.standard_normal((n, 3, 3, 3)) + 10.0
        sm = glm_fit(series, design)
        y = series.reshape(n, -1)
        beta = np.linalg.lstsq(x, y, rcond=None)[0]
        resid = y - x @ beta
        s2 = (resid ** 2).sum(axis=0) / (n - k)
        se = np.sqrt(s2 * np.linalg.inv(x.T @ x)[0, 0])
        t_ref = beta[0] / se
        np.testing.assert_allclose(sm.t.ravel(), t_ref, rtol=1e-10)
        np.testing.assert_allclose(sm.beta.ravel(), beta[0], rtol=1e-10)
        assert sm.dof == n - k

    def test_null_data_z_is_standard_normal(self):
        # pure noise: z statistics should be close to N(0, 1)
        rng = np.random.default_rng(2024)
        design = self._design(n_frames=60)
        series = rng.standard_normal((60, 25, 20, 20))
        sm = glm_fit(series, design)
        z = sm.z.ravel()
        assert abs(z.mean()) < 3.0 / np.sqrt(z.size)
        assert z.std() == pytest.approx(1.0, abs=0.02)

    def test_frame_count_mismatch(self):
        design = self._design()
        with pytest.raises(AnalysisError, match="frames"):
            glm_fit(np.zeros((10, 2, 2, 2)), design)

    @pytest.mark.parametrize("dof", [1, 2, 3, 5, 7, 20, 133, 1000])
    def test_t_to_z_is_the_scipy_stats_expression(self, dof):
        grid = np.linspace(-Z_CAP, Z_CAP, 120_001)
        edge = np.array([0.0, -0.0, np.nan, 1e-300, -1e-300, np.inf, -np.inf])
        t = np.concatenate([grid, edge])
        want = np.where(t >= 0, stats.norm.isf(stats.t.sf(t, dof)),
                        -stats.norm.isf(stats.t.sf(-t, dof)))
        want = np.clip(np.nan_to_num(want, posinf=Z_CAP, neginf=-Z_CAP), -Z_CAP, Z_CAP)
        got = _t_to_z(t, dof)
        # the worst cases measured are 1.9e-14 max(1, |z|) at dof 1 and 5.1e-15
        # at dof 1000
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        # compared as bits, so the sign of every zero counts too
        exact = np.arange(t.size) >= grid.size
        exact |= np.abs(want) == Z_CAP
        np.testing.assert_array_equal(got[exact].view(np.int64), want[exact].view(np.int64))
        assert np.all(np.diff(got[:grid.size]) >= 0)

    @pytest.mark.parametrize("dof, t", [
        (1, 1e-8), (1, 1e10), (2, 1e150), (3, 100.0), (5, 2.0),
        (20, Z_CAP), (133, 0.001), (133, Z_CAP), (1000, 1.7), (1000, Z_CAP)])
    def test_t_upper_tail_against_mpmath(self, dof, t):
        """P(T > t) = I_x(dof / 2, 1 / 2) / 2 at 50 digits; the lgamma
        expression for ln B(a, b) costs most of the error at dof 1000."""
        mpmath.mp.dps = 50
        x = mpmath.mpf(dof) / (dof + mpmath.mpf(t) ** 2)
        want = mpmath.betainc(mpmath.mpf(dof) / 2, 0.5, 0, x, regularized=True) / 2
        got = _t_upper_tail(np.array([t]), dof)[0]
        assert abs(got - want) <= 5e-12 * want

    @pytest.mark.parametrize("dof", [1, 2, 3, 7, 20, 133, 225, 1000, 10_000])
    def test_t_upper_tail_on_a_t_grid_against_mpmath(self, dof):
        """P(T > t) on 200 t from 1e-3 to 37 within 1e-13 relative of its
        30-digit value, or within 2 eps times the tail's condition number
        in t, t f(t) / P(T > t), where that is larger: past t = 30 at
        dof 10^4 it exceeds 1000, and half an ulp of t moves the tail by
        more than 1e-13 (measured there: 1.6e-13 on a 2000-point grid)."""
        mpmath.mp.dps = 30
        ts = np.geomspace(1e-3, 37.0, 200)
        got = _t_upper_tail(ts, dof)
        nu = mpmath.mpf(dof)
        norm = mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
        for t, g in zip(ts, got):
            t_mp = mpmath.mpf(t)
            want = mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + t_mp ** 2), regularized=True) / 2
            cond = t_mp * norm * (1 + t_mp ** 2 / nu) ** (-(nu + 1) / 2) / want
            tol = max(1e-13, 2 * np.finfo(float).eps * float(cond))
            assert abs(g - want) <= tol * want, (t, float(abs(g - want) / want))

    def test_t_to_z_of_a_masked_subset_is_the_subset_of_t_to_z(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal(5000) * 3
        keep = rng.random(5000) < 0.3
        assert np.array_equal(_t_to_z(t[keep], 40), _t_to_z(t, 40)[keep])

    def test_mask_zeroes_outside(self):
        rng = np.random.default_rng(5)
        design = self._design()
        series = rng.standard_normal((design.n_frames, 2, 2, 2)) + 5
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[0, 0, 0] = True
        sm = glm_fit(series, design, mask=mask)
        assert np.all(sm.z[~mask] == 0.0)
        # only the voxels kept are mapped to z, to the same values
        full = glm_fit(series, design)
        assert np.array_equal(sm.z[mask], full.z[mask])
        assert np.array_equal(sm.t[mask], full.t[mask])


class TestThresholdDetect:
    def test_z_threshold_value(self):
        # p = 0.001 one-sided corresponds to z = 3.0902
        z = np.array([[[3.0, 3.2]]])
        roi = np.array([[[1.0, 1.0]]])
        det = threshold_detect(_statmap(z), 0.001, roi)
        assert det.positive.tolist() == [[[False, True]]]
        assert stats.norm.isf(0.001) == pytest.approx(3.0902, abs=1e-3)

    def test_perfect_detection_counts(self):
        z = np.zeros((4, 4, 4))
        roi = np.zeros((4, 4, 4))
        roi[:2] = 1.0
        z[roi >= 0.5] = 10.0
        det = threshold_detect(_statmap(z), 0.001, roi)
        assert (det.tp, det.fp, det.tn, det.fn) == (32, 0, 32, 0)

    def test_all_zero_z_no_positives(self):
        z = np.zeros((3, 3, 3))
        roi = np.ones((3, 3, 3))
        det = threshold_detect(_statmap(z), 0.001, roi)
        assert det.tp == 0 and det.fp == 0

    def test_bad_p(self):
        with pytest.raises(AnalysisError):
            threshold_detect(_statmap(np.zeros((2, 2, 2))), 1.5, np.ones((2, 2, 2)))


    def test_norm_isf_within_4_ulp_of_scipy_ndtri(self):
        q = np.logspace(-320, np.log10(0.5), 200_001)
        got, want = _norm_isf(q), -special.ndtri(q) + 0.0
        # both are >= 0 here, so their bit patterns order like their values
        assert np.max(np.abs(got.view(np.int64) - want.view(np.int64))) <= 4
        edge = np.array([0.0, 1.0, np.nan, -0.5, 1.5, 1e-320, 1 - 1e-16])
        np.testing.assert_array_equal(_norm_isf(edge), -special.ndtri(edge) + 0.0)

    @pytest.mark.parametrize("q", [1e-320, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20,
                                   1e-14, 1e-5, 0.1, 0.3, 0.7, 0.9999])
    def test_norm_isf_tails_against_mpmath(self, q):
        mpmath.mp.dps = 50
        # solved in log space, where the tail keeps its scale
        want = mpmath.findroot(lambda z: mpmath.log(mpmath.ncdf(-z) / q),
                               mpmath.sqrt(-2 * mpmath.log(q)) if q < 0.1 else 0)
        assert abs(_norm_isf(q) - want) <= 2 * np.spacing(abs(float(want)))

    @pytest.mark.parametrize("p", [0.5, 0.05, 0.01, 0.001, 1e-6, 1e-12, 0.999])
    def test_threshold_is_norm_isf(self, p):
        z_p = stats.norm.isf(p)
        assert np.float64(_norm_isf(p)).view(np.int64) == np.float64(z_p).view(np.int64)
        z = np.array([z_p, np.nextafter(z_p, np.inf)])
        det = threshold_detect(_statmap(z), p, np.ones(2))
        assert det.positive.tolist() == [False, True]


class TestPrecisionRecall:
    def test_perfect_separability_auc_one(self):
        z = np.concatenate([np.linspace(5, 8, 10), np.linspace(-2, 1, 30)])
        roi = np.concatenate([np.ones(10), np.zeros(30)])
        out = precision_recall(_statmap(z), roi)
        assert out["auc"] == pytest.approx(1.0)

    def test_random_scores_auc_near_prevalence(self):
        rng = np.random.default_rng(7)
        n = 20000
        roi = (rng.random(n) < 0.1).astype(float)
        z = rng.standard_normal(n)
        out = precision_recall(_statmap(z), roi)
        assert out["auc"] == pytest.approx(0.1, abs=0.02)

    def test_hand_computed_trapezoid(self):
        # scores sorted: 6(+), 5(-), 4(+), 3(-), 2(-), 1(-); n_pos = 2
        z = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        roi = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        out = precision_recall(_statmap(z), roi)
        # anchored curve: recall 0->1(p=1), 0.5(p=1), 0.5(p=1/2), 1(p=2/3),
        # 1(p=2/4), 1(p=2/5), 1(p=2/6), 1(p=prevalence=1/3)
        r = [0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0]
        p = [1.0, 1.0, 0.5, 2 / 3, 0.5, 0.4, 2 / 6, 2 / 6]
        expected = np.trapezoid(p, r)
        assert out["auc"] == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(out["recall"], r)
        np.testing.assert_allclose(out["precision"], p)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal(500)
        roi = (rng.random(500) < 0.2).astype(float)
        a = precision_recall(_statmap(z), roi)["auc"]
        b = precision_recall(_statmap(np.exp(0.5 * z)), roi)["auc"]
        assert a == pytest.approx(b, rel=1e-12)

    def test_empty_roi_rejected(self):
        with pytest.raises(AnalysisError, match="ROI"):
            precision_recall(_statmap(np.zeros(8)), np.zeros(8))


class TestBacc:
    def test_perfect(self):
        det = DetectionResult(positive=None, tp=10, fp=0, tn=30, fn=0,
                              p_threshold=0.001)
        assert bacc(det) == 1.0

    def test_chance(self):
        det = DetectionResult(positive=None, tp=5, fp=15, tn=15, fn=5,
                              p_threshold=0.001)
        assert bacc(det) == 0.5

    def test_hand_value(self):
        # TPR = 9/12 = 0.75, TNR = 36/40 = 0.9 -> 0.825
        det = DetectionResult(positive=None, tp=9, fp=4, tn=36, fn=3,
                              p_threshold=0.001)
        assert bacc(det) == pytest.approx(0.825)

    def test_missing_class_rejected(self):
        det = DetectionResult(positive=None, tp=0, fp=3, tn=5, fn=0,
                              p_threshold=0.001)
        with pytest.raises(AnalysisError):
            bacc(det)


class TestPsnr:
    def test_identical_inf(self):
        x = np.random.default_rng(0).random((6, 6, 6))
        assert psnr(x, x) == np.inf

    def test_constant_offset_analytic(self):
        ref = np.full((8, 8, 8), 2.0)
        x = ref + 0.1
        # rmse = 0.1, peak = 2 -> 20 log10(20)
        assert psnr(x, ref) == pytest.approx(20 * np.log10(20.0))

    def test_noise_ladder_monotone(self):
        rng = np.random.default_rng(3)
        ref = rng.random((8, 8, 8)) + 1.0
        values = [psnr(ref + rng.standard_normal(ref.shape) * s, ref)
                  for s in (0.01, 0.05, 0.2)]
        assert values[0] > values[1] > values[2]

    def test_shape_mismatch(self):
        with pytest.raises(AnalysisError):
            psnr(np.zeros((4, 4, 4)), np.zeros((4, 4, 5)))


def _ssim_oracle(x, ref, window=7, k1=0.01, k2=0.03):
    """Naive per-voxel SSIM with explicit wrap-around window loops."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    ref = np.abs(np.asarray(ref, dtype=np.float64))
    drange = ref.max()
    c1, c2 = (k1 * drange) ** 2, (k2 * drange) ** 2
    half = window // 2
    out = np.zeros(x.shape)
    nx, ny, nz = x.shape
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                xi = np.arange(i - half, i - half + window) % nx
                yj = np.arange(j - half, j - half + window) % ny
                zk = np.arange(k - half, k - half + window) % nz
                bx = x[np.ix_(xi, yj, zk)]
                br = ref[np.ix_(xi, yj, zk)]
                mx, mr = bx.mean(), br.mean()
                vx = (bx * bx).mean() - mx * mx
                vr = (br * br).mean() - mr * mr
                cov = (bx * br).mean() - mx * mr
                out[i, j, k] = ((2 * mx * mr + c1) * (2 * cov + c2)
                                / ((mx * mx + mr * mr + c1) * (vx + vr + c2)))
    return float(out.mean())


@pytest.mark.parametrize("shape", [(8, 8, 8), (7, 9, 5), (6, 5, 4)])
@pytest.mark.parametrize("window", [3, 7])
def test_box_mean_matches_uniform_filter(shape, window):
    # window 7 on an axis of 5 or 4 wraps some voxels in more than once
    a = np.random.default_rng(8).random((2, *shape)) - 0.25
    got = _box_mean(a.copy(), window)
    for field, mean in zip(a, got):
        np.testing.assert_allclose(
            mean, ndimage.uniform_filter(field, size=window, mode="wrap"), rtol=1e-12)


class TestSsim:
    def test_identical_is_one(self):
        x = np.random.default_rng(1).random((8, 8, 8))
        assert ssim(x, x) == pytest.approx(1.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(21)
        ref = rng.random((8, 8, 8)) + 0.5
        x = ref + 0.1 * rng.standard_normal(ref.shape)
        assert ssim(x, ref) == pytest.approx(_ssim_oracle(x, ref), abs=1e-9)

    def test_noise_ladder_monotone(self):
        rng = np.random.default_rng(4)
        ref = rng.random((8, 8, 8)) + 1.0
        values = [ssim(ref + rng.standard_normal(ref.shape) * s, ref)
                  for s in (0.01, 0.1, 0.5)]
        assert values[0] > values[1] > values[2]

    def test_shape_mismatch(self):
        with pytest.raises(AnalysisError):
            ssim(np.zeros((4, 4, 4)), np.zeros((4, 4, 5)))

    def test_equals_the_expression_with_fresh_temporaries(self):
        """Formed in place, num and den keep each element's operations and
        their order: the mean equals the plain expression's bit for bit."""
        rng = np.random.default_rng(5)
        ref = rng.random((12, 10, 14)) + 0.5
        x = np.abs(ref + 0.1 * rng.standard_normal(ref.shape))
        c1, c2 = (0.01 * ref.max()) ** 2, (0.03 * ref.max()) ** 2
        mu_x, mu_r, sq, xr = _box_mean(np.stack([x, ref, x * x + ref * ref, x * ref]), 7)
        mu_xr, mu_sq = mu_x * mu_r, mu_x ** 2 + mu_r ** 2
        num = (2 * mu_xr + c1) * (2 * (xr - mu_xr) + c2)
        den = (mu_sq + c1) * (sq - mu_sq + c2)
        assert ssim(x, ref) == float(np.mean(num / den))

    def test_peak_memory(self):
        """ssim holds at most 10 float64 volumes at a time (8.1 measured):
        its inputs are released once the four fields are formed, the fields
        once their box means are, and num and den overwrite the means."""
        rng = np.random.default_rng(2)
        x, ref = (rng.random((30, 36, 30)).astype(np.float32) for _ in range(2))
        assert _peak_bytes(lambda: ssim(x, ref)) <= 10 * 8 * x.size


class TestTsnr:
    def test_constant_series_flagged_inf(self):
        series = np.full((5, 3, 3, 3), 7.0)
        tmap, roi_mean = tsnr(series, roi=np.ones((3, 3, 3)))
        assert np.all(np.isinf(tmap))
        assert np.isnan(roi_mean)

    def test_exact_value(self):
        # mean 10, sample std 1 -> tSNR = 10 exactly
        series = np.zeros((2, 1, 1, 1))
        series[0] = 10 - np.sqrt(0.5)
        series[1] = 10 + np.sqrt(0.5)
        tmap, roi_mean = tsnr(series, roi=np.ones((1, 1, 1)))
        assert tmap[0, 0, 0] == pytest.approx(10.0)
        assert roi_mean == pytest.approx(10.0)

    def test_monte_carlo_ratio(self):
        rng = np.random.default_rng(12)
        series = 50.0 + rng.standard_normal((2000, 4, 4, 4))
        _, roi_mean = tsnr(series, roi=np.ones((4, 4, 4)))
        assert roi_mean == pytest.approx(50.0, rel=0.05)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        series = 20.0 + rng.standard_normal((50, 3, 3, 3))
        _, a = tsnr(series, roi=np.ones((3, 3, 3)))
        _, b = tsnr(3.0 * series, roi=np.ones((3, 3, 3)))
        assert a == pytest.approx(b, rel=1e-12)

    def test_needs_two_frames(self):
        with pytest.raises(AnalysisError):
            tsnr(np.zeros((1, 2, 2, 2)))


class TestSeriesSums:
    def _design(self, n_frames=20):
        paradigm = Paradigm.blocks(on=10.0, off=10.0, run_length=n_frames * 2.5)
        return build_design(paradigm, "double_gamma", n_frames=n_frames, tr_vol=2.5)

    def test_fed_frame_by_frame_equals_the_array_calls(self):
        """Sums fed one frame at a time give the array calls' maps exactly
        and keep the first and last frames."""
        rng = np.random.default_rng(41)
        design = self._design()
        series = 5.0 + rng.standard_normal((design.n_frames, 4, 3, 2))
        sums = SeriesSums(design)
        for frame in series:
            sums.add(frame)
        assert sums.n == design.n_frames
        np.testing.assert_array_equal(sums.first, series[0])
        np.testing.assert_array_equal(sums.last, series[-1])
        np.testing.assert_array_equal(glm_fit(sums, design).z, glm_fit(series, design).z)
        np.testing.assert_array_equal(tsnr(sums)[0], tsnr(series)[0])

    def test_mismatched_feed_rejected(self):
        design = self._design()
        sums = SeriesSums(design)
        sums.add(np.ones((2, 2)))
        with pytest.raises(AnalysisError, match="shape"):
            sums.add(np.ones((2, 3)))
        with pytest.raises(AnalysisError, match="1 frames, design 20"):
            glm_fit(sums, design)
        with pytest.raises(AnalysisError, match="another design"):
            glm_fit(sums, self._design())
        for _ in range(design.n_frames - 1):
            sums.add(np.ones((2, 2)))
        with pytest.raises(AnalysisError, match="more frames"):
            sums.add(np.ones((2, 2)))
        with pytest.raises(AnalysisError, match="another design"):
            glm_fit(SeriesSums(), design)


class TestChunkedSums:
    """glm_fit and tsnr, which sum the series one frame at a time on data
    shifted by the first frame, match the two-pass numpy expressions to
    within fixed tolerances (measured: 1.8e-14 on t, 1.6e-14 on z and
    6.0e-15 relative on tSNR)."""

    shape = (30, 3, 50, 61)

    def _series(self):
        rng = np.random.default_rng(31)
        return 10.0 + rng.standard_normal(self.shape)

    def test_glm_fit(self):
        series = self._series()
        n = self.shape[0]
        paradigm = Paradigm.blocks(on=10.0, off=10.0, run_length=n * 2.5)
        design = build_design(paradigm, "double_gamma", n_frames=n, tr_vol=2.5)
        x, k = design.matrix, design.n_regressors
        y = series.reshape(n, -1)
        xtx_inv = np.linalg.inv(x.T @ x)
        beta = xtx_inv @ x.T @ y
        sigma2 = ((y - x @ beta) ** 2).sum(axis=0) / (n - k)
        t = np.clip(beta[0] / np.sqrt(sigma2 * xtx_inv[0, 0]), -Z_CAP, Z_CAP)
        sm = glm_fit(series, design)
        np.testing.assert_allclose(sm.t.ravel(), t, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sm.z.ravel(), _t_to_z(t, n - k), rtol=0, atol=1e-12)

    def test_glm_fit_peak(self):
        """glm_fit holds at most 8 float64 volumes beside its sums (7.2
        measured, 13.2 before): beta is dropped once the effect and the
        RSS are formed, and sigma^2, t, its clip and the mask are formed in
        place in one volume."""
        dims, n = (30, 36, 30), 136
        paradigm = Paradigm.blocks(on=20.0, off=20.0, run_length=n * 2.0)
        design = build_design(paradigm, "double_gamma", n_frames=n, tr_vol=2.0)
        sums = SeriesSums(design)
        rng = np.random.default_rng(4)
        for _ in range(n):
            sums.add(10.0 + rng.standard_normal(dims).astype(np.float32))
        mask = np.zeros(dims, bool)
        mask[5:25, 5:30, 5:25] = True
        assert _peak_bytes(lambda: glm_fit(sums, design, mask=mask)) <= 8 * 8 * np.prod(dims)

    def test_glm_fit_peak_does_not_grow_with_the_mask(self):
        """t maps to z a block of masked voxels at a time, so a mask of all
        voxels costs glm_fit's peak at most the index of the kept voxels
        and one float64 volume more than a mask of an eighth of them."""
        dims, n = (48, 48, 48), 12
        paradigm = Paradigm.blocks(on=10.0, off=10.0, run_length=n * 2.5)
        design = build_design(paradigm, "double_gamma", n_frames=n, tr_vol=2.5)
        sums = SeriesSums(design)
        rng = np.random.default_rng(3)
        for _ in range(n):
            sums.add(10.0 + rng.standard_normal(dims))
        eighth = np.zeros(dims, bool)
        eighth[:6] = True
        peaks = [_peak_bytes(lambda: glm_fit(sums, design, mask=mask))
                 for mask in (eighth, np.ones(dims, bool))]
        assert peaks[1] <= peaks[0] + 2 * 8 * np.prod(dims)

    def test_tsnr(self):
        series = self._series()
        want = series.mean(axis=0) / series.std(axis=0, ddof=1)
        tmap, _ = tsnr(series)
        np.testing.assert_allclose(tmap, want, rtol=1e-12, atol=0)
