import numpy as np
import pytest

from snakesim.io import write_volume
from snakesim.phantom import (BoldSpec, Paradigm, Phantom, PhantomError,
                              SequenceParams, TissueParams, bold_modulate,
                              build_bold_timecourse, contrast_volume,
                              default_tissues, gre_contrast, hrf_kernel,
                              load_phantom, synthetic_phantom)

# steady-state GRE contrast for GM at the common sequence settings
# (T1=1800ms, T2*=28ms, rho=0.86, TR=50ms, TE=25ms, alpha=12deg), frozen
# from a 50-digit extended-precision evaluation of the formula
MU_GM_FIXTURE = 0.04123041903907741765


def _seq(**kw):
    base = dict(tr_shot=50.0, te=25.0, flip_angle=12.0, t_obs=25.0)
    base.update(kw)
    return SequenceParams(**base)


class TestTissueParams:
    def test_defaults_table(self):
        by_name = {t.name: t for t in default_tissues()}
        wm, gm, csf = by_name["WM"], by_name["GM"], by_name["CSF"]
        assert (wm.t1, wm.t2, wm.t2_star, wm.rho) == (1200, 57, 27, 0.77)
        assert (gm.t1, gm.t2, gm.t2_star, gm.rho) == (1800, 49, 28, 0.86)
        assert (csf.t1, csf.t2, csf.t2_star, csf.rho) == (3730, 1010, 1010, 1.0)

    def test_ordering_invariant(self):
        with pytest.raises(PhantomError):
            TissueParams(name="x", t1=100, t2=50, t2_star=60, rho=0.5)

    def test_rho_bounds(self):
        with pytest.raises(PhantomError):
            TissueParams(name="x", t1=100, t2=50, t2_star=40, rho=1.5)


class TestLoadPhantom:
    def test_three_tissue_load(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for i, name in enumerate(["wm", "gm", "csf"]):
            w = rng.uniform(0, 0.33, size=(8, 8, 8))
            p = tmp_path / f"{name}.snkv"
            write_volume(p, w)
            paths.append(p)
        phantom = load_phantom(paths, default_tissues())
        assert phantom.n_tissues == 3
        assert phantom.dims == (8, 8, 8)

    def test_all_ones_single_tissue(self, tmp_path):
        p = tmp_path / "one.snkv"
        write_volume(p, np.ones((4, 4, 4)))
        phantom = load_phantom([p], default_tissues(("GM",)))
        np.testing.assert_allclose(phantom.weights.sum(axis=0), 1.0)

    def test_dim_mismatch_names_file(self, tmp_path):
        a, b = tmp_path / "a.snkv", tmp_path / "b.snkv"
        write_volume(a, np.zeros((4, 4, 4)))
        write_volume(b, np.zeros((4, 4, 5)))
        with pytest.raises(PhantomError, match="b.snkv"):
            load_phantom([a, b], default_tissues(("WM", "GM")))

    def test_weight_sum_violation(self, tmp_path):
        a, b = tmp_path / "a.snkv", tmp_path / "b.snkv"
        write_volume(a, np.full((4, 4, 4), 0.7))
        write_volume(b, np.full((4, 4, 4), 0.5))
        with pytest.raises(PhantomError, match="sum"):
            load_phantom([a, b], default_tissues(("WM", "GM")))


class TestSyntheticPhantom:
    def test_interior_full_weight(self):
        ph = synthetic_phantom((16, 16, 16), [((8.0, 8.0, 8.0), 5.0, 1)])
        assert ph.weights[1][8, 8, 8] == 1.0
        assert ph.weights[1][6, 8, 8] == 1.0

    def test_disjoint_spheres_disjoint_support(self):
        ph = synthetic_phantom((16, 16, 16),
                               [((4.0, 4.0, 4.0), 2.0, 0),
                                ((12.0, 12.0, 12.0), 2.0, 1)])
        assert not np.any((ph.weights[0] > 0) & (ph.weights[1] > 0))

    def test_overlap_same_tissue_max_rule(self):
        ph = synthetic_phantom((16, 16, 16),
                               [((7.0, 8.0, 8.0), 3.0, 0),
                                ((9.0, 8.0, 8.0), 3.0, 0)])
        assert ph.weights[0].max() <= 1.0

    def test_empty_sphere_list_warns(self):
        with pytest.warns(UserWarning, match="empty"):
            ph = synthetic_phantom((8, 8, 8), [])
        assert not np.any(ph.weights)

    def test_weight_sum_invariant(self):
        ph = synthetic_phantom((12, 12, 12),
                               [((5.0, 6.0, 6.0), 3.0, 0),
                                ((7.0, 6.0, 6.0), 3.0, 1)])
        assert ph.weights.sum(axis=0).max() <= 1 + 1e-6


def _meshgrid_phantom_weights(dims, spheres, n_tissues=3, supersample=4):
    """The full-volume subvoxel loop synthetic_phantom replaced."""
    weights = np.zeros((n_tissues, *dims))
    off = (np.arange(supersample) + 0.5) / supersample - 0.5
    ox, oy, oz = np.meshgrid(off, off, off, indexing="ij")
    grids = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in dims], indexing="ij")
    for (cx, cy, cz), radius, ti in spheres:
        frac = np.zeros(dims)
        for dx, dy, dz in zip(ox.ravel(), oy.ravel(), oz.ravel()):
            frac += ((grids[0] + dx - cx) ** 2 + (grids[1] + dy - cy) ** 2
                     + (grids[2] + dz - cz) ** 2) <= radius ** 2
        frac /= supersample ** 3
        weights[ti] = np.maximum(weights[ti], frac)
    total = weights.sum(axis=0)
    over = total > 1.0
    if over.any():
        weights[:, over] /= total[over]
    return weights


@pytest.mark.parametrize("supersample", [1, 4])
@pytest.mark.parametrize("dims, spheres", [
    ((15, 17, 13), [((7.5, 8.5, 6.5), 5.0, 0), ((7, 8, 6), 3.3, 1),
                    ((4.2, 5.1, 4.0), 2.7, 2), ((10.9, 11.6, 8.8), 2.2, 1)]),
    ((9, 11, 7), [((4.5, 5.5, 3.5), 3.5, 1), ((4.5, 5.5, 3.5), 1.25, 2)]),
    ((11, 11, 11), [((5.5, 5.5, 5.5), 5.5, 0)]),
])
def test_synthetic_phantom_matches_meshgrid_loop(dims, spheres, supersample):
    got = synthetic_phantom(dims, spheres, supersample=supersample).weights
    want = _meshgrid_phantom_weights(dims, spheres, supersample=supersample)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestGreContrast:
    def _one_tissue(self, t1, t2s, rho):
        tis = TissueParams(name="x", t1=t1, t2=t2s, t2_star=t2s, rho=rho)
        return Phantom(dims=(2, 2, 2), voxel_size=(1, 1, 1), tissues=(tis,),
                       weights=np.ones((1, 2, 2, 2)))

    def test_saturated_limit(self):
        # alpha = 90deg, TR >> T1, TE -> 0: mu -> rho
        ph = self._one_tissue(t1=1.0, t2s=1.0, rho=0.8)
        seq = SequenceParams(tr_shot=1000.0, te=1e-9, flip_angle=90.0, t_obs=1.0)
        assert gre_contrast(ph, seq)[0] == pytest.approx(0.8, abs=1e-9)

    def test_te_equals_t2s(self):
        ph = self._one_tissue(t1=30.0, t2s=30.0, rho=0.8)
        seq = SequenceParams(tr_shot=1000.0, te=30.0, flip_angle=90.0, t_obs=30.0)
        assert gre_contrast(ph, seq)[0] == pytest.approx(0.8 * np.exp(-1), rel=1e-9)

    def test_gm_fixture(self):
        gm = default_tissues(("GM",))
        ph = Phantom(dims=(2, 2, 2), voxel_size=(1, 1, 1), tissues=tuple(gm),
                     weights=np.ones((1, 2, 2, 2)))
        mu = gre_contrast(ph, _seq())[0]
        assert mu == pytest.approx(MU_GM_FIXTURE, abs=1e-15)

    def test_monotone_in_te(self):
        gm = default_tissues(("GM",))
        ph = Phantom(dims=(2, 2, 2), voxel_size=(1, 1, 1), tissues=tuple(gm),
                     weights=np.ones((1, 2, 2, 2)))
        mus = [gre_contrast(ph, _seq(te=te))[0] for te in (5, 10, 20, 30, 40)]
        assert np.all(np.diff(mus) < 0)

    def test_contrast_volume_combination(self):
        ph = synthetic_phantom((8, 8, 8), [((4.0, 4.0, 4.0), 2.0, 1)])
        mu = gre_contrast(ph, _seq())
        vol = contrast_volume(ph, mu)
        expected = sum(mu[i] * ph.weights[i] for i in range(ph.n_tissues))
        np.testing.assert_allclose(vol, expected, atol=1e-15)


class TestParadigm:
    def test_blocks(self):
        par = Paradigm.blocks(20.0, 20.0, 300.0)
        assert par.events[0] == (20.0, 20.0, 1.0)
        assert par.events[1][0] == 60.0

    def test_onset_ordering(self):
        with pytest.raises(PhantomError):
            Paradigm(events=((10.0, 5.0, 1.0), (2.0, 5.0, 1.0)), run_length=100.0)

    def test_overflow(self):
        with pytest.raises(PhantomError):
            Paradigm(events=((90.0, 20.0, 1.0),), run_length=100.0)

    @pytest.mark.parametrize("on, off", [(0.0, 0.0), (-1.0, 0.5)])
    def test_blocks_that_never_advance_rejected(self, on, off):
        # on + off <= 0 would never reach the end of the run
        with pytest.raises(PhantomError, match="on > 0"):
            Paradigm.blocks(on, off, 300.0)


class TestBoldTimecourse:
    def test_one_response_sampled_twice_equals_separate_calls(self):
        """The design's task column and the shot-wise h_tilde sample one
        cached response; each equals its call on a fresh convolution bit for
        bit, and the cached response is read-only."""
        from snakesim import phantom
        from snakesim.analysis import build_design
        par = Paradigm.blocks(on=20.0, off=20.0, run_length=300.0)
        shots = np.arange(6000) * 0.05
        phantom.bold_response.cache_clear()
        task = build_design(par, "double_gamma", 136, 2.2).matrix[:, 0]
        phantom.bold_response.cache_clear()
        h = build_bold_timecourse(par, shots)
        phantom.bold_response.cache_clear()
        shared_task = build_design(par, "double_gamma", 136, 2.2).matrix[:, 0]
        shared_h = build_bold_timecourse(par, shots)
        assert phantom.bold_response.cache_info().hits == 1
        assert shared_task.tobytes() == task.tobytes()
        assert shared_h.tobytes() == h.tobytes()
        assert not phantom.bold_response(par, "double_gamma", 0.01).flags.writeable

    def test_empty_paradigm_zero(self):
        par = Paradigm(events=(), run_length=100.0)
        h = build_bold_timecourse(par, np.linspace(0, 100, 50))
        assert not np.any(h)

    def test_no_shot_times_give_an_empty_timecourse(self):
        par = Paradigm.blocks(20.0, 20.0, 300.0)
        h = build_bold_timecourse(par, [])
        assert h.shape == (0,) and h.dtype == np.float64

    def test_impulse_proportional_to_kernel(self):
        par = Paradigm(events=((0.0, 0.05, 1.0),), run_length=60.0)
        times = np.linspace(0, 59, 200)
        h = build_bold_timecourse(par, times)
        k = hrf_kernel(times)
        k = k / k.max()
        np.testing.assert_allclose(h, k, atol=2e-2)
        assert h.max() == pytest.approx(1.0, abs=1e-9)

    def test_block_train_against_dense_oracle(self):
        # independent oracle: straightforward dense convolution at a
        # different grid spacing
        par = Paradigm.blocks(20.0, 20.0, 300.0)
        shot_times = np.arange(0, 300, 0.05)
        h = build_bold_timecourse(par, shot_times)
        dt = 0.002
        grid = np.arange(0.0, 332.0 + dt, dt)
        box = np.zeros_like(grid)
        for onset, dur, amp in par.events:
            box[(grid >= onset) & (grid < onset + dur)] += amp
        kern = hrf_kernel(np.arange(0.0, 32.0 + dt, dt))
        dense = np.convolve(box, kern)[: grid.size] * dt
        oracle = np.interp(shot_times, grid, dense)
        oracle /= np.abs(oracle).max()
        np.testing.assert_allclose(h, oracle, atol=5e-3)

    def test_sustained_plateau_near_one(self):
        par = Paradigm.blocks(20.0, 20.0, 300.0)
        t = np.arange(0, 300, 0.05)
        h = build_bold_timecourse(par, t)
        # sustained-response sample near the end of each on block
        peaks = h[np.isin(np.round(t, 3), [38.0, 78.0, 118.0])]
        assert np.all(peaks > 0.9)

    def test_peak_normalization(self):
        par = Paradigm.blocks(10.0, 30.0, 200.0)
        h = build_bold_timecourse(par, np.arange(0, 200, 0.5))
        assert h.max() == pytest.approx(1.0, abs=1e-9)


class TestBoldModulate:
    def _bold(self, h, roi=1.0, delta=-1.0):
        return BoldSpec(roi=np.array([[[roi]]]), delta_r2s=delta,
                        h_tilde=np.array([h] if h else [0.0]) if h != 1.0
                        else np.array([1.0]))

    def test_factor_1025(self):
        bold = BoldSpec(roi=np.ones((1, 1, 1)), delta_r2s=-1.0,
                        h_tilde=np.array([1.0]))
        out = bold_modulate(np.ones((1, 1, 1)), bold, te_ms=25.0, shot_index=0)
        assert out[0, 0, 0] == 1.025

    def test_rest_identity(self):
        bold = BoldSpec(roi=np.ones((1, 1, 1)), delta_r2s=-1.0,
                        h_tilde=np.array([1.0, 0.0]))
        out = bold_modulate(np.full((1, 1, 1), 3.0), bold, 25.0, shot_index=1)
        assert out[0, 0, 0] == 3.0

    def test_half_response(self):
        bold = BoldSpec(roi=np.ones((1, 1, 1)), delta_r2s=-1.0,
                        h_tilde=np.array([1.0, 0.5]))
        out = bold_modulate(np.ones((1, 1, 1)), bold, 25.0, shot_index=1)
        assert out[0, 0, 0] == pytest.approx(1.0125, abs=1e-12)

    def test_negative_delta_never_decreases(self):
        rng = np.random.default_rng(1)
        roi = rng.uniform(0, 1, size=(4, 4, 4))
        bold = BoldSpec(roi=roi, delta_r2s=-2.0, h_tilde=np.array([1.0, 0.7]))
        mu = rng.uniform(0.1, 1, size=(4, 4, 4))
        out = bold_modulate(mu, bold, 25.0, shot_index=1)
        assert np.all(out >= mu - 1e-15)

    def test_zero_delta_identity(self):
        rng = np.random.default_rng(2)
        mu = rng.uniform(size=(3, 3, 3))
        bold = BoldSpec(roi=np.ones((3, 3, 3)), delta_r2s=0.0,
                        h_tilde=np.array([1.0]))
        np.testing.assert_array_equal(bold_modulate(mu, bold, 25.0, 0), mu)


class TestBoldSpec:
    def test_peak_norm_enforced(self):
        with pytest.raises(PhantomError, match="normalized"):
            BoldSpec(roi=np.ones((1, 1, 1)), delta_r2s=-1.0,
                     h_tilde=np.array([0.5, 0.4]))

    def test_all_zero_allowed(self):
        BoldSpec(roi=np.ones((1, 1, 1)), delta_r2s=-1.0,
                 h_tilde=np.zeros(4))


class TestSequenceParams:
    def test_te_below_tr(self):
        with pytest.raises(PhantomError):
            SequenceParams(tr_shot=50.0, te=60.0, flip_angle=12.0, t_obs=25.0)

    def test_t_obs_bound(self):
        with pytest.raises(PhantomError):
            SequenceParams(tr_shot=50.0, te=25.0, flip_angle=12.0, t_obs=60.0)
