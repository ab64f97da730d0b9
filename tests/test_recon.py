import numpy as np
import pytest

import snakesim.recon as recon_mod
from snakesim.engine import birdcage_coils, centered_fft, centered_ifft
from snakesim.phantom import (SequenceParams, contrast_volume, gre_contrast,
                              synthetic_phantom)
from snakesim.recon import (FrameOperator, ReconConfig, ReconError,
                            adjoint_recon, adjoint_series, cs_solve,
                            radial_density_weights, reconstruct_series,
                            sure_threshold)
from snakesim.trajectories import gen_epi_3d, gen_spiral, gen_stack_of_spirals
from snakesim.wavelets import WaveletBasis, soft_threshold


def _seq():
    return SequenceParams(tr_shot=50.0, te=25.0, flip_angle=12.0, t_obs=25.0)


def _full_cartesian_data(vol, plan, coils):
    """One frame of fully sampled data as nested [coil][shot] lists."""
    from snakesim.engine import acquire_shot_basic
    frame = [[] for _ in range(coils.n_coils)]
    for shot in plan.frame(0):
        y = acquire_shot_basic(vol, coils, shot)
        for l in range(coils.n_coils):
            frame[l].append(y[l])
    return frame


def _gather_grid(frame, plan, dims):
    grid = np.zeros(dims, dtype=np.complex128)
    for s, shot in enumerate(plan.frame(0)):
        idx = tuple((shot.points + np.array(dims) // 2).astype(int).T)
        grid[idx] = frame[0][s]
    return grid


class TestAdjointRecon:
    def test_full_cartesian_is_inverse_fft(self):
        rng = np.random.default_rng(0)
        dims = (8, 8, 8)
        vol = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        plan = gen_epi_3d(dims, _seq())
        coils = birdcage_coils(dims, 1)
        frame = _full_cartesian_data(vol, plan, coils)
        x = adjoint_recon(frame, plan.frame(0), dims, coils)
        ref = centered_ifft(_gather_grid(frame, plan, dims))
        np.testing.assert_allclose(x, ref, atol=1e-10)
        np.testing.assert_allclose(x, vol, atol=1e-10)

    @pytest.mark.parametrize("n_coils", [1, 8])
    @pytest.mark.parametrize("kind", ["epi", "sos", "random"])
    def test_adjoint_identity(self, n_coils, kind):
        rng = np.random.default_rng(1)
        dims = (4, 4, 4)
        if kind == "epi":
            shots = gen_epi_3d(dims, _seq()).frame(0)
        elif kind == "sos":
            sp = gen_spiral((4, 4), 8)
            shots = gen_stack_of_spirals(sp, 4, af=2.0, center_fraction=0.3,
                                         dims=dims).frame(0)
        else:
            from snakesim.trajectories import Shot
            pts = rng.uniform(-2, 1.9, (9, 3))
            shots = (Shot(points=pts, times=np.linspace(-1e-3, 1e-3, 9)),)
        coils = birdcage_coils(dims, n_coils)
        op = FrameOperator(shots, dims, coils)
        x = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        y = (rng.standard_normal((n_coils, len(op.points)))
             + 1j * rng.standard_normal((n_coils, len(op.points))))
        assert np.vdot(y, op.op(x)) == pytest.approx(np.vdot(op.adj_op(y), x),
                                                     rel=1e-9)

    @pytest.mark.parametrize("kind", ["epi", "random"])
    def test_op_matches_acquisition(self, kind):
        from snakesim.engine import acquire_shot_basic
        from snakesim.trajectories import Shot
        rng = np.random.default_rng(21)
        dims = (4, 4, 4)
        if kind == "epi":
            shot = gen_epi_3d(dims, _seq()).frame(0)[0]
        else:
            shot = Shot(points=rng.uniform(-2, 1.9, (9, 3)),
                        times=np.linspace(-1e-3, 1e-3, 9))
        coils = birdcage_coils(dims, 3)
        x = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        op = FrameOperator((shot,), dims, coils)
        np.testing.assert_allclose(acquire_shot_basic(x, coils, shot),
                                   op.op(x) * np.sqrt(np.prod(dims)),
                                   rtol=1e-12, atol=1e-12)

    def test_zero_data_zero_volume(self):
        dims = (4, 4, 4)
        plan = gen_epi_3d(dims, _seq())
        coils = birdcage_coils(dims, 1)
        frame = [[np.zeros(s.n_samples, dtype=np.complex128)
                  for s in plan.frame(0)]]
        x = adjoint_recon(frame, plan.frame(0), dims, coils)
        np.testing.assert_array_equal(x, 0)

    def test_shape_mismatch_rejected(self):
        dims = (4, 4, 4)
        plan = gen_epi_3d(dims, _seq())
        coils = birdcage_coils(dims, 1)
        frame = [[np.zeros(3, dtype=np.complex128) for _ in plan.frame(0)]]
        with pytest.raises(ReconError):
            adjoint_recon(frame, plan.frame(0), dims, coils)


class TestDensityWeights:
    def test_single_point(self):
        np.testing.assert_array_equal(radial_density_weights(np.zeros((1, 3))), [1.0])

    def test_uniform_cartesian_near_uniform(self):
        pts = np.array([(x, y, 0.0) for x in range(-2, 2) for y in range(-2, 2)])
        w = radial_density_weights(pts)
        assert w.sum() == pytest.approx(len(pts))

    def test_spiral_linear_in_radius(self):
        pts = gen_spiral((16, 16), 64, in_out=False)
        w = radial_density_weights(pts)
        r = np.linalg.norm(pts, axis=1)
        nz = r > 0
        ratio = w[nz] / r[nz]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)

    def test_normalization(self):
        pts = gen_spiral((8, 8), 33)
        assert radial_density_weights(pts).sum() == pytest.approx(33.0)


class TestSolver:
    def _cartesian_setup(self, dims=(8, 8, 8), seed=2):
        rng = np.random.default_rng(seed)
        vol = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        plan = gen_epi_3d(dims, _seq())
        coils = birdcage_coils(dims, 1)
        frame = _full_cartesian_data(vol, plan, coils)
        return vol, plan, coils, frame

    def test_mu_zero_recovers_inverse_fft(self):
        vol, plan, coils, frame = self._cartesian_setup()
        basis = WaveletBasis("haar", 2)
        cfg = ReconConfig(max_iters=100, tol=1e-12, mu_mode="fixed", mu_value=0.0)
        est = cs_solve(frame, plan.frame(0), plan.dims, coils, basis, cfg)
        np.testing.assert_allclose(est.volume, vol,
                                   atol=1e-6 * np.abs(vol).max())

    def test_closed_form_prox_oracle(self):
        vol, plan, coils, frame = self._cartesian_setup(seed=3)
        basis = WaveletBasis("haar", 2)
        mu = 0.05
        cfg = ReconConfig(max_iters=200, tol=1e-14, mu_mode="fixed", mu_value=mu)
        est = cs_solve(frame, plan.frame(0), plan.dims, coils, basis, cfg)
        # independent closed form: Psi^H soft(Psi F^H y, mu)
        grid = _gather_grid(frame, plan, plan.dims)
        backproj = centered_ifft(grid)
        coeffs = basis.forward(backproj)
        oracle = basis.inverse(coeffs.map(lambda c: soft_threshold(c, mu)))
        np.testing.assert_allclose(est.volume, oracle,
                                   atol=1e-6 * np.abs(oracle).max())

    def test_undersampled_objective_never_worse_than_init(self):
        dims = (8, 8, 8)
        ph = synthetic_phantom(dims, [((4.0, 4.0, 4.0), 2.5, 1)])
        mu_t = gre_contrast(ph, _seq())
        vol = contrast_volume(ph, mu_t)
        sp = gen_spiral((8, 8), 24)
        plan = gen_stack_of_spirals(sp, 8, af=2.0, center_fraction=0.15,
                                    dims=dims)
        coils = birdcage_coils(dims, 1)
        from snakesim.engine import acquire_shot_basic
        frame = [[acquire_shot_basic(vol, coils, s)[0] for s in plan.frame(0)]]
        basis = WaveletBasis("haar", 2)
        cfg = ReconConfig(max_iters=100, tol=1e-14)
        est = cs_solve(frame, plan.frame(0), dims, coils, basis, cfg)
        trace = est.objective_trace
        assert trace[-1] <= trace[0]
        assert min(trace) == pytest.approx(trace[-1], rel=1e-6) or trace[-1] <= trace[0]

    def test_returned_objective_leq_init_random_instances(self):
        rng = np.random.default_rng(4)
        dims = (4, 4, 4)
        basis = WaveletBasis("haar", 1)
        coils = birdcage_coils(dims, 2)
        from snakesim.trajectories import Shot
        for _ in range(10):
            pts = rng.uniform(-2, 1.9, (12, 3))
            shots = (Shot(points=pts, times=np.linspace(-1e-3, 1e-3, 12)),)
            frame = [[rng.standard_normal(12) + 1j * rng.standard_normal(12)]
                     for _ in range(2)]
            cfg = ReconConfig(max_iters=20, tol=1e-14, mu_mode="fixed",
                              mu_value=float(rng.uniform(0, 0.1)))
            est = cs_solve(frame, shots, dims, coils, basis, cfg)
            assert est.objective_trace[-1] <= est.objective_trace[0] + 1e-12

    def test_prox_subgradient_optimality(self):
        # prox of mu||Psi . ||_1 must satisfy 0 in (p - z) + mu d||Psi p||_1
        rng = np.random.default_rng(5)
        basis = WaveletBasis("haar", 1)
        z = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
        mu = 0.3
        p = basis.inverse(basis.forward(z).map(lambda c: soft_threshold(c, mu)))
        rz = basis.forward(z).ravel()
        rp = basis.forward(p).ravel()
        resid = rz - rp
        nz = np.abs(rp) > 1e-12
        np.testing.assert_allclose(resid[nz], mu * rp[nz] / np.abs(rp[nz]),
                                   atol=1e-10)
        assert np.all(np.abs(resid[~nz]) <= mu + 1e-10)


@pytest.fixture
def counted(monkeypatch):
    """Counts of FrameOperator builds and op/adj_op/lipschitz calls in recon."""
    counts = {"builds": 0, "op": 0, "adj_op": 0, "lipschitz": 0}

    class CountingOperator(FrameOperator):
        def __init__(self, *args, **kwargs):
            counts["builds"] += 1
            super().__init__(*args, **kwargs)

        def op(self, x):
            counts["op"] += 1
            return super().op(x)

        def adj_op(self, y):
            counts["adj_op"] += 1
            return super().adj_op(y)

        def lipschitz(self, *args, **kwargs):
            counts["lipschitz"] += 1
            return super().lipschitz(*args, **kwargs)

    monkeypatch.setattr(recon_mod, "FrameOperator", CountingOperator)
    return counts


LIPSCHITZ_ITERS = 20  # FrameOperator.lipschitz default


class TestSeries:
    def _tiny_dataset(self, n_frames=3, seed=6, dynamic=True):
        rng = np.random.default_rng(seed)
        dims = (8, 8, 8)
        sp = gen_spiral((8, 8), 16)
        plan = gen_stack_of_spirals(sp, 8, af=2.0, center_fraction=0.15,
                                    dynamic=dynamic, n_frames=n_frames, seed=seed,
                                    dims=dims)
        coils = birdcage_coils(dims, 2)
        vol = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        from snakesim.engine import acquire_shot_basic
        frames = []
        for t in range(n_frames):
            frame = [[] for _ in range(2)]
            for shot in plan.frame(t):
                y = acquire_shot_basic(vol, coils, shot)
                for l in range(2):
                    frame[l].append(y[l])
            frames.append(frame)
        return frames, plan, coils

    def test_single_frame_strategies_coincide(self):
        frames, plan, coils = self._tiny_dataset(n_frames=1)
        basis = WaveletBasis("haar", 1)
        out = {}
        for strategy in ("cold", "warm", "refined"):
            cfg = ReconConfig(strategy=strategy, max_iters=10, tol=1e-12,
                              mu_mode="fixed", mu_value=0.01)
            out[strategy] = reconstruct_series(frames, plan, coils, basis, cfg)
        np.testing.assert_array_equal(out["cold"].volumes, out["warm"].volumes)
        # the refined pass re-solves from the warm estimate, so its final
        # objective can only match or improve on the single-pass result
        assert (min(out["refined"].objective_traces[0])
                <= min(out["cold"].objective_traces[0]) + 1e-12)

    def test_noise_free_full_cartesian_recovery(self):
        rng = np.random.default_rng(7)
        dims = (8, 8, 8)
        vol = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        seq = _seq()
        plan = gen_epi_3d(dims, seq, n_frames=2)
        coils = birdcage_coils(dims, 1)
        from snakesim.engine import acquire_shot_basic
        frames = []
        for t in range(2):
            frame = [[acquire_shot_basic(vol, coils, s)[0]
                      for s in plan.frame(t)]]
            frames.append(frame)
        basis = WaveletBasis("haar", 2)
        for strategy in ("cold", "warm", "refined"):
            cfg = ReconConfig(strategy=strategy, max_iters=100, tol=1e-12,
                              mu_mode="fixed", mu_value=0.0)
            series = reconstruct_series(frames, plan, coils, basis, cfg)
            for t in range(2):
                np.testing.assert_allclose(series.volumes[t], vol,
                                           atol=1e-5 * np.abs(vol).max())

    def test_refined_second_pass_init_is_final_warm_estimate(self, monkeypatch):
        frames, plan, coils = self._tiny_dataset(n_frames=3)
        basis = WaveletBasis("haar", 1)
        calls = []
        real_cs_solve = recon_mod.cs_solve

        def spy(frame_kdata, frame_shots, dims, coils_, basis_, config,
                init=None, mu=None, operator=None):
            calls.append(None if init is None else init.copy())
            return real_cs_solve(frame_kdata, frame_shots, dims, coils_,
                                 basis_, config, init=init, mu=mu,
                                 operator=operator)

        monkeypatch.setattr(recon_mod, "cs_solve", spy)
        cfg = ReconConfig(strategy="refined", max_iters=5, tol=1e-12,
                          mu_mode="fixed", mu_value=0.01)
        series = reconstruct_series(frames, plan, coils, basis, cfg)
        assert len(calls) == 6  # warm pass + refined pass
        # second-pass inits are all the warm pass's final (frame 3) output
        final_warm = calls[3]
        for init in calls[3:]:
            np.testing.assert_array_equal(init, final_warm)
        warm_cfg = ReconConfig(strategy="warm", max_iters=5, tol=1e-12,
                               mu_mode="fixed", mu_value=0.01)
        warm = reconstruct_series(frames, plan, coils, basis, warm_cfg)
        np.testing.assert_array_equal(final_warm, warm.volumes[-1])

    def test_frame_error_carries_index(self):
        frames, plan, coils = self._tiny_dataset(n_frames=2)
        frames[1][0][0] = frames[1][0][0][:-1]  # corrupt frame 1
        basis = WaveletBasis("haar", 1)
        cfg = ReconConfig(max_iters=5, mu_mode="fixed", mu_value=0.0)
        with pytest.raises(ReconError, match="frame 1"):
            reconstruct_series(frames, plan, coils, basis, cfg)

    def test_cs_solve_one_op_per_iteration(self, counted):
        frames, plan, coils = self._tiny_dataset(n_frames=1)
        cfg = ReconConfig(max_iters=7, tol=1e-14, mu_mode="fixed", mu_value=0.01)
        est = cs_solve(frames[0], plan.frame(0), plan.dims, coils,
                       WaveletBasis("haar", 1), cfg)
        iters = len(est.objective_trace) - 1
        assert iters == 7
        assert counted["builds"] == 1 and counted["lipschitz"] == 1
        # initial objective, one objective per iteration, power iteration
        assert counted["op"] == 1 + iters + LIPSCHITZ_ITERS
        # adjoint init, one gradient per iteration, power iteration
        assert counted["adj_op"] == 1 + iters + LIPSCHITZ_ITERS

    @pytest.mark.parametrize("strategy", ["cold", "refined"])
    def test_static_plan_builds_one_operator(self, counted, strategy):
        frames, plan, coils = self._tiny_dataset(n_frames=3, dynamic=False)
        cfg = ReconConfig(strategy=strategy, max_iters=3, tol=1e-14,
                          mu_mode="fixed", mu_value=0.01)
        reconstruct_series(frames, plan, coils, WaveletBasis("haar", 1), cfg)
        assert counted["builds"] == 1
        assert counted["lipschitz"] == 1

    def test_dynamic_plan_builds_one_operator_per_frame(self, counted):
        frames, plan, coils = self._tiny_dataset(n_frames=3)
        cfg = ReconConfig(strategy="warm", max_iters=3, tol=1e-14,
                          mu_mode="fixed", mu_value=0.01)
        reconstruct_series(frames, plan, coils, WaveletBasis("haar", 1), cfg)
        assert counted["builds"] == 3
        assert counted["lipschitz"] == 3

    def test_shared_operator_matches_fresh_solves(self):
        frames, plan, coils = self._tiny_dataset(n_frames=3, dynamic=False)
        basis = WaveletBasis("haar", 1)
        cfg = ReconConfig(max_iters=5, tol=1e-14, mu_mode="fixed", mu_value=0.01)
        series = reconstruct_series(frames, plan, coils, basis, cfg)
        for t in range(3):
            est = cs_solve(frames[t], plan.frame(t), plan.dims, coils, basis, cfg)
            np.testing.assert_array_equal(series.volumes[t], est.volume)

    def test_adjoint_series_shares_operator_on_static_plan(self, counted):
        rng = np.random.default_rng(8)
        dims = (8, 8, 8)
        plan = gen_epi_3d(dims, _seq(), n_frames=3)
        coils = birdcage_coils(dims, 2)
        frames = [[[rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    for n in (s.n_samples for s in plan.frame(t))]
                   for _ in range(2)]
                  for t in range(3)]
        series = adjoint_series(frames, plan, coils)
        assert counted["builds"] == 1
        for t in range(3):
            np.testing.assert_array_equal(
                series.volumes[t], adjoint_recon(frames[t], plan.frame(t), dims, coils))
