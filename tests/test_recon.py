import re
import sys
import threading
import time
from dataclasses import replace

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


def _frame_data(vol, shots, coils):
    """One frame's (L, P) data: the shots' samples side by side."""
    from snakesim.engine import acquire_shot_basic
    return np.concatenate([acquire_shot_basic(vol, coils, shot) for shot in shots],
                          axis=1)


def _full_cartesian_data(vol, plan, coils):
    """One frame of fully sampled data, (L, P)."""
    return _frame_data(vol, plan.frame(0), coils)


def _op(plan, coils, t=0):
    """The FrameOperator of frame t of the plan."""
    return FrameOperator(plan.frame(t), plan.dims, coils)


def _gather_grid(frame, plan, dims):
    grid = np.zeros(dims, dtype=np.complex128)
    points = np.concatenate([shot.points for shot in plan.frame(0)])
    grid[tuple((points + np.array(dims) // 2).astype(int).T)] = frame[0]
    return grid


class TestAdjointRecon:
    def test_full_cartesian_is_inverse_fft(self):
        rng = np.random.default_rng(0)
        dims = (8, 8, 8)
        vol = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        plan = gen_epi_3d(dims, _seq())
        coils = birdcage_coils(dims, 1)
        frame = _full_cartesian_data(vol, plan, coils)
        x = adjoint_recon(frame, _op(plan, coils))
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
            shots = gen_stack_of_spirals(sp, af=2.0, center_fraction=0.3,
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
        frame = np.zeros((1, sum(s.n_samples for s in plan.frame(0))),
                         dtype=np.complex128)
        x = adjoint_recon(frame, _op(plan, coils))
        np.testing.assert_array_equal(x, 0)

    def test_shape_mismatch_rejected(self):
        dims = (4, 4, 4)
        plan = gen_epi_3d(dims, _seq())
        coils = birdcage_coils(dims, 1)
        frame = np.zeros((1, 3 * len(plan.frame(0))), dtype=np.complex128)
        with pytest.raises(ReconError):
            adjoint_recon(frame, _op(plan, coils))
        # a batch of well-shaped frames is for cs_solve only
        op = _op(plan, coils)
        with pytest.raises(ReconError, match=r"shape \(2, 1, "):
            adjoint_recon(np.zeros((2, 1, len(op.points)), dtype=np.complex128), op)

    def test_coil_count_mismatch_rejected(self):
        """1-coil data against a 2-coil operator: neither route broadcasts
        the data over the coils."""
        rng = np.random.default_rng(9)
        dims = (4, 4, 4)
        plan = gen_epi_3d(dims, _seq())
        op = _op(plan, birdcage_coils(dims, 2))
        frame = _frame_data(rng.standard_normal(dims), plan.frame(0),
                            birdcage_coils(dims, 1))
        assert frame.shape == (1, len(op.points))
        with pytest.raises(ReconError, match="2 coils"):
            adjoint_recon(frame, op)
        cfg = ReconConfig(max_iters=5, mu_mode="fixed", mu_value=0.01)
        est = cs_solve(frame, op, WaveletBasis("haar", 1), cfg,
                       init=np.zeros(dims, dtype=np.complex128))
        assert est.volume is None and est.stop == "refused" and "2 coils" in est.reason


class TestDensityWeights:
    def test_single_point(self):
        np.testing.assert_array_equal(radial_density_weights(np.zeros((1, 3))), [1.0])

    def test_uniform_cartesian_near_uniform(self):
        pts = np.array([(x, y, 0.0) for x in range(-2, 2) for y in range(-2, 2)])
        w = radial_density_weights(pts)
        assert w.sum() == pytest.approx(len(pts))

    def test_spiral_linear_in_radius(self):
        # the outward half of an in-out spiral: 64 points from k = 0 out
        pts = gen_spiral((16, 16), 127)[63:]
        w = radial_density_weights(pts)
        r = np.linalg.norm(pts, axis=1)
        nz = r > 0
        ratio = w[nz] / r[nz]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)

    def test_normalization(self):
        pts = gen_spiral((8, 8), 33)
        assert radial_density_weights(pts).sum() == pytest.approx(33.0)


class TestAdjointPrecision:
    """The adjoint runs in the data's precision: complex64 data, as a
    dataset file holds it, gives a complex64 volume on every NDFT path."""

    DIMS = (12, 10, 8)

    def _case(self, path, n_coils, seed=0):
        """(operator, complex128 data) of one frame on ``path``."""
        from snakesim.trajectories import Shot
        rng = np.random.default_rng(seed)
        if path == "fft":
            shots = gen_epi_3d(self.DIMS, _seq(), n_planes_per_volume=5).frame(0)
        elif path == "stack":
            shots = gen_stack_of_spirals(gen_spiral(self.DIMS[:2], 32), af=2.0,
                                         center_fraction=0.3, dims=self.DIMS).frame(0)
        else:
            shots = (Shot(points=rng.uniform(-5, 4.9, (200, 3)),
                          times=np.linspace(1e-4, 2e-2, 200)),)
        op = FrameOperator(shots, self.DIMS, birdcage_coils(self.DIMS, n_coils))
        assert op._ndft.path == path
        vol = rng.standard_normal(self.DIMS) + 1j * rng.standard_normal(self.DIMS)
        return op, op.op(vol) * np.sqrt(np.prod(self.DIMS))

    @pytest.mark.parametrize("density_comp", ["none", "radial"])
    @pytest.mark.parametrize("n_coils", [1, 8])
    @pytest.mark.parametrize("path", ["fft", "stack", "general"])
    def test_complex64_data_gives_a_complex64_volume(self, path, n_coils, density_comp):
        """The complex64 volume lies within 4 float32 eps of the peak of
        the complex128 adjoint of the same data. Measured over 20 seeds:
        at most 2.1e-7 on the fft path, 2.2e-7 on the stack path and 3.0e-7
        on the general path, all three of which run in complex64 throughout.
        Storing the k-space as complex64 already moves the complex128
        adjoint by up to 3.4e-8 of its peak on these cases."""
        op, y = self._case(path, n_coils)
        y64 = y.astype(np.complex64)
        x64 = adjoint_recon(y64, op, density_comp)
        x = adjoint_recon(y64.astype(np.complex128), op, density_comp)
        assert x64.dtype == np.complex64 and x.dtype == np.complex128
        assert adjoint_recon(y.real, op, density_comp).dtype == np.complex128
        err = np.abs(x64 - x).max() / np.abs(x).max()
        assert 0 < err <= 4 * np.finfo(np.float32).eps

    def test_series_of_a_dataset_is_complex64(self, tmp_path):
        """adjoint_series on a dataset read from its file yields complex64
        volumes, each the adjoint_recon of its frame."""
        from snakesim.engine import run_acquisition
        from snakesim.io import read_dataset
        dims = (8, 8, 8)
        plan = gen_epi_3d(dims, _seq(), n_planes_per_volume=4, n_frames=3)
        phantom = synthetic_phantom(dims, [((4, 4, 4), 2, 1)])
        coils = birdcage_coils(dims, 2)
        run_acquisition(phantom, plan, coils, _seq(), sink_path=tmp_path / "k.snkd")
        _, kdata = read_dataset(tmp_path / "k.snkd")
        for t, est in enumerate(adjoint_series(kdata, plan, coils, n_jobs=2)):
            assert est.volume.dtype == np.complex64
            np.testing.assert_array_equal(est.volume, adjoint_recon(kdata[t], _op(plan, coils, t)))


class TestCsPrecision:
    """The CS route solves in the data's precision: complex64 data, as a
    dataset file holds it, gives a complex64 solve."""

    DIMS = (16, 16, 16)

    def _case(self, noise_seed):
        """(plan, complex128 coils, complex64 frame 0) of a noisy
        stack-of-spirals acquisition."""
        from snakesim.engine import NoiseConfig, run_acquisition
        plan = gen_stack_of_spirals(gen_spiral(self.DIMS[:2], 64), af=2.0,
                                    center_fraction=0.25, dims=self.DIMS,
                                    tr_shot_s=0.05, t_obs_s=0.025)
        phantom = synthetic_phantom(self.DIMS, [((8, 8, 8), 6, 0), ((8, 6, 8), 2.5, 1)])
        coils = birdcage_coils(self.DIMS, 4)
        _, kdata = run_acquisition(phantom, plan, coils, _seq(),
                                   noise=NoiseConfig(snr_i=1000.0, seed=noise_seed))
        return plan, coils, kdata[0].astype(np.complex64)

    @staticmethod
    def _coils64(coils):
        from snakesim.engine import CoilProfile
        return CoilProfile(maps=coils.maps.astype(np.complex64))

    @pytest.mark.parametrize("noise_seed", range(5))
    def test_complex64_solve_matches_complex128(self, noise_seed):
        """A cold complex64 solve (complex64 maps, so a complex64 Lipschitz
        estimate) lies within 5e-5 relative of the complex128 solve of the
        same data, and its SURE threshold within 1e-3. Measured over noise
        seeds 0-19 at 50 iterations: at most 2.4e-5 (median 4.2e-6), and
        2.8e-4 on the threshold, which SURE takes from float32
        coefficients."""
        plan, coils, y64 = self._case(noise_seed)
        basis, cfg = WaveletBasis("haar", 1), ReconConfig(max_iters=50, tol=1e-6)
        est64 = cs_solve(y64, _op(plan, self._coils64(coils)), basis, cfg)
        est = cs_solve(y64.astype(np.complex128), _op(plan, coils), basis, cfg)
        assert est64.volume.dtype == np.complex64 and est.volume.dtype == np.complex128
        assert est64.n_iters == est.n_iters == 50
        err = np.linalg.norm(est64.volume - est.volume) / np.linalg.norm(est.volume)
        assert 0 < err <= 5e-5
        assert est64.mu_used == pytest.approx(est.mu_used, rel=1e-3)

    @pytest.mark.parametrize("strategy", ["cold", "warm", "refined"])
    def test_no_double_precision_array_in_a_complex64_series(self, strategy, tmp_path,
                                                             monkeypatch):
        """A spy on op, adj_op, the wavelet transforms and soft_threshold
        sees only complex64 and float32 arrays and numpy scalars, in and
        out, when the series reads a dataset from its file: a float64
        numpy scalar (a threshold, a step) would promote a complex64
        array to complex128 under NEP 50."""
        from snakesim.engine import run_acquisition
        from snakesim.io import read_dataset
        plan = gen_stack_of_spirals(gen_spiral(self.DIMS[:2], 64), af=2.0,
                                    center_fraction=0.25, dynamic=True, n_frames=3, seed=2,
                                    dims=self.DIMS, tr_shot_s=0.05, t_obs_s=0.025)
        coils = birdcage_coils(self.DIMS, 2)
        phantom = synthetic_phantom(self.DIMS, [((8, 8, 8), 6, 0)])
        run_acquisition(phantom, plan, coils, _seq(), sink_path=tmp_path / "k.snkd")
        _, kdata = read_dataset(tmp_path / "k.snkd")
        seen = set()

        def spy(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen.update(np.asarray(a).dtype for a in (*args, out)
                            if isinstance(a, (np.ndarray, np.generic)))
                return out
            return wrapped
        for cls, name in ((FrameOperator, "op"), (FrameOperator, "adj_op"),
                          (WaveletBasis, "forward"), (WaveletBasis, "inverse")):
            monkeypatch.setattr(cls, name, spy(getattr(cls, name)))
        monkeypatch.setattr(recon_mod, "soft_threshold", spy(recon_mod.soft_threshold))
        cfg = ReconConfig(strategy=strategy, max_iters=3, tol=1e-6)
        for est in reconstruct_series(kdata, plan, coils, WaveletBasis("haar", 1), cfg):
            assert est.volume.dtype == np.complex64
        assert seen == {np.dtype(np.complex64), np.dtype(np.float32)}

    def test_series_of_a_dataset_is_complex64(self, tmp_path):
        """reconstruct_series on a dataset read from its file yields
        complex64 volumes, each the cs_solve of its frame by an operator
        with complex64 coil maps."""
        from snakesim.engine import run_acquisition
        from snakesim.io import read_dataset
        dims = (8, 8, 8)
        plan = gen_stack_of_spirals(gen_spiral(dims[:2], 24), af=2.0,
                                    center_fraction=0.25, dynamic=True, n_frames=3, seed=1,
                                    dims=dims, tr_shot_s=0.05, t_obs_s=0.025)
        phantom = synthetic_phantom(dims, [((4, 4, 4), 2, 1)])
        coils = birdcage_coils(dims, 2)
        run_acquisition(phantom, plan, coils, _seq(), sink_path=tmp_path / "k.snkd")
        _, kdata = read_dataset(tmp_path / "k.snkd")
        basis, cfg = WaveletBasis("haar", 1), ReconConfig(max_iters=5, tol=1e-6)
        for t, est in enumerate(reconstruct_series(kdata, plan, coils, basis, cfg, n_jobs=2)):
            assert est.volume.dtype == np.complex64
            want = cs_solve(kdata[t], _op(plan, self._coils64(coils), t), basis, cfg)
            np.testing.assert_array_equal(est.volume, want.volume)
            assert est.objective_trace == want.objective_trace

    def test_lipschitz_in_the_precision_of_the_maps(self):
        """The power iteration runs in the coil maps' precision; its
        complex64 estimate is within 1e-6 of the complex128 one (3.8e-8
        measured)."""
        plan, coils, _ = self._case(0)
        op64, op = _op(plan, self._coils64(coils)), _op(plan, coils)
        seen = []
        adj_op = op64.adj_op
        op64.adj_op = lambda y: seen.append(y.dtype) or adj_op(y)
        assert op64.lipschitz() == pytest.approx(op.lipschitz(), rel=1e-6)
        assert set(seen) == {np.dtype(np.complex64)}


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
        est = cs_solve(frame, _op(plan, coils), basis, cfg)
        np.testing.assert_allclose(est.volume, vol,
                                   atol=1e-6 * np.abs(vol).max())

    def test_closed_form_prox_oracle(self):
        vol, plan, coils, frame = self._cartesian_setup(seed=3)
        basis = WaveletBasis("haar", 2)
        mu = 0.05
        cfg = ReconConfig(max_iters=200, tol=1e-14, mu_mode="fixed", mu_value=mu)
        est = cs_solve(frame, _op(plan, coils), basis, cfg)
        # independent closed form: Psi^H soft(Psi F^H y, mu)
        grid = _gather_grid(frame, plan, plan.dims)
        backproj = centered_ifft(grid)
        coeffs = basis.forward(backproj)
        oracle = basis.inverse(soft_threshold(coeffs, mu))
        np.testing.assert_allclose(est.volume, oracle,
                                   atol=1e-6 * np.abs(oracle).max())

    def test_undersampled_objective_never_worse_than_init(self):
        dims = (8, 8, 8)
        ph = synthetic_phantom(dims, [((4.0, 4.0, 4.0), 2.5, 1)])
        mu_t = gre_contrast(ph, _seq())
        vol = contrast_volume(ph, mu_t)
        sp = gen_spiral((8, 8), 24)
        plan = gen_stack_of_spirals(sp, af=2.0, center_fraction=0.15,
                                    dims=dims)
        coils = birdcage_coils(dims, 1)
        frame = _frame_data(vol, plan.frame(0), coils)
        basis = WaveletBasis("haar", 2)
        cfg = ReconConfig(max_iters=100, tol=1e-14)
        est = cs_solve(frame, _op(plan, coils), basis, cfg)
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
            frame = np.array([rng.standard_normal(12) + 1j * rng.standard_normal(12)
                              for _ in range(2)])
            cfg = ReconConfig(max_iters=20, tol=1e-14, mu_mode="fixed",
                              mu_value=float(rng.uniform(0, 0.1)))
            est = cs_solve(frame, FrameOperator(shots, dims, coils), basis, cfg)
            assert est.objective_trace[-1] <= est.objective_trace[0] + 1e-12

    def test_prox_subgradient_optimality(self):
        # prox of mu||Psi . ||_1 must satisfy 0 in (p - z) + mu d||Psi p||_1
        rng = np.random.default_rng(5)
        basis = WaveletBasis("haar", 1)
        z = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
        mu = 0.3
        p = basis.inverse(soft_threshold(basis.forward(z), mu))
        rz = basis.forward(z).ravel()
        rp = basis.forward(p).ravel()
        resid = rz - rp
        nz = np.abs(rp) > 1e-12
        np.testing.assert_allclose(resid[nz], mu * rp[nz] / np.abs(rp[nz]),
                                   atol=1e-10)
        assert np.all(np.abs(resid[~nz]) <= mu + 1e-10)


@pytest.fixture
def counted(monkeypatch):
    """Counts of FrameOperator builds and op/adj_op/lipschitz calls in
    recon, from any thread."""
    counts = {"builds": 0, "op": 0, "adj_op": 0, "lipschitz": 0}
    lock = threading.Lock()

    def count(name):
        with lock:
            counts[name] += 1

    class CountingOperator(FrameOperator):
        def __init__(self, *args, **kwargs):
            count("builds")
            super().__init__(*args, **kwargs)

        def op(self, x):
            count("op")
            return super().op(x)

        def adj_op(self, y):
            count("adj_op")
            return super().adj_op(y)

        def lipschitz(self, *args, **kwargs):
            count("lipschitz")
            return super().lipschitz(*args, **kwargs)

    monkeypatch.setattr(recon_mod, "FrameOperator", CountingOperator)
    return counts


LIPSCHITZ_ITERS = 20  # FrameOperator.lipschitz default


class TestSeries:
    @staticmethod
    def _tiny_dataset(n_frames=3, seed=6, dynamic=True):
        rng = np.random.default_rng(seed)
        dims = (8, 8, 8)
        sp = gen_spiral((8, 8), 16)
        plan = gen_stack_of_spirals(sp, af=2.0, center_fraction=0.15,
                                    dynamic=dynamic, n_frames=n_frames, seed=seed,
                                    dims=dims)
        coils = birdcage_coils(dims, 2)
        vol = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        frames = np.stack([_frame_data(vol, plan.frame(t), coils) for t in range(n_frames)])
        return frames, plan, coils

    def test_single_frame_strategies_coincide(self):
        frames, plan, coils = self._tiny_dataset(n_frames=1)
        basis = WaveletBasis("haar", 1)
        out = {}
        for strategy in ("cold", "warm", "refined"):
            cfg = ReconConfig(strategy=strategy, max_iters=10, tol=1e-12,
                              mu_mode="fixed", mu_value=0.01)
            [out[strategy]] = reconstruct_series(frames, plan, coils, basis, cfg)
        np.testing.assert_array_equal(out["cold"].volume, out["warm"].volume)
        # the refined pass re-solves from the warm estimate, so its final
        # objective can only match or improve on the single-pass result
        assert (min(out["refined"].objective_trace)
                <= min(out["cold"].objective_trace) + 1e-12)

    def test_noise_free_full_cartesian_recovery(self):
        rng = np.random.default_rng(7)
        dims = (8, 8, 8)
        vol = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        seq = _seq()
        plan = gen_epi_3d(dims, seq, n_frames=2)
        coils = birdcage_coils(dims, 1)
        frames = np.stack([_frame_data(vol, plan.frame(t), coils) for t in range(2)])
        basis = WaveletBasis("haar", 2)
        for strategy in ("cold", "warm", "refined"):
            cfg = ReconConfig(strategy=strategy, max_iters=100, tol=1e-12,
                              mu_mode="fixed", mu_value=0.0)
            volumes = np.stack([e.volume for e in
                                reconstruct_series(frames, plan, coils, basis, cfg)])
            for t in range(2):
                np.testing.assert_allclose(volumes[t], vol,
                                           atol=1e-5 * np.abs(vol).max())

    @pytest.mark.parametrize("n_data", [1, 3])
    @pytest.mark.parametrize("series_fn", ["adjoint", "reconstruct"])
    def test_frame_count_must_match_plan(self, counted, series_fn, n_data):
        plan, coils, kdata = self._epi_dataset(n_data)
        with pytest.raises(ReconError, match=f"{n_data} frames, the plan 2"):
            list(self._series(series_fn, kdata, plan, coils))
        # refused on the first frame request, before any operator is built
        assert counted["builds"] == 0

    @pytest.mark.parametrize("series_fn", ["adjoint", "reconstruct"])
    def test_zero_frames_refused(self, counted, series_fn):
        plan, coils, kdata = self._epi_dataset(0)
        with pytest.raises(ReconError, match="at least one frame"):
            list(self._series(series_fn, kdata, replace(plan, shots=()), coils))
        assert counted["builds"] == 0

    @staticmethod
    def _epi_dataset(n_data):
        """A two-frame EPI plan, its coils and zero k-space for n_data frames."""
        dims = (8, 8, 8)
        plan = gen_epi_3d(dims, _seq(), n_frames=2)
        kdata = np.zeros((n_data, 1, sum(s.n_samples for s in plan.frame(0))),
                         dtype=np.complex128)
        return plan, birdcage_coils(dims, 1), kdata

    @staticmethod
    def _series(series_fn, kdata, plan, coils):
        if series_fn == "adjoint":
            return adjoint_series(kdata, plan, coils)
        return reconstruct_series(kdata, plan, coils, WaveletBasis("haar", 1),
                                  ReconConfig(strategy="cold", max_iters=2))

    def test_refined_second_pass_init_is_final_warm_estimate(self, monkeypatch):
        frames, plan, coils = self._tiny_dataset(n_frames=3)
        basis = WaveletBasis("haar", 1)
        calls = []
        real_cs_solve = recon_mod.cs_solve

        def spy(y, operator, basis_, config, init=None):
            calls.append(None if init is None else init.copy())
            return real_cs_solve(y, operator, basis_, config, init=init)

        monkeypatch.setattr(recon_mod, "cs_solve", spy)
        cfg = ReconConfig(strategy="refined", max_iters=5, tol=1e-12,
                          mu_mode="fixed", mu_value=0.01)
        list(reconstruct_series(frames, plan, coils, basis, cfg))
        assert len(calls) == 6  # warm pass + refined pass
        # second-pass inits are all the warm pass's final (frame 3) output
        final_warm = calls[3]
        for init in calls[3:]:
            np.testing.assert_array_equal(init, final_warm)
        warm_cfg = ReconConfig(strategy="warm", max_iters=5, tol=1e-12,
                               mu_mode="fixed", mu_value=0.01)
        *_, warm_last = reconstruct_series(frames, plan, coils, basis, warm_cfg)
        np.testing.assert_array_equal(final_warm, warm_last.volume)

    def test_frame_error_carries_index(self):
        frames, plan, coils = self._tiny_dataset(n_frames=2)
        frames[1, 0, 0] = np.nan  # corrupt frame 1
        basis = WaveletBasis("haar", 1)
        cfg = ReconConfig(max_iters=5, mu_mode="fixed", mu_value=0.0)
        with pytest.raises(ReconError, match="frame 1"):
            list(reconstruct_series(frames, plan, coils, basis, cfg))

    def test_cs_solve_one_op_per_iteration(self, counted):
        frames, plan, coils = self._tiny_dataset(n_frames=1)
        cfg = ReconConfig(max_iters=7, tol=1e-14, mu_mode="fixed", mu_value=0.01)
        est = cs_solve(frames[0], recon_mod.FrameOperator(plan.frame(0), plan.dims, coils),
                       WaveletBasis("haar", 1), cfg)
        iters = len(est.objective_trace) - 1
        assert iters == 7
        assert counted["builds"] == 1 and counted["lipschitz"] == 1
        # initial objective, one objective per iteration, power iteration
        assert counted["op"] == 1 + iters + LIPSCHITZ_ITERS
        # adjoint init, one gradient per iteration, power iteration
        assert counted["adj_op"] == 1 + iters + LIPSCHITZ_ITERS

    @pytest.mark.parametrize("family", ["haar", "symlet8"])
    @pytest.mark.parametrize("mu_mode", ["fixed", "sure"])
    def test_cs_solve_one_wavelet_pair_per_iteration(self, monkeypatch, mu_mode, family):
        """1 + iterations forward transforms (+1 for SURE) and one inverse
        per iteration; the objective trace equals the objective of each
        iterate with its l1 term from a fresh forward transform."""
        frames, plan, coils = self._tiny_dataset(n_frames=1)
        basis = WaveletBasis(family, 1)
        calls = {"forward": 0, "inverse": 0}
        iterates = []
        real_forward, real_inverse = WaveletBasis.forward, WaveletBasis.inverse

        def forward(self, volume):
            calls["forward"] += 1
            return real_forward(self, volume)

        def inverse(self, coeffs):
            calls["inverse"] += 1
            iterates.append(real_inverse(self, coeffs))
            return iterates[-1]

        monkeypatch.setattr(WaveletBasis, "forward", forward)
        monkeypatch.setattr(WaveletBasis, "inverse", inverse)
        operator = FrameOperator(plan.frame(0), plan.dims, coils)
        cfg = ReconConfig(max_iters=12, tol=1e-14, mu_mode=mu_mode, mu_value=0.01)
        est = cs_solve(frames[0], operator, basis, cfg)
        monkeypatch.undo()
        iters = est.n_iters
        assert iters == len(est.objective_trace) - 1 == 12
        assert calls == {"forward": 1 + iters + (mu_mode == "sure"), "inverse": iters}

        y = frames[0] / np.sqrt(np.prod(plan.dims))

        def two_transform_objective(x):
            resid = operator.op(x) - y
            return (0.5 * np.sum(np.abs(resid) ** 2)
                    + est.mu_used * np.sum(np.abs(basis.forward(x).ravel())))

        want = [two_transform_objective(x) for x in [operator.adj_op(y), *iterates]]
        np.testing.assert_allclose(est.objective_trace, want, rtol=1e-12)

    def test_solver_telemetry(self):
        frames, plan, coils = self._tiny_dataset(n_frames=1)
        basis = WaveletBasis("haar", 1)
        args = (frames[0], _op(plan, coils), basis)
        loose = cs_solve(*args, ReconConfig(max_iters=500, tol=1e-4, mu_mode="fixed",
                                            mu_value=0.01))
        trace = np.array(loose.objective_trace)
        rel = np.abs(np.diff(trace)) / np.abs(trace[:-1])
        assert loose.converged and loose.n_iters == len(trace) - 1 < 500
        assert rel[-1] < 1e-4 and np.all(rel[:-1] >= 1e-4)
        capped = cs_solve(*args, ReconConfig(max_iters=3, tol=1e-14, mu_mode="fixed",
                                             mu_value=0.01))
        assert not capped.converged and capped.n_iters == 3
        assert (loose.stop, capped.stop) == ("tol", "max_iters")
        # the final relative change is the last step of the objective trace
        assert loose.final_rel_change == rel[-1]
        *_, before, last = capped.objective_trace
        assert capped.final_rel_change == abs(before - last) / abs(before)

    def test_restarts_count_the_rises_of_the_objective(self):
        """A step 1.1 times too long makes the objective rise without
        diverging: each rise is one adaptive restart. The step 1 / L of
        the same solve gives none."""
        frames, plan, coils = self._tiny_dataset(n_frames=1)
        cfg = ReconConfig(max_iters=60, tol=1e-8, mu_mode="fixed", mu_value=0.01)
        op = _op(plan, coils)
        assert cs_solve(frames[0], op, WaveletBasis("haar", 1), cfg).restarts == 0
        op.lipschitz_bound = op.lipschitz() / 1.1
        est = cs_solve(frames[0], op, WaveletBasis("haar", 1), cfg)
        trace = est.objective_trace
        assert est.stop == "max_iters" and est.volume is not None
        assert est.restarts == sum(b > a for a, b in zip(trace, trace[1:])) > 0

    def test_series_carries_telemetry(self):
        frames, plan, coils = self._tiny_dataset(n_frames=3)
        cfg = ReconConfig(strategy="refined", max_iters=4, tol=1e-14,
                          mu_mode="fixed", mu_value=0.01)
        ests = list(reconstruct_series(frames, plan, coils, WaveletBasis("haar", 1), cfg))
        assert [e.n_iters for e in ests] == [len(e.objective_trace) - 1 for e in ests] == [4] * 3
        assert [e.converged for e in ests] == [False] * 3
        assert [e.n_iters for e in adjoint_series(frames, plan, coils)] == [None] * 3

    @pytest.mark.parametrize("strategy", ["cold", "refined"])
    def test_static_plan_builds_one_operator(self, counted, strategy):
        frames, plan, coils = self._tiny_dataset(n_frames=3, dynamic=False)
        cfg = ReconConfig(strategy=strategy, max_iters=3, tol=1e-14,
                          mu_mode="fixed", mu_value=0.01)
        list(reconstruct_series(frames, plan, coils, WaveletBasis("haar", 1), cfg))
        assert counted["builds"] == 1
        assert counted["lipschitz"] == 1

    def test_dynamic_plan_builds_one_operator_per_frame(self, counted):
        frames, plan, coils = self._tiny_dataset(n_frames=3)
        cfg = ReconConfig(strategy="warm", max_iters=3, tol=1e-14,
                          mu_mode="fixed", mu_value=0.01)
        list(reconstruct_series(frames, plan, coils, WaveletBasis("haar", 1), cfg))
        assert counted["builds"] == 3
        # frame 2 is frame 0's Shot objects again, so it shares frame 0's bound
        assert plan.frame(2) == plan.frame(0)
        assert counted["lipschitz"] == 2

    def test_shared_operator_matches_fresh_solves(self):
        frames, plan, coils = self._tiny_dataset(n_frames=3, dynamic=False)
        basis = WaveletBasis("haar", 1)
        cfg = ReconConfig(max_iters=5, tol=1e-14, mu_mode="fixed", mu_value=0.01)
        volumes = np.stack([e.volume for e in reconstruct_series(frames, plan, coils,
                                                                 basis, cfg)])
        for t in range(3):
            est = cs_solve(frames[t], _op(plan, coils, t), basis, cfg)
            np.testing.assert_array_equal(volumes[t], est.volume)

    def test_adjoint_series_shares_operator_on_static_plan(self, counted):
        rng = np.random.default_rng(8)
        dims = (8, 8, 8)
        plan = gen_epi_3d(dims, _seq(), n_frames=3)
        coils = birdcage_coils(dims, 2)
        n = sum(s.n_samples for s in plan.frame(0))
        frames = rng.standard_normal((3, 2, n)) + 1j * rng.standard_normal((3, 2, n))
        volumes = np.stack([e.volume for e in adjoint_series(frames, plan, coils)])
        assert counted["builds"] == 1
        for t in range(3):
            np.testing.assert_array_equal(
                volumes[t], adjoint_recon(frames[t], _op(plan, coils, t)))


class TestFrameBatches:
    """A batch of frames of one operator: the operator, the wavelet
    transforms, the soft threshold and cs_solve on its leading frame axis
    equal the calls on each frame, bit for bit, and the series splits a
    run of frames into batches by the frame size alone."""

    @staticmethod
    def _operator(kind, dims, n_coils, dtype):
        """A FrameOperator on the ``kind`` NDFT path, its maps in dtype."""
        rng = np.random.default_rng(4)
        if kind == "stack":
            plan = gen_stack_of_spirals(gen_spiral(dims[:2], 64), af=4.0,
                                        center_fraction=0.25, dims=dims)
            shots = plan.frame(0)
        elif kind == "fft":
            shots = gen_epi_3d(dims, _seq()).frame(0)
        else:
            from snakesim.trajectories import Shot
            shots = [Shot(points=rng.uniform(-4, 3.9, (40, 3)), times=np.linspace(0, 1e-3, 40))
                     for _ in range(2)]
        maps = birdcage_coils(dims, n_coils).maps.astype(dtype)
        op = FrameOperator(shots, dims, recon_mod.CoilProfile(maps=maps))
        assert op._ndft.path == kind
        return op

    @staticmethod
    def _volumes(n, dims, dtype, seed=5):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((n, *dims))
                + 1j * rng.standard_normal((n, *dims))).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("kind, dims, n_coils", [
        ("stack", (8, 8, 8), 2), ("fft", (8, 8, 8), 2), ("general", (8, 8, 8), 2),
        ("stack", (16, 18, 16), 8)])
    def test_operator_on_a_batch_equals_each_frame(self, kind, dims, n_coils, dtype):
        op = self._operator(kind, dims, n_coils, dtype)
        x = self._volumes(3, dims, dtype)
        y = op.op(x)
        back = op.adj_op(y)
        assert y.shape == (3, n_coils, len(op.points)) and back.shape == (3, *dims)
        assert y.dtype == back.dtype == dtype
        for t in range(3):
            assert op.op(x[t]).tobytes() == y[t].tobytes()
            assert op.adj_op(y[t]).tobytes() == back[t].tobytes()

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("family", ["haar", "symlet8"])
    @pytest.mark.parametrize("dims, levels", [((8, 8, 8), 2), ((16, 18, 16), 1),
                                              ((9, 11, 7), 2)])
    def test_wavelets_and_threshold_on_a_batch_equal_each_frame(self, dims, levels,
                                                                family, dtype):
        """forward, inverse and soft_threshold with one threshold per frame,
        an (F, 1, 1, 1) column as cs_solve passes it, equal to each frame's
        call with its Python float."""
        basis = WaveletBasis(family, levels)
        x = self._volumes(3, dims, dtype)
        coeffs = basis.forward(x)
        back = basis.inverse(coeffs)
        mus = [0.05, 0.5, 1.5]
        shrunk = soft_threshold(coeffs, np.array(mus, dtype=x.real.dtype).reshape(-1, 1, 1, 1))
        assert coeffs.dtype == back.dtype == shrunk.dtype == dtype
        for t in range(3):
            assert basis.forward(x[t]).tobytes() == coeffs[t].tobytes()
            assert basis.inverse(coeffs[t]).tobytes() == back[t].tobytes()
            assert soft_threshold(coeffs[t], mus[t]).tobytes() == shrunk[t].tobytes()

    @staticmethod
    def _distinct_frames(n_frames=4):
        """A static plan whose frames hold different data: each frame of
        TestSeries' dataset scaled and with its own noise."""
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=n_frames, dynamic=False)
        rng = np.random.default_rng(11)
        noise = rng.standard_normal(frames.shape) + 1j * rng.standard_normal(frames.shape)
        scale = np.linspace(0.5, 2.0, n_frames)[:, None, None]
        return frames * scale + 0.05 * np.abs(frames).max() * noise, plan, coils

    @pytest.mark.parametrize("mu_mode", ["fixed", "sure"])
    def test_batch_solve_equals_each_frame_solve(self, mu_mode):
        """Frames that stop on tol at different iterations, and at max_iters,
        leave the batch with their own solve's estimate, bit for bit; so do
        frames started from one shared init."""
        frames, plan, coils = self._distinct_frames()
        op, basis = _op(plan, coils), WaveletBasis("haar", 1)
        cfg = ReconConfig(max_iters=40, tol=1e-3, mu_mode=mu_mode, mu_value=0.01)
        init = op.adj_op(frames[0]) / np.sqrt(np.prod(plan.dims))
        for kwargs in ({}, {"init": init}):
            batch = cs_solve(frames, op, basis, cfg, **kwargs)
            lone = [cs_solve(frames[t], _op(plan, coils), basis, cfg, **kwargs)
                    for t in range(len(frames))]
            if not kwargs:
                assert len({e.n_iters for e in lone}) > 1
                assert {e.converged for e in lone} == {False, True}
            for got, want in zip(batch, lone):
                assert got.volume.tobytes() == want.volume.tobytes()
                assert got.volume.base is None
                assert (got.objective_trace, got.mu_used, got.n_iters, got.converged) == \
                    (want.objective_trace, want.mu_used, want.n_iters, want.converged)

    def test_diverging_frame_in_a_batch_is_named(self, monkeypatch):
        """A frame that fails leaves its batch with its failed estimate, and
        the others are their lone solves'; the series (batches of frames
        0-1, 2-3 and 4) yields the frames before it and raises its
        ReconError naming its index in the run, as lone solves in frame
        order do."""
        monkeypatch.setattr(recon_mod, "BATCH_BYTES", 2 * 2 * 8 ** 3 * 16)
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=5, dynamic=False)
        frames[3, 0, 0] = np.nan
        basis = WaveletBasis("haar", 1)
        cfg = ReconConfig(max_iters=5, mu_mode="fixed", mu_value=0.0)
        for config, stop, message in (
                (cfg, "diverged", "solver diverged at iteration 0 (objective nan)"),
                (replace(cfg, mu_mode="sure"), "sure", "volume contains non-finite values")):
            batch = cs_solve(frames[1:], _op(plan, coils), basis, config)
            assert (batch[2].volume, batch[2].stop, batch[2].reason) == (None, stop, message)
            for t in (1, 2, 4):
                want = cs_solve(frames[t], _op(plan, coils), basis, config)
                assert batch[t - 1].volume.tobytes() == want.volume.tobytes()
            series = reconstruct_series(frames, plan, coils, basis, config)
            got = [next(series) for _ in range(3)]
            with pytest.raises(ReconError, match=f"^frame 3: {re.escape(message)}$"):
                next(series)
            for t, est in enumerate(got):
                want = cs_solve(frames[t], _op(plan, coils), basis, config)
                assert est.volume.tobytes() == want.volume.tobytes()
        # a warm frame is a batch of one on the calling thread
        warm = reconstruct_series(frames, plan, coils, basis, replace(cfg, strategy="warm"))
        assert len([next(warm) for _ in range(3)]) == 3
        with pytest.raises(ReconError, match="^frame 3: solver diverged at iteration 0"):
            next(warm)

    def test_first_failing_frame_is_reported(self, monkeypatch):
        """Frame 1 diverges at iteration 1 and frame 2 at iteration 0 (a
        step three times too long, and a NaN sample): the batch gives each
        frame its lone solve's estimate, and the series reports frame 1,
        after frame 0, as lone solves in frame order would."""
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=3, dynamic=False)
        frames[0] = 0
        frames[2, 0, 0] = np.nan
        lipschitz = FrameOperator.lipschitz
        monkeypatch.setattr(FrameOperator, "lipschitz", lambda self: lipschitz(self) / 3)
        op, basis = _op(plan, coils), WaveletBasis("haar", 1)
        cfg = ReconConfig(max_iters=20, mu_mode="fixed", mu_value=0.0)
        batch = cs_solve(frames, op, basis, cfg)
        assert batch[0].volume.tobytes() == cs_solve(frames[0], op, basis, cfg).volume.tobytes()
        for t, iteration in ((1, 1), (2, 0)):
            for est in (cs_solve(frames[t], op, basis, cfg), batch[t]):
                assert (est.volume, est.stop, est.n_iters) == (None, "diverged", iteration)
                assert est.reason.startswith(f"solver diverged at iteration {iteration} ")
        series = reconstruct_series(frames, plan, coils, basis, cfg)
        assert next(series).volume.tobytes() == batch[0].volume.tobytes()
        with pytest.raises(ReconError, match="^frame 1: solver diverged at iteration 1 "):
            next(series)

    @pytest.mark.parametrize("failure", ["refused", "diverged"])
    def test_a_failed_frame_leaves_the_others_their_lone_solves(self, failure):
        """Frame 1 of a batch of four is refused (one sample short) or
        diverges (a NaN sample): its estimate says so and holds no volume,
        and every other frame's estimate, telemetry included, is its lone
        solve's bit for bit."""
        frames, plan, coils = self._distinct_frames()
        op, basis = _op(plan, coils), WaveletBasis("haar", 1)
        cfg = ReconConfig(max_iters=40, tol=1e-3, mu_mode="sure")
        batch = list(frames)
        if failure == "refused":
            batch[1] = frames[1][:, 1:]
        else:
            batch[1] = frames[1].copy()
            batch[1][0, 0] = np.nan
            cfg = replace(cfg, mu_mode="fixed", mu_value=0.01)
        got = cs_solve(batch, op, basis, cfg)
        assert (got[1].volume, got[1].stop) == (None, failure)
        assert got[1].reason == cs_solve(batch[1], op, basis, cfg).reason
        for t in (0, 2, 3):
            want = cs_solve(frames[t], _op(plan, coils), basis, cfg)
            assert got[t].volume.tobytes() == want.volume.tobytes()
            assert {**vars(got[t]), "volume": None} == {**vars(want), "volume": None}

    def test_batch_size_follows_from_the_frame_size(self):
        """The most frames whose coil images fit BATCH_BYTES, at least one:
        3 at 16x18x16 with 8 complex64 coils, 1 at s2@1 (60x71x60)."""
        from types import SimpleNamespace

        def size(dims, n_coils, dtype):
            coils = SimpleNamespace(maps=np.zeros(0, dtype), n_coils=n_coils)
            plan = SimpleNamespace(n_frames=1, dims=dims, frame=lambda t: ())
            return recon_mod._series_setup(np.zeros((1, 0, 0), dtype), plan, coils, None)[1]
        assert size((16, 18, 16), 8, np.complex64) == 3
        assert size((16, 18, 16), 8, np.complex128) == 1
        assert size((60, 71, 60), 8, np.complex64) == 1
        assert size((8, 8, 8), 2, np.complex128) == recon_mod.BATCH_BYTES // 16384

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_batches_split_runs_of_one_operator(self, dynamic, monkeypatch):
        """A static plan's 10 frames at 3 frames a batch are 3, 3, 3 and 1
        frames; a dynamic plan's frames are batches of one, also one that
        repeats the frame before it."""
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=10, dynamic=dynamic)
        if dynamic:
            # frame 5 is frame 4's Shot objects: consecutive frames that
            # share one operator, which a static plan's batching would join
            shots = list(plan.shots)
            shots[5 * plan.shots_per_frame:6 * plan.shots_per_frame] = plan.frame(4)
            plan = replace(plan, shots=tuple(shots))
        monkeypatch.setattr(recon_mod, "BATCH_BYTES", 3 * 2 * 8 ** 3 * 16)
        batches = list(recon_mod._batches(plan, *recon_mod._series_setup(
            frames, plan, coils, None)[:2]))
        assert [list(f) for f, _ in batches] == (
            [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]] if not dynamic else [[t] for t in range(10)])
        # one operator serves a static plan, and frames 4 and 5 of the other
        assert (batches[4][1] is batches[5][1]) if dynamic else \
            len({id(op) for _, op in batches}) == 1


class _FrameReads:
    """A (n_frames, L, P) array that records, for every frame read, its
    index minus the number of frames the consumer has received."""

    def __init__(self, frames, bad_frame=None):
        self.frames, self.bad_frame = frames, bad_frame
        self.received, self.ahead = 0, []
        self._lock = threading.Lock()

    def __len__(self):
        return len(self.frames)

    def __getitem__(self, t):
        with self._lock:
            self.ahead.append(t - self.received)
        if t == self.bad_frame:
            return self.frames[t][:, 1:]  # one sample short: a ReconError
        return self.frames[t]


def _pool_threads():
    return {th for th in threading.enumerate() if th.name.startswith("ThreadPoolExecutor")}


# one byte short of one frame's coil images (2 coils of 8^3 complex128
# voxels, the frames of TestSeries._tiny_dataset): every frame is over the
# budget, so its series runs on the pool at more than one worker
OVER_BUDGET = 2 * 8 ** 3 * 16 - 1


class TestFrameWorkers:
    """Independent frames on a thread pool: results, Lipschitz estimates,
    read-ahead, errors and thread lifetime at any worker count, on frames
    forced over the batch budget so the pool runs."""

    @pytest.fixture(autouse=True)
    def _over_budget(self, monkeypatch):
        monkeypatch.setattr(recon_mod, "BATCH_BYTES", OVER_BUDGET)

    @pytest.fixture(autouse=True)
    def _short_switch_interval(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _series(kind, kdata, plan, coils, n_jobs, max_iters=3):
        if kind == "adjoint":
            return adjoint_series(kdata, plan, coils, n_jobs=n_jobs)
        cfg = ReconConfig(strategy=kind, max_iters=max_iters, tol=1e-14, mu_mode="sure")
        return reconstruct_series(kdata, plan, coils, WaveletBasis("haar", 1), cfg,
                                  n_jobs=n_jobs)

    def test_worker_count_is_n_jobs_or_one(self, monkeypatch):
        """Over the budget the worker count is ``n_jobs``, at least 1, and
        1 when none is given; no environment variable sets it."""
        monkeypatch.setenv("SNAKE_NJOBS", "2")
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=2, dynamic=False)
        assert [recon_mod._series_setup(frames, plan, coils, n)[2]
                for n in (1, 4, None, 0)] == [1, 4, 1, 1]

    @pytest.mark.parametrize("kind", ["adjoint", "cold", "refined"])
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_frames_identical_at_any_worker_count(self, kind, dynamic):
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=5, dynamic=dynamic)
        want = [e.volume for e in self._series(kind, frames, plan, coils, 1)]
        for n_jobs in (2, 4):
            got = [e.volume for e in self._series(kind, frames, plan, coils, n_jobs)]
            assert len(got) == 5
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("kind, dynamic, seed, builds, estimates", [
        ("cold", False, 6, 1, 1), ("refined", False, 6, 1, 1),
        # four distinct frames; the warm pass and the second pass each
        # build one operator per frame
        ("cold", True, 8, 4, 4), ("refined", True, 8, 8, 4),
        # frame 2 is frame 0's Shot objects again
        ("cold", True, 6, 4, 3), ("refined", True, 6, 8, 3)])
    def test_one_lipschitz_estimate_per_distinct_frame(self, counted, n_jobs, kind,
                                                       dynamic, seed, builds, estimates):
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=4, seed=seed,
                                                       dynamic=dynamic)
        assert len({plan.frame(t) for t in range(4)}) == estimates
        list(self._series(kind, frames, plan, coils, n_jobs))
        assert counted["builds"] == builds
        assert counted["lipschitz"] == estimates

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["cold", "warm", "refined"])
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_lipschitz_estimates_run_on_the_consuming_thread(self, monkeypatch, kind,
                                                             dynamic, n_jobs):
        """Pool threads only solve: every Lipschitz estimate of a series
        runs on the thread that iterates the series."""
        threads = []
        lipschitz = FrameOperator.lipschitz

        def spy(self, *args, **kwargs):
            threads.append(threading.current_thread())
            return lipschitz(self, *args, **kwargs)

        monkeypatch.setattr(FrameOperator, "lipschitz", spy)
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=4, dynamic=dynamic)
        list(self._series(kind, frames, plan, coils, n_jobs))
        assert threads and all(th is threading.current_thread() for th in threads)

    def test_refined_second_pass_matches_fresh_operators(self):
        """The second pass reuses each frame's bound from the warm pass and
        gives the volumes of solves on freshly built operators."""
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=4, dynamic=True)
        basis = WaveletBasis("haar", 1)
        cfg = ReconConfig(strategy="refined", max_iters=3, tol=1e-14, mu_mode="sure")
        got = [e.volume for e in reconstruct_series(frames, plan, coils, basis, cfg)]
        init = None
        for t in range(4):
            init = cs_solve(frames[t], _op(plan, coils, t), basis, cfg, init=init).volume
        for t in range(4):
            want = cs_solve(frames[t], _op(plan, coils, t), basis, cfg, init=init).volume
            assert np.array_equal(got[t], want)

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["adjoint", "cold"])
    def test_reads_at_most_workers_frames_ahead(self, kind, n_jobs):
        """At most n_jobs tasks are read and not yet received: the one the
        consumer waits for and n_jobs - 1 after it. Over the budget a task
        is one frame, adjoint or cold, so at most n_jobs - 1 frames are
        read ahead."""
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=8, dynamic=False)
        sizes = [len(f) for f, _ in recon_mod._batches(
            plan, *recon_mod._series_setup(frames, plan, coils, None)[:2])]
        assert sizes == [1] * 8
        bound = max(sum(sizes[i:i + n_jobs]) for i in range(len(sizes))) - 1
        kdata = _FrameReads(frames)
        for t, _ in enumerate(self._series(kind, kdata, plan, coils, n_jobs)):
            time.sleep(0.002)  # a slow consumer, so the pool could run far ahead
            kdata.received = t + 1
        assert len(kdata.ahead) == 8
        assert max(kdata.ahead) <= bound

    @pytest.mark.parametrize("n_jobs", [1, 3])
    @pytest.mark.parametrize("kind", ["adjoint", "cold"])
    def test_batches_on_the_calling_thread_read_one_batch_ahead(self, kind, n_jobs,
                                                               monkeypatch):
        """Where three frames fit the budget the tasks run on the calling
        thread, one at a time at any worker count: each adjoint frame, or
        each batch of cold frames, here 3, 3 and 2 of the 8, so at most a
        batch's frames less one are read ahead."""
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=8, dynamic=False)
        # three frames' coil images: 2 coils of 8^3 complex128 voxels each
        monkeypatch.setattr(recon_mod, "BATCH_BYTES", 3 * 2 * 8 ** 3 * 16)
        sizes = [len(f) for f, _ in recon_mod._batches(
            plan, *recon_mod._series_setup(frames, plan, coils, None)[:2])]
        assert sizes == [3, 3, 2]
        kdata = _FrameReads(frames)
        for t, _ in enumerate(self._series(kind, kdata, plan, coils, n_jobs)):
            kdata.received = t + 1
        assert len(kdata.ahead) == 8
        assert max(kdata.ahead) == (0 if kind == "adjoint" else 2)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["adjoint", "cold", "refined"])
    def test_frame_error_names_the_frame_and_stops_the_pool(self, kind, n_jobs):
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=6, dynamic=False)
        before = _pool_threads()
        got = []
        with pytest.raises(ReconError, match=r"^frame 3: k-space data of shape"):
            for est in self._series(kind, _FrameReads(frames, bad_frame=3), plan, coils,
                                    n_jobs):
                got.append(est)
        # refined stops in its warm pass, before any frame is yielded
        assert len(got) == (0 if kind == "refined" else 3)
        assert _pool_threads() <= before

    def test_closing_the_series_stops_its_threads(self):
        frames, plan, coils = TestSeries._tiny_dataset(n_frames=8, dynamic=True)
        before = _pool_threads()
        series = self._series("cold", frames, plan, coils, 2, max_iters=20)
        next(series)
        assert _pool_threads() - before
        series.close()
        assert _pool_threads() <= before
