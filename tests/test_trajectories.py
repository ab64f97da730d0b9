import math
import warnings
from collections import Counter

import numpy as np
import pytest

from snakesim import trajectories
from snakesim.cli import main as cli_main
from snakesim.io import write_trajectory
from snakesim.phantom import SequenceParams
from snakesim.trajectories import (SamplingPlan, Shot, TrajectoryError,
                                   gen_epi_3d, gen_spiral, gen_stack_of_spirals,
                                   load_trajectory_file, save_trajectory_file)


def _seq(t_obs=25.0):
    return SequenceParams(tr_shot=50.0, te=25.0, flip_angle=12.0, t_obs=t_obs)


def _grid_set(nx, ny, kz_values):
    """Brute-force enumeration oracle of the Cartesian grid points."""
    pts = set()
    for kz in kz_values:
        for ky in range(-(ny // 2), ny - ny // 2):
            for kx in range(-(nx // 2), nx - nx // 2):
                pts.add((float(kx), float(ky), float(kz)))
    return pts


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [-np.inf, 0.0, 1.0],
                                   [0.0, 1.0, np.inf]])
def test_shot_times_must_be_finite(times):
    """NaN and infinite sample times are refused: a NaN time or a leading
    -inf passed the strictly increasing check."""
    with pytest.raises(TrajectoryError, match="sample times must be finite"):
        Shot(points=np.zeros((3, 3)), times=np.array(times))


class TestEpi3d:
    def test_full_coverage_4cubed(self):
        plan = gen_epi_3d((4, 4, 4), _seq())
        assert len(plan.shots) == 4
        assert all(s.n_samples == 16 for s in plan.shots)
        seen = {tuple(p) for s in plan.shots for p in s.points}
        assert seen == _grid_set(4, 4, [-2, -1, 0, 1])

    def test_two_plane_slab(self):
        plan = gen_epi_3d((4, 4, 4), _seq(), n_planes_per_volume=2)
        seen = {tuple(p) for s in plan.shots for p in s.points}
        kz_seen = {p[2] for p in seen}
        assert len(kz_seen) == 2
        assert seen == _grid_set(4, 4, sorted(kz_seen))
        # slab is the two planes nearest the kz=0 center
        assert kz_seen == {-1.0, 0.0}

    def test_s1_volume_tr(self):
        plan = gen_epi_3d((60, 71, 60), _seq(), n_planes_per_volume=44)
        assert plan.shots_per_frame == 44
        assert plan.tr_vol == pytest.approx(2.2)

    def test_zero_axis_rejected(self):
        with pytest.raises(TrajectoryError):
            gen_epi_3d((4, 0, 4), _seq())

    def test_zero_planes_a_volume_rejected(self):
        with pytest.raises(TrajectoryError, match="at least one shot a frame, got 0"):
            gen_epi_3d((4, 4, 4), _seq(), n_planes_per_volume=0)

    def test_each_point_once_per_frame(self):
        plan = gen_epi_3d((4, 6, 4), _seq(), n_frames=2)
        frame_pts = [tuple(p) for s in plan.frame(1) for p in s.points]
        assert len(frame_pts) == len(set(frame_pts))


class TestSpiral:
    def test_two_sample_endpoints(self):
        pts = gen_spiral((8, 8), 2)
        k_max = 3.5
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), k_max)
        np.testing.assert_allclose(pts[0], -pts[1], atol=1e-12)

    def test_center_sample_at_origin(self):
        pts = gen_spiral((16, 16), 33)
        np.testing.assert_allclose(pts[16], [0.0, 0.0], atol=1e-12)

    def test_radius_bound_and_peak(self):
        pts = gen_spiral((16, 16), 101, n_turns=3)
        r = np.linalg.norm(pts, axis=1)
        k_max = (16 - 1) / 2
        assert np.all(r <= k_max + 1e-9)
        assert r.max() == pytest.approx(k_max, abs=1e-9)

    def test_analytic_radius(self):
        # closed form: r = k_max * |s| with s linear in the sample index
        n = 51
        pts = gen_spiral((12, 12), n)
        s = np.abs(-1 + 2 * np.arange(n) / (n - 1))
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 5.5 * s,
                                   atol=1e-9)


class TestStackOfSpirals:
    def _spiral(self):
        return gen_spiral((16, 16), 32)

    def test_af_one_covers_all_planes(self):
        plan = gen_stack_of_spirals(self._spiral(), af=1.0,
                                    center_fraction=0.1, dims=(16, 16, 16))
        kz = {s.points[0, 2] for s in plan.frame(0)}
        assert kz == set(float(k) for k in range(-8, 8))

    def test_paper_shot_count_via_budget(self):
        plan = gen_stack_of_spirals(self._spiral(), af=4.0,
                                    center_fraction=0.1, shots_per_frame=14,
                                    dims=(64, 64, 60))
        assert plan.shots_per_frame == 14

    def test_center_planes_every_frame(self):
        plan = gen_stack_of_spirals(self._spiral(), af=4.0,
                                    center_fraction=0.1, dynamic=True,
                                    n_frames=20, seed=7, dims=(16, 16, 16))
        n_center = 2  # ceil(0.1 * 16)
        center = {0.0, -1.0}
        for t in range(20):
            kz = {s.points[0, 2] for s in plan.frame(t)}
            assert center <= kz

    def test_static_frames_identical(self):
        plan = gen_stack_of_spirals(self._spiral(), af=2.0,
                                    center_fraction=0.2, dynamic=False,
                                    n_frames=3, dims=(16, 16, 16))
        sets = [tuple(sorted(s.points[0, 2] for s in plan.frame(t)))
                for t in range(3)]
        assert sets[0] == sets[1] == sets[2]

    def test_dynamic_seeded_reproducibility(self):
        kw = dict(af=4.0, center_fraction=0.1, dynamic=True,
                  n_frames=10, dims=(16, 16, 16))
        a = gen_stack_of_spirals(self._spiral(), seed=3, **kw)
        b = gen_stack_of_spirals(self._spiral(), seed=3, **kw)
        c = gen_stack_of_spirals(self._spiral(), seed=4, **kw)
        seq_a = [tuple(s.points[0, 2] for s in a.frame(t)) for t in range(10)]
        seq_b = [tuple(s.points[0, 2] for s in b.frame(t)) for t in range(10)]
        seq_c = [tuple(s.points[0, 2] for s in c.frame(t)) for t in range(10)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_dynamic_union_covers_all_planes(self):
        plan = gen_stack_of_spirals(self._spiral(), af=2.0,
                                    center_fraction=0.15, dynamic=True,
                                    n_frames=60, seed=0, dims=(16, 16, 8))
        kz = {s.points[0, 2] for s in plan.shots}
        assert kz == set(float(k) for k in range(-4, 4))

    def test_center_only_warning(self):
        with pytest.warns(UserWarning, match="center-only"):
            plan = gen_stack_of_spirals(self._spiral(), af=100.0,
                                        center_fraction=0.1, dims=(16, 16, 10))
        assert plan.shots_per_frame == 1

    def test_center_out_order(self):
        plan = gen_stack_of_spirals(self._spiral(), af=1.0,
                                    center_fraction=0.1, dims=(16, 16, 16))
        kz = [abs(s.points[0, 2]) for s in plan.frame(0)]
        assert kz == sorted(kz)


class TestExternal:
    def test_round_trip(self, tmp_path):
        plan = gen_epi_3d((4, 4, 4), _seq())
        path = tmp_path / "epi.snkt"
        save_trajectory_file(path, plan, dwell_time_us=10.0)
        back = load_trajectory_file(path, (4, 4, 4), shots_per_frame=4, n_frames=1)
        assert len(back.shots) == len(plan.shots)
        for s, (a, b) in enumerate(zip(plan.shots, back.shots)):
            np.testing.assert_allclose(a.points, b.points, atol=1e-6)
            assert plan.shot_times[s] == pytest.approx(back.shot_times[s])

    def test_48_shot_plan(self, tmp_path):
        pts = [np.random.default_rng(i).uniform(-4, 3.9, (32, 3))
               for i in range(48)]
        path = tmp_path / "s3.snkt"
        write_trajectory(path, pts, dwell_time_us=10.0, tr_shot_ms=50.0)
        plan = load_trajectory_file(path, (16, 16, 16), shots_per_frame=48, n_frames=1)
        assert plan.shots_per_frame == 48
        assert plan.tr_vol == pytest.approx(2.4)

    def test_shots_hold_their_own_points(self, tmp_path):
        """A loaded 3D shot owns its points: the plan keeps its distinct
        shots alive, not every point of the file."""
        pts = [np.full((4, 3), float(i % 2)) for i in range(6)]
        path = tmp_path / "two.snkt"
        write_trajectory(path, pts, dwell_time_us=10.0, tr_shot_ms=50.0)
        plan = load_trajectory_file(path, (8, 8, 8), shots_per_frame=6, n_frames=1)
        assert len(set(plan.shots)) == 2
        assert all(shot.points.base is None for shot in plan.shots)

    def test_2d_file_loads_on_the_kz_0_plane(self, tmp_path):
        """A 2D shot's (kx, ky) points load onto the kz = 0 plane."""
        xy = gen_spiral((8, 8), 16)
        path = tmp_path / "spiral2d.snkt"
        write_trajectory(path, [xy], dwell_time_us=10.0, tr_shot_ms=50.0)
        points = load_trajectory_file(path, (8, 8, 8), shots_per_frame=1, n_frames=1).shots[0].points
        assert points.shape == (16, 3)
        # SNKT1 stores float32
        assert points[:, :2].tobytes() == xy.astype(np.float32).astype(np.float64).tobytes()
        assert not points[:, 2].any()

    def test_out_of_range_rejected(self, tmp_path):
        bad = np.zeros((4, 3))
        bad[2, 0] = 2.0  # == N/2 for N=4, outside the half-open range
        path = tmp_path / "bad.snkt"
        write_trajectory(path, [bad], 10.0, 50.0)
        with pytest.raises(TrajectoryError, match="sample 2"):
            load_trajectory_file(path, (4, 4, 4), shots_per_frame=1, n_frames=1)

    def test_timing_from_dwell(self, tmp_path):
        pts = [np.zeros((10, 3))]
        pts[0][:, 0] = np.linspace(-2, 1.9, 10)
        path = tmp_path / "t.snkt"
        write_trajectory(path, pts, dwell_time_us=100.0, tr_shot_ms=50.0)
        plan = load_trajectory_file(path, (8, 8, 8), shots_per_frame=1, n_frames=1)
        times = plan.shots[0].times
        # sample count x dwell = T_obs within one dwell
        assert times[-1] - times[0] == pytest.approx(10 * 100e-6, abs=100e-6)
        assert np.all(np.diff(times) > 0)


class TestFramePartition:
    def _plan(self, n_shots, per_frame):
        shots = tuple(
            Shot(points=np.zeros((2, 3)), times=np.array([-1e-3, 1e-3]))
            for _ in range(n_shots))
        return SamplingPlan(shots=shots, shots_per_frame=per_frame,
                            tr_shot=0.05, kind="external", dims=(4, 4, 4))

    def test_budget_not_divisible(self):
        with pytest.raises(TrajectoryError):
            self._plan(6000, 44)  # 6000 shots cannot make whole frames of 44

    def test_5984_divides(self):
        plan = self._plan(5984, 44)
        assert plan.n_frames == 136
        assert all(len(plan.frame(t)) == 44 for t in range(plan.n_frames))

    def test_single_frame(self):
        plan = self._plan(14, 14)
        assert plan.n_frames == 1
        assert len(plan.frame(0)) == 14

    def test_frame_start_times(self):
        plan = self._plan(20, 5)
        assert plan.n_frames == 4
        for t in range(plan.n_frames):
            assert plan.shot_times[t * 5] == pytest.approx(t * 5 * 0.05)


class TestShotInvariants:
    def test_times_strictly_increasing(self):
        with pytest.raises(TrajectoryError):
            Shot(points=np.zeros((3, 3)), times=np.array([0.0, 0.0, 1.0]))

    def test_in_out_span(self):
        plan = gen_epi_3d((4, 4, 4), _seq(t_obs=24.0))
        times = plan.shots[0].times
        assert times[0] == pytest.approx(-0.012, rel=0.1)
        assert times[-1] == pytest.approx(+0.012, rel=0.1)
        assert abs(times[0] + times[-1]) < 1e-12

    def test_plan_serialization_deterministic(self, tmp_path):
        kw = dict(af=4.0, center_fraction=0.1, dynamic=True,
                  n_frames=5, seed=11, dims=(16, 16, 16))
        sp = gen_spiral((16, 16), 32)
        a_path, b_path = tmp_path / "a.snkt", tmp_path / "b.snkt"
        save_trajectory_file(a_path, gen_stack_of_spirals(sp, **kw), 10.0)
        save_trajectory_file(b_path, gen_stack_of_spirals(sp, **kw), 10.0)
        assert a_path.read_bytes() == b_path.read_bytes()


class TestShotIdentity:
    """A Shot is its k-point pattern: shots compare and hash by identity,
    and a plan repeats a pattern by repeating its Shot object."""

    def test_equal_arrays_are_distinct_shots(self):
        rng = np.random.default_rng(3)
        pts, times = rng.uniform(-2, 2, (5, 3)), np.linspace(-1e-3, 1e-3, 5)
        a = Shot(points=pts, times=times)
        b = Shot(points=pts.copy(), times=times.copy())
        assert a == a and a != b
        assert {a: 1}.get(b) is None
        shifted = Shot(points=pts, times=times + 1e-9)
        assert list(Counter([a, b, shifted, a, b]).items()) == [(a, 2), (b, 2), (shifted, 1)]

    @pytest.mark.parametrize("times, match", [
        (np.array([0.0, 1e-3, 1e-3]), "strictly increasing"),
        (np.array([0.0, 2e-3, 1e-3]), "strictly increasing"),
        (np.array([0.0, 1e-3]), "equal length")])
    def test_bad_pattern_rejected(self, times, match):
        with pytest.raises(TrajectoryError, match=match):
            Shot(points=np.zeros((3, 3)), times=times)

    def test_loader_merges_only_bit_equal_shots(self, tmp_path):
        """One Shot per distinct points byte string: an f32 nextafter move
        and -0.0 against 0.0 keep shots apart, as the engine's memo needs
        bit-equal points; a file of another dwell time gives other times."""
        pts = np.random.default_rng(3).uniform(-2, 2, (5, 3)).astype(np.float32)
        moved = pts.copy()
        moved[2, 1] = np.nextafter(moved[2, 1], np.float32(9.0))
        zero_sign = np.zeros((5, 3), dtype=np.float32)
        zero_sign[0, 0] = -0.0
        path = tmp_path / "bits.snkt"
        write_trajectory(path, [pts, pts.copy(), moved, zero_sign, np.zeros((5, 3)), pts],
                         dwell_time_us=10.0, tr_shot_ms=50.0)
        plan = load_trajectory_file(path, (4, 4, 4), shots_per_frame=6, n_frames=1)
        assert list(Counter(plan.shots).items()) == [
            (plan.shots[0], 3), (plan.shots[2], 1), (plan.shots[3], 1), (plan.shots[4], 1)]
        assert plan.shots[0] is plan.shots[1] is plan.shots[5]
        np.testing.assert_array_equal(plan.shots[2].points, moved)
        assert np.signbit(plan.shots[3].points[0, 0])
        write_trajectory(path, [pts], dwell_time_us=10.5, tr_shot_ms=50.0)
        shifted = load_trajectory_file(path, (4, 4, 4), shots_per_frame=1, n_frames=1).shots[0]
        assert shifted.points.tobytes() == plan.shots[0].points.tobytes()
        assert not np.array_equal(shifted.times, plan.shots[0].times)
        assert list(Counter([plan.shots[0], shifted]).values()) == [1, 1]

    def test_bounds_checked_once_per_distinct_shot(self, tmp_path, monkeypatch):
        checked = []
        check = trajectories._check_bounds
        monkeypatch.setattr(trajectories, "_check_bounds",
                            lambda pts, dims: checked.append(1) or check(pts, dims))
        path = tmp_path / "epi.snkt"
        save_trajectory_file(path, gen_epi_3d((4, 4, 4), _seq(), n_frames=3), 10.0)
        plan = load_trajectory_file(path, (4, 4, 4), shots_per_frame=4, n_frames=3)
        assert len(plan.shots) == 12 and len(checked) == 4


class TestPlaneShots:
    """Plan generators build one read-only Shot per kz plane and repeat it
    in every frame that acquires the plane."""

    @staticmethod
    def _plan(kind):
        if kind == "epi":
            return gen_epi_3d((6, 6, 22), _seq(), n_frames=3)
        return gen_stack_of_spirals(gen_spiral((8, 8), 16), af=2.0,
                                    center_fraction=0.2, dynamic=True, n_frames=4,
                                    seed=5, dims=(8, 8, 8))

    @pytest.mark.parametrize("kind", ["epi", "sos_dynamic"])
    def test_one_read_only_shot_per_plane(self, kind):
        plan = self._plan(kind)
        by_plane, frames_of = {}, {}
        for s, shot in enumerate(plan.shots):
            kz = float(shot.points[0, 2])
            assert by_plane.setdefault(kz, shot) is shot
            frames_of.setdefault(kz, set()).add(s // plan.shots_per_frame)
            assert not shot.points.flags.writeable
        assert any(len(f) > 1 for f in frames_of.values())
        assert len(set(plan.shots)) == len(by_plane)
        with pytest.raises(ValueError):
            plan.shots[0].points[0, 0] = 1.0

    def test_times_checked_once_per_plane(self, monkeypatch):
        diffs = []
        diff = np.diff
        monkeypatch.setattr(np, "diff", lambda a, *args: diffs.append(1) or diff(a, *args))
        plan = self._plan("epi")
        assert len(plan.shots) == 66 and len(diffs) == 22

    def test_22_planes_give_22_patterns(self):
        plan = self._plan("epi")
        assert list(Counter(plan.shots).items()) == [(shot, 3) for shot in plan.shots[:22]]
        for s, shot in enumerate(plan.shots):
            assert shot is plan.shots[s % 22]

    @pytest.mark.parametrize("kind", ["epi", "sos_dynamic"])
    def test_shot_times_are_shot_index_times_tr(self, kind):
        plan = self._plan(kind)
        assert plan.shot_times.shape == (len(plan.shots),)
        for s in range(len(plan.shots)):
            assert plan.shot_times[s] == s * plan.tr_shot


class TestGeneratorDims:
    """Every axis of a generated plan needs at least one sample."""

    @pytest.mark.parametrize("dims", [(-4, 8, 8), (8, -4, 8), (8, 8, -4)])
    def test_epi_axis_below_one_rejected(self, dims):
        with pytest.raises(TrajectoryError, match="invalid dims"):
            gen_epi_3d(dims, _seq())

    @pytest.mark.parametrize("dims_xy", [(-4, 8), (8, 0)])
    def test_spiral_axis_below_one_rejected(self, dims_xy):
        with pytest.raises(TrajectoryError, match=r"invalid dims \(-?\d, -?\d\)"):
            gen_spiral(dims_xy, 16)

    @pytest.mark.parametrize("dims", [(-4, 8, 8), (8, 0, 8), (8, 8, 0)])
    def test_stack_axis_below_one_rejected(self, dims):
        with pytest.raises(TrajectoryError, match="invalid dims"):
            gen_stack_of_spirals(gen_spiral((8, 8), 16), dims)

    @pytest.mark.parametrize("kind", ["epi3d", "stack_of_spirals"])
    def test_traj_gen_exits_2_and_writes_no_file(self, kind, tmp_path, capsys):
        path = tmp_path / "x.snkt"
        assert cli_main(["traj", "gen", str(path), "--kind", kind,
                         "--dims", "-4", "8", "8"]) == 2
        assert "invalid dims (-4, 8" in capsys.readouterr().err
        assert not path.exists()


def _oracle_echo_centered_times(n_samples, t_obs_s):
    dt = t_obs_s / n_samples
    return (np.arange(n_samples) - (n_samples - 1) / 2) * dt


def _oracle_plane_shot(xy, kz, times):
    pts = np.column_stack([xy, np.full(len(xy), float(kz))])
    pts.flags.writeable = False
    return Shot(points=pts, times=times)


def _oracle_epi_3d(dims, seq, n_planes_per_volume=None, n_frames=1):
    """gen_epi_3d as it was before plane selection was shared, frozen."""
    nx, ny, nz = dims
    if nx == 0 or ny == 0 or nz == 0:
        raise TrajectoryError(f"invalid dims {dims}")
    if n_planes_per_volume is None:
        n_planes_per_volume = nz
    if n_planes_per_volume > nz:
        raise TrajectoryError(f"{n_planes_per_volume} EPI planes > Nz = {nz}")
    kx = np.arange(nx) - nx // 2
    ky = np.arange(ny) - ny // 2
    all_kz = np.arange(nz) - nz // 2
    order = np.argsort(np.abs(all_kz), kind="stable")
    kz_sel = np.sort(all_kz[order[:n_planes_per_volume]])
    plane = np.empty((ny * nx, 2))
    for row in range(ny):
        xs = kx if row % 2 == 0 else kx[::-1]
        plane[row * nx: (row + 1) * nx, 0] = xs
        plane[row * nx: (row + 1) * nx, 1] = ky[row]
    times = _oracle_echo_centered_times(ny * nx, seq.t_obs_s)
    planes = [_oracle_plane_shot(plane, kz, times) for kz in kz_sel]
    return SamplingPlan(shots=tuple(planes * n_frames), shots_per_frame=n_planes_per_volume,
                        tr_shot=seq.tr_shot_s, kind="epi3d", dims=tuple(dims))


def _oracle_stack_of_spirals(spiral, dims, af=1.0, center_fraction=0.1, dynamic=False,
                             n_frames=1, seed=0, tr_shot_s=0.05, t_obs_s=0.025,
                             shots_per_frame=None):
    """gen_stack_of_spirals as it was before plane selection was shared,
    frozen."""
    if not (0 < center_fraction < 1):
        raise TrajectoryError(f"need 0 < center_fraction < 1, got {center_fraction}")
    if af < 1:
        raise TrajectoryError("acceleration factor must be >= 1")
    spiral = np.asarray(spiral, dtype=np.float64)
    nz = dims[2]
    all_kz = np.arange(nz) - nz // 2
    center_order = np.argsort(np.abs(all_kz), kind="stable")
    n_center = math.ceil(center_fraction * nz)
    center_kz = all_kz[center_order[:n_center]]
    outer_kz = all_kz[center_order[n_center:]]
    if shots_per_frame is None:
        shots_per_frame = max(n_center, int(round(nz / af)))
    if not n_center <= shots_per_frame <= nz:
        raise TrajectoryError(f"{shots_per_frame} planes a frame, need at least the "
                              f"{n_center} center planes and at most Nz = {nz}")
    n_outer = shots_per_frame - n_center
    if n_outer == 0 and len(outer_kz) > 0:
        import warnings
        warnings.warn("acceleration leaves zero outer planes: center-only plan")
    rng = np.random.default_rng(seed)
    shots = []
    times = _oracle_echo_centered_times(len(spiral), t_obs_s)
    planes = {kz: _oracle_plane_shot(spiral, kz, times) for kz in all_kz}
    if n_outer:
        stride_idx = np.round(np.linspace(0, len(outer_kz) - 1, n_outer)).astype(int)
        static_outer = outer_kz[stride_idx]
    else:
        static_outer = outer_kz[:0]
    for _ in range(n_frames):
        if dynamic and n_outer:
            sel_outer = rng.choice(outer_kz, size=n_outer, replace=False)
        else:
            sel_outer = static_outer
        frame_kz = np.concatenate([center_kz, sel_outer])
        frame_kz = frame_kz[np.argsort(np.abs(frame_kz), kind="stable")]
        shots.extend(planes[kz] for kz in frame_kz)
    return SamplingPlan(shots=tuple(shots), shots_per_frame=shots_per_frame,
                        tr_shot=tr_shot_s, kind="stack_of_spirals", dims=tuple(dims))


def _outcome(gen, *args, **kwargs):
    """(plan or None, refusal message or None, warning messages) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            plan, error = gen(*args, **kwargs), None
        except TrajectoryError as e:
            plan, error = None, str(e)
    return plan, error, [str(w.message) for w in caught]


def _assert_same_outcome(gen, oracle, *args, **kwargs):
    """Assert ``gen`` and ``oracle`` agree on the call; return its warnings."""
    plan, error, warned = _outcome(gen, *args, **kwargs)
    want, want_error, want_warned = _outcome(oracle, *args, **kwargs)
    assert (error, warned) == (want_error, want_warned)
    if want is None:
        return warned
    assert (plan.shots_per_frame, plan.tr_shot, plan.kind, plan.dims) == \
        (want.shots_per_frame, want.tr_shot, want.kind, want.dims)
    assert len(plan.shots) == len(want.shots)

    def first_of(shots):  # the Shot identity pattern: shot s repeats shot first_of[s]
        first = {}
        return [first.setdefault(shot, s) for s, shot in enumerate(shots)]

    assert first_of(plan.shots) == first_of(want.shots)
    for shot, oracle_shot in zip(plan.shots, want.shots):
        assert shot.points.tobytes() == oracle_shot.points.tobytes()
        assert shot.times.tobytes() == oracle_shot.times.tobytes()
        assert not shot.points.flags.writeable
    return warned


class TestFrozenOracle:
    """Both generators give the plans of their own earlier, separate
    implementations, byte for byte, over odd and even Nz, every plane
    count, static plans and dynamic ones at four seeds, and 0, 1 and 7
    frames; the same refusals and the same center-only warning."""

    @pytest.mark.parametrize("nz", [7, 8])
    def test_epi(self, nz):
        for n in range(1, nz + 1):
            for n_frames in (0, 1, 7):
                _assert_same_outcome(gen_epi_3d, _oracle_epi_3d, (6, 5, nz), _seq(),
                                     n_planes_per_volume=n, n_frames=n_frames)

    @pytest.mark.parametrize("nz", [7, 8])
    def test_stack_of_spirals(self, nz):
        spiral = gen_spiral((6, 5), 12)
        budgets = [dict(af=af) for af in (1.0, 2.0, 4.0)]
        budgets += [dict(shots_per_frame=n) for n in range(1, nz + 1)]
        plans = [dict(dynamic=False)] + [dict(dynamic=True, seed=s) for s in range(4)]
        warned = 0
        for center_fraction in (0.1, 0.3, 0.9):
            for budget in budgets:
                for plan in plans:
                    for n_frames in (0, 1, 7):
                        kwargs = dict(dims=(6, 5, nz), center_fraction=center_fraction,
                                      n_frames=n_frames, tr_shot_s=0.05, t_obs_s=0.03,
                                      **budget, **plan)
                        warned += bool(_assert_same_outcome(
                            gen_stack_of_spirals, _oracle_stack_of_spirals, spiral, **kwargs))
        assert warned > 0
