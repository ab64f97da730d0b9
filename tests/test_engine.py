import inspect
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import snakesim.engine as engine
from snakesim.engine import (NDFT, PHASE_TABLE_LIMIT, CoilProfile, EngineError,
                             NoiseConfig, acquire_shot_basic,
                             acquire_shot_t2s, add_noise, birdcage_coils,
                             centered_fft, centered_ifft, phantom_energy,
                             run_acquisition)
from snakesim.io import DatasetWriter, read_dataset
from snakesim.phantom import (BoldSpec, Phantom, SequenceParams, default_tissues,
                              gre_contrast, contrast_volume, modulated_state,
                              synthetic_phantom)
from snakesim.trajectories import (SamplingPlan, Shot, gen_epi_3d, gen_spiral,
                                   gen_stack_of_spirals, load_trajectory_file,
                                   save_trajectory_file)


def _seq(**kw):
    base = dict(tr_shot=50.0, te=25.0, flip_angle=12.0, t_obs=25.0)
    base.update(kw)
    return SequenceParams(**base)


def _peak_bytes(fn):
    """The peak of the memory that numpy and Python allocate during fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _random_volume(rng, dims):
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)


def _ndft_oracle(volume, points):
    """Brute-force triple-loop NDFT: y[n] = sum_m x[m] e^{-2pi i k.r_m}."""
    dims = volume.shape
    out = np.zeros(len(points), dtype=np.complex128)
    for n, k in enumerate(points):
        acc = 0.0 + 0.0j
        for ix in range(dims[0]):
            for iy in range(dims[1]):
                for iz in range(dims[2]):
                    r = np.array([(ix - dims[0] // 2) / dims[0],
                                  (iy - dims[1] // 2) / dims[1],
                                  (iz - dims[2] // 2) / dims[2]])
                    acc += volume[ix, iy, iz] * np.exp(-2j * np.pi * np.dot(k, r))
        out[n] = acc
    return out


class _OneCoil(NDFT):
    """An NDFT called through one unit coil, with no coil axis: forward
    takes (..., Nx, Ny, Nz) to (..., P) and adjoint (..., P) back."""

    def forward(self, x):
        return super().forward(x, np.ones((1, *self.dims)))[..., 0, :]

    def adjoint(self, y):
        return super().adjoint(np.asarray(y)[..., None, :], np.ones((1, *self.dims)))


class TestNdft:
    def test_center_impulse_flat_magnitude(self):
        vol = np.zeros((4, 4, 4), dtype=np.complex128)
        vol[2, 2, 2] = 1.0
        pts = np.random.default_rng(0).uniform(-2, 1.9, (10, 3))
        y = _OneCoil(pts, (4, 4, 4)).forward(vol)
        np.testing.assert_allclose(np.abs(y), 1.0, atol=1e-12)

    def test_on_grid_matches_fft(self):
        rng = np.random.default_rng(1)
        vol = _random_volume(rng, (4, 4, 4))
        grid = np.array([(kx, ky, kz)
                         for kx in range(-2, 2)
                         for ky in range(-2, 2)
                         for kz in range(-2, 2)], dtype=np.float64)
        y = _OneCoil(grid, (4, 4, 4)).forward(vol)
        np.testing.assert_allclose(y, centered_fft(vol).ravel(),
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(y, _ndft_oracle(vol, grid),
                                   rtol=1e-10, atol=1e-10)

    def test_zero_volume(self):
        pts = np.random.default_rng(2).uniform(-2, 1.9, (5, 3))
        y = _OneCoil(pts, (4, 4, 4)).forward(np.zeros((4, 4, 4)))
        np.testing.assert_array_equal(y, 0)

    def test_off_grid_matches_brute_force(self):
        rng = np.random.default_rng(3)
        vol = _random_volume(rng, (4, 4, 4))
        pts = rng.uniform(-2, 1.9, (6, 3))
        np.testing.assert_allclose(_OneCoil(pts, (4, 4, 4)).forward(vol),
                                   _ndft_oracle(vol, pts), rtol=1e-10)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(4)
        vol = _random_volume(rng, (4, 4, 4))
        pts = rng.uniform(-2, 1.9, (7, 3))
        y = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        op = _OneCoil(pts, (4, 4, 4))
        lhs = np.vdot(y, op.forward(vol))
        rhs = np.vdot(op.adjoint(y), vol)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_adjoint_identity_on_grid(self):
        rng = np.random.default_rng(16)
        vol = _random_volume(rng, (4, 4, 4))
        # repeated points exercise the scatter-add of the FFT adjoint
        pts = rng.integers(-2, 2, (20, 3)).astype(np.float64)
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        op = _OneCoil(pts, (4, 4, 4))
        lhs = np.vdot(y, op.forward(vol))
        rhs = np.vdot(op.adjoint(y), vol)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("points", ["distinct", "repeated"])
    def test_adjoint_on_grid_matches_oracle(self, points):
        """The FFT-path adjoint equals E^H y for the brute-force matrix E,
        for distinct points and with repeats added."""
        rng = np.random.default_rng(18)
        dims = (4, 4, 4)
        grid = np.stack(np.meshgrid(*[np.arange(-2, 2)] * 3, indexing="ij"), -1).reshape(-1, 3)
        pts = grid[rng.permutation(len(grid))[:20]].astype(np.float64)
        if points == "repeated":
            pts = np.concatenate([pts, pts[[0, 3, 3]]])
        op = _OneCoil(pts, dims)
        assert op.path == "fft"
        matrix = np.stack([_ndft_oracle(e.reshape(dims), pts) for e in np.eye(64)], axis=1)
        y = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
        np.testing.assert_allclose(op.adjoint(y).ravel(), matrix.conj().T @ y,
                                   rtol=1e-10, atol=1e-10)
        vol = _random_volume(rng, dims)
        assert np.vdot(y, op.forward(vol)) == pytest.approx(np.vdot(op.adjoint(y), vol),
                                                            rel=1e-10)

    @pytest.mark.parametrize("dims", [(5, 7, 9), (6, 8, 4)])
    @pytest.mark.parametrize("points", ["distinct", "repeated"])
    def test_fft_path_is_the_centered_fft_bit_for_bit(self, dims, points):
        """On a batch of volumes, forward equals centered_fft(v)[idx] and
        adjoint equals the centered_ifft of the scattered grid times M,
        bit for bit, on odd and even dims and with a repeated grid point."""
        rng = np.random.default_rng(19)
        n = int(np.prod(dims))
        flat = rng.permutation(n)[:n // 3]
        if points == "repeated":
            flat = np.concatenate([flat, flat[[0, 2, 2]]])
        idx = np.unravel_index(flat, dims)
        pts = (np.stack(idx, axis=1) - np.array(dims) // 2).astype(np.float64)
        op = _OneCoil(pts, dims)
        assert op.path == "fft"
        vols = np.stack([_random_volume(rng, dims) for _ in range(3)])
        assert np.array_equal(op.forward(vols), np.stack([centered_fft(v)[idx] for v in vols]))
        y = rng.standard_normal((3, len(pts))) + 1j * rng.standard_normal((3, len(pts)))
        want = []
        for b in range(3):
            grid = np.zeros(dims, dtype=np.complex128)
            np.add.at(grid, idx, y[b])
            want.append(centered_ifft(grid) * np.prod(dims))
        assert np.array_equal(op.adjoint(y), np.stack(want))

    def test_fast_path_matches_ndft(self):
        rng = np.random.default_rng(5)
        vol = _random_volume(rng, (4, 4, 4))
        pts = np.array([[0.0, 0.0, 0.0], [-2.0, 1.0, 0.0], [1.0, -1.0, 1.0]])
        np.testing.assert_allclose(_OneCoil(pts, (4, 4, 4)).forward(vol),
                                   _ndft_oracle(vol, pts),
                                   rtol=1e-10, atol=1e-10)

    def test_fft_path_construction_copies_no_points(self):
        """On-grid points are checked and indexed one axis at a time, so
        building the operator of a whole EPI plan's joined points holds
        the kept flat index and one axis's temporaries: about the points'
        own bytes (1.0x measured, 4.1x when all three axes were rounded,
        compared and indexed at once)."""
        dims = (24, 24, 24)
        pts = np.concatenate([s.points for s in gen_epi_3d(dims, _seq()).shots])
        assert NDFT(pts, dims).path == "fft"
        assert _peak_bytes(lambda: NDFT(pts, dims)) <= 1.5 * pts.nbytes

    def test_fft_forward_transforms_in_place(self):
        """Each coil image is transformed in place in its ifftshifted copy
        and gathered straight into the output: a one-coil forward of a
        whole grid holds the coil image, its copy and the samples, 3
        images (3.0 measured, 4.0 with an out-of-place fftn and a
        buffered gather)."""
        dims = (24, 24, 24)
        pts = np.concatenate([s.points for s in gen_epi_3d(dims, _seq()).shots])
        op, maps = NDFT(pts, dims), np.ones((1, *dims), dtype=np.complex128)
        x = np.random.default_rng(46).uniform(0, 1, dims)
        op.forward(x, maps)  # numpy's first FFT of a size allocates its plan
        assert _peak_bytes(lambda: op.forward(x, maps)) < 3.5 * maps.nbytes


class TestNdftChunked:
    """Point sets whose phase table exceeds PHASE_TABLE_LIMIT elements."""

    dims = (1, 64, 64)

    def _setup(self):
        rng = np.random.default_rng(17)
        pts = np.column_stack([np.zeros(1000), rng.uniform(-32, 31.9, (1000, 2))])
        assert len(pts) * self.dims[1] * self.dims[2] > PHASE_TABLE_LIMIT
        return rng, pts, _OneCoil(pts, self.dims)

    def test_rows_match_direct_sum(self):
        rng, pts, op = self._setup()
        vol = _random_volume(rng, self.dims)
        y = op.forward(vol)
        coords = [(np.arange(n) - n // 2) / n for n in self.dims]
        r = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
        # rows on both sides of the first chunk boundary and the last row
        step = PHASE_TABLE_LIMIT // (self.dims[1] * self.dims[2])
        for n in (0, step - 1, step, len(pts) - 1):
            direct = np.sum(vol * np.exp(-2j * np.pi * (r @ pts[n])))
            assert y[n] == pytest.approx(direct, rel=1e-10)

    def test_adjoint_identity(self):
        rng, pts, op = self._setup()
        vol = _random_volume(rng, self.dims)
        y = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
        lhs = np.vdot(y, op.forward(vol))
        rhs = np.vdot(op.adjoint(y), vol)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def _planes(rng, kz_values, n_per_plane, dims):
    """Off-grid (kx, ky) points on the given integer kz planes."""
    return np.concatenate([
        np.column_stack([rng.uniform(-dims[0] / 2, dims[0] / 2 - 0.1, n_per_plane),
                         rng.uniform(-dims[1] / 2, dims[1] / 2 - 0.1, n_per_plane),
                         np.full(n_per_plane, float(kz))])
        for kz in kz_values])


def _product(rng, kz_values, n, dims):
    """One set of n off-grid (kx, ky) points on every given integer kz
    plane, in its own order on each plane, the points shuffled: a
    Kronecker product of the planes and the set."""
    xy = _planes(rng, [0], n, dims)[:, :2]
    pts = np.concatenate([np.column_stack([xy[rng.permutation(n)], np.full(n, float(kz))])
                          for kz in kz_values])
    return pts[rng.permutation(len(pts))]


def _oracle_matrix(points, dims):
    """The brute-force (P, M) NDFT matrix E, one _ndft_oracle column per voxel."""
    m = int(np.prod(dims))
    return np.stack([_ndft_oracle(e.reshape(dims), points) for e in np.eye(m)], axis=1)


class TestNdftStack:
    """The stack-of-X path: every kz an integer, kx/ky anywhere."""

    dims = (4, 6, 4)

    def test_single_kz_shot(self):
        rng = np.random.default_rng(30)
        vol = _random_volume(rng, self.dims)
        pts = _planes(rng, [1], 12, self.dims)
        op = _OneCoil(pts, self.dims)
        assert op.path == "stack"
        np.testing.assert_allclose(op.forward(vol), _ndft_oracle(vol, pts), rtol=1e-10)

    def test_multi_kz_frame_off_grid_xy(self):
        rng = np.random.default_rng(31)
        vol = _random_volume(rng, self.dims)
        # shuffled planes, one out-of-range kz and one on-grid in-plane point
        pts = _product(rng, [0, -2, 1, 3], 5, self.dims)
        pts[pts[:, 0] == pts[0, 0], :2] = [1.0, -2.0]
        op = _OneCoil(pts, self.dims)
        assert op.path == "stack"
        np.testing.assert_allclose(op.forward(vol), _ndft_oracle(vol, pts), rtol=1e-10)

    def test_stack_is_detected_once(self, monkeypatch):
        """A stack NDFT keeps the grid of its one Kronecker-product test."""
        calls = []

        def counting(points):
            calls.append(len(points))
            return kronecker(points)

        kronecker = engine._kronecker
        monkeypatch.setattr(engine, "_kronecker", counting)
        pts = _product(np.random.default_rng(33), [-1, 0, 2], 5, self.dims)
        assert NDFT(pts, self.dims).path == "stack" and calls == [15]

    def test_one_non_integer_kz_takes_general_path(self):
        rng = np.random.default_rng(32)
        vol = _random_volume(rng, self.dims)
        pts = _planes(rng, [0, 1], 6, self.dims)
        pts[4, 2] = 0.5
        op = _OneCoil(pts, self.dims)
        assert op.path == "general"
        np.testing.assert_allclose(op.forward(vol), _ndft_oracle(vol, pts), rtol=1e-10)

    def test_product_table_limit_chunks(self, monkeypatch):
        # a product stack's combined (Q, Nx*Ny) table is rebuilt per call
        # in chunks of in-plane points when it passes the limit
        rng = np.random.default_rng(38)
        vol = _random_volume(rng, self.dims)
        y = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        pts = _product(rng, [0, -1, 1], 7, self.dims)
        whole = _OneCoil(pts, self.dims)
        monkeypatch.setattr("snakesim.engine.PHASE_TABLE_LIMIT", 10)
        op = _OneCoil(pts, self.dims)
        assert op.path == "stack" and len(whole._chunks) == 1
        assert op._chunks == [slice(q, q + 1) for q in range(7)]
        np.testing.assert_allclose(op.forward(vol), _ndft_oracle(vol, pts), rtol=1e-10)
        for got, want in ((op.forward(vol), whole.forward(vol)),
                          (op.adjoint(y), whole.adjoint(y))):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_adjoint_identity(self):
        rng = np.random.default_rng(34)
        vol = _random_volume(rng, self.dims)
        pts = _product(rng, [2, -1, 0], 6, self.dims)
        y = rng.standard_normal(18) + 1j * rng.standard_normal(18)
        op = _OneCoil(pts, self.dims)
        assert op.path == "stack"
        assert np.vdot(y, op.forward(vol)) == pytest.approx(np.vdot(op.adjoint(y), vol),
                                                           rel=1e-10)

    def _detection_points(self, case, rng):
        """The case's points, the path they take and, on the stack path,
        their (U, Q) grid size."""
        if case == "sorted":
            xy = _planes(rng, [0], 5, self.dims)[:, :2]
            pts = np.concatenate([np.column_stack([xy, np.full(5, float(kz))])
                                  for kz in (-1, 0, 2)])
            return pts, "stack", (3, 5)
        if case == "shuffled":
            return _product(rng, [-1, 0, 2], 5, self.dims), "stack", (3, 5)
        if case == "one-plane":
            return _planes(rng, [1], 7, self.dims), "stack", (1, 7)
        if case == "one-point":
            return _product(rng, [0, -1, 2, 1], 1, self.dims), "stack", (4, 1)
        if case == "signed-zero":
            # (0, 0.5) written as (-0.0, 0.5) on one plane and kz -0.0 for 0
            pts = _product(rng, [-1, 0, 2], 4, self.dims)
            pts[pts[:, 0] == pts[0, 0], :2] = [0.0, 0.5]
            pts[(pts[:, 0] == 0.0) & (pts[:, 2] == 2), 0] = -0.0
            pts[pts[:, 2] == 0, 2] = -0.0
            return pts, "stack", (3, 4)
        if case == "integer-xy":
            # every in-plane point on the grid, the planes out of its range
            xy = np.array([[-2.0, 1.0], [0.0, -3.0], [1.0, 2.0]])
            pts = np.concatenate([np.column_stack([xy, np.full(3, float(kz))])
                                  for kz in (-3, 2, 5)])
            return pts, "stack", (3, 3)
        if case == "on-grid":
            xy = np.array([[-2.0, 1.0], [0.0, -3.0], [1.0, 2.0]])
            pts = np.concatenate([np.column_stack([xy, np.full(3, float(kz))])
                                  for kz in (-2, 0, 1)])
            return pts, "fft", None
        pts = _product(rng, [-1, 0, 2], 5, self.dims)
        if case == "missing":
            return pts[1:], "general", None
        if case == "repeated":
            return np.concatenate([pts, pts[[4]]]), "general", None
        if case == "mixed":
            return np.concatenate([pts[pts[:, 2] != 2],
                                   _planes(rng, [2], 5, self.dims)]), "general", None
        if case == "rotated":
            return _rotated(rng, [-1, 0, 2], 5, self.dims), "general", None
        assert case == "non-integer-kz"
        pts[7, 2] += 0.25
        return pts, "general", None

    @pytest.mark.parametrize("case", ["sorted", "shuffled", "one-plane", "one-point",
                                      "signed-zero", "integer-xy", "on-grid", "missing",
                                      "repeated", "mixed", "rotated", "non-integer-kz"])
    def test_path_and_grid_of_integer_kz_sets(self, case):
        """A Kronecker product of U planes and Q in-plane points, each
        point once in any order, takes the stack path, with point j at
        entry flat[j] of the row-major (U, Q) grid and each entry held
        once; any other set takes the fft or general path. Every set's
        forward matches the brute-force sum."""
        rng = np.random.default_rng(42)
        pts, path, grid = self._detection_points(case, rng)
        op = _OneCoil(pts, self.dims)
        assert op.path == path
        if path == "stack":
            planes, xy, flat = engine._kronecker(pts)
            assert (len(planes), len(xy)) == grid
            q = len(xy)
            np.testing.assert_array_equal(planes[flat // q], pts[:, 2])
            np.testing.assert_array_equal(xy[flat % q], pts[:, 0] + 1j * pts[:, 1])
            np.testing.assert_array_equal(np.bincount(flat, minlength=grid[0] * q), 1)
        elif path == "general" and case != "non-integer-kz":
            assert engine._kronecker(pts) is None
        vol = _random_volume(rng, self.dims)
        np.testing.assert_allclose(op.forward(vol), _ndft_oracle(vol, pts), rtol=1e-10)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_point_order_permutes_samples_bit_for_bit(self, dtype):
        """Shuffling a product's points shuffles its forward samples the
        same way, and the adjoint of the shuffled samples is the same
        volume, bit for bit: the grid is in np.unique order whatever the
        points' order."""
        rng = np.random.default_rng(43)
        pts = _product(rng, [0, -1, 2], 6, self.dims)
        perm = rng.permutation(len(pts))
        op, shuffled = _OneCoil(pts, self.dims), _OneCoil(pts[perm], self.dims)
        assert op.path == shuffled.path == "stack"
        x = _random_volume(rng, (2, *self.dims)).astype(dtype)
        y = (rng.standard_normal((2, len(pts)))
             + 1j * rng.standard_normal((2, len(pts)))).astype(dtype)
        np.testing.assert_array_equal(shuffled.forward(x), op.forward(x)[:, perm])
        np.testing.assert_array_equal(shuffled.adjoint(y[:, perm]), op.adjoint(y))


def _rotated(rng, kz_values, n, dims):
    """One set of n off-grid (kx, ky) points, rotated by a different angle
    on each given integer kz plane: a stack that is no Kronecker product."""
    xy = _planes(rng, [0], n, dims)[:, :2]
    out = []
    for u, kz in enumerate(kz_values):
        c, s = np.cos(0.4 * u), np.sin(0.4 * u)
        out.append(np.column_stack([xy @ np.array([[c, s], [-s, c]]), np.full(n, float(kz))]))
    return np.concatenate(out)


class TestNdftStackOracle:
    """Integer-kz point sets against the brute-force matrix E: forward is
    E x and adjoint E^H y, in complex128 and in complex64. A Kronecker
    product takes the stack path; any other set the general path."""

    dims = (4, 6, 3)

    def _points(self, case, rng):
        """The case's points and the path they take."""
        if case == "mixed":
            # sets a, b, a on three planes
            a, b = _product(rng, [0], 6, self.dims), _product(rng, [0], 5, self.dims)
            pts = np.concatenate([a - [0, 0, 1], b, a + [0, 0, 1]])
            return pts[rng.permutation(len(pts))], "general"
        if case == "rotated":
            return _rotated(rng, [-1, 0, 2], 6, self.dims), "general"
        pts = _product(rng, [-1, 0, 2], 6, self.dims)
        if case == "repeated":
            return np.concatenate([pts, pts[[0, 3, 3]]]), "general"
        return pts, "stack"

    @pytest.mark.parametrize("case", ["product", "mixed", "rotated", "repeated", "chunked"])
    def test_matches_the_oracle_matrix(self, case, monkeypatch):
        """complex128 results lie within 1e-10 and complex64 results within
        4 float32 eps (at most 2.3 over seeds 40-49) of the peak of E x
        and E^H y; a repeated point's samples add up in the adjoint. The
        product's points are shuffled. A combined table past
        PHASE_TABLE_LIMIT, rebuilt per call in chunks of two in-plane
        points, gives the kept table's result within 1e-12."""
        rng = np.random.default_rng(40)
        pts, path = self._points(case, rng)
        whole = _OneCoil(pts, self.dims)
        if case == "chunked":
            # 6 in-plane points of 4*6 elements each: chunks of 2 points
            monkeypatch.setattr("snakesim.engine.PHASE_TABLE_LIMIT", 50)
        op = _OneCoil(pts, self.dims)
        assert op.path == path
        if path == "stack":
            assert len(op._chunks) == (3 if case == "chunked" else 1)
        matrix = _oracle_matrix(pts, self.dims)
        x = _random_volume(rng, (2, *self.dims))
        y = rng.standard_normal((2, len(pts))) + 1j * rng.standard_normal((2, len(pts)))
        for dtype, tol in ((np.complex128, 1e-10),
                           (np.complex64, 4 * np.finfo(np.float32).eps)):
            xd, yd = x.astype(dtype), y.astype(dtype)
            fwd, adj = op.forward(xd), op.adjoint(yd)
            assert fwd.dtype == dtype and adj.dtype == dtype
            want_fwd = xd.reshape(2, -1).astype(np.complex128) @ matrix.T
            want_adj = (yd.astype(np.complex128) @ matrix.conj()).reshape(adj.shape)
            assert np.abs(fwd - want_fwd).max() <= tol * np.abs(want_fwd).max()
            assert np.abs(adj - want_adj).max() <= tol * np.abs(want_adj).max()
        if case == "chunked":
            for got, want in ((op.forward(x), whole.forward(x)),
                              (op.adjoint(y), whole.adjoint(y))):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestNdftBatch:
    dims = (4, 6, 4)

    @pytest.mark.parametrize("path", ["fft", "stack", "stack-product", "stack-chunked",
                                      "general", "general-chunked"])
    def test_batch_equals_per_slice_loop(self, path, monkeypatch):
        rng = np.random.default_rng(35)
        if path == "general-chunked":
            # 100 elements of a (P, 6*4) table: chunks of 4 points
            monkeypatch.setattr("snakesim.engine.PHASE_TABLE_LIMIT", 100)
            path = "general"
        elif path == "stack-chunked":
            # 50 elements of a (Q, 4*6) table: chunks of 2, 2 and 1 points
            monkeypatch.setattr("snakesim.engine.PHASE_TABLE_LIMIT", 50)
        if path == "fft":
            pts = rng.integers(-2, 2, (15, 3)).astype(np.float64)
        elif path == "stack":
            # one plane of 15 points, as a once-only plane shot: U = 1
            pts = _planes(rng, [1], 15, self.dims)
        elif path.startswith("stack-"):
            pts, path = _product(rng, [0, 1, -2], 5, self.dims), "stack"
        else:
            pts = rng.uniform(-2, 1.9, (15, 3))
        op = _OneCoil(pts, self.dims)
        assert op.path == path
        x = _random_volume(rng, (2, 3, *self.dims))
        y = rng.standard_normal((2, 3, 15)) + 1j * rng.standard_normal((2, 3, 15))
        fwd, adj = op.forward(x), op.adjoint(y)
        assert fwd.shape == (2, 3, 15) and adj.shape == (2, 3, *self.dims)
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(fwd[i, j], op.forward(x[i, j]), rtol=1e-12)
                np.testing.assert_allclose(adj[i, j], op.adjoint(y[i, j]), rtol=1e-12)


class TestNdftPrecision:
    """The stack and general paths compute in their input's precision."""

    dims = (4, 6, 4)

    def _op(self, path, rng):
        if path == "stack":
            # one plane of 15 points, as a once-only plane shot: U = 1
            pts = _planes(rng, [1], 15, self.dims)
        elif path in ("stack-product", "stack-chunked"):
            pts = _product(rng, [0, 1, -2], 5, self.dims)
        else:
            pts = rng.uniform(-2, 1.9, (15, 3))
        op = _OneCoil(pts, self.dims)
        assert op.path == path.partition("-")[0]
        assert (len(op._chunks) > 1) == path.endswith("-chunked")
        return op

    @staticmethod
    def _limit(path, monkeypatch):
        if path == "general-chunked":
            # 100 elements of a (P, 6*4) table: chunks of 4 points
            monkeypatch.setattr("snakesim.engine.PHASE_TABLE_LIMIT", 100)
        elif path == "stack-chunked":
            # 50 elements of a (Q, 4*6) table: chunks of 2, 2 and 1 points
            monkeypatch.setattr("snakesim.engine.PHASE_TABLE_LIMIT", 50)

    @pytest.mark.parametrize("path", ["stack", "stack-product", "stack-chunked", "general"])
    def test_dtype_follows_the_input(self, path, monkeypatch):
        self._limit(path, monkeypatch)
        rng = np.random.default_rng(36)
        op = self._op(path, rng)
        x, y = _random_volume(rng, self.dims), rng.standard_normal(15) + 0j
        for dtype, want in ((np.complex64, np.complex64), (np.float32, np.complex64),
                            (np.complex128, np.complex128), (np.float64, np.complex128)):
            assert op.forward(x.real.astype(dtype)).dtype == want
            assert op.adjoint(y.real.astype(dtype)).dtype == want

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("path", ["stack", "stack-product", "stack-chunked", "general",
                                      "general-chunked"])
    def test_complex64_matches_complex128(self, path, seed, monkeypatch):
        """forward and adjoint of complex64 input lie within 4 float32 eps
        of the peak of the complex128 result on the same values (at most
        2.3e-7 over seeds 0-19), and the adjoint identity holds within one
        eps of ||y|| ||A x|| (at most 4.6e-8)."""
        self._limit(path, monkeypatch)
        rng = np.random.default_rng(seed)
        op = self._op(path, rng)
        x = _random_volume(rng, (3, *self.dims)).astype(np.complex64)
        y = (rng.standard_normal((3, 15)) + 1j * rng.standard_normal((3, 15))).astype(np.complex64)
        eps = np.finfo(np.float32).eps
        fwd, adj = op.forward(x), op.adjoint(y)
        for got, want in ((fwd, op.forward(x.astype(np.complex128))),
                          (adj, op.adjoint(y.astype(np.complex128)))):
            assert np.abs(got - want).max() <= 4 * eps * np.abs(want).max()
        lhs = np.vdot(y.astype(np.complex128), fwd.astype(np.complex128))
        rhs = np.vdot(adj.astype(np.complex128), x.astype(np.complex128))
        assert abs(lhs - rhs) <= eps * np.linalg.norm(y) * np.linalg.norm(fwd)

    @pytest.mark.parametrize("path", ["stack", "stack-product", "stack-chunked", "general"])
    def test_tables_only_in_the_precisions_used(self, path, monkeypatch):
        self._limit(path, monkeypatch)
        rng = np.random.default_rng(37)
        op = self._op(path, rng)
        op.adjoint(op.forward(_random_volume(rng, self.dims).astype(np.complex64)))
        assert list(op._tables) == [np.complex64]
        op.forward(_random_volume(rng, self.dims))
        assert sorted(map(str, op._tables)) == ["complex128", "complex64"]


def _unit_shot(points, t_obs=0.025):
    n = len(points)
    dt = t_obs / n
    times = (np.arange(n) - (n - 1) / 2) * dt
    return Shot(points=np.asarray(points, dtype=np.float64), times=times)


class TestAcquireBasic:
    def test_unit_sensitivity_reduces_to_ndft(self):
        rng = np.random.default_rng(6)
        mu = _random_volume(rng, (4, 4, 4))
        shot = _unit_shot(rng.uniform(-2, 1.9, (8, 3)))
        coils = CoilProfile(maps=np.ones((1, 4, 4, 4), dtype=np.complex128))
        y = acquire_shot_basic(mu, coils, shot)
        np.testing.assert_allclose(y[0], _ndft_oracle(mu, shot.points), rtol=1e-10)

    def test_linearity_in_sensitivity(self):
        rng = np.random.default_rng(7)
        mu = _random_volume(rng, (4, 4, 4))
        s1 = 0.3 * (rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4)))
        maps = np.stack([s1, 2 * s1]) / np.sqrt(5 * np.abs(s1).max() ** 2 + 1)
        coils = CoilProfile(maps=maps)
        shot = _unit_shot(rng.uniform(-2, 1.9, (8, 3)))
        y = acquire_shot_basic(mu, coils, shot)
        np.testing.assert_allclose(y[1], 2 * y[0], rtol=1e-12)

    def test_full_epi_frame_fft_round_trip(self):
        ph = synthetic_phantom((8, 8, 8), [((4.0, 4.0, 4.0), 2.5, 1)])
        seq = _seq()
        mu = contrast_volume(ph, gre_contrast(ph, seq))
        plan = gen_epi_3d((8, 8, 8), seq)
        coils = birdcage_coils((8, 8, 8), 1)
        grid = np.zeros((8, 8, 8), dtype=np.complex128)
        for shot in plan.frame(0):
            y = acquire_shot_basic(mu, coils, shot)[0]
            idx = (shot.points + 4).astype(int)
            grid[idx[:, 0], idx[:, 1], idx[:, 2]] = y
        recon = centered_ifft(grid)
        np.testing.assert_allclose(recon, mu, atol=1e-6 * np.abs(mu).max())

    def test_linearity_in_mu(self):
        rng = np.random.default_rng(8)
        mu = _random_volume(rng, (4, 4, 4))
        coils = birdcage_coils((4, 4, 4), 2)
        shot = _unit_shot(rng.uniform(-2, 1.9, (6, 3)))
        y1 = acquire_shot_basic(mu, coils, shot)
        y2 = acquire_shot_basic(2 * mu, coils, shot)
        np.testing.assert_allclose(y2, 2 * y1, rtol=1e-12)


class TestAcquireT2s:
    def _eq5_oracle(self, tissue_vols, t2s_s, coils, shot):
        """Independent brute-force evaluation: per tissue, per coil, per
        sample, explicit voxel sums with the echo-centered decay."""
        L = coils.n_coils
        out = np.zeros((L, shot.n_samples), dtype=np.complex128)
        dims = tissue_vols.shape[1:]
        for i, t2s in enumerate(t2s_s):
            for l in range(L):
                for n in range(shot.n_samples):
                    decay = np.exp(-shot.times[n] / t2s) if np.isfinite(t2s) else 1.0
                    k = shot.points[n]
                    acc = 0.0 + 0.0j
                    for ix in range(dims[0]):
                        for iy in range(dims[1]):
                            for iz in range(dims[2]):
                                r = np.array([(ix - dims[0] // 2) / dims[0],
                                              (iy - dims[1] // 2) / dims[1],
                                              (iz - dims[2] // 2) / dims[2]])
                                acc += (coils.maps[l][ix, iy, iz]
                                        * tissue_vols[i][ix, iy, iz]
                                        * np.exp(-2j * np.pi * np.dot(k, r)))
                    out[l, n] += decay * acc
        return out

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        tissue_vols = rng.uniform(0, 1, size=(2, 4, 4, 4)).astype(np.complex128)
        t2s_s = np.array([0.027, 0.028])
        coils = birdcage_coils((4, 4, 4), 2)
        shot = _unit_shot(rng.uniform(-2, 1.9, (8, 3)))
        y = acquire_shot_t2s(tissue_vols, t2s_s, coils, shot)
        oracle = self._eq5_oracle(tissue_vols, t2s_s, coils, shot)
        np.testing.assert_allclose(y, oracle, rtol=1e-9)

    def test_infinite_t2s_equals_basic(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            tissue_vols = rng.uniform(0, 1, size=(2, 4, 4, 4)).astype(np.complex128)
            coils = birdcage_coils((4, 4, 4), 2)
            shot = _unit_shot(rng.uniform(-2, 1.9, (5, 3)))
            y_ext = acquire_shot_t2s(tissue_vols, [np.inf, np.inf], coils, shot)
            y_basic = acquire_shot_basic(tissue_vols.sum(axis=0), coils, shot)
            np.testing.assert_allclose(y_ext, y_basic, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("path", ["fft", "stack", "general"])
    def test_one_tissue_of_infinite_t2s_is_basic_to_the_bit(self, path):
        """Both models take their samples from one function: the basic
        model is the t2s model on one tissue of infinite T2*."""
        rng = np.random.default_rng(37)
        dims = (4, 6, 4)
        if path == "fft":
            pts = rng.integers(-2, 2, (15, 3)).astype(np.float64)
        elif path == "stack":
            pts = _product(rng, [0, 1, -2], 5, dims)
        else:
            pts = rng.uniform(-2, 1.9, (15, 3))
        assert NDFT(pts, dims).path == path
        shot, coils = _unit_shot(pts), birdcage_coils(dims, 3)
        # a leading term axis, as run_acquisition passes its (B, D) pair
        v = _random_volume(rng, (2, *dims))
        assert np.array_equal(acquire_shot_t2s(v[None], [np.inf], coils, shot),
                              acquire_shot_basic(v, coils, shot))

    @pytest.mark.parametrize("path", ["fft", "stack", "general"])
    def test_samples_hold_one_volumes_coil_images(self, path):
        """The samples of a (B, D) term pair, as run_acquisition passes it,
        are made from one volume's coil images at a time: the peak stays
        below 0.9x the coil images of both (about 0.7x here, 1.2x when
        both were made at once). The 16 points keep the phase tables
        small beside the images."""
        rng = np.random.default_rng(45)
        dims = (16, 16, 16)
        if path == "fft":
            pts = rng.integers(-8, 8, (16, 3)).astype(np.float64)
        elif path == "stack":
            pts = _product(rng, [0, 1], 8, dims)
        else:
            pts = rng.uniform(-8, 7.9, (16, 3))
        assert NDFT(pts, dims).path == path
        shot, coils = _unit_shot(pts), birdcage_coils(dims, 8)
        terms = rng.uniform(0, 1, (1, 2, *dims))
        tracemalloc.start()
        try:
            engine._samples(terms, [np.inf], coils, shot.points, shot.times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.9 * terms.size * coils.n_coils * 16

    def test_echo_center_sample_matches_basic(self):
        rng = np.random.default_rng(11)
        vol = rng.uniform(0, 1, size=(1, 4, 4, 4)).astype(np.complex128)
        coils = birdcage_coils((4, 4, 4), 1)
        # single sample at t = 0 (echo center)
        shot = Shot(points=rng.uniform(-2, 1.9, (1, 3)), times=np.array([0.0]))
        y_ext = acquire_shot_t2s(vol, [0.020], coils, shot)
        y_basic = acquire_shot_basic(vol[0], coils, shot)
        np.testing.assert_allclose(y_ext, y_basic, rtol=1e-14)

    def test_tissue_count_mismatch(self):
        coils = birdcage_coils((4, 4, 4), 1)
        shot = _unit_shot(np.zeros((2, 3)))
        with pytest.raises(EngineError):
            acquire_shot_t2s(np.zeros((2, 4, 4, 4)), [0.02], coils, shot)

    def test_error_grows_with_t_obs(self):
        # fixed T2*: the two models diverge more as the readout lengthens
        rng = np.random.default_rng(12)
        vol = rng.uniform(0, 1, size=(1, 4, 4, 4)).astype(np.complex128)
        coils = birdcage_coils((4, 4, 4), 1)
        pts = rng.uniform(-2, 1.9, (16, 3))
        errs = []
        for t_obs in (0.005, 0.010, 0.020, 0.030):
            shot = _unit_shot(pts, t_obs=t_obs)
            y_ext = acquire_shot_t2s(vol, [0.028], coils, shot)
            y_basic = acquire_shot_basic(vol[0], coils, shot)
            errs.append(np.linalg.norm(y_ext - y_basic) / np.linalg.norm(y_basic))
        assert np.all(np.diff(errs) > 0)


class TestParseval:
    def test_fft_fast_path_energy(self):
        rng = np.random.default_rng(13)
        vol = _random_volume(rng, (8, 8, 8))
        plan = gen_epi_3d((8, 8, 8), _seq())
        coils = birdcage_coils((8, 8, 8), 1)
        total = 0.0
        for shot in plan.frame(0):
            y = acquire_shot_basic(vol, coils, shot)[0]
            total += np.sum(np.abs(y) ** 2)
        assert total / 512 == pytest.approx(float(np.sum(np.abs(vol) ** 2)),
                                            rel=1e-9)


class TestEnergy:
    def test_unit(self):
        assert phantom_energy(np.ones((3, 3, 3))) == 1.0

    def test_zero(self):
        assert phantom_energy(np.zeros((3, 3, 3))) == 0.0

    def test_direct_sum_oracle(self):
        rng = np.random.default_rng(14)
        vol = _random_volume(rng, (4, 4, 4))
        acc = 0.0
        for v in vol.ravel():
            acc += abs(v) ** 2
        assert phantom_energy(vol) == pytest.approx(acc / vol.size, rel=1e-12)


class TestNoise:
    def test_inf_snr_identity(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal((2, 10)) + 1j * rng.standard_normal((2, 10))
        out = add_noise(y, NoiseConfig(snr_i=np.inf), energy=1.0)
        np.testing.assert_array_equal(out, y)

    def test_variance_calibration(self):
        n = 100_000
        y = np.zeros((1, n), dtype=np.complex128)
        out = add_noise(y, NoiseConfig(snr_i=1000.0, seed=0), energy=2.0)
        var = np.mean(np.abs(out) ** 2)
        assert var == pytest.approx(2.0 / 1000.0, rel=0.05)

    def test_cross_covariance(self):
        n = 100_000
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        y = np.zeros((2, n), dtype=np.complex128)
        out = add_noise(y, NoiseConfig(snr_i=1.0, sigma=sigma, seed=1), energy=1.0)
        cross = np.mean(out[0] * np.conj(out[1])).real
        assert cross == pytest.approx(0.5, rel=0.05)

    def test_seeded_determinism(self):
        y = np.zeros((2, 64), dtype=np.complex128)
        a = add_noise(y, NoiseConfig(snr_i=10.0, seed=5), energy=1.0, shot_index=3)
        b = add_noise(y, NoiseConfig(snr_i=10.0, seed=5), energy=1.0, shot_index=3)
        np.testing.assert_array_equal(a, b)

    def test_shot_streams_decorrelated(self):
        n = 20_000
        y = np.zeros((1, n), dtype=np.complex128)
        a = add_noise(y, NoiseConfig(snr_i=1.0, seed=5), energy=1.0, shot_index=0)
        b = add_noise(y, NoiseConfig(snr_i=1.0, seed=5), energy=1.0, shot_index=1)
        corr = np.mean(a * np.conj(b)) / np.mean(np.abs(a) ** 2)
        assert abs(corr) < 3 / np.sqrt(n)

    @pytest.mark.parametrize("sigma", ["white", "psd3"])
    def test_matches_per_shot_factor_loop(self, sigma):
        """add_noise equals, bit for bit, a loop that factors sigma per call
        and draws the real and imaginary parts separately."""
        rng = np.random.default_rng(16)
        n_coils = 3
        if sigma == "white":
            sigma = None
        else:
            a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            sigma = a @ a.conj().T  # rank 2: one zero eigenvalue is clipped
        noise = NoiseConfig(snr_i=50.0, sigma=sigma, seed=11)
        y = rng.standard_normal((n_coils, 37)) + 1j * rng.standard_normal((n_coils, 37))

        def reference(samples, shot_index):
            if sigma is None:
                chol = np.eye(n_coils)
            else:
                eigs, vecs = np.linalg.eigh(np.asarray(sigma, dtype=np.complex128))
                chol = vecs @ np.diag(np.sqrt(np.clip(eigs, 0, None)))
            white = np.empty(samples.shape, dtype=np.complex128)
            for l in range(n_coils):
                r = np.random.default_rng(np.random.SeedSequence((11, shot_index, l)))
                white[l] = r.standard_normal(37) + 1j * r.standard_normal(37)
            return samples + np.sqrt(0.7 / 50.0 / 2.0) * (chol @ white)

        for shot_index in (0, 5):
            assert np.array_equal(add_noise(y, noise, 0.7, shot_index=shot_index),
                                  reference(y, shot_index))

    def test_non_psd_sigma_rejected(self):
        with pytest.raises(EngineError):
            NoiseConfig(snr_i=10.0, sigma=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(EngineError):
            NoiseConfig(snr_i=10.0, sigma=np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestBirdcage:
    def test_single_coil_unit(self):
        coils = birdcage_coils((6, 6, 6), 1)
        np.testing.assert_array_equal(coils.maps, np.ones((1, 6, 6, 6)))

    def test_rss_bounded(self):
        coils = birdcage_coils((8, 8, 8), 8)
        rss = np.sqrt((np.abs(coils.maps) ** 2).sum(axis=0))
        assert rss.max() <= 1 + 1e-9
        assert rss.min() > 0

    def test_smoothness(self):
        coils = birdcage_coils((8, 8, 8), 8)
        for l in range(8):
            for axis in range(3):
                grad = np.abs(np.diff(coils.maps[l], axis=axis))
                assert grad.max() < 0.5


class TestRunAcquisition:
    def _setup(self, dims=(8, 8, 8)):
        ph = synthetic_phantom(dims, [((4.0, 4.0, 4.0), 2.5, 1)])
        seq = _seq()
        plan = gen_epi_3d(dims, seq, n_frames=3)
        coils = birdcage_coils(dims, 1)
        return ph, seq, plan, coils

    def test_time_invariant_without_bold(self):
        ph, seq, plan, coils = self._setup()
        header, frames = run_acquisition(ph, plan, coils, seq, model="basic")
        np.testing.assert_array_equal(frames[0], frames[1])
        np.testing.assert_array_equal(frames[0], frames[2])

    def test_frame_ifft_matches_modulated_phantom(self):
        ph, seq, plan, coils = self._setup()
        roi = (ph.weights[1] >= 0.5).astype(np.float64)
        # piecewise-constant response per frame so frames are consistent
        h = np.repeat([0.0, 1.0, 0.5], plan.shots_per_frame)
        bold = BoldSpec(roi=roi, delta_r2s=-1.0, h_tilde=h)
        header, frames = run_acquisition(ph, plan, coils, seq, bold=bold,
                                         model="basic", gm_index=1)
        mu = gre_contrast(ph, seq)
        for t in range(3):
            grid = np.zeros((8, 8, 8), dtype=np.complex128)
            idx = (np.concatenate([shot.points for shot in plan.frame(t)]) + 4).astype(int)
            grid[idx[:, 0], idx[:, 1], idx[:, 2]] = frames[t, 0]
            recon = centered_ifft(grid)
            expected = modulated_state(ph, mu, bold, seq.te,
                                       t * plan.shots_per_frame,
                                       gm_index=1).sum(axis=0)
            np.testing.assert_allclose(recon, expected,
                                       atol=2e-6 * np.abs(expected).max())

    def test_dataset_bit_identical_across_runs(self, tmp_path):
        ph, seq, plan, coils = self._setup()
        noise = NoiseConfig(snr_i=100.0, seed=42)
        a, b = tmp_path / "a.snkd", tmp_path / "b.snkd"
        run_acquisition(ph, plan, coils, seq, noise=noise, sink_path=a)
        run_acquisition(ph, plan, coils, seq, noise=noise, sink_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_t2s_model_runs(self):
        ph, seq, plan, coils = self._setup()
        header, frames = run_acquisition(ph, plan, coils, seq, model="t2s")
        assert header["model"] == "t2s"
        assert np.all(np.isfinite(frames[0, 0, :plan.shots[0].n_samples]))


def _off_grid_plan(dims, seq):
    """External plan over 3 frames of 2 shots with off-grid 3D points:
    Shot A in every frame, B in frames 0 and 2, C once in frame 1."""
    rng = np.random.default_rng(21)
    half = np.array(dims) / 2
    times = (np.arange(12) - 5.5) * seq.t_obs_s / 12
    a, b, c = (Shot(points=rng.uniform(-half, half - 0.5, (12, 3)), times=times)
               for _ in range(3))
    return SamplingPlan(shots=(a, b, a, c, a, b), shots_per_frame=2, tr_shot=seq.tr_shot_s,
                        kind="external", dims=tuple(dims))


def _plan(kind, dims, seq):
    spiral = gen_spiral(dims[:2], 20, n_turns=2.0)
    if kind == "epi":
        return gen_epi_3d(dims, seq, n_frames=3)
    if kind in ("sos_static", "sos_dynamic"):
        return gen_stack_of_spirals(spiral, af=2.0, dynamic=kind == "sos_dynamic",
                                    n_frames=3, seed=4, tr_shot_s=seq.tr_shot_s,
                                    t_obs_s=seq.t_obs_s, dims=dims)
    return _off_grid_plan(dims, seq)


PLAN_PATHS = {"epi": "fft", "sos_static": "stack", "sos_dynamic": "stack",
              "external": "general"}


def _bold_phantom(dims, plan):
    """WM ball around a GM sphere, the GM weights as ROI, and a response
    that changes every shot."""
    tissues = default_tissues(("WM", "GM"))
    center = tuple(d / 2 for d in dims)
    gm = synthetic_phantom(dims, [(center, 1.5, 1)], tissues=tissues).weights[1]
    wm = synthetic_phantom(dims, [(center, 3.0, 0)], tissues=tissues).weights[0]
    ph = Phantom(dims=tuple(dims), voxel_size=(1.0, 1.0, 1.0), tissues=tuple(tissues),
                 weights=np.stack([np.clip(wm - gm, 0, 1), gm]))
    h = np.random.default_rng(22).uniform(0, 1, len(plan.shots))
    return ph, BoldSpec(roi=gm, delta_r2s=-2.0, h_tilde=h / h.max())


def _pattern_counts(plan):
    counts = Counter(plan.shots)
    return sum(c > 1 for c in counts.values()), sum(c == 1 for c in counts.values())


class TestAffineAcquisition:
    """run_acquisition's affine terms and pattern memo against per-shot
    modulated_state volumes fed to the shot functions."""

    dims = (6, 6, 8)

    @pytest.mark.parametrize("gm_index", [1, None])
    @pytest.mark.parametrize("model", ["basic", "t2s"])
    @pytest.mark.parametrize("kind", list(PLAN_PATHS))
    def test_matches_per_shot_modulated_state(self, kind, model, gm_index):
        seq = _seq()
        plan = _plan(kind, self.dims, seq)
        assert NDFT(plan.shots[0].points, self.dims).path == PLAN_PATHS[kind]
        repeated, once = _pattern_counts(plan)
        assert repeated > 0 and (once > 0) == (kind in ("sos_dynamic", "external"))
        ph, bold = _bold_phantom(self.dims, plan)
        coils = birdcage_coils(self.dims, 2)
        _, frames = run_acquisition(ph, plan, coils, seq, bold=bold, model=model,
                                    gm_index=gm_index)
        mu = gre_contrast(ph, seq)
        t2s_s = [t.t2_star * 1e-3 for t in ph.tissues]
        for s, shot in enumerate(plan.shots):
            vols = modulated_state(ph, mu, bold, seq.te, s, gm_index=gm_index)
            if model == "basic":
                want = acquire_shot_basic(vols.sum(axis=0), coils, shot)
            else:
                want = acquire_shot_t2s(vols, t2s_s, coils, shot)
            t, i = divmod(s, plan.shots_per_frame)
            lo = sum(x.n_samples for x in plan.frame(t)[:i])
            got = frames[t, :, lo:lo + shot.n_samples]
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("model", ["basic", "t2s"])
    @pytest.mark.parametrize("kind", ["epi22", "sos_static", "sos_dynamic", "external"])
    def test_one_call_per_shot_one_transform_per_pattern(self, kind, model, monkeypatch,
                                                         tmp_path):
        """Shot calls = plan shots, all to acquire_shot_t2s (the basic model
        is its one tissue of infinite T2*), appends = shots x coils, NDFT
        builds = one for the repeated patterns (they are transformed
        together before the first frame) + one per once-only shot."""
        seq = _seq()
        dims = (6, 6, 22) if kind == "epi22" else self.dims
        plan = gen_epi_3d(dims, seq, n_frames=3) if kind == "epi22" else _plan(kind, dims, seq)
        ph, bold = _bold_phantom(dims, plan)
        coils = birdcage_coils(dims, 2)
        repeated, once = _pattern_counts(plan)
        calls = {"shot": 0, "append": 0, "ndft": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        class CountingNDFT(NDFT):
            def __init__(self, *args, **kwargs):
                calls["ndft"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "acquire_shot_t2s",
                            counting("shot", engine.acquire_shot_t2s))
        monkeypatch.setattr(DatasetWriter, "append", counting("append", DatasetWriter.append))
        monkeypatch.setattr(engine, "NDFT", CountingNDFT)
        run_acquisition(ph, plan, coils, seq, bold=bold, model=model, gm_index=1,
                        sink_path=tmp_path / "run.snkd")
        assert calls["shot"] == len(plan.shots)
        assert calls["append"] == len(plan.shots) * coils.n_coils
        assert calls["ndft"] == (repeated > 0) + once
        if kind == "epi22":
            assert (repeated, once) == (22, 0)

    def test_patterns_of_two_paths_share_one_transform(self, monkeypatch):
        """An external plan that repeats an on-grid and an off-grid pattern
        has both transformed by one general-path NDFT on their joined
        points, and each memo view equals its pattern's own transform
        (the on-grid one by the FFT path)."""
        seq = _seq()
        rng = np.random.default_rng(25)
        dims, half = self.dims, np.array(self.dims) // 2
        times = (np.arange(12) - 5.5) * seq.t_obs_s / 12
        grid = Shot(points=rng.integers(-half, np.array(dims) - half, (12, 3)).astype(float),
                    times=times)
        off = Shot(points=rng.uniform(-half, half - 0.5, (12, 3)), times=times)
        plan = SamplingPlan(shots=(grid, off, off, grid), shots_per_frame=2,
                            tr_shot=seq.tr_shot_s, kind="external", dims=dims)
        assert [NDFT(s.points, dims).path for s in (grid, off)] == ["fft", "general"]
        # two tissues of finite T2*, each with a base and a delta term
        vols = _random_volume(rng, (2, 2, *dims))
        t2s_s = [0.03, 0.05]
        coils = birdcage_coils(dims, 2)
        paths = []

        class Spy(NDFT):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                paths.append(self.path)

        monkeypatch.setattr(engine, "NDFT", Spy)
        patterns = [shot for shot, n in Counter(plan.shots).items() if n > 1]
        memo = engine._transform_patterns(patterns, vols, t2s_s, coils)
        assert paths == ["general"] and list(memo) == [grid, off]
        for shot in patterns:
            want = engine._samples(vols, t2s_s, coils, shot.points, shot.times)
            assert not memo[shot].flags.writeable
            np.testing.assert_allclose(memo[shot], want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
        assert paths == ["general", "fft", "general"]

    def test_loaded_plan_repeats_the_saved_plans_shots(self, tmp_path):
        """A 3-frame EPI plan saved to SNKT1 loads as its 22 plane Shots
        repeated, and acquires the same k-space as the plan it came from."""
        seq, dims = _seq(), (6, 6, 22)
        plan = gen_epi_3d(dims, seq, n_frames=3)
        path = tmp_path / "epi.snkt"
        save_trajectory_file(path, plan, dwell_time_us=10.0)
        back = load_trajectory_file(path, dims, shots_per_frame=22, n_frames=3)
        assert len(back.shots) == 66 and len(set(back.shots)) == 22
        ph, bold = _bold_phantom(dims, plan)
        coils = birdcage_coils(dims, 2)
        kw = dict(bold=bold, model="basic", noise=NoiseConfig(snr_i=100.0, seed=3),
                  gm_index=1)
        _, want = run_acquisition(ph, plan, coils, seq, **kw)
        _, got = run_acquisition(ph, back, coils, seq, **kw)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("model", ["basic", "t2s"])
    @pytest.mark.parametrize("kind", list(PLAN_PATHS))
    def test_dense_round_trip(self, kind, model, tmp_path):
        """Without a sink the run returns one (T, L, P) complex128 array;
        with one it returns a reader of the sink, whose frames are that
        array's quantized to complex64."""
        seq = _seq()
        plan = _plan(kind, self.dims, seq)
        ph, bold = _bold_phantom(self.dims, plan)
        coils = birdcage_coils(self.dims, 2)
        args = (ph, plan, coils, seq)
        kw = dict(bold=bold, model=model, noise=NoiseConfig(snr_i=100.0, seed=3),
                  gm_index=1)
        header, kdata = run_acquisition(*args, **kw)
        n_samples = sum(s.n_samples for s in plan.frame(0))
        assert kdata.shape == (plan.n_frames, 2, n_samples)
        assert kdata.dtype == np.complex128 and kdata.flags.c_contiguous
        sink = tmp_path / "run.snkd"
        sink_header, mapped = run_acquisition(*args, **kw, sink_path=sink)
        back_header, back = read_dataset(sink)
        assert sink_header == back_header == header
        assert not isinstance(mapped, np.ndarray)
        assert mapped.shape == kdata.shape and mapped.dtype == np.complex64
        assert np.array_equal(mapped, back)
        assert np.array_equal(mapped, kdata.astype(np.complex64))
        for t in range(plan.n_frames):
            assert np.array_equal(mapped[t], kdata[t].astype(np.complex64))

    def test_sink_run_holds_no_run_sized_array(self, tmp_path):
        """With a sink the run holds one frame, not the (T, L, P) complex128
        array, which dominates this plan's memory without one."""
        dims, seq = (6, 6, 8), _seq()
        plan = gen_epi_3d(dims, seq, n_frames=120)
        ph, bold = _bold_phantom(dims, plan)
        coils = birdcage_coils(dims, 2)
        n_samples = sum(s.n_samples for s in plan.frame(0))
        run_bytes = plan.n_frames * coils.n_coils * n_samples * 16

        def peak(**kw):
            tracemalloc.start()
            try:
                run_acquisition(ph, plan, coils, seq, bold=bold, gm_index=1, **kw)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() >= run_bytes
        assert peak(sink_path=tmp_path / "run.snkd") < run_bytes / 4

    @pytest.mark.parametrize("model", ["basic", "t2s"])
    def test_run_holds_no_copy_of_the_terms(self, model):
        """Each tissue's base and BOLD delta are formed in their slots of
        the (T, 2, *dims) terms, so no base, delta or stacked copy of them
        sits beside the terms: the run's peak is the terms and one
        volume's coil images (1.3-1.6x the terms measured, 2.7-3.0x with
        the copies). Every shot repeats, so no shot forms its own state,
        and the few off-grid points keep the phase tables small."""
        dims, seq = (96, 16, 16), _seq()
        rng = np.random.default_rng(23)
        a, b = (_unit_shot(rng.uniform(-8, 7.5, (12, 3))) for _ in range(2))
        plan = SamplingPlan(shots=(a, b, a, b), shots_per_frame=2, tr_shot=seq.tr_shot_s,
                            kind="external", dims=dims)
        weights = rng.uniform(0, 1 / 3, (3, *dims))
        ph = Phantom(dims=dims, voxel_size=(1.0, 1.0, 1.0), tissues=tuple(default_tissues()),
                     weights=weights)
        bold = BoldSpec(roi=weights[1], delta_r2s=-2.0, h_tilde=np.array([0.2, 1.0, 0.5, 0.7]))
        coils = birdcage_coils(dims, 1)
        terms_bytes = ph.n_tissues * 2 * weights.nbytes // 3
        assert _peak_bytes(lambda: run_acquisition(
            ph, plan, coils, seq, bold=bold, model=model)) < 2 * terms_bytes

    @pytest.mark.parametrize("model", ["basic", "t2s"])
    @pytest.mark.parametrize("kind", list(PLAN_PATHS))
    def test_runs_on_the_calling_thread(self, kind, model, monkeypatch, tmp_path):
        """No plan starts a thread, not even the dynamic and external ones,
        whose once-only shots are each transformed on their own; the run
        takes no worker count."""
        seq = _seq()
        plan = _plan(kind, self.dims, seq)
        assert (_pattern_counts(plan)[1] > 0) == (kind in ("sos_dynamic", "external"))
        ph, bold = _bold_phantom(self.dims, plan)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        run_acquisition(ph, plan, birdcage_coils(self.dims, 2), seq, bold=bold,
                        model=model, noise=NoiseConfig(snr_i=100.0, seed=5), gm_index=1,
                        sink_path=tmp_path / "run.snkd")
        assert started == []
        assert "n_jobs" not in inspect.signature(run_acquisition).parameters

    def test_ragged_plan_rejected_before_sink(self, tmp_path):
        """A frame whose per-shot sample counts differ from frame 0's
        cannot share the dataset's (T, L, P) layout."""
        seq = _seq()
        rng = np.random.default_rng(23)
        shots = tuple(Shot(points=rng.uniform(-2, 1.9, (n, 3)),
                           times=(np.arange(n) - n / 2) * 1e-4)
                      for n in [12, 10])
        plan = SamplingPlan(shots=shots, shots_per_frame=1, tr_shot=seq.tr_shot_s,
                            kind="external", dims=self.dims)
        ph, bold = _bold_phantom(self.dims, plan)
        sink = tmp_path / "run.snkd"
        with pytest.raises(EngineError, match="frame 1"):
            run_acquisition(ph, plan, birdcage_coils(self.dims, 2), seq, bold=bold,
                            gm_index=1, sink_path=sink)
        assert not sink.exists()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_bad_noise_seed_rejected_before_sink(self, seed, tmp_path):
        """A noise seed that is not a non-negative integer is refused when
        the NoiseConfig is made, so no run opens its sink; numpy integers
        are seeds too."""
        seq = _seq()
        plan = gen_epi_3d(self.dims, seq, n_frames=2)
        ph, bold = _bold_phantom(self.dims, plan)
        sink = tmp_path / "run.snkd"
        with pytest.raises(EngineError, match="seed must be a non-negative integer"):
            run_acquisition(ph, plan, birdcage_coils(self.dims, 2), seq, bold=bold, gm_index=1,
                            noise=NoiseConfig(snr_i=10.0, seed=seed), sink_path=sink)
        assert list(tmp_path.iterdir()) == []
        assert NoiseConfig(snr_i=10.0, seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("bad", ["h_short", "roi_shape", "gm_index_high",
                                     "gm_index_negative", "plan_dims", "coil_dims",
                                     "covariance_shape"])
    def test_bad_inputs_rejected_before_sink(self, bad, tmp_path):
        seq = _seq()
        plan = gen_epi_3d(self.dims, seq, n_frames=2)
        ph, bold = _bold_phantom(self.dims, plan)
        coils = birdcage_coils(self.dims, 2)
        gm_index, noise, match = 1, None, None
        if bad == "covariance_shape":
            noise, match = NoiseConfig(snr_i=50.0, sigma=np.eye(3)), r"\(3, 3\).*\(2, 2\)"
        elif bad == "h_short":
            bold = BoldSpec(roi=bold.roi, delta_r2s=-2.0, h_tilde=bold.h_tilde[:-1])
        elif bad == "roi_shape":
            bold = BoldSpec(roi=bold.roi[:-1], delta_r2s=-2.0, h_tilde=bold.h_tilde)
        elif bad == "gm_index_high":
            gm_index = 2
        elif bad == "gm_index_negative":
            gm_index = -1
        elif bad == "plan_dims":
            plan = gen_epi_3d((6, 6, 6), seq, n_frames=2)
            bold = BoldSpec(roi=bold.roi, delta_r2s=-2.0,
                            h_tilde=np.ones(len(plan.shots)))
        else:
            coils = birdcage_coils((6, 6, 7), 2)
        sink = tmp_path / "run.snkd"
        with pytest.raises(EngineError, match=match):
            run_acquisition(ph, plan, coils, seq, bold=bold, gm_index=gm_index,
                            noise=noise, sink_path=sink)
        assert list(tmp_path.iterdir()) == []
