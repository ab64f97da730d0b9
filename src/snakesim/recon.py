"""Frame-wise image reconstruction.

Two routes are provided: a density-compensated adjoint (normalized so
that a fully sampled Cartesian single-coil frame reduces to the inverse
FFT), and sparsity-regularized compressed sensing solved with POGM. The
per-frame regularization level can be estimated from the current image
with the SURE threshold rule, and frame series can be solved with cold,
warm or refined initialization strategies.

The frame operator used inside the solver wraps the engine's
:class:`~snakesim.engine.NDFT` (the same operator that produced the
data) with the coil maps and a unitary scale: forward is NDFT / sqrt(M)
and the k-space data is divided by sqrt(M) on entry, so in the fully
sampled orthonormal case the least-squares solution is the inverse FFT
of the raw data. The NDFT runs all coils in one call on one of three
exact paths, one formula each, chosen from the frame's points: the FFT
for Cartesian frames (every point on the grid), a Kronecker product of
a z table and one in-plane table for stack-of-spirals frames (one
in-plane point set on each of their integer kz planes), and separable
phase tables for any other 3D trajectory.

A frame's input is the pair (y, operator): y = kdata[t], the frame's
(L, P) block of the run's (n_frames, n_coils, P) k-space array, and the
:class:`FrameOperator` of the frame's shots. Both routes reject y unless
its shape is (operator.n_coils, len(operator.points)).

Both routes compute in the precision of their data: a complex64 frame,
as a dataset file holds it, gives a complex64 volume, whose magnitude
is the float32 array a frame file stores; complex128 data gives a
complex128 volume. Every NDFT path, the coil products, the CS iterates,
the Lipschitz estimate and the wavelet coefficients run in that
precision (a series rounds the coil maps once); the CS objective and
its stopping test sum in float64, and a pipeline run's ``tol`` is held
at or above :data:`COMPLEX64_TOL_FLOOR`.

The solver reuses each objective evaluation's residual for the next
gradient, so an iteration costs one op and one adj_op. It also takes
the objective's l1 term from the thresholded coefficients of the prox:
the wavelet basis is orthonormal, so they are the coefficients of the
new iterate, and an iteration costs one wavelet forward and one inverse
transform. A series builds one operator per run of consecutive frames
that are the same Shot objects, and estimates the Lipschitz constant
once per distinct frame: once for a static plan, once per frame for a
dynamic one, also when refined solves each frame twice.

:func:`adjoint_series` yields each frame's adjoint and
:func:`reconstruct_series` each frame's CS solve, one frame at a time:
a frame's data is read only when that frame is solved, so a dataset
read from its file is never loaded whole. Frames whose solve depends on
no other frame (every adjoint frame, every cold frame and the second
pass of refined) run on a pool of ``n_jobs`` threads, at most that many
frames ahead of the consumer and yielded in frame order; warm frames
run in order on the calling thread. Pool threads only solve: operators
are built, and each distinct frame's Lipschitz bound estimated once, on
the calling thread, so the results do not depend on the worker count.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .engine import NDFT, CoilProfile
from .wavelets import WaveletBasis, finest_detail, soft_threshold


class ReconError(ValueError):
    pass


# The smallest relative objective change that a complex64 solve resolves,
# the floor of a pipeline run's ``tol`` (a dataset file holds complex64).
# On the three SoS benchmark configs at seed 1234, solved for 1000
# iterations, the complex64 relative change missed the complex128 one at
# the same iterate by up to 6.8e-8, 7.7e-7 and 3.2e-7 wherever the latter
# was below 1e-5: the residual op(x) - y cancels, and its complex64
# rounding is about eps * |y| per sample.
COMPLEX64_TOL_FLOOR = 1e-6


@dataclass
class ReconConfig:
    strategy: str = "cold"            # cold | warm | refined
    max_iters: int = 100
    tol: float = 1e-6                 # relative objective change
    mu_mode: str = "sure"             # "sure" or "fixed"
    mu_value: float = 0.0             # used when mu_mode == "fixed"

    def __post_init__(self):
        if self.strategy not in ("cold", "warm", "refined"):
            raise ReconError(f"unknown strategy {self.strategy!r}")
        if self.max_iters < 1 or self.tol <= 0:
            raise ReconError("max_iters >= 1 and tol > 0 required")
        if self.mu_mode not in ("sure", "fixed"):
            raise ReconError(f"unknown mu_mode {self.mu_mode!r}")


@dataclass
class FrameEstimate:
    volume: np.ndarray
    objective_trace: list
    mu_used: float
    n_iters: int | None = None      # POGM iterations run; None for the adjoint
    converged: bool | None = None   # stopped because the relative change fell below tol


# ---------------------------------------------------------------------------
# Frame operator


class FrameOperator:
    """Unitary-scaled multi-coil Fourier operator for one frame.

    op(x)[l] = NDFT(S_l * x) / sqrt(M); adj_op is its exact adjoint. Both
    compute in the precision of their input, as the NDFT does: complex64
    for complex64 (or float32) input, complex128 for any other, with the
    coil maps rounded to it if they are complex128. The Lipschitz
    estimate runs in the precision of the coil maps.
    """

    def __init__(self, frame_shots, dims, coils: CoilProfile):
        # the (P, 3) k-points of the frame's shots, in acquisition order
        self.points = np.concatenate([np.atleast_2d(s.points) for s in frame_shots])
        self.dims = tuple(dims)
        self.coils = coils
        # a Python float scales in the precision of the array it scales
        self._scale = float(1.0 / np.sqrt(np.prod(dims)))
        self._ndft = NDFT(self.points, self.dims)

    @property
    def n_coils(self):
        return self.coils.n_coils

    def op(self, x):
        x = np.asarray(x)
        coil_images = np.multiply(self.coils.maps, x,
                                  dtype=np.result_type(x.dtype, np.complex64))
        return self._ndft.forward(coil_images) * self._scale

    def adj_op(self, y):
        back = self._ndft.adjoint(y)
        # sum_l conj(S_l) back_l as conj(sum_l S_l conj(back_l)), in place
        # and in back's precision, so no conjugated copy of the maps is made
        np.conj(back, out=back)
        np.multiply(back, self.coils.maps, out=back, dtype=back.dtype)
        out = back.sum(axis=0)
        np.conj(out, out=out)
        out *= self._scale
        return out

    def lipschitz(self, n_iters=20, safety=1.05, seed=1234):
        """Spectral norm of A^H A by power iteration (with safety margin),
        in the precision of the coil maps."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(self.dims) + 1j * rng.standard_normal(self.dims)
        x = x.astype(np.result_type(self.coils.maps, np.complex64), copy=False)
        x /= np.linalg.norm(x)
        value = 1.0
        for _ in range(n_iters):
            x = self.adj_op(self.op(x))
            value = np.linalg.norm(x)
            if value == 0:
                return safety
            x /= value
        return float(value) * safety

    @functools.cached_property
    def lipschitz_bound(self):
        """:meth:`lipschitz` at its defaults, estimated on first use unless set."""
        return self.lipschitz()


def _frame_data(y, operator: FrameOperator):
    """y as a complex array in its precision (complex64 for complex64 or
    float32 data, complex128 for any other), if it holds one sample per
    coil and operator point."""
    y = np.asarray(y)
    y = y.astype(np.result_type(y.dtype, np.complex64), copy=False)
    want = (operator.n_coils, len(operator.points))
    if y.shape != want:
        raise ReconError(f"k-space data of shape {y.shape} for an operator of "
                         f"{want[0]} coils and {want[1]} points")
    return y


def radial_density_weights(points):
    """Density-compensation weights w_n ~ |k_n|^(d-1), normalized to sum N.

    The DC sample inherits the mean of its neighbors' weights so it is
    not zeroed out.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(points) == 0:
        raise ReconError("no points")
    if len(points) == 1:
        return np.ones(1)
    radii = np.linalg.norm(points, axis=1)
    # readout dimensionality: count axes with any spread
    d = int(np.sum(np.ptp(points, axis=0) > 1e-12)) or 1
    w = radii ** (d - 1)
    dc = w == 0
    if dc.any():
        nz = w[~dc]
        w[dc] = nz.mean() if nz.size else 1.0
    w *= len(w) / w.sum()
    return w


def adjoint_recon(y, operator: FrameOperator, density_comp="none"):
    """Coil-combined adjoint x = sum_l conj(S_l) NDFT^H(w * y_l) / M of
    the (L, P) frame data y at ``operator.points``.

    x is computed in y's precision: complex64 data (what
    :func:`snakesim.io.read_dataset` returns) or float32 data gives a
    complex64 volume, any other data a complex128 one.
    """
    y = _frame_data(y, operator)
    if density_comp == "radial":
        y = y * radial_density_weights(operator.points).astype(y.real.dtype)
    elif density_comp != "none":
        raise ReconError(f"unknown density compensation {density_comp!r}")
    # adj_op carries 1/sqrt(M); the operator's scale once more makes the
    # fully sampled Cartesian case the inverse FFT of the data. numpy's
    # complex x / s is x * (1 / s) in a slower loop, so this is x / sqrt(M).
    x = operator.adj_op(y)
    x *= operator._scale
    return x


# ---------------------------------------------------------------------------
# SURE threshold selection


def _median(a):
    """``np.median`` of a 1-D float array, bit for bit: the mean of the
    middle entry or entries of a partition, or NaN when its last entry,
    where NaNs sort, is one. numpy's own NaN check probes ``np.ma``,
    whose import costs about 19 ms on a run's first median."""
    n = a.size
    part = np.partition(a, sorted({(n - 1) // 2, n // 2, n - 1}))
    return part[-1] if np.isnan(part[-1]) else np.mean(part[(n - 1) // 2:n // 2 + 1])


def sure_threshold_coeffs(alpha):
    """Threshold selection on a detail-coefficient vector.

    Returns ``(mu, sigma)``: the selected threshold in sigma-normalized
    units and the noise scale estimated by MAD. The rule: if the
    normalized energy is below log2(n)^{3/2}/sqrt(n) the universal
    threshold sqrt(2 log2 n) is returned; otherwise the candidate
    w in |alpha| minimizing sum_i min(alpha_i^2, w^2) - 2*[alpha_i^2 < w^2]
    is used, capped at the universal threshold. The risks of all n
    candidates come from one sort and a cumulative sum, in O(n log n).
    """
    alpha = np.asarray(alpha).ravel()
    n = alpha.size
    if n < 2:
        raise ReconError("need at least 2 coefficients")
    universal = np.sqrt(2 * np.log2(n))
    # deviations are taken on the coefficients themselves; complex inputs
    # fall back to magnitudes since their median is not defined
    mad_base = np.abs(alpha) if np.iscomplexobj(alpha) else alpha.astype(np.float64)
    mad = _median(np.abs(mad_base - _median(mad_base)))
    sigma = mad * 0.675
    alpha = np.abs(alpha).astype(np.float64)
    if sigma == 0:
        # constant subband: fall back to the universal threshold with a
        # floor on sigma so a nonzero volume keeps a nonzero mu
        peak = alpha.max()
        return universal, (1e-12 * peak if peak > 0 else 0.0)
    a = alpha / sigma
    if a @ a / n < np.log2(n) ** 1.5 / np.sqrt(n):
        return universal, sigma
    a2 = a ** 2
    # risk(w) = sum(min(a2, w^2)) - 2 #{a2 < w^2}; with k = #{a2 < w^2},
    # the first term is the sum of the k smallest a2 plus (n - k) w^2
    sorted_a2 = np.sort(a2)
    below = np.concatenate([[0.0], np.cumsum(sorted_a2)])
    k = np.searchsorted(sorted_a2, a2, side="left")
    risks = below[k] + (n - k) * a2 - 2.0 * k
    best = a[np.argmin(risks)]
    return min(float(best), float(universal)), sigma


def sure_threshold(volume, basis: WaveletBasis):
    """Per-frame regularization from the finest high-detail subband.

    Returns the threshold scaled back to coefficient units (mu = w * sigma),
    ready to be used as the l1 weight of the solver.
    """
    volume = np.asarray(volume)
    if not np.all(np.isfinite(volume)):
        raise ReconError("volume contains non-finite values")
    alpha = finest_detail(basis.forward(volume)).ravel()
    mu_norm, sigma = sure_threshold_coeffs(alpha)
    return mu_norm * sigma


# ---------------------------------------------------------------------------
# POGM solver


def cs_solve(y, operator: FrameOperator, basis: WaveletBasis, config: ReconConfig,
             init=None, mu=None) -> FrameEstimate:
    """Solve 0.5 sum_l ||A_l x - y_l||^2 + mu ||Psi x||_1 with POGM, where
    A is ``operator`` and y the (L, P) frame data at its points.

    The prox of the l1 term is exact soft-thresholding in the orthonormal
    wavelet domain. Momentum restarts on objective increase; iteration
    stops at max_iters or when the relative objective change drops below
    config.tol. The step is 1 / ``operator.lipschitz_bound``, estimated
    here unless the operator already holds it.

    The solve runs in the precision of y: complex64 data, as a dataset
    file holds it, gives complex64 iterates, operator products, wavelet
    coefficients and volume; any other data complex128. Every scalar
    that scales an array is a Python float, which keeps the array's
    precision, and the objective sums in float64.
    """
    dims = operator.dims
    y = _frame_data(y, operator) / float(np.sqrt(np.prod(dims)))

    if init is None:
        init = operator.adj_op(y)
    elif init.shape != dims:
        raise ReconError(f"init shape {init.shape} != {dims}")
    if mu is None:
        if config.mu_mode == "fixed":
            mu = config.mu_value
        else:
            mu = sure_threshold(np.abs(init), basis)
    mu = float(mu)

    step = 1.0 / operator.lipschitz_bound

    def objective(x, coeffs):
        """(objective, residual) at x, whose wavelet coefficients are
        coeffs; the residual feeds the next gradient."""
        resid = operator.op(x) - y
        fidelity = 0.5 * float(np.sum(np.abs(resid) ** 2, dtype=np.float64))
        penalty = mu * float(np.sum(np.abs(coeffs.ravel()), dtype=np.float64))
        return fidelity + penalty, resid

    def prox(z, gamma):
        """(x, Psi x): Psi is orthonormal, so the thresholded coefficients
        are the coefficients of their inverse transform."""
        coeffs = soft_threshold(basis.forward(z), gamma * mu)
        return basis.inverse(coeffs), coeffs

    x = init.astype(y.dtype)
    w_prev = x.copy()
    z = x.copy()
    theta = 1.0
    gamma_prev = step
    obj, resid = objective(x, basis.forward(x))
    trace = [obj]
    best_x, best_obj = x, obj
    converged = False
    for k in range(config.max_iters):
        w = x - step * operator.adj_op(resid)
        theta_new = (1 + math.sqrt(1 + 4 * theta ** 2)) / 2
        gamma = step * (2 * theta + theta_new - 1) / theta_new
        z_new = (w
                 + (theta - 1) / theta_new * (w - w_prev)
                 + theta / theta_new * (w - x)
                 + step * (theta - 1) / (gamma_prev * theta_new) * (z - x))
        x_new, coeffs = prox(z_new, gamma)
        obj, resid = objective(x_new, coeffs)
        if not np.isfinite(obj) or obj > 10 * max(trace[0], 1e-300):
            raise ReconError(f"solver diverged at iteration {k} (objective {obj:.3e})")
        if obj > trace[-1]:
            # adaptive restart: drop momentum
            theta_new = 1.0
        rel_change = abs(trace[-1] - obj) / max(abs(trace[-1]), 1e-300)
        x, w_prev, z = x_new, w, z_new
        theta, gamma_prev = theta_new, gamma
        trace.append(obj)
        if obj < best_obj:
            best_x, best_obj = x, obj
        if rel_change < config.tol:
            converged = True
            break
    return FrameEstimate(volume=best_x, objective_trace=trace, mu_used=mu,
                         n_iters=len(trace) - 1, converged=converged)


# ---------------------------------------------------------------------------
# Series strategies


def _check_frame_count(kdata, plan):
    if len(kdata) != plan.n_frames:
        raise ReconError(f"k-space holds {len(kdata)} frames, the plan {plan.n_frames}")
    if len(kdata) < 1:
        raise ReconError("need at least one frame")


def _frame_operators(plan, coils, kdata, estimate=False):
    """``operator_for(t)``: the FrameOperator of frame t, kept while
    consecutive requests are the same Shot objects (every frame of a
    static plan). Its coil maps are in the precision of ``kdata``,
    rounded once here when the data is complex64 and they are not (a
    frame source with no ``dtype`` keeps them as they are; a pipeline run
    passes maps it has already rounded). With ``estimate`` its
    Lipschitz bound, in that precision, is set here, on the calling
    thread, and estimated once per Shot tuple: a frame whose shots come
    again (refined's second pass, a dynamic plan that repeats a frame)
    reuses it, which changes no result as the bound is deterministic.
    """
    dtype = np.result_type(getattr(kdata, "dtype", coils.maps.dtype), np.complex64)
    if coils.maps.dtype != dtype:
        coils = CoilProfile(maps=coils.maps.astype(dtype))
    shots = operator = None
    bounds = {}  # a frame's Shot tuple -> its Lipschitz bound

    def operator_for(t):
        nonlocal shots, operator
        if plan.frame(t) != shots:
            shots = plan.frame(t)
            operator = FrameOperator(shots, plan.dims, coils)
            if estimate:
                if shots not in bounds:
                    bounds[shots] = operator.lipschitz()
                operator.lipschitz_bound = bounds[shots]
        return operator
    return operator_for


def _worker_count(n_jobs=None):
    """Worker threads for ``n_jobs``: 1 when it is None, at least 1."""
    return max(1, n_jobs or 1)


def _in_frame_order(solve, operator_for, n_frames, n_jobs):
    """Yield ``solve(t, operator_for(t))`` for t = 0 .. n_frames - 1, in
    order, for solves that depend on no other frame.

    ``operator_for`` runs on the calling thread and the solves on a
    thread pool of :func:`_worker_count` of ``n_jobs`` threads. At most
    that many frames are submitted and not yet yielded: frame t + workers
    is submitted only when the consumer asks for frame t + 1, so each
    thread's temporaries and results stay bounded. A solve's exception
    is raised when its frame is due. Closing the generator cancels the
    solves not started and waits for the running ones, so no pool thread
    outlives it.
    """
    workers = _worker_count(n_jobs)
    pool = ThreadPoolExecutor(max_workers=workers)
    pending = deque()
    try:
        for t in range(n_frames):
            if len(pending) == workers:
                yield pending.popleft().result()
            pending.append(pool.submit(solve, t, operator_for(t)))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _frame_error(t, fn, *args, **kwargs):
    """fn(*args, **kwargs), a ReconError naming frame t."""
    try:
        return fn(*args, **kwargs)
    except ReconError as e:
        raise ReconError(f"frame {t}: {e}") from e


def adjoint_series(kdata, plan, coils, density_comp="none", n_jobs=None):
    """Yield the density-compensated adjoint :class:`FrameEstimate` of
    every frame of the (n_frames, n_coils, P) k-space array ``kdata``,
    in frame order, reading each frame's data when it is reconstructed.
    The frames are independent, so with ``n_jobs`` workers they run on a
    thread pool (see :func:`_in_frame_order`); the result does not depend
    on the worker count."""
    _check_frame_count(kdata, plan)

    def adjoint(t, operator):
        return FrameEstimate(_frame_error(t, adjoint_recon, kdata[t], operator,
                                          density_comp=density_comp), [], 0.0)
    yield from _in_frame_order(adjoint, _frame_operators(plan, coils, kdata), len(kdata),
                               n_jobs)


def reconstruct_series(kdata, plan, coils, basis: WaveletBasis, config: ReconConfig,
                       n_jobs=None):
    """Yield the CS :class:`FrameEstimate` of every frame of the
    (n_frames, n_coils, P) k-space array ``kdata``, in frame order,
    under the configured strategy.

    cold: each frame solved independently from its adjoint init. warm:
    frame t+1 starts from frame t's estimate. refined: a warm pass, then
    every frame re-solved from the final warm-pass estimate. The warm
    frames run in order on the calling thread; cold frames and the
    refined second pass depend on no other frame, so with ``n_jobs``
    workers they run on a thread pool (see :func:`_in_frame_order`), and
    the result does not depend on the worker count. A frame's data is
    read from ``kdata`` when the frame is solved, and no more than the
    volumes of two frames plus one per worker are held at a time, so a
    dataset read from its file is reconstructed in bounded memory. One
    FrameOperator serves each run of consecutive frames with the same
    k-points, and one Lipschitz estimate, made on the calling thread,
    each distinct frame.
    """
    _check_frame_count(kdata, plan)
    operator_for = _frame_operators(plan, coils, kdata, estimate=True)

    def solve(t, operator, init):
        return _frame_error(t, cs_solve, kdata[t], operator, basis, config, init=init)

    def warm_pass():
        init = None
        for t in range(len(kdata)):
            est = solve(t, operator_for(t), init)
            init = est.volume
            yield est

    if config.strategy == "warm":
        yield from warm_pass()
        return
    init = None
    if config.strategy == "refined":
        # the warm pass yields nothing; its last estimate starts every frame
        for est in warm_pass():
            init = est.volume
    yield from _in_frame_order(lambda t, operator: solve(t, operator, init), operator_for,
                               len(kdata), n_jobs)
