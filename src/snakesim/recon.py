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
transform. :func:`cs_solve` also solves a batch of frames of one
operator in lockstep: the operator, the wavelet transforms, the soft
threshold and the POGM updates each take the batch's leading frame axis
in one call, while every frame keeps its own scalars and stopping, so
each frame's estimate is its lone solve's bit for bit. A series builds
one operator per run of consecutive frames that are the same Shot
objects, and estimates the Lipschitz constant once per distinct frame:
once for a static plan, once per frame for a dynamic one, also when
refined solves each frame twice.

:func:`adjoint_series` yields each frame's adjoint and
:func:`reconstruct_series` each frame's CS solve, in frame order: a
frame's data is read only when its batch is solved, so a dataset read
from its file is never loaded whole. Work that depends on no other
frame is a task: each adjoint frame, and the cold frames and the second
pass of refined, in batches of at most :data:`BATCH_BYTES` of coil
images for a static plan (every frame the same Shot tuple), one at a
time for any other. Tasks run on the calling thread when two frames fit
that budget, else on a pool of ``n_jobs`` threads (see
:func:`_in_frame_order`). Warm frames run one at a time on the calling
thread. Pool threads only solve: operators are built, and each distinct
frame's Lipschitz bound estimated once, on the calling thread, and the
batches follow from the plan and the frame size alone, so the results
do not depend on the worker count. A frame that fails gives a
:class:`FrameEstimate` with its reason and no volume, which a series
raises, as a ReconError naming the frame, when the frame is due.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .engine import NDFT, CoilProfile
from .wavelets import WaveletBasis, finest_detail, soft_threshold


class ReconError(ValueError):
    """A reconstruction input or solve that failed; ``frame``, if not None,
    is the index in its series of the frame it concerns."""

    def __init__(self, reason, frame=None):
        super().__init__(reason if frame is None else f"frame {frame}: {reason}")
        self.reason, self.frame = reason, frame


# The smallest relative objective change that a complex64 solve resolves,
# the floor of a pipeline run's ``tol`` (a dataset file holds complex64).
# On the three SoS benchmark configs at seed 1234, solved for 1000
# iterations, the complex64 relative change missed the complex128 one at
# the same iterate by up to 6.8e-8, 7.7e-7 and 3.2e-7 wherever the latter
# was below 1e-5: the residual op(x) - y cancels, and its complex64
# rounding is about eps * |y| per sample.
COMPLEX64_TOL_FLOOR = 1e-6

# Frames of a static plan that depend on no other frame are solved in
# batches of the most frames whose coil images (frames x coils x
# voxels, in the data's precision) fit in this many bytes, and at least
# one: 3 frames at 16x18x16 with 8 complex64 coils, 1 at s2@1. The size
# follows from the frame's alone, so no result depends on the worker count.
# Measured at 2, 3 and 5 frames a batch at 16x18x16 only (wall time falls
# and peak RSS rises with the size); frames too large for two in the
# budget are solved one at a time, and they alone on the frame pool (see
# _in_frame_order); no benchmark workload has such frames.
BATCH_BYTES = 1 << 20


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
    """One frame's result. ``stop`` says how a CS solve ended: "tol",
    "max_iters", or a failure, which leaves no volume and gives its
    ``reason``: "diverged", "sure" (a SURE threshold met non-finite
    values) or "refused" (data of the wrong shape)."""
    volume: np.ndarray | None
    objective_trace: list
    mu_used: float
    n_iters: int | None = None      # POGM iterations run; None for the adjoint
    stop: str | None = None
    restarts: int = 0               # adaptive restarts: iterations whose objective rose
    final_rel_change: float | None = None  # relative objective change of the last iteration
    reason: str | None = None       # why a failed frame failed

    @property
    def converged(self):
        return self.stop == "tol"


# ---------------------------------------------------------------------------
# Frame operator


class FrameOperator:
    """Unitary-scaled multi-coil Fourier operator for one frame.

    op(x)[l] = NDFT(S_l * x) / sqrt(M); adj_op is its exact adjoint. Both
    take leading frame axes, (F, Nx, Ny, Nz) to (F, L, P) and back, in
    one call of the NDFT with the coil maps, the call form acquisition
    uses too, which holds one frame's coil images at a time; each frame
    equals its own call bit for bit. Both compute in the precision of
    their input, as the NDFT does: complex64 for complex64 (or float32)
    input, complex128 for any other, with the coil maps rounded to it if
    they are complex128. The Lipschitz estimate runs in the precision of
    the coil maps.
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
        out = self._ndft.forward(x, self.coils.maps)
        out *= self._scale
        return out

    def adj_op(self, y):
        out = self._ndft.adjoint(y, self.coils.maps)
        out *= self._scale
        return out

    def lipschitz(self):
        """Spectral norm of A^H A by 20 power iterations from a standard
        normal start drawn with seed 1234, times a safety margin of 1.05,
        in the precision of the coil maps."""
        rng = np.random.default_rng(1234)
        x = rng.standard_normal(self.dims) + 1j * rng.standard_normal(self.dims)
        x = x.astype(np.result_type(self.coils.maps, np.complex64), copy=False)
        x /= np.linalg.norm(x)
        value = 1.0
        for _ in range(20):
            x = self.adj_op(self.op(x))
            value = np.linalg.norm(x)
            if value == 0:
                return 1.05
            x /= value
        return float(value) * 1.05

    @functools.cached_property
    def lipschitz_bound(self):
        """:meth:`lipschitz`, estimated on first use unless set."""
        return self.lipschitz()


def _frame_data(y, operator: FrameOperator):
    """y as a complex array in its precision (complex64 for complex64 or
    float32 data, complex128 for any other), if it is one frame's (L, P)
    data: one sample per coil and operator point."""
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
             init=None):
    """Solve 0.5 sum_l ||A_l x - y_l||^2 + mu ||Psi x||_1 with POGM, where
    A is ``operator`` and y the (L, P) frame data at its points; the
    frame's :class:`FrameEstimate`.

    The prox of the l1 term is exact soft-thresholding in the orthonormal
    wavelet domain. Momentum restarts on objective increase (POGM's
    adaptive restart); iteration stops at max_iters or when the relative
    objective change drops below config.tol. The step is 1 /
    ``operator.lipschitz_bound``, estimated here unless the operator
    already holds it. A frame that fails (its data has the wrong shape,
    its SURE threshold meets non-finite values, or its solve diverges)
    gives an estimate with no volume and the reason; only argument
    errors, such as an ``init`` of the wrong shape, raise.

    A batch of frames at the operator's points, a list of F (L, P) frames
    or an (F, L, P) array, gives a list of F estimates. The frames are
    solved in lockstep, each step one call on (F, ...) arrays, and each
    frame keeps its own mu, momentum, restarts, best iterate, objective
    trace and stop; a frame that stops, or fails, leaves the batch, so
    its estimate is its own solve's bit for bit. ``init``, when given, is
    one volume that starts every frame; without it each frame starts from
    its adjoint. Each frame's mu is ``config.mu_value`` under the fixed
    ``mu_mode``, else the SURE threshold of the magnitude of its start.

    The solve runs in the precision of y: complex64 data, as a dataset
    file holds it, gives complex64 iterates, operator products, wavelet
    coefficients and volume; any other data complex128. Every scalar
    that scales an array is a Python float, or a per-frame column of the
    array's precision, which keeps it, and the objective sums in float64.
    """
    dims = operator.dims
    batched = isinstance(y, list) or np.ndim(y) == 3
    n = len(y) if batched else 1
    if init is not None and init.shape != dims:
        raise ReconError(f"init shape {init.shape} != {dims}")
    estimates, ys = [None] * n, []
    for i, frame in enumerate(y if batched else [y]):
        try:
            ys.append(_frame_data(frame, operator))
        except ReconError as e:
            estimates[i] = FrameEstimate(None, [], math.nan, stop="refused", reason=e.reason)
    frames = [i for i in range(n) if estimates[i] is None]  # batch index of each frame solved
    if not frames:
        return estimates if batched else estimates[0]
    y = np.stack(ys) / float(np.sqrt(np.prod(dims)))
    if init is None:
        x = operator.adj_op(y)
    else:
        x = np.empty((len(frames), *dims), dtype=y.dtype)
        x[...] = init
    ends = {}  # row -> (stop, reason) of each frame that leaves the batch
    if config.mu_mode == "fixed":
        mu = [float(config.mu_value)] * len(frames)
    else:
        mu = []
        for i, v in enumerate(np.abs(x)):
            try:
                mu.append(float(sure_threshold(v, basis)))
            except ReconError as e:
                mu.append(math.nan)
                ends[i] = "sure", e.reason
    step = 1.0 / operator.lipschitz_bound

    def column(values, dtype=y.dtype):
        """One value per frame, as an (F, 1, 1, 1) array of dtype."""
        return np.array(values, dtype=dtype).reshape(-1, 1, 1, 1)

    def l1(coeffs):
        return [float(np.sum(c.ravel(), dtype=np.float64)) for c in np.abs(coeffs)]

    def prox(z, gamma):
        """(x, ||Psi x||_1 per frame): Psi is orthonormal, so the thresholded
        coefficients are the coefficients of their inverse transform."""
        coeffs = soft_threshold(basis.forward(z),
                                column([g * m for g, m in zip(gamma, mu)], y.real.dtype))
        return basis.inverse(coeffs), l1(coeffs)

    def objective(x, norms):
        """(objective per frame, residual) at x, whose coefficients have the
        l1 norms ``norms``; the residual feeds the next gradient."""
        resid = operator.op(x)
        resid -= y
        fidelity = np.abs(resid)
        fidelity **= 2
        return [0.5 * float(np.sum(f, dtype=np.float64)) + m * norm
                for f, m, norm in zip(fidelity, mu, norms)], resid

    def momentum(w, w_prev, x, z, theta, theta_new, gamma_prev):
        """z = w + (theta - 1) / theta_new (w - w_prev) + theta / theta_new
        (w - x) + step (theta - 1) / (gamma_prev theta_new) (z - x), summed
        left to right, in z; w_prev is overwritten."""
        s = np.subtract(w, w_prev, out=w_prev)
        np.multiply(column([(t - 1) / tn for t, tn in zip(theta, theta_new)]), s, out=s)
        np.add(w, s, out=s)
        d = np.subtract(w, x)
        np.multiply(column([t / tn for t, tn in zip(theta, theta_new)]), d, out=d)
        np.add(s, d, out=s)
        np.subtract(z, x, out=z)
        np.multiply(column([step * (t - 1) / (g * tn)
                            for t, tn, g in zip(theta, theta_new, gamma_prev)]), z, out=z)
        np.add(s, z, out=z)

    def finish(i, stop, reason=None):
        trace = traces[i]
        estimates[frames[i]] = FrameEstimate(
            volume=None if reason else best[i].copy(), objective_trace=trace, mu_used=mu[i],
            n_iters=len(trace) - 1, stop=stop, restarts=restarts[i],
            final_rel_change=changes[i], reason=reason)

    w_prev, z = x.copy(), x.copy()
    theta, gamma_prev = [1.0] * len(frames), [step] * len(frames)
    objs, resid = objective(x, l1(basis.forward(x)))
    traces = [[obj] for obj in objs]
    restarts, changes = [0] * len(frames), [None] * len(frames)
    # each frame's best iterate: a row of the current iterate while it is
    # the best, else a copy, so no earlier iterate of the batch stays alive
    best, best_objs = list(x), objs
    for k in range(config.max_iters + 1):
        # the frames that stopped or failed at the last step, or whose SURE
        # threshold failed before the first, leave the batch
        if ends:
            for i, (stop, reason) in ends.items():
                finish(i, stop, reason)
            keep = [i for i in range(len(frames)) if i not in ends]
            x, w_prev, z, resid, y = (a[keep] for a in (x, w_prev, z, resid, y))
            best = [x[j] if best[i].base is not None else best[i] for j, i in enumerate(keep)]
            frames, theta, gamma_prev, mu, best_objs, traces, restarts, changes = (
                [v[i] for i in keep]
                for v in (frames, theta, gamma_prev, mu, best_objs, traces, restarts, changes))
        if not frames or k == config.max_iters:
            break
        w = operator.adj_op(resid)
        np.multiply(step, w, out=w)
        np.subtract(x, w, out=w)
        theta_new = [(1 + math.sqrt(1 + 4 * t ** 2)) / 2 for t in theta]
        gamma = [step * (2 * t + tn - 1) / tn for t, tn in zip(theta, theta_new)]
        momentum(w, w_prev, x, z, theta, theta_new, gamma_prev)
        w_prev = w
        x, norms = prox(z, gamma)
        objs, resid = objective(x, norms)
        ends = {}
        for i, obj in enumerate(objs):
            trace = traces[i]
            if not np.isfinite(obj) or obj > 10 * max(trace[0], 1e-300):
                ends[i] = "diverged", f"solver diverged at iteration {k} (objective {obj:.3e})"
                continue
            if obj > trace[-1]:
                # adaptive restart: drop momentum
                theta_new[i] = 1.0
                restarts[i] += 1
            changes[i] = abs(trace[-1] - obj) / max(abs(trace[-1]), 1e-300)
            trace.append(obj)
            if obj < best_objs[i]:
                best[i], best_objs[i] = x[i], obj
            elif best[i].base is not None:
                best[i] = best[i].copy()
            if changes[i] < config.tol:
                ends[i] = "tol", None
        theta, gamma_prev = theta_new, gamma
    for i in range(len(frames)):
        finish(i, "max_iters")
    return estimates if batched else estimates[0]


# ---------------------------------------------------------------------------
# Series strategies


def _series_setup(kdata, plan, coils, n_jobs, estimate=False):
    """What every frame of a series shares, decided once, before its first
    frame: ``(operator_for, batch, workers)``.

    ``operator_for(t)`` is the FrameOperator of frame t, kept while
    consecutive requests are the same Shot objects (every frame of a
    static plan). Its coil maps are in the precision of ``kdata``,
    rounded once here when the data is complex64 and they are not (a
    frame source with no ``dtype`` keeps them as they are; a pipeline run
    passes maps it has already rounded). With ``estimate`` its
    Lipschitz bound, in that precision, is set on the calling thread,
    and estimated once per Shot tuple: a frame whose shots come again
    (refined's second pass, a dynamic plan that repeats a frame) reuses
    it, which changes no result as the bound is deterministic.

    ``batch`` is the most frames whose coil images (coils x voxels in
    that precision) fit :data:`BATCH_BYTES`, at least one, for a static
    plan (every frame the same Shot tuple), and 1 for any other plan,
    whose repeated frames are incidental. ``workers`` is 1 when two
    frames fit the budget, else ``n_jobs``, and 1 when that is None.
    Both follow from the plan and the frame size alone.
    """
    if len(kdata) != plan.n_frames:
        raise ReconError(f"k-space holds {len(kdata)} frames, the plan {plan.n_frames}")
    if len(kdata) < 1:
        raise ReconError("need at least one frame")
    dtype = np.result_type(getattr(kdata, "dtype", coils.maps.dtype), np.complex64)
    if coils.maps.dtype != dtype:
        coils = CoilProfile(maps=coils.maps.astype(dtype))
    fit = BATCH_BYTES // (coils.n_coils * math.prod(plan.dims) * coils.maps.itemsize)
    static = all(plan.frame(t) == plan.frame(0) for t in range(plan.n_frames))
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
    return operator_for, max(1, fit) if static else 1, 1 if fit >= 2 else max(1, n_jobs or 1)


def _batches(plan, operator_for, size):
    """``(frames, operator)`` for every frame of ``plan``, in order, in runs
    of ``size`` frames, run on the calling thread."""
    for t in range(0, plan.n_frames, size):
        yield range(t, min(t + size, plan.n_frames)), operator_for(t)


def _in_frame_order(solve, batches, workers):
    """Yield the estimates of ``solve(frames, operator)`` for every
    ``(frames, operator)`` of ``batches``, frame by frame and in order
    (see :func:`_succeeded`), for solves that depend on no other batch.

    ``batches`` is iterated on the calling thread. With one worker each
    batch is solved there too, when its first frame is due, and no thread
    starts: the pool is made, and ``concurrent.futures`` imported (about
    0.6 MB of RSS), at the first submit. A series has one worker when two
    of its frames fit :data:`BATCH_BYTES` (see :func:`_series_setup`): on
    the benchmark's frames two threads saved no time over one (POGM's
    short numpy calls serialise on the GIL) and cost 1.2-2.3 MB of peak
    RSS. Larger frames are solved on a pool of ``workers`` threads, which
    earns at 60x72x60 with 8 coils (1.8-2.6 s at two workers, 2.5-3.3 s
    at one). At most that many batches are submitted and not yet yielded:
    batch b + workers is submitted only when the consumer asks for the
    frame after batch b, so each thread's temporaries and results stay
    bounded. A solve returns one estimate per frame; an exception it
    raises is raised when its batch is due. Closing the generator
    cancels the solves not started and waits for the running ones, so no
    pool thread outlives it.
    """
    pool = None
    pending = deque()   # (frames, future) of each batch submitted and not yielded

    def due():
        frames, future = pending.popleft()
        return _succeeded(frames, future.result())

    try:
        for frames, operator in batches:
            if workers == 1:
                yield from _succeeded(frames, solve(frames, operator))
                continue
            if len(pending) == workers:
                yield from due()
            if pool is None:
                from concurrent.futures import ThreadPoolExecutor
                pool = ThreadPoolExecutor(max_workers=workers)
            pending.append((frames, pool.submit(solve, frames, operator)))
        while pending:
            yield from due()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _succeeded(frames, estimates):
    """Yield the estimates of the frames in order, raising the ReconError
    of the first that failed, which names its frame, when it is due."""
    for t, est in zip(frames, estimates):
        if est.volume is None:
            raise ReconError(est.reason, t)
        yield est


def adjoint_series(kdata, plan, coils, density_comp="none", n_jobs=None):
    """Yield the density-compensated adjoint :class:`FrameEstimate` of
    every frame of the (n_frames, n_coils, P) k-space array ``kdata``,
    in frame order, reading each frame's data when it is reconstructed.
    The frames are independent, a task each, run on the calling thread
    or on a pool of ``n_jobs`` threads (see :func:`_in_frame_order`); the
    result does not depend on the worker count. A frame whose data is
    refused raises its ReconError when it is due."""
    operator_for, _, workers = _series_setup(kdata, plan, coils, n_jobs)

    def adjoint(frames, operator):
        [t] = frames
        try:
            y = _frame_data(kdata[t], operator)
        except ReconError as e:
            return [FrameEstimate(None, [], math.nan, stop="refused", reason=e.reason)]
        return [FrameEstimate(adjoint_recon(y, operator, density_comp), [], 0.0)]
    yield from _in_frame_order(adjoint, _batches(plan, operator_for, 1), workers)


def reconstruct_series(kdata, plan, coils, basis: WaveletBasis, config: ReconConfig,
                       n_jobs=None):
    """Yield the CS :class:`FrameEstimate` of every frame of the
    (n_frames, n_coils, P) k-space array ``kdata``, in frame order,
    under the configured strategy.

    cold: each frame solved independently from its adjoint init. warm:
    frame t+1 starts from frame t's estimate. refined: a warm pass, then
    every frame re-solved from the final warm-pass estimate. The warm
    frames run one at a time, in order, on the calling thread. Cold
    frames and the refined second pass depend on no other frame: those of
    a static plan are solved in batches, any other plan's one at a time
    (see :func:`_series_setup`), each batch one :func:`cs_solve` call,
    run on the calling thread or on a pool of ``n_jobs`` threads (see
    :func:`_in_frame_order`). A frame's estimate is
    its lone solve's bit for bit, and the batches do not depend on the
    worker count, so neither does the result. The first frame that fails
    raises its ReconError when it is due, after the frames before it, as
    lone solves in frame order would. A batch's data is read
    from ``kdata`` when the batch is solved, a frame at a time, and no
    more than the volumes of two frames plus one batch per worker are
    held at a time, so a dataset read from its file is reconstructed in
    bounded memory. One FrameOperator serves each run of consecutive
    frames with the same k-points, and one Lipschitz estimate, made on
    the calling thread, each distinct frame.
    """
    operator_for, batch, workers = _series_setup(kdata, plan, coils, n_jobs, estimate=True)

    def warm_pass():
        init = None
        for t in range(len(kdata)):
            est = cs_solve(kdata[t], operator_for(t), basis, config, init=init)
            yield from _succeeded([t], [est])
            init = est.volume

    if config.strategy == "warm":
        yield from warm_pass()
        return
    init = None
    if config.strategy == "refined":
        # the warm pass yields nothing; its last estimate starts every frame
        for est in warm_pass():
            init = est.volume

    def solve(frames, operator):
        return cs_solve([kdata[t] for t in frames], operator, basis, config, init=init)
    yield from _in_frame_order(solve, _batches(plan, operator_for, batch), workers)
