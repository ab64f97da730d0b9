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
exact paths, chosen from the frame's points: the FFT for Cartesian
frames (every point on the grid), a per-kz-plane 2D DFT for
stack-of-X frames (every kz an integer), and separable phase tables
for any other 3D trajectory.

A frame's input is the pair (y, operator): y = kdata[t], the frame's
(L, P) block of the run's (n_frames, n_coils, P) k-space array, and the
:class:`FrameOperator` of the frame's shots. Both routes reject y unless
its shape is (operator.n_coils, len(operator.points)).

The solver reuses each objective evaluation's residual for the next
gradient, so an iteration costs one op and one adj_op. It also takes
the objective's l1 term from the thresholded coefficients of the prox:
the wavelet basis is orthonormal, so they are the coefficients of the
new iterate, and an iteration costs one wavelet forward and one inverse
transform. A series
builds one operator, and estimates its Lipschitz constant once, per
run of consecutive frames that share a point set: once for a static
plan, once per frame for a dynamic one.

:func:`frame_estimates` yields a series one frame at a time and reads a
frame's data only when it solves that frame, so a memory-mapped dataset
is never loaded whole; :func:`reconstruct_series` and
:func:`adjoint_series` collect it into one :class:`FrameSeries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import NDFT, CoilProfile
from .wavelets import WaveletBasis, soft_threshold


class ReconError(ValueError):
    pass


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


def _frame_points(frame_shots):
    """The (P, 3) k-points of a frame's shots, in acquisition order."""
    return np.concatenate([np.atleast_2d(s.points) for s in frame_shots])


class FrameOperator:
    """Unitary-scaled multi-coil Fourier operator for one frame.

    op(x)[l] = NDFT(S_l * x) / sqrt(M); adj_op is its exact adjoint.
    """

    def __init__(self, frame_shots, dims, coils: CoilProfile):
        self.points = _frame_points(frame_shots)
        self.dims = tuple(dims)
        self.coils = coils
        self._conj_maps = np.conj(coils.maps)
        self._scale = 1.0 / np.sqrt(np.prod(dims))
        self._ndft = NDFT(self.points, self.dims)

    @property
    def n_coils(self):
        return self.coils.n_coils

    def op(self, x):
        return self._ndft.forward(self.coils.maps * x) * self._scale

    def adj_op(self, y):
        back = self._ndft.adjoint(y)
        back *= self._conj_maps
        return back.sum(axis=0) * self._scale

    def lipschitz(self, n_iters=20, safety=1.05, seed=1234):
        """Spectral norm of A^H A by power iteration (with safety margin)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(self.dims) + 1j * rng.standard_normal(self.dims)
        x /= np.linalg.norm(x)
        value = 1.0
        for _ in range(n_iters):
            x = self.adj_op(self.op(x))
            value = np.linalg.norm(x)
            if value == 0:
                return safety
            x /= value
        return float(value * safety)

    @cached_property
    def lipschitz_bound(self):
        """:meth:`lipschitz` at its defaults, estimated once per operator."""
        return self.lipschitz()


def _frame_data(y, operator: FrameOperator):
    """y as complex128, if it holds one sample per coil and operator point."""
    y = np.asarray(y, dtype=np.complex128)
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
    the (L, P) frame data y at ``operator.points``."""
    y = _frame_data(y, operator)
    if density_comp == "radial":
        y = y * radial_density_weights(operator.points)
    elif density_comp != "none":
        raise ReconError(f"unknown density compensation {density_comp!r}")
    m = np.prod(operator.dims)
    # adj_op carries 1/sqrt(M); one more 1/sqrt(M) makes the fully
    # sampled Cartesian case the inverse FFT of the data.
    return operator.adj_op(y) / np.sqrt(m)


# ---------------------------------------------------------------------------
# SURE threshold selection


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
    mad = np.median(np.abs(mad_base - np.median(mad_base)))
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
    coeffs = basis.forward(volume)
    alpha = coeffs.finest_detail.ravel()
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
    config.tol. The operator's Lipschitz bound is estimated once per
    operator, so frames that share an operator share it.
    """
    dims = operator.dims
    y = _frame_data(y, operator) / np.sqrt(np.prod(dims))

    if init is None:
        init = operator.adj_op(y)
    elif init.shape != dims:
        raise ReconError(f"init shape {init.shape} != {dims}")
    if mu is None:
        if config.mu_mode == "fixed":
            mu = config.mu_value
        else:
            mu = sure_threshold(np.abs(init), basis)

    step = 1.0 / operator.lipschitz_bound

    def objective(x, coeffs):
        """(objective, residual) at x, whose wavelet coefficients are
        coeffs; the residual feeds the next gradient."""
        resid = operator.op(x) - y
        fidelity = 0.5 * float(np.sum(np.abs(resid) ** 2))
        penalty = mu * float(np.sum(np.abs(coeffs.ravel())))
        return fidelity + penalty, resid

    def prox(z, gamma):
        """(x, Psi x): Psi is orthonormal, so the thresholded coefficients
        are the coefficients of their inverse transform."""
        coeffs = basis.forward(z).map(lambda c: soft_threshold(c, gamma * mu))
        return basis.inverse(coeffs), coeffs

    x = init.astype(np.complex128)
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
        theta_new = (1 + np.sqrt(1 + 4 * theta ** 2)) / 2
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
    return FrameEstimate(volume=best_x, objective_trace=trace, mu_used=float(mu),
                         n_iters=len(trace) - 1, converged=converged)


# ---------------------------------------------------------------------------
# Series strategies


def _check_frame_count(kdata, plan):
    if len(kdata) != plan.n_frames:
        raise ReconError(f"k-space holds {len(kdata)} frames, the plan {plan.n_frames}")


def _frame_operators(plan, coils):
    """``operator_for(t)``: the FrameOperator of frame t, kept while
    consecutive requests share k-points (every frame of a static plan),
    so such frames also share its Lipschitz bound."""
    operator = None

    def operator_for(t):
        nonlocal operator
        shots = plan.frame(t)
        if operator is None or not np.array_equal(_frame_points(shots), operator.points):
            operator = FrameOperator(shots, plan.dims, coils)
        return operator
    return operator_for


@dataclass
class FrameSeries:
    volumes: np.ndarray        # (n_frames, *dims) complex
    mu_values: list
    objective_traces: list
    strategy: str
    tr_vol: float = 0.0
    n_iters: list | None = None      # per frame, for solver reconstructions
    converged: list | None = None

    def magnitude(self):
        return np.abs(self.volumes)


def frame_estimates(kdata, plan, coils, basis: WaveletBasis | None = None,
                    config: ReconConfig | None = None, density_comp="none"):
    """Yield the :class:`FrameEstimate` of every frame of the
    (n_frames, n_coils, P) k-space array ``kdata``, in frame order.

    Without ``config`` each frame is the density-compensated adjoint.
    With ``basis`` and ``config`` each is a CS solve under the configured
    strategy. cold: each frame solved independently from its adjoint
    init. warm: frame t+1 starts from frame t's estimate. refined: a warm
    pass, then every frame re-solved from the final warm-pass estimate.
    A frame's data is read from ``kdata`` when the frame is solved, and
    no more than two frames' volumes are held at a time, so a
    memory-mapped dataset is reconstructed in bounded memory. One
    FrameOperator and one Lipschitz estimate serve each run of
    consecutive frames with the same k-points.
    """
    _check_frame_count(kdata, plan)
    n_frames = len(kdata)
    if n_frames < 1:
        raise ReconError("need at least one frame")
    operator_for = _frame_operators(plan, coils)
    if config is None:
        for t in range(n_frames):
            yield FrameEstimate(adjoint_recon(kdata[t], operator_for(t),
                                              density_comp=density_comp), [], 0.0)
        return

    def solve(t, init):
        try:
            return cs_solve(kdata[t], operator_for(t), basis, config, init=init)
        except ReconError as e:
            raise ReconError(f"frame {t}: {e}") from e

    init = None
    if config.strategy == "refined":
        # the warm pass yields nothing; its last estimate starts every frame
        for t in range(n_frames):
            init = solve(t, init).volume
    for t in range(n_frames):
        est = solve(t, init)
        if config.strategy == "warm":
            init = est.volume
        yield est


def _series(estimates, strategy, tr_vol) -> FrameSeries:
    """The FrameSeries of the estimates of :func:`frame_estimates`."""
    estimates = list(estimates)
    solved = strategy != "adjoint"
    return FrameSeries(
        volumes=np.stack([e.volume for e in estimates]),
        mu_values=[e.mu_used for e in estimates],
        objective_traces=[e.objective_trace for e in estimates],
        strategy=strategy,
        tr_vol=tr_vol,
        n_iters=[e.n_iters for e in estimates] if solved else None,
        converged=[e.converged for e in estimates] if solved else None,
    )


def reconstruct_series(kdata, plan, coils, basis: WaveletBasis,
                       config: ReconConfig) -> FrameSeries:
    """Every frame of :func:`frame_estimates` under CS, as one series."""
    return _series(frame_estimates(kdata, plan, coils, basis, config),
                   config.strategy, plan.tr_vol)


def adjoint_series(kdata, plan, coils, density_comp="none") -> FrameSeries:
    """Density-compensated adjoint reconstruction of every frame of the
    (n_frames, n_coils, P) k-space array ``kdata``, as one series."""
    return _series(frame_estimates(kdata, plan, coils, density_comp=density_comp),
                   "adjoint", plan.tr_vol)
