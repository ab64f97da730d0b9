"""Detection and quality metrics on reconstructed frame series.

The GLM runs voxel-wise on magnitude volumes; the task regressor is the
paradigm boxcar convolved with the HRF, sampled at frame midpoints, plus
an intercept and optional Legendre drift columns. The GLM and tSNR are
taken from :class:`SeriesSums`, running sums fed one frame at a time,
so no (n_frames, voxels) array is held. Detection statistics
are computed against the binarized ground-truth ROI inside a tissue
analysis mask (background voxels would otherwise inflate the true
negative counts for free).

No scipy is imported. t maps to z through the upper tail of Student's
t, a regularized incomplete beta function evaluated by its continued
fraction, and the inverse normal CDF, a numpy port of the Cephes
``ndtri`` that ``scipy.special.ndtri`` and ``scipy.stats.norm.isf``
use: z agrees with ``scipy.stats`` to 1e-12 max(1, |z|), and the
inverse normal CDF with ``ndtri`` to 4 ulp. SSIM's local means are
wrapped box means, taken as one product with a circulant averaging
matrix per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .phantom import Paradigm, build_bold_timecourse

Z_CAP = 38.0  # largest z before norm.sf underflows


class AnalysisError(ValueError):
    pass


@dataclass
class DesignMatrix:
    """The design ``matrix`` X, its column ``names`` and ``xtx_inv``, the
    inverse of its Gram matrix X^T X, which :func:`glm_fit` reads. A
    design is refused as rank deficient when ``inv`` raises, the inverse
    is not finite, or the 1-norm condition number of X^T X times the
    float64 eps reaches 1e-3: cond eps bounds the relative error of the
    computed inverse up to a modest factor, so past it the inverse may
    carry fewer than three correct digits. This is stricter than
    ``matrix_rank`` on X, which accepts cond(X) up to 1 / (n eps), where
    cond(X^T X) = cond(X)^2 leaves no correct digit, and it needs no SVD.
    The designs of the presets and benchmark configs have cond(X^T X)
    between 10 and 41.
    """

    matrix: np.ndarray     # (n_frames, n_regressors)
    names: list
    xtx_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = self.matrix
        gram = x.T @ x
        try:
            inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            inv = None
        if inv is None or not np.isfinite(inv).all() or not (
                np.linalg.norm(gram, 1) * np.linalg.norm(inv, 1) * np.finfo(float).eps < 1e-3):
            if "task" in self.names and not np.any(x[:, self.names.index("task")]):
                raise AnalysisError("task regressor is identically zero "
                                    "(collinear with the intercept)")
            raise AnalysisError("design matrix is rank deficient")
        self.xtx_inv = inv

    @property
    def n_frames(self):
        return self.matrix.shape[0]

    @property
    def n_regressors(self):
        return self.matrix.shape[1]


@dataclass
class StatMap:
    beta: np.ndarray
    t: np.ndarray
    z: np.ndarray
    dof: int


@dataclass
class DetectionResult:
    positive: np.ndarray
    tp: int
    fp: int
    tn: int
    fn: int
    p_threshold: float


@dataclass
class MetricsReport:
    auc_pr: float
    bacc: float
    psnr_first: float
    psnr_last: float
    ssim_first: float
    ssim_last: float
    tsnr_roi_mean: float

    def to_dict(self):
        return {k: (None if v is None or not np.isfinite(v) else float(v))
                for k, v in self.__dict__.items()}


def _legendre(x, order):
    """P_order at the 1-D ``x`` by the Clenshaw loop of numpy 2.4's
    ``legendre.legval``, so bit for bit its value, without importing
    numpy.polynomial (0.9 MB of RSS)."""
    c = np.eye(order + 1)[order][:, None]
    c0, c1 = (c[0], 0) if order == 0 else (c[-2], c[-1])
    for nd in range(order, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def build_design(paradigm: Paradigm, hrf, n_frames, tr_vol, drift_order=1) -> DesignMatrix:
    """Task regressor + intercept + Legendre drifts up to drift_order; a
    design whose Gram matrix is singular is refused (see DesignMatrix)."""
    if n_frames < drift_order + 2:
        raise AnalysisError(f"{n_frames} frames too few for drift order {drift_order}")
    mid = (np.arange(n_frames) + 0.5) * tr_vol
    task = build_bold_timecourse(paradigm, np.clip(mid, 0, paradigm.run_length), hrf=hrf)
    columns = [task]
    names = ["task"]
    u = np.linspace(-1, 1, n_frames)
    for order in range(drift_order + 1):
        columns.append(_legendre(u, order))
        names.append("intercept" if order == 0 else f"drift{order}")
    return DesignMatrix(matrix=np.column_stack(columns), names=names)


# Cephes ndtri's rational approximations, highest power first; the Q
# chains carry the leading 1 that Cephes' p1evl leaves implicit.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2): the central range ends this far from 0 and 1
_SQRT_2PI = 2.50662827463100050242


def _polevl(x, coefs):
    """Horner's rule, highest power first, in Cephes' order of operations."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0):
    """x with standard normal CDF y0: Cephes ``ndtri``, the code behind
    ``scipy.special.ndtri``, ported to numpy with its branches and
    operation order. 0 and 1 give -inf and inf; outside [0, 1] and NaN
    give NaN."""
    y0 = np.asarray(y0, dtype=np.float64)
    x = np.full(y0.shape, np.nan)
    x[y0 == 0.0] = -np.inf
    x[y0 == 1.0] = np.inf
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    centre = y > _EXP_M2
    yc = y[centre] - 0.5
    y2 = yc * yc
    x[centre] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))) * _SQRT_2PI
    tail = (y > 0.0) & ~centre
    r = np.sqrt(-2.0 * np.log(y[tail]))
    u = 1.0 / r
    near = r < 8.0  # y > exp(-32)
    x1 = np.where(near, u * _polevl(u, _NDTRI_P1) / _polevl(u, _NDTRI_Q1),
                  u * _polevl(u, _NDTRI_P2) / _polevl(u, _NDTRI_Q2))
    xt = r - np.log(r) / r - x1
    x[tail] = np.where(upper[tail], xt, -xt)
    return x[()]


def _norm_isf(q):
    """``scipy.stats.norm.isf(q)``: the z with upper tail probability q.
    Adding 0.0 turns the -0.0 at q = 0.5 into 0.0, as scipy.stats does."""
    return -_ndtri(q) + 0.0


_CF_EPS = 1e-15        # relative change of the last factor that ends the fraction
_CF_TINY = 1e-300      # stands in for a zero denominator (modified Lentz)
_CF_MAX_ITERS = 10_000  # 51 steps suffice at dof 1000 and 55 at dof 10^4
_Z_BLOCK = 4096        # masked voxels that glm_fit maps from t to z at a time


def _beta_cf(a, b, x, y):
    """Continued fraction cf of the regularized incomplete beta function,
    I_x(a, b) = x^a y^b cf / (a B(a, b)), for scalars a, b, an array x of
    values in (0, (a + 1) / (a + b + 2)), where it converges in
    O(sqrt(max(a, b))) steps, and y = 1 - x.

    Evaluated by the modified Lentz method (Numerical Recipes, 3rd ed.,
    section 6.4), an even and an odd partial numerator per step. The odd
    one's 1 - k x is, for b <= 1, the sum (1 - k) + k y of two positive
    terms, so x near 1 keeps the digits of y. Only the entries not yet
    converged are iterated, so each entry's value depends on its x alone.
    """
    qab, qap = a + b, a + 1.0

    def one_minus_kx(m, x, y):
        den = (a + 2 * m) * (qap + 2 * m)
        k = (a + m) * (qab + m) / den
        if b <= 1.0:  # 1 - k from its numerator, exact in floating point
            return (a * (1.0 - b) + m * (2.0 * a + 2.0 - b) + 3.0 * m * m) / den + k * y
        return 1.0 - k * x

    cf = np.empty_like(x)
    todo = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 / one_minus_kx(0, x, y)  # at least 2 / (a + b + 2) below the switch point
    h = d.copy()
    m = 0
    while todo.size:
        m += 1
        if m > _CF_MAX_ITERS:
            raise AnalysisError(f"incomplete beta I_x({a}, {b}) did not converge "
                                f"in {_CF_MAX_ITERS} steps")
        aa = m * (b - m) / ((a - 1.0 + 2 * m) * (a + 2 * m)) * x
        pd, pc, r = aa * d, aa / c, one_minus_kx(m, x, y)
        # the even step's d, c are 1 / (1 + pd), 1 + pc; the odd step's
        # (1 + pd) / (r + pd), (r + pc) / (1 + pc); h takes their product
        num, den, c = r + pc, r + pd, 1.0 + pc
        for v in (num, den, c):
            v[np.abs(v) < _CF_TINY] = _CF_TINY
        d, c, delta = (1.0 + pd) / den, num / c, num / den
        h *= delta
        delta -= 1.0
        done = np.abs(delta, out=delta) < _CF_EPS
        if done.any():
            cf[todo[done]] = h[done]
            keep = ~done
            todo, x, y, c, d, h = todo[keep], x[keep], y[keep], c[keep], d[keep], h[keep]
    return cf


def _t_upper_tail(t, dof):
    """P(T > t) for t >= 0 under Student's t with dof degrees of freedom:
    0.5 I_x(dof / 2, 1 / 2) at x = dof / (dof + t^2), or from the
    complement 0.5 (1 - I_(1 - x)(1 / 2, dof / 2)) where the fraction for
    I_x converges slowly. 1 - x is formed as t^2 / (dof + t^2), without
    cancellation. Before any step of the fraction, NaN stays NaN, t whose
    t^2 underflows give 0.5, and t whose t^2 overflows (glm_fit's t never
    does) or whose tail underflows give 0.
    """
    a, b = dof / 2.0, 0.5
    with np.errstate(over="ignore"):
        t2 = t * t
    with np.errstate(invalid="ignore"):  # inf / inf where t^2 = inf
        x = dof / (dof + t2)
        y = t2 / (dof + t2)
    p = np.full(t.shape, np.nan)
    p[y == 0.0] = 0.5
    p[x == 0.0] = 0.0
    live = (x > 0.0) & (y > 0.0)
    x, y = x[live], y[live]
    # ln B(a, 1/2) = ln Gamma(1/2) - ln(Gamma(a + 1/2) / Gamma(a)), the ratio taken whole, not
    # as two lgamma that cancel: from gamma below a = 171, where it overflows, else its series
    ln_ratio = (math.log(math.gamma(a + 0.5) / math.gamma(a)) if a < 171.0 else
                0.5 * math.log(a) - 1 / (8 * a) + 1 / (192 * a ** 3) - 1 / (640 * a ** 5))
    # ln x is -log1p(t^2 / dof), accurate where x is near 1
    front = np.exp(-a * np.log1p(t2[live] / dof) + b * np.log(y) - math.lgamma(0.5) + ln_ratio)
    tail = np.zeros(x.shape)
    direct = (x < (a + 1.0) / (a + b + 2.0)) & (front > 0.0)
    tail[direct] = 0.5 * front[direct] * _beta_cf(a, b, x[direct], y[direct]) / a
    flip = x >= (a + 1.0) / (a + b + 2.0)
    tail[flip] = 0.5 - 0.5 * front[flip] * _beta_cf(b, a, y[flip], x[flip]) / b
    p[live] = tail
    return p


def _t_to_z(t, dof):
    """z with the tail probability of t under Student's t with dof degrees
    of freedom, capped at +-Z_CAP (NaN -> 0).

    The upper tail of |t| is mapped and the sign put back, so both tails
    keep full precision: z agrees with ``scipy.stats.norm.isf(
    scipy.stats.t.sf(t, dof))`` to 1e-12 max(1, |z|).
    """
    t = np.asarray(t, dtype=np.float64)
    z = _norm_isf(_t_upper_tail(np.abs(t), dof))
    z = np.where(t >= 0, z, -z)
    return np.clip(np.nan_to_num(z, posinf=Z_CAP, neginf=-Z_CAP), -Z_CAP, Z_CAP)


class SeriesSums:
    """Running sums of a (n_frames, *dims) magnitude series, fed one frame
    at a time, from which :func:`glm_fit` takes the GLM and :func:`tsnr`
    the tSNR without the series being held.

    Frame t enters as D_t = y_t - y_0, its difference from the first
    frame. The sums kept are sum D, sum D^2 and, with a design, X^T D
    (X the design matrix), each one float64 value per voxel and
    regressor. Taken on the shifted data they keep their accuracy where
    sums of y and y^2 would cancel (Chan, Golub & LeVeque, Am. Stat.
    1983); the design's intercept absorbs the shift. The first and last
    frames are kept as ``first`` and ``last`` in the frame's float dtype
    (float32 from the pipeline), to which every frame is cast exactly; D_t
    is formed in float64, so the sums are those of the float64 frames.
    """

    def __init__(self, design: DesignMatrix | None = None):
        if design is not None:
            if design.n_frames <= design.n_regressors:
                raise AnalysisError("non-positive degrees of freedom")
            if "intercept" not in design.names:
                raise AnalysisError("the design needs an intercept column")
        self.design = design
        self.n = 0
        self.first = self.last = None

    def add(self, frame):
        """Feed the next frame of the series."""
        frame = np.asarray(frame)
        y = np.array(frame, dtype=np.promote_types(frame.dtype, np.float32))
        if self.design is not None and self.n == self.design.n_frames:
            raise AnalysisError(f"series has more frames than the design's "
                                f"{self.design.n_frames}")
        if self.n == 0:
            self.first = y
            self.sum, self.sum_sq = np.zeros(y.size), np.zeros(y.size)
            if self.design is not None:
                self.xtd = np.zeros((self.design.n_regressors, y.size))
        elif y.shape != self.first.shape:
            raise AnalysisError(f"frame of shape {y.shape}, the first is {self.first.shape}")
        d = np.subtract(y, self.first, dtype=np.float64).ravel()
        self.sum += d
        if self.design is not None:
            for xtd, x in zip(self.xtd, self.design.matrix[self.n]):
                xtd += x * d
        np.multiply(d, d, out=d)
        self.sum_sq += d
        self.last = y
        self.n += 1


def _fed(series, design=None) -> SeriesSums:
    """``series`` itself if it is a :class:`SeriesSums`, else a SeriesSums
    under ``design`` fed every frame of the (n_frames, *dims) ``series``."""
    if isinstance(series, SeriesSums):
        return series
    sums = SeriesSums(design)
    for frame in np.asarray(series):
        sums.add(frame)
    return sums


def glm_fit(series, design: DesignMatrix, mask=None) -> StatMap:
    """Voxel-wise OLS with a t test on the task column.

    series is (n_frames, *dims) magnitude data, or the :class:`SeriesSums`
    it was fed to under ``design``. The residual sum of squares is
    sum D^2 - beta . X^T D, clamped at 0. Voxels with zero residual
    variance get t = +-Z_CAP (exact fit) or 0 (constant data). Voxels
    outside ``mask`` get t = z = 0, and only those inside are mapped to z.
    beta is dropped once the effect and the RSS are formed, and sigma^2
    and t are formed in place in the RSS's volume.
    """
    sums = _fed(series, design)
    if sums.design is not design:
        raise AnalysisError("the series sums were fed under another design")
    n, k = design.matrix.shape
    if sums.n != n:
        raise AnalysisError(f"series has {sums.n} frames, design {n}")
    dof = n - k
    xtx_inv = design.xtx_inv
    c = np.zeros(k)
    c[design.names.index("task")] = 1.0
    beta = xtx_inv @ sums.xtd
    effect = c @ beta
    rss = np.einsum("kv,kv->v", beta, sums.xtd)
    del beta
    np.subtract(sums.sum_sq, rss, out=rss)
    denom2 = np.maximum(rss, 0.0, out=rss)
    denom2 /= dof
    denom2 *= float(c @ xtx_inv @ c)
    exact = denom2 <= 1e-30
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.divide(effect, np.sqrt(denom2, out=denom2), out=denom2)
    signed = exact & (np.abs(effect) > 1e-12)
    t[signed] = np.sign(effect[signed]) * Z_CAP
    t[exact & (np.abs(effect) <= 1e-12)] = 0.0
    np.clip(t, -Z_CAP, Z_CAP, out=t)
    # t maps to z voxel by voxel: only the voxels kept, a block at a time
    flat = np.ones(t.shape, bool) if mask is None else np.asarray(mask, dtype=bool).ravel()
    t[~flat] = 0.0
    z = np.zeros_like(t)
    kept = np.flatnonzero(flat)
    for block in np.split(kept, range(_Z_BLOCK, kept.size, _Z_BLOCK)):
        z[block] = _t_to_z(t[block], dof)
    dims = sums.first.shape
    return StatMap(beta=effect.reshape(dims), t=t.reshape(dims),
                   z=z.reshape(dims), dof=dof)


def threshold_detect(statmap: StatMap, p, roi, mask=None) -> DetectionResult:
    """One-sided z threshold at level p against the binarized ROI."""
    if not (0 < p < 1):
        raise AnalysisError("p must be in (0, 1)")
    z_thresh = _norm_isf(p)
    positive = statmap.z > z_thresh
    truth = np.asarray(roi) >= 0.5
    if mask is None:
        mask = np.ones_like(truth, dtype=bool)
    pos, tru = positive[mask], truth[mask]
    tp = int(np.sum(pos & tru))
    fp = int(np.sum(pos & ~tru))
    fn = int(np.sum(~pos & tru))
    tn = int(np.sum(~pos & ~tru))
    return DetectionResult(positive=positive, tp=tp, fp=fp, tn=tn, fn=fn,
                           p_threshold=p)


def precision_recall(statmap: StatMap, roi, mask=None):
    """Precision/recall curve over all z thresholds plus trapezoid AUC.

    The curve is anchored at (recall 0, precision 1) and (recall 1,
    precision = prevalence).
    """
    truth = np.asarray(roi) >= 0.5
    if mask is None:
        mask = np.ones_like(truth, dtype=bool)
    scores = statmap.z[mask]
    labels = truth[mask]
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise AnalysisError("empty ROI: precision/recall undefined")
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    sorted_scores = scores[order]
    tp_cum = np.cumsum(sorted_labels)
    n_pred = np.arange(1, len(sorted_labels) + 1)
    # keep the last index of each distinct score (threshold = that score)
    boundary = np.nonzero(np.diff(sorted_scores) != 0)[0]
    keep = np.concatenate([boundary, [len(sorted_scores) - 1]])
    precision = tp_cum[keep] / n_pred[keep]
    recall = tp_cum[keep] / n_pos
    prevalence = n_pos / labels.size
    recall = np.concatenate([[0.0], recall, [1.0]])
    precision = np.concatenate([[1.0], precision, [prevalence]])
    auc = float(np.trapezoid(precision, recall))
    return {"recall": recall, "precision": precision, "auc": auc}


def bacc(detection: DetectionResult) -> float:
    """Balanced accuracy (TPR + TNR) / 2."""
    if detection.tp + detection.fn == 0 or detection.tn + detection.fp == 0:
        raise AnalysisError("balanced accuracy needs both classes present")
    tpr = detection.tp / (detection.tp + detection.fn)
    tnr = detection.tn / (detection.tn + detection.fp)
    return (tpr + tnr) / 2


def psnr(x, ref):
    """Peak signal-to-noise ratio in dB against max|ref|; inf if identical."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    ref = np.abs(np.asarray(ref, dtype=np.float64))
    if x.shape != ref.shape:
        raise AnalysisError(f"shape mismatch {x.shape} vs {ref.shape}")
    rmse = np.sqrt(np.mean((x - ref) ** 2))
    if rmse == 0:
        return np.inf
    return float(20 * np.log10(ref.max() / rmse))


def _circulant_window(n, window):
    """(n, n) matrix that averages over the wrapped window of side
    ``window`` around each index: entry (i, j) is how often the window of
    i covers j, divided by ``window``."""
    band = np.zeros((n, n))
    rows = np.arange(n)
    for k in range(window):
        band[rows, (rows - window // 2 + k) % n] += 1.0
    return band / window


def _box_mean(a, window):
    """Mean of ``a`` (..., X, Y, Z) over the wrapped cube of side ``window``
    at each voxel, as ``scipy.ndimage.uniform_filter(mode="wrap")`` takes
    it (to rounding), for every leading index. ``a`` is overwritten.

    Each axis is one matrix product with :func:`_circulant_window`,
    written into one of two buffers. That costs 2n flops per voxel on an
    axis of length n: on grids up to the 60 x 71 x 60 of ``s1_epi`` about
    what ``uniform_filter``'s running sums cost, and more on larger ones.
    """
    *lead, nx, ny, nz = a.shape
    out = np.empty(a.shape)
    np.matmul(_circulant_window(nx, window), a.reshape(*lead, nx, ny * nz),
              out=out.reshape(*lead, nx, ny * nz))
    np.matmul(_circulant_window(ny, window), out, out=a)
    np.matmul(a.reshape(-1, nz), _circulant_window(nz, window).T, out=out.reshape(-1, nz))
    return out


def ssim(x, ref, window=7, k1=0.01, k2=0.03):
    """Mean local SSIM with a uniform cubic window; range = max|ref|."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    ref = np.abs(np.asarray(ref, dtype=np.float64))
    if x.shape != ref.shape:
        raise AnalysisError(f"shape mismatch {x.shape} vs {ref.shape}")
    drange = ref.max()
    c1 = (k1 * drange) ** 2
    c2 = (k2 * drange) ** 2
    # local means of x * ref, x^2 + ref^2, x and ref (the two variances
    # enter only through their sum), one field at a time; x and ref become
    # their own means, so at most five volumes are held
    xr = _box_mean(np.multiply(x, ref)[None], window)[0]
    sq = np.multiply(x, x)
    sq += ref * ref
    sq = _box_mean(sq[None], window)[0]
    mu_x = _box_mean(x[None], window)[0]
    del x
    mu_r = _box_mean(ref[None], window)[0]
    del ref
    # num and den in place, each element's operations in the order of
    # (2 mu_xr + c1) (2 (xr - mu_xr) + c2) and (mu_sq + c1) (sq - mu_sq + c2)
    mu_xr = mu_x * mu_r
    num = np.add(np.multiply(2, np.subtract(xr, mu_xr, out=xr), out=xr), c2, out=xr)
    num *= np.add(np.multiply(2, mu_xr, out=mu_xr), c1, out=mu_xr)
    mu_sq = np.add(np.square(mu_x, out=mu_x), np.square(mu_r, out=mu_r), out=mu_x)
    den = np.add(np.subtract(sq, mu_sq, out=sq), c2, out=sq)
    den *= np.add(mu_sq, c1, out=mu_sq)
    return float(np.mean(np.divide(num, den, out=num)))


def tsnr(series, roi=None):
    """Voxel-wise temporal mean / std (unbiased); flags zero-std voxels.

    series is a (n_frames, *dims) array or the :class:`SeriesSums` it was
    fed to. Returns ``(map, roi_mean)``; zero-variance voxels carry inf in
    the map and are excluded from the ROI mean. The map is formed in place
    in the volumes of the mean and the std, so tsnr holds two float64
    volumes and a mask.
    """
    sums = _fed(series)
    if sums.n < 2:
        raise AnalysisError("tSNR needs at least 2 frames")
    # each element's operations in the order of mean = first + mean_d and
    # std = sqrt(max(sum_sq - sum mean_d, 0) / (n - 1)), mean_d = sum / n
    mean_d = sums.sum / sums.n
    std = np.multiply(sums.sum, mean_d)
    np.subtract(sums.sum_sq, std, out=std)
    np.maximum(std, 0.0, out=std)
    std /= sums.n - 1
    np.sqrt(std, out=std)
    tmap = np.add(sums.first.ravel(), mean_d, out=mean_d)
    positive = std > 0
    np.divide(tmap, std, out=tmap, where=positive)
    del std
    tmap[np.logical_not(positive, out=positive)] = np.inf
    tmap = tmap.reshape(sums.first.shape)
    roi_mean = np.nan
    if roi is not None:
        sel = (np.asarray(roi) >= 0.5) & np.isfinite(tmap)
        if sel.any():
            roi_mean = float(tmap[sel].mean())
    return tmap, roi_mean
