"""Detection and quality metrics on reconstructed frame series.

The GLM runs voxel-wise on magnitude volumes; the task regressor is the
paradigm boxcar convolved with the HRF, sampled at frame midpoints, plus
an intercept and optional Legendre drift columns. Detection statistics
are computed against the binarized ground-truth ROI inside a tissue
analysis mask (background voxels would otherwise inflate the true
negative counts for free).

Only ``scipy.special`` is imported: t maps to z through the Student t
CDF ``stdtr`` and the inverse normal CDF ``ndtri``, the same calls
``scipy.stats.t.sf`` and ``scipy.stats.norm.isf`` make, so z and the
detection thresholds are bit-identical to those. SSIM's local means are
wrapped box means, taken as one product with a circulant averaging
matrix per axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre
from scipy.special import ndtri, stdtr

from .phantom import Paradigm, build_bold_timecourse

Z_CAP = 38.0  # largest z before norm.sf underflows
# voxels per chunk of the residual and variance sums: a (n_frames, CHUNK)
# float64 temporary in place of one the size of the series
CHUNK = 4096


class AnalysisError(ValueError):
    pass


@dataclass
class DesignMatrix:
    matrix: np.ndarray     # (n_frames, n_regressors)
    names: list

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


def build_design(paradigm: Paradigm, hrf, n_frames, tr_vol, drift_order=1) -> DesignMatrix:
    """Task regressor + intercept + Legendre drifts up to drift_order."""
    if n_frames < drift_order + 2:
        raise AnalysisError(f"{n_frames} frames too few for drift order {drift_order}")
    mid = (np.arange(n_frames) + 0.5) * tr_vol
    task = build_bold_timecourse(paradigm, np.clip(mid, 0, paradigm.run_length), hrf=hrf)
    columns = [task]
    names = ["task"]
    u = np.linspace(-1, 1, n_frames)
    for order in range(drift_order + 1):
        coef = np.zeros(order + 1)
        coef[order] = 1.0
        columns.append(legendre.legval(u, coef))
        names.append("intercept" if order == 0 else f"drift{order}")
    x = np.column_stack(columns)
    if np.linalg.matrix_rank(x) < x.shape[1]:
        if not np.any(task):
            raise AnalysisError("task regressor is identically zero "
                                "(collinear with the intercept)")
        raise AnalysisError("design matrix is rank deficient")
    return DesignMatrix(matrix=x, names=names)


def _norm_isf(q):
    """``scipy.stats.norm.isf(q)``: the z with upper tail probability q.
    Adding 0.0 turns the -0.0 at q = 0.5 into 0.0, as scipy.stats does."""
    return -ndtri(q) + 0.0


def _t_to_z(t, dof):
    """z with the tail probability of t under Student's t with dof degrees
    of freedom, capped at +-Z_CAP (NaN -> 0).

    The upper tail of |t| is mapped and the sign put back, so both tails
    keep full precision: ``stdtr(dof, -|t|)`` is
    ``scipy.stats.t.sf(|t|, dof)``.
    """
    z = _norm_isf(stdtr(dof, -np.abs(t)))
    z = np.where(t >= 0, z, -z)
    return np.clip(np.nan_to_num(z, posinf=Z_CAP, neginf=-Z_CAP), -Z_CAP, Z_CAP)


def _column_sums_of_squares(y, center):
    """Per column of the (n, V) array y, the sum over rows of
    (y - center(sl))**2, taken CHUNK columns at a time; ``center(sl)``
    gives the (n, len) or (len,) values to subtract from ``y[:, sl]``.
    Each chunk is summed over its rows as numpy sums the whole array, so
    the result is bit-identical to the unchunked expression."""
    out = np.empty(y.shape[1])
    for lo in range(0, y.shape[1], CHUNK):
        sl = slice(lo, lo + CHUNK)
        d = y[:, sl] - center(sl)
        np.multiply(d, d, out=d)
        d.sum(axis=0, out=out[sl])
    return out


def glm_fit(series, design: DesignMatrix, mask=None) -> StatMap:
    """Voxel-wise OLS with a t test on the task column.

    series is (n_frames, *dims) magnitude data. Voxels with zero residual
    variance get t = +-Z_CAP (exact fit) or 0 (constant data).
    """
    series = np.asarray(series, dtype=np.float64)
    if series.shape[0] != design.n_frames:
        raise AnalysisError(
            f"series has {series.shape[0]} frames, design {design.n_frames}"
        )
    dims = series.shape[1:]
    n, k = design.matrix.shape
    dof = n - k
    if dof <= 0:
        raise AnalysisError("non-positive degrees of freedom")
    y = series.reshape(n, -1)
    x = design.matrix
    xtx_inv = np.linalg.inv(x.T @ x)
    beta = xtx_inv @ x.T @ y
    sigma2 = _column_sums_of_squares(y, lambda sl: x @ beta[:, sl]) / dof
    c = np.zeros(k)
    c[design.names.index("task")] = 1.0
    denom2 = sigma2 * float(c @ xtx_inv @ c)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (c @ beta) / np.sqrt(denom2)
    exact = denom2 <= 1e-30
    t[exact & (np.abs(c @ beta) > 1e-12)] = np.sign((c @ beta)[exact & (np.abs(c @ beta) > 1e-12)]) * Z_CAP
    t[exact & (np.abs(c @ beta) <= 1e-12)] = 0.0
    t = np.clip(t, -Z_CAP, Z_CAP)
    z = _t_to_z(t, dof)
    if mask is not None:
        flat = mask.ravel()
        t = np.where(flat, t, 0.0)
        z = np.where(flat, z, 0.0)
    return StatMap(beta=(c @ beta).reshape(dims), t=t.reshape(dims),
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


def precision_recall(statmap: StatMap, roi, mask=None, marker_p=0.001):
    """Precision/recall curve over all z thresholds plus trapezoid AUC.

    The curve is anchored at (recall 0, precision 1) and (recall 1,
    precision = prevalence); a marker point at the z value for marker_p
    is recorded alongside.
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
    z_marker = _norm_isf(marker_p)
    marker_tp = int(np.sum(labels & (scores > z_marker)))
    marker_pred = int(np.sum(scores > z_marker))
    marker = (marker_tp / n_pos,
              marker_tp / marker_pred if marker_pred else 1.0)
    return {"recall": recall, "precision": precision, "auc": auc,
            "marker": marker, "marker_p": marker_p}


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
    # local means of x, ref, x^2 + ref^2 and x * ref: the two variances
    # enter only through their sum
    fields = np.empty((4, *x.shape))
    fields[0], fields[1] = x, ref
    np.multiply(x, x, out=fields[2])
    fields[2] += ref * ref
    np.multiply(x, ref, out=fields[3])
    mu_x, mu_r, sq, xr = _box_mean(fields, window)
    mu_xr = mu_x * mu_r
    mu_sq = mu_x ** 2 + mu_r ** 2
    num = (2 * mu_xr + c1) * (2 * (xr - mu_xr) + c2)
    den = (mu_sq + c1) * (sq - mu_sq + c2)
    return float(np.mean(num / den))


def tsnr(series, roi=None):
    """Voxel-wise temporal mean / std (unbiased); flags zero-std voxels.

    Returns ``(map, roi_mean)``; zero-variance voxels carry inf in the
    map and are excluded from the ROI mean.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.shape[0] < 2:
        raise AnalysisError("tSNR needs at least 2 frames")
    n = len(series)
    mean = series.mean(axis=0)
    # series.std(axis=0, ddof=1), without a second mean or a full-size temporary
    var = _column_sums_of_squares(series.reshape(n, -1), lambda sl: mean.ravel()[sl]) / (n - 1)
    std = np.sqrt(var).reshape(mean.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        tmap = np.where(std > 0, mean / std, np.inf)
    roi_mean = np.nan
    if roi is not None:
        sel = (np.asarray(roi) >= 0.5) & np.isfinite(tmap)
        if sel.any():
            roi_mean = float(tmap[sel].mean())
    return tmap, roi_mean
