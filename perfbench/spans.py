"""Outside-in tracing of snakesim and the per-layer metrics derived from it.

:class:`Tracer` replaces each callable in :data:`TARGETS` with a wrapper
that records a span (id, name, start, end, parent id). A callable is
wrapped under the name its caller looks it up by, e.g.
``snakesim.engine.modulated_state`` rather than the definition in
``snakesim.phantom``, so nothing under ``src/`` is edited. Spans are kept
in memory and written out when the run ends.

Engine shots run on pool threads. Each thread keeps its own span stack;
a span opened on a thread with no open span of its own is attributed to
the innermost open span of the main thread, which is the call that
started the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

S = "snakesim.scenarios."
E = "snakesim.engine."
R = "snakesim.recon."

PHANTOM_BUILD = [S + "synthetic_phantom", S + "gre_contrast", S + "contrast_volume",
                 S + "ellipsoid_roi", S + "build_bold_timecourse",
                 E + "gre_contrast", E + "contrast_volume"]
PLAN_BUILD = [S + "gen_epi_3d", S + "gen_spiral", S + "gen_stack_of_spirals",
              S + "load_trajectory_file"]
SHOT = [E + "acquire_shot_basic", E + "acquire_shot_t2s"]
SHOT_BUSY = SHOT + [E + "modulated_state", E + "add_noise"]
FRAME = [R + "cs_solve", R + "adjoint_recon"]
OP, ADJ_OP, LIPSCHITZ = R + "FrameOperator.op", R + "FrameOperator.adj_op", R + "FrameOperator.lipschitz"
WAVELET_FWD = "snakesim.wavelets.WaveletBasis.forward"
WAVELET_INV = "snakesim.wavelets.WaveletBasis.inverse"
GLM = [S + "build_design", S + "glm_fit"]
SCORES = [S + "threshold_detect", S + "precision_recall", S + "bacc", S + "psnr",
          S + "ssim", S + "tsnr"]
RUN_PIPELINE = S + "run_pipeline"
READ_DATASET = "snakesim.io.read_dataset"

TARGETS = [
    RUN_PIPELINE, *PHANTOM_BUILD, *PLAN_BUILD,
    S + "birdcage_coils", S + "run_acquisition", *SHOT_BUSY,
    "snakesim.io.DatasetWriter.append", S + "write_volume", READ_DATASET,
    S + "reconstruct_series", S + "adjoint_series", *FRAME,
    R + "FrameOperator.__init__", OP, ADJ_OP, LIPSCHITZ, R + "sure_threshold",
    WAVELET_FWD, WAVELET_INV, *GLM, *SCORES,
]


def _resolve(name):
    """(owner, attribute) for a dotted name such as ``pkg.mod.Class.meth``."""
    parts = name.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for part in parts[i:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]
    raise ValueError(f"cannot resolve {name!r}")


class Tracer:
    """Thread-safe span recorder that wraps callables in place."""

    def __init__(self):
        self.spans = []       # [id, name, start, end, parent id or None]
        self.shots_planned = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name):
        owner, attr = _resolve(name)
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            try:
                parent = (stack or self._main_stack)[-1]
            except IndexError:
                parent = None
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                with self._lock:
                    self.spans.append([sid, name, start, end, parent])
            if name in PLAN_BUILD and hasattr(result, "shots"):
                with self._lock:
                    self.shots_planned += len(result.shots)
            return result

        setattr(owner, attr, traced)

    def install(self):
        for name in TARGETS:
            self.wrap(name)

    def to_dict(self):
        with self._lock:
            return {"spans": list(self.spans), "shots_planned": self.shots_planned}


# ---------------------------------------------------------------------------
# Span arithmetic


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration minus the part its child spans cover}."""
    children = {}
    for sid, _name, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, _parent in spans:
        inner = [(max(s, start), min(e, end)) for s, e in children.get(sid, [])]
        out[sid] = (end - start) - union_length([iv for iv in inner if iv[1] > iv[0]])
    return out


def percentile(values, q):
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Below 100 samples that percentile is under p90, so the maximum is
    reported instead.
    """
    n = len(values)
    if n < 100:
        return max(values, default=0.0)
    return percentile(values, 100.0 * (1.0 - 10.0 / n))


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(trace, stage_seconds, objective_traces, max_iters, workers,
                  dataset_bytes, untraced_wall_s, traced_wall_s):
    """Per-layer metrics {name: (value, unit)} from one traced run."""
    spans = trace["spans"]

    def pick(*names):
        return [s for s in spans if s[1] in names]

    def busy(*names):
        return sum(s[3] - s[2] for s in pick(*names))

    def calls(*names):
        return len(pick(*names))

    def cover(*names):
        return union_length([(s[2], s[3]) for s in pick(*names)])

    acq = busy(S + "run_acquisition")
    acq_stage = stage_seconds.get("acquisition", 0.0)
    rec_stage = stage_seconds.get("reconstruction", 0.0)
    shot_ms = [1e3 * (s[3] - s[2]) for s in pick(*SHOT)]
    frame_ms = [1e3 * (s[3] - s[2]) for s in pick(*FRAME)]
    iters = sum(max(len(t) - 1, 0) for t in objective_traces)
    solved = [t for t in objective_traces if t]
    converged = sum(1 for t in solved if len(t) - 1 < max_iters)
    restarts = sum(1 for t in solved for a, b in zip(t, t[1:]) if b > a)
    ops = calls(OP) + calls(ADJ_OP)
    selfs = self_times(spans)
    pipeline_self = sum(selfs[s[0]] for s in pick(RUN_PIPELINE))

    m = {
        "engine.shot.calls": (calls(*SHOT), "count"),
        "engine.shot_s": (busy(*SHOT), "s"),
        "engine.shot_ms.p50": (percentile(shot_ms, 50), "ms"),
        "engine.shot_ms.tail": (tail(shot_ms), "ms"),
        "engine.noise_s": (busy(E + "add_noise"), "s"),
        "engine.acquisition_s": (acq, "s"),
        "engine.shots_per_s": (calls(*SHOT) / acq if acq else 0.0, "1/s"),
        "engine.pool_busy_frac": (busy(*SHOT_BUSY) / (workers * acq) if acq else 0.0, "frac"),
        "engine.cover_frac": (cover(*SHOT_BUSY) / acq_stage if acq_stage else 0.0, "frac"),
        "phantom.build_s": (busy(*PHANTOM_BUILD), "s"),
        "phantom.modulated_state.calls": (calls(E + "modulated_state"), "count"),
        "phantom.modulated_state_s": (busy(E + "modulated_state"), "s"),
        "trajectories.plan_s": (busy(*PLAN_BUILD), "s"),
        "trajectories.shots": (trace["shots_planned"], "count"),
        "io.append.calls": (calls("snakesim.io.DatasetWriter.append"), "count"),
        "io.append_s": (busy("snakesim.io.DatasetWriter.append"), "s"),
        "io.dataset_bytes": (dataset_bytes, "bytes"),
        "io.write_volume_s": (busy(S + "write_volume"), "s"),
        "io.read_dataset_s": (busy(READ_DATASET), "s"),
        "recon.frames": (calls(*FRAME), "count"),
        "recon.frame_ms.p50": (percentile(frame_ms, 50), "ms"),
        "recon.frame_ms.tail": (tail(frame_ms), "ms"),
        "recon.operator_builds": (calls(R + "FrameOperator.__init__"), "count"),
        "recon.op.calls": (calls(OP), "count"),
        "recon.op_s": (busy(OP), "s"),
        "recon.adj_op.calls": (calls(ADJ_OP), "count"),
        "recon.adj_op_s": (busy(ADJ_OP), "s"),
        "recon.lipschitz.calls": (calls(LIPSCHITZ), "count"),
        "recon.lipschitz_s": (busy(LIPSCHITZ), "s"),
        "recon.sure_s": (busy(R + "sure_threshold"), "s"),
        "recon.iters": (iters, "count"),
        "recon.converged_frac": (converged / len(solved) if solved else 0.0, "frac"),
        "recon.restarts": (restarts, "count"),
        "recon.ops_per_iter": (ops / iters if iters else 0.0, "count"),
        "recon.cover_frac": (cover(OP, ADJ_OP, LIPSCHITZ, WAVELET_FWD, WAVELET_INV) / rec_stage
                             if rec_stage else 0.0, "frac"),
        "wavelets.forward.calls": (calls(WAVELET_FWD), "count"),
        "wavelets.forward_s": (busy(WAVELET_FWD), "s"),
        "wavelets.inverse.calls": (calls(WAVELET_INV), "count"),
        "wavelets.inverse_s": (busy(WAVELET_INV), "s"),
        "analysis.glm_s": (busy(*GLM), "s"),
        "analysis.metrics_s": (busy(*SCORES), "s"),
        "scenarios.acquisition_s": (acq_stage, "s"),
        "scenarios.reconstruction_s": (rec_stage, "s"),
        "scenarios.analysis_s": (stage_seconds.get("analysis", 0.0), "s"),
        "scenarios.self_s": (pipeline_self, "s"),
        "trace.overhead_frac": (traced_wall_s / untraced_wall_s - 1.0, "frac"),
    }
    return m
