"""snakesim benchmark: cost and fidelity of one ``run_pipeline`` call.

    python3 perfbench/run.py --workload epi_acq --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each call is ``snakesim.scenarios.run_pipeline`` on the workload's config
in a fresh process (child.py). Calls run one after another: a closed loop
with one client. Children get BLAS pinned to one thread and
``SNAKE_NJOBS`` set to the workload's worker count.

``--trace 0`` first makes one call at the reference seed; its
``metrics.json`` is checked against reference.json and gives ``auc_pr``
and ``psnr_db``, which are then the same for every ``--seed``. Calls at
``--seed`` follow until ``--seconds`` have passed since the first call
started. ``wall_s``, ``setup_s`` and ``peak_rss_mb`` are medians over all
calls: the reference call does the same amount of work as the others.

``--trace 1`` runs untraced calls at ``--seed`` for ``--seconds``, then
one traced call, and reports the per-layer metrics of spans.py.

Every call's outputs are checked (:func:`check_outputs`), and calls with
one seed must write identical files. Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
LIMIT_S = 170.0         # every invocation must end within 180 s
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SNKD_MAGIC = b"SNKD1"
# artifacts that legitimately differ between calls with one seed
VOLATILE = {"manifest.json", "bench_result.json", "spans.json"}

_call_ids = itertools.count()


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# Child processes


def spawn(workload, seed, out, deadline, workers, trace=False):
    """Run child.py once; its bench_result.json as a dict, or None on failure."""
    env = {**os.environ, **PINNED_ENV, "SNAKE_NJOBS": str(workers),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])}
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workers", str(workers), "--out", str(out)]
    cmd += ["--trace"] * trace
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())],
                              env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"  call timed out after {timeout:.0f} s")
        return None
    if proc.returncode != 0:
        log(f"  call exited with code {proc.returncode}")
        return None
    return json.loads((out / "bench_result.json").read_text())


# ---------------------------------------------------------------------------
# Output check


def snkd_expected_size(path):
    """(header, byte size the SNKD1 header predicts for the whole file)."""
    with open(path, "rb") as f:
        head = f.read(9)
        if head[:5] != SNKD_MAGIC:
            raise ValueError(f"{path}: bad magic {head[:5]!r}")
        hlen = struct.unpack("<I", head[5:9])[0]
        header = json.loads(f.read(hlen).decode())
    counts = header["samples_per_shot"]
    per_coil_frame = sum(counts) if isinstance(counts, list) \
        else counts * header["n_shots_per_frame"]
    return header, 9 + hlen + 8 * header["n_frames"] * header["n_coils"] * per_coil_frame


def check_outputs(out, cfg, reference=None):
    """(problems, metrics.json) of one run; no problems means it is correct.

    ``reference`` is {"values": {...}, "tolerance": {...}} for a call at
    the reference seed.
    """
    manifest = json.loads((out / "manifest.json").read_text())
    if manifest["failed_stage"] is not None:
        return [f"failed_stage {manifest['failed_stage']}: {manifest['error']}"], {}
    problems = []
    metrics = json.loads((out / "metrics.json").read_text())
    for key, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metrics.json {key} = {value!r} is not finite")
    header, expected = snkd_expected_size(out / "kspace.snkd")
    size = (out / "kspace.snkd").stat().st_size
    if size != expected:
        problems.append(f"kspace.snkd is {size} bytes, its header predicts {expected}")
    index = json.loads((out / "series_index.json").read_text())
    frame_counts = {"kspace.snkd header": header["n_frames"],
                    "series_index.json": index["n_frames"],
                    "frame_*.snkv files": len(list(out.glob("frame_*.snkv")))}
    for what, n in frame_counts.items():
        if n != cfg["n_frames"]:
            problems.append(f"{what} has {n} frames, the config {cfg['n_frames']}")
    if reference is not None:
        for key, ref in reference["values"].items():
            tol = reference["tolerance"][key]
            got = metrics.get(key)
            if not isinstance(got, (int, float)) or abs(got - ref) > tol:
                problems.append(f"{key} = {got!r}, reference {ref} +- {tol}")
    return problems, metrics


def outputs_digest(out):
    """SHA-256 over every artifact of a run except the volatile ones."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name not in VOLATILE:
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_call(workload, seed, deadline, workers=workloads.WORKERS, trace=False,
             reference=None):
    """One checked pipeline call.

    ``ran`` is True when the pipeline finished and wrote its metrics, so
    its timings count; ``ok`` is True when its outputs also passed every
    check. The run's directory is removed afterwards; what the metrics
    need is read from it first.
    """
    out = RUNS / f"{workload}-s{seed}-{os.getpid()}-{next(_call_ids)}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        result = spawn(workload, seed, out, deadline, workers, trace=trace)
        if result is None:
            return {"ran": False, "ok": False, "result": None, "problems": ["call failed"]}
        try:
            problems, metrics = check_outputs(out, result["config"], reference)
        except (OSError, ValueError, KeyError) as exc:
            problems, metrics = [f"unreadable outputs: {type(exc).__name__}: {exc}"], {}
        call = {"ran": bool(metrics), "ok": not problems, "result": result,
                "problems": problems, "metrics": metrics, "digest": outputs_digest(out)}
        if trace and call["ran"]:
            with open(out / "objective_traces.csv") as f:
                call["objective_traces"] = [[float(v) for v in line.split(",")[1:] if v]
                                            for line in f.read().splitlines()]
            call["trace"] = json.loads((out / "spans.json").read_text())
            call["dataset_bytes"] = (out / "kspace.snkd").stat().st_size
        return call
    finally:
        shutil.rmtree(out, ignore_errors=True)


def describe(label, call):
    r = call["result"]
    text = (f"  {label}: wall {r['wall_s']:.3f} s, setup {r['setup_s']:.3f} s, "
            f"peak RSS {r['peak_rss_mb']:.1f} MB") if r else f"  {label}: no result"
    log(text + (", outputs ok" if call["ok"] else f", FAILED: {call['problems']}"))


def closed_loop(workload, seed, seconds, deadline, start=None):
    """Calls at ``seed``, each started after the previous ends, until
    ``seconds`` have passed since ``start`` (default: now); at least one."""
    calls = []
    start = time.monotonic() if start is None else start
    while not calls or (time.monotonic() - start < seconds and time.monotonic() < deadline):
        calls.append(run_call(workload, seed, deadline))
        describe(f"call {len(calls)} (seed {seed})", calls[-1])
        if calls[-1]["result"] is None:
            break
    return calls


def consistency_problems(calls):
    digests = {c["digest"] for c in calls if c["ran"]}
    return [] if len(digests) <= 1 else [f"{len(digests)} different outputs from one seed"]


# ---------------------------------------------------------------------------
# Modes


def load_reference(workload):
    ref = json.loads((HERE / "reference.json").read_text())
    if ref["seed"] != workloads.REFERENCE_SEED:
        raise SystemExit("reference.json was made at another seed than REFERENCE_SEED")
    return {"values": ref["workloads"][workload], "tolerance": ref["tolerance"]}


def timed_mode(workload, seed, seconds, deadline):
    """(calls, problems, end-to-end metrics or None), tracing off."""
    start = time.monotonic()
    ref_call = run_call(workload, workloads.REFERENCE_SEED, deadline,
                        reference=load_reference(workload))
    describe(f"reference call (seed {workloads.REFERENCE_SEED})", ref_call)
    calls = closed_loop(workload, seed, seconds, deadline, start)
    good = [c["result"] for c in [ref_call, *calls] if c["ran"]]
    if not ref_call["ran"]:
        return [ref_call, *calls], consistency_problems(calls), None
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in good), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in good), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MB"),
        "auc_pr": (ref_call["metrics"]["auc_pr"], "frac"),
        "psnr_db": (ref_call["metrics"]["psnr_last"], "dB"),
    }
    log(f"  medians over {len(good)} calls")
    return [ref_call, *calls], consistency_problems(calls), metrics


def traced_mode(workload, seed, seconds, deadline):
    """(calls, problems, per-layer metrics or None) from one traced call."""
    calls = closed_loop(workload, seed, seconds, deadline)
    traced = run_call(workload, seed, deadline, trace=True)
    describe(f"traced call (seed {seed})", traced)
    all_calls = [*calls, traced]
    good = [c["result"] for c in calls if c["ran"]]
    if not good or not traced["ran"]:
        return all_calls, consistency_problems(all_calls), None
    r = traced["result"]
    metrics = spans.layer_metrics(
        traced["trace"], r["stage_seconds"], traced["objective_traces"],
        r["config"]["recon"]["max_iters"], workloads.WORKERS, traced["dataset_bytes"],
        untraced_wall_s=statistics.median(g["wall_s"] for g in good),
        traced_wall_s=r["wall_s"])
    return all_calls, consistency_problems(all_calls), metrics


# ---------------------------------------------------------------------------
# Entry point


def environment(seed, calls):
    """What the numbers were measured on, recorded beside every result."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.read_bytes())
    child_env = next((c["result"]["env"] for c in calls if c["result"]), {})
    return {"git_sha": sha or "unknown", "src_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "workers": workloads.WORKERS,
            "blas_threads": 1, "seed": seed, **child_env}


def run_workload(workload, args, deadline):
    """(correct, attempted, failed, metrics or None) of one workload."""
    log(f"{workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}")
    mode = traced_mode if args.trace else timed_mode
    calls, problems, metrics = mode(workload, args.seed, args.seconds, deadline)
    failed = sum(not c["ok"] for c in calls)
    for p in problems:
        log(f"  FAILED: {p}")
    log(f"  environment {json.dumps(environment(args.seed, calls))}")
    log(f"  fail_frac = {failed}/{len(calls)} = {failed / len(calls):.3f}")
    for name, (value, unit) in (metrics or {}).items():
        log(f"  {name} = {value:.6g} {unit}")
    return failed == 0 and not problems, len(calls), failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[
        "all", *workloads.WORKLOADS, *workloads.TINY_WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "snakesim" / "__init__.py").is_file():
        sys.exit(f"no snakesim sources under {ROOT / 'src'}; run from a checkout of the repository")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + LIMIT_S * len(names)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, bad, values = run_workload(name, args, deadline)
        if values is None:
            sys.exit(f"{name}: the pipeline did not finish, so there are no metrics to report")
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
