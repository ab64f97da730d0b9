"""One snakesim pipeline call in a fresh process, and what it cost.

run.py starts this script once per call, so set-up time and peak memory
belong to a single ``run_pipeline`` call. It writes ``bench_result.json``
(and ``spans.json`` when traced) next to the pipeline's artifacts in
``--out``; run.py checks those artifacts and derives the metrics.

    python3 perfbench/child.py --workload epi_acq --seed 1 --workers 2 \
        --out DIR --spawned-at <time.monotonic() of the parent> [--trace]

``--spawned-at`` is read from CLOCK_MONOTONIC, which every process on the
machine shares, so set-up time counts interpreter start-up as well.
"""

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path


def _env():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import workloads
    from snakesim import scenarios
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(scenarios.__file__).resolve().parents:
        sys.exit(f"snakesim imported from {scenarios.__file__}, not from {src}")
    config = scenarios.RunConfig.from_dict(workloads.make_config(args.workload, args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    entered = time.monotonic()
    manifest = scenarios.run_pipeline(config, out, n_jobs=args.workers)
    result = {"setup_s": entered - args.spawned_at, "wall_s": time.monotonic() - entered,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "stage_seconds": manifest.stage_seconds}
    if tracer is not None:
        if manifest.failed_stage is None:
            # read the dataset back so reads are measured beside writes
            from snakesim import io
            io.read_dataset(out / "kspace.snkd")
        (out / "spans.json").write_text(json.dumps(tracer.to_dict()))
    result.update(config=config.raw, env=_env())
    (out / "bench_result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
