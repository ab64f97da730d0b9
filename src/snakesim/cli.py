"""Command line entry points.

Exit codes: 0 success, 2 validation error (bad config, bad file, bad
arguments) or a file that cannot be read or written (any OSError, as a
missing file or an ``--out`` that is a regular file), printed as
``error: ...`` with no traceback, 3 pipeline stage failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import yaml

from .io import canonical_json, read_trajectory
from .phantom import SequenceParams
from .scenarios import ConfigError, RunConfig, preset, run_pipeline
from .trajectories import (gen_epi_3d, gen_spiral, gen_stack_of_spirals,
                           save_trajectory_file)

# every project error (ConfigError, FormatError, ...) subclasses ValueError;
# OSError covers FileNotFoundError, FileExistsError and the like
_VALIDATION_ERRORS = (ValueError, OSError)

# the variables that set the thread count of numpy's BLAS
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _build_parser():
    parser = argparse.ArgumentParser(prog="snake",
                                     description="fMRI k-space simulation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a full pipeline from a config")
    run.add_argument("config", help="YAML config path or preset name")
    run.add_argument("--scale", type=float, default=1.0,
                     help="shrink factor for preset runs (0, 1]")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default="run_out")
    run.add_argument("--trajectory", default=None,
                     help="trajectory file for external presets")
    run.add_argument("--jobs", type=int, default=None,
                     help="worker threads for frames too large to batch (default 1); "
                          "results do not depend on it")

    pre = sub.add_parser("preset", help="print a preset config as YAML")
    pre.add_argument("name")
    pre.add_argument("--scale", type=float, default=1.0)
    pre.add_argument("--trajectory", default=None)

    met = sub.add_parser("metrics", help="print the metrics of a finished run, "
                                          "its peak RSS per stage and, for CS, its "
                                          "frames per solver stop and restarts")
    met.add_argument("run_dir")

    traj = sub.add_parser("traj", help="trajectory file tools")
    tsub = traj.add_subparsers(dest="traj_command", required=True)

    gen = tsub.add_parser("gen", help="generate a trajectory file")
    gen.add_argument("out")
    gen.add_argument("--kind", choices=["epi3d", "stack_of_spirals"],
                     default="epi3d")
    gen.add_argument("--dims", type=int, nargs=3, default=[32, 32, 32])
    gen.add_argument("--tr-shot-ms", type=float, default=50.0)
    gen.add_argument("--t-obs-ms", type=float, default=25.0)
    gen.add_argument("--dwell-us", type=float, default=10.0)
    gen.add_argument("--af", type=float, default=4.0)
    gen.add_argument("--center-fraction", type=float, default=0.1)
    gen.add_argument("--spiral-samples", type=int, default=256)
    gen.add_argument("--seed", type=int, default=1234)

    ins = tsub.add_parser("inspect", help="summarize a trajectory file")
    ins.add_argument("path")
    return parser


def _cmd_run(args):
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    seed = {} if args.seed is None else {"seed": args.seed}
    if not Path(args.config).is_file():
        config = preset(args.config, scale=args.scale, trajectory_path=args.trajectory, **seed)
    elif args.scale != 1.0:
        raise ConfigError("--scale applies to preset names, not config files")
    else:
        data = yaml.safe_load(Path(args.config).read_text())
        if isinstance(data, dict):
            data.update(seed)
            if args.trajectory and isinstance(data.get("trajectory"), dict):
                data["trajectory"]["path"] = args.trajectory
        config = RunConfig.from_dict(data)
    workers = args.jobs or 1
    if workers > 1 and not any(name in os.environ for name in _BLAS_THREADS):
        print(f"warning: {workers} worker threads and no BLAS thread count set: "
              "set OPENBLAS_NUM_THREADS=1 so the workers' BLAS calls do not "
              "oversubscribe the cores (README, Quick start)", file=sys.stderr)
    manifest = run_pipeline(config, args.out, n_jobs=args.jobs)
    print(canonical_json(manifest.to_dict()))
    return 3 if manifest.failed_stage else 0


def _cmd_preset(args):
    config = preset(args.name, scale=args.scale,
                    trajectory_path=args.trajectory)
    sys.stdout.write(config.to_yaml())
    return 0


def _cmd_metrics(args):
    path = Path(args.run_dir) / "metrics.json"
    if not path.is_file():
        raise ConfigError(f"no metrics.json under {args.run_dir}")
    report = json.loads(path.read_text())
    manifest = Path(args.run_dir) / "manifest.json"
    if manifest.is_file():
        report["peak_rss_mb"] = json.loads(manifest.read_text()).get("peak_rss_mb", {})
    index = Path(args.run_dir) / "series_index.json"
    index = json.loads(index.read_text()) if index.is_file() else {}
    if "stop" in index:  # a CS run: how its frames' solves ended
        report["solver"] = {"frames_by_stop": dict(Counter(index["stop"])),
                            "restarts": sum(index["restarts"])}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_traj_gen(args):
    dims = tuple(args.dims)
    seq = SequenceParams(tr_shot=args.tr_shot_ms, te=args.tr_shot_ms / 2,
                         flip_angle=12.0, t_obs=args.t_obs_ms)
    if args.kind == "epi3d":
        plan = gen_epi_3d(dims, seq)
    else:
        spiral = gen_spiral(dims[:2], args.spiral_samples)
        plan = gen_stack_of_spirals(
            spiral, dims[2], af=args.af, center_fraction=args.center_fraction,
            dynamic=False, n_frames=1, seed=args.seed,
            tr_shot_s=seq.tr_shot_s, t_obs_s=seq.t_obs_s, dims=dims)
    save_trajectory_file(args.out, plan, dwell_time_us=args.dwell_us)
    print(f"wrote {args.out}: {len(plan.shots)} shots, "
          f"{plan.shots[0].points.shape[0]} samples/shot")
    return 0


def _cmd_traj_inspect(args):
    shots, dwell_us, tr_ms = read_trajectory(args.path)
    pts = np.concatenate(shots)
    info = {"n_shots": len(shots), "samples_per_shot": int(shots[0].shape[0]),
            "ndims": int(pts.shape[1]), "dwell_time_us": float(dwell_us),
            "tr_shot_ms": float(tr_ms),
            "kmin": [float(v) for v in pts.min(axis=0)],
            "kmax": [float(v) for v in pts.max(axis=0)]}
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "traj":
            if args.traj_command == "gen":
                return _cmd_traj_gen(args)
            return _cmd_traj_inspect(args)
    except _VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
