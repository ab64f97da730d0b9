"""Self-test of the benchmark on seconds-long configs.

    python3 perfbench/selftest.py

Checks that run.py reports every metric BENCHMARK.json names, with its
unit, in both modes; that the traced counts obey invariants a correct
optimisation cannot break; that ``kspace.snkd`` and the other artifacts
are bit-identical at 1 and 2 workers through the benchmark's own runner;
that the reference check rejects a wrong value; and that run.py refuses
to run without the program's sources. It does not pin ``op``/``adj_op``
counts, which an operator change may alter on purpose.
Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
import time

import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def run_script(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_result_line(workload, trace):
    """run.py's last line has the contract's keys and every metric with its unit."""
    proc = run_script(["--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace)])
    check(proc.returncode == 0, f"{workload} --trace {trace} exits 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} --trace {trace} result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} --trace {trace} outputs correct")
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == wanted, f"{workload} --trace {trace} reports exactly the "
                         f"{len(wanted)} named metrics with their units")


def check_invariants(workload):
    """Traced counts at 1 and 2 workers, and bit-identical outputs."""
    digests = {}
    for workers in (1, 2):
        call = run.run_call(workload, 7, time.monotonic() + 120, workers=workers, trace=True)
        check(call["ok"], f"{workload} traced call at {workers} worker(s) is correct")
        digests[workers] = call["digest"]
        r = call["result"]
        cfg = r["config"]
        m = {k: v for k, (v, _unit) in spans.layer_metrics(
            call["trace"], r["stage_seconds"], call["objective_traces"],
            cfg["recon"]["max_iters"], workers, call["dataset_bytes"],
            untraced_wall_s=r["wall_s"], traced_wall_s=r["wall_s"]).items()}
        planned = cfg["n_frames"] * cfg["trajectory"]["n_shots_per_frame"]
        check(m["engine.shot.calls"] == m["trajectories.shots"] == planned,
              f"traced shots {m['engine.shot.calls']} = plan shots {planned}")
        check(m["io.append.calls"] == planned * cfg["n_coils"], "one append per shot and coil")
        if cfg["recon"]["method"] == "cs":
            passes = 2 if cfg["recon"]["strategy"] == "refined" else 1
            check(m["recon.frames"] == passes * cfg["n_frames"],
                  f"cs_solve calls {m['recon.frames']} = {passes} x frames")
            check(all(len(t) - 1 <= cfg["recon"]["max_iters"] for t in call["objective_traces"]),
                  "iterations per frame <= max_iters")
        else:
            check(m["recon.frames"] == cfg["n_frames"], "one adjoint recon per frame")
        trace = call["trace"]["spans"]
        selfs = sum(spans.self_times(trace).values())
        roots = sum(s[3] - s[2] for s in trace if s[4] is None)
        check(selfs <= workers * roots + 1e-6,
              f"summed self time {selfs:.3f} s <= {workers} x root spans {roots:.3f} s")
    check(digests[1] == digests[2],
          f"{workload} kspace.snkd and every other artifact identical at 1 and 2 workers")


def check_reference_rejects(workload):
    reference = run.load_reference(workload)
    wrong = {key: value + 2 * reference["tolerance"][key]
             for key, value in reference["values"].items()}
    call = run.run_call(workload, workloads.REFERENCE_SEED, time.monotonic() + 120,
                        reference={**reference, "values": wrong})
    check(not call["ok"] and len(call["problems"]) == len(wrong),
          f"{workload} reference check flags every value moved by twice its tolerance")


def check_refuses_without_sources():
    bare = run.RUNS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = run_script(["--workload", "epi_acq", "--seed", "1", "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/ run.py exits non-zero and prints no result")


def main():
    names = {w["name"] for w in BENCHMARK["workloads"]}
    check(names == set(workloads.WORKLOADS), "BENCHMARK.json lists the workloads of workloads.py")
    for workload in workloads.TINY_WORKLOADS:
        check_invariants(workload)
    check_reference_rejects("tiny_epi")
    for trace in (0, 1):
        check_result_line("tiny_cs_refined", trace)
    check_refuses_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
