"""The benchmark's tracer (``perfbench/spans.py``) wraps the package's
callables by dotted name, so a renamed or moved callable would leave a
name it cannot wrap; every name it lists must resolve to a callable."""

import sys
import threading
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


@pytest.mark.parametrize("name", spans.TARGETS)
def test_tracer_target_resolves_to_a_callable(name):
    owner, attr = spans._resolve(name)
    assert callable(getattr(owner, attr, None)), name


# Traced names that no pipeline run calls under the name the tracer wraps
NEVER_FIRED = {
    # imported into the engine only so the tracer can wrap it (ROADMAP item 11)
    "snakesim.engine.modulated_state",
    # the engine binds the name at import; child.py reads the dataset after the run
    "snakesim.io.read_dataset",
    # only a run on an external trajectory file loads one
    "snakesim.scenarios.load_trajectory_file",
    # run_acquisition takes both models through acquire_shot_t2s, so the
    # engine.shot metrics, which sum both names, count every shot
    "snakesim.engine.acquire_shot_basic",
}


def test_every_traced_name_fires_in_a_pipeline_run(monkeypatch, tmp_path):
    """A name that resolves but that the pipeline never calls by it leaves a
    span, and the metrics built on it, that stay empty."""
    import workloads
    from snakesim import scenarios

    for name in spans.TARGETS:
        # saved first so the tracer's wrappers are undone after the test
        monkeypatch.setattr(*spans._resolve(name), getattr(*spans._resolve(name)))
    tracer = spans.Tracer()
    tracer.install()
    for workload in ("tiny_epi", "tiny_cs_refined"):
        # looked up on the module, as child.py does, so the wrapper runs
        config = scenarios.RunConfig.from_dict(workloads.make_config(workload, 1234))
        manifest = scenarios.run_pipeline(config, tmp_path / workload)
        assert manifest.failed_stage is None, manifest.error
    fired = {span[1] for span in tracer.spans}
    assert set(spans.TARGETS) - fired == NEVER_FIRED


def test_tiny_cs_refined_spans_nest_on_the_main_thread(monkeypatch, tmp_path):
    """At one worker every span of tiny_cs_refined is opened on the main
    thread and ends no later than its parent. A span opened on another
    thread is attributed to the main thread's innermost open span, which it
    can outlast; the self-test's bound on summed self time then breaks."""
    import workloads
    from snakesim import scenarios

    for name in spans.TARGETS:
        monkeypatch.setattr(*spans._resolve(name), getattr(*spans._resolve(name)))
    tracer = spans.Tracer()
    threads, stack = set(), tracer._stack
    tracer._stack = lambda: threads.add(threading.current_thread()) or stack()
    tracer.install()
    config = scenarios.RunConfig.from_dict(workloads.make_config("tiny_cs_refined", 7))
    manifest = scenarios.run_pipeline(config, tmp_path / "run", n_jobs=1)
    assert manifest.failed_stage is None, manifest.error
    assert threads == {threading.main_thread()}
    ends = {sid: end for sid, _name, _start, end, _parent in tracer.spans}
    assert all(end <= ends[parent] for _sid, _name, _start, end, parent in tracer.spans
               if parent is not None)
