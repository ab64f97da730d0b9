"""Byte-identity as a committed check.

The five benchmark configs of ``perfbench/workloads.py`` run at seed 1234
at one and two workers, and every artifact but ``manifest.json`` must
have the sha256 committed in ``tests/golden/<build>.json``. The bits rest
on numpy, its BLAS and the machine, which name the build. On a build with
no file the test skips, and its message holds the build key and the full
entry to commit. A change that moves artifacts on purpose updates the
file in the same commit; one that claims byte-identity leaves it as it is.

    python tests/test_golden.py    # prints this build's entry as JSON
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = ("epi_acq", "sos_static_cs", "sos_dynamic_t2s_warm", "tiny_epi", "tiny_cs_refined")
SEED = 1234
VOLATILE = "manifest.json"  # its stage seconds and peaks differ between runs


def build_key():
    """numpy's version, its BLAS library and the machine type."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"numpy-{np.__version__}_{blas.get('name', 'unknown')}-"
            f"{blas.get('version', 'unknown')}_{platform.machine()}")


def checksums(name, out, n_jobs):
    """{file name: sha256} of every artifact but the manifest of config
    ``name`` run at SEED with ``n_jobs`` workers in ``out``."""
    from snakesim.scenarios import RunConfig, run_pipeline
    manifest = run_pipeline(RunConfig.from_dict(workloads.make_config(name, SEED)), out,
                            n_jobs=n_jobs)
    assert manifest.failed_stage is None, f"{name}: {manifest.error}"
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir()) if path.name != VOLATILE}


def entry(out_root):
    """This build's entry: every config's checksums at one worker."""
    return {"build": build_key(), "seed": SEED,
            "configs": {name: checksums(name, Path(out_root) / name, 1) for name in CONFIGS}}


def first_difference(got, want):
    """The first file name, in sorted order, whose checksum differs or that
    only one side has; None if the two agree."""
    return next((name for name in sorted(set(got) | set(want))
                 if got.get(name) != want.get(name)), None)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    path = GOLDEN / f"{build_key()}.json"
    if not path.is_file():
        text = json.dumps(entry(tmp_path_factory.mktemp("entry")), indent=1, sort_keys=True)
        pytest.skip(f"no golden checksums for build {build_key()}; "
                    f"commit this as tests/golden/{build_key()}.json:\n{text}")
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", CONFIGS)
def test_artifacts_match_the_golden_checksums(name, golden, tmp_path):
    want = golden["configs"][name]
    for n_jobs in (1, 2):
        got = checksums(name, tmp_path / f"jobs{n_jobs}", n_jobs)
        differs = first_difference(got, want)
        assert differs is None, (f"{name} at n_jobs {n_jobs}: {differs} differs from "
                                 f"tests/golden/{build_key()}.json "
                                 f"({got.get(differs)} against {want.get(differs)})")


def test_first_difference_names_the_first_file_that_differs():
    want = {"a.snkv": "1", "b.snkv": "2", "c.snkv": "3"}
    assert first_difference(dict(want), want) is None
    assert first_difference({**want, "c.snkv": "x", "b.snkv": "y"}, want) == "b.snkv"
    assert first_difference({"a.snkv": "1", "c.snkv": "3"}, want) == "b.snkv"
    assert first_difference({**want, "0.snkv": "0"}, want) == "0.snkv"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(entry(tmp), indent=1, sort_keys=True))
