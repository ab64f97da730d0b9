"""The benchmark's tracer (``perfbench/spans.py``) wraps the package's
callables by dotted name, so a renamed or moved callable would leave a
name it cannot wrap; every name it lists must resolve to a callable."""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


@pytest.mark.parametrize("name", spans.TARGETS)
def test_tracer_target_resolves_to_a_callable(name):
    owner, attr = spans._resolve(name)
    assert callable(getattr(owner, attr, None)), name
