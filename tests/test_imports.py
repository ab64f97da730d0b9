"""Every import in the package's modules is used, none takes a sibling
module's private name, and neither importing
the package nor running its pipeline loads any module of scipy, nor
running it numpy.ma, concurrent.futures or numpy.polynomial.

``__init__.py`` re-exports names on purpose and is skipped, as is any
imported name on a line marked ``# noqa: F401``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "snakesim"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """[(line, name)] of the names ``source`` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    # an attribute chain such as np.fft.fftn starts at the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_checker_flags_unused_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "import xml.dom\n"
              "from json import (dumps,\n"
              "                  loads)  # noqa: F401\n"
              "from math import pi\n"
              "x: np.ndarray = xml.dom.Node\n"
              "def f():\n"
              "    return dumps(pi)\n")
    assert unused_imports(source) == [(2, "os")]


def private_sibling_imports(source):
    """[(line, name)] of the ``_``-names, dunders aside, that ``source``
    imports from a sibling module (``from .<module> import _name``)."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__"))


@pytest.mark.parametrize("module", MODULES)
def test_no_private_sibling_imports(module):
    assert private_sibling_imports((PACKAGE / module).read_text()) == []


def test_checker_flags_private_sibling_imports():
    source = ("from . import __version__\n"
              "from .recon import (ReconConfig,\n"
              "                    _worker_count)\n"
              "from os import _exit\n"
              "def f():\n"
              "    from .io import _fields\n")
    assert private_sibling_imports(source) == [(2, "_worker_count"), (6, "_fields")]


NO_SCIPY = """
import sys, tempfile
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import snakesim
print("import", *scipy_modules())
import workloads
from snakesim import cli, scenarios  # noqa: F401
with tempfile.TemporaryDirectory() as out:
    for workload in ("tiny_epi", "tiny_cs_refined"):
        config = scenarios.RunConfig.from_dict(workloads.make_config(workload, 1234))
        manifest = scenarios.run_pipeline(config, Path(out) / workload)
        assert manifest.failed_stage is None, manifest.error
print("run", *scipy_modules())
print(*(name for name in ("numpy.ma", "concurrent.futures", "numpy.polynomial")
        if name in sys.modules))
"""


def test_no_scipy_module_is_loaded():
    """Importing scipy.special alone loads about 300 modules and adds about
    0.3 s and 26 MB to every run's set-up; the package uses none of scipy.
    Checked after the import and again after two tiny pipeline runs (an
    adjoint EPI and a refined CS one), so a lazy import is caught too.
    Neither run loads numpy.ma either: its import costs about 19 ms, and
    np.median and np.unique of integers take it on first use. Nor
    concurrent.futures, which only the frame pool needs, or
    numpy.polynomial, whose Legendre evaluation the design copies: the
    two cost about 1.1 MB of RSS together."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), str(PACKAGE.parents[1] / "perfbench")])}
    lines = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env, check=True,
                           capture_output=True, text=True).stdout.splitlines()
    assert lines == ["import", "run", ""]
