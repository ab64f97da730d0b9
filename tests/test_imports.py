"""Every import in the package's modules is used, and importing the
package loads no scipy subpackage but ``scipy.special``.

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


def test_import_loads_only_scipy_special():
    """``scipy.stats`` alone drags in linalg, optimize, sparse, spatial,
    integrate, interpolate and fft, about 1 s of every run's set-up."""
    code = "import sys, snakesim; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    subpackages = {m.split(".")[1] for m in loaded if m.startswith("scipy.")}
    # scipy's own private and version modules load with the package itself
    public = {m for m in subpackages if not m.startswith("_") and m != "version"}
    assert public == {"special"}
