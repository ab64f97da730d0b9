"""Every import in the package's modules is used.

``__init__.py`` re-exports names on purpose and is skipped, as is any
imported name on a line marked ``# noqa: F401``.
"""

import ast
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
