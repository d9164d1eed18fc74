"""Import hygiene: no crftrack module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import crftrack

NOQA = "# noqa: F401"
MODULES = sorted(p for p in Path(crftrack.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module-level imports of `source` that no expression reads.

    A statement with NOQA on one of its lines holds re-exports and is skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any(NOQA in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.extend((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_detector_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from .factor_graph import (BpConfig,\n"
              "                           infer)\n"
              "from .crf_model import KEPT  # noqa: F401\n"
              "def f(config: BpConfig) -> str:\n"
              "    return os.path.join(str(np.e), '')\n")
    assert unused_imports(source) == ["infer"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
