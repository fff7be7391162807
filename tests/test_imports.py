"""Every module-level import in ``src/lignn`` is read by its module.

Each module is parsed with ``ast``. A name bound by a top-level ``import`` or
``from ... import`` must appear as a loaded name somewhere in the module
(annotations included). Exempt: ``from __future__`` imports, and names an
``__init__.py`` re-exports through ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import lignn

PACKAGE = Path(lignn.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _bound_imports(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each name bound by a module-level import."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def _dunder_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    if path.name == "__init__.py":
        read |= _dunder_all(tree)
    return [f"{name} (line {line})" for name, line in _bound_imports(tree).items()
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_guard_sees_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os\nimport numpy as np\nfrom typing import Sequence\n\n"
                   "def f(x: Sequence[int]) -> int:\n    return os.getpid()\n")
    assert unused_imports(mod) == ["np (line 3)"]
