"""Every module-level import and private name in ``src/lignn`` is read by
its module.

Each module is parsed with ``ast``. A name bound by a top-level ``import`` or
``from ... import`` must appear as a loaded name somewhere in the module
(annotations included). Exempt: ``from __future__`` imports, and names an
``__init__.py`` re-exports through ``__all__``. A private name (``_x``, not
``__x__``) bound at top level by ``def``, ``class`` or assignment must be
loaded in its module too, so deleting a code path cannot leave its helpers
behind.
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


def _bound_private(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each private name a top-level def, class or assignment binds."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                bound.setdefault(name, node.lineno)
    return bound


def _loaded(tree: ast.Module) -> set[str]:
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _loaded(tree)
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


def unused_private_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _loaded(tree)
    return [f"{name} (line {line})" for name, line in _bound_private(tree).items()
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_private_names(path):
    assert unused_private_names(path) == []


def test_guard_sees_an_unused_private_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("__version__ = '1'\n_USED = 1\n_PAIR, _OTHER = 2, 3\n\n"
                   "def _helper():\n    return _USED + _OTHER\n\n"
                   "class _Orphan:\n    x = _helper()\n")
    assert unused_private_names(mod) == ["_PAIR (line 3)", "_Orphan (line 8)"]
