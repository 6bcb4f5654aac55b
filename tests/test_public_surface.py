"""The public surface: every exported name has a caller, and the quickstart runs.

A name in a ``src/blakit`` module's ``__all__`` stays in the package only if
the command-line pipeline (``src/blakit`` outside ``__init__.py``), the
benchmark scripts (``perfbench/*.py``) or the README's library quickstart
refers to it.  A name that only the tests use belongs in the tests.
"""

from __future__ import annotations

import ast
import contextlib
import io
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blakit"

# ROADMAP item 2 gives predict_variances its caller: the summary's predicted variances.
AWAITING_CALLER = {"predict_variances"}


def quickstart() -> str:
    """The ``python`` block under the README's ``## Library quickstart``."""
    readme = (ROOT / "README.md").read_text(encoding="utf8")
    section = readme.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def references(tree: ast.AST) -> set[str]:
    """Names read as ``name`` or as ``something.name`` anywhere in ``tree``."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_exported_name_has_a_caller():
    modules = {path: ast.parse(path.read_text(encoding="utf8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    callers = [*modules.values(), ast.parse(quickstart())]
    callers += [ast.parse(path.read_text(encoding="utf8"))
                for path in sorted((ROOT / "perfbench").glob("*.py"))]
    called = set().union(*map(references, callers))
    names = {name for tree in modules.values() for name in exported(tree)}
    assert sorted(names - called - AWAITING_CALLER) == []
    assert AWAITING_CALLER <= names


def test_readme_quickstart_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart(), "README.md quickstart", "exec"), {})
    fraction = float(out.getvalue())
    assert 0.95 <= fraction <= 1.0
