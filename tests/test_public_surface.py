"""The public surface: every exported name and knob has a caller, and the quickstart runs.

A name in a ``src/blakit`` module's ``__all__`` stays in the package only if
the command-line pipeline (``src/blakit`` outside ``__init__.py``), the
benchmark scripts (``perfbench/*.py``) or the README's library quickstart
refers to it.  A name that only the tests use belongs in the tests.  So does
a defaulted parameter of an exported name that none of those callers passes
with a value other than its default, and a public method, property or
classmethod of an exported class that none of them refers to outside that
class's own body; a ``"Class.method"`` that the benchmark's tracer wraps
(``METHODS`` in ``perfbench/tracer.py``) counts as a reference.  Likewise a
public field of an exported dataclass that none of them reads as
``something.field`` outside the class's own body.
"""

from __future__ import annotations

import ast
import contextlib
import io
import pathlib
import re
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blakit"

# ROADMAP item 3 gives predict_variances its caller: the summary's predicted variances.
AWAITING_CALLER = {"predict_variances"}
# ROADMAP item 8's run-stats file gives the closed loop's residual its reader.
AWAITING_READER = {"ClosedLoopRecord.steady_state_residual"}


def quickstart() -> str:
    """The ``python`` block under the README's ``## Library quickstart``."""
    readme = (ROOT / "README.md").read_text(encoding="utf8")
    section = readme.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def references(tree: ast.AST, outside: ast.AST | None = None) -> set[str]:
    """Names read as ``name`` or as ``something.name`` anywhere in ``tree``
    except inside its subtree ``outside``."""
    names, nodes = set(), [tree]
    while nodes:
        node = nodes.pop()
        if node is outside:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        nodes.extend(ast.iter_child_nodes(node))
    return names


def assigned(tree: ast.Module, name: str, default):
    """The literal that ``tree``'s top level assigns to ``name``, else ``default``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    return default


def exported(tree: ast.Module) -> list[str]:
    return assigned(tree, "__all__", [])


def package_modules(package: pathlib.Path = PACKAGE) -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf8"))
            for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]


def outside_callers() -> list[ast.Module]:
    """The quickstart and the benchmark scripts."""
    return [ast.parse(quickstart()), *(ast.parse(path.read_text(encoding="utf8"))
                                       for path in sorted((ROOT / "perfbench").glob("*.py")))]


def callers(package: pathlib.Path = PACKAGE) -> list[ast.Module]:
    """The pipeline's modules, the benchmark scripts and the quickstart."""
    return [*package_modules(package), *outside_callers()]


def test_every_exported_name_has_a_caller():
    modules = package_modules()
    called = set().union(*map(references, callers()))
    names = {name for tree in modules for name in exported(tree)}
    assert sorted(names - called - AWAITING_CALLER) == []
    assert AWAITING_CALLER <= names


def decorator_names(node: ast.ClassDef | ast.FunctionDef) -> set[str]:
    """Names of ``node``'s decorators; ``@dataclass(...)`` gives ``dataclass``."""
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return {d.id for d in decorators if isinstance(d, ast.Name)}


def signature(node: ast.FunctionDef, bound: bool) -> list[tuple]:
    """``(parameter, position, default)`` for each defaulted parameter of ``node``.

    ``position`` indexes the call's positional arguments (after ``self`` or
    ``cls`` when ``bound``); it is None for a keyword-only parameter.
    """
    positional = [*node.args.posonlyargs, *node.args.args][bound:]
    first = len(positional) - len(node.args.defaults)
    out = [(arg.arg, first + i, default)
           for i, (arg, default) in enumerate(zip(positional[first:], node.args.defaults))]
    return out + [(arg.arg, None, default) for arg, default
                  in zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None]


def dataclass_fields(node: ast.ClassDef) -> list[tuple]:
    """``(field, position, default)`` for each defaulted field that ``__init__`` takes."""
    out = []
    position = 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        default = stmt.value
        if isinstance(default, ast.Call) and getattr(default.func, "id", None) == "field":
            options = {kw.arg: kw.value for kw in default.keywords}
            if "init" in options and not ast.literal_eval(options["init"]):
                continue
            default = options.get("default", options.get("default_factory"))
        if default is not None:
            out.append((stmt.target.id, position, default))
        position += 1
    return out


def defaulted_parameters(tree: ast.Module) -> list[tuple]:
    """``(call name, label, parameter, position, default)`` for every defaulted
    parameter of the module's exported functions and classes: dataclass
    fields, ``__init__`` and the public methods.  Other dunder methods are
    left out; a call through an instance cannot name them."""
    out = []
    names = set(exported(tree))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            out += [(node.name, node.name, *p) for p in signature(node, bound=False)]
        elif isinstance(node, ast.ClassDef) and node.name in names:
            constructor = dataclass_fields(node) if "dataclass" in decorator_names(node) else []
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                parameters = signature(method, "staticmethod" not in decorator_names(method))
                if method.name == "__init__":
                    constructor += parameters
                elif not method.name.startswith("_"):
                    out += [(method.name, f"{node.name}.{method.name}", *p) for p in parameters]
            out += [(node.name, node.name, *p) for p in constructor]
    return out


def calls(tree: ast.Module):
    """``(name, call)`` for every call of a name or attribute; ``cls(...)`` in a
    class body is a call to that class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, call) for call in ast.walk(node)
                        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "cls")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            yield node.func.id, node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node.func.attr, node


def same_literal(value: ast.expr, default: ast.expr) -> bool:
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except ValueError:
        return False


def passes(call: ast.Call, parameter: str, position: int | None, default: ast.expr) -> bool:
    """Whether ``call`` may give ``parameter`` a value other than its default.

    By keyword or by position, unless the value is a literal equal to the
    default; a call with ``*args`` or ``**mapping`` may give every parameter.
    """
    if (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg is None for kw in call.keywords)):
        return True
    values = [kw.value for kw in call.keywords if kw.arg == parameter]
    if position is not None and position < len(call.args):
        values.append(call.args[position])
    return any(not same_literal(value, default) for value in values)


def unpassed_parameters(package: pathlib.Path = PACKAGE) -> list[str]:
    """``label(parameter=)`` for each defaulted parameter of an exported name
    that no caller passes; calls resolve by name alone."""
    targets = {}
    for tree in package_modules(package):
        for name, *parameter in defaulted_parameters(tree):
            targets.setdefault(name, []).append(parameter)
    unpassed = {(label, parameter)
                for parameters in targets.values() for label, parameter, *_ in parameters}
    for tree in callers(package):
        for name, call in calls(tree):
            for label, parameter, position, default in targets.get(name, ()):
                if passes(call, parameter, position, default):
                    unpassed.discard((label, parameter))
    return sorted(f"{label}({parameter}=)" for label, parameter in unpassed)


def test_every_defaulted_parameter_has_a_caller():
    assert unpassed_parameters() == []


def test_unpassed_parameters_are_named(tmp_path):
    (tmp_path / "knobs.py").write_text(textwrap.dedent('''
        __all__ = ["tune", "spread", "Spec"]

        def tune(x, by_keyword=1, by_position=2, at_default=3, *, unused=4):
            return Spec.make(x)

        def spread(a=1, b=2):
            return a + b

        @dataclass
        class Spec:
            width: int
            depth: int = 1
            height: int = 1

            @classmethod
            def make(cls, width, scale=1.0):
                return cls(width, 1, 2)

        tune(0, by_keyword=2)
        tune(0, 1, 9, at_default=3)
        spread(*[0])
        Spec(0, **{})
    '''))
    assert unpassed_parameters(tmp_path) == [
        "Spec.make(scale=)", "tune(at_default=)", "tune(unused=)"]


def traced_methods() -> set[str]:
    """The ``"Class.method"`` names in ``perfbench/tracer.py``'s ``METHODS``."""
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf8"))
    return set().union(*assigned(tracer, "METHODS", {}).values())


def unreferenced_members(package: pathlib.Path = PACKAGE) -> list[str]:
    """``Class.member`` for each public method, property or classmethod of an
    exported class that no caller refers to outside the class's own body and
    that the tracer does not wrap; references resolve by name alone."""
    modules = package_modules(package)
    trees = [*modules, *outside_callers()]
    wrapped = traced_methods()
    unreferenced = []
    for tree in modules:
        names = set(exported(tree))
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and node.name in names):
                continue
            called = set().union(*(references(caller, outside=node) for caller in trees))
            unreferenced += [f"{node.name}.{member.name}" for member in node.body
                             if isinstance(member, ast.FunctionDef)
                             and not member.name.startswith("_")
                             and member.name not in called
                             and f"{node.name}.{member.name}" not in wrapped]
    return sorted(unreferenced)


def test_every_public_member_has_a_caller():
    assert unreferenced_members() == []


def test_members_used_only_in_their_own_class_are_named(tmp_path):
    (tmp_path / "parts.py").write_text(textwrap.dedent('''
        __all__ = ["Gadget", "HammersteinSimulator", "build"]

        class Gadget:
            def __init__(self):
                self._size = self.measure_inside()

            def measure_inside(self):
                return 1

            @property
            def reach_outside(self):
                return 2

            @classmethod
            def spare_maker(cls):
                return cls()

            def _hidden(self):
                return self.spare_maker()

        class HammersteinSimulator:
            def required_warmup(self):
                return 0

            def repeat_inside(self):
                return self.required_warmup() + self.repeat_inside()

        class Unexported:
            def lonely_helper(self):
                return 3

        def build():
            return Gadget().reach_outside
    '''))
    assert unreferenced_members(tmp_path) == [
        "Gadget.measure_inside", "Gadget.spare_maker", "HammersteinSimulator.repeat_inside"]


def attribute_reads(tree: ast.AST, outside: ast.AST) -> set[str]:
    """Names read as ``something.name`` in ``tree`` except inside its subtree
    ``outside``; an assignment to ``something.name`` is no read."""
    names, nodes = set(), [tree]
    while nodes:
        node = nodes.pop()
        if node is outside:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        nodes.extend(ast.iter_child_nodes(node))
    return names


def unread_fields(package: pathlib.Path = PACKAGE, awaiting=AWAITING_READER) -> list[str]:
    """``Class.field`` for each public field of an exported dataclass that no
    caller reads as ``something.field`` outside the class's own body, less
    the ``awaiting`` ones; reads resolve by name alone.  A field set only as a
    constructor keyword, or read only by the class itself, is unread."""
    modules = package_modules(package)
    trees = [*modules, *outside_callers()]
    unread = []
    for tree in modules:
        names = set(exported(tree))
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and node.name in names
                    and "dataclass" in decorator_names(node)):
                continue
            read = set().union(*(attribute_reads(caller, outside=node) for caller in trees))
            unread += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                       and not stmt.target.id.startswith("_")
                       and stmt.target.id not in read]
    return sorted(set(unread) - set(awaiting))


def test_every_dataclass_field_has_a_reader():
    assert unread_fields() == []
    # Each awaiting field is still a field of an exported dataclass, and still unread.
    assert AWAITING_READER <= set(unread_fields(awaiting=()))


def test_fields_no_caller_reads_are_named(tmp_path):
    (tmp_path / "records.py").write_text(textwrap.dedent('''
        __all__ = ["Reading", "ClosedLoopRecord", "Plain", "build"]

        @dataclass(frozen=True)
        class Reading:
            value: float
            kept_inside: float
            keyword_only: float = 0.0
            _memo: tuple | None = field(init=False, default=None)

            def __post_init__(self):
                object.__setattr__(self, "kept_inside", abs(self.kept_inside))

            def doubled(self):
                return 2 * self.kept_inside + self.keyword_only

        @dataclass(frozen=True)
        class ClosedLoopRecord:
            steady_state_residual: float

        @dataclass
        class Unexported:
            lonely: int

        class Plain:
            width: int

        def build():
            reading = Reading(1.0, 2.0, keyword_only=3.0)
            reading.kept_inside = 4.0
            return reading.value, ClosedLoopRecord(steady_state_residual=0.0)
    '''))
    assert unread_fields(tmp_path) == ["Reading.kept_inside", "Reading.keyword_only"]
    assert unread_fields(tmp_path, awaiting=()) == [
        "ClosedLoopRecord.steady_state_residual", "Reading.kept_inside", "Reading.keyword_only"]


def test_readme_quickstart_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart(), "README.md quickstart", "exec"), {})
    fraction = float(out.getvalue())
    assert 0.95 <= fraction <= 1.0
