"""Every option has a caller, and every field a reader.

An AST census of the package: each parameter with a default, of every
function defined in src/rmplab, must be passed by some call in src/ or
tests/, by keyword, by position, or through *args or **kwargs.  An
option nothing sets has one value in use, and that value belongs in the
code as a constant.  Calls are matched to definitions by name, so a call
of another function of the same name counts too.  A call that forwards
the **kwargs of the function or lambda around it passes what the calls
of that function pass.

A second census takes each field of every dataclass in src/rmplab: some
code in src/ or tests/ must read it as an attribute.  A field nothing
reads only echoes what its constructor was given.  Fields are matched to
reads by name, so a read of another attribute of the same name counts
too: a field named like a common numpy or stdlib attribute (values,
shape, flags, real) always passes, whether or not anything reads it.
The census catches unread fields with names of their own only.
"""
import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rmplab"


def _trees(*dirs: Path) -> list[tuple[Path, ast.AST]]:
    return [
        (path, ast.parse(path.read_text(encoding="utf-8")))
        for d in dirs
        for path in sorted(d.rglob("*.py"))
    ]


def _defaulted(fn: "ast.FunctionDef | ast.AsyncFunctionDef", method: bool):
    """(name, position or None) of each parameter of fn that has a default."""
    positional = fn.args.posonlyargs + fn.args.args
    if method:
        positional = positional[1:]  # self or cls is never passed by the caller
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _options() -> list[tuple[str, str, str, "int | None"]]:
    """(where, function name, parameter, position) of every option in the package."""
    found = []
    for path, tree in _trees(PACKAGE):
        where = path.relative_to(ROOT)
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for name, pos in _defaulted(node, id(node) in methods):
                    found.append((str(where), node.name, name, pos))
    return found


def _lambda_names(tree: ast.AST) -> dict[int, str]:
    """The name each lambda is called by: its assignment target, or its dict key."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[id(node.value)] = target.id
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(value, ast.Lambda) and isinstance(key, ast.Constant):
                    names[id(value)] = str(key.value)
    return names


def _census(trees: list[ast.AST]) -> tuple[dict[str, list[ast.Call]], dict[int, str]]:
    """Every call in trees by the name it calls, and the forwarders.

    A call forwards when its **argument is the **parameter of the function
    or lambda around it; the second map gives that function's name.
    """
    calls, forwards = defaultdict(list), {}

    def visit(node: ast.AST, around: "tuple[str, str] | None", lambdas: dict) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            kwarg = node.args.kwarg
            name = node.name if not isinstance(node, ast.Lambda) else lambdas.get(id(node))
            around = (name, kwarg.arg) if kwarg is not None and name is not None else None
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                calls[name].append(node)
            for kw in node.keywords:
                if around and kw.arg is None and getattr(kw.value, "id", None) == around[1]:
                    forwards[id(node)] = around[0]
        for child in ast.iter_child_nodes(node):
            visit(child, around, lambdas)

    for tree in trees:
        visit(tree, None, _lambda_names(tree))
    return calls, forwards


def _passes(call: ast.Call, name: str, pos: "int | None", census: tuple, seen=()) -> bool:
    """Whether call passes the parameter name at position pos (None: keyword-only).

    A **argument passes every keyword, except where it forwards the
    **parameter of a function around it: then it passes what the calls
    of that function pass.
    """
    calls, forwards = census
    for kw in call.keywords:
        if kw.arg == name:
            return True
        if kw.arg is None:
            wrapper = forwards.get(id(call))
            if wrapper is None or any(
                _passes(c, name, None, census, seen + (id(call),))
                for c in calls.get(wrapper, ())
                if id(c) not in seen
            ):
                return True
    if pos is None:
        return False
    return any(isinstance(arg, ast.Starred) or i == pos for i, arg in enumerate(call.args))


def test_every_option_is_passed_by_some_call():
    census = _census([tree for _, tree in _trees(ROOT / "src", ROOT / "tests")])
    unused = [
        f"{where}: {fn}({name})"
        for where, fn, name, pos in _options()
        if not any(_passes(call, name, pos, census) for call in census[0][fn])
    ]
    assert unused == []


def test_the_census_sees_options_and_their_callers():
    # a census that found nothing would pass on any code
    options = _options()
    assert ("src/rmplab/engine.py", "solve_linear", "workers", None) in options
    assert ("src/rmplab/tail.py", "hill_estimator", "k", 1) in options
    tree = ast.parse(
        "f(1, *rest)\n"
        "g(1, y=2)\n"
        "h(**params)\n"
        "wrap = lambda **kw: k(**kw)\n"
        "wrap(x=1)\n"
    )
    census = _census([tree])
    (f,), (g,), (h,), (k,) = (census[0][name] for name in "fghk")
    assert _passes(f, "x", 5, census) and not _passes(f, "x", None, census)
    assert _passes(g, "y", None, census) and not _passes(g, "x", 1, census)
    assert _passes(h, "x", None, census)
    assert _passes(k, "x", None, census) and not _passes(k, "y", None, census)


def _fields(tree: ast.AST) -> list[tuple[str, str]]:
    """(class name, field name) of every field of a dataclass defined in tree."""

    def is_dataclass(decorator: ast.expr) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    return [
        (cls.name, node.target.id)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and any(map(is_dataclass, cls.decorator_list))
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def _reads(trees: list[ast.AST]) -> set[str]:
    """The name of every attribute some code in trees reads."""
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_field_is_read_by_some_code():
    reads = _reads([tree for _, tree in _trees(ROOT / "src", ROOT / "tests")])
    unread = [
        f"{path.relative_to(ROOT)}: {cls}.{name}"
        for path, tree in _trees(PACKAGE)
        for cls, name in _fields(tree)
        if name not in reads
    ]
    assert unread == []


def test_the_census_sees_fields_and_their_readers():
    # a census that found nothing would pass on any code
    engine = ast.parse((PACKAGE / "engine.py").read_text(encoding="utf-8"))
    assert ("PathEnsemble", "flagged") in _fields(engine)
    tree = ast.parse(
        "@dataclasses.dataclass(frozen=True)\n"
        "class P:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    def f(self): return self.x\n"
        "class Q:\n"
        "    z: int\n"
        "P(1).y = 2\n"
    )
    assert _fields(tree) == [("P", "x"), ("P", "y")]
    assert _reads([tree]) == {"dataclass", "x"}
