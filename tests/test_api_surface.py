"""Every option has a caller.

An AST census of the package: each parameter with a default, of every
function defined in src/rmplab, must be passed by some call in src/ or
tests/, by keyword, by position, or through *args or **kwargs.  An
option nothing sets has one value in use, and that value belongs in the
code as a constant.  Calls are matched to definitions by name, so a call
of another function of the same name counts too.  A call that forwards
the **kwargs of the function or lambda around it passes what the calls
of that function pass.
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
