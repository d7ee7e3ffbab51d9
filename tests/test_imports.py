"""What the package imports: numpy alone at import time, and nothing undeclared.

`import rmplab` loads numpy and no other third-party module; scipy and
orjson load on use, in the stages that need them.  Every third-party
module the package imports, at module level or on use, is named in
`[project].dependencies` of pyproject.toml.
"""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rmplab"

_NEW_MODULES = """
import json, sys
before = set(sys.modules)
import rmplab
from rmplab import runner
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _third_party(modules) -> set:
    """Top-level names of modules, less the standard library and rmplab."""
    tops = {m.split(".")[0] for m in modules}
    return {m for m in tops if m not in sys.stdlib_module_names and m != "rmplab"}


def test_import_rmplab_loads_numpy_alone():
    # Modules a bare interpreter holds (site hooks among them) do not count.
    done = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert _third_party(json.loads(done.stdout.splitlines()[-1])) == {"numpy"}


def _imported_modules() -> set:
    """Every absolute import in src/rmplab, at module level or inside a function."""
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return names


def _declared_dependencies() -> set:
    """Distribution names in [project].dependencies of pyproject.toml.

    Parsed by hand, since tomllib is new in Python 3.11 and the package
    supports 3.10.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)^\]", project, re.M | re.S).group(1)
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in re.findall(r'"([^"]+)"', listed)
    }


def test_the_census_sees_imports_and_dependencies():
    assert {"numpy", "scipy", "orjson"} <= _third_party(_imported_modules())
    assert {"numpy", "scipy"} <= _declared_dependencies()


def test_every_imported_module_is_a_declared_dependency():
    undeclared = _third_party(_imported_modules()) - _declared_dependencies()
    assert not undeclared, f"imported but not in [project].dependencies: {sorted(undeclared)}"
