"""Static checks on the library source, stdlib only."""

import ast
import sys
from pathlib import Path

import pgworkbench

PACKAGE_DIR = Path(pgworkbench.__file__).parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations such as -> "Hypergraph" name a type too
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used.add(node.value)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    # __init__.py imports to re-export; its names are the public API
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            found[path.name] = unused
    assert found == {}


def test_only_standard_library_imports():
    # the runtime depends on the standard library only; relative imports
    # (level > 0) are the package's own modules
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
        outside = sorted(n for n in names if n.split(".")[0] not in sys.stdlib_module_names)
        if outside:
            found[path.name] = outside
    assert found == {}


def test_no_assert_statements():
    # self-checks raise, so they also run under python -O
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert found == {}


def test_library_imports_no_random():
    # every result and certificate depends on its inputs alone
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import) and any(a.name == "random" for a in node.names) \
                    or isinstance(node, ast.ImportFrom) and node.module == "random":
                found.append(f"{path.name} (line {node.lineno})")
    assert found == []


def test_solvers_read_params_through_the_check():
    # the geometric shortcuts (bounds, fixed roots, size cutoffs) and the
    # certificates that name a space read Hypergraph.geometry, which
    # trusts params only when the edges match
    found = []
    for name in ("solvers.py", "coloring.py", "certificates.py", "cli.py"):
        path = PACKAGE_DIR / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "params":
                found.append(f"{name} (line {node.lineno})")
    assert found == []
