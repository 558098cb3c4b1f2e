"""Checks on the library source and on what it loads, stdlib only."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# geometry and solving without a certificate, then one certificate; the
# checksum is recomputed by hand after hashlib is loaded.  dataclasses and
# inspect (with ast, dis and tokenize) must stay unloaded throughout
_OPENSSL_CHILD = """
import json, sys
heavy = ("_hashlib", "dataclasses", "inspect")
preloaded = [name for name in heavy if name in sys.modules]
import pgworkbench, pgworkbench.cli, pgworkbench.experiments
from pgworkbench.certificates import make_certificate
from pgworkbench.geometry import canonical_json
space = pgworkbench.ProjectiveSpace.of_order(3, 2)
levels = [len(space.subspaces(m)) for m in range(4)]
pencils = [space.verify_pencil_identity(k) for k in range(3)]
H = pgworkbench.ProjectiveSpace.of_order(2, 3).hypergraph(1)
values = [pgworkbench.exact_tau(H, 2).objective, pgworkbench.exact_ucn(H).objective]
code = pgworkbench.cli.main(["space", "--n", "2", "--q", "3"])
before = "_hashlib" in sys.modules
payload = {"n": 2, "k": 1, "q": 3, "t": 2, "points": list(range(9))}
digest = make_certificate("transversal", payload)["checksum"]
import hashlib
print(json.dumps({"preloaded": preloaded, "levels": levels, "pencils": pencils,
                  "values": values, "code": code, "before": before,
                  "after": "_hashlib" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules,
                  "inspect": "inspect" in sys.modules,
                  "checksum": digest == hashlib.sha256(
                      canonical_json(payload).encode()).hexdigest()}))
"""


def test_geometry_and_solving_load_no_openssl_and_no_dataclasses():
    # hashlib loads OpenSSL's libcrypto, about 3.5 MiB; only a checksum
    # needs it.  dataclasses loads inspect, ast, dis and tokenize, and the
    # library's records are namedtuples, so nothing needs it.  pytest has
    # loaded all of them here, so a child process is asked
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    child = subprocess.run([sys.executable, "-c", _OPENSSL_CHILD], capture_output=True,
                           text=True, check=True, env=env)
    got = json.loads(child.stdout.splitlines()[-1])
    if got["preloaded"]:
        pytest.skip(f"a site hook loaded {', '.join(got['preloaded'])} at start-up")
    assert got == {"preloaded": [], "levels": [15, 35, 15, 1], "pencils": [True] * 3,
                   "values": [9, 6], "code": 0, "before": False, "after": True,
                   "dataclasses": False, "inspect": False, "checksum": True}


def _uses(node):
    """The names that node reads, as names or as attributes."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) or isinstance(n, ast.Attribute)]


def test_every_private_definition_has_a_caller():
    # a private function, method or class that nothing in the library
    # reads outside its own body is dead code; the public API may have no
    # caller inside the library
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    uses = {}
    for tree in trees.values():
        for name in _uses(tree):
            uses[name] = uses.get(name, 0) + 1
    dead = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__") \
                    and uses.get(node.name, 0) == _uses(node).count(node.name):
                dead.append(f"{file}: {node.name}")
    assert dead == []


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


def test_certificates_leave_the_tmodp_rules_to_the_frame():
    # the coset and matrix limits and the plane kernel dimension reach a
    # t (mod p) report through solvers.tmodp_frame alone, so the report
    # builder and recheck cannot drift apart
    source = (PACKAGE_DIR / "certificates.py").read_text()
    names = {"COSET_LIMIT", "MATRIX_ENTRY_LIMIT", "plane_cosets"}
    assert sorted(name for name in names if name in source) == []


def test_certificates_leave_the_level_rule_to_the_gate():
    # the point, incidence and mask-bit limits reach recheck through
    # geometry.level_fault alone, the gate of every level build, so recheck
    # cannot refuse a level that the library builds, nor read one it refuses
    source = (PACKAGE_DIR / "certificates.py").read_text()
    names = {"DEFAULT_MAX_POINTS", "DEFAULT_MAX_MASK_BITS", "count_subspaces"}
    assert sorted(name for name in names if name in source) == []
    assert "level_fault" in source


def test_no_module_reads_another_modules_private_names():
    # each module owns its rules, such as blocking's claim judge and
    # coloring's judge, and makes public what another module needs.  The
    # one exception: the experiment grid made its own certificates, so it
    # runs recheck's verifiers without recomputing their checksums
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == ["experiments.py: _verify_payload"]


def test_no_parameter_is_a_limit():
    # limits are module constants, such as solvers.NODE_LIMIT, which a test
    # lowers by monkeypatching: a keyword would be one more setting that
    # every caller, certificate and benchmark run could differ in
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                found += [f"{path.name} (line {node.lineno}): {a.arg}"
                          for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                    args.vararg, args.kwarg)
                          if a is not None and a.arg.endswith("limit")]
    assert found == []


def _opens_for_writing(call):
    """True for a call that opens a file for writing or writes one whole:
    os.open (any flags), open or fdopen with a mode that writes (or one
    that is not a literal), json.dump to a handle, Path.write_text and
    Path.write_bytes.  geometry.write_text, the one writer called through
    its module, is not a second write path."""
    func = call.func
    if isinstance(func, ast.Attribute):
        owner = func.value.id if isinstance(func.value, ast.Name) else None
        if (owner, func.attr) in {("os", "open"), ("json", "dump")} \
                or func.attr in ("write_text", "write_bytes") and owner != "geometry":
            return True
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    else:
        return False
    if name not in ("open", "fdopen"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _write_sites(tree):
    """The enclosing function of every call in tree that writes a file."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and _opens_for_writing(node):
            sites.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def test_every_file_is_written_by_the_one_writer():
    # geometry.write_text overwrites in place and cuts to length; a second
    # writer would bring back the truncating open
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites = _write_sites(tree)
        sites += [f"O_TRUNC (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC"]
        if sites:
            found[path.name] = sites
    assert found == {"geometry.py": ["write_text"]}


def test_write_guard_sees_each_kind_of_write():
    source = """
import json, os
def a(p): open(p, "w")
def b(p): open(p, mode="ab")
def c(p, m): open(p, m)
def d(p, d): json.dump(d, open(p, "r+"))
def e(p): os.open(p, os.O_RDONLY)
def f(p): p.write_text("x")
def g(p): open(p)
def h(p): open(p, "rb")
def i(p): geometry.write_text(p, "x")
"""
    assert _write_sites(ast.parse(source)) == ["a", "b", "c", "d", "d", "e", "f"]
