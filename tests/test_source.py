"""Checks on the library source and on what it loads, stdlib only."""

import ast
import builtins
import collections
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgworkbench
from pgworkbench import certificates
from pgworkbench.blocking import CLAIM_KINDS

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


# CPython 3.12 renamed the built-in SHA-256 module _sha256 to _sha2, and
# certificates.py imports whichever the interpreter has, so both names of
# the pair count as standard on every version
_RENAMED_STDLIB_PAIR = {"_sha2", "_sha256"}
_STDLIB_NAMES = sys.stdlib_module_names | _RENAMED_STDLIB_PAIR


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
        outside = sorted(n for n in names if n.split(".")[0] not in _STDLIB_NAMES)
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


# geometry and solving without a certificate, then one certificate made and
# rechecked; OpenSSL is looked for before hashlib is loaded to recompute the
# checksum.  dataclasses and inspect (with ast, dis and tokenize) must stay
# unloaded throughout
_OPENSSL_CHILD = """
import json, sys
heavy = ("_hashlib", "dataclasses", "inspect")
preloaded = [name for name in heavy if name in sys.modules]
import pgworkbench, pgworkbench.cli, pgworkbench.experiments
from pgworkbench.certificates import _sha256, make_certificate, recheck
from pgworkbench.geometry import canonical_json
space = pgworkbench.ProjectiveSpace.of_order(3, 2)
levels = [len(space.subspaces(m)) for m in range(4)]
pencils = [space.verify_pencil_identity(k) for k in range(3)]
H = pgworkbench.ProjectiveSpace.of_order(2, 3).hypergraph(1)
values = [pgworkbench.exact_tau(H, 2).objective, pgworkbench.exact_ucn(H).objective]
code = pgworkbench.cli.main(["space", "--n", "2", "--q", "3"])
before = "_hashlib" in sys.modules
payload = {"n": 2, "k": 1, "q": 3, "t": 2, "points": list(range(13))}
cert = make_certificate("transversal", payload)
verdict = recheck(cert)
after = "_hashlib" in sys.modules
import hashlib
print(json.dumps({"preloaded": preloaded, "builtin": _sha256 is not None, "levels": levels,
                  "pencils": pencils, "values": values, "code": code, "before": before,
                  "verdict": verdict, "after": after,
                  "dataclasses": "dataclasses" in sys.modules,
                  "inspect": "inspect" in sys.modules,
                  "checksum": cert["checksum"] == hashlib.sha256(
                      canonical_json(payload).encode()).hexdigest()}))
"""


def test_geometry_and_solving_load_no_openssl_and_no_dataclasses():
    # hashlib loads OpenSSL's libcrypto, about 3.5 MiB, and certificates
    # hash with the interpreter's built-in _sha2 or _sha256 instead.
    # dataclasses loads inspect, ast, dis and tokenize, and the library's
    # records are namedtuples, so nothing needs it.  pytest has loaded all
    # of them here, so a child process is asked
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    child = subprocess.run([sys.executable, "-c", _OPENSSL_CHILD], capture_output=True,
                           text=True, check=True, env=env)
    got = json.loads(child.stdout.splitlines()[-1])
    if got["preloaded"]:
        pytest.skip(f"a site hook loaded {', '.join(got['preloaded'])} at start-up")
    # only a build without the built-in module loads OpenSSL, at the first checksum
    builtin = certificates._sha256 is not None
    assert got == {"preloaded": [], "builtin": builtin, "levels": [15, 35, 15, 1],
                   "pencils": [True] * 3, "values": [9, 6], "code": 0, "before": False,
                   "verdict": [True, "t-transversal verified"], "after": not builtin,
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


# the attribute names of the builtin types and of json.JSONEncoder: a read
# of one of these names in the library may be of that type's attribute
SHARED_NAMES = frozenset(itertools.chain(
    dir(json.JSONEncoder), *(dir(t) for t in vars(builtins).values() if isinstance(t, type))))

# the library functions, as "file: function" or "file: Class.method", that
# read a method with a shared name from outside its class; such a method is
# read only through self.<name> in its class or by the functions named here
SHARED_NAME_READERS = {}

# definitions that no library line reads, kept for the reader outside the
# library that each names; every other unread one is dead code
OUTSIDE_READERS = {
    "ProjectiveSpace.verify_pencil_identity": "the construct workload and criterion 2",
    "ProjectiveSpace.hyperplane_avoiding": "criterion 8",
    "ProjectiveSpace.project_from_point": "criterion 8",
}


def _unread_definitions(trees, exported, shared=frozenset(), readers=None):
    """The module functions and methods of trees, as file: name, that no
    line of trees outside their own body reads, a function as a name or an
    attribute and a method as an attribute; dunder methods are read by
    the interpreter, and a function named in exported is public API.  A
    method whose name is in shared is read only through self.<name> in
    its own class, or by a function that readers names for it, as
    "file: function" or "file: Class.method", keyed by "Class.method"; a
    named function that reads no attribute of that name is listed as
    "file: function (no read of Class.method)"."""
    def reads(node):
        return [(n.id, False) if isinstance(n, ast.Name) else (n.attr, True)
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]

    def self_reads(node, name):
        return sum(isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                   and n.attr == name and ast.unparse(n.value) == "self" for n in ast.walk(node))

    functions = {}
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                functions[f"{file}: {node.name}"] = node
            if isinstance(node, ast.ClassDef):
                functions.update((f"{file}: {node.name}.{member.name}", member)
                                 for member in node.body if hasattr(member, "name"))
    everywhere = [r for tree in trees.values() for r in reads(tree)]
    found = []
    for file, tree in trees.items():
        defs = [(None, node) for node in tree.body]
        defs += [(cls, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body]
        for cls, node in defs:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or node.name.startswith("__") or not cls and node.name in exported:
                continue
            owner = f"{cls.name}." if cls else ""
            if cls and node.name in shared:
                key = f"{cls.name}.{node.name}"
                named = (readers or {}).get(key, ())
                stale = [r for r in named if r not in functions
                         or (node.name, True) not in reads(functions[r])]
                found += [f"{r} (no read of {key})" for r in stale]
                if self_reads(cls, node.name) == self_reads(node, node.name) \
                        and len(stale) == len(named):
                    found.append(f"{file}: {key}")
                continue

            def is_read(r, name=node.name, method=bool(cls)):
                return r[0] == name and (r[1] or not method)

            if sum(map(is_read, everywhere)) == sum(map(is_read, reads(node))):
                found.append(f"{file}: {owner}{node.name}")
    return found


def test_every_definition_has_a_reader():
    # a method or module function that no library line reads, that the
    # package does not export and that no outside reader needs is dead
    # code; the table names the reader of each one it keeps
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    unread = _unread_definitions(trees, set(pgworkbench.__all__), SHARED_NAMES,
                                 SHARED_NAME_READERS)
    assert sorted(name for name in unread if name.split(": ")[1] not in OUTSIDE_READERS) == []
    # each entry of the table is still defined and still unread
    assert sorted(name.split(": ")[1] for name in unread) == sorted(OUTSIDE_READERS)


def test_unread_definition_guard_sees_each_one():
    source = """
def exported(): return 1
def helper(): return 2
def caller(): return helper() + module.called_by_attribute()
def called_by_attribute(): return 3
def recursive(n): return recursive(n - 1) if n else 0
def shadowed(sub): return sub
class A:
    def __init__(self): self.x = 1
    def read(self): return self.x
    def unread(self): return self.read()
    def sub(self, a): return a
    def again(self): return self.again()
    @property
    def prop(self): return 4
def uses_prop(a): return a.prop
"""
    assert _unread_definitions({"m.py": ast.parse(source)}, {"exported"}) == [
        "m.py: caller", "m.py: recursive", "m.py: shadowed", "m.py: uses_prop",
        "m.py: A.unread", "m.py: A.sub", "m.py: A.again"]


# GF.encode as it stood before it was deleted, with no reader in the
# library, and the library's reads of str.encode and JSONEncoder.encode
_FIELDS_WITH_ENCODE = """
class GF:
    def __init__(self, p, h):
        self.p, self.h = p, h
        self.g = self.decode(1)

    def decode(self, x):
        return tuple(x // self.p**i % self.p for i in range(self.h))

    def encode(self, coeffs):
        x = 0
        for c in reversed(list(coeffs)[: self.h] + [0] * (self.h - len(coeffs))):
            x = x * self.p + c
        return x

    def add(self, a, b):
        return (a + b) % self.p

    def row_reduce(self, rows):
        return [self.add(x, 1) for x in rows]

    def count(self, a):
        return a

    def index(self, a):
        return a
"""
_READERS_OF_ENCODE = """
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True)
def canonical_json(payload): return _CANONICAL_ENCODER.encode(payload)
def _digest(text): return sha256(text.encode()).hexdigest()
def counted(field, items): return field.count(len(items)) + items.count(0)
def indexed(field, items): return items[field.p] + items.index(0)
def reduced(field, rows): return field.row_reduce(rows)
"""


def test_unread_definition_guard_sees_a_method_whose_name_a_builtin_shares():
    trees = {"fields.py": ast.parse(_FIELDS_WITH_ENCODE),
             "geometry.py": ast.parse(_READERS_OF_ENCODE)}
    exported = {"canonical_json", "_digest", "counted", "indexed", "reduced"}
    # by name alone, str.encode and JSONEncoder.encode read GF.encode, and
    # list.count and list.index read GF.count and GF.index
    assert _unread_definitions(trees, exported) == []
    # GF.decode and GF.add are read through self, GF.count by the function
    # named for it; GF.index's named reader reads list.index only, which
    # the guard cannot tell apart, so it is listed as read
    readers = {"GF.count": ("geometry.py: counted",), "GF.index": ("geometry.py: indexed",)}
    assert _unread_definitions(trees, exported, SHARED_NAMES, readers) == [
        "fields.py: GF.encode"]
    # a method with no reader left, and a named reader that is gone or
    # reads no attribute of the name, are listed
    readers = {"GF.count": ("geometry.py: gone", "geometry.py: canonical_json"),
               "GF.index": ("geometry.py: indexed",)}
    assert _unread_definitions(trees, exported, SHARED_NAMES, readers) == [
        "fields.py: GF.encode", "geometry.py: gone (no read of GF.count)",
        "geometry.py: canonical_json (no read of GF.count)", "fields.py: GF.count"]
    assert {"encode", "decode", "add", "count", "index"} <= SHARED_NAMES


def test_a_hypergraph_caches_only_its_geometry():
    # a level's masks are its one incidence structure: the point lists are
    # built at each call, so a Hypergraph's one cached view is its check
    tree = ast.parse((PACKAGE_DIR / "geometry.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Hypergraph")
    cached = [node.name for node in cls.body if isinstance(node, ast.FunctionDef)
              and any(ast.unparse(d).endswith("cached_property") for d in node.decorator_list)]
    assert cached == ["geometry"]


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


def _verdict_rule_sites(tree):
    """The functions of tree, by name, that combine `exhaustive` with the
    violations or with `verified` in one `and`, `or` or comparison, as a
    name, an attribute or a string key."""
    def words(node):
        return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                else n.value for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
                or isinstance(n, ast.Constant) and isinstance(n.value, str)}

    def combines(node):
        return isinstance(node, (ast.BoolOp, ast.Compare)) and "exhaustive" in words(node) \
            and not words(node).isdisjoint({"violations", "verified"})

    return [func.name for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(combines(node) for node in ast.walk(func))]


def test_one_verdict_rule_for_tmodp_reports():
    # the writer and recheck derive a report's verified flag through
    # solvers.tmodp_verdict alone, so a report cannot be written with a
    # verdict that recheck reads the other way
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    found = [f"{name}: {func}" for name, tree in trees.items()
             for func in _verdict_rule_sites(tree)]
    assert found == ["solvers.py: tmodp_verdict"]
    funcs = {func.name: func for tree in trees.values() for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef)}
    for caller in ("verify_tmodp_theorem", "_verify_tmodp_report"):
        assert any(isinstance(node, ast.Call) and ast.unparse(node.func) == "tmodp_verdict"
                   for node in ast.walk(funcs[caller])), caller


def test_verdict_rule_guard_sees_each_copy():
    source = """
def a(violations, frame): return not violations and frame["exhaustive"]
def b(rep): return rep.verified and not rep.exhaustive
def c(payload): return payload["verified"] or payload["exhaustive"]
def d(exhaustive, claimed):
    if exhaustive and not claimed.violations:
        return True
def e(exhaustive, found, num_unions): return exhaustive and found < num_unions
def f(verified, exhaustive): return verified == exhaustive
def g(violations): return not violations
def h(rep): return {"exhaustive": rep.exhaustive, "verified": rep.verified}
"""
    assert _verdict_rule_sites(ast.parse(source)) == ["a", "b", "c", "d", "f"]


def _tau_rule_sites(tree):
    """The functions of tree, by name, that compute the folklore bound
    (theta of a difference of two names, as theta(n - m), or a product
    with theta_k or theta(k, q)), compute the disjoint-spaces fit (a
    comparison with n + 1) or name a `done` flag."""
    def is_theta_k(node):
        return isinstance(node, ast.Name) and node.id == "theta_k" \
            or isinstance(node, ast.Call) and ast.unparse(node.func) == "theta" \
            and ast.unparse(node.args[0]) == "k"

    def copies_a_rule(node):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "theta":
            arg = node.args[0]
            return isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub) \
                and isinstance(arg.left, ast.Name) and isinstance(arg.right, ast.Name)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return is_theta_k(node.left) or is_theta_k(node.right)
        if isinstance(node, ast.Compare):
            return any(ast.unparse(side) == "n + 1" for side in (node.left, *node.comparators))
        return isinstance(node, ast.Name) and node.id == "done"

    return [func.name for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(copies_a_rule(node) for node in ast.walk(func))]


def test_solvers_leave_the_folklore_bound_and_the_stop_to_one_place():
    # the folklore bound t*theta(n-m) and the fit of t disjoint (n-m)-spaces
    # are computed by solvers._tau_facts alone, which exact_tau, its seed
    # and bounds_report read; both searches stop by raising _Stop, with no
    # done flag to check after each child
    path = PACKAGE_DIR / "solvers.py"
    assert _tau_rule_sites(ast.parse(path.read_text(), filename=str(path))) == ["_tau_facts"]


def test_tau_rule_guard_sees_each_copy():
    source = """
def a(n, m, q, t): return t * theta(n - m, q)
def b(n, m, t): return t * (n - m + 1) <= n + 1
def c(n, k, t): return n + 1 >= t * (k + 1)
def d(theta_k, n, k): return 2 * theta_k if 2 * k < n else None
def e(k, q): return theta(k, q) * 2
def f():
    done = False
def g(n, k, q, p): return theta(k - 1, q) + 3 * theta(1, p) + theta(n, q)
def h(n, k): return 2 * k < n and not 1 <= k <= n - 1
"""
    assert _tau_rule_sites(ast.parse(source)) == ["a", "b", "c", "d", "e", "f"]


def _matching_nodes(tree, matches):
    """Per function of tree, by name, nested ones as outer.inner, and
    <module> for the module level: the number of nodes of its own body,
    outside the functions nested in it, that `matches` accepts."""
    found = collections.Counter()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path + [child.name])
                continue
            if matches(child):
                found[".".join(path) or "<module>"] += 1
            visit(child, path)

    visit(tree, [])
    return found


def _cover_count_sites(tree):
    """The functions of tree, nested ones as outer.inner, that write a
    subscript of `deficits` or `cover` (a name or an attribute) or count
    per vertex the edges through it, as len of each entry of a
    vertex_edges."""
    def keeps_counts(node):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            target = node.value
            return getattr(target, "id", getattr(target, "attr", None)) in ("deficits", "cover")
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return isinstance(node.elt, ast.Call) and ast.unparse(node.elt.func) == "len" \
                and any(ast.unparse(g.iter).endswith("vertex_edges") for g in node.generators)
        return False

    return sorted(_matching_nodes(tree, keeps_counts))


def test_one_copy_of_the_open_edge_counts():
    # exact_tau's take, its dfs undo and its reset after the greedy seed
    # are the only writers of the deficits and the per-vertex counts of
    # open edges; the greedy seed kept a second copy of both
    path = PACKAGE_DIR / "solvers.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _cover_count_sites(tree) == ["exact_tau", "exact_tau.dfs", "exact_tau.take"]


def test_cover_count_guard_sees_each_copy():
    source = """
def a(H, t):
    deficits = [t] * len(H.edges)
    gains = [len(eis) for eis in H.vertex_edges]
def b(deficits, ei): deficits[ei] -= 1
def c(cover, u): cover[u] += 1
def d(state): state.cover[0] = 1
def e(cover): cover[:], x = [], 0
def f(deficits, cover): return deficits[0] + cover[1]
def g(H): return [len(pts) for pts in H.edge_points]
def h(H): return max(len(eis) for eis in H.vertex_edges)
def outer():
    def inner(cover): cover[0] -= 1
    return inner
"""
    assert _cover_count_sites(ast.parse(source)) == ["a", "b", "c", "d", "e", "h", "outer.inner"]


def _counts_pairs(node):
    """A count C(x, 2) of the pairs in x points: comb or math.comb with the
    second argument 2, or a product halved, as x * (x - 1) // 2."""
    if isinstance(node, ast.Call) and ast.unparse(node.func) in ("comb", "math.comb"):
        return len(node.args) == 2 and ast.unparse(node.args[1]) == "2"
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv) \
        and ast.unparse(node.right) == "2" \
        and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)


def _calls_dfs(node):
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "dfs"


def test_the_shape_bound_and_the_ucn_root_have_one_home():
    # the pairs of the shape bound are counted by solvers._shape_bound
    # alone, which exact_ucn reads; each search enters its dfs by one root
    # call, so exact_ucn fixes no first merge and splits into no cases
    path = PACKAGE_DIR / "solvers.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(_matching_nodes(tree, _counts_pairs)) == ["_shape_bound"]
    assert _matching_nodes(tree, _calls_dfs) == \
        {"exact_tau": 1, "exact_tau.dfs": 1, "exact_ucn": 1, "exact_ucn.dfs": 1}


def test_shape_bound_guard_sees_each_copy():
    source = """
import math
def a(s): return math.comb(s, 2)
def b(s): return comb(s + 1, 2)
def c(s): return s * (s - 1) // 2
def d(p, t): return math.comb(p + t - 1, t)
def e(s): return (s - 1) // 2
def f(x, y): return comb(x, y)
def g(H):
    def dfs(m): return dfs(m + 1) if m else 0
    dfs(0)
    dfs(1)
    return dfs
def h():
    def inner(): return comb(3, 2)
    return inner
"""
    tree = ast.parse(source)
    assert sorted(_matching_nodes(tree, _counts_pairs)) == ["a", "b", "c", "h.inner"]
    assert _matching_nodes(tree, _calls_dfs) == {"g": 2, "g.dfs": 1}


def _reads_edge_points(node):
    """A read of a hypergraph's point lists: the attribute edge_points, or
    its name as a string, as getattr(H, "edge_points") spells it."""
    return isinstance(node, ast.Attribute) and node.attr == "edge_points" \
        or isinstance(node, ast.Constant) and node.value == "edge_points"


def test_only_exact_tau_reads_point_lists():
    # exact_ucn reads the edge masks and their transpose alone, and asks
    # incidence_gate itself; exact_tau's per-vertex edge lists are the one
    # point-list reader of the solvers
    path = PACKAGE_DIR / "solvers.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _matching_nodes(tree, _reads_edge_points) == {"exact_tau": 1}


def test_point_list_guard_sees_each_read():
    source = """
def a(H): return H.edge_points()
def b(H): pts = H.edge_points
def c(H): return getattr(H, "edge_points")()
def d(H):
    def inner(ei): return H.edge_points()[ei]
    return inner
def e(H): return mask_bits(H.edges[0])
def f(H): return "edge points"
"""
    assert _matching_nodes(ast.parse(source), _reads_edge_points) == \
        {"a": 1, "b": 1, "c": 1, "d.inner": 1}


def _level_rule_copies(tree):
    """The functions of tree, by name, that define space_fault or pass "n",
    "k" or "q" to _require_ints."""
    def copies(func):
        return func.name == "space_fault" or any(
            isinstance(node, ast.Call) and ast.unparse(node.func) == "_require_ints"
            and any(isinstance(c, ast.Constant) and c.value in ("n", "k", "q")
                    for arg in node.args[1:] for c in ast.walk(arg))
            for node in ast.walk(func))

    return [func.name for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and copies(func)]


def _gate_value_uses(tree):
    """Where tree defines a second level gate, a function level_* other
    than level_gate (such as the one that returned its refusal as text),
    or uses the value of a level_gate or incidence_gate call: each such
    call that is not a statement of its own, by line and the node that
    holds it."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = [f"{node.lineno}: def {node.name}" for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith("level_") and node.name != "level_gate"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and not isinstance(parents[node], ast.Expr) \
                and ast.unparse(node.func).split(".")[-1] in ("level_gate", "incidence_gate"):
            found.append(f"{node.lineno}: {type(parents[node]).__name__}")
    return found


# the refusals that a space, its levels and a claim ask for themselves
_GATES = ("level_gate", "incidence_gate", "factor_prime_power")


def _gate_uses(tree):
    """Each gate that tree imports or reads as an attribute, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in _GATES]
        elif isinstance(node, ast.Attribute) and node.attr in _GATES:
            found.append((node.lineno, node.attr))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_certificates_leave_the_level_rule_to_the_gate():
    # the types and ranges of n, k and q and the point and mask-bit limits
    # reach recheck through geometry.level_gate alone, the gate of every
    # space and level build, and the incidence limit of a claim's lists
    # through incidence_gate, which asks level_gate first; so recheck
    # cannot refuse a level that the library builds, nor read one it
    # refuses.  Recheck and the grid ask ProjectiveSpace.of_order, a level
    # and judge_claim, which ask the gates, and call none themselves
    source = (PACKAGE_DIR / "certificates.py").read_text()
    names = {"DEFAULT_MAX_POINTS", "DEFAULT_MAX_MASK_BITS", "count_subspaces"}
    assert sorted(name for name in names if name in source) == []
    found = [f"{name}: {use}" for name in ("certificates.py", "experiments.py")
             for use in _gate_uses(ast.parse((PACKAGE_DIR / name).read_text()))]
    assert found == []
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE_DIR.glob("*.py"))
             for name in _level_rule_copies(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []
    # the gate raises its refusal: every call of it is a statement of its
    # own, and no module turns a returned text back into a refusal
    found = [f"{path.name}: {use}" for path in sorted(PACKAGE_DIR.glob("*.py"))
             for use in _gate_value_uses(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_gate_use_guard_sees_each_one():
    source = """
from .geometry import ProjectiveSpace, level_gate
from .fields import factor_prime_power as prime_power
from . import geometry
def a(n, k, q): geometry.incidence_gate(n, k, q)
def b(n, q): return ProjectiveSpace.of_order(n, q).subspaces(1)
"""
    assert _gate_uses(ast.parse(source)) == ["2: level_gate", "3: factor_prime_power",
                                             "5: incidence_gate"]


def test_gate_value_guard_sees_each_use():
    source = """
def level_refusal(n, m, q): return None
def a(n, m, q): fault = level_gate(n, m, q)
def b(n, m, q):
    if level_gate(n, m, q) is not None: raise ValueError
def c(n, m, q): return level_gate(n, m, q) or "ok"
def d(space): assert geometry.level_gate(space.n, 1, space.q) is None
def e(n, m, q): print(level_gate(n, m, q))
def f(n, m, q): level_gate(n, m, q)
def g(space):
    try:
        geometry.level_gate(space.n, 1, space.q)
    except ValueError:
        return None
def h(n, m, q): return incidence_gate(n, m, q) is None
def i(n, m, q): geometry.incidence_gate(n, m, q)
"""
    assert _gate_value_uses(ast.parse(source)) == [
        "2: def level_refusal", "3: Assign", "5: Compare", "6: BoolOp", "7: Compare", "8: Call",
        "15: Compare"]


def _incidence_rule_sites(tree):
    """The functions of tree, by name, that form a level's point
    incidences, a product with theta(m, ...) for a plain name m other than
    n, or raise the text of their limit ("point incidences" in an
    f-string)."""
    def copies_the_rule(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return any(isinstance(side, ast.Call) and ast.unparse(side.func) == "theta"
                       and isinstance(side.args[0], ast.Name) and side.args[0].id != "n"
                       for side in (node.left, node.right))
        return isinstance(node, ast.JoinedStr) and any(
            isinstance(part, ast.Constant) and "point incidences" in part.value
            for part in node.values)

    return [func.name for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(copies_the_rule(node) for node in ast.walk(func))]


def test_the_incidence_rule_lives_in_the_list_gate():
    # level_gate prices a level's masks and incidence_gate its lists, so
    # only the list gate counts a level's point incidences and refuses
    # them; level_gate no longer forms count * theta(m)
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE_DIR.glob("*.py"))
             for name in _incidence_rule_sites(ast.parse(path.read_text(), filename=str(path)))]
    assert found == ["geometry.py: incidence_gate"]


def test_incidence_rule_guard_sees_each_copy():
    source = """
def a(n, m, q): return count_subspaces(n, m, q) * theta(m, q)
def b(count, k, q): return theta(k, q) * count
def c(m, n, q, total):
    raise GeometryError(f"the {m}-spaces of PG({n},{q}) have {total} point incidences")
def d(n, m, q): return count_subspaces(n, m, q) * theta(n, q)
def e(n, m, q, t): return t * theta(n - m, q)
def f(m, q): return theta(m, q) + 1
def g(n, q): return f"PG({n},{q}) has {theta(n, q)} points"
"""
    assert _incidence_rule_sites(ast.parse(source)) == ["a", "b", "c"]


def test_level_rule_guard_sees_each_copy():
    source = """
def space_fault(n, q): return level_gate(n, n, q)
def a(payload): _require_ints(payload, ("n", "k", "q", "t"))
def b(claim): _require_ints(claim, ("t", "k"))
def c(payload): _require_ints(payload["space"], ("q",))
def _verify_bounds(payload): _require_ints(payload, ("n", "k", "q", "t"))
def d(payload): _require_ints(payload, ("t", "objective"))
def e(payload): return payload["n"], payload["k"]
"""
    assert _level_rule_copies(ast.parse(source)) == ["space_fault", "a", "b", "c",
                                                     "_verify_bounds"]


def _blocking_rule_copies(tree):
    """What tree copies of the input rules that blocking.py owns, by line:
    a claim kind spelled as a literal (CLAIM_KINDS is its one spelling),
    a test of membership in CLAIM_KINDS (judge_claim is its one judge), an
    all_ints call made directly on weights, a name `weights` or a
    ["weights"] subscript (WeightedPointSet.from_json is their one
    reader), and an import of is_prime or MAX_Q, the prime test and limit
    of p that mod_p_gate makes."""
    def is_weights(node):
        return isinstance(node, ast.Name) and node.id == "weights" \
            or isinstance(node, ast.Subscript) and ast.unparse(node.slice) == "'weights'"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in CLAIM_KINDS:
            found.append(f"{node.lineno}: {node.value}")
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn))
                and ast.unparse(right).split(".")[-1] == "CLAIM_KINDS"
                for op, right in zip(node.ops, node.comparators)):
            found.append(f"{node.lineno}: in CLAIM_KINDS")
        elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "all_ints" \
                and any(map(is_weights, node.args)):
            found.append(f"{node.lineno}: all_ints")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name in ("is_prime", "MAX_Q")]
    return found


def test_blocking_owns_the_rules_of_its_inputs():
    # recheck and the command line leave the claim kinds and the reading of
    # outside weights to blocking.py, and the t (mod p) frame leaves the
    # type, range and primality of p, t and max_size to blocking.mod_p_gate
    found = [f"{name}: {copy}" for name in ("certificates.py", "cli.py", "solvers.py")
             for copy in _blocking_rule_copies(ast.parse((PACKAGE_DIR / name).read_text()))]
    assert found == []


def test_blocking_rule_guard_sees_each_copy():
    source = """
from .fields import MAX_Q, factor_prime_power, is_prime
def a(payload): return all_ints(payload["weights"])
def b(weights): return geometry.all_ints(weights)
def c(claim): return claim["type"] == "t_mod_p"
def d(): return ("t_fold_blocking", "minimal")
def e(payload): return all_ints(payload["assignment"])
def f(kind): return kind == CLAIM_KINDS[1] and "minimality claim mismatch"
def g(claimed): return all_ints(itertools.chain.from_iterable(v["weights"] for v in claimed))
def h(claim): return claim["type"] not in blocking.CLAIM_KINDS
"""
    assert _blocking_rule_copies(ast.parse(source)) == [
        "2: import MAX_Q", "2: import is_prime", "3: all_ints", "4: all_ints",
        "10: in CLAIM_KINDS", "5: t_mod_p", "6: t_fold_blocking", "6: minimal"]


def test_no_module_reads_another_modules_private_names():
    # each module owns its rules, such as blocking's claim judge and
    # coloring's judge, and makes public what another module needs, such
    # as certificates.verify_payload, which the experiment grid runs on the
    # certificates it made without recomputing their checksums
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


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
