"""Outside-in tracing of the pgworkbench layers.

The tracer wraps public functions and methods of each layer without
touching the library source.  A function is replaced under every name
that refers to it in any loaded ``pgworkbench`` module, so a caller that
did ``from .solvers import exact_tau`` reaches the wrapper too; methods
are replaced on their class.  ``uninstall`` puts every original back.

Layer boundaries get spans; hot fine-grained calls (GF arithmetic,
``rref``, ``point_indices``) get counts only, because a span per call
would cost more than the call.  Spans are aggregated as they close: per
group, the number of calls, the time covered (outermost spans of the
group only, so recursion or nesting inside the group is not counted
twice) and the self time (duration minus the time covered by child
spans of any group).

Names that a later version of the library no longer has are skipped, so
the benchmark keeps running; the affected metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref

# group -> (module, attribute path) of each function whose calls are spans
SPANS = {
    "fields.build": [("pgworkbench.fields", "GF.__init__")],
    "geometry.space": [("pgworkbench.geometry", "ProjectiveSpace.__init__")],
    "geometry.subspaces": [("pgworkbench.geometry", "ProjectiveSpace.subspaces")],
    "geometry.pencil": [("pgworkbench.geometry", "ProjectiveSpace.verify_pencil_identity")],
    "geometry.hypergraph": [("pgworkbench.geometry", "ProjectiveSpace.hypergraph"),
                            ("pgworkbench.geometry", "Hypergraph.edge_index_lists")],
    "blocking.predicate": [("pgworkbench.blocking", "is_t_fold_blocking"),
                           ("pgworkbench.blocking", "is_t_mod_p_set"),
                           ("pgworkbench.blocking", "is_minimal"),
                           ("pgworkbench.blocking", "essential_points")],
    "blocking.enum": [("pgworkbench.blocking", "enumerate_t_mod_p_sets")],
    "blocking.solve_mod_p": [("pgworkbench.blocking", "solve_mod_p")],
    "blocking.union": [("pgworkbench.blocking", "construct_union")],
    "coloring.check": [("pgworkbench.coloring", "is_proper"),
                       ("pgworkbench.coloring", "is_strict"),
                       ("pgworkbench.coloring", "is_trivial_coloring"),
                       ("pgworkbench.coloring", "trivial_coloring")],
    "solvers.tau": [("pgworkbench.solvers", "exact_tau")],
    "solvers.ucn": [("pgworkbench.solvers", "exact_ucn")],
    "solvers.tmodp": [("pgworkbench.solvers", "verify_tmodp_theorem")],
    "certificates.make": [("pgworkbench.certificates", "make_certificate")],
    "certificates.write": [("pgworkbench.certificates", "write_certificate")],
    "certificates.recheck": [("pgworkbench.certificates", "recheck")],
    "experiments.task": [("pgworkbench.experiments", "run_experiments")],
}

# group -> functions whose calls are only counted
COUNTS = {
    "fields.arith": [("pgworkbench.fields", f"GF.{op}")
                     for op in ("add", "sub", "mul", "neg", "inv", "div")],
    "geometry.rref": [("pgworkbench.geometry", "ProjectiveSpace.rref")],
    "geometry.point_indices": [("pgworkbench.geometry", "Subspace.point_indices")],
}

# an exact_tau span opened inside an exact_ucn span is the UCN seed search
NESTED_GROUP = {"solvers.tau": ("solvers.ucn", "solvers.ucn_tau")}


def canonical_bytes(payload) -> int:
    return len(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())


class Tracer:
    """Span and count aggregates for one traced repetition."""

    def __init__(self):
        self.recording = False
        self.clock = time.perf_counter
        self._stack = []  # open spans: [group, start, child_seconds]
        self._depth = {}
        self.calls = {}
        self.covered = {}
        self.self_s = {}
        self._counters = {}
        self.values = {}  # totals read from results, e.g. search nodes
        self.expect_verdict = None
        self._patches = []
        self._subspaces_seen = weakref.WeakKeyDictionary()

    # -- spans -----------------------------------------------------------

    def _open(self, group):
        self._depth[group] = self._depth.get(group, 0) + 1
        self._stack.append([group, self.clock(), 0.0])

    def _close(self):
        end = self.clock()
        group, start, child = self._stack.pop()
        dur = end - start
        self._depth[group] -= 1
        self.calls[group] = self.calls.get(group, 0) + 1
        self.self_s[group] = self.self_s.get(group, 0.0) + dur - child
        if self._depth[group] == 0:
            self.covered[group] = self.covered.get(group, 0.0) + dur
        if self._stack:
            self._stack[-1][2] += dur

    def add(self, key, amount):
        if self.recording:
            self.values[key] = self.values.get(key, 0) + amount

    def count(self, group) -> int:
        return self._counters.get(group, [0])[0]

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, group, fn, on_result):
        tracer = self
        nested = NESTED_GROUP.get(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, group, args, kwargs, result)
                return result
            g = group
            if nested is not None and tracer._depth.get(nested[0]):
                g = nested[1]
            tracer._open(g)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if on_result is not None:
                start = tracer.clock()
                on_result(tracer, g, args, kwargs, result)
                if tracer._stack:
                    # reading the result is tracing cost, not the caller's self time
                    tracer._stack[-1][2] += tracer.clock() - start
            return result
        return wrapper

    def _count_wrapper(self, group, fn):
        cell = self._counters[group]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording:
                cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced name; call uninstall() to restore them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for group, targets in SPANS.items():
            for module, path in targets:
                self._patch(module, path,
                            lambda fn, g=group: self._span_wrapper(g, fn, ON_RESULT.get(g)))
        for group, targets in COUNTS.items():
            self._counters[group] = [0]
            for module, path in targets:
                self._patch(module, path, lambda fn, g=group: self._count_wrapper(g, fn))

    def _patch(self, module_name, path, make):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return
        original = vars(owner).get(name)
        if original is None or not callable(original):
            return
        wrapper = make(original)
        if isinstance(owner, type):
            self._set(owner, name, wrapper)
            return
        # a module-level function: rebind it wherever a library module refers to it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pgworkbench" or mod_name.startswith("pgworkbench.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def metrics(self, time_scale=1.0) -> dict:
        """Per-layer metrics of everything recorded so far, with every time
        multiplied by time_scale."""
        cov = lambda g: time_scale * self.covered.get(g, 0.0)
        calls = lambda g: self.calls.get(g, 0)
        val = lambda k: self.values.get(k, 0)
        nodes = val("solvers.tau.nodes") + val("solvers.ucn.nodes") + val("solvers.ucn_tau.nodes")
        search_s = cov("solvers.tau") + cov("solvers.ucn")
        cosets = val("blocking.cosets_visited")
        rechecks = val("certificates.verdicts")
        out = {
            "fields.build_s": cov("fields.build"),
            "fields.build_calls": calls("fields.build"),
            "fields.arith_calls": self.count("fields.arith"),
            "geometry.space_s": cov("geometry.space"),
            "geometry.subspaces_s": cov("geometry.subspaces"),
            "geometry.subspaces_enumerated": val("geometry.subspaces_enumerated"),
            "geometry.pencil_s": cov("geometry.pencil"),
            "geometry.rref_calls": self.count("geometry.rref"),
            "geometry.point_indices_calls": self.count("geometry.point_indices"),
            "geometry.hypergraph_s": cov("geometry.hypergraph"),
            "blocking.predicate_s": cov("blocking.predicate"),
            "blocking.predicate_calls": calls("blocking.predicate"),
            "blocking.enum_s": cov("blocking.enum"),
            "blocking.solve_mod_p_s": cov("blocking.solve_mod_p"),
            "blocking.union_s": cov("blocking.union"),
            "blocking.cosets_visited": cosets,
            "blocking.enum_yield": val("blocking.sets_found") / cosets if cosets else None,
            "coloring.check_s": cov("coloring.check"),
            "coloring.check_calls": calls("coloring.check"),
            "solvers.tau_s": cov("solvers.tau"),
            "solvers.tau_nodes": val("solvers.tau.nodes"),
            "solvers.ucn_s": cov("solvers.ucn"),
            "solvers.ucn_nodes": val("solvers.ucn.nodes"),
            "solvers.ucn_tau_s": cov("solvers.ucn_tau"),
            "solvers.ucn_tau_nodes": val("solvers.ucn_tau.nodes"),
            "solvers.us_per_node": 1e6 * search_s / nodes if nodes else None,
            "solvers.tmodp_s": cov("solvers.tmodp"),
            "certificates.make_s": cov("certificates.make"),
            "certificates.write_s": cov("certificates.write"),
            "certificates.recheck_s": cov("certificates.recheck"),
            "certificates.recheck_calls": calls("certificates.recheck"),
            "certificates.payload_bytes": val("certificates.payload_bytes"),
            "certificates.verdict_match_ratio":
                val("certificates.verdict_matches") / rechecks if rechecks else None,
            "experiments.task_s": time_scale * self.self_s.get("experiments.task", 0.0),
        }
        layers = {}
        for group, seconds in self.self_s.items():
            layer = group.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + time_scale * seconds
        out["self_s"] = layers
        return out


# -- readers of wrapped results ------------------------------------------

def _on_subspaces(tracer, group, args, kwargs, result):
    # runs during set-up too, so a level built there is not counted again
    space = args[0]
    m = args[1] if len(args) > 1 else kwargs.get("m")
    seen = tracer._subspaces_seen.setdefault(space, set())
    if m not in seen:
        seen.add(m)
        tracer.add("geometry.subspaces_enumerated", len(result))


def _on_solve(tracer, group, args, kwargs, result):
    tracer.add(f"{group}.nodes", result.nodes)


def _on_enum(tracer, group, args, kwargs, result):
    visited = result.num_solution_classes if result.exhaustive else result.sampled
    tracer.add("blocking.cosets_visited", visited)
    tracer.add("blocking.sets_found", len(result.sets))


def _on_make(tracer, group, args, kwargs, result):
    if not tracer.recording:
        return
    tracer.add("certificates.payload_bytes", canonical_bytes(result["payload"]))


def _on_recheck(tracer, group, args, kwargs, result):
    if not tracer.recording:
        return
    cert = args[0] if args else kwargs["cert"]
    if isinstance(cert, dict) and "payload" in cert:
        tracer.add("certificates.payload_bytes", canonical_bytes(cert["payload"]))
    tracer.add("certificates.verdicts", 1)
    if tracer.expect_verdict is not None and bool(result[0]) == tracer.expect_verdict:
        tracer.add("certificates.verdict_matches", 1)


ON_RESULT = {
    "geometry.subspaces": _on_subspaces,
    "solvers.tau": _on_solve,
    "solvers.ucn": _on_solve,
    "blocking.enum": _on_enum,
    "certificates.make": _on_make,
    "certificates.recheck": _on_recheck,
}
