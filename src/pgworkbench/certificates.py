"""Canonical JSON certificates with checksums, and re-verification that
never re-solves anything."""

from __future__ import annotations

import hashlib
import json

from .blocking import (COSET_LIMIT, MATRIX_ENTRY_LIMIT, WeightedPointSet, is_minimal,
                       is_t_fold_blocking, is_t_mod_p_set)
from .coloring import Coloring, is_proper, is_strict, is_trivial_coloring
from .geometry import Hypergraph, ProjectiveSpace, count_subspaces, mask_bits, point_set, theta
from .solvers import (BoundsReport, SolveResult, TModPVerification, bounds_report,
                      line_union_weights, require_line_multiset_limit)

SCHEMA_VERSION = 1

KINDS = ("transversal", "coloring", "blocking_set", "tmodp_report", "bounds")


class CertificateError(ValueError):
    pass


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checksum(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def make_certificate(kind: str, payload: dict) -> dict:
    if kind not in KINDS:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    return {"schema_version": SCHEMA_VERSION, "kind": kind,
            "payload": payload, "checksum": checksum(payload)}


def transversal_certificate(H: Hypergraph, t: int, res: SolveResult) -> dict:
    """Certificate of a t-transversal of the geometric hypergraph H."""
    n, k, q = H.params
    return make_certificate("transversal", {"n": n, "k": k, "q": q, "t": t,
                                            "points": list(res.witness),
                                            "objective": res.objective})


def coloring_certificate(H: Hypergraph, coloring: Coloring) -> dict:
    """Certificate of a proper strict coloring of the geometric hypergraph
    H, recording whether it is trivial."""
    n, k, q = H.params
    trivial, _ = is_trivial_coloring(coloring, H)
    return make_certificate("coloring", {"n": n, "k": k, "q": q,
                                         "assignment": list(coloring.assignment),
                                         "N": coloring.N, "trivial": bool(trivial)})


def bounds_certificate(rep: BoundsReport) -> dict:
    """Certificate of a bounds report; recheck recomputes it."""
    return make_certificate("bounds", {"n": rep.n, "k": rep.k, "q": rep.q, "t": rep.t,
                                       "report": rep.to_json()})


def tmodp_certificate(rep: TModPVerification) -> dict:
    """Certificate of a t (mod p) structure report."""
    return make_certificate("tmodp_report", rep.to_json())


def write_certificate(cert: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(cert))


def load_certificate(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _verify_transversal(payload):
    n, k, q, t = payload["n"], payload["k"], payload["q"], payload["t"]
    space = ProjectiveSpace.of_order(n, q)
    pts = point_set(payload["points"], space.num_points)
    if "objective" in payload and payload["objective"] != len(pts):
        return False, "objective does not match the witness size"
    for kspace in space.incidence(k):
        hit = len(pts.intersection(kspace))
        if hit < t:
            return False, f"a {k}-space meets the set in only {hit} < {t} points"
    return True, "t-transversal verified"


def _verify_coloring(payload):
    n, k, q = payload["n"], payload["k"], payload["q"]
    space = ProjectiveSpace.of_order(n, q)
    H = space.hypergraph(k)
    coloring = Coloring(tuple(payload["assignment"]))
    if not is_strict(coloring, H.num_vertices):
        return False, "coloring is not strict"
    if payload.get("N") is not None and coloring.N != payload["N"]:
        return False, "N does not match the assignment"
    ok, edge = is_proper(coloring, H)
    if not ok:
        return False, f"rainbow hyperedge on points {mask_bits(edge)}"
    if payload.get("trivial"):
        triv, _ = is_trivial_coloring(coloring, H)
        if not triv:
            return False, "claimed trivial but no class contains a 2-transversal"
    return True, "proper strict coloring verified"


def _verify_blocking_set(payload):
    n, q = payload["space"]["n"], payload["space"]["q"]
    space = ProjectiveSpace.of_order(n, q)
    B = WeightedPointSet(space, list(payload["weights"]))
    for claim in payload["claims"]:
        kind = claim["type"]
        t, k = claim["t"], claim["k"]
        if kind == "t_fold_blocking":
            ok, witness = is_t_fold_blocking(B, t, k)
            if ok != claim.get("verified", True):
                detail = "claim mismatch"
                if witness is not None:
                    detail = f"violating {k}-space with basis {witness.basis}"
                return False, detail
        elif kind == "t_mod_p":
            ok, witness = is_t_mod_p_set(B, t, k)
            if ok != claim.get("verified", True):
                return False, f"t (mod p) claim fails on a {k}-space"
        elif kind == "minimal":
            if is_minimal(B, t, k) != claim.get("verified", True):
                return False, "minimality claim mismatch"
        else:
            return False, f"unknown claim type {kind!r}"
    return True, "all claims verified"


def _verify_tmodp_report(payload):
    p, t, k, sets = payload["p"], payload["t"], payload["k"], payload["sets"]
    cap, max_size, verified = payload["weight_cap"], payload["max_size"], payload["verified"]
    kdim, exhaustive = payload["kernel_dim"], payload["exhaustive"]
    space = ProjectiveSpace.of_order(2, p)
    expected = payload["expected_size"]
    if expected != t * theta(space.n - k, p):
        return False, "expected_size is wrong for the parameters"
    if count_subspaces(2, k, p) * space.num_points > MATRIX_ENTRY_LIMIT:
        return False, "the enumeration refuses this plane, so it has no report"
    if type(kdim) is not int or not 0 <= kdim <= space.num_points:
        return False, f"kernel_dim {kdim!r} is not an int in [0, {space.num_points}]"
    # the constant weight t is a t (mod p) set, so the system is consistent
    # and its solutions form p^kernel_dim classes
    if payload["num_solution_classes"] != p**kdim:
        return False, "num_solution_classes is not p^kernel_dim"
    if exhaustive != (p**kdim <= COSET_LIMIT):
        return False, f"exhaustive does not match {p}^{kdim} cosets against the limit"
    if len(sets) != payload["num_found"]:
        return False, "num_found does not match the listed sets"
    if len(set(map(tuple, sets))) != len(sets):
        return False, "a set is listed twice"
    if verified and payload["violations"]:
        return False, "claimed verified but violations are listed"
    if verified and not (exhaustive and payload["num_found"] == payload["num_unions"]):
        return False, "claimed verified without an exhaustive search finding every union"
    if cap > p - 1:
        return False, f"weight_cap {cap} is above p - 1"
    require_line_multiset_limit(p, t)
    if payload["num_unions"] != len(line_union_weights(space, k, t, max_size, cap)):
        return False, "num_unions does not match a recount of the unions"
    for wt in sets:
        B = WeightedPointSet(space, list(wt))
        if max(wt) > cap:
            return False, f"listed set has a point of weight {max(wt)} > weight_cap {cap}"
        if B.size > max_size:
            return False, f"listed set has size {B.size} > max_size {max_size}"
        ok, _ = is_t_mod_p_set(B, t, k)
        if not ok:
            return False, f"listed set of size {B.size} is not a {t} (mod {p}) set"
        if verified and B.size != expected:
            return False, f"listed set has size {B.size} != {expected}"
    return True, "report sets verified"


def _verify_bounds(payload):
    rep = bounds_report(payload["n"], payload["k"], payload["q"], payload["t"])
    if rep.to_json() != payload["report"]:
        return False, "bounds report does not match a recomputation"
    return True, "bounds verified"


_VERIFIERS = {
    "transversal": _verify_transversal,
    "coloring": _verify_coloring,
    "blocking_set": _verify_blocking_set,
    "tmodp_report": _verify_tmodp_report,
    "bounds": _verify_bounds,
}


def recheck(cert: dict):
    """Verify a certificate without re-solving.  Returns (ok, detail)."""
    if not isinstance(cert, dict):
        return False, "malformed certificate: not a JSON object"
    for key in ("schema_version", "kind", "payload", "checksum"):
        if key not in cert:
            return False, f"malformed certificate: missing {key!r}"
    if not isinstance(cert["kind"], str) or cert["kind"] not in _VERIFIERS:
        return False, f"unknown certificate kind {cert['kind']!r}"
    if checksum(cert["payload"]) != cert["checksum"]:
        return False, "checksum mismatch"
    try:
        return _VERIFIERS[cert["kind"]](cert["payload"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"verification error: {exc}"
