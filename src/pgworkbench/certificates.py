"""Canonical JSON certificates with checksums, and re-verification that
never re-solves anything."""

from __future__ import annotations

import hashlib
import itertools
import json

from .blocking import (COSET_LIMIT, MATRIX_ENTRY_LIMIT, WeightedPointSet, _is_minimal,
                       _kspace_failure, _plane_kernel_dim, _verdict)
from .coloring import (Coloring, _rainbow_edge, _trivial_class, is_strict,
                       is_trivial_coloring)
from .fields import factor_prime_power
from .geometry import (Hypergraph, ProjectiveSpace, count_subspaces, load_json, mask_bits,
                       point_set, theta)
from .solvers import (BoundsReport, SolveResult, TModPVerification, bounds_report,
                      num_line_unions, tmodp_violations)

SCHEMA_VERSION = 1

class CertificateError(ValueError):
    pass


# one encoder for every call; check_circular=False drops the id() bookkeeping
# of each container, so a payload that holds itself raises RecursionError
# where json.dumps raises ValueError
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                      check_circular=False)


def canonical_json(payload) -> str:
    """The canonical JSON text of payload: sorted keys, no spaces, ASCII
    only; the bytes of json.dumps(payload, sort_keys=True,
    separators=(",", ":")).  TypeError for a value that is not JSON or a
    dict whose keys cannot be sorted, RecursionError for one nested too deep
    or holding itself."""
    return _CANONICAL_ENCODER.encode(payload)


def checksum(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def make_certificate(kind: str, payload: dict) -> dict:
    if kind not in _VERIFIERS:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    return {"schema_version": SCHEMA_VERSION, "kind": kind,
            "payload": payload, "checksum": checksum(payload)}


def _geometry(H: Hypergraph) -> tuple:
    if H.geometry is None:
        raise CertificateError("the hypergraph's edges are not the k-spaces its params name")
    return H.geometry


def transversal_certificate(H: Hypergraph, t: int, res: SolveResult) -> dict:
    """Certificate of a t-transversal of H; CertificateError unless H.geometry is set."""
    n, k, q = _geometry(H)
    return make_certificate("transversal", {"n": n, "k": k, "q": q, "t": t,
                                            "points": list(res.witness),
                                            "objective": res.objective})


def coloring_certificate(H: Hypergraph, coloring: Coloring) -> dict:
    """Certificate of a proper strict coloring of H, recording whether it
    is trivial; CertificateError unless H.geometry is set."""
    n, k, q = _geometry(H)
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
    return load_json(path)


def _all_ints(values) -> bool:
    """True iff every value is an int and not a bool."""
    return set(map(type, values)) <= {int}


def _verify_transversal(payload):
    n, k, q, t = payload["n"], payload["k"], payload["q"], payload["t"]
    space = ProjectiveSpace.of_order(n, q)
    pts = point_set(payload["points"], space.num_points)
    if "objective" in payload and payload["objective"] != len(pts):
        return False, "objective does not match the witness size"
    mask = sum(1 << i for i in pts)
    for S in space.subspaces(k):
        hit = (S.mask & mask).bit_count()
        if hit < t:
            return False, f"a {k}-space meets the set in only {hit} < {t} points"
    return True, "t-transversal verified"


def _verify_coloring(payload):
    n, k, q = payload["n"], payload["k"], payload["q"]
    space = ProjectiveSpace.of_order(n, q)
    H = space.hypergraph(k)
    coloring = Coloring(tuple(payload["assignment"]))
    if not _all_ints(coloring.assignment):
        return False, "a color is not an int"
    if not is_strict(coloring, H.num_vertices):
        return False, "coloring is not strict"
    if payload.get("N") is not None and coloring.N != payload["N"]:
        return False, "N does not match the assignment"
    # the coloring is strict from here on: one set of class masks serves
    # both tests, with no second strictness test
    masks = coloring.class_masks()
    edge = _rainbow_edge(masks, H)
    if edge is not None:
        return False, f"rainbow hyperedge on points {mask_bits(edge)}"
    trivial = payload.get("trivial")
    if trivial is not None and bool(trivial) != (_trivial_class(masks, H) is not None):
        if trivial:
            return False, "claimed trivial but no class contains a 2-transversal"
        return False, "claimed not trivial but a class contains a 2-transversal"
    return True, "proper strict coloring verified"


def _verify_blocking_set(payload):
    n, q = payload["space"]["n"], payload["space"]["q"]
    space = ProjectiveSpace.of_order(n, q)
    weights = list(payload["weights"])
    if not _all_ints(weights):
        return False, "a weight is not an int"
    B = WeightedPointSet(space, weights)
    # the k-space weights of B, computed once for each k that a claim names
    sums = {}
    for claim in payload["claims"]:
        kind = claim["type"]
        t, k = claim["t"], claim["k"]
        if kind == "t_fold_blocking":
            ok, witness = _verdict(B, k, _kspace_failure(B, t, k, None, sums))
            if ok != claim.get("verified", True):
                detail = "claim mismatch"
                if witness is not None:
                    detail = f"violating {k}-space with basis {witness.basis}"
                return False, detail
        elif kind == "t_mod_p":
            failure = _kspace_failure(B, t, k, space.field.p, sums)
            if (failure is None) != claim.get("verified", True):
                return False, f"t (mod p) claim fails on a {k}-space"
        elif kind == "minimal":
            if _is_minimal(B, t, k, sums) != claim.get("verified", True):
                return False, "minimality claim mismatch"
        else:
            return False, f"unknown claim type {kind!r}"
    return True, "all claims verified"


def _listed_set_fault(space, sets, sizes, t, cap, max_size, expected):
    """Why one of the listed weight tuples, all of int weights and of the
    sizes `sizes`, is not a t (mod p) set of the plane `space` within
    weight_cap and max_size, or, when expected is not None, not of size
    expected; None when all are.  cap must be at most p - 1, and p below
    256 (the matrix limit keeps it at most 17).

    Each test runs over every set before the next starts, in the order
    that a single faulty set meets them, so such a set gets the detail
    that a set-by-set scan gives it.  The sets are read as one bytes
    object, one byte per weight; a weight outside [0, 255] makes that
    fail, and the plain tests name it.  Otherwise point i's column is one
    int with a byte lane per set, and a line's weight in every set is the
    sum of its points' columns, reduced lane by lane mod p often enough
    that no lane passes 255.  The first lane off residue t names the set."""
    if not sets:
        return None
    npts = space.num_points
    try:
        flat = bytes(itertools.chain.from_iterable(sets))
    except ValueError:
        flat = None
    if set(map(len, sets)) != {npts} or (flat is None and min(map(min, sets)) < 0):
        for wt in sets:
            # raises the BlockingError that names the fault
            WeightedPointSet(space, list(wt))
    if flat is None:
        peak = max(map(max, sets))
    else:
        peak = max(flat.translate(None, bytes(range(cap + 1))), default=cap)
    if peak > cap:
        return f"listed set has a point of weight {peak} > weight_cap {cap}"
    if max(sizes) > max_size:
        return f"listed set has size {max(sizes)} > max_size {max_size}"
    char, nsets = space.field.p, len(sets)
    residue = t % char
    residues = bytes(range(char)) * (256 // char) + bytes(range(256 % char))  # w -> w % char
    # a reduced lane is below char and each term adds at most cap
    step = (256 - char) // max(cap, 1)
    columns = [int.from_bytes(flat[i::npts], "little") for i in range(npts)]
    for pts in space.incidence(1):
        lanes = 0
        for start in range(0, len(pts), step):
            if start:
                lanes = int.from_bytes(lanes.to_bytes(nsets, "little").translate(residues),
                                       "little")
            lanes += sum(map(columns.__getitem__, pts[start:start + step]))
        got = lanes.to_bytes(nsets, "little").translate(residues)
        if got.count(residue) != nsets:
            j = next(j for j, r in enumerate(got) if r != residue)
            return f"listed set of size {sizes[j]} is not a {t} (mod {space.q}) set"
    if expected is not None and set(sizes) != {expected}:
        return f"listed set has size {(set(sizes) - {expected}).pop()} != {expected}"
    return None


_TMODP_INT_FIELDS = ("p", "t", "k", "max_size", "weight_cap", "num_solution_classes",
                     "num_found", "num_unions", "expected_size")


def _verify_tmodp_report(payload):
    # every count is an int and each flag a bool: True == 1 and 6.5 compares
    # with every size as 6 does, so either would pass the tests below
    for key in _TMODP_INT_FIELDS:
        if type(payload[key]) is not int:
            return False, f"{key} {payload[key]!r} is not an int"
    for key in ("verified", "exhaustive"):
        if type(payload[key]) is not bool:
            return False, f"{key} {payload[key]!r} is not a bool"
    p, t, k, sets = payload["p"], payload["t"], payload["k"], payload["sets"]
    cap, max_size, verified = payload["weight_cap"], payload["max_size"], payload["verified"]
    kdim, exhaustive = payload["kernel_dim"], payload["exhaustive"]
    # counts only until the plane is known to be within the matrix limit
    if factor_prime_power(p)[1] != 1:
        return False, f"p = {p} is not prime, so the enumeration has no report"
    if k != 1:
        return False, f"k = {k}: a report is about the lines of the plane, k = 1"
    expected = payload["expected_size"]
    if expected != t * theta(1, p):
        return False, "expected_size is wrong for the parameters"
    if count_subspaces(2, 1, p) * theta(2, p) > MATRIX_ENTRY_LIMIT:
        return False, "the enumeration refuses this plane, so it has no report"
    space = ProjectiveSpace.of_order(2, p)
    if type(kdim) is not int or not 0 <= kdim <= space.num_points:
        return False, f"kernel_dim {kdim!r} is not an int in [0, {space.num_points}]"
    plane_dim = _plane_kernel_dim(p)
    if kdim != plane_dim:
        return False, f"kernel_dim {kdim} is not {plane_dim}, the kernel dimension mod {p} " \
                      f"of the {k}-space incidence"
    # the constant weight t is a t (mod p) set, so the system is consistent
    # and its solutions form p^kernel_dim classes
    if payload["num_solution_classes"] != p**kdim:
        return False, "num_solution_classes is not p^kernel_dim"
    if exhaustive != (p**kdim <= COSET_LIMIT):
        return False, f"exhaustive does not match {p}^{kdim} cosets against the limit"
    if len(sets) != payload["num_found"]:
        return False, "num_found does not match the listed sets"
    found = list(map(tuple, sets))
    if not _all_ints(itertools.chain.from_iterable(found)):
        return False, "a listed set has a weight that is not an int"
    if len(set(found)) != len(found):
        return False, "a set is listed twice"
    if verified and payload["violations"]:
        return False, "claimed verified but violations are listed"
    if verified and not (exhaustive and payload["num_found"] == payload["num_unions"]):
        return False, "claimed verified without an exhaustive search finding every union"
    if cap > p - 1:
        return False, f"weight_cap {cap} is above p - 1"
    # the union count, and the sizes that tell a union, need t <= weight_cap
    if t > cap:
        return False, f"t = {t} is above weight_cap {cap}"
    if payload["num_unions"] != num_line_unions(p, t, max_size):
        return False, "num_unions does not match the count of the unions"
    sizes = list(map(sum, found))
    fault = _listed_set_fault(space, found, sizes, t, cap, max_size,
                              expected if verified else None)
    if fault is not None:
        return False, fault
    # the violations follow from the listed sets and, when the search was
    # exhaustive, from the unions it missed; in any order
    def key(v):
        return v["weights"], v["reason"]
    if not _all_ints(itertools.chain.from_iterable(v["weights"] for v in payload["violations"])):
        return False, "a violation has a weight that is not an int"
    violations = tmodp_violations(space, t, found, sizes, expected, payload["num_unions"],
                                  exhaustive)
    if violations != payload["violations"] and \
            sorted(map(key, violations)) != sorted(map(key, payload["violations"])):
        return False, "violations do not match those of the listed sets and the union count"
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
    try:
        digest = checksum(cert["payload"])
    except (TypeError, ValueError, RecursionError) as exc:
        return False, f"malformed certificate: {exc}"
    if digest != cert["checksum"]:
        return False, "checksum mismatch"
    try:
        return _VERIFIERS[cert["kind"]](cert["payload"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"verification error: {exc}"
