"""Canonical JSON certificates with checksums, and re-verification that
never re-solves anything."""

from __future__ import annotations

import hashlib
import itertools
import json
import operator

from .blocking import WeightedPointSet, judge_claim
from .coloring import (Coloring, _rainbow_edge, _trivial_class, is_strict,
                       is_trivial_coloring)
from .geometry import (DEFAULT_MAX_MASK_BITS, Hypergraph, ProjectiveSpace, _limit_fault,
                       count_subspaces, load_json, mask_bits, point_set, theta, write_text)
from .solvers import (BoundsReport, SolveResult, TModPVerification, bounds_report,
                      tmodp_frame, tmodp_violations)

SCHEMA_VERSION = 1
# the point/k-space incidences, count_subspaces(n, k, q) * theta(k, q), that
# a transversal or coloring certificate may make recheck read: PG(2,97)'s
# 931,686 take about 0.8 s and 34 MiB, and the largest certificate in the
# tests and the benchmark corpus has 4,840
RECHECK_INCIDENCE_LIMIT = 10**6

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


class _Made(dict):
    """A certificate as make_certificate made it, with its canonical text
    and the field values that text was made from."""
    __slots__ = ("text", "made")


def make_certificate(kind: str, payload: dict) -> dict:
    """The certificate of payload.  Its canonical text is kept, built
    around the payload text that the checksum is computed from: the keys
    sort as checksum, kind, payload, schema_version."""
    if kind not in _VERIFIERS:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    text = canonical_json(payload)
    digest = hashlib.sha256(text.encode()).hexdigest()
    cert = _Made(schema_version=SCHEMA_VERSION, kind=kind, payload=payload, checksum=digest)
    cert.made = tuple(cert.values())
    cert.text = (f'{{"checksum":"{digest}","kind":"{kind}","payload":{text},'
                 f'"schema_version":{SCHEMA_VERSION}}}')
    return cert


def _geometry(H: Hypergraph) -> tuple:
    if H.geometry is None:
        raise CertificateError("the edges are not the k-spaces of any PG(n,q)")
    return H.geometry


def transversal_certificate(H: Hypergraph, t: int, res: SolveResult) -> dict:
    """Certificate of a t-transversal of H; CertificateError unless H.geometry is set.
    A `bound_only` result claims no objective, so its payload has none."""
    n, k, q = _geometry(H)
    payload = {"n": n, "k": k, "q": q, "t": t, "points": list(res.witness)}
    if res.objective is not None:
        payload["objective"] = res.objective
    return make_certificate("transversal", payload)


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


def blocking_set_certificate(B: WeightedPointSet, t: int, k: int) -> dict:
    """Certificate of B's claims on k-spaces, judged in one pass over them:
    t-fold blocking, t (mod p) and, if it is blocking, minimal."""
    sums = {}
    claims = [{"type": kind, "t": t, "k": k, "verified": judge_claim(B, kind, t, k, sums)[0]}
              for kind in ("t_fold_blocking", "t_mod_p", "minimal")]
    if not claims[0]["verified"]:
        del claims[2]
    return make_certificate("blocking_set", {**B.to_json(), "claims": claims})


def tmodp_certificate(rep: TModPVerification) -> dict:
    """Certificate of a t (mod p) structure report."""
    return make_certificate("tmodp_report", rep.to_json())


def write_certificate(cert: dict, path: str) -> None:
    """Write the canonical JSON text of cert.  A certificate from
    make_certificate whose four fields still hold the objects it was made
    with is written from its kept text, so its payload is not encoded a
    second time; a payload changed in place after that is not seen, as
    its checksum would not match it either."""
    made = type(cert) is _Made and len(cert) == 4 and all(map(
        operator.is_, cert.values(), cert.made))
    write_text(path, cert.text if made else canonical_json(cert))


def load_certificate(path: str) -> dict:
    return load_json(path)


def _all_ints(values) -> bool:
    """True iff every value is an int and not a bool."""
    return set(map(type, values)) <= {int}


def _require_ints(payload: dict, keys) -> None:
    """TypeError, which recheck reports, unless each field `keys` of
    payload is an int: True == 1 and 2.0 == 2, so a bool or a float would
    pass every test that compares it."""
    for key in keys:
        if type(payload[key]) is not int:
            raise TypeError(f"{key} {payload[key]!r} is not an int")


def _incidence_fault(n, k, q):
    """Why recheck will not read the k-spaces of PG(n,q), by counts alone,
    before any field is built (GF(65536) alone takes seconds): the space is
    past its limits, or the k-spaces have more than RECHECK_INCIDENCE_LIMIT
    incidences, or their masks, up to theta(n, q) bits each, may need more
    than DEFAULT_MAX_MASK_BITS.  None for q < 2 and for k outside [0, n]:
    the build names those faults."""
    if q < 2:
        return None
    fault = _limit_fault(n, q)
    if fault is not None or not 0 <= k <= n:
        return fault
    count = count_subspaces(n, k, q)
    incidences = count * theta(k, q)
    if incidences > RECHECK_INCIDENCE_LIMIT:
        return f"the {k}-spaces of PG({n},{q}) have {incidences} point incidences, " \
               f"more than the limit {RECHECK_INCIDENCE_LIMIT}"
    bits = count * theta(n, q)
    if bits > DEFAULT_MAX_MASK_BITS:
        return f"the masks of the {k}-spaces of PG({n},{q}) may need {bits} bits, " \
               f"more than the limit {DEFAULT_MAX_MASK_BITS}"
    return None


def _verify_transversal(payload):
    _require_ints(payload, ("n", "k", "q", "t"))
    n, k, q, t = payload["n"], payload["k"], payload["q"], payload["t"]
    fault = _incidence_fault(n, k, q)
    if fault is not None:
        return False, fault
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
    _require_ints(payload, ("n", "k", "q"))
    n, k, q = payload["n"], payload["k"], payload["q"]
    fault = _incidence_fault(n, k, q)
    if fault is not None:
        return False, fault
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
    if trivial is not None and type(trivial) is not bool:
        return False, f"trivial {trivial!r} is not a bool"
    if trivial is not None and trivial != (_trivial_class(masks, H) is not None):
        if trivial:
            return False, "claimed trivial but no class contains a 2-transversal"
        return False, "claimed not trivial but a class contains a 2-transversal"
    return True, "proper strict coloring verified"


def _verify_blocking_set(payload):
    _require_ints(payload["space"], ("n", "q"))
    n, q = payload["space"]["n"], payload["space"]["q"]
    # the space itself, its one n-space, before the field is built
    fault = _incidence_fault(n, n, q)
    if fault is not None:
        return False, fault
    space = ProjectiveSpace.of_order(n, q)
    weights = list(payload["weights"])
    if not _all_ints(weights):
        return False, "a weight is not an int"
    B = WeightedPointSet(space, weights)
    # the k-space weights of B, computed once for each k that a claim names
    sums = {}
    for claim in payload["claims"]:
        kind = claim["type"]
        _require_ints(claim, ("t", "k"))
        t, k = claim["t"], claim["k"]
        claimed = claim.get("verified", True)
        if type(claimed) is not bool:
            return False, f"verified {claimed!r} is not a bool"
        fault = _incidence_fault(n, k, q)
        if fault is not None:
            return False, fault
        if kind not in ("t_fold_blocking", "t_mod_p", "minimal"):
            return False, f"unknown claim type {kind!r}"
        holds, witness = judge_claim(B, kind, t, k, sums)
        if holds == claimed:
            continue
        if kind == "minimal":
            return False, "minimality claim mismatch"
        if kind == "t_mod_p":
            return False, f"t (mod p) claim fails on a {k}-space"
        if witness is None:
            return False, "claim mismatch"
        return False, f"violating {k}-space with basis {witness.basis}"
    return True, "all claims verified"


def _listed_set_fault(space, sets, sizes, t, max_size, expected):
    """Why one of the listed weight tuples, all of int weights and of the
    sizes `sizes`, is not a t (mod p) set of the plane `space` within the
    weight_cap p - 1 and max_size, or, when expected is not None, not of
    size expected; None when all are.  p must be below 256 (the matrix
    limit keeps it at most 17).

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
    npts, char = space.num_points, space.field.p
    cap = char - 1
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
        peak = max(flat.translate(None, bytes(range(char))), default=cap)
    if peak > cap:
        return f"listed set has a point of weight {peak} > weight_cap {cap}"
    if max(sizes) > max_size:
        return f"listed set has size {max(sizes)} > max_size {max_size}"
    nsets, residue = len(sets), t % char
    residues = bytes(range(char)) * (256 // char) + bytes(range(256 % char))  # w -> w % char
    # a reduced lane is below char and each term adds at most cap
    step = (256 - char) // cap
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


def _verify_tmodp_report(payload):
    # every field that follows from p, t and max_size, recomputed; the type
    # too, as True == 1 and 6.5 compares with every size as 6 does.  The
    # frame raises for a p, t or max_size that no report can have, and
    # refuses a plane past the matrix limit before any field is built
    frame = tmodp_frame(payload["p"], payload["t"], payload["max_size"])
    for key, value in frame.items():
        if type(payload[key]) is not type(value) or payload[key] != value:
            return False, f"{key} {payload[key]!r} is not {value!r} as recomputed " \
                          f"from p, t and max_size"
    _require_ints(payload, ("num_found",))
    if type(payload["verified"]) is not bool:
        return False, f"verified {payload['verified']!r} is not a bool"
    p, t, max_size, sets = payload["p"], payload["t"], payload["max_size"], payload["sets"]
    verified, exhaustive = payload["verified"], payload["exhaustive"]
    expected, num_unions = payload["expected_size"], payload["num_unions"]
    if len(sets) != payload["num_found"]:
        return False, "num_found does not match the listed sets"
    found = list(map(tuple, sets))
    if not _all_ints(itertools.chain.from_iterable(found)):
        return False, "a listed set has a weight that is not an int"
    if len(set(found)) != len(found):
        return False, "a set is listed twice"
    if verified and payload["violations"]:
        return False, "claimed verified but violations are listed"
    if verified and not (exhaustive and payload["num_found"] == num_unions):
        return False, "claimed verified without an exhaustive search finding every union"
    space = ProjectiveSpace.of_order(2, p)
    sizes = list(map(sum, found))
    fault = _listed_set_fault(space, found, sizes, t, max_size, expected if verified else None)
    if fault is not None:
        return False, fault
    # the violations follow from the listed sets and, when the search was
    # exhaustive, from the unions it missed; in any order
    def key(v):
        return v["weights"], v["reason"]
    if not _all_ints(itertools.chain.from_iterable(v["weights"] for v in payload["violations"])):
        return False, "a violation has a weight that is not an int"
    violations = tmodp_violations(space, t, found, sizes, expected, num_unions, exhaustive)
    if violations != payload["violations"] and \
            sorted(map(key, violations)) != sorted(map(key, payload["violations"])):
        return False, "violations do not match those of the listed sets and the union count"
    return True, "report sets verified"


def _verify_bounds(payload):
    _require_ints(payload, ("n", "k", "q", "t"))
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
    return _verify_payload(cert["kind"], cert["payload"])


def _verify_payload(kind: str, payload):
    """The verdict (ok, detail) of the verifier of a known kind on a
    payload, re-deriving every claim; the checks of recheck after the
    checksum, for a caller that made the certificate and so knows its
    envelope and checksum to be sound."""
    try:
        return _VERIFIERS[kind](payload)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"verification error: {exc}"
