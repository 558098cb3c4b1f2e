"""Canonical JSON certificates with checksums, and re-verification that
never re-solves anything."""

from __future__ import annotations

import itertools
import operator

from .blocking import CLAIM_KINDS, WeightedPointSet, judge_claim
from .coloring import Coloring, ColoringError, is_strict, judge_coloring
from .geometry import (GeometryError, Hypergraph, ProjectiveSpace, all_ints, canonical_json,
                       mask_bits, point_set, write_text)
from .solvers import (BoundsReport, SolveResult, TModPVerification, bounds_report,
                      tmodp_frame, tmodp_verdict)

# CPython 3.12 renamed the built-in module _sha256 to _sha2, and a build
# may leave it out
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        _sha256 = None

SCHEMA_VERSION = 1


class CertificateError(ValueError):
    pass


def _digest(text: str) -> str:
    """The SHA-256 hex digest of text.  The interpreter's built-in
    `_sha2` (`_sha256` before CPython 3.12) links no OpenSSL, where
    `hashlib` loads libcrypto, about 3.5 MiB.  Without that module
    hashlib gives the same digest and is imported at the first one, so a
    process that never certifies never loads it."""
    sha256 = _sha256
    if sha256 is None:
        from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def checksum(payload) -> str:
    return _digest(canonical_json(payload))


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
    digest = _digest(text)
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
    _, color = judge_coloring(coloring, H)
    return make_certificate("coloring", {"n": n, "k": k, "q": q, **coloring.to_json(),
                                         "trivial": color is not None})


def bounds_certificate(rep: BoundsReport) -> dict:
    """Certificate of a bounds report; recheck recomputes it."""
    return make_certificate("bounds", {"n": rep.n, "k": rep.k, "q": rep.q, "t": rep.t,
                                       "report": rep.to_json()})


def blocking_set_certificate(B: WeightedPointSet, t: int, k: int) -> dict:
    """Certificate of B's claims on k-spaces, judged in one pass over them:
    t-fold blocking, t (mod p) and, if it is blocking, minimal."""
    sums = {}
    claims = [{"type": kind, "t": t, "k": k, "verified": judge_claim(B, kind, t, k, sums)[0]}
              for kind in CLAIM_KINDS]
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


def _require_ints(payload: dict, keys) -> None:
    """TypeError, which recheck reports, unless each field `keys` of
    payload is an int: True == 1 and 2.0 == 2, so a bool or a float would
    pass every test that compares it."""
    for key in keys:
        if type(payload[key]) is not int:
            raise TypeError(f"{key} {payload[key]!r} is not an int")


def _require(payload: dict, key: str, kind: type, item: type, what: str):
    """payload[key] if it is a `kind` of `item`s, else a TypeError saying what it must be."""
    value = payload[key]
    if type(value) is not kind or not all(isinstance(v, item) for v in value):
        raise TypeError(f"{key} must be {what}")
    return value


def _verify_transversal(payload):
    _require_ints(payload, ("t",))
    n, k, q, t = payload["n"], payload["k"], payload["q"], payload["t"]
    # exact_tau refuses t < 1, so no solve certifies one
    if t < 1:
        return False, "t must be >= 1"
    space = ProjectiveSpace.of_order(n, q)
    # the level's refusals come before the points'
    levels = space.subspaces(k)
    pts = point_set(payload["points"], space.num_points)
    if "objective" in payload:
        _require_ints(payload, ("objective",))
        if payload["objective"] != len(pts):
            return False, "objective does not match the witness size"
    mask = sum(1 << i for i in pts)
    for S in levels:
        hit = (S.mask & mask).bit_count()
        if hit < t:
            return False, f"a {k}-space meets the set in only {hit} < {t} points"
    return True, "t-transversal verified"


def _verify_coloring(payload):
    n, k, q = payload["n"], payload["k"], payload["q"]
    H = ProjectiveSpace.of_order(n, q).hypergraph(k)
    coloring = Coloring.from_json(payload)
    N = payload.get("N")
    if N is not None:
        _require_ints(payload, ("N",))
    # a wrong N needs only the strictness test, which the judge reports first
    if N is not None and N != coloring.N and is_strict(coloring, H.num_vertices):
        return False, "N does not match the assignment"
    try:
        edge, color = judge_coloring(coloring, H)
    except ColoringError:
        return False, "coloring is not strict"
    if edge is not None:
        return False, f"rainbow hyperedge on points {mask_bits(edge)}"
    trivial = payload.get("trivial")
    if trivial is not None and type(trivial) is not bool:
        return False, f"trivial {trivial!r} is not a bool"
    if trivial is not None and trivial != (color is not None):
        if trivial:
            return False, "claimed trivial but no class contains a 2-transversal"
        return False, "claimed not trivial but a class contains a 2-transversal"
    return True, "proper strict coloring verified"


def _verify_blocking_set(payload):
    spec = _require(payload, "space", dict, object, "an object with n and q")
    n, q = spec["n"], spec["q"]
    claims = _require(payload, "claims", list, dict, "a list of claim objects")
    if not claims:
        return False, "claims lists no claim"
    B = WeightedPointSet.from_json(ProjectiveSpace.of_order(n, q), payload["weights"])
    # the k-space weights of B, once for each k
    sums = {}
    for claim in claims:
        kind, t, k = claim["type"], claim["t"], claim["k"]
        claimed = claim.get("verified", True)
        if type(claimed) is not bool:
            return False, f"verified {claimed!r} is not a bool"
        holds, witness = judge_claim(B, kind, t, k, sums)
        if holds == claimed:
            continue
        if holds:
            return False, f"{kind} claim (t = {t}, k = {k}) holds but is marked unverified"
        blocking, mod_p, _ = CLAIM_KINDS
        if kind == blocking:
            return False, f"violating {k}-space with basis {witness.basis}"
        if kind == mod_p:
            return False, f"t (mod p) claim fails on a {k}-space"
        return False, "minimality claim mismatch"
    return True, "all claims verified"


def _listed_set_fault(space, sets, sizes, t, max_size):
    """Why one of the listed weight tuples, all of int weights and of the
    sizes `sizes`, is not a t (mod p) set of the plane `space` within the
    weight_cap p - 1 and max_size; None when all are.  p must be below 256
    (the matrix limit keeps it at most 17).

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
    for pts in space.hypergraph(1).edge_points():
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
    p, t, max_size = payload["p"], payload["t"], payload["max_size"]
    sets = _require(payload, "sets", list, list, "a list of weight lists")
    claimed = _require(payload, "violations", list, dict, "a list of violation objects")
    if len(sets) != payload["num_found"]:
        return False, "num_found does not match the listed sets"
    found = list(map(tuple, sets))
    if not all_ints(itertools.chain.from_iterable(found)):
        return False, "a listed set has a weight that is not an int"
    if len(set(found)) != len(found):
        return False, "a set is listed twice"
    space = ProjectiveSpace.of_order(2, p)
    sizes = list(map(sum, found))
    fault = _listed_set_fault(space, found, sizes, t, max_size)
    if fault is not None:
        return False, fault
    # the verdict and the violations follow from the listed sets and, when
    # the search was exhaustive, from the unions it missed; the violations
    # in any order
    violations, verified = tmodp_verdict(space, t, found, sizes, frame)
    if payload["verified"] is not verified:
        return False, f"verified {payload['verified']} is not {verified} as recomputed " \
                      f"from the listed sets"
    key = operator.itemgetter("weights", "reason")
    for v in claimed:
        if type(v.get("weights")) is not list:
            return False, "a violation's weights must be a list of ints"
        if type(v.get("reason")) is not str:
            return False, "a violation's reason must be a string"
    if not all_ints(itertools.chain.from_iterable(v["weights"] for v in claimed)):
        return False, "a violation has a weight that is not an int"
    if violations != claimed and sorted(map(key, violations)) != sorted(map(key, claimed)):
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
    # True == 1, so the type is tested too
    if type(cert["schema_version"]) is not int or cert["schema_version"] != SCHEMA_VERSION:
        return False, f"unsupported schema_version {cert['schema_version']!r}"
    if not isinstance(cert["kind"], str) or cert["kind"] not in _VERIFIERS:
        return False, f"unknown certificate kind {cert['kind']!r}"
    try:
        digest = checksum(cert["payload"])
    except (TypeError, ValueError, RecursionError) as exc:
        return False, f"malformed certificate: {exc}"
    if digest != cert["checksum"]:
        return False, "checksum mismatch"
    return verify_payload(cert["kind"], cert["payload"])


def verify_payload(kind: str, payload):
    """The verdict (ok, detail) of the verifier of a known kind, re-deriving
    every claim of the payload: recheck past the checksum, for a caller that
    made the certificate.  A GeometryError, such as level_gate's, is the
    detail itself; any other error is "verification error: {error}"."""
    try:
        return _VERIFIERS[kind](payload)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, str(exc) if isinstance(exc, GeometryError) else f"verification error: {exc}"
