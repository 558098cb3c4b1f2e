"""Fuzz test of recheck: one valid certificate of each kind with one or two
of its values replaced by JSON values, among them the orders of fields
past the limits and k out of range.  recheck must answer every such
certificate with a (bool, str) pair, raise nothing, and answer within a
second."""

import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from pgworkbench.blocking import construct_union  # noqa: E402
from pgworkbench.certificates import (bounds_certificate, coloring_certificate,  # noqa: E402
                                      make_certificate, recheck, tmodp_certificate,
                                      transversal_certificate)
from pgworkbench.geometry import ProjectiveSpace  # noqa: E402
from pgworkbench.solvers import (bounds_report, exact_tau, exact_ucn,  # noqa: E402
                                 verify_tmodp_theorem)

# orders whose fields take seconds to build (65536, 59049), values past
# every limit, and small values that name other spaces, levels and weights
EDGE_VALUES = [65536, 59049, 65537, 10**9, 2**64, -1, 0, 1, 2, 3, 4, 7, 17, 127]


def _valid_certificates():
    H = ProjectiveSpace.of_order(2, 2).hypergraph(1)
    plane = ProjectiveSpace.of_order(2, 3)
    lines = plane.subspaces(1)
    B = construct_union(plane, [(lines[0], 1), (lines[1], 1)])
    blocking = make_certificate("blocking_set", {
        "space": {"n": 2, "q": 3}, "weights": list(B.weights),
        "claims": [{"type": "t_fold_blocking", "t": 2, "k": 1, "verified": True},
                   {"type": "t_mod_p", "t": 2, "k": 1, "verified": True},
                   {"type": "minimal", "t": 2, "k": 1, "verified": True}]})
    certs = [transversal_certificate(H, 2, exact_tau(H, 2)),
             coloring_certificate(H, exact_ucn(H).witness),
             blocking,
             tmodp_certificate(verify_tmodp_theorem(2, 1)),
             bounds_certificate(bounds_report(3, 1, 4, 2))]
    return {cert["kind"]: cert for cert in certs}


VALID = _valid_certificates()


def _paths(value, path=()):
    """The path of every value inside a payload, containers included."""
    yield path
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _paths(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value[:3]):
            yield from _paths(item, path + (i,))


def _replace(payload, path, new):
    """payload with the value at path replaced by new; the containers on
    the path are copied, the rest is shared.  A path that an earlier
    replacement took away leaves payload as it is."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(payload, dict):
        if head not in payload:
            return payload
        return {**payload, head: _replace(payload[head], rest, new)}
    if not isinstance(payload, list) or not isinstance(head, int) or head >= len(payload):
        return payload
    return payload[:head] + [_replace(payload[head], rest, new)] + payload[head + 1:]


# every path below the payload itself, by kind
PATHS = {kind: list(_paths(cert["payload"]))[1:] for kind, cert in VALID.items()}

json_values = st.one_of(
    st.sampled_from(EDGE_VALUES), st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3), st.dictionaries(st.text(max_size=2),
                                                               st.integers(), max_size=2))


@st.composite
def mutations(draw):
    """A kind and one or two (path, value) replacements in its payload."""
    kind = draw(st.sampled_from(sorted(PATHS)))
    edit = st.tuples(st.sampled_from(PATHS[kind]), json_values)
    return kind, draw(st.lists(edit, min_size=1, max_size=2))


# the orders that refuse their space before its field is built, and the
# levels that are no level of the space
@example(("blocking_set", [(("space", "q"), 65536)]))
@example(("blocking_set", [(("space", "q"), 59049)]))
@example(("blocking_set", [(("claims", 0, "k"), 3)]))
@example(("transversal", [(("q",), 65536)]))
# a valid transversal of PG(1,65536), whose field is built in full
@example(("transversal", [(("n",), 1), (("q",), 65536)]))
@example(("transversal", [(("q",), 65536), (("k",), 3)]))
@example(("coloring", [(("k",), -1)]))
@example(("bounds", [(("q",), 59049)]))
@example(("tmodp_report", [(("p",), 65536)]))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutations())
def test_recheck_answers_every_mutated_certificate(case):
    kind, edits = case
    payload = VALID[kind]["payload"]
    for path, value in edits:
        payload = _replace(payload, path, value)
    cert = make_certificate(kind, payload)
    start = time.perf_counter()
    result = recheck(cert)
    # every answer here takes milliseconds, but for the field GF(65536),
    # which builds in about 0.13 s
    assert time.perf_counter() - start < 1
    ok, detail = result
    assert type(ok) is bool and type(detail) is str


def test_the_valid_certificates_recheck():
    assert all(recheck(cert)[0] for cert in VALID.values())
