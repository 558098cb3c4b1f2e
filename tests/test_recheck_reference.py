"""Seeded differential test of the one-pass certificate verifiers.

The reference below decides transversal, blocking_set and tmodp_report
certificates the plain way, from the public predicates: one
WeightedPointSet and one scan of the k-spaces per listed set or per
claim, and, for a t (mod p) report, a list of every multiset of t lines
where `recheck` counts the unions and compares sizes, and an elimination
where `recheck` takes the kernel dimension from its closed form.
`recheck` must give the same verdict and the same detail on valid
certificates and on copies with one entry edited.
"""

import functools
import itertools
import json
import random
from fractions import Fraction

import pytest

from pgworkbench.blocking import (COSET_LIMIT, MATRIX_ENTRY_LIMIT, BlockingError,
                                  WeightedPointSet, construct_union, is_minimal,
                                  is_t_fold_blocking, is_t_mod_p_set, solve_mod_p)
from pgworkbench.certificates import make_certificate, recheck
from pgworkbench.fields import MAX_Q
from pgworkbench.geometry import ProjectiveSpace, count_subspaces, point_set, theta
from pgworkbench.solvers import verify_tmodp_theorem


def reference_transversal(payload):
    n, k, q, t = payload["n"], payload["k"], payload["q"], payload["t"]
    # exact_tau refuses t < 1, and so does recheck
    if t < 1:
        return False, "t must be >= 1"
    space = ProjectiveSpace.of_order(n, q)
    pts = point_set(payload["points"], space.num_points)
    if "objective" in payload and payload["objective"] != len(pts):
        return False, "objective does not match the witness size"
    for kspace in (S.point_indices() for S in space.subspaces(k)):
        hit = len(pts.intersection(kspace))
        if hit < t:
            return False, f"a {k}-space meets the set in only {hit} < {t} points"
    return True, "t-transversal verified"


def reference_blocking_set(payload):
    n, q = payload["space"]["n"], payload["space"]["q"]
    B = WeightedPointSet(ProjectiveSpace.of_order(n, q), list(payload["weights"]))
    for claim in payload["claims"]:
        kind, t, k = claim["type"], claim["t"], claim["k"]
        want = claim.get("verified", True)
        # a 0-fold blocking set is vacuous; t is a residue in a t (mod p)
        # claim, and a k out of range is refused first
        if kind in ("t_fold_blocking", "minimal") and 0 < k < n and t < 1:
            return False, "verification error: t must be >= 1"
        if kind == "t_fold_blocking":
            ok, witness = is_t_fold_blocking(B, t, k)
        elif kind == "t_mod_p":
            ok, _ = is_t_mod_p_set(B, t, k)
        elif kind == "minimal":
            # a set that is not t-fold blocking is not minimal
            ok = is_t_fold_blocking(B, t, k)[0] and is_minimal(B, t, k)
        else:
            return False, f"unknown claim type {kind!r}"
        if ok == want:
            continue
        if ok:
            return False, f"{kind} claim (t = {t}, k = {k}) holds but is marked unverified"
        if kind == "t_fold_blocking":
            return False, f"violating {k}-space with basis {witness.basis}"
        if kind == "t_mod_p":
            return False, f"t (mod p) claim fails on a {k}-space"
        return False, "minimality claim mismatch"
    return True, "all claims verified"


def reference_line_unions(space, t, max_size, cap):
    """The weight tuples of the unions of t lines of the plane `space`,
    with multiplicity, of size at most max_size and no point above cap,
    listed one multiset at a time."""
    weights = set()
    for combo in itertools.combinations_with_replacement(
            [S.point_indices() for S in space.subspaces(1)], t):
        w = [0] * space.num_points
        for i in itertools.chain.from_iterable(combo):
            w[i] += 1
        if sum(w) <= max_size and max(w) <= cap:
            weights.add(tuple(w))
    return weights


def reference_violations(found, unions, expected, exhaustive):
    """Each found set of the wrong size or outside the unions and, after an
    exhaustive search, each union that it did not find."""
    violations = []
    for wt in found:
        if sum(wt) != expected:
            violations.append({"weights": list(wt), "reason": f"size {sum(wt)} != {expected}"})
        elif wt not in unions:
            violations.append({"weights": list(wt), "reason": "not a weighted union of t lines"})
    if exhaustive:
        for wt in sorted(unions - set(found)):
            violations.append({"weights": list(wt), "reason": "line union missed by enumeration"})
    return violations


@functools.cache
def reference_kernel_dim(p, k, t):
    """The kernel dimension mod p of the k-space/point incidence of PG(2,p),
    by elimination: about 2.5 s for the lines of PG(2,17), so once."""
    space = ProjectiveSpace.of_order(2, p)
    rows = [[S.mask >> i & 1 for i in range(space.num_points)] for S in space.subspaces(k)]
    return len(solve_mod_p(rows, [t] * len(rows), p)[1])


def reference_tmodp_report(payload):
    p, t, max_size, sets = payload["p"], payload["t"], payload["max_size"], payload["sets"]
    verified = payload["verified"]
    # the fields that follow from p, t and max_size, in the order that
    # recheck compares them, each found the plain way: the kernel dimension
    # by elimination and the union count by listing the unions
    bound = Fraction(3 * p, 8) + 1
    if t > bound:
        raise ValueError(f"hypothesis violated: t = {t} > 3p/8 + 1 = {bound}")
    if p > MAX_Q:
        raise ValueError(f"p = {p} exceeds the limit {MAX_Q}")
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise ValueError(f"p = {p} is not prime")
    entries = count_subspaces(2, 1, p) * theta(2, p)
    if entries > MATRIX_ENTRY_LIMIT:
        raise ValueError(f"the 1-space/point incidence matrix of PG(2,{p}) has {entries} "
                         f"entries, above the limit {MATRIX_ENTRY_LIMIT}")
    space = ProjectiveSpace.of_order(2, p)
    cap, expected = p - 1, t * theta(1, p)
    kernel_dim = reference_kernel_dim(p, 1, t)
    unions = reference_line_unions(space, t, max_size, cap)
    frame = {"p": p, "t": t, "k": 1, "max_size": max_size, "weight_cap": cap,
             "kernel_dim": kernel_dim, "num_solution_classes": p**kernel_dim,
             "exhaustive": p**kernel_dim <= COSET_LIMIT, "num_unions": len(unions),
             "expected_size": expected}
    for key, value in frame.items():
        if type(payload[key]) is not type(value) or payload[key] != value:
            return False, f"{key} {payload[key]!r} is not {value!r} as recomputed " \
                          f"from p, t and max_size"
    if len(sets) != payload["num_found"]:
        return False, "num_found does not match the listed sets"
    found = list(map(tuple, sets))
    if any(type(w) is not int for wt in found for w in wt):
        return False, "a listed set has a weight that is not an int"
    if len(set(found)) != len(found):
        return False, "a set is listed twice"
    for wt in found:
        B = WeightedPointSet(space, list(wt))
        if max(wt) > cap:
            return False, f"listed set has a point of weight {max(wt)} > weight_cap {cap}"
        if B.size > max_size:
            return False, f"listed set has size {B.size} > max_size {max_size}"
        ok, _ = is_t_mod_p_set(B, t, 1)
        if not ok:
            return False, f"listed set of size {B.size} is not a {t} (mod {p}) set"
    # the report is verified iff its search was exhaustive and there is no
    # violation, either way
    violations = reference_violations(found, unions, expected, frame["exhaustive"])
    if verified != (frame["exhaustive"] and not violations):
        return False, f"verified {verified} is not {not verified} as recomputed " \
                      f"from the listed sets"

    for v in payload["violations"]:
        if type(v.get("weights")) is not list:
            return False, "a violation's weights must be a list of ints"
        if type(v.get("reason")) is not str:
            return False, "a violation's reason must be a string"
    if any(type(w) is not int for v in payload["violations"] for w in v["weights"]):
        return False, "a violation has a weight that is not an int"

    def key(v):
        return v["weights"], v["reason"]
    if sorted(map(key, violations)) != sorted(map(key, payload["violations"])):
        return False, "violations do not match those of the listed sets and the union count"
    return True, "report sets verified"


REFERENCES = {"transversal": reference_transversal, "blocking_set": reference_blocking_set,
              "tmodp_report": reference_tmodp_report}


def reference_recheck(cert):
    try:
        return REFERENCES[cert["kind"]](cert["payload"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"verification error: {exc}"


# -- the corpus: valid certificates and one-entry edits of them -----------

@functools.cache
def report(p, t):
    return json.dumps(verify_tmodp_theorem(p, t).to_json())


def forged_tmodp_case(rng):
    """A non-exhaustive report at p = 5, 7 or 17 that lists some weighted
    unions of t lines, which no search found, with at most one weight
    edited: by one or by p, to a value in [0, cap], past one byte, below
    zero, or to a bool or a float.  At p = 17 a line has more points than
    recheck adds before it reduces a byte lane mod p."""
    p, t = rng.choice([(5, 1), (5, 2), (7, 1), (7, 2), (17, 1), (17, 1)])
    data = json.loads(report(p, t))
    lines = [S.point_indices() for S in ProjectiveSpace.of_order(2, p).subspaces(1)]
    sets = []
    for _ in range(rng.randint(1, 5)):
        w = [0] * theta(2, p)
        for i in itertools.chain.from_iterable(rng.choices(lines, k=t)):
            w[i] += 1
        if w not in sets:
            sets.append(w)
    data.update(sets=sets, num_found=len(sets))
    if rng.random() < 0.25:
        return data
    wt = rng.choice(sets)
    i = rng.randrange(len(wt))
    wt[i] = rng.choice([wt[i] - 1, wt[i] + 1, wt[i] + p, wt[i] - p,
                        rng.randint(0, data["weight_cap"]), 300, -1, True, 1.0])
    return data


def tmodp_cases(rng):
    if rng.random() < 0.5:
        return forged_tmodp_case(rng)
    data = json.loads(report(*rng.choice([(2, 1), (3, 1), (3, 2)])))
    p = data["p"]
    where = rng.choice(["none", "sets", "sets", "violations", "verified"])
    if where == "verified":
        data["verified"] = not data["verified"]
        return data
    if where == "sets":
        wt = rng.choice(data["sets"])
        if rng.random() < 0.25:
            # the top byte lane of recheck's pass over the sets
            wt = data["sets"][-1]
    elif where == "violations" and data["violations"]:
        wt = rng.choice(data["violations"])["weights"]
    else:
        return data
    i = rng.randrange(len(wt))
    wt[i] = rng.choice([wt[i] - 1, wt[i] + 1, wt[i] + p, wt[i] - p, rng.randrange(-1, p + 1)])
    return data


def blocking_cases(rng):
    n, q = rng.choice([(2, 3), (2, 4), (3, 2)])
    space = ProjectiveSpace.of_order(n, q)
    dim = rng.randrange(n)
    members = [(rng.choice(space.subspaces(dim)), 1) for _ in range(rng.randint(1, 3))]
    B = construct_union(space, members)
    # claims for k = 0..n, each with the verified flag that the public
    # predicates give; most of those they refuse are left out
    claims = []
    for _ in range(rng.randint(1, 3)):
        claim = {"type": rng.choice(["t_fold_blocking", "t_mod_p", "minimal"]),
                 "t": rng.randrange(4), "k": rng.randrange(n + 1)}
        kind, t, k = claim["type"], claim["t"], claim["k"]
        try:
            if kind == "t_fold_blocking":
                claim["verified"] = is_t_fold_blocking(B, t, k)[0]
            elif kind == "t_mod_p":
                claim["verified"] = is_t_mod_p_set(B, t, k)[0]
            else:
                claim["verified"] = is_minimal(B, t, k)
        except BlockingError:
            if rng.random() < 0.8:
                continue
            claim["verified"] = rng.choice([True, False])
        claims.append(claim)
    if not claims:
        claims.append({"type": "t_mod_p", "t": 0, "k": n, "verified": B.size % space.field.p == 0})
    payload = {"space": {"n": n, "q": q}, "weights": list(B.weights), "claims": claims}
    how = rng.choice(["none", "weight", "weight", "verified", "t"])
    if how == "weight":
        i = rng.randrange(space.num_points)
        payload["weights"][i] += rng.choice([-1, 1])
    elif how == "verified":
        claim = rng.choice(claims)
        claim["verified"] = not claim["verified"]
    elif how == "t":
        rng.choice(claims)["t"] += rng.choice([-1, 1])
    return payload


def transversal_cases(rng):
    n, q = rng.choice([(2, 2), (2, 3), (3, 2)])
    num = theta(n, q)
    k = rng.randrange(n + 1)
    points = sorted(rng.sample(range(num), rng.randint(num // 2, num)))
    payload = {"n": n, "k": k, "q": q, "t": rng.randrange(4), "points": points,
               "objective": len(points)}
    how = rng.choice(["none", "drop", "add", "t"])
    if how == "drop" and points:
        points.pop(rng.randrange(len(points)))
        payload["objective"] -= 1
    elif how == "add" and len(points) < num:
        points.append(rng.choice(sorted(set(range(num)) - set(points))))
        payload["objective"] += 1
    elif how == "t":
        payload["t"] += rng.choice([-1, 1])
    return payload


@pytest.mark.parametrize("pt", [(2, 1), (3, 1), (3, 2)])
def test_recheck_matches_the_reference_on_every_kernel_dim(pt):
    # each kernel_dim in range, with the class count and exhaustive flag
    # that match it: only the dimension found by elimination rechecks.  The
    # forged ones include 2 and 0 for (2, 1) and 5 and 1 for (3, 2), which
    # rechecked true when kernel_dim was trusted
    data = json.loads(report(*pt))
    p = data["p"]
    true_dim = p * (p + 1) // 2
    for kdim in range(theta(2, p) + 1):
        data.update(kernel_dim=kdim, num_solution_classes=p**kdim,
                    exhaustive=p**kdim <= COSET_LIMIT)
        cert = make_certificate("tmodp_report", data)
        got = recheck(cert)
        assert got == reference_recheck(cert)
        if kdim == true_dim:
            assert got[0]
        else:
            assert got == (False, f"kernel_dim {kdim} is not {true_dim} as recomputed "
                                  f"from p, t and max_size")


CASES = {"tmodp_report": tmodp_cases, "blocking_set": blocking_cases,
         "transversal": transversal_cases}


@pytest.mark.parametrize("kind", sorted(CASES))
@pytest.mark.parametrize("seed", range(3))
def test_recheck_matches_the_public_predicates(kind, seed):
    rng = random.Random(f"{kind}/{seed}")
    verdicts = set()
    for _ in range(40):
        cert = make_certificate(kind, CASES[kind](rng))
        got = recheck(cert)
        assert got == reference_recheck(cert), cert["payload"]
        verdicts.add(got[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("pt", [(2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (7, 2)])
def test_union_count_matches_the_listed_multisets(pt):
    # the count needs no list: distinct multisets give distinct unions, all
    # of size t*(p+1) and within the cap; below that size there are none
    data = json.loads(report(*pt))
    p, t, cap = data["p"], data["t"], data["weight_cap"]
    space = ProjectiveSpace.of_order(2, p)
    assert data["num_unions"] == len(reference_line_unions(space, t, data["max_size"], cap))
    # at max_size t*(p+1) the report keeps only its unions, one below it
    # none; either way it has no violations, so it is verified iff its
    # search was exhaustive
    for max_size, num_unions in [(t * (p + 1), data["num_unions"]), (t * (p + 1) - 1, 0)]:
        assert len(reference_line_unions(space, t, max_size, cap)) == num_unions
        sets = [wt for wt in data["sets"] if sum(wt) <= max_size]
        data.update(max_size=max_size, num_unions=num_unions, sets=sets, num_found=len(sets),
                    violations=[], verified=data["exhaustive"])
        cert = make_certificate("tmodp_report", data)
        assert recheck(cert) == reference_recheck(cert) == (True, "report sets verified")


def test_recheck_names_the_unions_that_an_exhaustive_search_missed():
    # the (2, 1) report less one of its seven lines: an exhaustive search
    # that missed a union, which only the listed multisets can name
    data = json.loads(report(2, 1))
    missed = data["sets"].pop(3)
    data.update(num_found=6, verified=False,
                violations=[{"weights": missed, "reason": "line union missed by enumeration"}])
    cert = make_certificate("tmodp_report", data)
    assert recheck(cert) == reference_recheck(cert) == (True, "report sets verified")
    data.update(violations=[])
    cert = make_certificate("tmodp_report", data)
    assert recheck(cert) == reference_recheck(cert) == (
        False, "violations do not match those of the listed sets and the union count")
