"""Exact desk-scale optimization: minimum t-transversals, exact upper
chromatic number, modular-set theorem verification, and the numeric
bound calculators with their applicability predicates."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .blocking import enumerate_t_mod_p_sets
from .coloring import is_proper, make_coloring, trivial_coloring
from .fields import factor_prime_power
from .geometry import (GeometryError, Hypergraph, ProjectiveSpace, mask_bits,
                       point_set, theta)

OPTIMAL = "optimal"
BOUND_ONLY = "bound_only"

DEFAULT_TAU_VERTEX_LIMIT = 40
DEFAULT_UCN_VERTEX_LIMIT = 20


class SolverError(ValueError):
    pass


@dataclass
class SolveResult:
    objective: int | None
    witness: object
    nodes: int
    status: str
    lower_bound: int | None = None
    upper_bound: int | None = None


# -- minimum t-transversal ----------------------------------------------

def _greedy_transversal(vertex_edges, num_edges, t):
    """Add the first vertex on the most open edges until none is open."""
    deficits = [t] * num_edges
    chosen = set()
    while any(d > 0 for d in deficits):
        gains = [-1 if v in chosen else sum(deficits[ei] > 0 for ei in eis)
                 for v, eis in enumerate(vertex_edges)]
        best_gain = max(gains)
        if best_gain <= 0:
            return None
        v = gains.index(best_gain)
        chosen.add(v)
        for ei in vertex_edges[v]:
            deficits[ei] -= 1
    return chosen


def exact_tau(H: Hypergraph, t: int, *, vertex_limit: int = DEFAULT_TAU_VERTEX_LIMIT,
              initial_witness=None) -> SolveResult:
    """Minimum size of a t-transversal, by branch and bound.

    For H(n,m,q) with t <= q, the folklore bound t*theta(n-m) lets the
    search stop as soon as an incumbent meets it.  initial_witness seeds
    the incumbent, e.g. a disjoint-subspace construction; it must be a
    list of distinct vertex indices.
    """
    if t < 1:
        raise SolverError("t must be >= 1")
    V = H.num_vertices
    edges = H.edges
    if any(e.bit_count() < t for e in edges):
        raise SolverError("infeasible: some hyperedge has fewer than t vertices")

    geometric_lb = None
    if H.params is not None and t <= H.params[2]:
        n, m, q = H.params
        geometric_lb = t * theta(n - m, q)

    vertex_edges = H.vertex_edges
    if initial_witness is not None:
        try:
            inc = sorted(point_set(initial_witness, V))
        except GeometryError as exc:
            raise SolverError(f"initial witness: {exc}") from None
        given = sum(1 << v for v in inc)
        if any((e & given).bit_count() < t for e in edges):
            raise SolverError("initial witness is not a t-transversal")
    else:
        greedy = _greedy_transversal(vertex_edges, len(edges), t)
        inc = sorted(greedy) if greedy is not None else None

    if V > vertex_limit:
        return SolveResult(objective=None, witness=inc, nodes=0, status=BOUND_ONLY,
                           lower_bound=geometric_lb,
                           upper_bound=len(inc) if inc is not None else None)

    if inc is not None and geometric_lb is not None and len(inc) == geometric_lb:
        return SolveResult(objective=len(inc), witness=tuple(inc), nodes=0,
                           status=OPTIMAL, lower_bound=geometric_lb,
                           upper_bound=len(inc))

    # the search state: each edge's deficit, and per vertex the number of
    # open edges through it, updated when an edge's deficit crosses 0; a
    # vertex out of the search is held len(edges) + 1 lower, so that the
    # largest count is the largest over the available vertices
    edge_pts = H.edge_points
    deficits = [t] * len(edges)
    cover = [len(eis) for eis in vertex_edges]
    out = len(edges) + 1
    by_size = sorted(enumerate(edges), key=lambda item: item[1].bit_count())
    best = (1 << V) - 1 if inc is None else sum(1 << v for v in inc)
    best_size = best.bit_count()
    nodes = 0
    done = False

    def dfs(chosen, count, avail, total, num_open):
        # total and num_open: the sum of the open deficits, the open edges
        nonlocal best, best_size, nodes, done
        nodes += 1
        if not num_open:
            if count < best_size:
                best, best_size = chosen, count
                done = best_size == geometric_lb
            return
        room = best_size - count
        if max(deficits) >= room or -(-total // max(max(cover), 1)) >= room:
            return
        # branch on the first open edge with the fewest candidates; an open
        # edge with fewer candidates than its deficit cannot be covered
        pick, fewest = 0, V + 1
        for e, d in zip(edges, deficits):
            if d > 0:
                k = (e & avail).bit_count()
                if k < d:
                    return
                if k < fewest:
                    pick, fewest = e & avail, k
        # packing over open edges, smallest first, whose candidates are disjoint
        used = lb3 = 0
        for ei, e in by_size:
            d = deficits[ei]
            if d > 0 and not e & avail & used:
                used |= e & avail
                lb3 += d
        if lb3 >= room:
            return
        for v in mask_bits(pick):
            low = 1 << v
            avail ^= low
            cover[v] -= out
            child_total, child_open = total, num_open
            for ei in vertex_edges[v]:
                d = deficits[ei]
                deficits[ei] = d - 1
                if d > 0:
                    child_total -= 1
                    if d == 1:
                        child_open -= 1
                        for u in edge_pts[ei]:
                            cover[u] -= 1
            dfs(chosen | low, count + 1, avail, child_total, child_open)
            for ei in vertex_edges[v]:
                d = deficits[ei] + 1
                deficits[ei] = d
                if d == 1:
                    for u in edge_pts[ei]:
                        cover[u] += 1
            if done:
                break
        for v in mask_bits(pick & ~avail):
            cover[v] += out

    dfs(0, 0, (1 << V) - 1, t * len(edges), len(edges))
    return SolveResult(objective=best_size, witness=tuple(mask_bits(best)), nodes=nodes,
                       status=OPTIMAL, lower_bound=geometric_lb,
                       upper_bound=best_size)


# -- exact upper chromatic number ---------------------------------------

def exact_ucn(H: Hypergraph, *, vertex_limit: int = DEFAULT_UCN_VERTEX_LIMIT) -> SolveResult:
    """Largest N admitting a proper strict N-coloring.

    Searches over class merges starting from the all-distinct coloring:
    UCN = |V| - (minimum number of merges killing every rainbow edge).
    The incumbent is seeded by the trivial coloring built on a minimum
    2-transversal.  A hypergraph with no vertex has no coloring to
    witness, and raises SolverError.
    """
    V = H.num_vertices
    if V == 0:
        raise SolverError("UCN needs at least one vertex; the hypergraph has 0 vertices")
    if any(e.bit_count() < 2 for e in H.edges):
        raise SolverError("infeasible: an edge with fewer than 2 vertices is always rainbow")

    tau_res = exact_tau(H, 2, vertex_limit=max(DEFAULT_TAU_VERTEX_LIMIT, V))
    seed_coloring = trivial_coloring(tau_res.witness, H)
    # the seed merges the tau_2 points into one class; with no edges,
    # tau_2 = 0 and the seed is the all-distinct coloring
    seed_merges = max(tau_res.objective - 1, 0)
    trivial_lb = V - seed_merges

    if V > vertex_limit:
        return SolveResult(objective=None, witness=seed_coloring, nodes=0,
                           status=BOUND_ONLY, lower_bound=trivial_lb)

    edge_pts = dict(zip(H.edges, H.edge_points))
    best_merges = seed_merges
    best_assignment = list(seed_coloring.assignment)
    nodes = 0

    # root[v] is the least vertex of v's class and cls[r] the point mask of
    # the class of root r: a merge relabels the class of the larger root
    # with the smaller one, and undoing it relabels back
    root = list(range(V))
    members = [[v] for v in range(V)]
    cls = [1 << v for v in range(V)]

    def dfs(merges, rainbows):
        nonlocal best_merges, best_assignment, nodes
        nodes += 1
        if not rainbows:
            if merges < best_merges:
                best_merges, best_assignment = merges, list(root)
            return
        # packing: rainbow edges that meet pairwise disjoint sets of classes
        used, room = 0, best_merges - merges
        for e in rainbows:
            if not e & used:
                room -= 1
                if room <= 0:
                    return
                for v in edge_pts[e]:
                    used |= cls[root[v]]
        # the roots of a rainbow edge are distinct, so every pair is a new
        # merge; it keeps a rainbow edge rainbow unless the edge meets both
        for ra, rb in itertools.combinations([root[v] for v in edge_pts[rainbows[0]]], 2):
            lo, hi = min(ra, rb), max(ra, rb)
            a, b = cls[lo], cls[hi]
            moved = members[hi]
            for v in moved:
                root[v] = lo
            members[lo] += moved
            cls[lo] = a | b
            dfs(merges + 1, [e for e in rainbows if not (e & a and e & b)])
            cls[lo] = a
            del members[lo][-len(moved):]
            for v in moved:
                root[v] = hi

    dfs(0, list(H.edges))
    witness = make_coloring(best_assignment)
    objective = V - best_merges
    ok, _ = is_proper(witness, H)
    if not (ok and witness.N == objective):
        raise SolverError(f"internal error: the UCN witness is not a proper "
                          f"{objective}-coloring")
    if objective < trivial_lb:
        raise SolverError(f"internal error: UCN {objective} is below the trivial "
                          f"lower bound {trivial_lb}")
    return SolveResult(objective=objective, witness=witness, nodes=nodes,
                       status=OPTIMAL, lower_bound=trivial_lb, upper_bound=objective)


# -- modular-set theorem verification -----------------------------------

@dataclass
class TModPVerification:
    p: int
    t: int
    k: int
    max_size: int
    weight_cap: int
    kernel_dim: int
    num_solution_classes: int
    exhaustive: bool
    num_found: int
    num_unions: int
    expected_size: int
    violations: list
    verified: bool
    sets: list = field(default_factory=list)

    def to_json(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**data, "sets": [list(B.weights) for B in self.sets]}


# multisets of t lines whose unions verify_tmodp_theorem and recheck
# count, at about 10 us each: (11, 3) has 400995 and takes seconds
LINE_MULTISET_LIMIT = 5 * 10**5


def require_line_multiset_limit(p: int, t: int) -> None:
    """SolverError past LINE_MULTISET_LIMIT multisets of t lines of PG(2,p)."""
    count = math.comb(theta(2, p) + t - 1, t)
    if count > LINE_MULTISET_LIMIT:
        raise SolverError(f"PG(2,{p}) has {count} multisets of {t} lines, above the limit")


def line_union_weights(space: ProjectiveSpace, k: int, t: int, max_size: int,
                       weight_cap: int) -> set:
    """The weight tuples, of size at most max_size and no point above
    weight_cap, of the unions of t k-spaces of `space` with multiplicity."""
    weights = set()
    for combo in itertools.combinations_with_replacement(space.incidence(k), t):
        w = [0] * space.num_points
        for i in itertools.chain.from_iterable(combo):
            w[i] += 1
        if sum(w) <= max_size and max(w) <= weight_cap:
            weights.add(tuple(w))
    return weights


def verify_tmodp_theorem(p: int, t: int, max_size: int | None = None) -> TModPVerification:
    """Verify, in the plane PG(2,p), that every residue-capped t (mod p)
    set of bounded total weight is a weighted union of t lines.

    `enumerate_t_mod_p_sets` searches every coset of the mod-p kernel or,
    past `COSET_LIMIT` cosets, none: then the report lists no sets and is
    neither `exhaustive` nor `verified`, but still counts the line unions.

    t must satisfy t <= 3p/8 + 1.  The size bound defaults to
    (t+1)*theta(1) + p - 2: the size t*theta(1) of a union of t lines plus a
    margin of theta(1) + p - 2.  The repository does not record where the
    paper puts its "small"; this default disagrees with
    `bounds_report(...).blsetthm_threshold` = (t + 1/2)*p - 1/2, which at
    (p, t) = (3, 2) is 7, below the size 8 of the line unions, while the
    default is 13.  Within that 13 lie 234 sets of size 11 that are not line
    unions; each is reported as a violation and `verified` is False.
    Raises SolverError for t < 1, for a max_size that is not an int >= 0
    and past LINE_MULTISET_LIMIT multisets of t lines, and BlockingError
    past the enumeration's incidence-matrix limit.
    """
    if t < 1:
        raise SolverError(f"t must be >= 1, not {t}")
    if max_size is not None and (type(max_size) is not int or max_size < 0):
        raise SolverError(f"max_size must be an integer >= 0, not {max_size!r}")
    if Fraction(t) > Fraction(3 * p, 8) + 1:
        raise SolverError(f"hypothesis violated: t = {t} > 3p/8 + 1 = {Fraction(3 * p, 8) + 1}")
    require_line_multiset_limit(p, t)
    space = ProjectiveSpace.of_order(2, p)
    k = 1
    if max_size is None:
        max_size = (t + 1) * theta(space.n - k, p) + p - 2
    enum = enumerate_t_mod_p_sets(space, k=k, t=t, max_size=max_size, weight_cap=p - 1)
    expected_size = t * theta(space.n - k, p)
    union_weights = line_union_weights(space, k, t, max_size, p - 1)

    violations = []
    found_weights = set()
    for B in enum.sets:
        wt = tuple(B.weights)
        found_weights.add(wt)
        if B.size != expected_size:
            violations.append({"weights": list(wt), "reason": f"size {B.size} != {expected_size}"})
        elif wt not in union_weights:
            violations.append({"weights": list(wt), "reason": "not a weighted union of t lines"})
    if enum.exhaustive:
        for wt in union_weights - found_weights:
            violations.append({"weights": list(wt), "reason": "line union missed by enumeration"})

    return TModPVerification(
        p=p, t=t, k=k, max_size=max_size, weight_cap=p - 1,
        kernel_dim=enum.kernel_dim, num_solution_classes=enum.num_solution_classes,
        exhaustive=enum.exhaustive, num_found=len(enum.sets),
        num_unions=len(union_weights), expected_size=expected_size,
        violations=violations, verified=not violations and enum.exhaustive,
        sets=enum.sets)


# -- bound calculators ---------------------------------------------------

def _sqrt2_combo_nonneg(a: Fraction, b: Fraction) -> bool:
    """Exact sign test of a*sqrt(2) + b >= 0."""
    if a >= 0 and b >= 0:
        return True
    if a <= 0 and b <= 0:
        return False
    # opposite signs: the term of larger magnitude decides
    return 2 * a * a >= b * b if a > 0 else 2 * a * a <= b * b


@dataclass
class BoundsReport:
    n: int
    k: int
    q: int
    p: int
    h: int
    t: int
    theta_n: int
    theta_k: int
    trivial_lower: int
    tau2_known: int | None
    # delta for prime order: (sqrt(2)*q^k - q^k - 3*theta(k-1) - 8) / 2,
    # stored as the exact pair (sqrt2 coefficient, rational part)
    delta_prime_sqrt2: Fraction
    delta_prime_rational: Fraction
    delta_prime_nonneg: bool
    delta_ext: Fraction | None
    delta_strong: Fraction
    blsetthm_threshold: Fraction
    dbhszvdv_size: int
    bruen_lower_ceil: int
    blokhuis: Fraction
    flags: dict

    def to_json(self) -> dict:
        def frac(x):
            if x is None:
                return None
            return f"{x.numerator}/{x.denominator}"
        return {
            "n": self.n, "k": self.k, "q": self.q, "p": self.p, "h": self.h,
            "t": self.t, "theta_n": self.theta_n, "theta_k": self.theta_k,
            "trivial_lower": self.trivial_lower, "tau2_known": self.tau2_known,
            "delta_prime": {"sqrt2_coeff": frac(self.delta_prime_sqrt2),
                            "rational": frac(self.delta_prime_rational),
                            "nonnegative": self.delta_prime_nonneg},
            "delta_ext": frac(self.delta_ext),
            "delta_strong": frac(self.delta_strong),
            "blsetthm_threshold": frac(self.blsetthm_threshold),
            "dbhszvdv_size": self.dbhszvdv_size,
            "bruen_lower_ceil": self.bruen_lower_ceil,
            "blokhuis": frac(self.blokhuis),
            "flags": dict(self.flags),
        }


def bounds_report(n: int, k: int, q: int, t: int) -> BoundsReport:
    """All bound formulas and theorem-applicability flags, exact."""
    p, h = factor_prime_power(q)
    qk = q**k
    theta_n = theta(n, q)
    theta_k = theta(k, q)
    trivial_lower = theta_n - 2 * theta_k + 1
    tau2_known = 2 * theta_k if 2 * k < n else None

    a = Fraction(qk, 2)
    b = Fraction(-qk - 3 * theta(k - 1, q) - 8, 2)
    delta_prime_nonneg = _sqrt2_combo_nonneg(a, b)

    delta_ext = Fraction(q ** (k - 1) - theta(k - 2, q) - 3, 2) if k >= 2 else None
    delta_strong = Fraction(qk, 200) - theta(k - 1, q) - Fraction(3, 2)
    blsetthm_threshold = (Fraction(t) + Fraction(1, 2)) * p**k - Fraction(1, 2)
    dbhszvdv_size = 2 * qk + 2 * (qk - 1) // (p - 1)

    s = math.isqrt(q)
    bruen_lower_ceil = q + s + 1 + (0 if s * s == q else 1)
    blokhuis = Fraction(3 * (p + 1), 2)

    flags = {
        "ucnthm": n >= 3 and 2 * k < n and ((k == 1 and q >= 17) or (k >= 2 and q >= 13)),
        "ucnstabp": ((h == 1 and q >= 11 and delta_prime_nonneg)
                     or (h >= 2 and k >= 2 and q >= 25)),
        "ucnstabq": h >= 2 and p >= 11 and qk >= 239,
        "tmodpsetthm": h == 1 and Fraction(t) <= Fraction(3 * p, 8) + 1,
        "blsetthm": h == 1 and Fraction(t) <= Fraction(3 * p, 8) + 1,
    }

    return BoundsReport(
        n=n, k=k, q=q, p=p, h=h, t=t, theta_n=theta_n, theta_k=theta_k,
        trivial_lower=trivial_lower, tau2_known=tau2_known,
        delta_prime_sqrt2=a, delta_prime_rational=b,
        delta_prime_nonneg=delta_prime_nonneg,
        delta_ext=delta_ext, delta_strong=delta_strong,
        blsetthm_threshold=blsetthm_threshold, dbhszvdv_size=dbhszvdv_size,
        bruen_lower_ceil=bruen_lower_ceil, blokhuis=blokhuis, flags=flags)
