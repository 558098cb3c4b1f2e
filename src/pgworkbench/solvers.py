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


def _root_points(n: int, m: int, q: int, t: int) -> list:
    """Points of PG(n,q) that some minimum t-transversal of the m-spaces,
    1 <= m <= n-1, holds all together: the j = min(n+1, n-m+1+[t >= 2])
    unit points e_n, e_(n-1), ..., whose indices are 0, 1, theta(1),
    theta(2), ...; and in the plane with t >= 2 also the unit point
    (1,1,1), whose index is 2q+2.

    (L1) Independent points.  Let W be the span of a t-transversal T.  If
    dim W <= n-m-1, some m-space misses W.  If dim W = n-m, some m-space
    meets W in exactly one point, so it holds at most one point of T, too
    few when t >= 2.  So T holds j independent points, and PGL(n+1,q) is
    transitive on ordered independent j-tuples.  For t = 1 and m = n-1 a
    line is a minimum blocking set, so no more than these 2 points may be
    fixed.

    (L2) The frame in the plane.  A planar point set with no frame (four
    points, no three collinear) lies in a line plus one point.  Such a set
    is no 2-transversal of the lines: a line that misses the extra point
    meets the set only once.  So for t >= 2 T holds a frame, and PGL(3,q)
    is transitive on ordered frames.
    """
    index = ProjectiveSpace.of_order(n, q).point_index
    j = min(n + 1, n - m + 1 + (t >= 2))
    units = [tuple(int(c == n - i) for c in range(n + 1)) for i in range(j)]
    if n == 2 and t >= 2:
        units.append((1, 1, 1))
    return [index[u] for u in units]


def _cover_falls_short(cover: list, k: int, total: int) -> bool:
    """True when k >= 1 more vertices cannot cover the open deficit
    `total`: each lowers it by at most its count of open edges, so the k
    largest counts must sum to at least `total`.  The counts of the
    unavailable vertices are negative and enter no sum, also when fewer
    than k vertices are available."""
    top = sorted(cover)[-k:]
    if top[0] < 0:
        top = [c for c in top if c >= 0]
    return sum(top) < total


def exact_tau(H: Hypergraph, t: int, *, initial_witness=None) -> SolveResult:
    """Minimum size of a t-transversal, by branch and bound.

    On a hypergraph that `Hypergraph.geometry` validates as H(n,m,q), with
    t <= q, the folklore bound t*theta(n-m) lets the search stop as soon
    as an incumbent meets it.  On any validated H(n,m,q) the search also
    starts with the points of `_root_points` chosen: some minimum
    t-transversal holds them all, by the lemmas (L1) and (L2) stated
    there.  Claimed params that do not match the edges get neither.
    initial_witness seeds the incumbent, e.g. a disjoint-subspace
    construction; it must be a list of distinct vertex indices.  Past
    DEFAULT_TAU_VERTEX_LIMIT vertices it, or else the greedy one, is
    returned unsearched as `bound_only`.

    A node with room r = incumbent - chosen is pruned when an open edge's
    deficit is at least r, when an open edge has fewer candidates than its
    deficit, when a packing of open edges with disjoint candidates needs r
    more points, or by the cover-prefix bound: a better transversal adds
    at most r - 1 points, and each lowers the sum of the open deficits by
    at most its number of open edges, so the r - 1 largest such numbers
    over the available points must reach that sum.  Nodes of tau_2:
    H(2,1,4) 385, H(2,1,5) 13391, H(3,1,3) 167551.
    """
    if t < 1:
        raise SolverError("t must be >= 1")
    V = H.num_vertices
    edges = H.edges
    if any(e.bit_count() < t for e in edges):
        raise SolverError("infeasible: some hyperedge has fewer than t vertices")

    geometric_lb = None
    if H.geometry is not None and t <= H.geometry[2]:
        n, m, q = H.geometry
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

    if V > DEFAULT_TAU_VERTEX_LIMIT:
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

    def take(v, total, num_open):
        """Choose the available vertex v; the new total and num_open."""
        cover[v] -= out
        for ei in vertex_edges[v]:
            d = deficits[ei]
            deficits[ei] = d - 1
            if d > 0:
                total -= 1
                if d == 1:
                    num_open -= 1
                    for u in edge_pts[ei]:
                        cover[u] -= 1
        return total, num_open

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
        if max(deficits) >= room:
            return
        if _cover_falls_short(cover, room - 1, total):
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
            dfs(chosen | low, count + 1, avail, *take(v, total, num_open))
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

    total, num_open = t * len(edges), len(edges)
    chosen = 0
    if H.geometry is not None:
        for v in _root_points(*H.geometry, t):
            total, num_open = take(v, total, num_open)
            chosen |= 1 << v
    dfs(chosen, chosen.bit_count(), ((1 << V) - 1) ^ chosen, total, num_open)
    return SolveResult(objective=best_size, witness=tuple(mask_bits(best)), nodes=nodes,
                       status=OPTIMAL, lower_bound=geometric_lb,
                       upper_bound=best_size)


# -- exact upper chromatic number ---------------------------------------

def exact_ucn(H: Hypergraph, *, vertex_limit: int = DEFAULT_UCN_VERTEX_LIMIT) -> SolveResult:
    """Largest N admitting a proper strict N-coloring.

    Searches over class merges starting from the all-distinct coloring:
    UCN = |V| - (minimum number of merges killing every rainbow edge).
    Each node branches on the merges of its first rainbow edge by Zykov's
    same-or-different rule: the later siblings of a merge keep its two
    classes apart, so a partition is not searched again for each merge
    order.  On a hypergraph that `Hypergraph.geometry` validates as
    H(n,k,q), the search starts from the merge of points 0 and 1: every
    proper coloring has a monochromatic pair, and PGL(n+1,q) is
    2-transitive on points.  It then searches two cases one after the
    other, which share the incumbent and add their nodes:
    Case A: the class of 0 and 1 also holds d, the first point off line 01
    (index theta(1), the point e_(n-2)).  The pointwise stabilizer of two
    points is transitive on the points off their line, so this covers
    every class of 0 and 1 with a point off that line.
    Case B: the class of 0 and 1 stays inside line 01.  The apart mask of
    class 0 holds the points off the line, and each of them holds point 0
    in its own, so that the masks stay symmetric.
    The incumbent is seeded by the trivial coloring on the witness of
    exact_tau(H, 2), minimum or, past its limit, greedy.  A hypergraph
    with no vertex has no coloring to witness, and raises SolverError.

    The rainbow edges are one mask over edge indices, and each class keeps
    the mask of the edges that meet it, so a merge of classes A and B
    leaves rainbow the edges that do not meet both.  With room r =
    incumbent merges - merges, a better partition makes at most r - 1 more
    merges, and two bounds prune a node:
    Packing: rainbow edges that meet pairwise disjoint sets of classes
    each need a merge of their own, so there must be fewer than r of them.
    Class degrees: r - 1 merges touch at most 2r - 2 classes, and a
    rainbow edge stops being rainbow only when two of the classes it meets
    are touched; it meets each class at most once, so the 2r - 2 largest
    numbers of rainbow edges that meet one class must sum to at least
    twice the number of rainbow edges.
    Nodes: H(2,1,3) 726, H(3,2,2) 57, H(3,1,2) 2000, H(4,3,2) at
    vertex_limit=31 297, H(2,1,4) at vertex_limit=21 509758.
    """
    V = H.num_vertices
    if V == 0:
        raise SolverError("UCN needs at least one vertex; the hypergraph has 0 vertices")
    if any(e.bit_count() < 2 for e in H.edges):
        raise SolverError("infeasible: an edge with fewer than 2 vertices is always rainbow")

    transversal = exact_tau(H, 2).witness
    seed_coloring = trivial_coloring(transversal, H)
    # the seed merges the 2-transversal into one class; with no edges it
    # is empty and the seed is the all-distinct coloring
    seed_merges = max(len(transversal) - 1, 0)
    trivial_lb = V - seed_merges

    if V > vertex_limit:
        return SolveResult(objective=None, witness=seed_coloring, nodes=0,
                           status=BOUND_ONLY, lower_bound=trivial_lb)

    edge_pts = H.edge_points
    best_merges = seed_merges
    best_assignment = list(seed_coloring.assignment)
    nodes = 0

    # root[v] is the least vertex of v's class, cls[r] the point mask of the
    # class of root r, inc[r] the mask of the indices of the edges that meet
    # it (0 once r is no root) and apart[r] the point mask of the classes it
    # must stay apart from: a merge relabels the class of the larger root
    # with the smaller one and joins their masks, and undoing it restores
    # them
    root = list(range(V))
    members = [[v] for v in range(V)]
    cls = [1 << v for v in range(V)]
    inc = [sum(1 << ei for ei in eis) for eis in H.vertex_edges]
    apart = [0] * V

    def dfs(merges, rainbow):
        # rainbow: the mask of the indices of the rainbow edges
        nonlocal best_merges, best_assignment, nodes
        nodes += 1
        if not rainbow:
            if merges < best_merges:
                best_merges, best_assignment = merges, list(root)
            return
        # packing: rainbow edges that meet pairwise disjoint sets of classes,
        # each the lowest left once the edges meeting the classes of those
        # before it are cleared
        room = best_merges - merges
        packed, left = 0, rainbow
        while left:
            packed += 1
            if packed >= room:
                return
            for v in edge_pts[(left & -left).bit_length() - 1]:
                left &= ~inc[root[v]]
        # class degrees: a better partition is room - 1 more merges, which
        # touch at most 2*room - 2 classes; each rainbow edge must meet two
        # of them, and meets a class at most once
        touched = 2 * room - 2
        if touched < V - merges:
            degrees = sorted(map(int.bit_count, map(rainbow.__and__, inc)))
            if sum(degrees[-touched:]) < 2 * rainbow.bit_count():
                return
        # the roots of a rainbow edge are distinct, so every pair is a new
        # merge; it keeps a rainbow edge rainbow unless the edge meets both.
        # Zykov's same-or-different branching: once the subtree that merges
        # a pair is done, the later siblings keep that pair apart, so no
        # partition is searched twice; an edge with no pair left to merge
        # yields no child
        roots = [root[v] for v in edge_pts[(rainbow & -rainbow).bit_length() - 1]]
        saved = [apart[r] for r in roots]
        for ra, rb in itertools.combinations(roots, 2):
            lo, hi = min(ra, rb), max(ra, rb)
            a, b = cls[lo], cls[hi]
            if a & apart[hi]:
                continue
            moved = members[hi]
            for v in moved:
                root[v] = lo
            members[lo] += moved
            cls[lo] = a | b
            inc_lo, inc_hi = inc[lo], inc[hi]
            inc[lo], inc[hi] = inc_lo | inc_hi, 0
            apart_lo = apart[lo]
            apart[lo] = apart_lo | apart[hi]
            dfs(merges + 1, rainbow & ~(inc_lo & inc_hi))
            cls[lo] = a
            inc[lo], inc[hi] = inc_lo, inc_hi
            del members[lo][-len(moved):]
            for v in moved:
                root[v] = hi
            apart[lo], apart[hi] = apart_lo | b, apart[hi] | a
        for r, mask in zip(roots, saved):
            apart[r] = mask

    def rainbow_edges(merged):
        """The mask of the indices of the edges that meet the point mask
        `merged` of one class at most once."""
        return sum(1 << ei for ei, e in enumerate(H.edges) if (e & merged).bit_count() < 2)

    if H.geometry is None:
        dfs(0, (1 << len(H.edges)) - 1)
    else:
        # every proper coloring has a monochromatic pair, and PGL(n+1,q) is
        # 2-transitive on points, so some optimal coloring puts points 0
        # and 1 in one class; line 01 is the points 0..d-1
        d = theta(1, H.geometry[2])
        pair, inc_d = inc[0] | inc[1], inc[d]
        for v in (1, d):
            root[v] = 0
            members[0].append(v)
        cls[0] = 0b11 | 1 << d
        inc[0], inc[1], inc[d] = pair | inc_d, 0, 0
        dfs(2, rainbow_edges(cls[0]))  # case A
        root[d] = d
        members[0].pop()
        cls[0], inc[0], inc[d] = 0b11, pair, inc_d
        apart[0] = (1 << V) - (1 << d)
        for v in range(d, V):
            apart[v] = 1
        dfs(1, rainbow_edges(0b11))  # case B
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


def num_line_unions(p: int, t: int, max_size: int) -> int:
    """The number of unions of t lines of PG(2,p), with multiplicity, of
    size at most max_size, for 0 <= t <= p - 1: distinct multisets give
    distinct unions (see verify_tmodp_theorem), each of size t*(p+1) and
    with no point above weight t."""
    return math.comb(theta(2, p) + t - 1, t) if t * (p + 1) <= max_size else 0


def tmodp_violations(space: ProjectiveSpace, t: int, found: list, sizes: list,
                     expected_size: int, num_unions: int, exhaustive: bool) -> list:
    """The violations, in report order, of a t (mod p) report on the lines
    of the plane `space`, whose found weight tuples are t (mod p) sets with
    t <= p - 1, of the sizes `sizes` in the same order: each found set
    whose size is not expected_size and, when the search was exhaustive
    and found fewer than num_unions sets of that size, each union of t
    lines that it did not find.

    A found set of size expected_size is a union of t lines (see
    verify_tmodp_theorem), so only sizes are compared; each distinct
    reason string is built once.  The unions are listed only to name the
    missed ones; an exhaustive search needs p <= 3, so there are at most
    comb(14, 2) = 91 multisets of lines."""
    reasons = {s: f"size {s} != {expected_size}" for s in set(sizes) if s != expected_size}
    violations = [{"weights": list(wt), "reason": reasons[s]}
                  for wt, s in zip(found, sizes) if s in reasons]
    if exhaustive and len(found) - len(violations) < num_unions:
        listed = set(found)
        for combo in itertools.combinations_with_replacement(space.incidence(1), t):
            w = [0] * space.num_points
            for i in itertools.chain.from_iterable(combo):
                w[i] += 1
            if tuple(w) not in listed:
                violations.append({"weights": w, "reason": "line union missed by enumeration"})
    return violations


def verify_tmodp_theorem(p: int, t: int, max_size: int | None = None) -> TModPVerification:
    """Verify, in the plane PG(2,p), that every residue-capped t (mod p)
    set of bounded total weight is a weighted union of t lines.

    In the plane that claim is one about sizes only.  The line/point
    incidence matrix A of PG(2,p) has A*A^T = p*I + J, so A is invertible
    over Q: distinct multisets of lines give distinct weight functions.  A
    union of t lines has size t*(p+1) and no point above weight
    t <= 3p/8 + 1 < p, so `num_unions` is the number comb(theta(2) + t - 1, t)
    of multisets of t lines when t*(p+1) <= max_size, and 0 otherwise.
    Conversely, every line weight w(l) of a t (mod p) set w is a
    nonnegative number congruent to t mod p, so at least t; the lines
    through a point P have weights summing to p*w(P) + |w|, so when
    |w| = t*(p+1), w is the union of the lines l taken (w(l) - t)/p times
    each.  A listed set is therefore a union of t lines iff its size is
    `expected_size` = t*(p+1), and a violation is a listed set of another
    size or, after an exhaustive search, a union that it missed.

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
    Raises SolverError for a p or t that is not an int (a bool is none),
    for t < 1, for a max_size that is not an int >= 0 and for
    t > 3p/8 + 1; FieldError when p is not a prime power; and
    BlockingError when p is not prime or the plane's line/point incidence
    matrix is past the enumeration's limit.
    """
    for name, value in (("p", p), ("t", t)):
        if type(value) is not int:
            raise SolverError(f"{name} must be an int, not {value!r}")
    if t < 1:
        raise SolverError(f"t must be >= 1, not {t}")
    if max_size is not None and (type(max_size) is not int or max_size < 0):
        raise SolverError(f"max_size must be an integer >= 0, not {max_size!r}")
    if Fraction(t) > Fraction(3 * p, 8) + 1:
        raise SolverError(f"hypothesis violated: t = {t} > 3p/8 + 1 = {Fraction(3 * p, 8) + 1}")
    space = ProjectiveSpace.of_order(2, p)
    k = 1
    if max_size is None:
        max_size = (t + 1) * theta(space.n - k, p) + p - 2
    enum = enumerate_t_mod_p_sets(space, k=k, t=t, max_size=max_size, weight_cap=p - 1)
    expected_size = t * theta(space.n - k, p)
    num_unions = num_line_unions(p, t, max_size)
    violations = tmodp_violations(space, t, [tuple(B.weights) for B in enum.sets],
                                  [B.size for B in enum.sets], expected_size, num_unions,
                                  enum.exhaustive)
    return TModPVerification(
        p=p, t=t, k=k, max_size=max_size, weight_cap=p - 1,
        kernel_dim=enum.kernel_dim, num_solution_classes=enum.num_solution_classes,
        exhaustive=enum.exhaustive, num_found=len(enum.sets),
        num_unions=num_unions, expected_size=expected_size,
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
    """All bound formulas and theorem-applicability flags, exact, for
    1 <= k <= n-1 and a prime power q <= MAX_Q; SolverError or FieldError
    otherwise."""
    if type(k) is not int or type(n) is not int or not 1 <= k <= n - 1:
        raise SolverError(f"k = {k!r} is not an integer in [1, n - 1] for n = {n!r}")
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
