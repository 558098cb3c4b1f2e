"""Exact desk-scale optimization: minimum t-transversals, exact upper
chromatic number, modular-set theorem verification, and the numeric
bound calculators with their applicability predicates."""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction

from .blocking import construct_union, enumerate_t_mod_p_sets, mod_p_gate, plane_cosets
from .coloring import is_proper, make_coloring, trivial_coloring
from .fields import factor_prime_power
from .geometry import (MAX_N, Hypergraph, ProjectiveSpace, count_subspaces, incidence_gate,
                       mask_bits, mask_columns, theta)

OPTIMAL = "optimal"
BOUND_ONLY = "bound_only"

# the nodes a search visits before it answers `bound_only`; nodes, not seconds:
# a tau_2 node took 8-12 us on PG(2,7), 0.8-1.5 ms on PG(2,97) (2 vCPUs).
# exact_tau builds Hypergraph.edge_points, and exact_ucn, which reads masks
# only, asks incidence_gate itself, so neither runs past the list gate
NODE_LIMIT = 2 * 10**5


class SolverError(ValueError):
    pass


class _Stop(Exception):
    """Ends a search: past NODE_LIMIT nodes, or at the folklore or shape bound."""


SolveResult = collections.namedtuple(
    "SolveResult", "objective witness nodes status lower_bound upper_bound",
    defaults=(None, None))


# -- minimum t-transversal ----------------------------------------------

def _tau_facts(n: int, m: int, q: int, t: int) -> tuple:
    """The folklore lower bound t*theta(n-m) on a t-transversal of the
    m-spaces of PG(n,q), None when t > q, and whether t disjoint
    (n-m)-spaces fit, whose union is then one: each meets every m-space."""
    return t * theta(n - m, q) if t <= q else None, t * (n - m + 1) <= n + 1


def _plane_tau2(q: int) -> int:
    """A lower bound on tau_2 of the lines of PG(2,q): min(3q, b_0), where
    b_0 bounds a 2-transversal B with no line, of b = |B| points.

    B holds a line L: each other line meets L in a point of B and needs a
    second point off L, so B - L blocks AG(2,q) = PG(2,q) - L and has at
    least 2q - 1 points (Jamison, J. Combin. Theory Ser. A 1977;
    Brouwer-Schrijver, J. Combin. Theory Ser. A 1978): b >= 3q.

    B holds no line: each line meets B in i points, 2 <= i <= q, so
    sum (i - 2)(q - i) >= 0 over the lines.  With sum 1 = q^2 + q + 1,
    sum i = b(q + 1) and sum i(i - 1) = b(b - 1) this is
    b^2 - (q^2 + 2q + 2)b + 2q(q^2 + q + 1) <= 0.  Its discriminant is
    negative for q <= 3, where no such B exists; else b_0 is the least
    integer at or above the smaller root.

    The bound is tau_2 at q = 2, 3, 4 (6, 9, 12) and 2q + 3 from q = 5."""
    lin, const = q * q + 2 * q + 2, 2 * q * (q * q + q + 1)
    disc = lin * lin - 4 * const
    if disc < 0:
        return 3 * q
    # (lin - isqrt(disc)) // 2 is at most one below the least integer root
    b = (lin - math.isqrt(disc)) // 2
    while b * b - lin * b + const > 0:
        b += 1
    return min(3 * q, b)


def _shape_bound(num_vertices: int, num_edges: int, pair_edges: int, tau2: int) -> int:
    """UCN <= num_vertices - D_min on a hypergraph with num_edges edges,
    whose vertex pairs each lie on at most pair_edges edges, from a lower
    bound tau2 on its tau_2.  The c classes of two or more points of a
    proper coloring, with D = sum(s_i - 1) merges, meet every edge twice,
    so D + c >= tau2, and hold a monochromatic pair of each, so
    sum(C(s_i, 2)) * pair_edges >= num_edges.  By convexity (D - c + 2, 2,
    ..., 2) with the fewest classes, c = tau2 - D <= D, holds the most
    pairs.  D_min is the least D <= tau2 - 2 that passes, else tau2 - 1,
    the merges of the trivial coloring."""
    for D in range((tau2 + 1) // 2, tau2 - 1):
        c = tau2 - D
        if (math.comb(D - c + 2, 2) + c - 1) * pair_edges >= num_edges:
            return num_vertices - D
    return num_vertices - tau2 + 1


def _seed_transversal(H: Hypergraph, t: int) -> set | None:
    """On a validated H(n,m,q) where t disjoint (n-m)-spaces fit, their
    union, a t-transversal: each meets every m-space.  Else None, and
    exact_tau seeds its search greedily."""
    if H.geometry is None or not _tau_facts(*H.geometry, t)[1]:
        return None
    n, m, q = H.geometry
    blocks = ProjectiveSpace.of_order(n, q).disjoint_subspaces(n - m, t)
    return set().union(*(S.point_indices() for S in blocks))


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
    j = min(n + 1, n - m + 1 + (t >= 2))
    return [theta(i - 1, q) for i in range(j)] + ([2 * q + 2] if n == 2 and t >= 2 else [])


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


def exact_tau(H: Hypergraph, t: int) -> SolveResult:
    """Minimum size of a t-transversal, by branch and bound; SolverError
    unless t is an int >= 1 (a bool is none).

    On a hypergraph that `Hypergraph.geometry` validates as H(n,m,q), with
    t <= q, the folklore bound t*theta(n-m) of `_tau_facts` lets the
    search stop as soon as an incumbent meets it; on a validated H(2,1,q)
    with t = 2 that geometric bound is the larger `_plane_tau2(q)`.  On any
    validated H(n,m,q) the search also starts with the points of
    `_root_points` chosen: some minimum t-transversal holds them all, by
    the lemmas (L1) and (L2) stated there.  Claimed params that do not
    match the edges get neither.  The first incumbent is
    `_seed_transversal`, else greedy on the search state: the first vertex
    on the most open edges until none is open.  One that meets the
    geometric bound, as the union does where t <= q and the greedy seed
    does on PG(2,q), q <= 4, is `optimal` at 0 nodes.  Past NODE_LIMIT
    nodes the search stops and answers `bound_only`: the incumbent as
    witness and upper_bound, and the geometric bound as lower_bound, None
    where it does not apply.

    A node with room r = incumbent - chosen is pruned at r <= 1, as an
    open edge needs a point more, or by the cover-prefix bound: a better
    transversal adds at most r - 1 points, and each lowers the sum of the
    open deficits by at most its number of open edges, so the r - 1
    largest such numbers over the available points must reach that sum.
    Else one pass over the open edges, smallest first (ties in edge
    order), decides the node: it prunes at an edge whose deficit is at
    least r or whose candidates are fewer than its deficit, and as soon as
    the deficits of the edges it has packed, each with candidates disjoint
    from those packed before, sum to r.  Past the pass, the node branches
    on the points of the edge with the fewest candidates, the lowest edge
    index among those.  Nodes of tau_2: H(2,1,3) and H(2,1,4) 0,
    H(2,1,5) 13391, H(3,1,3) 167551.
    """
    if type(t) is not int:
        raise SolverError(f"t must be an int, not {t!r}")
    if t < 1:
        raise SolverError("t must be >= 1")
    V = H.num_vertices
    edges = H.edges
    if any(e.bit_count() < t for e in edges):
        raise SolverError("infeasible: some hyperedge has fewer than t vertices")

    geometric_lb = None if H.geometry is None else _tau_facts(*H.geometry, t)[0]
    if t == 2 and H.geometry is not None and H.geometry[:2] == (2, 1):
        # t = 2 <= q in every plane, so the folklore bound is set
        geometric_lb = max(geometric_lb, _plane_tau2(H.geometry[2]))

    # the union's answer reads the masks only: no list is built
    inc = _seed_transversal(H, t)
    if inc is not None and len(inc) == geometric_lb:
        return SolveResult(objective=len(inc), witness=tuple(sorted(inc)), nodes=0,
                           status=OPTIMAL, lower_bound=geometric_lb,
                           upper_bound=len(inc))

    # the search state, over the edges renumbered by size (ties in edge
    # order): each edge's deficit, whether it is open, and per vertex the
    # number of open edges through it, updated when an edge's deficit
    # crosses 0; a vertex out of the search is held len(edges) + 1 lower,
    # so that the largest count is the largest over the available vertices
    order = sorted(range(len(edges)), key=lambda ei: edges[ei].bit_count())
    by_size = [(pos, ei, edges[ei]) for pos, ei in enumerate(order)]
    edge_pts = list(map(H.edge_points().__getitem__, order))
    vertex_edges = [[] for _ in range(V)]  # in any order: take only adds and subtracts
    for pos, pts in enumerate(edge_pts):
        for v in pts:
            vertex_edges[v].append(pos)
    deficits = [t] * len(edges)
    is_open = [True] * len(edges)
    cover = [len(eis) for eis in vertex_edges]
    out = len(edges) + 1
    nodes = 0

    def take(v, total, num_open):
        """Choose the available vertex v; the new total and num_open."""
        cover[v] -= out
        for pos in vertex_edges[v]:
            d = deficits[pos]
            deficits[pos] = d - 1
            if d > 0:
                total -= 1
                if d == 1:
                    num_open -= 1
                    is_open[pos] = False
                    for u in edge_pts[pos]:
                        cover[u] -= 1
        return total, num_open

    def dfs(chosen, count, avail, total, num_open):
        # total and num_open: the sum of the open deficits, the open edges
        nonlocal best, best_size, nodes
        nodes += 1
        if nodes > NODE_LIMIT:
            raise _Stop
        if not num_open:
            if count < best_size:
                best, best_size = chosen, count
                if count == geometric_lb:
                    raise _Stop
            return
        # an open edge's deficit is at least 1, so a room of 1 prunes
        room = best_size - count
        if room <= 1 or _cover_falls_short(cover, room - 1, total):
            return
        # one pass over the open edges, smallest first: prune on a deficit
        # of at least the room or fewer candidates than the deficit, or once
        # the edges whose candidates are disjoint from those packed before
        # need the room; pick the fewest candidates, the lower edge index
        # on a tie
        pick_ei, fewest = -1, V + 1
        used = lb3 = 0
        for pos, ei, e in itertools.compress(by_size, is_open):
            d = deficits[pos]
            if d >= room:
                return
            cand = e & avail
            k = cand.bit_count()
            if k < d:
                return
            if k < fewest or k == fewest and ei < pick_ei:
                pick, pick_ei, fewest = cand, ei, k
            if not cand & used:
                used |= cand
                lb3 += d
                if lb3 >= room:
                    return
        rest = pick
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            avail ^= low
            dfs(chosen | low, count + 1, avail, *take(v, total, num_open))
            for pos in vertex_edges[v]:
                d = deficits[pos] + 1
                deficits[pos] = d
                if d == 1:
                    is_open[pos] = True
                    for u in edge_pts[pos]:
                        cover[u] += 1
        rest = pick & ~avail
        while rest:
            low = rest & -rest
            rest ^= low
            cover[low.bit_length() - 1] += out

    total, num_open = t * len(edges), len(edges)
    if inc is None:
        # the greedy seed takes vertices as a branch does, then resets the state
        inc, left = [], num_open
        while left:
            v = cover.index(max(cover))
            left = take(v, total, left)[1]
            inc.append(v)
        deficits[:], is_open[:] = [t] * len(edges), [True] * len(edges)
        cover[:] = [len(eis) for eis in vertex_edges]
    best = sum(1 << v for v in inc)
    best_size = best.bit_count()
    if best_size != geometric_lb:
        chosen = 0
        if H.geometry is not None:
            for v in _root_points(*H.geometry, t):
                total, num_open = take(v, total, num_open)
                chosen |= 1 << v
        try:
            dfs(chosen, chosen.bit_count(), ((1 << V) - 1) ^ chosen, total, num_open)
        except _Stop:
            pass
    solved = nodes <= NODE_LIMIT
    return SolveResult(objective=best_size if solved else None,
                       witness=tuple(mask_bits(best)), nodes=nodes,
                       status=OPTIMAL if solved else BOUND_ONLY, lower_bound=geometric_lb,
                       upper_bound=best_size)


# -- exact upper chromatic number ---------------------------------------

def exact_ucn(H: Hypergraph) -> SolveResult:
    """Largest N admitting a proper strict N-coloring.

    Searches over class merges starting from the all-distinct coloring:
    UCN = |V| - (minimum number of merges killing every rainbow edge).
    Each node branches on the merges of its first rainbow edge by Zykov's
    same-or-different rule: the later siblings of a merge keep its two
    classes apart, so a partition is not searched again for each merge
    order.  The incumbent is seeded by the trivial coloring on the witness
    of exact_tau(H, 2), minimum or, past the node ceiling, that search's
    incumbent.  The search stops, by `_Stop`, at the first incumbent that
    meets `_shape_bound` of that tau_2 (the objective, else the geometric
    lower bound), at 0 nodes when the seed does.  The bound reads the most
    edges through one vertex pair: e_L from the params of a hypergraph that
    `Hypergraph.geometry` validates as H(n,k,q), else the largest count
    over the pairs, taken only when tau_2 is optimal.  Past NODE_LIMIT
    nodes it stops as exact_tau does, at node NODE_LIMIT + 1, and answers
    `bound_only`: its incumbent coloring as witness, its class count, at
    least the trivial bound, as lower_bound, and the shape bound (None
    with neither valid params nor an optimal tau_2) as upper_bound.  A
    hypergraph with no vertex has no coloring to witness, and raises
    SolverError.  On a validated H(n,k,q) it asks incidence_gate before
    any search, in place of a time budget, though it builds no point list.

    The edge masks and their transpose are the search's one incidence
    structure: the rainbow edges are one mask over edge indices, and each
    class keeps the mask of the edges that meet it, so a merge of classes
    A and B leaves rainbow the edges that do not meet both.  With room r =
    incumbent merges - merges, a better partition makes at most r - 1 more
    merges, so r <= 1 prunes a node with a rainbow edge, and so do the
    class degrees: r - 1 merges touch at most 2r - 2 classes, and a
    rainbow edge stops being rainbow only when two of the classes it meets
    are touched; it meets each class at most once, so the 2r - 2 largest
    numbers of rainbow edges that meet one class must sum to at least
    twice the number of rainbow edges.
    Nodes: H(2,1,3) 121, H(3,2,2) 11, H(3,1,2) 1538, H(4,3,2) 19.
    H(2,1,4), UCN 12, first reaches its shape bound 12 at node 334679,
    past NODE_LIMIT: it answers `bound_only` 11..12.
    """
    V = H.num_vertices
    if V == 0:
        raise SolverError("UCN needs at least one vertex; the hypergraph has 0 vertices")
    if any(e.bit_count() < 2 for e in H.edges):
        raise SolverError("infeasible: an edge with fewer than 2 vertices is always rainbow")
    if H.geometry is not None:
        # a node on the planes of PG(3,17) takes about 2 ms, 7 minutes to NODE_LIMIT
        incidence_gate(*H.geometry)

    tau = exact_tau(H, 2)
    tau2 = tau.objective if tau.status == OPTIMAL else tau.lower_bound
    seed_coloring = trivial_coloring(tau.witness, H)
    # the seed merges the 2-transversal into one class; with no edges it
    # is empty and the seed is the all-distinct coloring
    seed_merges = max(len(tau.witness) - 1, 0)
    trivial_lb = V - seed_merges

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
    cls = [1 << v for v in range(V)]
    inc = [int(bits or b"0", 2) for bits in mask_columns(H.edges, V)]
    apart = [0] * V

    # the most edges through one vertex pair: e_L on the m-spaces of
    # PG(n,q), else a count over the pairs, made only when tau2 is known
    if H.geometry is not None:
        n, m, q = H.geometry
        pair_edges = 1 if m == 1 else count_subspaces(n - 2, m - 2, q)
    elif tau2 is not None:
        pair_edges = max(((a & b).bit_count() for a, b in itertools.combinations(inc, 2)),
                         default=0)
    upper = None if tau2 is None else _shape_bound(V, len(H.edges), pair_edges, tau2)

    def dfs(merges, rainbow):
        # rainbow: the mask of the indices of the rainbow edges
        nonlocal best_merges, best_assignment, nodes
        nodes += 1
        if nodes > NODE_LIMIT:
            raise _Stop
        if not rainbow:
            if merges < best_merges:
                best_merges, best_assignment = merges, list(root)
                if V - merges == upper:
                    raise _Stop
            return
        # a rainbow edge needs a merge more, so a room of 1 prunes
        room = best_merges - merges
        if room <= 1:
            return
        # class degrees, first as they prune most nodes: a better partition
        # is room - 1 more merges, which touch at most 2*room - 2 classes;
        # each rainbow edge must meet two of them, and meets a class at most
        # once
        touched = 2 * room - 2
        if touched < V - merges:
            degrees = sorted([(rainbow & mask).bit_count() for mask in inc])
            if sum(degrees[-touched:]) < 2 * rainbow.bit_count():
                return
        # the roots of a rainbow edge are distinct, so every pair is a new
        # merge; it keeps a rainbow edge rainbow unless the edge meets both.
        # Zykov's same-or-different branching: once the subtree that merges
        # a pair is done, the later siblings keep that pair apart, so no
        # partition is searched twice; an edge with no pair left to merge
        # yields no child
        roots = [root[v] for v in mask_bits(H.edges[(rainbow & -rainbow).bit_length() - 1])]
        saved = [apart[r] for r in roots]
        for ra, rb in itertools.combinations(roots, 2):
            if ra < rb:
                lo, hi = ra, rb
            else:
                lo, hi = rb, ra
            a = cls[lo]
            apart_hi = apart[hi]
            if a & apart_hi:
                continue
            b = cls[hi]
            moved = mask_bits(b)
            for v in moved:
                root[v] = lo
            cls[lo] = a | b
            inc_lo = inc[lo]
            inc_hi = inc[hi]
            inc[lo] = inc_lo | inc_hi
            inc[hi] = 0
            apart_lo = apart[lo]
            apart[lo] = apart_lo | apart_hi
            dfs(merges + 1, rainbow & ~(inc_lo & inc_hi))
            cls[lo] = a
            inc[lo] = inc_lo
            inc[hi] = inc_hi
            for v in moved:
                root[v] = hi
            apart[lo] = apart_lo | b
            apart[hi] = apart_hi | a
        for r, mask in zip(roots, saved):
            apart[r] = mask

    if trivial_lb != upper:
        try:
            dfs(0, (1 << len(H.edges)) - 1)  # every class is one point
        except _Stop:
            pass
    witness = make_coloring(best_assignment)
    objective = V - best_merges
    ok, _ = is_proper(witness, H)
    if not (ok and witness.N == objective):
        raise SolverError(f"internal error: the UCN witness is not a proper "
                          f"{objective}-coloring")
    if objective < trivial_lb:
        raise SolverError(f"internal error: UCN {objective} is below the trivial "
                          f"lower bound {trivial_lb}")
    if upper is not None and objective > upper:
        raise SolverError(f"internal error: UCN {objective} is above the shape "
                          f"bound {upper}")
    if nodes > NODE_LIMIT:
        return SolveResult(objective=None, witness=witness, nodes=nodes,
                           status=BOUND_ONLY, lower_bound=objective, upper_bound=upper)
    return SolveResult(objective=objective, witness=witness, nodes=nodes,
                       status=OPTIMAL, lower_bound=trivial_lb, upper_bound=objective)


# -- modular-set theorem verification -----------------------------------

class TModPVerification(collections.namedtuple(
        "TModPVerification", "p t k max_size weight_cap kernel_dim num_solution_classes "
        "exhaustive num_found num_unions expected_size violations verified sets",
        defaults=((),))):
    __slots__ = ()

    def to_json(self) -> dict:
        return {**self._asdict(), "sets": list(map(list, self.sets))}


def tmodp_verdict(space: ProjectiveSpace, t: int, found: list, sizes: list,
                  frame: dict) -> tuple:
    """(violations, verified) of a t (mod p) report on the lines of the
    plane `space` with the search-free fields `frame` of `tmodp_frame`,
    whose found weight tuples are t (mod p) sets with t <= p - 1, of the
    sizes `sizes` in the same order: the one verdict rule of
    `verify_tmodp_theorem` and `recheck`.  The violations, in report order,
    are each found set whose size is not expected_size and, when the
    search was exhaustive and found fewer than num_unions sets of that
    size, each union of t lines that it did not find; the report is
    verified iff the search was exhaustive and there are none.

    A found set of size expected_size is a union of t lines (see
    verify_tmodp_theorem), so only sizes are compared; each distinct
    reason string is built once.  The unions are listed only to name the
    missed ones; an exhaustive search needs p <= 3, so there are at most
    comb(14, 2) = 91 multisets of lines."""
    expected, exhaustive = frame["expected_size"], frame["exhaustive"]
    reasons = {s: f"size {s} != {expected}" for s in set(sizes) if s != expected}
    violations = [{"weights": list(wt), "reason": reasons[s]}
                  for wt, s in zip(found, sizes) if s in reasons]
    if exhaustive and len(found) - len(violations) < frame["num_unions"]:
        listed = set(found)
        for combo in itertools.combinations_with_replacement(space.subspaces(1), t):
            w = construct_union(space, ((S, 1) for S in combo)).weights
            if tuple(w) not in listed:
                violations.append({"weights": w, "reason": "line union missed by enumeration"})
    return violations, exhaustive and not violations


def tmodp_frame(p: int, t: int, max_size: int | None = None) -> dict:
    """The fields of the t (mod p) report of `verify_tmodp_theorem(p, t,
    max_size)` that follow from its arguments with no search, keyed as in
    `TModPVerification`, with max_size filled in with its default;
    `recheck` compares a report with them.  Raises what
    `verify_tmodp_theorem` raises, all before any power p^kernel_dim is
    taken and before any field or space is built: first the refusals of
    `mod_p_gate(2, 1, p, t, max_size)`, by counts alone, then its own t >= 1
    test and the hypothesis t <= 3p/8 + 1."""
    # None is the default bound, filled in below once p and t have passed
    mod_p_gate(2, 1, p, t, 0 if max_size is None else max_size)
    if t < 1:
        raise SolverError(f"t must be >= 1, not {t}")
    if 8 * t > 3 * p + 8:
        raise SolverError(f"hypothesis violated: t = {t} > 3p/8 + 1 = {Fraction(3 * p, 8) + 1}")
    # the constant weight t solves the system, so its solutions form the classes
    # of plane_cosets; t <= p - 1 by the hypothesis, so unions count as multisets
    kdim, classes, exhaustive = plane_cosets(p)
    if max_size is None:
        max_size = (t + 1) * theta(1, p) + p - 2
    return {"p": p, "t": t, "k": 1, "max_size": max_size, "weight_cap": p - 1,
            "kernel_dim": kdim, "num_solution_classes": classes,
            "exhaustive": exhaustive,
            "num_unions": math.comb(theta(2, p) + t - 1, t) if t * (p + 1) <= max_size else 0,
            "expected_size": t * theta(1, p)}


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

    Every field but the found sets, their violations and the verdict comes
    from `tmodp_frame(p, t, max_size)`, which `recheck` recomputes.
    `enumerate_t_mod_p_sets` walks every coset of the mod-p kernel, and runs
    only on an `exhaustive` frame (p <= 3); past `COSET_LIMIT` cosets the
    report lists no sets, is not `exhaustive` or `verified`, and still
    counts the line unions.

    t must satisfy t <= 3p/8 + 1.  The size bound defaults to
    (t+1)*theta(1) + p - 2: the size t*theta(1) of a union of t lines plus a
    margin of theta(1) + p - 2.  The repository does not record where the
    paper puts its "small"; this default disagrees with
    `bounds_report(...).blsetthm_threshold` = (t + 1/2)*p - 1/2, which at
    (p, t) = (3, 2) is 7, below the size 8 of the line unions, while the
    default is 13.  Within that 13 lie 234 sets of size 11 that are not line
    unions; each is reported as a violation and `verified` is False.
    Raises, through `tmodp_frame` and so before any field or space is
    built, BlockingError from `mod_p_gate` for a p or t that is not an int
    (`t True is not an int`), a max_size that is not an int >= 0, p above
    MAX_Q, p not prime (`p = 4 is not prime`) and a plane past the matrix
    limit; then SolverError for t < 1 and for t > 3p/8 + 1.
    """
    frame = tmodp_frame(p, t, max_size)
    space = ProjectiveSpace.of_order(2, p)
    sets = (enumerate_t_mod_p_sets(space, k=1, t=t, max_size=frame["max_size"]).sets
            if frame["exhaustive"] else [])
    violations, verified = tmodp_verdict(space, t, sets, list(map(sum, sets)), frame)
    return TModPVerification(**frame, num_found=len(sets), violations=violations,
                             verified=verified, sets=sets)


# -- bound calculators ---------------------------------------------------

class BoundsReport(collections.namedtuple(
        "BoundsReport", "n k q p h t theta_n theta_k trivial_lower tau2_known delta_prime "
        "delta_ext delta_strong blsetthm_threshold dbhszvdv_size bruen_lower_ceil "
        "blokhuis flags")):
    """delta_prime, delta for prime order (sqrt(2)*q^k - q^k - 3*theta(k-1) - 8) / 2,
    is the dict of the exact pair "sqrt2_coeff" and "rational" and of its
    sign test "nonnegative"; tau2_known and delta_ext may be None."""

    __slots__ = ()

    def to_json(self) -> dict:
        """The fields by name, in order, each Fraction, also one in a dict
        field, written "a/b"."""
        def text(x):
            return f"{x.numerator}/{x.denominator}" if type(x) is Fraction else x
        return {name: {key: text(v) for key, v in x.items()} if type(x) is dict else text(x)
                for name, x in self._asdict().items()}


def bounds_report(n: int, k: int, q: int, t: int) -> BoundsReport:
    """All bound formulas and theorem-applicability flags, exact, for
    1 <= k <= n-1, n <= MAX_N (the dimension limit of the spaces), a
    prime power q <= MAX_Q and an int t >= 1 (a bool is none);
    SolverError or FieldError otherwise.  n is checked before any power
    is taken.

    k is the dimension of the blocking subspaces: the report is about
    H(n, n-k, q).  tau2_known is its tau_2 where two disjoint k-spaces fit
    (2k < n), the folklore bound 2*theta_k of `_tau_facts`; else None.
    trivial_lower is theta_n - 2*theta_k + 1 and so is the trivial bound
    theta_n - tau_2 + 1 only where tau2_known is set.  Elsewhere it can
    overstate it: 12 at (2, 1, 4), where tau_2 = 12 gives 10, and 15 at
    (3, 2, 3), where the best known lower bound on UCN H(3,1,3) is 11."""
    if type(k) is not int or type(n) is not int or not 1 <= k <= n - 1:
        raise SolverError(f"k = {k!r} is not an integer in [1, n - 1] for n = {n!r}")
    if type(t) is not int or t < 1:
        raise SolverError(f"t must be an int >= 1, not {t!r}")
    if n > MAX_N:
        raise SolverError(f"n = {n} exceeds the limit {MAX_N}")
    p, h = factor_prime_power(q)
    qk = q**k
    theta_n = theta(n, q)
    theta_k = theta(k, q)
    folklore, fits = _tau_facts(n, n - k, q, 2)
    trivial_lower = theta_n - folklore + 1
    tau2_known = folklore if fits else None

    a = Fraction(qk, 2)
    b = Fraction(-qk - 3 * theta(k - 1, q) - 8, 2)
    delta_prime_nonneg = 2 * a * a >= b * b  # a*sqrt(2) + b >= 0, as a > 0 > b

    delta_ext = Fraction(q ** (k - 1) - theta(k - 2, q) - 3, 2) if k >= 2 else None
    delta_strong = Fraction(qk, 200) - theta(k - 1, q) - Fraction(3, 2)
    blsetthm_threshold = (Fraction(t) + Fraction(1, 2)) * p**k - Fraction(1, 2)
    dbhszvdv_size = 2 * qk + 2 * (qk - 1) // (p - 1)

    s = math.isqrt(q)
    bruen_lower_ceil = q + s + 1 + (0 if s * s == q else 1)
    blokhuis = Fraction(3 * (p + 1), 2)

    # the paper's hypothesis t <= 3p/8 + 1 on a prime order
    small_t = h == 1 and 8 * t <= 3 * p + 8
    flags = {
        "ucnthm": n >= 3 and 2 * k < n and ((k == 1 and q >= 17) or (k >= 2 and q >= 13)),
        "ucnstabp": ((h == 1 and q >= 11 and delta_prime_nonneg)
                     or (h >= 2 and k >= 2 and q >= 25)),
        "ucnstabq": h >= 2 and p >= 11 and qk >= 239,
        "tmodpsetthm": small_t,
        "blsetthm": small_t,
    }

    return BoundsReport(
        n=n, k=k, q=q, p=p, h=h, t=t, theta_n=theta_n, theta_k=theta_k,
        trivial_lower=trivial_lower, tau2_known=tau2_known,
        delta_prime={"sqrt2_coeff": a, "rational": b, "nonnegative": delta_prime_nonneg},
        delta_ext=delta_ext, delta_strong=delta_strong,
        blsetthm_threshold=blsetthm_threshold, dbhszvdv_size=dbhszvdv_size,
        bruen_lower_ceil=bruen_lower_ceil, blokhuis=blokhuis, flags=flags)
