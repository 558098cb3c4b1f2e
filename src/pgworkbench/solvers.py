"""Exact desk-scale optimization: minimum t-transversals, exact upper
chromatic number, modular-set theorem verification, and the numeric
bound calculators with their applicability predicates."""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction

from .blocking import enumerate_t_mod_p_sets, plane_cosets
from .coloring import is_proper, make_coloring, trivial_coloring
from .fields import MAX_Q, factor_prime_power, is_prime
from .geometry import MAX_N, Hypergraph, ProjectiveSpace, mask_bits, theta

OPTIMAL = "optimal"
BOUND_ONLY = "bound_only"

# the nodes a search visits before it gives up and answers `bound_only`
# from its incumbent: seconds, at about 3-30 us per node
NODE_LIMIT = 2 * 10**5


class SolverError(ValueError):
    pass


SolveResult = collections.namedtuple(
    "SolveResult", "objective witness nodes status lower_bound upper_bound",
    defaults=(None, None))


# -- minimum t-transversal ----------------------------------------------

def _seed_transversal(H: Hypergraph, t: int) -> set:
    """A first t-transversal of H.  On a validated H(n,m,q) where t
    disjoint (n-m)-spaces fit, their union: each meets every m-space.
    Else add the first vertex on the most open edges until none is open.
    Every edge must have at least t vertices: then an open edge always has
    a vertex not yet chosen, so the best gain is positive."""
    if H.geometry is not None:
        n, m, q = H.geometry
        if t * (n - m + 1) <= n + 1:
            blocks = ProjectiveSpace.of_order(n, q).disjoint_subspaces(n - m, t)
            return set().union(*(S.point_indices() for S in blocks))
    # gains[v]: the open edges through v, or -1 once v is chosen
    deficits = [t] * len(H.edges)
    gains = [len(eis) for eis in H.vertex_edges]
    num_open = len(H.edges)
    chosen = set()
    while num_open:
        v = gains.index(max(gains))
        chosen.add(v)
        gains[v] = -1
        for ei in H.vertex_edges[v]:
            deficits[ei] -= 1
            if deficits[ei] == 0:
                num_open -= 1
                for u in H.edge_points[ei]:
                    if u not in chosen:
                        gains[u] -= 1
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


def exact_tau(H: Hypergraph, t: int) -> SolveResult:
    """Minimum size of a t-transversal, by branch and bound; SolverError
    unless t is an int >= 1 (a bool is none).

    On a hypergraph that `Hypergraph.geometry` validates as H(n,m,q), with
    t <= q, the folklore bound t*theta(n-m) lets the search stop as soon
    as an incumbent meets it.  On any validated H(n,m,q) the search also
    starts with the points of `_root_points` chosen: some minimum
    t-transversal holds them all, by the lemmas (L1) and (L2) stated
    there.  Claimed params that do not match the edges get neither.  The
    first incumbent is `_seed_transversal`: where t disjoint (n-m)-spaces
    fit and t <= q, it meets the folklore bound, `optimal` at 0 nodes.
    Past NODE_LIMIT nodes the search stops and answers `bound_only`: the
    incumbent as witness and upper_bound, and the folklore bound as
    lower_bound, None where it does not apply.

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
    index among those.  Nodes of tau_2: H(2,1,4) 385, H(2,1,5) 13391,
    H(3,1,3) 167551.
    """
    if type(t) is not int:
        raise SolverError(f"t must be an int, not {t!r}")
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

    inc = sorted(_seed_transversal(H, t))
    if len(inc) == geometric_lb:
        return SolveResult(objective=len(inc), witness=tuple(inc), nodes=0,
                           status=OPTIMAL, lower_bound=geometric_lb,
                           upper_bound=len(inc))

    # the search state, over the edges renumbered by size (ties in edge
    # order): each edge's deficit, whether it is open, and per vertex the
    # number of open edges through it, updated when an edge's deficit
    # crosses 0; a vertex out of the search is held len(edges) + 1 lower,
    # so that the largest count is the largest over the available vertices
    order = sorted(range(len(edges)), key=lambda ei: edges[ei].bit_count())
    position = [0] * len(edges)
    for pos, ei in enumerate(order):
        position[ei] = pos
    by_size = [(pos, ei, edges[ei]) for pos, ei in enumerate(order)]
    vertex_edges = [[position[ei] for ei in eis] for eis in H.vertex_edges]
    edge_pts = [H.edge_points[ei] for ei in order]
    deficits = [t] * len(edges)
    is_open = [True] * len(edges)
    cover = [len(eis) for eis in vertex_edges]
    out = len(edges) + 1
    best = sum(1 << v for v in inc)
    best_size = best.bit_count()
    nodes = 0
    done = False

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
        nonlocal best, best_size, nodes, done
        nodes += 1
        if nodes > NODE_LIMIT:
            done = True
            return
        if not num_open:
            if count < best_size:
                best, best_size = chosen, count
                done = best_size == geometric_lb
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
            if done:
                break
        rest = pick & ~avail
        while rest:
            low = rest & -rest
            rest ^= low
            cover[low.bit_length() - 1] += out

    total, num_open = t * len(edges), len(edges)
    chosen = 0
    if H.geometry is not None:
        for v in _root_points(*H.geometry, t):
            total, num_open = take(v, total, num_open)
            chosen |= 1 << v
    dfs(chosen, chosen.bit_count(), ((1 << V) - 1) ^ chosen, total, num_open)
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
    exact_tau(H, 2), minimum or, past the node ceiling, that search's
    incumbent.  Past NODE_LIMIT nodes this search stops too, at exactly
    NODE_LIMIT + 1 nodes as exact_tau does: it makes no further sibling
    merge and skips case B.  It answers `bound_only`: its incumbent
    coloring as witness, its class count, at least the trivial bound, as
    lower_bound, and no upper_bound.  A hypergraph with no vertex has no
    coloring to witness, and raises SolverError.

    The rainbow edges are one mask over edge indices, and each class keeps
    the mask of the edges that meet it, so a merge of classes A and B
    leaves rainbow the edges that do not meet both.  With room r =
    incumbent merges - merges, a better partition makes at most r - 1 more
    merges, so r <= 1 prunes a node with a rainbow edge, and two bounds
    prune, tested in this order as the first prunes most nodes:
    Class degrees: r - 1 merges touch at most 2r - 2 classes, and a
    rainbow edge stops being rainbow only when two of the classes it meets
    are touched; it meets each class at most once, so the 2r - 2 largest
    numbers of rainbow edges that meet one class must sum to at least
    twice the number of rainbow edges.
    Packing: rainbow edges that meet pairwise disjoint sets of classes
    each need a merge of their own, so there must be fewer than r of them.
    Nodes: H(2,1,3) 726, H(3,2,2) 57, H(3,1,2) 2000, H(4,3,2) 297.
    H(2,1,4), UCN 12, needs 509758, past NODE_LIMIT: it answers
    `bound_only` with lower_bound 11.
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
        if nodes > NODE_LIMIT:
            return
        if not rainbow:
            if merges < best_merges:
                best_merges, best_assignment = merges, list(root)
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
        # packing: rainbow edges that meet pairwise disjoint sets of classes,
        # each the lowest left once the edges meeting the classes of those
        # before it are cleared
        packed, left = 0, rainbow
        while left:
            packed += 1
            if packed >= room:
                return
            for v in edge_pts[(left & -left).bit_length() - 1]:
                left &= ~inc[root[v]]
        # the roots of a rainbow edge are distinct, so every pair is a new
        # merge; it keeps a rainbow edge rainbow unless the edge meets both.
        # Zykov's same-or-different branching: once the subtree that merges
        # a pair is done, the later siblings keep that pair apart, so no
        # partition is searched twice; an edge with no pair left to merge
        # yields no child
        roots = [root[v] for v in edge_pts[(rainbow & -rainbow).bit_length() - 1]]
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
            moved = members[hi]
            for v in moved:
                root[v] = lo
            members[lo] += moved
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
            del members[lo][-len(moved):]
            for v in moved:
                root[v] = hi
            apart[lo] = apart_lo | b
            apart[hi] = apart_hi | a
            if nodes > NODE_LIMIT:
                break
        for r, mask in zip(roots, saved):
            apart[r] = mask

    rainbow = (1 << len(H.edges)) - 1  # every class is one point
    if H.geometry is None:
        dfs(0, rainbow)
    else:
        # every proper coloring has a monochromatic pair, and PGL(n+1,q) is
        # 2-transitive on points, so some optimal coloring puts points 0
        # and 1 in one class; line 01 is the points 0..d-1
        d = theta(1, H.geometry[2])
        pair, inc_d = inc[0] | inc[1], inc[d]
        rainbow &= ~(inc[0] & inc[1])
        for v in (1, d):
            root[v] = 0
            members[0].append(v)
        cls[0] = 0b11 | 1 << d
        inc[0], inc[1], inc[d] = pair | inc_d, 0, 0
        dfs(2, rainbow & ~(pair & inc_d))  # case A
        root[d] = d
        members[0].pop()
        cls[0], inc[0], inc[d] = 0b11, pair, inc_d
        apart[0] = (1 << V) - (1 << d)
        for v in range(d, V):
            apart[v] = 1
        if nodes <= NODE_LIMIT:
            dfs(1, rainbow)  # case B
    witness = make_coloring(best_assignment)
    objective = V - best_merges
    ok, _ = is_proper(witness, H)
    if not (ok and witness.N == objective):
        raise SolverError(f"internal error: the UCN witness is not a proper "
                          f"{objective}-coloring")
    if objective < trivial_lb:
        raise SolverError(f"internal error: UCN {objective} is below the trivial "
                          f"lower bound {trivial_lb}")
    if nodes > NODE_LIMIT:
        return SolveResult(objective=None, witness=witness, nodes=nodes,
                           status=BOUND_ONLY, lower_bound=objective)
    return SolveResult(objective=objective, witness=witness, nodes=nodes,
                       status=OPTIMAL, lower_bound=trivial_lb, upper_bound=objective)


# -- modular-set theorem verification -----------------------------------

class TModPVerification(collections.namedtuple(
        "TModPVerification", "p t k max_size weight_cap kernel_dim num_solution_classes "
        "exhaustive num_found num_unions expected_size violations verified sets",
        defaults=((),))):
    __slots__ = ()

    def to_json(self) -> dict:
        return {**self._asdict(), "sets": [list(B.weights) for B in self.sets]}


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


def tmodp_frame(p: int, t: int, max_size: int | None = None) -> dict:
    """The fields of the t (mod p) report of `verify_tmodp_theorem(p, t,
    max_size)` that follow from its arguments with no search, keyed as in
    `TModPVerification`, with max_size filled in with its default;
    `recheck` compares a report with them.  Raises what
    `verify_tmodp_theorem` raises, and refuses a p that is not prime or a
    plane past the enumeration's matrix limit by counts alone, before any
    power p^kernel_dim is taken and before any field or space is built."""
    for name, value in (("p", p), ("t", t)):
        if type(value) is not int:
            raise SolverError(f"{name} must be an int, not {value!r}")
    if t < 1:
        raise SolverError(f"t must be >= 1, not {t}")
    if max_size is not None and (type(max_size) is not int or max_size < 0):
        raise SolverError(f"max_size must be an integer >= 0, not {max_size!r}")
    if 8 * t > 3 * p + 8:
        raise SolverError(f"hypothesis violated: t = {t} > 3p/8 + 1 = {Fraction(3 * p, 8) + 1}")
    # the limit first, so a huge p gets no trial division
    if p > MAX_Q:
        raise SolverError(f"p = {p} exceeds the limit {MAX_Q}")
    if not is_prime(p):
        raise SolverError(f"p = {p} is not prime")
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
    Raises, through `tmodp_frame` and so before any field or space is
    built, SolverError for a p or t that is not an int (a bool is none),
    for t < 1, for a max_size that is not an int >= 0, for t > 3p/8 + 1,
    for p above MAX_Q and for p not prime; and BlockingError when the
    plane's line/point incidence matrix is past the enumeration's limit.
    """
    frame = tmodp_frame(p, t, max_size)
    space = ProjectiveSpace.of_order(2, p)
    enum = enumerate_t_mod_p_sets(space, k=1, t=t, max_size=frame["max_size"])
    violations = tmodp_violations(space, t, [tuple(B.weights) for B in enum.sets],
                                  [B.size for B in enum.sets], frame["expected_size"],
                                  frame["num_unions"], frame["exhaustive"])
    return TModPVerification(**frame, num_found=len(enum.sets), violations=violations,
                             verified=not violations and frame["exhaustive"], sets=enum.sets)


# -- bound calculators ---------------------------------------------------

def _sqrt2_combo_nonneg(a: Fraction, b: Fraction) -> bool:
    """Exact sign test of a*sqrt(2) + b >= 0."""
    if a >= 0 and b >= 0:
        return True
    if a <= 0 and b <= 0:
        return False
    # opposite signs: the term of larger magnitude decides
    return 2 * a * a >= b * b if a > 0 else 2 * a * a <= b * b


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
    is taken."""
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
        delta_prime={"sqrt2_coeff": a, "rational": b, "nonnegative": delta_prime_nonneg},
        delta_ext=delta_ext, delta_strong=delta_strong,
        blsetthm_threshold=blsetthm_threshold, dbhszvdv_size=dbhszvdv_size,
        bruen_lower_ceil=bruen_lower_ceil, blokhuis=blokhuis, flags=flags)
