"""Strict colorings of hypergraphs: rainbow detection, trivial-coloring
construction and triviality analysis."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .geometry import Hypergraph, ProjectiveSpace, mask_bits, theta


class ColoringError(ValueError):
    pass


@dataclass(frozen=True)
class Coloring:
    assignment: tuple  # point index -> color id in 1..N

    @property
    def N(self) -> int:
        return max(self.assignment) if self.assignment else 0

    def class_masks(self):
        masks = [0] * self.N
        for i, c in enumerate(self.assignment):
            masks[c - 1] |= 1 << i
        return masks

    def class_sizes(self):
        return [m.bit_count() for m in self.class_masks()]

    def to_json(self) -> dict:
        return {"assignment": list(self.assignment), "N": self.N}


def make_coloring(assignment) -> Coloring:
    """Canonicalize a color assignment: dense ids 1..N, classes ordered by
    their minimal point index."""
    assignment = list(assignment)
    if not assignment:
        raise ColoringError("empty assignment")
    relabel = {}
    out = []
    for c in assignment:
        if c not in relabel:
            relabel[c] = len(relabel) + 1
        out.append(relabel[c])
    return Coloring(tuple(out))


def is_strict(coloring: Coloring, num_vertices: int) -> bool:
    if len(coloring.assignment) != num_vertices:
        return False
    used = set(coloring.assignment)
    return used == set(range(1, len(used) + 1))


def _rainbow(points, assignment) -> bool:
    """True iff the points carry pairwise distinct colors; stops at the
    first repeated color."""
    seen = set()
    for i in points:
        c = assignment[i]
        if c in seen:
            return False
        seen.add(c)
    return True


def is_rainbow(edge_mask: int, coloring: Coloring) -> bool:
    """True iff all colors on the edge are pairwise distinct."""
    return _rainbow(mask_bits(edge_mask), coloring.assignment)


def is_proper(coloring: Coloring, H: Hypergraph):
    """True iff no edge is rainbow; on failure returns a rainbow edge."""
    if not is_strict(coloring, H.num_vertices):
        raise ColoringError("coloring is not a strict coloring of the vertex set")
    assignment = coloring.assignment
    for e, pts in zip(H.edges, H.edge_points):
        if _rainbow(pts, assignment):
            return False, e
    return True, None


def is_2_transversal(mask: int, H: Hypergraph) -> bool:
    return all((e & mask).bit_count() >= 2 for e in H.edges)


def trivial_coloring(transversal, H: Hypergraph) -> Coloring:
    """One color on a 2-transversal, mutually distinct colors elsewhere."""
    chosen = set(transversal)
    if not is_2_transversal(sum(1 << i for i in chosen), H):
        raise ColoringError("the given set is not a 2-transversal")
    others = itertools.count(2)
    return Coloring(tuple(1 if i in chosen else next(others) for i in range(H.num_vertices)))


def _tau2_size_cutoff(H: Hypergraph) -> int:
    """Cheap lower bound on the size of any 2-transversal of H."""
    if H.params is None:
        return 2
    n, k, q = H.params
    return max(2, 2 * theta(n - k, q))


def is_trivial_coloring(coloring: Coloring, H: Hypergraph):
    """True iff some color class contains a 2-transversal of H.

    A superset of a 2-transversal is one, so it suffices to test each
    class itself.  Classes are scanned in decreasing size order with a
    size cutoff; the reported witness is the lowest-index qualifying
    class, independent of scan order.
    """
    if not is_strict(coloring, H.num_vertices):
        raise ColoringError("coloring is not strict")
    cutoff = _tau2_size_cutoff(H)
    masks = coloring.class_masks()
    hits = []
    for ci in sorted(range(len(masks)), key=lambda i: -masks[i].bit_count()):
        if masks[ci].bit_count() < cutoff:
            continue
        if is_2_transversal(masks[ci], H):
            hits.append(ci + 1)
    if hits:
        return True, min(hits)
    return False, None


def monochromatic_disjoint_pair(coloring: Coloring, space: ProjectiveSpace, k: int):
    """A color class containing two disjoint k-spaces entirely, if any.

    Returns (color, U, V) for the lowest such color id, else None.  Any
    returned pair certifies triviality of the coloring for the
    (n-k)-space hypergraph, since every (n-k)-space meets both."""
    masks = coloring.class_masks()
    subs = space.subspaces(k)
    for ci, cmask in enumerate(masks):
        inside = [S for S in subs if S.mask & cmask == S.mask]
        for a in range(len(inside)):
            for b in range(a + 1, len(inside)):
                if inside[a].mask & inside[b].mask == 0:
                    return ci + 1, inside[a], inside[b]
    return None
