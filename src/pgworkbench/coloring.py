"""Strict colorings of hypergraphs: rainbow detection, trivial-coloring
construction and triviality analysis, all decided by judge_coloring."""

from __future__ import annotations

import collections
import itertools

from .geometry import Hypergraph, all_ints, point_set


class ColoringError(ValueError):
    pass


class Coloring(collections.namedtuple("Coloring", "assignment")):
    """assignment: point index -> color id in 1..N."""

    __slots__ = ()

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

    @classmethod
    def from_json(cls, data) -> "Coloring":
        """A coloring from a JSON object whose 'assignment' is a list of
        ints; ColoringError otherwise."""
        assignment = data.get("assignment") if isinstance(data, dict) else None
        if not isinstance(assignment, list) or not all_ints(assignment):
            raise ColoringError("a coloring is a JSON object whose 'assignment' "
                                "is a list of integers")
        return cls(tuple(assignment))


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


def judge_coloring(coloring: Coloring, H: Hypergraph):
    """(edge, color): the first rainbow edge of H in edge order, or None,
    and the least color whose class contains (so is) a 2-transversal of H,
    or None; ColoringError unless the coloring is strict.  Every coloring
    test reads it.  Only classes of 2+ points are tested, and no class is
    a 2-transversal, meeting every edge twice, when an edge is rainbow."""
    if not is_strict(coloring, H.num_vertices):
        raise ColoringError("coloring is not a strict coloring of the vertex set")
    masks = coloring.class_masks()
    multi = [m for m in masks if m & (m - 1)]
    for e in H.edges:
        for m in multi:
            if (e & m).bit_count() > 1:
                break
        else:
            return e, None
    color = next((c for c, m in enumerate(masks, 1)
                  if m & (m - 1) and is_2_transversal(m, H)), None)
    return None, color


def is_proper(coloring: Coloring, H: Hypergraph):
    """True iff no edge is rainbow; on failure returns the first rainbow
    edge in edge order."""
    edge, _ = judge_coloring(coloring, H)
    return edge is None, edge


def is_2_transversal(mask: int, H: Hypergraph) -> bool:
    return all((e & mask).bit_count() >= 2 for e in H.edges)


def trivial_coloring(transversal, H: Hypergraph) -> Coloring:
    """Color 1 on a 2-transversal, mutually distinct colors elsewhere, with
    no color skipped.  The transversal is checked like a certificate's:
    distinct int vertex indices."""
    chosen = point_set(transversal, H.num_vertices)
    if not is_2_transversal(sum(1 << i for i in chosen), H):
        raise ColoringError("the given set is not a 2-transversal")
    others = itertools.count(2 if chosen else 1)
    return Coloring(tuple(1 if i in chosen else next(others) for i in range(H.num_vertices)))


def is_trivial_coloring(coloring: Coloring, H: Hypergraph):
    """True iff some color class contains a 2-transversal of H; the
    reported witness is the lowest-index qualifying class."""
    _, color = judge_coloring(coloring, H)
    return color is not None, color
