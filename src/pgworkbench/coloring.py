"""Strict colorings of hypergraphs: rainbow detection, trivial-coloring
construction and triviality analysis."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .geometry import Hypergraph, point_set


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

    @classmethod
    def from_json(cls, data) -> "Coloring":
        """A coloring from a JSON object whose 'assignment' is a list of
        ints; ColoringError otherwise."""
        assignment = data.get("assignment") if isinstance(data, dict) else None
        if not isinstance(assignment, list) or not all(type(c) is int for c in assignment):
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


def _rainbow_edge(class_masks, H: Hypergraph):
    """The first edge of H, in edge order, that no class meets twice; None
    when there is none.  Only the classes of two or more points can meet
    an edge twice, so only their masks are tested."""
    multi = [m for m in class_masks if m & (m - 1)]
    for e in H.edges:
        for m in multi:
            if (e & m).bit_count() > 1:
                break
        else:
            return e
    return None


def is_proper(coloring: Coloring, H: Hypergraph):
    """True iff no edge is rainbow; on failure returns the first rainbow
    edge in edge order."""
    if not is_strict(coloring, H.num_vertices):
        raise ColoringError("coloring is not a strict coloring of the vertex set")
    edge = _rainbow_edge(coloring.class_masks(), H)
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


def _trivial_class(class_masks, H: Hypergraph):
    """The least color whose class is a 2-transversal of H, or None.  A
    superset of a 2-transversal is one, so it suffices to test each class
    itself, skipping those of fewer than 2 points."""
    for ci, mask in enumerate(class_masks):
        if mask & (mask - 1) and is_2_transversal(mask, H):
            return ci + 1
    return None


def is_trivial_coloring(coloring: Coloring, H: Hypergraph):
    """True iff some color class contains a 2-transversal of H; the
    reported witness is the lowest-index qualifying class."""
    if not is_strict(coloring, H.num_vertices):
        raise ColoringError("coloring is not strict")
    color = _trivial_class(coloring.class_masks(), H)
    return color is not None, color
