import functools
import random

import pytest

from pgworkbench.certificates import make_certificate, recheck
from pgworkbench.coloring import (Coloring, ColoringError, is_2_transversal,
                                  is_proper, is_strict, is_trivial_coloring,
                                  judge_coloring, make_coloring, trivial_coloring)
from pgworkbench.geometry import Hypergraph, ProjectiveSpace, mask_bits
from pgworkbench.solvers import exact_tau, exact_ucn


def fano():
    return ProjectiveSpace.of_order(2, 2).hypergraph(1)


def test_make_coloring_canonicalizes():
    c = make_coloring([5, 5, 2, 9, 2])
    assert c.assignment == (1, 1, 2, 3, 2)
    assert c.N == 3
    assert [m.bit_count() for m in c.class_masks()] == [2, 2, 1]
    with pytest.raises(ColoringError):
        make_coloring([])


def test_is_strict():
    assert is_strict(Coloring((1, 2, 1)), 3)
    assert not is_strict(Coloring((1, 3, 1)), 3)   # color 2 skipped
    assert not is_strict(Coloring((1, 2)), 3)       # wrong length


def test_is_proper_reports_rainbow_edge():
    H = Hypergraph(4, (0b0111, 0b1100))
    ok, edge = is_proper(Coloring((1, 1, 2, 2)), H)
    assert ok and edge is None
    ok, edge = is_proper(Coloring((1, 2, 3, 3)), H)
    assert not ok and edge == 0b0111
    with pytest.raises(ColoringError):
        is_proper(Coloring((1, 3, 3, 3)), H)


def test_trivial_coloring_fano():
    H = fano()
    res = exact_tau(H, 2)
    assert res.objective == 6
    c = trivial_coloring(res.witness, H)
    assert c.N == 7 - 6 + 1 == 2
    assert is_strict(c, 7)
    ok, _ = is_proper(c, H)
    assert ok
    triv, cls = is_trivial_coloring(c, H)
    assert triv and cls == 1


def test_trivial_coloring_rejects_non_transversal():
    H = fano()
    with pytest.raises(ColoringError):
        trivial_coloring([0, 1], H)


def test_trivial_coloring_of_empty_transversal_starts_at_color_one():
    H = Hypergraph(3, ())
    assert trivial_coloring([], H).assignment == (1, 2, 3)


def test_is_2_transversal():
    H = fano()
    assert is_2_transversal((1 << 7) - 1, H)
    assert not is_2_transversal(0b11, H)


def test_nontrivial_proper_coloring():
    # Fano: tau_2 = 6, so any proper coloring with all classes below 6
    # points is proper but not trivial
    H = fano()
    from pgworkbench.solvers import exact_ucn
    res = exact_ucn(H)
    c = res.witness
    assert max(m.bit_count() for m in c.class_masks()) < 6
    triv, cls = is_trivial_coloring(c, H)
    assert not triv and cls is None


def test_is_trivial_coloring_ignores_lying_params():
    # edges that claim (2, 1, 2): the size cutoff 2*theta(1) = 6 of the
    # lines of PG(2,2) would skip the 2-point class that is a 2-transversal
    H = Hypergraph(7, (0b11,), (2, 1, 2))
    assert is_trivial_coloring(Coloring((1, 1, 2, 3, 4, 5, 6)), H) == (True, 1)


JUDGED = [(2, 1, 2), (2, 1, 3), (3, 2, 2)]
NOT_STRICT = "coloring is not a strict coloring of the vertex set"


@functools.cache
def _judged_colorings(n, k, q):
    """Strict colorings of H(n,k,q), seeded: the trivial colorings of the
    tau_2 witness and of the complement of point 0 (whose 2-transversal is
    color 2), exact_ucn's witness, the all-distinct coloring, and random
    class merges of each; then non-strict ones: one point short, and
    color 2 skipped."""
    H = ProjectiveSpace.of_order(n, q).hypergraph(k)
    V = H.num_vertices
    seeds = [trivial_coloring(exact_tau(H, 2).witness, H),
             make_coloring(trivial_coloring(list(range(1, V)), H).assignment),
             exact_ucn(H).witness, Coloring(tuple(range(1, V + 1)))]
    rng = random.Random(f"judge {n} {k} {q}")
    strict = list(seeds)
    for c in seeds:
        for _ in range(6):
            a = list(c.assignment)
            for _ in range(rng.randrange(1, V)):
                if len(set(a)) > 1:
                    x, y = rng.sample(sorted(set(a)), 2)
                    a = [x if v == y else v for v in a]
            strict.append(make_coloring(a))
    not_strict = [Coloring(c.assignment[:-1]) for c in strict[:3]] + [
        Coloring(tuple(v + (v > 1) for v in c.assignment)) for c in strict if c.N > 1][:3]
    return H, strict, not_strict


def _reference(coloring, H):
    """The judge's answer by the definitions: an edge is rainbow iff its
    points have distinct colors, a color is trivial iff its class meets
    every edge at least twice."""
    a = coloring.assignment
    rainbow = [e for e, pts in zip(H.edges, H.edge_points())
               if len({a[i] for i in pts}) == len(pts)]
    trivial = [c for c in range(1, coloring.N + 1)
               if all(sum(a[i] == c for i in pts) >= 2 for pts in H.edge_points())]
    return (rainbow or [None])[0], (trivial or [None])[0]


@pytest.mark.parametrize("n, k, q", JUDGED)
def test_judge_coloring_matches_the_definitions(n, k, q):
    H, strict, not_strict = _judged_colorings(n, k, q)
    verdicts = set()
    for c in strict:
        edge, color = judge_coloring(c, H)
        assert (edge, color) == _reference(c, H)
        assert is_proper(c, H) == (edge is None, edge)
        assert is_trivial_coloring(c, H) == (color is not None, color)
        verdicts.add((edge is None, color))
    # proper and not, trivial in color 1 and in color 2, and neither
    assert {(False, None), (True, None), (True, 1), (True, 2)} <= verdicts
    for c in not_strict:
        assert not is_strict(c, H.num_vertices)
        for judge in (judge_coloring, is_proper, is_trivial_coloring):
            with pytest.raises(ColoringError, match=f"^{NOT_STRICT}$"):
                judge(c, H)


@pytest.mark.parametrize("n, k, q", JUDGED)
@pytest.mark.parametrize("trivial", [True, False, None])
def test_recheck_agrees_with_judge_coloring(n, k, q, trivial):
    H, strict, not_strict = _judged_colorings(n, k, q)
    for c in strict + not_strict:
        payload = {"n": n, "k": k, "q": q, "assignment": list(c.assignment), "N": c.N,
                   "trivial": trivial}
        verdict = recheck(make_certificate("coloring", payload))
        if c in not_strict:
            assert verdict == (False, "coloring is not strict")
            continue
        edge, color = judge_coloring(c, H)
        if edge is not None:
            assert verdict == (False, f"rainbow hyperedge on points {mask_bits(edge)}")
        elif trivial is None or trivial == (color is not None):
            assert verdict == (True, "proper strict coloring verified")
        elif trivial:
            assert verdict == (False, "claimed trivial but no class contains a 2-transversal")
        else:
            assert verdict == (False, "claimed not trivial but a class contains a 2-transversal")
