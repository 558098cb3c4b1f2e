import pytest

from pgworkbench.coloring import (Coloring, ColoringError, is_2_transversal,
                                  is_proper, is_strict, is_trivial_coloring,
                                  make_coloring, trivial_coloring)
from pgworkbench.geometry import Hypergraph, ProjectiveSpace
from pgworkbench.solvers import exact_tau


def fano():
    return ProjectiveSpace.of_order(2, 2).hypergraph(1)


def test_make_coloring_canonicalizes():
    c = make_coloring([5, 5, 2, 9, 2])
    assert c.assignment == (1, 1, 2, 3, 2)
    assert c.N == 3
    assert c.class_sizes() == [2, 2, 1]
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
    assert max(c.class_sizes()) < 6
    triv, cls = is_trivial_coloring(c, H)
    assert not triv and cls is None


def test_is_trivial_coloring_ignores_lying_params():
    # edges that claim (2, 1, 2): the size cutoff 2*theta(1) = 6 of the
    # lines of PG(2,2) would skip the 2-point class that is a 2-transversal
    H = Hypergraph(7, (0b11,), (2, 1, 2))
    assert is_trivial_coloring(Coloring((1, 1, 2, 3, 4, 5, 6)), H) == (True, 1)
