"""Weighted point sets of PG(n,q): multiple blocking sets, minimality,
modular intersection conditions, weighted unions, and the enumeration of
t (mod p) sets.

Throughout, k names the dimension of the subspaces being met: a t-fold
blocking set with respect to k-spaces meets every k-space in at least t
points, counted with weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import GF
from .geometry import ProjectiveSpace, Subspace, count_subspaces, theta


class BlockingError(ValueError):
    pass


@dataclass
class WeightedPointSet:
    space: ProjectiveSpace
    weights: list

    def __post_init__(self):
        if len(self.weights) != self.space.num_points:
            raise BlockingError("weight array length does not match the point count")
        if min(self.weights) < 0:
            raise BlockingError("weights must be nonnegative")

    @property
    def size(self) -> int:
        return sum(self.weights)

    @property
    def support(self):
        return [i for i, w in enumerate(self.weights) if w > 0]

    def copy(self) -> "WeightedPointSet":
        return WeightedPointSet(self.space, list(self.weights))

    def subspace_weight(self, U: Subspace) -> int:
        w = self.weights
        return sum(w[i] for i in U.point_indices())

    def to_json(self) -> dict:
        return {"space": {"n": self.space.n, "q": self.space.q},
                "weights": list(self.weights)}


def kspace_weights(B: WeightedPointSet, k: int):
    """Weighted intersection size of B with every k-space, in canonical order."""
    w = B.weights.__getitem__
    return [sum(map(w, pts)) for pts in B.space.incidence(k)]


def _kspace_failure(B: WeightedPointSet, t: int, k: int, char, sums: dict):
    """Index of the first k-space, in canonical order, whose weight in B is
    below t (char None, with k in 1..n-1) or not congruent to t mod char;
    None when there is none.  The k-space weights are read from the dict
    sums, keyed by k, and put there on first use, so every predicate of
    one set takes a single pass over the k-spaces of each k."""
    if char is None and (k < 1 or k > B.space.n - 1):
        raise BlockingError(f"k = {k} out of range")
    if k not in sums:
        sums[k] = kspace_weights(B, k)
    if char is None:
        return next((i for i, s in enumerate(sums[k]) if not s >= t), None)
    r = t % char
    return next((i for i, s in enumerate(sums[k]) if not s % char == r), None)


def _verdict(B: WeightedPointSet, k: int, failure):
    return (True, None) if failure is None else (False, B.space.subspaces(k)[failure])


# -- blocking, essentiality, minimality ---------------------------------

def is_t_fold_blocking(B: WeightedPointSet, t: int, k: int):
    """True iff every k-space meets B in >= t weight; else (False, witness)."""
    return _verdict(B, k, _kspace_failure(B, t, k, None, {}))


def _require_blocking(B, t, k, sums: dict) -> list:
    """The k-space weights of B; BlockingError unless B is t-fold blocking."""
    i = _kspace_failure(B, t, k, None, sums)
    if i is not None:
        raise BlockingError(
            f"not a {t}-fold blocking set with respect to {k}-spaces "
            f"(violated by a k-space of weight {sums[k][i]})")
    return sums[k]


def _essential_mask(B: WeightedPointSet, t: int, k: int, sums: dict) -> int:
    """Mask of the points on some k-space of weight exactly t; BlockingError
    unless B is t-fold blocking."""
    weights = _require_blocking(B, t, k, sums)
    tight = 0
    for S, s in zip(B.space.subspaces(k), weights):
        if s == t:
            tight |= S.mask
    return tight


def _is_minimal(B: WeightedPointSet, t: int, k: int, sums: dict) -> bool:
    tight = _essential_mask(B, t, k, sums)
    return all(tight >> i & 1 for i in B.support)


def essential_points(B: WeightedPointSet, t: int, k: int):
    """Positive-weight points lying on some k-space of weight exactly t."""
    tight = _essential_mask(B, t, k, {})
    return {i for i in B.support if tight >> i & 1}


def is_minimal(B: WeightedPointSet, t: int, k: int) -> bool:
    return _is_minimal(B, t, k, {})


def minimal_reduction(B: WeightedPointSet, t: int, k: int, order=None) -> WeightedPointSet:
    """Decrement non-essential weights in the given point order until minimal."""
    sums = _require_blocking(B, t, k, {})
    space = B.space
    order = list(range(space.num_points) if order is None else order)
    point_spaces = space.point_subspaces(k)
    w = list(B.weights)
    changed = True
    while changed:
        changed = False
        for i in order:
            while w[i] > 0 and all(sums[si] > t for si in point_spaces[i]):
                w[i] -= 1
                for si in point_spaces[i]:
                    sums[si] -= 1
                changed = True
    return WeightedPointSet(space, w)


def harrach_uniqueness_limit(space: ProjectiveSpace, t: int, k: int) -> int:
    """Size bound below which the contained minimal t-fold set is unique.

    k again names the dimension of the met subspaces; the blockers
    themselves have typical dimension n - k.
    """
    q = space.q
    return (t + 1) * q ** (space.n - k) + theta(space.n - k - 1, q)


# -- modular intersection conditions ------------------------------------

def is_t_mod_p_set(B: WeightedPointSet, t: int, k: int, p: int | None = None):
    """True iff every k-space weight is congruent to t mod p."""
    char = B.space.field.p
    if p is not None and p != char:
        raise BlockingError(f"p = {p} does not match the field characteristic {char}")
    return _verdict(B, k, _kspace_failure(B, t, k, char, {}))


# -- weighted unions -----------------------------------------------------

def construct_union(space: ProjectiveSpace, subspaces_with_mult):
    """Weighted union: each point gets the multiplicity sum of the
    subspaces containing it."""
    w = [0] * space.num_points
    for S, mult in subspaces_with_mult:
        if mult < 0:
            raise BlockingError("multiplicities must be nonnegative")
        for i in S.point_indices():
            w[i] += mult
    return WeightedPointSet(space, w)


# -- mod-p solution enumeration -----------------------------------------

def solve_mod_p(rows, rhs, p):
    """Solve A x = rhs over GF(p).

    rows is a list of (dense) coefficient lists.  Returns (particular,
    kernel_basis) with free variables set to zero, or None if the system
    is inconsistent.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [[c % p for c in row] + [b % p] for row, b in zip(rows, rhs)]
    red, pivots = GF(p).row_reduce(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    particular = [0] * ncols
    for row, c in zip(red, pivots):
        particular[c] = row[ncols]
    kernel = []
    for f_col in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[f_col] = 1
        for row, c in zip(red, pivots):
            vec[c] = (-row[f_col]) % p
        kernel.append(vec)
    return particular, kernel


def _plane_kernel_dim(p: int) -> int:
    """Dimension of the kernel over GF(p), p prime, of the line/point
    incidence matrix of PG(2,p): p(p+1)/2, since that matrix has p-rank
    C(p+1, 2) + 1 (Graham and MacWilliams 1966)."""
    return p * (p + 1) // 2


COSET_LIMIT = 3**13
# entries of the dense k-space/point incidence matrix that the enumeration
# may take on: the lines of PG(2,17) give 94249, whose elimination would
# take seconds, but the closed-form plane kernel answers first
MATRIX_ENTRY_LIMIT = 10**5


@dataclass
class TModPEnumeration:
    sets: list
    kernel_dim: int
    num_solution_classes: int
    exhaustive: bool
    # always 0: nothing in the library reads it; kept only because the
    # benchmark's tracing does
    sampled: int = 0


def enumerate_t_mod_p_sets(space: ProjectiveSpace, k: int, t: int, max_size: int,
                           weight_cap: int | None = None) -> TModPEnumeration:
    """All weight functions w with 0 <= w <= weight_cap pointwise,
    sum(w) <= max_size, and every k-space weight congruent to t mod p.

    The solutions form a coset of the kernel of the k-space/point
    incidence matrix over GF(p).  Every coset of that kernel is walked when
    there are at most COSET_LIMIT of them; past it none is, and the result
    lists no sets with exhaustive=False.  For the lines of a plane the
    kernel dimension has a closed form (`_plane_kernel_dim`), so a plane
    past the limit is answered without building or eliminating the matrix.
    BlockingError unless the field is prime, max_size is an int >= 0 and
    weight_cap one in [0, p - 1], and unless the incidence matrix has at
    most MATRIX_ENTRY_LIMIT entries.
    """
    p = space.field.p
    if space.field.h != 1:
        raise BlockingError(f"mod-p enumeration needs a prime field, not GF({space.q})")
    weight_cap = p - 1 if weight_cap is None else weight_cap
    if type(max_size) is not int or max_size < 0:
        raise BlockingError(f"max_size must be an int >= 0, not {max_size!r}")
    if type(weight_cap) is not int or not 0 <= weight_cap <= p - 1:
        raise BlockingError(f"weight_cap must be an int in [0, {p - 1}], not {weight_cap!r}")
    npts = space.num_points
    entries = count_subspaces(space.n, k, p) * npts
    if entries > MATRIX_ENTRY_LIMIT:
        raise BlockingError(f"the {k}-space/point incidence matrix of PG({space.n},{p}) has "
                            f"{entries} entries, above the limit {MATRIX_ENTRY_LIMIT}")
    if (space.n, k) == (2, 1):
        # the constant weight t solves the system, so it is consistent
        kdim = _plane_kernel_dim(p)
        if p**kdim > COSET_LIMIT:
            return TModPEnumeration([], kdim, p**kdim, False)
    rows = [[S.mask >> i & 1 for i in range(npts)] for S in space.subspaces(k)]
    solved = solve_mod_p(rows, [t] * len(rows), p)
    if solved is None:
        return TModPEnumeration([], 0, 0, True)
    particular, kernel = solved
    kdim = len(kernel)
    total = p**kdim
    if total > COSET_LIMIT:
        return TModPEnumeration([], kdim, total, False)
    found = []

    def walk(j, w):
        if j == kdim:
            if sum(w) <= max_size and max(w) <= weight_cap:
                found.append(w)
            return
        for c in range(p):
            if c:
                w = [(a + b) % p for a, b in zip(w, kernel[j])]
            walk(j + 1, w)

    walk(0, particular)
    sets = [WeightedPointSet(space, w) for w in sorted(found)]
    return TModPEnumeration(sets, kdim, total, True)
