"""Weighted point sets of PG(n,q): multiple blocking sets, minimality,
modular intersection conditions, weighted unions, and the enumeration of
t (mod p) sets.

Throughout, k names the dimension of the subspaces being met: a t-fold
blocking set with respect to k-spaces meets every k-space in at least t
points, counted with weights.
"""

from __future__ import annotations

import collections

from .fields import GF, factor_prime_power
from .geometry import ProjectiveSpace, Subspace, count_subspaces, theta


class BlockingError(ValueError):
    pass


class WeightedPointSet(collections.namedtuple("WeightedPointSet", "space weights")):
    __slots__ = ()

    def __new__(cls, space: ProjectiveSpace, weights: list):
        if len(weights) != space.num_points:
            raise BlockingError("weight array length does not match the point count")
        if min(weights) < 0:
            raise BlockingError("weights must be nonnegative")
        return super().__new__(cls, space, weights)

    # so that _replace checks its fields too
    _make = classmethod(lambda cls, fields: cls(*fields))

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


# -- claims: blocking, t (mod p), essentiality, minimality ---------------

def judge_claim(B: WeightedPointSet, kind: str, t: int, k: int, sums: dict):
    """(holds, S) for a claim about B on k-spaces: t_fold_blocking (each
    k-space, 1 <= k <= n-1, has weight >= t), t_mod_p (each weight is t mod
    the characteristic) or minimal (t-fold blocking, and each point of
    positive weight is on a k-space of weight t, so a set that is not
    t-fold blocking is not minimal).  S is the first k-space, in canonical
    order, that fails the weight test, else None.  Claims sharing the dict
    sums (the weights by k) make one pass per k.  BlockingError for another
    kind, and for k out of range in a blocking or minimal claim."""
    if kind not in ("t_fold_blocking", "t_mod_p", "minimal"):
        raise BlockingError(f"unknown claim type {kind!r}")
    if kind != "t_mod_p" and (k < 1 or k > B.space.n - 1):
        raise BlockingError(f"k = {k} out of range")
    if k not in sums:
        sums[k] = kspace_weights(B, k)
    if kind == "t_mod_p":
        char = B.space.field.p
        failure = next((i for i, s in enumerate(sums[k]) if (s - t) % char), None)
    else:
        failure = next((i for i, s in enumerate(sums[k]) if not s >= t), None)
    if failure is not None:
        return False, B.space.subspaces(k)[failure]
    if kind == "minimal":
        tight = _tight_mask(B, t, k, sums[k])
        return all(tight >> i & 1 for i in B.support), None
    return True, None


def is_t_fold_blocking(B: WeightedPointSet, t: int, k: int):
    """True iff every k-space meets B in >= t weight; else (False, witness)."""
    return judge_claim(B, "t_fold_blocking", t, k, {})


def is_t_mod_p_set(B: WeightedPointSet, t: int, k: int):
    """True iff every k-space weight is congruent to t mod p, the
    characteristic of the field; else (False, witness)."""
    return judge_claim(B, "t_mod_p", t, k, {})


def _require_blocking(B, t, k, sums: dict) -> list:
    """The k-space weights of B; BlockingError unless B is t-fold blocking."""
    blocking, S = judge_claim(B, "t_fold_blocking", t, k, sums)
    if not blocking:
        raise BlockingError(f"not a {t}-fold blocking set with respect to {k}-spaces "
                            f"(violated by a k-space of weight {B.subspace_weight(S)})")
    return sums[k]


def _tight_mask(B: WeightedPointSet, t: int, k: int, weights: list) -> int:
    """Mask of the points on a k-space whose weight in the list weights is t."""
    tight = 0
    for S, s in zip(B.space.subspaces(k), weights):
        if s == t:
            tight |= S.mask
    return tight


def essential_points(B: WeightedPointSet, t: int, k: int):
    """Positive-weight points lying on some k-space of weight exactly t."""
    tight = _tight_mask(B, t, k, _require_blocking(B, t, k, {}))
    return {i for i in B.support if tight >> i & 1}


def is_minimal(B: WeightedPointSet, t: int, k: int) -> bool:
    """True iff B is minimal; BlockingError unless B is t-fold blocking."""
    return essential_points(B, t, k) == set(B.support)


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


COSET_LIMIT = 3**13
# entries of the dense k-space/point incidence matrix that the enumeration
# may take on: the lines of PG(2,17) give 94249, whose elimination would
# take seconds, but the closed-form plane kernel answers first
MATRIX_ENTRY_LIMIT = 10**5


def _require_mod_p_matrix(n: int, k: int, q: int) -> None:
    """BlockingError unless q is prime and the k-space/point incidence
    matrix of PG(n,q) has at most MATRIX_ENTRY_LIMIT entries; FieldError
    unless q is a prime power.  Counts only: no field or space is built."""
    if factor_prime_power(q)[1] != 1:
        raise BlockingError(f"mod-p enumeration needs a prime field, not GF({q})")
    entries = count_subspaces(n, k, q) * theta(n, q)
    if entries > MATRIX_ENTRY_LIMIT:
        raise BlockingError(f"the {k}-space/point incidence matrix of PG({n},{q}) has "
                            f"{entries} entries, above the limit {MATRIX_ENTRY_LIMIT}")


def plane_cosets(p: int) -> tuple:
    """(kernel_dim, classes, exhaustive) for the lines of PG(2,p), once
    `_require_mod_p_matrix` passes: kernel_dim is p(p+1)/2 by the p-rank
    C(p+1, 2) + 1 (Graham and MacWilliams 1966), the p^kernel_dim classes
    are the kernel's cosets, and exhaustive means at most COSET_LIMIT."""
    _require_mod_p_matrix(2, 1, p)
    kdim = p * (p + 1) // 2
    return kdim, p**kdim, p**kdim <= COSET_LIMIT


# sampled is always 0: nothing in the library reads it; kept only because
# the benchmark's tracing does
TModPEnumeration = collections.namedtuple(
    "TModPEnumeration", "sets kernel_dim num_solution_classes exhaustive sampled",
    defaults=(0,))


def enumerate_t_mod_p_sets(space: ProjectiveSpace, k: int, t: int,
                           max_size: int) -> TModPEnumeration:
    """All weight functions w with 0 <= w <= p - 1 pointwise,
    sum(w) <= max_size, and every k-space weight congruent to t mod p.

    The solutions form a coset of the kernel of the k-space/point
    incidence matrix over GF(p).  Every coset of that kernel is walked when
    there are at most COSET_LIMIT of them; past it none is, and the result
    lists no sets with exhaustive=False.  For the lines of a plane the
    kernel dimension has a closed form (`plane_cosets`), so a plane
    past the limit is answered without building or eliminating the matrix.
    BlockingError unless the field is prime and max_size is an int >= 0,
    and unless the incidence matrix has at most MATRIX_ENTRY_LIMIT entries.
    """
    _require_mod_p_matrix(space.n, k, space.q)
    if type(max_size) is not int or max_size < 0:
        raise BlockingError(f"max_size must be an int >= 0, not {max_size!r}")
    p, npts = space.field.p, space.num_points
    if (space.n, k) == (2, 1):
        # the constant weight t solves the system, so it is consistent
        kdim, total, exhaustive = plane_cosets(p)
        if not exhaustive:
            return TModPEnumeration([], kdim, total, False)
    rows = [[S.mask >> i & 1 for i in range(npts)] for S in space.subspaces(k)]
    # a k-space has theta(k) = 1 (mod p) points, so the constant weight t
    # solves the system and solve_mod_p never returns None
    particular, kernel = solve_mod_p(rows, [t] * len(rows), p)
    kdim = len(kernel)
    total = p**kdim
    if total > COSET_LIMIT:
        return TModPEnumeration([], kdim, total, False)
    found = []

    def walk(j, w):
        if j == kdim:
            if sum(w) <= max_size:
                found.append(w)
            return
        for c in range(p):
            if c:
                w = [(a + b) % p for a, b in zip(w, kernel[j])]
            walk(j + 1, w)

    walk(0, particular)
    sets = [WeightedPointSet(space, w) for w in sorted(found)]
    return TModPEnumeration(sets, kdim, total, True)
