"""Weighted point sets of PG(n,q): multiple blocking sets, minimality,
modular intersection conditions, weighted unions, and the enumeration of
t (mod p) sets.

Throughout, k names the dimension of the subspaces being met: a t-fold
blocking set with respect to k-spaces meets every k-space in at least t
points, counted with weights.
"""

from __future__ import annotations

import collections

from .fields import GF, MAX_Q, is_prime
from .geometry import (ProjectiveSpace, Subspace, all_ints, count_subspaces, level_gate,
                       mask_bits, mask_columns, theta)


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

    @classmethod
    def from_json(cls, space: ProjectiveSpace, weights) -> "WeightedPointSet":
        """The set of weights read from outside the program, from a
        certificate or a file: BlockingError unless they are a list of ints
        (a bool is none), then the refusals of the constructor."""
        if type(weights) is not list or not all_ints(weights):
            raise BlockingError("weights must be a list of ints")
        return cls(space, weights)

    @property
    def size(self) -> int:
        return sum(self.weights)

    @property
    def support(self):
        return [i for i, w in enumerate(self.weights) if w > 0]

    def subspace_weight(self, U: Subspace) -> int:
        w = self.weights
        return sum(w[i] for i in U.point_indices())

    def to_json(self) -> dict:
        return {"space": {"n": self.space.n, "q": self.space.q},
                "weights": list(self.weights)}


def kspace_weights(B: WeightedPointSet, k: int):
    """Weighted intersection size of B with every k-space M, in canonical order,
    from the masks: the sum over bits b of 2^b |P & M|, P the points whose weight
    has bit b, one pass per bit of the largest weight, however many weights differ."""
    of_weight = {}
    for i, w in enumerate(B.weights):
        if w:
            of_weight[w] = of_weight.get(w, 0) | 1 << i
    masks = [S.mask for S in B.space.subspaces(k)]
    sums = [0] * len(masks)
    for b in range(max(of_weight, default=0).bit_length()):
        plane = sum(points for w, points in of_weight.items() if w >> b & 1)
        if plane:
            counts = map(int.bit_count, map(plane.__and__, masks))
            sums = [s + (x << b) for s, x in zip(sums, counts)]
    return sums


# -- claims: blocking, t (mod p), essentiality, minimality ---------------

# the kinds of claim that judge_claim decides, in the order a certificate lists them
CLAIM_KINDS = ("t_fold_blocking", "t_mod_p", "minimal")


def judge_claim(B: WeightedPointSet, kind: str, t: int, k: int, sums: dict):
    """(holds, S) for a claim about B on k-spaces: t_fold_blocking (each
    k-space, 1 <= k <= n-1, has weight >= t), t_mod_p (each weight is t mod
    the characteristic) or minimal (t-fold blocking, and each point of
    positive weight is on a k-space of weight t, so a set that is not
    t-fold blocking is not minimal).  S is the first k-space, in canonical
    order, that fails the weight test, else None.  Claims sharing the dict
    sums (the weights by k) make one pass per k.  BlockingError for another
    kind and for a t that is not an int (a bool is none), then
    level_gate(n, k, q)'s refusals, asked once per claim before any level
    is built (a claim reads the masks), then BlockingError for k = 0 or n
    and for t < 1, in a blocking or minimal claim."""
    if kind not in CLAIM_KINDS:
        raise BlockingError(f"unknown claim type {kind!r}")
    if type(t) is not int:
        raise BlockingError(f"t {t!r} is not an int")
    level_gate(B.space.n, k, B.space.q)
    if kind != "t_mod_p" and (k < 1 or k > B.space.n - 1):
        raise BlockingError(f"k = {k} out of range")
    if kind != "t_mod_p" and t < 1:
        raise BlockingError("t must be >= 1")
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
    """(True, None) iff every k-space meets B in >= t weight; else (False, witness)."""
    return judge_claim(B, "t_fold_blocking", t, k, {})


def is_t_mod_p_set(B: WeightedPointSet, t: int, k: int):
    """(True, None) iff every k-space weight is congruent to t mod p, the
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
    """Lower each point, in the given order, while every k-space through it
    weighs more than t: sums never fall below t, so one pass leaves B minimal."""
    sums = _require_blocking(B, t, k, {})
    space = B.space
    masks = [S.mask for S in space.subspaces(k)]
    through = [int(bits, 2) for bits in mask_columns(masks, space.num_points)]
    tight = _tight_mask(B, t, k, sums)
    w = list(B.weights)
    for i in range(space.num_points) if order is None else order:
        if w[i] and not tight >> i & 1:
            spaces = mask_bits(through[i])
            d = min(w[i], min(sums[si] for si in spaces) - t)
            w[i] -= d
            for si in spaces:
                sums[si] -= d
                if sums[si] == t:
                    tight |= masks[si]
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


def mod_p_gate(n: int, k: int, p: int, t: int, max_size: int) -> None:
    """The one gate of a mod-p enumeration of weights on the k-spaces of
    PG(n,p) and of a t (mod p) report: BlockingError unless k, p and t
    are ints and max_size is an int >= 0 (a bool is none), p is a prime at
    most MAX_Q, tested before any trial division, and the k-space/point
    incidence matrix has at most MATRIX_ENTRY_LIMIT entries.  Counts only:
    no field or space is built and no power p^kernel_dim is taken."""
    for name, value in (("k", k), ("p", p), ("t", t)):
        if type(value) is not int:
            raise BlockingError(f"{name} {value!r} is not an int")
    if type(max_size) is not int or max_size < 0:
        raise BlockingError(f"max_size must be an integer >= 0, not {max_size!r}")
    if p > MAX_Q:
        raise BlockingError(f"p = {p} exceeds the limit {MAX_Q}")
    if not is_prime(p):
        raise BlockingError(f"p = {p} is not prime")
    entries = count_subspaces(n, k, p) * theta(n, p)
    if entries > MATRIX_ENTRY_LIMIT:
        raise BlockingError(f"the {k}-space/point incidence matrix of PG({n},{p}) has "
                            f"{entries} entries, above the limit {MATRIX_ENTRY_LIMIT}")


def plane_cosets(p: int) -> tuple:
    """(kernel_dim, classes, exhaustive) for the lines of PG(2,p), once
    `mod_p_gate` passes: kernel_dim is p(p+1)/2 by the p-rank C(p+1, 2) + 1
    (Graham and MacWilliams 1966), the p^kernel_dim classes are the
    kernel's cosets, and exhaustive means at most COSET_LIMIT."""
    kdim = p * (p + 1) // 2
    return kdim, p**kdim, p**kdim <= COSET_LIMIT


TModPEnumeration = collections.namedtuple(
    "TModPEnumeration", "sets kernel_dim num_solution_classes exhaustive")


def enumerate_t_mod_p_sets(space: ProjectiveSpace, k: int, t: int,
                           max_size: int) -> TModPEnumeration:
    """All weight functions w with 0 <= w <= p - 1 pointwise,
    sum(w) <= max_size, and every k-space weight congruent to t mod p, as
    the sorted list of their weight tuples.

    The solutions form a coset of the kernel of the k-space/point
    incidence matrix over GF(p).  Every coset of that kernel is walked when
    there are at most COSET_LIMIT of them; past it none is, and the result
    lists no sets with exhaustive=False.  The walk holds a coset as one int,
    a byte lane per point (point 0 the highest, so kept bytes sort as their
    tuples), and adds the multiples c*v mod p of the kernel vectors v, so a
    lane never passes (p - 1)(kernel_dim + 1), at most 72 under COSET_LIMIT;
    a kernel whose lanes could pass 255 is refused with BlockingError before
    any coset is built, and an empty kernel is its one coset, unpacked
    (PG(1,257) has residues of 256).  For the lines of a plane the
    kernel dimension has a closed form (`plane_cosets`), so a plane
    past the limit is answered without building or eliminating the matrix.
    BlockingError, from `mod_p_gate(space.n, k, space.q, t, max_size)`,
    unless k and t are ints, max_size an int >= 0, the field prime (`p = 4
    is not prime`) and the matrix at most MATRIX_ENTRY_LIMIT entries.
    """
    mod_p_gate(space.n, k, space.q, t, max_size)
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
    if not kdim:
        return TModPEnumeration([tuple(particular)] * (sum(particular) <= max_size), 0, 1, True)
    if (p - 1) * (kdim + 1) > 255:
        raise BlockingError(f"a kernel of dimension {kdim} over GF({p}) overflows a byte lane")
    multiples = [[int.from_bytes(bytes(c * a % p for a in vec), "big") for c in range(p)]
                 for vec in kernel]
    last, mod, found = multiples.pop(), (bytes(range(p)) * 256)[:256], []

    def walk(j, w):
        if j < kdim - 1:
            for m in multiples[j]:
                walk(j + 1, w + m)
            return
        for m in last:
            leaf = (w + m).to_bytes(npts, "big").translate(mod)
            if sum(leaf) <= max_size:
                found.append(leaf)

    walk(0, int.from_bytes(bytes(particular), "big"))
    return TModPEnumeration(list(map(tuple, sorted(found))), kdim, total, True)
