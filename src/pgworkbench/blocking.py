"""Weighted point sets of PG(n,q): multiple blocking sets, minimality,
secant-line classification, modular intersection conditions, and the
standard constructions.

Throughout, k names the dimension of the subspaces being met: a t-fold
blocking set with respect to k-spaces meets every k-space in at least t
points, counted with weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

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
        if any(w < 0 for w in self.weights):
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


def _first_kspace_failing(B: WeightedPointSet, k: int, holds):
    """(True, None) if holds(weight) for every k-space, else (False, the
    first k-space in canonical order where it does not)."""
    w = B.weights.__getitem__
    for i, pts in enumerate(B.space.incidence(k)):
        if not holds(sum(map(w, pts))):
            return False, B.space.subspaces(k)[i]
    return True, None


# -- blocking, essentiality, minimality ---------------------------------

def is_t_fold_blocking(B: WeightedPointSet, t: int, k: int):
    """True iff every k-space meets B in >= t weight; else (False, witness)."""
    if k < 1 or k > B.space.n - 1:
        raise BlockingError(f"k = {k} out of range")
    return _first_kspace_failing(B, k, lambda s: s >= t)


def _require_blocking(B, t, k):
    ok, witness = is_t_fold_blocking(B, t, k)
    if not ok:
        raise BlockingError(
            f"not a {t}-fold blocking set with respect to {k}-spaces "
            f"(violated by a k-space of weight {B.subspace_weight(witness)})")


def essential_points(B: WeightedPointSet, t: int, k: int):
    """Positive-weight points lying on some k-space of weight exactly t."""
    _require_blocking(B, t, k)
    tight = 0
    for S, s in zip(B.space.subspaces(k), kspace_weights(B, k)):
        if s == t:
            tight |= S.mask
    return {i for i in B.support if tight >> i & 1}


def is_minimal(B: WeightedPointSet, t: int, k: int) -> bool:
    ess = essential_points(B, t, k)
    return all(i in ess for i in B.support)


def minimal_reduction(B: WeightedPointSet, t: int, k: int, order=None) -> WeightedPointSet:
    """Decrement non-essential weights in the given point order until minimal."""
    _require_blocking(B, t, k)
    space = B.space
    order = list(range(space.num_points) if order is None else order)
    point_spaces = space.point_subspaces(k)
    w = list(B.weights)
    sums = kspace_weights(B, k)
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
    return _first_kspace_failing(B, k, lambda s: s % char == t % char)


@dataclass
class ModExponentReport:
    t: int
    p: int
    e: int
    capped: bool
    size_lower_bound: Fraction


def largest_mod_exponent(B: WeightedPointSet, t: int, k: int) -> ModExponentReport:
    """Largest e with every k-space weight congruent to t mod p^e."""
    ok, witness = is_t_mod_p_set(B, t, k)
    if not ok:
        raise BlockingError("not a t (mod p) set")
    p = B.space.field.p
    sums = kspace_weights(B, k)
    max_sum = max(sums) if sums else 0
    e = 1
    capped = False
    while True:
        mod = p ** (e + 1)
        if mod > max_sum + abs(t):
            # all intersections would have to equal t exactly from here on
            if all(s == t for s in sums):
                capped = True
            else:
                break
        if any((s - t) % mod for s in sums):
            break
        e += 1
        if capped:
            break
    n, q = B.space.n, B.space.q
    bound = Fraction(t * q ** (n - k)) + Fraction(q ** (n - k), p**e + 1) - 1
    return ModExponentReport(t=t, p=p, e=e, capped=capped, size_lower_bound=bound)


# -- secant-line classification -----------------------------------------

T_SECANT = "t_secant"
LONG = "long"
FULL = "full"


@dataclass
class SecantClassification:
    t: int
    p: int
    classes: list  # per line, in canonical line order
    h1: int  # full lines
    h2: int  # long lines
    s_min: int | None
    outer_points: list = field(default_factory=list)
    line_weights: list = field(default_factory=list)


def classify_lines(B: WeightedPointSet, t: int) -> SecantClassification:
    """Classify every line as a t-secant, long, or full line.

    A full line has every point at positive weight; a t-secant has weight
    exactly t; everything else is long.  s_min (minimal s with a long
    line of weight s*p + t) is reported only when B is a t (mod p) set
    with respect to lines, since s is meaningful only there.
    """
    space = B.space
    p = space.field.p
    w = B.weights
    classes = []
    weights = []
    h1 = h2 = 0
    long_min = None
    for pts in space.incidence(1):
        lw = sum(w[i] for i in pts)
        weights.append(lw)
        if lw == t:
            classes.append(T_SECANT)
        elif all(w[i] > 0 for i in pts):
            classes.append(FULL)
            h1 += 1
        else:
            classes.append(LONG)
            h2 += 1
            if long_min is None or lw < long_min:
                long_min = lw
    s_min = None
    if long_min is not None and all((lw - t) % p == 0 for lw in weights):
        s_min = (long_min - t) // p
    outer = [i for i, wi in enumerate(w) if wi == 0]
    return SecantClassification(t=t, p=p, classes=classes, h1=h1, h2=h2,
                                s_min=s_min, outer_points=outer, line_weights=weights)


# -- bounds and constructions -------------------------------------------

def folklore_bound_margin(B: WeightedPointSet, t: int, k: int) -> int:
    """Margin |B| - t*theta(n-k) of the folklore lower bound; requires t <= q."""
    if t > B.space.q:
        raise BlockingError(f"t = {t} > q = {B.space.q}: the folklore bound may fail")
    _require_blocking(B, t, k)
    margin = B.size - t * theta(B.space.n - k, B.space.q)
    return margin


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


def construct_qplus1_fold(space: ProjectiveSpace, k: int) -> WeightedPointSet:
    """An (n-k+1)-space with weight one: a (q+1)-fold blocking set with
    respect to k-spaces, of size theta(n-k+1) < (q+1)*theta(n-k)."""
    if k < 1 or k > space.n - 1:
        raise BlockingError(f"k = {k} out of range")
    return construct_union(space, [(space.coordinate_subspace(range(space.n - k + 2)), 1)])


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
# entries of the dense k-space/point incidence matrix that the elimination
# may take on: PG(2,17) with k = 1 has 94249 and takes seconds
MATRIX_ENTRY_LIMIT = 10**5
# cosets per chunk of the coset walk: bounds a lane integer to 4 KiB
_COSET_CHUNK = 1 << 12


@dataclass
class TModPEnumeration:
    sets: list
    kernel_dim: int
    num_solution_classes: int
    exhaustive: bool
    # always 0: nothing in the library reads it; kept only because the
    # benchmark's tracing does
    sampled: int = 0


def _lanes(data: bytes, width: int) -> int:
    """data as an int with one little-endian lane of `width` bytes per byte."""
    wide = bytearray(width * len(data))
    wide[::width] = data
    return int.from_bytes(wide, "little")


def enumerate_t_mod_p_sets(space: ProjectiveSpace, k: int, t: int, max_size: int,
                           weight_cap: int | None = None) -> TModPEnumeration:
    """All weight functions w with 0 <= w <= weight_cap pointwise,
    sum(w) <= max_size, and every k-space weight congruent to t mod p.

    The solutions form a coset of the kernel of the k-space/point
    incidence matrix over GF(p).  Every coset of that kernel is walked when
    there are at most COSET_LIMIT of them; past it none is, and the result
    lists no sets with exhaustive=False.  The walk holds residues in byte
    lanes: BlockingError unless the field is prime with p < 256, max_size
    is an int >= 0 and weight_cap one in [0, p - 1], and unless the
    incidence matrix has at most MATRIX_ENTRY_LIMIT entries.
    """
    p = space.field.p
    if space.field.h != 1 or p >= 256:
        raise BlockingError(f"mod-p enumeration needs p < 256 and a prime field, not GF({space.q})")
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
    rows = [[S.mask >> i & 1 for i in range(npts)] for S in space.subspaces(k)]
    solved = solve_mod_p(rows, [t] * len(rows), p)
    if solved is None:
        return TModPEnumeration([], 0, 0, True)
    particular, kernel = solved
    kdim = len(kernel)
    total = p**kdim
    if total > COSET_LIMIT:
        return TModPEnumeration([], kdim, total, False)
    # Column-major walk: a chunk of L cosets is one column of L coefficient
    # bytes per kernel vector, and an int holds one byte lane per coset.
    # Chunks hold p^m cosets in product order: the last m columns run
    # through GF(p)^m, the others are constant.  Point i of every coset is
    # particular[i] plus, per kernel vector v with v[i] != 0, v's column put
    # through a c*v[i] mod p table, reduced by one translate at the end.
    # That sum of kdim + 1 residues fits a byte: COSET_LIMIT bounds it by 96
    # for p <= 17, and MATRIX_ENTRY_LIMIT leaves only kdim = 0 above 17.
    if (kdim + 1) * (p - 1) > 255:
        raise BlockingError(f"{kdim + 1} residues mod {p} overflow a byte lane")
    m = 0
    while m < kdim and p ** (m + 1) <= _COSET_CHUNK:
        m += 1
    L = p**m
    inner = bytes(itertools.chain.from_iterable(itertools.product(range(p), repeat=m)))
    inner_columns = [inner[j::m] for j in range(m)]
    modp = bytes(x % p for x in range(256))
    times = [bytes(c * x % p for c in range(256)) for x in range(p)]
    terms = [[(j, v[i]) for j, v in enumerate(kernel) if v[i]] for i in range(npts)]
    ones = int.from_bytes(b"\x01" * L, "little")
    # sizes go in lanes whose top bit is clear; adding `bias` sets it iff
    # the size exceeds max_size
    size_width = (npts * (p - 1)).bit_length() // 8 + 1
    bias = (1 << 8 * size_width - 1) - 1 - min(max_size, npts * (p - 1))
    size_ones = _lanes(b"\x01" * L, size_width)
    high = size_ones << 8 * size_width - 1

    found = []
    for head in itertools.product(range(p), repeat=kdim - m):
        columns = [bytes([c]) * L for c in head] + inner_columns
        table = [{x: int.from_bytes(col.translate(times[x]), "little") for x in set(v) - {0}}
                 for col, v in zip(columns, kernel)]
        residues = [sum((table[j][x] for j, x in point_terms), base * ones)
                    .to_bytes(L, "little").translate(modp)
                    for base, point_terms in zip(particular, terms)]
        sizes = sum((_lanes(r, size_width) for r in residues), bias * size_ones)
        keep = ((sizes & high) ^ high).to_bytes(size_width * L, "little")
        # only cosets within max_size are read back, point by point
        stack = b"".join(residues)
        for c in itertools.compress(range(L), keep[size_width - 1::size_width]):
            w = stack[c::L]
            if max(w) <= weight_cap:
                found.append(w)
    # bytes sort as the weight tuples do
    sets = [WeightedPointSet(space, list(w)) for w in sorted(found)]
    return TModPEnumeration(sets, kdim, total, True)
