"""Points, subspaces and incidence in PG(n,q).

Points are normalized homogeneous coordinate tuples (first nonzero
coordinate equals 1) in lexicographic order of their integer-encoded
coordinates; the position in that order is the point index.  Subspaces
carry a canonical reduced-row-echelon basis and a bitmask over point
indices, which makes incidence tests O(1) on Python big ints.

A span of vectors is one mask of vector indices, and every mask is
built by whole-mask moves: adding a vector to every index of a mask is
one shift for the coordinates where they are all 0, then one wrap move
per nonzero base-p digit of the others.  The span of the rows below a
basis's first row is built from the last row up, each row added as its
GF(p)-multiples by a GF(p)-basis of GF(q); the basis's mask is that
span moved by its first row.  No level is built from another, and no
vector is walked one by one.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import stat

from .fields import MAX_Q, GF, FieldError, factor_prime_power, field_for_order

# the points of a space, and the point incidences of a level's point lists
DEFAULT_MAX_POINTS = 10**6
# theta(n, q) >= 2^(n+1) - 1, so no PG(n,q) of a larger dimension has at
# most DEFAULT_MAX_POINTS points
MAX_N = DEFAULT_MAX_POINTS.bit_length() - 1
# the bits of the masks of one level, or of a hypergraph file's edges,
# about 12 MB
DEFAULT_MAX_MASK_BITS = 10**8


class GeometryError(ValueError):
    pass


def theta(k: int, q: int) -> int:
    """Number of points of a k-dimensional projective space of order q."""
    if k < 0:
        return 0
    return (q ** (k + 1) - 1) // (q - 1)


def level_gate(n: int, m: int, q: int) -> None:
    """GeometryError unless the m-spaces of PG(n,q) may be built as masks,
    decided by types and counts alone, before any field is built (GF(65536)
    alone takes seconds).  The one gate of every space and level build and
    of recheck, which tests in this order: n, m and q are ints and not
    bools (True == 1 and 2.0 == 2 would pass every later test), n >= 1,
    q >= 2, q <= MAX_Q and theta(n, q) <= DEFAULT_MAX_POINTS (n is compared
    with MAX_N before any power is taken), 0 <= m <= n, and the masks, up
    to theta(n, q) bits each, at most DEFAULT_MAX_MASK_BITS bits; the lists
    have incidence_gate.  level_gate(n, n, q) is the gate of PG(n,q), its
    own one n-space.  Whether q is a prime power is factor_prime_power's."""
    if not all_ints((n, m, q)):
        raise GeometryError(f"(n, m, q) = ({n!r}, {m!r}, {q!r}) are not all integers")
    if n < 1:
        raise GeometryError(f"projective dimension n = {n} must be >= 1")
    if q < 2:
        raise GeometryError(f"q = {q} is not a prime power")
    if q > MAX_Q or n > MAX_N or theta(n, q) > DEFAULT_MAX_POINTS:
        raise GeometryError(f"PG({n},{q}) exceeds the limits q <= {MAX_Q} and "
                            f"{DEFAULT_MAX_POINTS} points")
    if not 0 <= m <= n:
        raise GeometryError(f"m = {m} out of range for PG({n},{q})")
    bits = count_subspaces(n, m, q) * theta(n, q)
    if bits > DEFAULT_MAX_MASK_BITS:
        raise GeometryError(f"the masks of the {m}-spaces of PG({n},{q}) may need {bits} "
                            f"bits, more than the limit {DEFAULT_MAX_MASK_BITS}")


def incidence_gate(n: int, m: int, q: int) -> None:
    """level_gate's refusals, then GeometryError past DEFAULT_MAX_POINTS
    point incidences: the gate of Hypergraph.edge_points, the point lists
    of exact_tau and the export, which needs no field, space or mask.
    exact_ucn reads masks only but asks it too, on a validated H(n,k,q):
    its search has no time budget, and past the gate a node takes about 2
    ms on the planes of PG(3,17) and 4 ms on those of PG(3,19) (2 vCPUs),
    7 and 14 minutes to the node ceiling."""
    level_gate(n, m, q)
    incidences = count_subspaces(n, m, q) * theta(m, q)
    if incidences > DEFAULT_MAX_POINTS:
        raise GeometryError(f"the {m}-spaces of PG({n},{q}) have {incidences} point "
                            f"incidences, more than the limit {DEFAULT_MAX_POINTS}")


def count_subspaces(n: int, m: int, q: int) -> int:
    """Number of m-spaces of PG(n,q) (a Gaussian binomial coefficient)."""
    if m < 0 or m > n:
        raise GeometryError(f"m = {m} out of range for PG({n},{q})")
    num, den = 1, 1
    for i in range(m + 1):
        num *= q ** (n + 1 - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _normalized_vectors(r: int, q: int) -> list:
    """Vectors of length r over range(q) whose first nonzero entry is 1."""
    return [(0,) * lead + (1,) + tail for lead in range(r)
            for tail in itertools.product(range(q), repeat=r - 1 - lead)]


def mask_bits(mask: int) -> list:
    """Indices of the set bits of a point mask, in increasing order.  The
    bits are cleared from the top, so each step works on a shorter int."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


# per bit b, the byte v becomes b"1" when bit b of v is set, else b"0"
_DIGITS = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]


def mask_columns(masks, num_points: int):
    """Per point, in index order, the digits of the list masks, the last
    first, b"1" where the mask holds the point (none when masks is empty):
    int(digits, 2) has bit j set iff masks[j] does.  The masks are the rows
    of a byte matrix, read by strided slices, and a translate per bit."""
    width = (num_points + 7) // 8
    matrix = bytearray()
    for m in reversed(masks):
        matrix += m.to_bytes(width, "little")
    for c in range(width):
        column = matrix[c::width]
        for b in range(min(8, num_points - 8 * c)):
            yield column.translate(_DIGITS[b])


def all_ints(values) -> bool:
    """True iff every value is an int and not a bool: the rule for a JSON
    list of ints, as True == 1 and 2.0 == 2 pass every comparison."""
    return set(map(type, values)) <= {int}


def point_set(points, num_points: int) -> set:
    """The set of a listed point set, which must be a list of distinct int
    point indices in [0, num_points); GeometryError otherwise."""
    if not isinstance(points, (list, tuple)):
        raise GeometryError(f"a point set is a list of point indices, not {points!r}")
    if not all(type(i) is int and 0 <= i < num_points for i in points):
        raise GeometryError(f"a listed point is not a point index in [0, {num_points})")
    pts = set(points)
    if len(pts) != len(points):
        raise GeometryError("a point is listed twice")
    return pts


class Subspace(collections.namedtuple("Subspace", "dim basis mask")):
    """An m-space: its dimension, its RREF rows, each a coordinate tuple (()
    for the empty space), and its point mask.  A tuple, so subspaces(m)
    makes a whole level's records in one C call, with no Python __init__
    per record; immutable and hashable, equal to (dim, basis, mask)."""

    __slots__ = ()

    def point_indices(self):
        return mask_bits(self.mask)


EMPTY_SUBSPACE = Subspace(-1, (), 0)


class Hypergraph(collections.namedtuple("Hypergraph", "num_vertices edges params",
                                         defaults=(None,))):
    """Vertices 0..num_vertices-1, edges as point-index bitmasks (its one
    incidence structure), and params (n, k, q) when geometric.  `geometry` is
    cached in the instance dict; hash and equality are the field tuple's."""

    def edge_points(self) -> list:
        """Per edge, in edge order, its vertex list, built from the masks and
        kept nowhere; a hypergraph with params asks incidence_gate first."""
        if self.params is not None:
            incidence_gate(*self.params)
        return [mask_bits(e) for e in self.edges]

    @functools.cached_property
    def geometry(self) -> tuple | None:
        """(n, k, q) when the edges are exactly the k-spaces of PG(n,q), for
        1 <= k <= n-1, as `params` claims; None otherwise.  This is the one
        check behind every geometric shortcut: claimed parameters that do
        not match the edges get none.  level_gate comes first, its refusal
        read as None in the try that reads the build's, then the hyperedge range
        and the vertex and edge counts, so a false claim of a large space
        builds nothing; the space's own cached hypergraph matches at once,
        and any other is compared with it edge by edge, in any edge order."""
        if self.params is None:
            return None
        n, k, q = self.params
        try:
            level_gate(n, k, q)
            if not 1 <= k <= n - 1 or self.num_vertices != theta(n, q) \
                    or len(self.edges) != count_subspaces(n, k, q):
                return None
            H = ProjectiveSpace.of_order(n, q).hypergraph(k)
        except (FieldError, GeometryError):
            return None
        same = H is self or len(H.edges) == len(self.edges) and set(H.edges) == set(self.edges)
        return self.params if same else None

    def to_json(self) -> dict:
        data = {"edges": self.edge_points()}
        if self.params is not None:
            n, k, q = self.params
            data.update({"n": n, "k": k, "q": q})
        else:
            data["num_vertices"] = self.num_vertices
        return data

    @classmethod
    def from_json(cls, data) -> "Hypergraph":
        """A hypergraph from its JSON form, with its edges in file order.
        Claimed parameters (n, k, q) meet level_gate's refusals first, for
        their types and ranges and the level's limits, and are then checked
        by `geometry`, which compares the counts before it builds PG(n,q):
        the edges, in any order, must be the k-spaces of PG(n,q).  Before
        any mask is built, the bits that the masks need, the sum over the
        edges of the largest index plus one, are compared with
        DEFAULT_MAX_MASK_BITS."""
        edge_lists = data.get("edges") if isinstance(data, dict) else None
        if not isinstance(edge_lists, (list, tuple)) or not all(
                isinstance(e, (list, tuple)) for e in edge_lists):
            raise GeometryError("a hypergraph is a JSON object whose 'edges' "
                                "is a list of vertex index lists")
        if "n" in data:
            n, k, q = params = tuple(data.get(key) for key in ("n", "k", "q"))
            level_gate(n, k, q)
            num = theta(n, q)
        else:
            num, params = data.get("num_vertices"), None
            if type(num) is not int or not 0 <= num <= DEFAULT_MAX_POINTS:
                raise GeometryError(f"num_vertices {num!r} is not an integer "
                                    f"in [0, {DEFAULT_MAX_POINTS}]")
        for i in itertools.chain.from_iterable(edge_lists):
            if type(i) is not int or not 0 <= i < num:
                raise GeometryError(f"edge index {i!r} is not a vertex in [0, {num})")
        # an edge's mask has as many bits as its largest index plus one
        bits = sum(max(e, default=-1) + 1 for e in edge_lists)
        if bits > DEFAULT_MAX_MASK_BITS:
            raise GeometryError(f"the edge masks need {bits} bits, more than the limit "
                                f"{DEFAULT_MAX_MASK_BITS}")
        H = cls(num, tuple(sum(1 << i for i in set(e)) for e in edge_lists), params)
        if params is not None and H.geometry is None:
            raise GeometryError(f"the edges are not the {k}-spaces of PG({n},{q})")
        return H


# the spaces of ProjectiveSpace.of_order, by (n, q), both ints
_SPACES: dict[tuple, "ProjectiveSpace"] = {}


class ProjectiveSpace:
    """PG(n,q) with its points and levels cached, each level's masks its one
    incidence structure.  The constructor asks level_gate(n, n, q) and
    builds no point: the points and point_index are built at their first
    use, by a level, a span or a projection, and kept."""

    def __init__(self, n: int, field: GF):
        level_gate(n, n, field.q)
        self.n = n
        self.field = field
        self.num_points = theta(n, field.q)
        self._place = [field.q ** (n - j) for j in range(n + 1)]
        self._levels: dict[int, tuple] = {}
        self._wrap_masks: dict[tuple, int] = {}

    @functools.cached_property
    def points(self) -> tuple:
        return tuple(sorted(_normalized_vectors(self.n + 1, self.q)))

    @functools.cached_property
    def point_index(self) -> dict:
        return {pt: i for i, pt in enumerate(self.points)}

    @property
    def q(self) -> int:
        return self.field.q

    @classmethod
    def of_order(cls, n: int, q: int) -> "ProjectiveSpace":
        """PG(n,q), shared: every call with the same int n and q returns the
        same space, so its points and levels are built once per process.  A
        space not yet kept meets factor_prime_power(q), then level_gate(n, n,
        q), before its field is built, so any other n or q, a bool too, gets
        their refusal and is never kept."""
        space = _SPACES.get((n, q)) if type(n) is int and type(q) is int else None
        if space is None:
            factor_prime_power(q)
            level_gate(n, n, q)
            space = _SPACES[n, q] = cls(n, field_for_order(q))
        return space

    # -- linear algebra -------------------------------------------------

    def rref(self, rows):
        """Reduced row echelon form of a list of coordinate vectors."""
        return self.field.row_reduce(rows, self.n + 1)[0]

    def mask_for_basis(self, basis) -> int:
        """Bitmask of the points spanned by an RREF basis, by _masks.  Any
        other basis raises GeometryError: its sums would not be normalized."""
        leads = [next((j for j, x in enumerate(row) if x), None) for row in basis]
        if None in leads or leads != sorted(set(leads)) or any(
                row[j] != (i == r) for i, row in enumerate(basis) for r, j in enumerate(leads)):
            raise GeometryError(f"{basis!r} is not a reduced row echelon basis")
        return self._masks([basis])[0] if basis else 0

    def _masks(self, bases):
        """Masks of nonempty RREF bases.  The points of a basis are its first
        row b plus every vector w of the span of the rows below b, 0
        included, and the points of that span; the RREF form keeps all
        these sums normalized.  For a line (b0, b1) they are b1, b0 and
        b0 + c*b1 for c != 0.

        A span is one mask of vector indices: w sits at slot
        sum(w[j] * q^(n-j)), its coordinates read in base q, whose digits
        are the base-p digits of the coordinates over GF(p^h).  The bases
        are grouped by their rows below b, and each suffix of those rows
        gets its span, its point mask and its columns (where some row is
        nonzero, so that every slot of the span is 0 elsewhere) once, from
        the last row up, each from the suffix below it.  Putting a row r on
        top of a suffix adds to its points its span moved by r, as a basis
        moves it (_lifted); the new span is the old one with each multiple
        x^i * r, i < h, added p - 1 times (_moved).  The x^i, the elements
        p^i, are a basis of GF(q) over GF(p), so these sums reach every
        c*r + w.  At r's pivot every slot of the span is 0, and the
        multiple x^i adds 1 to a digit that the earlier additions of x^i
        left below p - 1, so that move is a plain shift.  Each basis's mask
        is then the points of its rows below b and their span moved by b."""
        p, h, mul, place = self.field.p, self.field.h, self.field.mul, self._place
        groups = {}
        for pos, B in enumerate(bases):
            groups.setdefault(B[1:], []).append(pos)
        # a suffix of rows -> (its span as a mask of slots, its point mask,
        # its columns)
        spans = {(): (1, 0, ())}
        masks = [0] * len(bases)
        for rows, positions in groups.items():
            for i in range(len(rows) - 1, -1, -1):
                if rows[i:] in spans:
                    continue
                row, below = rows[i], rows[i + 1:]
                span, points, columns = spans[below]
                points |= self._lifted(span, row, columns)
                pivot = row.index(1)
                later = [j for j in range(pivot + 1, self.n + 1) if row[j]]
                for d in range(h):
                    # x^d * r, x^d being the element p**d
                    step = tuple(mul(p**d, a) for a in row) if d else row
                    layer = span
                    for _ in range(p - 1):
                        layer = self._moved(layer, step, later)[0] << p**d * place[pivot]
                        span |= layer
                spans[rows[i:]] = span, points, sorted({pivot, *later, *columns})
            span, points, columns = spans[rows]
            for pos in positions:
                masks[pos] = points | self._lifted(span, bases[pos][0], columns)
        return masks

    def _lifted(self, span, row, columns) -> int:
        """The mask of the points row + w, for the vectors w of span, which
        are 0 outside the given columns, and at and before the pivot of
        row.  Row's coordinates in the other columns are one shift, to the
        index of row; those in the given columns are moved by _moved."""
        span, tail = self._moved(span, row, columns)
        return span << self.point_index[row] - tail

    def _moved(self, M, row, columns) -> tuple:
        """(M with the coordinates of row in the given columns added to
        every slot of it, those coordinates read in base q), for a mask M
        of slots.  Adding a nonzero digit x at place P adds x mod p to that
        digit of every slot: the slots whose digit is below p - x
        (_wrap_mask) move up by x*P, the others down by (p - x)*P."""
        p, place, wraps = self.field.p, self._place, self._wrap_masks
        tail = 0
        for j in columns:
            a, P = row[j], place[j]
            tail += a * P
            while a:
                a, x = divmod(a, p)
                if x:
                    L = wraps.get((P, x))
                    if L is None:
                        L = self._wrap_mask(P, x)
                    low = M & L
                    M = low << x * P | (M ^ low) >> (p - x) * P
                P *= p
        return M, tail

    def _wrap_mask(self, P, x) -> int:
        """The slots below q^n, the width of every span mask, whose base-p
        digit at place P is below p - x: the slots that adding x to that
        digit moves up.  Built on the first miss of _moved's lookup and
        kept in _wrap_masks as a plain int."""
        p, width = self.field.p, self.q ** self.n
        L, period = (1 << (p - x) * P) - 1, p * P
        while period < width:
            L |= L << period
            period *= 2
        L = self._wrap_masks[P, x] = L & (1 << width) - 1
        return L

    def subspace_from_basis(self, basis) -> Subspace:
        if not basis:
            return EMPTY_SUBSPACE
        return Subspace(len(basis) - 1, basis, self.mask_for_basis(basis))

    # -- subspace enumeration -------------------------------------------

    def subspaces(self, m: int):
        """All m-spaces in canonical order (sorted by basis), cached, as
        _level builds them: no other level is built."""
        return self._level(m)[0]

    def _level(self, m: int) -> tuple:
        """(the m-spaces' records, the hypergraph of the points and those
        m-spaces in that order): the one reader and writer of _levels.  The
        cache answers an int m only (True and 1.0 find level 1's key); any
        other m, and a level not yet cached, meets level_gate first, then
        GeometryError unless the count is right and every mask, by _masks
        from the bases alone, has theta(m) points, checked on the plain
        lists; a refused level caches nothing.  The records are made in one
        C call, with no Python code per record, the hypergraph from the masks."""
        level = self._levels.get(m) if type(m) is int else None
        if level is not None:
            return level
        level_gate(self.n, m, self.q)
        total = count_subspaces(self.n, m, self.q)
        if m == 0:
            bases = list(zip(self.points))
            masks = [1 << i for i in range(len(bases))]
        else:
            bases = sorted(self._enumerate_rref_bases(m + 1))
            masks = self._masks(bases)
        if len(bases) != total:
            raise GeometryError(f"enumerated {len(bases)} {m}-spaces of PG({self.n},{self.q}), "
                                f"expected {total}")
        size = theta(m, self.q)
        if set(map(int.bit_count, masks)) != {size}:
            raise GeometryError(f"an enumerated {m}-space of PG({self.n},{self.q}) "
                                f"does not have {size} points")
        subs = tuple(map(tuple.__new__, itertools.repeat(Subspace),
                         zip(itertools.repeat(m), bases, masks)))
        self._levels[m] = subs, Hypergraph(self.num_points, tuple(masks), (self.n, m, self.q))
        return self._levels[m]

    def _enumerate_rref_bases(self, nrows: int):
        """All RREF matrices with nrows pivots over n+1 columns, as products
        over per-pivot row lists.  The list for pivot c holds the points
        with their leading 1 in column c and 0 in the later pivot columns;
        their indices are theta(n-c-1) plus their free coordinates read in
        base q.  Each row is that point's tuple in self.points, so the
        bases of all levels share their rows and none is copied."""
        n, q, points, place = self.n, self.q, self.points, self._place
        out = []
        for pivots in itertools.combinations(range(n + 1), nrows):
            lists = []
            for i, c in enumerate(pivots):
                indices = [theta(n - c - 1, q)]
                for j in range(c + 1, n + 1):
                    if j not in pivots[i + 1:]:
                        indices = [k + v * place[j] for k in indices for v in range(q)]
                lists.append([points[k] for k in indices])
            out.extend(itertools.product(*lists))
        return out

    # -- lattice operations ---------------------------------------------

    def span(self, *subspaces_or_points) -> Subspace:
        rows = []
        for obj in subspaces_or_points:
            if isinstance(obj, Subspace):
                rows.extend(obj.basis)
            else:
                rows.append(self.points[obj])
        if not rows:
            raise GeometryError("span of nothing")
        return self.subspace_from_basis(self.rref(rows))

    def disjoint_subspaces(self, m: int, t: int):
        """t pairwise disjoint m-spaces, spans of disjoint blocks of unit vectors."""
        if t * (m + 1) > self.n + 1:
            raise GeometryError(
                f"no {t} pairwise disjoint {m}-spaces fit in PG({self.n},{self.q}): "
                f"{t}*({m}+1) > {self.n}+1")
        units = [tuple(int(j == c) for j in range(self.n + 1)) for c in range(t * (m + 1))]
        return [self.subspace_from_basis(tuple(units[b * (m + 1):(b + 1) * (m + 1)]))
                for b in range(t)]

    # -- projection -----------------------------------------------------

    def hyperplane_avoiding(self, point: int) -> Subspace:
        """First enumerated hyperplane not through the given point."""
        for H in self.subspaces(self.n - 1):
            if not H.mask >> point & 1:
                return H
        raise GeometryError("no hyperplane avoids the point")  # unreachable

    def project_from_point(self, center: int, H: Subspace, weights):
        """Project a weight function from a point into a hyperplane.

        Each point X != center maps to line(center, X) & H; weights add.
        """
        if H.dim != self.n - 1:
            raise GeometryError("projection target must be a hyperplane")
        if H.mask >> center & 1:
            raise GeometryError("projection center lies in the target hyperplane")
        out = [0] * self.num_points
        for x, w in enumerate(weights):
            if w == 0:
                continue
            if x == center:
                raise GeometryError("projection center carries positive weight")
            img = self.span(center, x).mask & H.mask
            out[img.bit_length() - 1] += w
        return out

    # -- hypergraph -----------------------------------------------------

    def hypergraph(self, k: int) -> Hypergraph:
        """H(n,k,q): points as vertices, k-spaces as hyperedges; cached."""
        if type(k) is not int or not 1 <= k <= self.n - 1:
            raise GeometryError(f"k = {k!r} is not an integer in [1, {self.n - 1}] "
                                f"for hyperedges of PG({self.n},{self.q})")
        return self._level(k)[1]

    # -- exhaustive consistency checks ----------------------------------

    def verify_pencil_identity(self, k: int) -> bool:
        """Every k-space lies in exactly theta(n-k-1) many (k+1)-spaces.

        Verified exhaustively, reading every bit of every mask of both levels;
        a bit at or past num_points in either, or a mask without theta(k) or
        theta(k+1) points, gives False.  At k = n-1 that leaves each
        (k+1)-space all points, so the identity holds iff there is one.
        Otherwise mask_columns marks, per point, the (k+1)-spaces through it
        with '1' and the others with '0'.  At k = 0 the count of '1' is that
        point's number of lines, the check itself.  For k >= 1 a base-2
        parse makes it the point's mask over the indices
        of the (k+1)-spaces, and the AND of these masks over the points of a
        k-space marks the (k+1)-spaces that contain it; the k-space's mask
        is walked in place, clearing its top bit at each step, with no list
        of its points.  Counts and masks are dropped on return; no level
        caches them.
        """
        q, num = self.q, self.num_points
        target = theta(self.n - k - 1, q)
        lowers, uppers = self.subspaces(k), self.subspaces(k + 1)
        for level, size in ((lowers, theta(k, q)), (uppers, theta(k + 1, q))):
            masks = [X.mask for X in level]
            if max(masks, default=0) >> num or set(map(int.bit_count, masks)) != {size}:
                return False
        del masks  # not kept through the transpose, the peak of the call
        if k == self.n - 1:
            return len(uppers) == 1
        # per point, its (k+1)-spaces: their count at k = 0, else their mask
        through = [bits.count(49) if k == 0 else int(bits, 2)
                   for bits in mask_columns([U.mask for U in uppers], num)]
        if k == 0:
            # each 0-space was found to have one bit in its mask, its point
            return all(through[S.mask.bit_length() - 1] == target for S in lowers)
        for S in lowers:
            common, m = -1, S.mask
            while m:
                top = m.bit_length() - 1
                common &= through[top]
                m ^= 1 << top
            if common.bit_count() != target:
                return False
        return True

    def __repr__(self):
        return f"PG({self.n},{self.q})"


def hypergraph_to_file(h: Hypergraph, path: str) -> None:
    write_text(path, canonical_json(h.to_json()))


# one encoder for every call; check_circular=False drops the id() bookkeeping
# of each container, so a payload that holds itself raises RecursionError
# where json.dumps raises ValueError
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                      check_circular=False)


def canonical_json(payload) -> str:
    """The canonical JSON text of payload: sorted keys, no spaces, ASCII
    only; the bytes of json.dumps(payload, sort_keys=True,
    separators=(",", ":")), for every file and output line.  TypeError for
    a value that is not JSON or a dict whose keys cannot be sorted,
    RecursionError for one nested too deep or holding itself."""
    return _CANONICAL_ENCODER.encode(payload)


def write_text(path: str, text: str) -> None:
    """Write text, UTF-8 encoded, as the whole content of the file at path.
    Every file of the library and of the command line is written through
    here.  An existing regular file is overwritten in place and then cut
    to the new length, never first truncated to 0 bytes: on ext4 that
    truncation, with the flush it schedules at close, costs 0.1-0.3 ms a
    rewrite.  Any other destination, such as /dev/null, a pipe or a
    terminal, takes the bytes as they come and is not cut.  A directory
    or an unwritable path raises OSError.  A write that fails part way
    still cuts a regular file to the bytes it wrote, so the file is a
    prefix of the new text and holds none of the old.  With no truncation
    to 0 bytes, ext4 does not flush a rewritten file at close, so after a
    crash a rewrite is less likely to be on disk than one through a
    truncating open."""
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            if regular:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def load_json(path: str):
    """The JSON value in the file at path.  Every input file of the library
    and of the command line is read through here, so one nested too deeply
    to parse raises ValueError, as other malformed JSON does, and never
    RecursionError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def hypergraph_from_file(path: str) -> Hypergraph:
    return Hypergraph.from_json(load_json(path))
