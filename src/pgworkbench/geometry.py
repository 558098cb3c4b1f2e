"""Points, subspaces and incidence in PG(n,q).

Points are normalized homogeneous coordinate tuples (first nonzero
coordinate equals 1) in lexicographic order of their integer-encoded
coordinates; the position in that order is the point index.  Subspaces
carry a canonical reduced-row-echelon basis and a bitmask over point
indices, which makes incidence tests O(1) on Python big ints.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from .fields import GF, field_for_order

DEFAULT_MAX_POINTS = 10**6
DEFAULT_MAX_SUBSPACES = 5 * 10**6


class GeometryError(ValueError):
    pass


def theta(k: int, q: int) -> int:
    """Number of points of a k-dimensional projective space of order q."""
    if k < 0:
        return 0
    return (q ** (k + 1) - 1) // (q - 1)


def count_subspaces(n: int, m: int, q: int) -> int:
    """Number of m-spaces of PG(n,q) (a Gaussian binomial coefficient)."""
    if m < 0 or m > n:
        raise GeometryError(f"m = {m} out of range for PG({n},q)")
    num, den = 1, 1
    for i in range(m + 1):
        num *= q ** (n + 1 - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def mask_bits(mask: int) -> list:
    """Indices of the set bits of a point mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Subspace:
    dim: int
    basis: tuple  # RREF rows, each a coordinate tuple; () for the empty space
    mask: int

    def point_indices(self):
        return mask_bits(self.mask)


EMPTY_SUBSPACE = Subspace(-1, (), 0)


@dataclass(frozen=True)
class Hypergraph:
    """Vertices 0..num_vertices-1, edges as point-index bitmasks."""

    num_vertices: int
    edges: tuple
    params: tuple | None = None  # (n, k, q) when geometric

    def edge_index_lists(self):
        return [mask_bits(e) for e in self.edges]

    def to_json(self) -> dict:
        data = {"edges": self.edge_index_lists()}
        if self.params is not None:
            n, k, q = self.params
            data.update({"n": n, "k": k, "q": q})
        else:
            data["num_vertices"] = self.num_vertices
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Hypergraph":
        """A hypergraph from its JSON form.  Claimed parameters (n, k, q)
        are checked: the edges, in any order, must be the k-spaces of
        PG(n,q), since solvers apply the geometric bounds of H(n,k,q)."""
        if "n" in data:
            n, k, q = data["n"], data["k"], data["q"]
            if not all(type(x) is int for x in (n, k, q)):
                raise GeometryError(f"(n, k, q) = {(n, k, q)!r} are not all integers")
            space = ProjectiveSpace.of_order(n, q)
            num = space.num_points
            params = (n, k, q)
        else:
            num = data["num_vertices"]
            params = None
        for i in itertools.chain.from_iterable(data["edges"]):
            if type(i) is not int or not 0 <= i < num:
                raise GeometryError(f"edge index {i!r} is not a vertex in [0, {num})")
        edges = tuple(sum(1 << i for i in set(e)) for e in data["edges"])
        if params is not None and sorted(edges) != sorted(space.hypergraph(k).edges):
            raise GeometryError(f"the edges are not the {k}-spaces of PG({n},{q})")
        return cls(num, edges, params)


class ProjectiveSpace:
    """PG(n,q) with cached point, subspace and incidence enumerations."""

    def __init__(self, n: int, field: GF, max_points: int = DEFAULT_MAX_POINTS,
                 max_subspaces: int = DEFAULT_MAX_SUBSPACES):
        if n < 1:
            raise GeometryError(f"projective dimension n = {n} must be >= 1")
        self.n = n
        self.field = field
        self.max_subspaces = max_subspaces
        if theta(n, field.q) > max_points:
            raise GeometryError(
                f"PG({n},{field.q}) has {theta(n, field.q)} points, "
                f"exceeding the limit {max_points}")
        self.points = self._enumerate_points()
        self.point_index = {pt: i for i, pt in enumerate(self.points)}
        self._subspace_cache: dict[int, tuple] = {}
        self._incidence_cache: dict[int, tuple] = {}
        self._point_subspace_cache: dict[int, tuple] = {}
        self._coeff_cache: dict[int, list] = {}

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def num_points(self) -> int:
        return len(self.points)

    @classmethod
    @functools.cache
    def of_order(cls, n: int, q: int, **kwargs) -> "ProjectiveSpace":
        """PG(n,q), shared: every call with the same arguments returns the
        same space, so its point, subspace and incidence caches are built
        once per process."""
        return cls(n, field_for_order(q), **kwargs)

    # -- points ---------------------------------------------------------

    def _enumerate_points(self):
        n, q = self.n, self.q
        pts = []
        for lead in range(n + 1):
            for tail in itertools.product(range(q), repeat=n - lead):
                pts.append((0,) * lead + (1,) + tail)
        pts.sort()
        return tuple(pts)

    def normalize(self, vec):
        """Scale a nonzero vector so its first nonzero coordinate is 1."""
        f = self.field
        for c in vec:
            if c:
                if c == 1:
                    return tuple(vec)
                s = f.inv(c)
                return tuple(f.mul(s, x) for x in vec)
        raise GeometryError("cannot normalize the zero vector")

    # -- linear algebra -------------------------------------------------

    def rref(self, rows):
        """Reduced row echelon form of a list of coordinate vectors."""
        return self.field.row_reduce(rows, self.n + 1)[0]

    def _proj_coeffs(self, r: int):
        """Normalized coefficient vectors of length r (first nonzero = 1)."""
        cached = self._coeff_cache.get(r)
        if cached is None:
            q = self.q
            cached = []
            for lead in range(r):
                for tail in itertools.product(range(q), repeat=r - 1 - lead):
                    cached.append((0,) * lead + (1,) + tail)
            self._coeff_cache[r] = cached
        return cached

    def mask_for_basis(self, basis) -> int:
        """Bitmask of the points spanned by an RREF basis."""
        f = self.field
        q = self.q
        idx = self.point_index
        add = f.add
        ncols = self.n + 1
        scaled = [[tuple(f.mul(c, x) for x in row) for c in range(q)] for row in basis]
        mask = 0
        for coeffs in self._proj_coeffs(len(basis)):
            vec = None
            for i, c in enumerate(coeffs):
                if not c:
                    continue
                row = scaled[i][c]
                if vec is None:
                    vec = row
                else:
                    vec = tuple(add(a, b) for a, b in zip(vec, row))
            mask |= 1 << idx[vec]
        return mask

    def subspace_from_basis(self, basis) -> Subspace:
        if not basis:
            return EMPTY_SUBSPACE
        return Subspace(len(basis) - 1, basis, self.mask_for_basis(basis))

    # -- subspace enumeration -------------------------------------------

    def subspaces(self, m: int):
        """All m-spaces in canonical order (sorted by basis)."""
        if m < 0 or m > self.n:
            raise GeometryError(f"m = {m} out of range for PG({self.n},{self.q})")
        cached = self._subspace_cache.get(m)
        if cached is not None:
            return cached
        total = count_subspaces(self.n, m, self.q)
        if total > self.max_subspaces:
            raise GeometryError(
                f"PG({self.n},{self.q}) has {total} {m}-spaces, "
                f"exceeding the limit {self.max_subspaces}")
        if m == 0:
            subs = tuple(Subspace(0, (pt,), 1 << i) for i, pt in enumerate(self.points))
        else:
            bases = sorted(self._enumerate_rref_bases(m + 1))
            subs = tuple(Subspace(m, b, self.mask_for_basis(b)) for b in bases)
        if len(subs) != total:
            raise GeometryError(f"enumerated {len(subs)} {m}-spaces of PG({self.n},{self.q}), "
                                f"expected {total}")
        self._subspace_cache[m] = subs
        return subs

    def incidence(self, m: int):
        """Point-index tuples of the m-spaces, in the order of subspaces(m)."""
        cached = self._incidence_cache.get(m)
        if cached is None:
            cached = tuple(tuple(mask_bits(S.mask)) for S in self.subspaces(m))
            self._incidence_cache[m] = cached
        return cached

    def point_subspaces(self, m: int):
        """Per point, the indices into subspaces(m) of the m-spaces through it."""
        cached = self._point_subspace_cache.get(m)
        if cached is None:
            lists = [[] for _ in range(self.num_points)]
            for si, S in enumerate(self.subspaces(m)):
                for i in mask_bits(S.mask):
                    lists[i].append(si)
            cached = tuple(map(tuple, lists))
            self._point_subspace_cache[m] = cached
        return cached

    def _enumerate_rref_bases(self, nrows: int):
        """All RREF matrices with nrows pivots over n+1 columns."""
        ncols = self.n + 1
        q = self.q
        out = []
        for pivots in itertools.combinations(range(ncols), nrows):
            pivset = set(pivots)
            free = [(i, j) for i in range(nrows)
                    for j in range(pivots[i] + 1, ncols) if j not in pivset]
            template = []
            for i in range(nrows):
                row = [0] * ncols
                row[pivots[i]] = 1
                template.append(row)
            for vals in itertools.product(range(q), repeat=len(free)):
                rows = [list(r) for r in template]
                for (i, j), v in zip(free, vals):
                    rows[i][j] = v
                out.append(tuple(tuple(r) for r in rows))
        return out

    # -- lattice operations ---------------------------------------------

    def span_points(self, indices) -> Subspace:
        if not indices:
            raise GeometryError("span of an empty point set")
        basis = self.rref([self.points[i] for i in indices])
        return self.subspace_from_basis(basis)

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

    def meet(self, U: Subspace, V: Subspace) -> Subspace:
        common = U.mask & V.mask
        if common == 0:
            return EMPTY_SUBSPACE
        pts = mask_bits(common)
        basis = self.rref([self.points[i] for i in pts])
        return Subspace(len(basis) - 1, basis, common)

    def incident(self, point: int, U: Subspace) -> bool:
        return bool(U.mask >> point & 1)

    def line_through(self, i: int, j: int) -> Subspace:
        return self.span_points([i, j])

    def subspaces_through(self, U: Subspace, m: int):
        if m <= U.dim:
            raise GeometryError(f"m = {m} must exceed dim U = {U.dim}")
        umask = U.mask
        return [S for S in self.subspaces(m) if S.mask & umask == umask]

    def disjoint_subspaces(self, m: int, t: int):
        """t pairwise disjoint m-spaces from disjoint coordinate blocks."""
        if t * (m + 1) > self.n + 1:
            raise GeometryError(
                f"no {t} pairwise disjoint {m}-spaces fit in PG({self.n},{self.q}): "
                f"{t}*({m}+1) > {self.n}+1")
        out = []
        for b in range(t):
            rows = []
            for i in range(m + 1):
                row = [0] * (self.n + 1)
                row[b * (m + 1) + i] = 1
                rows.append(tuple(row))
            out.append(self.subspace_from_basis(tuple(rows)))
        return out

    # -- projection -----------------------------------------------------

    def hyperplane_avoiding(self, point: int) -> Subspace:
        """First enumerated hyperplane not through the given point."""
        for H in self.subspaces(self.n - 1):
            if not H.mask >> point & 1:
                return H
        raise GeometryError("no hyperplane avoids the point")  # unreachable

    def project_from_point(self, center: int, H: Subspace, weights, strict: bool = True):
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
                if strict:
                    raise GeometryError("projection center carries positive weight")
                continue
            line = self.line_through(center, x)
            img = line.mask & H.mask
            out[img.bit_length() - 1] += w
        return out

    # -- hypergraph -----------------------------------------------------

    def hypergraph(self, k: int) -> Hypergraph:
        """H(n,k,q): points as vertices, k-spaces as hyperedges."""
        if k < 1 or k > self.n - 1:
            raise GeometryError(f"k = {k} out of range for hyperedges of PG({self.n},{self.q})")
        edges = tuple(S.mask for S in self.subspaces(k))
        return Hypergraph(self.num_points, edges, (self.n, k, self.q))

    # -- exhaustive consistency checks ----------------------------------

    def verify_pencil_identity(self, k: int) -> bool:
        """Every k-space lies in exactly theta(n-k-1) many (k+1)-spaces.

        Verified exhaustively: for each k-space, the (k+1)-spaces through
        its first point are tested for containment by mask.
        """
        target = theta(self.n - k - 1, self.q)
        uppers = [U.mask for U in self.subspaces(k + 1)]
        through = self.point_subspaces(k + 1)
        for S in self.subspaces(k):
            m = S.mask
            first = (m & -m).bit_length() - 1
            if sum(1 for j in through[first] if uppers[j] & m == m) != target:
                return False
        return True

    def __repr__(self):
        return f"PG({self.n},{self.q})"


def hypergraph_to_file(h: Hypergraph, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(h.to_json(), fh, sort_keys=True, separators=(",", ":"))


def hypergraph_from_file(path: str) -> Hypergraph:
    with open(path) as fh:
        return Hypergraph.from_json(json.load(fh))
