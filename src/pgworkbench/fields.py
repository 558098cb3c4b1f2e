"""Exact arithmetic in small Galois fields GF(p^h).

Elements are encoded as integers in [0, q): the base-p digits of the
integer are the coefficients of the residue polynomial, lowest degree
first.  For h = 1 this is just the residue in [0, p).  The encoding is
deterministic, so two fields built with the same (p, h) agree element
by element.
"""

from __future__ import annotations

import itertools
import math

MAX_Q = 1 << 16


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    return type(n) is int and n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# -- polynomial helpers over GF(p); coefficient lists, lowest degree first --

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m must be monic
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        coef = a[-1]
        if coef:
            shift = len(a) - 1 - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - coef * m[i]) % p
        a.pop()
    return _poly_trim(a)


def _is_irreducible(m, p):
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    h = len(m) - 1
    if h == 1:
        return True
    for d in range(1, h // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not _poly_mod(m, divisor, p):
                return False
    return True


def smallest_irreducible(p: int, h: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree h over GF(p).

    Coefficients are compared lowest degree first, so the search order is
    itertools.product over (c0, ..., c_{h-1}).
    """
    # for h >= 2 a polynomial with c0 = 0 has the factor X: start at c0 = 1
    for tail in itertools.product(range(h > 1, p), *[range(p)] * (h - 1)):
        cand = list(tail) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise FieldError(f"no irreducible polynomial of degree {h} over GF({p})")


def _poly_pow(a, e, m, p):
    """a^e modulo the monic m over GF(p), by square and multiply."""
    result = [1]
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, a, p), m, p)
        a = _poly_mod(_poly_mul(a, a, p), m, p)
        e >>= 1
    return result


def _powers(p: int, h: int, m, g: int) -> list:
    """g^0, ..., g^(p^h - 2), encoded, for g encoded and m the monic
    modulus of degree h: one multiplication by g per power, no polynomial
    arithmetic.  A power is held spread out, its base-p digit i in the W
    bits from W*i on, so two elements add digit by digit in one integer
    sum with no field past 2p - 2; adding 2^(W-1) - p to every field sets
    its top bit exactly where the sum reached p, and p is taken off there.
    Multiplying by g is GF(p)-linear: it is the sum of the images of the
    low a digits and of the others, each read from a table built from
    the multiples of the columns X^j * g.  A prime field steps by s * g % p."""
    if h == 1:
        out = [1]
        for _ in range(p - 2):
            out.append(out[-1] * g % p)
        return out
    W = p.bit_length() + 1
    ones = sum(1 << W * i for i in range(h))
    lift = ((1 << W - 1) - p) * ones

    def add(u, v):
        s = u + v
        return s - p * (s + lift >> W - 1 & ones)

    # an element is its low a digits plus R times its high h - a digits;
    # chunk[x] is the spread of x < R, and code its inverse
    a = (h + 1) // 2
    R, cut = p**a, W * a
    chunk = [0]
    for i in range(a):
        chunk = [s + (d << W * i) for d in range(p) for s in chunk]
    code = {s: x for x, s in enumerate(chunk)}

    def spread(x):
        return chunk[x % R] + (chunk[x // R] << cut)

    top, col = W * (h - 1), spread(g)
    tables = []
    for width in (a, h - a):
        images = [0]
        for _ in range(width):
            steps = [0]
            for _ in range(p - 1):
                steps.append(add(steps[-1], col))
            images = [add(x, y) for y in steps for x in images]
            # col becomes X * col: one field up, its top digit c folded
            # back as c * X^h = -c * (m_0 + ... + m_(h-1) X^(h-1))
            c = col >> top
            col = add(col - (c << top) << W,
                      spread(sum(-c * x % p * p**i for i, x in enumerate(m[:h]))))
        tables.append(dict(zip(chunk, images)))
    low, high = tables
    mask = (1 << cut) - 1
    s, out = 1, [1]
    for _ in range(p**h - 2):
        # s * g, as add(low image, high image) inlined
        s = low[s & mask] + high[s >> cut]
        s -= p * (s + lift >> W - 1 & ones)
        out.append(code[s & mask] + R * code[s >> cut])
    return out


class GF:
    """The field GF(p^h) with integer-encoded elements.

    Arithmetic runs on O(q) tables over the primitive element g that
    comes first in encoding order: exp (k -> g^k, twice over so
    that exponent sums need no reduction), log (its inverse) and the
    Zech logarithms Z(k) = log(1 + g^k), so that g^i + g^j = g^(i + Z(j - i))
    (Lidl-Niederreiter, Finite Fields, ch. 10).  log(0) is a sentinel
    past every exponent sum, and exp is zero from there on, so a
    product or a Zech sum that involves zero reads 0 from the table.
    A fourth table holds the negatives.  The powers of g are stepped by
    _powers, about 2 us an element for GF(2^16) (0.12 s in all); only the
    search for the modulus and for g runs polynomial arithmetic.
    """

    def __init__(self, p: int, h: int = 1):
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if h < 1:
            raise FieldError(f"h = {h} must be positive")
        q = p**h
        if q > MAX_Q:
            raise FieldError(f"q = {q} exceeds the limit {MAX_Q}")
        self.p = p
        self.h = h
        self.q = q
        m = smallest_irreducible(p, h)
        self.modulus = m if h >= 2 else None
        # the first element in encoding order whose order is q - 1
        order = q - 1
        cofactors = [order // r for r in range(2, q) if order % r == 0 and is_prime(r)]
        g = next(a for a in range(1, q)
                 if all(_poly_pow(list(self.decode(a)), c, m, p) != [1] for c in cofactors))
        powers = _powers(p, h, m, g)
        zero_log = 2 * order
        self._exp = powers + powers + [0] * (2 * order + 1)
        log = [zero_log] * q
        for k, a in enumerate(powers):
            log[a] = k
        self._log = log
        # 1 + a adds one to the constant coefficient, the lowest digit
        self._zech = [log[a - a % p + (a + 1) % p] for a in powers]
        minus_one = log[p - 1]
        self._neg = [self._exp[log[a] + minus_one] for a in range(q)]

    # -- encoding -------------------------------------------------------

    def decode(self, x: int) -> tuple[int, ...]:
        """Integer -> residue polynomial coefficients (low degree first)."""
        return tuple(x // self.p**i % self.p for i in range(self.h))

    # -- arithmetic -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        # |log b - log a| < q - 1, so a negative index wraps mod q - 1
        return self._exp[la + self._zech[self._log[b] - la]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[self.q - 1 - self._log[a]]

    # -- linear algebra -------------------------------------------------

    def row_reduce(self, rows, ncols: int):
        """Reduced row echelon form over the first ncols columns of rows.

        Returns (the nonzero rows as tuples, their pivot columns).  Rows
        may be longer than ncols; the extra columns are carried along.
        """
        mat = [list(r) for r in rows]
        pivots = []
        for c in range(ncols):
            r = len(pivots)
            if r == len(mat):
                break
            piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            s = self.inv(mat[r][c])
            if s != 1:
                mat[r] = [self.mul(s, x) for x in mat[r]]
            for i, row in enumerate(mat):
                if i != r and row[c]:
                    coef = self.neg(row[c])
                    mat[i] = [self.add(x, self.mul(coef, y)) for x, y in zip(row, mat[r])]
            pivots.append(c)
        return tuple(tuple(row) for row in mat[:len(pivots)]), pivots

    # -- misc -----------------------------------------------------------

    def descriptor(self) -> str:
        if self.h == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.h})[{','.join(map(str, self.modulus))}]"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.h) == (other.p, other.h)

    def __hash__(self):
        return hash((self.p, self.h))

    def __repr__(self):
        return f"GF(p={self.p}, h={self.h})"


def factor_prime_power(q: int) -> tuple[int, int]:
    """q -> (p, h) with q = p^h; FieldError if q is not an int (a bool is
    none), is above MAX_Q or is not a prime power, the first two before
    any trial division.  Every field and space build asks it for q's type."""
    if type(q) is not int:
        raise FieldError(f"q = {q!r} is not an int")
    if q > MAX_Q:
        raise FieldError(f"q = {q} exceeds the limit {MAX_Q}")
    if q >= 2:
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        h = 1
        while p**h < q:
            h += 1
        if p**h == q:
            return p, h
    raise FieldError(f"q = {q} is not a prime power")


def field_for_order(q: int) -> GF:
    p, h = factor_prime_power(q)
    return GF(p, h)
