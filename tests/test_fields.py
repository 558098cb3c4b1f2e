import itertools
import time

import pytest

from pgworkbench.fields import (GF, FieldError, _poly_mod, _poly_mul, factor_prime_power,
                                field_for_order, is_prime, smallest_irreducible)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)


def test_smallest_irreducible_examples():
    # degree-2 moduli, coefficients low degree first
    assert smallest_irreducible(2, 2) == (1, 1, 1)   # x^2 + x + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)   # x^2 + 1
    assert smallest_irreducible(2, 3) == (1, 0, 1, 1)  # low-degree-first order
    assert smallest_irreducible(2, 1) == (0, 1)


def test_smallest_irreducible_is_irreducible_exhaustive():
    # no monic factor of positive degree below h, by brute-force products
    for p, h in [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)]:
        f = GF(p, h)
        m = f.modulus
        for d in range(1, h):
            for tail in itertools.product(range(p), repeat=d):
                g = list(tail) + [1]
                # divide m by g over GF(p) and demand a nonzero remainder
                rem = list(m)
                while len(rem) >= len(g) and any(rem):
                    if rem[-1]:
                        c = rem[-1]
                        off = len(rem) - len(g)
                        for i, gc in enumerate(g):
                            rem[off + i] = (rem[off + i] - c * gc) % p
                    while rem and rem[-1] == 0:
                        rem.pop()
                assert any(rem)


def test_encode_decode_roundtrip():
    f = GF(3, 3)
    for x in f.elements:
        assert f.encode(f.decode(x)) == x
    assert f.decode(0) == (0, 0, 0)
    assert f.decode(1) == (1, 0, 0)
    assert f.decode(3) == (0, 1, 0)


GF4_ADD = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def test_gf4_full_tables():
    # independent hand tables for GF(4) = GF(2)[x]/(x^2+x+1), 2 = x, 3 = x+1
    f = GF(2, 2)
    for a in range(4):
        for b in range(4):
            assert f.add(a, b) == GF4_ADD[a][b]
            assert f.mul(a, b) == GF4_MUL[a][b]
    assert f.inv(1) == 1 and f.inv(2) == 3 and f.inv(3) == 2


def test_gf9_arithmetic_spot():
    f = GF(3, 2)  # modulus x^2 + 1, so x * x = -1 = 2
    x = f.encode([0, 1])
    assert x == 3
    assert f.mul(x, x) == 2
    assert f.add(x, x) == f.encode([0, 2])


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (2, 4), (13, 1)])
def test_field_axioms_exhaustive(p, h):
    f = GF(p, h)
    q = f.q
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(f.add(a, b), b) == a
            if b:
                assert f.mul(f.div(a, b), b) == a
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_large_field_randomized_axioms():
    import random
    rng = random.Random(7)
    f = GF(2, 10)  # q = 1024, too many triples for the exhaustive test
    for _ in range(200):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,h", [(3, 3), (2, 5), (2, 7), (3, 5), (2, 10), (3, 7),
                                 (2, 16), (3, 10), (2, 1), (7, 1), (251, 1), (65521, 1)])
def test_tables_match_polynomial_arithmetic(p, h):
    # the log/Zech tables against schoolbook arithmetic on residue
    # polynomials, or on residues mod p for a prime field
    import random
    rng = random.Random(p * 100 + h)
    f = GF(p, h)

    def poly_mul(a, b):
        if h == 1:
            return a * b % p
        return f.encode(_poly_mod(_poly_mul(f.decode(a), f.decode(b), p), f.modulus, p))

    for _ in range(300):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(a, b) == f.encode([(x + y) % p for x, y in zip(f.decode(a), f.decode(b))])
        assert f.mul(a, b) == poly_mul(a, b)
        assert f.mul(f.add(a, b), c) == poly_mul(f.add(a, b), c)
        if a:
            assert poly_mul(a, f.inv(a)) == 1


def multiplicative_order(f, a):
    """The least e >= 1 with a^e = 1, by repeated multiplication."""
    x, e = a, 1
    while x != 1:
        x, e = f.mul(x, a), e + 1
    return e


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 64, 128])
def test_multiplicative_group_cyclic(q):
    f = field_for_order(q)
    orders = {multiplicative_order(f, a) for a in range(1, q)}
    assert max(orders) == q - 1          # a primitive element exists
    assert all((q - 1) % o == 0 for o in orders)


def test_pow_matches_repeated_mul():
    f = GF(3, 2)
    for a in f.elements:
        acc = 1
        for e in range(10):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(121) == (11, 2)
    assert factor_prime_power(17) == (17, 1)
    for bad in (0, 1, 6, 12, 15, 100):
        with pytest.raises(FieldError):
            factor_prime_power(bad)


def test_order_above_the_limit_is_refused_before_factoring():
    # 10^14 + 31 is prime: trial division up to its root took about 1.8 s
    start = time.perf_counter()
    for q in (100000000000031, 10**100):
        with pytest.raises(FieldError, match="exceeds the limit 65536"):
            field_for_order(q)
        with pytest.raises(FieldError, match="exceeds the limit 65536"):
            factor_prime_power(q)
    assert time.perf_counter() - start < 0.05


def test_constructor_rejects_bad_parameters():
    with pytest.raises(FieldError):
        GF(4)
    with pytest.raises(FieldError):
        GF(2, 0)
    with pytest.raises(FieldError):
        GF(2, 17)  # q = 2^17 above MAX_Q
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


def test_descriptor_and_equality():
    assert GF(5).descriptor() == "GF(5)"
    assert GF(2, 2).descriptor() == "GF(2^2)[1,1,1]"
    assert GF(3, 2) == GF(3, 2)
    assert GF(3, 2) != GF(3, 1)
    assert field_for_order(9) == GF(3, 2)
