"""Field arithmetic, trace, and self-dual basis tests.

Derived expectations are recomputed here with independent brute-force
helpers (naive polynomial trial division, naive repeated multiplication)
rather than trusted from the library's own fast paths.
"""

import hashlib
import itertools
import random

import pytest

from stabcat.field import (DEFAULT_MAX_DEGREE, Field, FieldError,
                           _is_irreducible, _is_primitive, build_field,
                           combine, coords, find_self_dual_basis,
                           gram_matrix)

from oracle import power


# -- independent brute-force helpers (oracles) -------------------------

def naive_poly_mul(a, b):
    out = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            out ^= a << i
        i += 1
    return out


def naive_poly_divides(d, p):
    """True if bit-polynomial d divides p (naive long division)."""
    while p.bit_length() >= d.bit_length():
        p ^= d << (p.bit_length() - d.bit_length())
    return p == 0


def naive_irreducible(p, degree):
    for d in range(2, 1 << degree):
        if d.bit_length() - 1 >= 1 and naive_poly_divides(d, p):
            return False
    return True


def naive_order_of_x(p, degree):
    """Multiplicative order of the class of x modulo p."""
    mod = p
    val = 2
    order = 1
    while val != 1:
        val = naive_poly_mul(val, 2)
        while val.bit_length() >= mod.bit_length():
            val ^= mod << (val.bit_length() - mod.bit_length())
        order += 1
        if order > (1 << degree):
            return 0
    return order


def squaring_trace(f, x):
    """Oracle: Tr(x) = x + x^2 + x^4 + ... + x^(2^(e-1)), from e naive
    squarings of x itself (no use of the trace's linearity)."""
    acc = 0
    for _ in range(f.two_m):
        acc ^= x
        x = naive_poly_mul(x, x)
        while x.bit_length() >= f.modulus.bit_length():
            x ^= f.modulus << (x.bit_length() - f.modulus.bit_length())
    return acc


class TestBuildField:
    def test_gf4_unique_quadratic(self):
        f = build_field(2)
        assert f.modulus == 0b111
        assert f.order == 4

    def test_degree4_smallest_primitive(self):
        # Oracle: enumerate every monic degree-4 polynomial, keep the
        # irreducible ones by trial division, then the primitive ones by
        # computing the order of x directly; expect the minimum.
        candidates = []
        for p in range(1 << 4, 1 << 5):
            if naive_irreducible(p, 4) and naive_order_of_x(p, 4) == 15:
                candidates.append(p)
        assert candidates
        f = build_field(4)
        assert f.modulus == min(candidates) == 0b10011

    def test_alpha_order_gf4(self):
        f = build_field(2)
        assert power(f, f.alpha, 3) == 1
        assert f.alpha != 1

    def test_alpha_full_order(self):
        for e in (2, 3, 4, 6):
            f = build_field(e)
            n = f.order - 1
            assert power(f, f.alpha, n) == 1
            for d in range(1, n):
                if n % d == 0:
                    assert power(f, f.alpha, d) != 1

    def test_degree8_primitivity_matters(self):
        # The smallest irreducible octic (0x11b) is not primitive; the
        # build must skip it.
        f = build_field(8)
        assert naive_irreducible(0x11b, 8)
        assert naive_order_of_x(0x11b, 8) != 255
        assert f.modulus == 0x11d

    def test_range_rejected(self):
        with pytest.raises(FieldError):
            build_field(1)
        with pytest.raises(FieldError):
            build_field(17)

    def test_odd_degree_allowed(self):
        f = build_field(3)
        assert f.order == 8

    def test_bad_modulus_rejected(self):
        with pytest.raises(FieldError):
            Field(4, 0b11111)  # (x+1)^4-ish, reducible
        with pytest.raises(FieldError):
            Field(8, 0x11b)  # irreducible but x is not primitive

    def test_degree1_gf2(self):
        # x + 1 is the one irreducible modulus of degree 1; x itself is
        # irreducible but makes x a zero divisor, not a generator.
        f = Field(1, 0x3)
        assert (f.order, f.alpha) == (2, 1)
        assert [f.trace(x) for x in range(2)] == [0, 1]
        assert f.mul(1, 1) == f.inverse(1) == power(f, 1, 5) == 1
        assert _is_irreducible(0x3, 1) and _is_primitive(0x3, 1)
        assert not _is_primitive(0x2, 1)
        with pytest.raises(FieldError, match="not primitive"):
            Field(1, 0x2)

    def test_tables_pinned(self):
        # exp/log/trace tables of build_field(e), e = 2..16, as a sha256
        h = hashlib.sha256()
        for e in range(2, DEFAULT_MAX_DEGREE + 1):
            f = build_field(e)
            h.update(repr((e, f.modulus, f._exp, f._log,
                           f._trace)).encode())
        assert h.hexdigest() == ("9e3871063ca8f0a827ae6ba0563e07f4"
                                 "bbbd2db8bb299d2fc428ca3a529a719f")

    def test_degree_cap_before_tables(self):
        # A primitive degree-17 modulus passes every other check, so only
        # the cap keeps Field from building tables with 2^18 entries.
        # The search uses the table-free primality tests.
        e = DEFAULT_MAX_DEGREE + 1
        lo = 1 << e
        p = next(p for p in range(lo | 1, lo << 1, 2)
                 if _is_irreducible(p, e) and _is_primitive(p, e))
        with pytest.raises(FieldError, match="outside supported range"):
            Field(e, p)


class TestArithmetic:
    def test_gf4_products(self):
        f = build_field(2)
        w = f.alpha
        w2 = f.mul(w, w)
        assert f.mul(w, w2) == 1
        assert f.inverse(w) == w2

    def test_gf16_alpha_inverse(self):
        f = build_field(4)
        # alpha^14 by naive repeated multiplication
        v = 1
        for _ in range(14):
            v = f.mul(v, f.alpha)
        assert f.mul(f.alpha, v) == 1
        assert power(f, f.alpha, 14) == v
        assert power(f, f.alpha, -1) == v

    def test_inverse_zero_rejected(self):
        f = build_field(2)
        with pytest.raises(FieldError):
            f.inverse(0)
        with pytest.raises(FieldError):
            power(f, 0, -2)

    def test_add_is_xor(self):
        f = build_field(4)
        for x, y in itertools.product(range(16), repeat=2):
            assert f.add(x, y) == x ^ y

    def test_mul_matches_naive(self):
        for e in (2, 3, 4):
            f = build_field(e)
            for x in range(f.order):
                for y in range(f.order):
                    expect = naive_poly_mul(x, y)
                    while expect.bit_length() >= f.modulus.bit_length():
                        expect ^= f.modulus << (
                            expect.bit_length() - f.modulus.bit_length())
                    assert f.mul(x, y) == expect


class TestTrace:
    def test_trivials(self):
        f = build_field(2)
        assert f.trace(0) == 0
        # direct evaluation over GF(4): Tr(x) = x + x^2
        w = f.alpha
        assert w ^ f.mul(w, w) == 1
        assert f.trace(w) == 1
        assert 1 ^ f.mul(1, 1) == 0
        assert f.trace(1) == 0

    @pytest.mark.parametrize("e", range(2, 13))
    def test_table_matches_squaring_every_element(self, e):
        f = build_field(e)
        assert [f.trace(x) for x in range(f.order)] == \
            [squaring_trace(f, x) for x in range(f.order)]

    def test_table_matches_squaring_degree16(self):
        f = build_field(16)
        rng = random.Random(0)
        for x in (rng.randrange(f.order) for _ in range(2000)):
            assert f.trace(x) == squaring_trace(f, x), x

    @pytest.mark.parametrize("e", [2, 3, 4, 6, 8])
    def test_linearity_and_frobenius_exhaustive(self, e):
        f = build_field(e)
        tr = [f.trace(x) for x in range(f.order)]
        for x in range(f.order):
            assert tr[x] == f.trace(f.mul(x, x))
            for y in range(f.order):
                assert tr[x ^ y] == tr[x] ^ tr[y]


class TestSelfDualBasis:
    def test_gf4_basis(self):
        f = build_field(2)
        b = find_self_dual_basis(f)
        assert b == (2, 3)  # {w, w^2}

    @pytest.mark.parametrize("e", [2, 3, 4, 5, 6, 8])
    def test_gram_identity(self, e):
        f = build_field(e)
        b = find_self_dual_basis(f)
        ident = [[int(i == j) for j in range(e)] for i in range(e)]
        assert gram_matrix(f, b) == ident

    def test_lexicographic_minimality_gf16(self):
        # Oracle: scan all increasing 4-tuples of nonzero elements for
        # the Gram-identity property; the first hit in lexicographic
        # order must equal the search result.
        f = build_field(4)
        expected = None
        for cand in itertools.combinations(range(1, 16), 4):
            if all(f.trace(f.mul(x, y)) == (1 if i == j else 0)
                   for i, x in enumerate(cand)
                   for j, y in enumerate(cand)):
                expected = cand
                break
        assert expected is not None
        assert find_self_dual_basis(f) == expected


class TestCoords:
    def test_zero(self):
        f = build_field(4)
        b = find_self_dual_basis(f)
        assert coords(f, b, 0) == (0, 0, 0, 0)

    def test_basis_indicators(self):
        f = build_field(4)
        b = find_self_dual_basis(f)
        for k, bk in enumerate(b):
            expect = tuple(int(j == k) for j in range(4))
            assert coords(f, b, bk) == expect

    def test_gf4_one(self):
        f = build_field(2)
        b = find_self_dual_basis(f)
        assert coords(f, b, 1) == (1, 1)  # 1 = w + w^2
        assert b[0] ^ b[1] == 1

    @pytest.mark.parametrize("e", [2, 3, 4, 6, 8])
    def test_round_trip_exhaustive(self, e):
        f = build_field(e)
        b = find_self_dual_basis(f)
        for x in range(f.order):
            assert combine(f, b, coords(f, b, x)) == x
