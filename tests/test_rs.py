"""Reed-Solomon pair and CSS generator tests.

Small-field distances come from the test's own exhaustive codeword
scans; the GF(16) [15,7] distance combines an explicit weight-9
codeword (a polynomial with six distinct nonzero roots) with a seeded
random lower-bound sanity sweep.  Membership and the exponent
conditions that replace elimination in the library are checked against
a field Gaussian elimination kept here as the oracle.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from stabcat.field import build_field
from stabcat.rs import (CssPair, RsError, build_rs_pair, css_generators,
                        dot, rs_contains, rs_encode, systematic_rows)

from oracle import min_weight_exhaustive, power, symplectic_field_product


@pytest.fixture(scope="module")
def gf4():
    return build_field(2)


@pytest.fixture(scope="module")
def gf16():
    return build_field(4)


def field_rref(field, rows):
    """Reduced row echelon form over the field; returns (rows, pivots)."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inverse(mat[r][c])
        mat[r] = [field.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                coef = mat[i][c]
                mat[i] = [vi ^ field.mul(coef, vr)
                          for vi, vr in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


@functools.lru_cache(maxsize=None)
def rs_pair(two_m, k):
    return build_rs_pair(build_field(two_m), k)


@functools.lru_cache(maxsize=None)
def reduced_generator(code):
    rows, pivots = field_rref(code.field, code.generator)
    assert len(rows) == code.dim  # monomial evaluations are independent
    return rows, pivots


def oracle_contains(code, v):
    """Membership by reduction against the eliminated generator."""
    f = code.field
    w = list(v)
    for row, p in zip(*reduced_generator(code)):
        if w[p] != 0:
            coef = w[p]
            w = [wi ^ f.mul(coef, ri) for wi, ri in zip(w, row)]
    return not any(w)


#: (field degree, K) for every K at GF(4), GF(16) and GF(64)
EVERY_K = [(two_m, k) for two_m in (2, 4, 6)
           for k in range((1 << two_m) // 2)]


def all_codewords(code):
    """Every codeword by brute force over the message space."""
    f = code.field
    msgs = [[]]
    for _ in range(code.dim):
        msgs = [m + [s] for m in msgs for s in range(f.order)]
    return [rs_encode(code, m) for m in msgs]


class TestBuildPair:
    def test_gf4_k1_parameters(self, gf4):
        code, dual = build_rs_pair(gf4, 1)
        assert (code.length, code.dim) == (3, 1)
        assert (dual.length, dual.dim) == (3, 2)
        words = all_codewords(code)
        assert len(set(words)) == 4
        assert min(sum(1 for s in w if s) for w in words if any(w)) == 3
        dwords = all_codewords(dual)
        assert len(set(dwords)) == 16
        assert min(sum(1 for s in w if s) for w in dwords if any(w)) == 2
        assert min_weight_exhaustive(code) == 3
        assert min_weight_exhaustive(dual) == 2

    def test_k0_degenerate(self, gf4):
        code, dual = build_rs_pair(gf4, 0)
        assert code.dim == 0
        assert (dual.length, dual.dim) == (3, 3)
        assert min_weight_exhaustive(dual) == 1

    def test_gf16_k7(self, gf16):
        code, dual = build_rs_pair(gf16, 7)
        assert (code.length, code.dim) == (15, 7)
        assert dual.dim == 8
        # duality checked over all generator row pairs
        for r in code.generator:
            for rp in dual.generator:
                assert dot(gf16, r, rp) == 0
        for r in code.generator:
            assert rs_contains(dual, r)

    def test_gf16_k7_distance_witness(self, gf16):
        # x * prod_{j<6} (x - alpha^j) has six nonzero roots, so its
        # evaluation vector has weight exactly 15 - 6 = 9 = N - K + 1.
        code, dual = build_rs_pair(gf16, 7)
        poly = [1]  # coefficients, low degree first
        for j in range(6):
            root = gf16.alpha_pow(j)
            shifted = [0] + poly
            scaled = [gf16.mul(root, c) for c in poly] + [0]
            poly = [a ^ b for a, b in zip(shifted, scaled)]

        def eval_poly(x):
            acc = 0
            for c in reversed(poly):
                acc = gf16.mul(acc, x) ^ c
            return acc

        word = tuple(gf16.mul(p, eval_poly(p)) for p in code.eval_points)
        assert sum(1 for s in word if s) == 9
        assert rs_contains(code, word)

    def test_gf16_random_weight_sanity(self, gf16):
        # No sampled codeword may undercut the claimed distances.
        code, dual = build_rs_pair(gf16, 7)
        rng = random.Random(0)
        for _ in range(10 ** 5):
            msg = [rng.randrange(16) for _ in range(code.dim)]
            if not any(msg):
                continue
            w = sum(1 for s in rs_encode(code, msg) if s)
            assert w >= 9
        for _ in range(10 ** 4):
            msg = [rng.randrange(16) for _ in range(dual.dim)]
            if not any(msg):
                continue
            assert sum(1 for s in rs_encode(dual, msg) if s) >= 8

    def test_dimension_sum(self, gf16):
        for k in (0, 1, 3, 7):
            code, dual = build_rs_pair(gf16, k)
            assert code.dim + dual.dim == 15

    def test_monotone_nesting(self, gf16):
        prev = None
        for k in range(0, 8):
            code, _ = build_rs_pair(gf16, k)
            if prev is not None:
                for row in prev.generator:
                    assert rs_contains(code, row)
            prev = code

    def test_k_range_rejected(self, gf4):
        with pytest.raises(RsError):
            build_rs_pair(gf4, 2)
        with pytest.raises(RsError):
            build_rs_pair(gf4, -1)


class TestEncodeContains:
    def test_zero_message(self, gf16):
        code, _ = build_rs_pair(gf16, 3)
        assert rs_encode(code, (0, 0, 0)) == (0,) * 15

    def test_unit_messages_give_rows(self, gf16):
        code, _ = build_rs_pair(gf16, 3)
        for j in range(3):
            msg = tuple(int(i == j) for i in range(3))
            assert rs_encode(code, msg) == code.generator[j]

    def test_gf4_k1_monomial_row(self, gf4):
        # The K=1 code is spanned by ev(x) = (1, w, w^2); the constant
        # vector belongs only to the dual.
        code, dual = build_rs_pair(gf4, 1)
        w = gf4.alpha
        assert rs_encode(code, (1,)) == (1, w, gf4.mul(w, w))
        assert rs_contains(code, (1, 2, 3))
        assert rs_contains(dual, (1, 2, 3))
        assert not rs_contains(code, (1, 1, 1))
        assert rs_contains(dual, (1, 1, 1))

    def test_length_mismatch_rejected(self, gf4):
        code, _ = build_rs_pair(gf4, 1)
        with pytest.raises(RsError):
            rs_encode(code, (1, 2))
        with pytest.raises(RsError):
            rs_contains(code, (1, 2))

    def test_zero_vector_contained(self, gf16):
        code, dual = build_rs_pair(gf16, 3)
        assert rs_contains(code, (0,) * 15)
        assert rs_contains(dual, (0,) * 15)


class TestCssGenerators:
    def test_counts(self, gf4, gf16):
        code, dual = build_rs_pair(gf4, 1)
        pair = css_generators(code, dual)
        assert isinstance(pair, CssPair)
        assert len(pair.s_gens) == 2
        assert len(pair.n_gens) == 4
        code0, dual0 = build_rs_pair(gf4, 0)
        pair0 = css_generators(code0, dual0)
        assert len(pair0.s_gens) == 0
        assert len(pair0.n_gens) == 6
        code7, dual7 = build_rs_pair(gf16, 7)
        pair7 = css_generators(code7, dual7)
        assert len(pair7.s_gens) == 14
        assert len(pair7.n_gens) == 16

    def test_shapes(self, gf4):
        code, dual = build_rs_pair(gf4, 1)
        pair = css_generators(code, dual)
        row = code.generator[0]
        assert pair.s_gens[0] == (*row, 0, 0, 0)
        assert pair.s_gens[1] == (0, 0, 0, *row)

    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_symplectic_orthogonality(self, gf16, k):
        code, dual = build_rs_pair(gf16, k)
        pair = css_generators(code, dual)
        for a in pair.s_gens:
            for b in pair.n_gens:
                assert symplectic_field_product(gf16, a, b) == 0

    def test_containment_failure_diagnostic(self, gf16):
        # Swapping the arguments hands over a non-nested pair; the
        # error must name a violating row.
        code, dual = build_rs_pair(gf16, 7)
        with pytest.raises(RsError, match="row 0"):
            css_generators(dual, code)


class TestAgainstElimination:
    @pytest.mark.parametrize("two_m,k", EVERY_K)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_contains_matches_oracle(self, two_m, k, data):
        f = build_field(two_m)
        n = f.order - 1
        code = rs_pair(two_m, k)[data.draw(st.integers(0, 1))]
        sym = st.integers(0, f.order - 1)
        v = list(rs_encode(code, data.draw(
            st.lists(sym, min_size=code.dim, max_size=code.dim))))
        kind = data.draw(st.sampled_from(("none", "symbols", "monomial")))
        if kind == "symbols":  # overwrite a few coordinates
            for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
                v[i] = data.draw(sym)
        elif kind == "monomial":  # add c * ev(x^j), inside or outside
            c = data.draw(sym)
            j = data.draw(st.integers(0, n - 1))
            v = [x ^ f.mul(c, f.alpha_pow(i * j)) for i, x in enumerate(v)]
        assert rs_contains(code, v) == oracle_contains(code, v)
        if kind == "none":
            assert rs_contains(code, v)

    @pytest.mark.parametrize("two_m", [2, 4, 6])
    def test_power_sum_identity(self, two_m):
        # <ev(x^a), ev(x^b)> = [a + b = 0 mod N], numerically
        f = build_field(two_m)
        n = f.order - 1
        ev = [tuple(f.alpha_pow(i * a) for i in range(n)) for a in range(n)]
        for a in range(n):
            for b in range(n):
                assert dot(f, ev[a], ev[b]) == int((a + b) % n == 0), (a, b)

    @pytest.mark.parametrize(
        "two_m,k", [(2, k) for k in range(2)] + [(4, k) for k in range(8)]
        + [(6, k) for k in (0, 1, 10, 31)])
    def test_exponent_conditions_match_numeric(self, two_m, k):
        code, dual = rs_pair(two_m, k)
        f = code.field
        n = code.length
        for a, r in zip(code.exponents, code.generator):
            for b, rp in zip(dual.exponents, dual.generator):
                assert dot(f, r, rp) == int((a + b) % n == 0) == 0
            assert oracle_contains(dual, r) == (a in dual.exponents)
        # the reverse inclusion fails row by row exactly where the
        # exponent is missing, which css_generators reports
        for b, rp in zip(dual.exponents, dual.generator):
            assert oracle_contains(code, rp) == (b in code.exponents)
        bad = next(i for i, b in enumerate(dual.exponents)
                   if b not in code.exponents)
        with pytest.raises(RsError, match=f"R row {bad} "):
            css_generators(dual, code)


def lagrange_entry(code, j, t):
    """Row j of the systematic generator at position t, as the product
    x_t^e0 x_j^-e0 prod_{l != j, l < dim} (x_t + x_l) / (x_j + x_l)."""
    f = code.field
    x = code.eval_points
    e0 = code.exponents[0]
    acc = f.mul(power(f, x[t], e0), power(f, x[j], -e0))
    for l in range(code.dim):
        if l != j:
            acc = f.mul(acc, f.mul(x[t] ^ x[l], f.inverse(x[j] ^ x[l])))
    return acc


#: (field degree, K, rows checked): every K and row at GF(4) and GF(16),
#: sampled K and rows at GF(64) and GF(256)
SYSTEMATIC_CASES = (
    [(two_m, k, None) for two_m in (2, 4)
     for k in range((1 << two_m) // 2)]
    + [(6, k, 3) for k in (0, 1, 10, 31)]
    + [(8, k, 2) for k in (0, 1, 60, 127)])


class TestSystematicRows:
    @pytest.mark.parametrize("two_m,k,sample", SYSTEMATIC_CASES)
    def test_rows_span_code_systematically(self, two_m, k, sample):
        for code in rs_pair(two_m, k):
            n, dim = code.length, code.dim
            rows = code.systematic
            # dim rows that are the unit vectors on the information set
            # 0..dim-1 are independent, so lying in the code they span it
            assert len(rows) == dim
            picked = range(dim) if sample is None else \
                sorted(random.Random(two_m * 1000 + k).sample(
                    range(dim), min(sample, dim)))
            for j in picked:
                row = rows[j]
                v = [row.get(i, 0) for i in range(n)]
                assert v[:dim] == [int(i == j) for i in range(dim)]
                assert all(v[dim:])  # MDS: no zero outside the info set
                assert set(row) == {j, *range(dim, n)}
                for t in range(dim, n):
                    assert v[t] == lagrange_entry(code, j, t), (j, t)
                assert rs_contains(code, v)

    def test_exponents_must_be_one_window(self, gf16):
        assert systematic_rows(gf16, ()) == ()
        with pytest.raises(RsError, match="window"):
            systematic_rows(gf16, (1, 3))
