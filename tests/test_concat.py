"""Block expansion, code construction, and quaternary view tests.

``build_code`` assembles its rows from per-block symbol tables over the
systematic RS generators and eliminates them lazily; it is checked here
against the direct route kept as an oracle: every monomial CSS
generator times alpha^e through ``BlockExpander.expand``, reduced row
by row into a fully reduced matrix by the test's own elimination.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from stabcat.concat import (BlockExpander, ConcatError, ExpansionInput,
                            SymplecticVector, build_code,
                            check_block_injectivity, designated_half,
                            expand_block, expand_codeword, get_expander,
                            to_quaternary)
from stabcat.field import build_field, coords, find_self_dual_basis
from stabcat.rs import build_rs_pair, css_generators
from stabcat.symplectic import Rref, in_span, row_reduce, symplectic_weight

from oracle import power, zero_input


@pytest.fixture(scope="module")
def gf4():
    f = build_field(2)
    return f, find_self_dual_basis(f)


@pytest.fixture(scope="module")
def gf16():
    f = build_field(4)
    return f, find_self_dual_basis(f)


def random_input(rng, f, m):
    nb = f.order - 1
    return ExpansionInput(
        a=tuple(rng.randrange(f.order) for _ in range(2 * nb)),
        s=tuple(tuple(rng.randint(0, 1) for _ in range(m + 1))
                for _ in range(nb)),
        t=tuple(tuple(rng.randint(0, 1) for _ in range(m + 1))
                for _ in range(nb)))


def input_bits(f, basis, a_i, a_ni, s_i, t_i):
    """Oracle: a block's input as one bit vector in unit-input order (the
    basis coordinates of a_i, then of a_{N+i}, then s_i, then t_i)."""
    bits = coords(f, basis, a_i) + coords(f, basis, a_ni) + tuple(s_i) \
        + tuple(t_i)
    return sum(bit << j for j, bit in enumerate(bits))


@functools.cache
def block_image(m, i):
    """Oracle: the span of block i's image at m, as b | c << (4m+2), from
    expand_block over inputs whose bits span every input."""
    f = build_field(2 * m)
    exp = get_expander(f, find_self_dual_basis(f))
    zero = (0,) * (m + 1)
    unit = [tuple(int(k == j) for k in range(m + 1)) for j in range(m + 1)]
    inputs = [(1 << j, 0, zero, zero) for j in range(2 * m)]
    inputs += [(0, 1 << j, zero, zero) for j in range(2 * m)]
    inputs += [(0, 0, u, zero) for u in unit]
    inputs += [(0, 0, zero, u) for u in unit]
    images = [exp.expand_block(i, *inp) for inp in inputs]
    return Rref(row_reduce([b | (c << exp.block_width)
                            for b, c in images])[1])


def xor_inputs(x, y):
    return ExpansionInput(
        a=tuple(p ^ q for p, q in zip(x.a, y.a)),
        s=tuple(tuple(p ^ q for p, q in zip(r1, r2))
                for r1, r2 in zip(x.s, y.s)),
        t=tuple(tuple(p ^ q for p, q in zip(r1, r2))
                for r1, r2 in zip(x.t, y.t)))


class TestExpandBlock:
    def test_zero_inputs(self, gf4):
        f, b = gf4
        for i in range(3):
            assert expand_block(f, b, i, 0, 0, (0, 0), (0, 0)) == (0, 0)

    def test_pure_s1_block(self, gf4):
        # a = 0, s = (1, 0), t = 0 at block 0: the first b-group is the
        # coordinates of beta_2, the middle b bit is s_1 = 1, c is zero.
        f, b = gf4
        bb, cb = expand_block(f, b, 0, 0, 0, (1, 0), (0, 0))
        expect_group = coords(f, b, b[1])
        assert expect_group == (0, 1)
        assert bb == (expect_group[0] | (expect_group[1] << 1)) | (1 << 2)
        assert cb == 0

    def test_pure_a_block(self, gf4):
        # a_i = w, everything else zero: the first c-group carries
        # alpha^0 * a_{i,1} beta_1 and the middle b bit is a_{i,1}.
        f, b = gf4
        w = f.alpha
        bb, cb = expand_block(f, b, 0, w, 0, (0, 0), (0, 0))
        a_coords = coords(f, b, w)
        assert a_coords == (1, 0)
        expect_c = coords(f, b, b[0])  # a_{i,1} * beta_1 with a_{i,1}=1
        assert cb == expect_c[0] | (expect_c[1] << 1)
        assert (cb >> 2) & 1 == 0
        assert bb == 1 << 2  # b_3 = a_{i,1} + s_1 = 1

    def test_block_equations_directly(self, gf16):
        # Recompute one random block straight from the defining sums.
        f, basis = gf16
        m = 2
        rng = random.Random(42)
        for i in (0, 7, 14):
            a_i = rng.randrange(16)
            a_ni = rng.randrange(16)
            s_i = tuple(rng.randint(0, 1) for _ in range(3))
            t_i = tuple(rng.randint(0, 1) for _ in range(3))
            ca = coords(f, basis, a_i)
            can = coords(f, basis, a_ni)
            w1 = 0
            if can[0] ^ s_i[2]:
                w1 ^= basis[0]
            if can[1]:
                w1 ^= basis[1]
            if s_i[0]:
                w1 ^= basis[2]
            if s_i[1]:
                w1 ^= basis[3]
            x1 = f.mul(power(f, f.alpha, -i) if i else 1, w1)
            w2 = 0
            if can[2] ^ t_i[2]:
                w2 ^= basis[0]
            if can[3]:
                w2 ^= basis[1]
            if t_i[0]:
                w2 ^= basis[2]
            if t_i[1]:
                w2 ^= basis[3]
            x2 = f.mul(power(f, f.alpha, -i) if i else 1, w2)
            y1 = 0
            if ca[0]:
                y1 ^= basis[0]
            if ca[1]:
                y1 ^= basis[1]
            if s_i[2]:
                y1 ^= basis[2]
            y1 = f.mul(power(f, f.alpha, i), y1)
            y2 = 0
            if ca[2]:
                y2 ^= basis[0]
            if ca[3]:
                y2 ^= basis[1]
            if t_i[2]:
                y2 ^= basis[2]
            y2 = f.mul(power(f, f.alpha, i), y2)

            exp_b = 0
            for j, bit in enumerate(coords(f, basis, x1)):
                exp_b |= bit << j
            exp_b |= (ca[0] ^ s_i[0]) << 4
            for j, bit in enumerate(coords(f, basis, x2)):
                exp_b |= bit << (5 + j)
            exp_b |= (ca[2] ^ t_i[0]) << 9
            exp_c = 0
            for j, bit in enumerate(coords(f, basis, y1)):
                exp_c |= bit << j
            exp_c |= s_i[2] << 4
            for j, bit in enumerate(coords(f, basis, y2)):
                exp_c |= bit << (5 + j)
            exp_c |= t_i[2] << 9

            assert expand_block(f, basis, i, a_i, a_ni, s_i, t_i) == \
                (exp_b, exp_c)


class TestExpandCodeword:
    def test_zero(self, gf4):
        f, b = gf4
        vec = expand_codeword(f, b, zero_input(1, 3))
        assert vec.u == 0 and vec.v == 0 and vec.n == 18

    def test_output_length_m1(self, gf4):
        f, b = gf4
        rng = random.Random(0)
        vec = expand_codeword(f, b, random_input(rng, f, 1))
        assert vec.n == 18  # 2n = 36 bits for N = 3, m = 1
        assert vec.u < (1 << 18) and vec.v < (1 << 18)

    @pytest.mark.parametrize("two_m,trials", [(2, 6000), (4, 3000),
                                              (6, 1000)])
    def test_linearity_randomized(self, two_m, trials):
        f = build_field(two_m)
        b = find_self_dual_basis(f)
        m = two_m // 2
        rng = random.Random(two_m)
        for _ in range(trials):
            x = random_input(rng, f, m)
            y = random_input(rng, f, m)
            vx = expand_codeword(f, b, x)
            vy = expand_codeword(f, b, y)
            vxy = expand_codeword(f, b, xor_inputs(x, y))
            assert vxy.u == vx.u ^ vy.u
            assert vxy.v == vx.v ^ vy.v

    def test_length_mismatch(self, gf4):
        f, b = gf4
        bad = ExpansionInput(a=(0,) * 4, s=((0, 0),) * 3, t=((0, 0),) * 3)
        with pytest.raises(ConcatError):
            expand_codeword(f, b, bad)
        # an s/t row holds m+1 bits, no more and no fewer
        for row in ((0,), (0, 0, 1)):
            bad = ExpansionInput(a=(0,) * 6, s=((0, 0), row, (0, 0)),
                                 t=((0, 0),) * 3)
            with pytest.raises(ConcatError):
                expand_codeword(f, b, bad)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_key_and_word_are_the_block_layout(self, data):
        # key reads each block of an expanded word as expand_block's
        # b | c << width, and word puts every block's key back in place
        m = data.draw(st.sampled_from((1, 2)))
        f = build_field(2 * m)
        exp = get_expander(f, find_self_dual_basis(f))
        nb = exp.n_blocks
        symbols = st.tuples(*[st.integers(0, f.order - 1)] * (2 * nb))
        bit_rows = st.tuples(*[st.tuples(*[st.integers(0, 1)] * (m + 1))]
                             * nb)
        inp = ExpansionInput(a=data.draw(symbols), s=data.draw(bit_rows),
                             t=data.draw(bit_rows))
        x = exp.expand(inp).packed()
        rebuilt = 0
        for i in range(nb):
            b, c = exp.expand_block(i, inp.a[i], inp.a[nb + i], inp.s[i],
                                    inp.t[i])
            key = exp.key(x, i)
            assert key == b | c << exp.block_width
            rebuilt |= exp.word(key, i)
        assert rebuilt == x


class TestBuildCode:
    def test_m1_k1(self, code_m1k1):
        c = code_m1k1
        assert (c.n, c.k) == (18, 2)
        assert (c.rank_s, c.rank_n) == (16, 20)

    def test_m1_k0(self, code_m1k0):
        c = code_m1k0
        assert (c.n, c.k) == (18, 6)
        assert (c.rank_s, c.rank_n) == (12, 24)

    def test_m2_k3(self, code_m2k3):
        c = code_m2k3
        assert (c.n, c.k) == (150, 36)
        assert c.rank_s == 2 * 15 * 3 + 8 * 3 == 114
        assert c.rank_n == 186

    @pytest.mark.parametrize("m", [1, 2])
    def test_rank_formulas_all_k(self, m):
        big_n = (1 << (2 * m)) - 1
        for big_k in range(big_n // 2 + 1):
            c = build_code(m, big_k)
            assert c.rank_s == 2 * big_n * (m + 1) + 4 * m * big_k
            assert c.rank_n == 2 * c.n - c.rank_s
            assert c.k == 2 * m * (big_n - 2 * big_k)

    def test_containment(self, code_m1k1, code_m2k3):
        for c in (code_m1k1, code_m2k3):
            for row in c.s_matrix:
                assert in_span(c.n_span, row)

    def test_deterministic(self, code_m1k1):
        again = build_code(1, 1)
        assert again.s_matrix == code_m1k1.s_matrix
        assert again.n_matrix == code_m1k1.n_matrix

    def test_bad_parameters(self):
        with pytest.raises(ConcatError):
            build_code(0, 0)
        with pytest.raises(Exception):
            build_code(1, 2)  # K > floor(N/2)

    def test_odd_degree_rejected_at_concat_layer(self):
        f = build_field(3)
        b = find_self_dual_basis(f)
        with pytest.raises(ConcatError):
            get_expander(f, b)


def oracle_insert(rows, x):
    """Insert x into a fully reduced RREF list (sorted by pivot)."""
    for row in rows:
        p = (row & -row).bit_length() - 1
        if (x >> p) & 1:
            x ^= row
    if x == 0:
        return False
    p = (x & -x).bit_length() - 1
    rows[:] = sorted([r ^ x if (r >> p) & 1 else r for r in rows] + [x],
                     key=lambda r: r & -r)
    return True


@functools.lru_cache(maxsize=None)
def oracle_matrices(m, big_k):
    """(S, N) the direct way: expand each monomial generator g of the CSS
    pair times alpha^e, e < 2m, then every unit s/t input."""
    f = build_field(2 * m)
    basis = find_self_dual_basis(f)
    exp = get_expander(f, basis)
    nb = exp.n_blocks
    css = css_generators(*build_rs_pair(f, big_k))
    zrow = (0,) * (m + 1)
    units = [zrow[:j] + (1,) + zrow[j + 1:] for j in range(m + 1)]
    out = []
    for gens in (css.s_gens, css.n_gens):
        rows = []
        for g in gens:
            for e in range(2 * m):
                a = tuple(f.mul(f.alpha_pow(e), sym) for sym in g)
                oracle_insert(rows, exp.expand(ExpansionInput(
                    a=a, s=(zrow,) * nb, t=(zrow,) * nb)).packed())
        for i in range(nb):
            for unit in units:
                for s_i, t_i in ((unit, zrow), (zrow, unit)):
                    st_in = tuple(s_i if j == i else zrow for j in range(nb))
                    tt_in = tuple(t_i if j == i else zrow for j in range(nb))
                    oracle_insert(rows, exp.expand(ExpansionInput(
                        a=(0,) * (2 * nb), s=st_in, t=tt_in)).packed())
        out.append(tuple(rows))
    return tuple(out)


class TestAgainstDirectRoute:
    @pytest.mark.parametrize(
        "m,big_k", [(1, k) for k in range(2)] + [(2, k) for k in range(8)]
        + [(3, k) for k in (0, 1, 10, 31)])
    def test_matrices_match(self, m, big_k):
        code = build_code(m, big_k)
        s_rows, n_rows = oracle_matrices(m, big_k)
        assert code.s_matrix == s_rows
        assert code.n_matrix == n_rows

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_unit_span_round_trip(self, data):
        # the tagged span is built by Rref.add and read by reduce and
        # pivots: its rows are the oracle RREF of the tagged images, and
        # invert_block undoes expand_block
        two_m = data.draw(st.sampled_from((2, 4)))
        f = build_field(two_m)
        exp = get_expander(f, find_self_dual_basis(f))
        m = exp.m
        i = data.draw(st.integers(0, exp.n_blocks - 1))
        tag = 2 * exp.block_width
        want = []
        for j, image in enumerate(exp.unit_images(i)):
            oracle_insert(want, image | (1 << (tag + j)))
        span = exp.unit_span(i)
        assert span.rows == want
        bit_row = st.tuples(*[st.integers(0, 1)] * (m + 1))
        a_i, a_ni = data.draw(st.tuples(st.integers(0, f.order - 1),
                                        st.integers(0, f.order - 1)))
        s_i, t_i = data.draw(bit_row), data.draw(bit_row)
        b_bits, c_bits = exp.expand_block(i, a_i, a_ni, s_i, t_i)
        assert exp.invert_block(i, b_bits, c_bits) == \
            input_bits(f, exp.basis, a_i, a_ni, s_i, t_i)


class TestQuaternary:
    def test_trivials(self):
        assert to_quaternary(
            SymplecticVector(u=0, v=0, n=3)).symbols == (0, 0, 0)
        q = to_quaternary(SymplecticVector(u=1, v=0, n=3))
        assert q.symbols == (1, 0, 0) and q.weight() == 1
        q = to_quaternary(SymplecticVector(u=1, v=1, n=3))
        assert q.symbols == (3, 0, 0) and q.weight() == 1

    def test_weight_equals_symplectic(self):
        rng = random.Random(1)
        for _ in range(2000):
            x = SymplecticVector(u=rng.getrandbits(30),
                                 v=rng.getrandbits(30), n=30)
            assert to_quaternary(x).weight() == symplectic_weight(x)


def gray_walk_injective(field, basis, i):
    """Oracle: walk all 2^(6m+2) inputs of block i by Gray code over the
    unit-input images; the map is injective iff no image repeats (the
    zero input's image 0 included)."""
    gens = get_expander(field, basis).unit_images(i)
    seen = {0}
    x = 0
    for idx in range(1, 1 << len(gens)):
        x ^= gens[(idx & -idx).bit_length() - 1]
        if x in seen:
            return False
        seen.add(x)
    return True


class TestInjectivity:
    def test_m1_all_blocks(self, gf4):
        f, b = gf4
        assert all(check_block_injectivity(f, b, i) for i in range(3))

    def test_m2_block0(self, gf16):
        f, b = gf16
        assert check_block_injectivity(f, b, 0)

    def test_m4_block0_injective(self):
        f = build_field(8)
        b = find_self_dual_basis(f)
        assert len(get_expander(f, b).unit_images(0)) == 26  # 6m+2 inputs
        assert check_block_injectivity(f, b, 0)

    @pytest.mark.parametrize("two_m", [2, 4])
    def test_rank_test_matches_gray_walk(self, two_m):
        f = build_field(two_m)
        b = find_self_dual_basis(f)
        for i in range(f.order - 1):
            assert check_block_injectivity(f, b, i) is True, i
            assert gray_walk_injective(f, b, i) is True, i

    @pytest.mark.parametrize("two_m", [2, 4])
    def test_repeated_unit_image_rejected(self, two_m, monkeypatch):
        # Make unit input s_{i,1} expand exactly like a_i = beta_1.
        f = build_field(two_m)
        b = find_self_dual_basis(f)
        zrow = (0,) * (two_m // 2 + 1)
        s_unit = (1,) + zrow[1:]
        real = BlockExpander.expand_block

        def fake(self, i, a_i, a_ni, s_i, t_i):
            if (a_i, a_ni, tuple(s_i), tuple(t_i)) == (0, 0, s_unit, zrow):
                return real(self, i, self.basis[0], 0, zrow, zrow)
            return real(self, i, a_i, a_ni, s_i, t_i)

        monkeypatch.setattr(BlockExpander, "expand_block", fake)
        gens = get_expander(f, b).unit_images(1)
        assert gens[2 * two_m] == gens[0]  # s_{i,1} follows 4m a-coords
        assert check_block_injectivity(f, b, 1) is False
        assert gray_walk_injective(f, b, 1) is False

    def test_nonzero_symbol_pair_gives_nonzero_block(self, gf4):
        # Restriction of injectivity to the s = t = 0 fiber.
        f, b = gf4
        for i in range(3):
            for a_i in range(4):
                for a_ni in range(4):
                    if a_i == 0 and a_ni == 0:
                        continue
                    assert expand_block(f, b, i, a_i, a_ni, (0, 0),
                                        (0, 0)) != (0, 0)


class TestInversion:
    @pytest.mark.parametrize("two_m,trials", [(2, 200), (4, 100)])
    def test_round_trip(self, two_m, trials):
        f = build_field(two_m)
        basis = find_self_dual_basis(f)
        exp = get_expander(f, basis)
        m = two_m // 2
        rng = random.Random(two_m + 100)
        for _ in range(trials):
            inp = random_input(rng, f, m)
            vec = exp.expand(inp)
            mask = (1 << exp.block_width) - 1
            for i in range(exp.n_blocks):
                bb = (vec.u >> (i * exp.block_width)) & mask
                cb = (vec.v >> (i * exp.block_width)) & mask
                assert exp.invert_block(i, bb, cb) == input_bits(
                    f, basis, inp.a[i], inp.a[exp.n_blocks + i], inp.s[i],
                    inp.t[i])

    def test_exhaustive_m1_oracle(self, gf4):
        # Image set of every block from all 2^8 inputs through
        # expand_block; every one of the 4096 (b, c) pairs is then either
        # inverted to its unique input or rejected.
        f, basis = gf4
        exp = get_expander(f, basis)
        bit_pairs = [(x, y) for x in (0, 1) for y in (0, 1)]
        for i in range(3):
            image = {}
            for a_i in range(4):
                for a_ni in range(4):
                    for s_i in bit_pairs:
                        for t_i in bit_pairs:
                            bits = expand_block(f, basis, i, a_i, a_ni,
                                                s_i, t_i)
                            assert bits not in image
                            image[bits] = input_bits(f, basis, a_i, a_ni,
                                                     s_i, t_i)
            for bb in range(64):
                for cb in range(64):
                    if (bb, cb) in image:
                        assert exp.invert_block(i, bb, cb) == image[bb, cb]
                    else:
                        with pytest.raises(ConcatError):
                            exp.invert_block(i, bb, cb)

    def test_invalid_bits_rejected(self, gf4):
        f, b = gf4
        exp = get_expander(f, b)
        # c-group claims a nonzero value while its marker bit pattern is
        # impossible: bits (0,1) of c encode alpha^0 * (a beta_1 + s beta_2)
        # whose beta_2 coordinate must match c_3.
        with pytest.raises(ConcatError):
            exp.invert_block(0, 0, 0b000010)

    def test_designated_half(self, gf4):
        f, b = gf4
        exp = get_expander(f, b)
        rng = random.Random(5)
        for _ in range(500):
            inp = random_input(rng, f, 1)
            vec = exp.expand(inp)
            mask = (1 << exp.block_width) - 1
            for i in range(3):
                bb = (vec.u >> (i * 6)) & mask
                cb = (vec.v >> (i * 6)) & mask
                if bb == 0 and cb == 0:
                    continue
                half = designated_half(exp, i, bb, cb)
                a_pair_zero = inp.a[i] == 0 and inp.a[3 + i] == 0
                if a_pair_zero:
                    assert half is None
                else:
                    assert half is not None and 0 < half < 1 << 6

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_designated_half_value(self, data):
        # the expected tuple from the inputs alone: the first half when
        # the first m coordinates of a_i or a_{N+i} are nonzero, else the
        # second; its value is u_p + 2 v_p over that half's positions,
        # and the int holds the half's b-bits, then its c-bits
        m = data.draw(st.sampled_from((1, 2)))
        f = build_field(2 * m)
        basis = find_self_dual_basis(f)
        exp = get_expander(f, basis)
        i = data.draw(st.integers(0, exp.n_blocks - 1))
        symbol = st.integers(0, f.order - 1)
        bit_row = st.tuples(*[st.integers(0, 1)] * (m + 1))
        a_i, a_ni, s_i, t_i = data.draw(
            st.tuples(symbol, symbol, bit_row, bit_row))
        bb, cb = exp.expand_block(i, a_i, a_ni, s_i, t_i)
        half = designated_half(exp, i, bb, cb)
        width = 2 * m + 1
        if a_i or a_ni:
            first = coords(f, basis, a_i)[:m] + coords(f, basis, a_ni)[:m]
            off = 0 if any(first) else width
            want = tuple(((bb >> p) & 1) + 2 * ((cb >> p) & 1)
                         for p in range(off, off + width))
            assert any(want)
            assert tuple((half >> j & 1) + 2 * (half >> (width + j) & 1)
                         for j in range(width)) == want
            assert 0 <= half < 1 << (2 * width)
        else:
            assert half is None
        # a key outside the block's image is still rejected
        error = data.draw(st.integers(0, (1 << (4 * width)) - 1))
        bad_b = bb ^ (error & ((1 << (2 * width)) - 1))
        bad_c = cb ^ (error >> (2 * width))
        if in_span(block_image(m, i), bad_b | (bad_c << (2 * width))):
            designated_half(exp, i, bad_b, bad_c)
        else:
            with pytest.raises(ConcatError):
                designated_half(exp, i, bad_b, bad_c)
