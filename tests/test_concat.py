"""Block expansion, code construction, and quaternary view tests."""

import random

import pytest

from stabcat.concat import (BlockExpander, ConcatError, ExpansionInput,
                            SymplecticVector, block_unit_images, build_code,
                            check_block_injectivity, designated_half_tuple,
                            expand_block, expand_codeword, get_expander,
                            to_quaternary, zero_input)
from stabcat.field import build_field, coords, find_self_dual_basis
from stabcat.symplectic import in_span, symplectic_weight


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
            x1 = f.mul(f.power(f.alpha, -i) if i else 1, w1)
            w2 = 0
            if can[2] ^ t_i[2]:
                w2 ^= basis[0]
            if can[3]:
                w2 ^= basis[1]
            if t_i[0]:
                w2 ^= basis[2]
            if t_i[1]:
                w2 ^= basis[3]
            x2 = f.mul(f.power(f.alpha, -i) if i else 1, w2)
            y1 = 0
            if ca[0]:
                y1 ^= basis[0]
            if ca[1]:
                y1 ^= basis[1]
            if s_i[2]:
                y1 ^= basis[2]
            y1 = f.mul(f.power(f.alpha, i), y1)
            y2 = 0
            if ca[2]:
                y2 ^= basis[0]
            if ca[3]:
                y2 ^= basis[1]
            if t_i[2]:
                y2 ^= basis[2]
            y2 = f.mul(f.power(f.alpha, i), y2)

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
                assert in_span(c.n_matrix, row)

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
    gens = block_unit_images(field, basis, i)
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
        assert len(block_unit_images(f, b, 0)) == 26  # 6m+2 inputs
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
        gens = block_unit_images(f, b, 1)
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
                data = exp.invert_block(i, bb, cb)
                assert data.a_i == inp.a[i]
                assert data.a_ni == inp.a[exp.n_blocks + i]
                assert data.s == inp.s[i]
                assert data.t == inp.t[i]

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
                tup = designated_half_tuple(exp, i, bb, cb)
                a_pair_zero = inp.a[i] == 0 and inp.a[3 + i] == 0
                if a_pair_zero:
                    assert tup is None
                else:
                    assert tup is not None and len(tup) == 3
                    assert any(tup)
