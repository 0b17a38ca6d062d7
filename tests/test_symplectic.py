"""Packed GF(2) linear algebra and symplectic form tests."""

import random
import tracemalloc
from functools import reduce
from itertools import chain
from operator import xor
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from stabcat import _distpure, symplectic
from stabcat.concat import SymplecticVector, build_code
from stabcat.symplectic import (DualityReport, Rref, RrefError,
                                column_plan, first_outside, in_span,
                                is_rref, row_reduce, selected,
                                symplectic_product,
                                symplectic_product_packed,
                                symplectic_products, symplectic_weight,
                                transpose, verify_duality, xor_rows)


class TestSymplecticProduct:
    def test_self_product_zero(self):
        rng = random.Random(7)
        for _ in range(200):
            x = SymplecticVector(u=rng.getrandbits(20),
                                 v=rng.getrandbits(20), n=20)
            assert symplectic_product(x, x) == 0

    def test_single_overlap(self):
        x = SymplecticVector(u=1, v=0, n=4)
        y = SymplecticVector(u=0, v=1, n=4)
        assert symplectic_product(x, y) == 1

    def test_disjoint_support(self):
        x = SymplecticVector(u=1, v=0, n=4)
        y = SymplecticVector(u=0, v=2, n=4)
        assert symplectic_product(x, y) == 0

    def test_length_mismatch(self):
        x = SymplecticVector(u=1, v=0, n=4)
        y = SymplecticVector(u=1, v=0, n=5)
        with pytest.raises(ValueError):
            symplectic_product(x, y)

    def test_bilinear_and_alternating_randomized(self):
        rng = random.Random(11)
        n = 24
        for _ in range(10 ** 4):
            a = rng.getrandbits(2 * n)
            b = rng.getrandbits(2 * n)
            c = rng.getrandbits(2 * n)
            assert symplectic_product_packed(a, a, n) == 0
            assert symplectic_product_packed(a ^ b, c, n) == \
                symplectic_product_packed(a, c, n) ^ \
                symplectic_product_packed(b, c, n)
            # alternation implies symmetry in characteristic 2
            assert symplectic_product_packed(a, b, n) == \
                symplectic_product_packed(b, a, n)


class TestWeight:
    def test_trivials(self):
        assert symplectic_weight(SymplecticVector(u=0, v=0, n=8)) == 0
        assert symplectic_weight(SymplecticVector(u=4, v=4, n=8)) == 1
        assert symplectic_weight(SymplecticVector(u=255, v=0, n=8)) == 8

    def test_matches_quaternary_weight_randomized(self):
        from stabcat.concat import to_quaternary
        rng = random.Random(3)
        for _ in range(10 ** 4):
            x = SymplecticVector(u=rng.getrandbits(18),
                                 v=rng.getrandbits(18), n=18)
            assert symplectic_weight(x) == to_quaternary(x).weight()


class TestRowReduce:
    def test_zero_matrix(self):
        rank, rows = row_reduce([0, 0])
        assert rank == 0 and rows == []

    def test_identity(self):
        rank, rows = row_reduce([1, 2, 4])
        assert rank == 3 and rows == [1, 2, 4]

    def test_dependent_rows(self):
        # {110, 011, 101} as bit masks: third is the XOR of the others.
        rank, _ = row_reduce([0b110, 0b011, 0b101])
        assert rank == 2

    def test_canonical_rref(self):
        rng = random.Random(5)
        for _ in range(100):
            rows = [rng.getrandbits(12) for _ in range(6)]
            rank, red = row_reduce(rows)
            assert is_rref(red)
            # pivots strictly increasing and unique in their columns
            pivs = [(r & -r).bit_length() - 1 for r in red]
            assert pivs == sorted(pivs)
            for i, r in enumerate(red):
                for j, p in enumerate(pivs):
                    assert ((r >> p) & 1) == (1 if i == j else 0)
            # re-reduction is a fixed point
            assert row_reduce(red) == (rank, red)

    def test_rref_order_independent(self):
        rng = random.Random(6)
        rows = [rng.getrandbits(16) for _ in range(8)]
        _, red1 = row_reduce(rows)
        rng.shuffle(rows)
        _, red2 = row_reduce(rows)
        assert red1 == red2


def old_is_rref(rows):
    """Oracle: the definition by re-reduction that is_rref replaced."""
    return list(rows) == row_reduce(rows)[1]


@st.composite
def near_rref_matrices(draw):
    """Small matrices: random rows, or a canonical RREF left alone or
    permuted, with a row duplicated, a zero row inserted, or a bit
    flipped."""
    width = draw(st.integers(1, 8))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=6))
    if draw(st.booleans()):
        return rows
    rows = row_reduce(rows)[1]
    edit = draw(st.sampled_from(
        ("none", "permute", "duplicate", "zero", "flip")))
    if edit == "permute":
        rows = draw(st.permutations(rows))
    elif edit == "duplicate" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(draw(st.integers(0, len(rows))), rows[i])
    elif edit == "zero":
        rows.insert(draw(st.integers(0, len(rows))), 0)
    elif edit == "flip" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] ^= 1 << draw(st.integers(0, width - 1))
    return rows


class TestIsRref:
    @settings(max_examples=500, deadline=None)
    @given(near_rref_matrices())
    def test_matches_rereduction(self, rows):
        assert is_rref(rows) == old_is_rref(rows)

    def test_shape_violations_rejected(self):
        Rref([0b001, 0b010, 0b100])  # canonical: accepted
        for rows in ([0b01, 0], [0b10, 0b01], [0b01, 0b01],
                     [0b11, 0b10]):
            with pytest.raises(RrefError):
                Rref(rows)
            assert not is_rref(rows)
        assert is_rref([])


class TestInSpan:
    def test_trivials(self):
        span = Rref(row_reduce([0b101, 0b011])[1])
        assert in_span(span, 0)
        assert in_span(span, 0b101)
        assert in_span(span, 0b110)
        assert not in_span(span, 0b1000 | 0b101)

    def test_outside_column_support(self):
        span = Rref(row_reduce([0b0011])[1])
        assert not in_span(span, 0b1000)

    def test_incremental_matches_batch(self):
        rng = random.Random(9)
        rows = [rng.getrandbits(20) for _ in range(10)]
        acc = Rref()
        for r in rows:
            acc.add(r)
        assert (acc.rank, acc.rows) == row_reduce(rows)


def naive_rref(rows):
    """Oracle RREF: Gaussian elimination column by column, lowest first."""
    rows = [r for r in rows if r]
    out = []
    width = max(rows, default=0).bit_length()
    for c in range(width):
        pick = next((r for r in rows if (r >> c) & 1), None)
        if pick is None:
            continue
        rows = [r ^ pick if (r >> c) & 1 else r for r in rows if r != pick]
        rows = [r for r in rows if r]
        out = [r ^ pick if (r >> c) & 1 else r for r in out] + [pick]
    return out


def naive_residue(red, x):
    for row in red:
        if (x >> ((row & -row).bit_length() - 1)) & 1:
            x ^= row
    return x


class TestLazyRref:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 24).flatmap(lambda w: st.lists(st.tuples(
        st.sampled_from(("add", "reduce", "rows")),
        st.integers(0, (1 << w) - 1)), max_size=30)))
    def test_interleaved_ops_match_naive(self, ops):
        # add, reduce and the canonical read-out in any order: each read
        # agrees with re-eliminating every row inserted so far
        acc = Rref()
        inserted = []
        for op, x in ops:
            red = naive_rref(inserted)
            if op == "add":
                assert acc.add(x) == (naive_residue(red, x) != 0)
                inserted.append(x)
                assert acc.rank == len(naive_rref(inserted))
            elif op == "reduce":
                assert acc.reduce(x) == naive_residue(red, x)
            else:
                assert acc.rows == red
                assert acc.pivots == [(r & -r).bit_length() - 1
                                      for r in red]
        assert row_reduce(inserted) == (len(acc.rows), acc.rows)

    def test_rows_list_not_mutated_by_later_adds(self):
        acc = Rref()
        acc.add(0b011)
        before = acc.rows
        acc.add(0b010)
        assert before == [0b011] and acc.rows == [0b001, 0b010]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pivot_list_grows(self, data):
        # the shape of block_local and _block_plan: row bits low, one tag
        # bit per row far above them; read, grown past its highest
        # pivot and read again
        width = data.draw(st.integers(1, 12))
        tag = data.draw(st.integers(width + 1, 4 * width + 100))
        words = data.draw(st.lists(st.integers(0, (1 << width) - 1),
                                   min_size=2, max_size=16))
        cut = data.draw(st.integers(1, len(words) - 1))
        words[cut] = 0  # a row whose pivot is its own tag bit
        rows = [x | 1 << (tag + j) for j, x in enumerate(words)]
        acc = Rref()
        added = []
        for stage in (rows[:cut], rows[cut:]):
            top = max(acc.pivots, default=-1)
            for x in data.draw(st.permutations(stage)):
                acc.add(x)
                added.append(x)
            assert max(acc.pivots) > top  # the second stage: tag + cut
            assert acc.rows == \
                row_reduce(data.draw(st.permutations(added)))[1]
            red = naive_rref(added)
            for x in data.draw(st.lists(
                    st.integers(0, (1 << (tag + len(rows) + 8)) - 1),
                    max_size=8)):
                assert acc.reduce(x) == naive_residue(red, x)


@st.composite
def bit_matrices(draw):
    """0-40 rows (any count, not only multiples of 8) and a width of
    0-300 bits; rows may have bits at or above the width."""
    width = draw(st.integers(0, 300))
    rows = draw(st.lists(st.integers(0, (1 << (width + 20)) - 1),
                         max_size=40))
    return rows, width


class TestTranspose:
    @settings(max_examples=300, deadline=None)
    @given(bit_matrices())
    def test_matches_bit_tests(self, case):
        rows, width = case
        assert transpose(rows, width) == [
            sum((x >> c & 1) << j for j, x in enumerate(rows))
            for c in range(width)]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_column_permutation(self, data):
        # transpose -> reorder -> transpose permutes every row's columns
        rows, width = data.draw(bit_matrices())
        perm = data.draw(st.permutations(range(width)))
        cols = transpose(rows, width)
        permuted = transpose([cols[p] for p in perm], len(rows))
        assert permuted == [
            sum((x >> p & 1) << c for c, p in enumerate(perm))
            for x in rows]


def loop_limit(width):
    """The most set bits that ``selected`` reads by its bit loop, for a
    selector ``width`` bits wide."""
    return 128 * width // (width + 1024)


@st.composite
def selections(draw):
    """Items for widths 0-300 and a selector with no bit, one bit, a few
    (up to just past the loop/mask switch), many or all of them set,
    and sometimes bits at or above the width."""
    width = draw(st.integers(0, 300))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    items = [rng.getrandbits(90) for _ in range(width)]
    kind = draw(st.sampled_from(["none", "one", "sparse", "dense", "all"]))
    count = {"none": 0, "one": min(1, width),
             "sparse": min(width, rng.randint(1, loop_limit(width) + 2)),
             "dense": rng.randint(min(width, loop_limit(width) + 1), width),
             "all": width}[kind]
    bits = sum(1 << c for c in rng.sample(range(width), count))
    if draw(st.booleans()):
        bits |= draw(st.integers(1, 1 << 40)) << width
    return items, bits


def loop_xor(rows, bits):
    """Oracle: XOR of rows[j] over the set bits j < len(rows) of
    ``bits``, by one bit test per row."""
    x = 0
    for j, row in enumerate(rows):
        if bits >> j & 1:
            x ^= row
    return x


class TestSelected:
    @settings(max_examples=400, deadline=None)
    @given(selections())
    def test_matches_xor_rows(self, case):
        items, bits = case
        inside = bits & ((1 << len(items)) - 1)
        assert reduce(xor, selected(items, bits), 0) == \
            loop_xor(items, inside) == xor_rows(items, bits)
        assert list(selected(items, bits)) == [
            x for c, x in enumerate(items) if inside >> c & 1]

    @pytest.mark.parametrize("width", [1, 64, 300, 1764])
    def test_both_sides_of_the_switch(self, width):
        rng = random.Random(width)
        items = [rng.getrandbits(200) for _ in range(width)]
        for count in (loop_limit(width), loop_limit(width) + 1):
            if not 0 < count <= width:
                continue
            # the top bit set, so that the selector is ``width`` wide
            bits = 1 << (width - 1) | sum(
                1 << c for c in rng.sample(range(width - 1), count - 1))
            # the bit loop returns a list, the byte mask an iterator
            assert isinstance(selected(items, bits), list) == \
                (count <= loop_limit(width))
            assert reduce(xor, selected(items, bits), 0) == \
                loop_xor(items, bits) == xor_rows(items, bits)


def entry_rows(entry):
    """The row indices that a ``column_plan`` entry other than a tuple
    selects."""
    if isinstance(entry, int):
        return [entry]
    if isinstance(entry, bytes):
        return [j for j, b in enumerate(entry) if b]
    return entry


def check_support(entry, want):
    """A support entry selects the rows ``want``: one row as its index,
    more or none in the smaller form, 8 bytes per index or 1 byte per
    row."""
    assert entry_rows(entry) == want
    assert isinstance(entry, int) == (len(want) == 1)
    if len(want) != 1:
        assert isinstance(entry, list) == \
            (8 * len(want) <= (want[-1] + 1 if want else 0))


def bit_tests(rows, c):
    """The rows with bit c set, by one bit test a row."""
    return [j for j, x in enumerate(rows) if x >> c & 1]


def plan_order(n, w):
    """The column of each ``column_plan`` entry: block by block, each
    block's u columns, then its v columns."""
    return [c for j in range(0, n, w)
            for c in chain(range(j, j + w), range(n + j, n + j + w))]


class TestColumnSupports:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_bit_tests(self, data):
        # columns from empty to full, so that both forms occur; bits at
        # or above 2n are ignored; narrow slices force many slices
        nrows = data.draw(st.integers(0, 60))
        w = data.draw(st.integers(1, 15))
        n = w * data.draw(st.integers(0, 45 // w))
        rng = random.Random(data.draw(st.integers(0, 1 << 32)))
        cols = [sum(1 << j for j in range(nrows) if rng.random() < p)
                for p in rng.choices((0, 0.02, 0.1, 0.5, 1), k=2 * n)]
        rows = [x | rng.getrandbits(20) << (2 * n)
                for x in transpose(cols, nrows)]
        slice_width = data.draw(st.sampled_from((1, 7, 64, 1024)))
        with mock.patch.object(symplectic, "COLUMN_SLICE", slice_width):
            plan = column_plan(rows, n, w)
        assert len(plan) == 2 * n
        order = plan_order(n, w)
        for k, (c, entry) in enumerate(zip(order, plan)):
            if isinstance(entry, tuple):  # the XOR of its block's columns
                lo = k - k % (2 * w)
                assert reduce(xor, (cols[order[lo + i]] for i in entry)) \
                    == cols[c]
                continue
            check_support(entry, bit_tests(rows, c))

    def test_both_forms_on_a_code(self, code_m2k3):
        rows = code_m2k3.n_matrix
        n = code_m2k3.n
        plan = column_plan(rows, n, code_m2k3.block_width)
        assert {type(e) for e in plan} == {int, list, bytes, tuple}
        for c, entry in zip(plan_order(n, code_m2k3.block_width), plan):
            if not isinstance(entry, tuple):
                check_support(entry, bit_tests(rows, c))


def lane_xors(entries) -> int:
    """Lane vectors or columns that forming every entry's column XORs."""
    return sum(1 if isinstance(e, int) else e.count(1)
               if isinstance(e, bytes) else len(e) for e in entries)


@st.composite
def block_matrices(draw):
    """Rows whose 2n columns come in blocks of w positions (u columns,
    then v columns), each column zero, a copy of an earlier column of
    its block, the XOR of a few earlier ones, all rows, one row or
    random; bits above 2n sometimes set; and a slice width that w
    rarely divides."""
    w = draw(st.integers(1, 12))
    n = w * draw(st.integers(1, 5))
    nrows = draw(st.integers(0, 40))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    kinds = draw(st.lists(st.sampled_from(
        ["zero", "copy", "sum", "all", "one", "sparse", "half"]),
        min_size=1, max_size=7))
    blocks = []
    for _ in range(n // w):
        block = []
        for _ in range(2 * w):
            kind = rng.choice(kinds)
            if kind in ("copy", "sum") and block:
                picked = rng.sample(block, 1 if kind == "copy"
                                    else min(len(block), rng.randint(2, 4)))
                block.append(reduce(xor, picked))
            else:
                p = {"zero": 0, "all": 1, "sparse": 0.05}.get(kind, 0.5)
                col = sum(1 << j for j in range(nrows) if rng.random() < p)
                if kind == "one" and nrows:
                    col = 1 << rng.randrange(nrows)
                block.append(col)
        blocks.append(block)
    cols = [c for b in blocks for c in b[:w]] + \
        [c for b in blocks for c in b[w:]]
    rows = transpose(cols, nrows)
    if draw(st.booleans()):
        rows = [x | rng.getrandbits(9) << (2 * n) for x in rows]
    return rows, n, w, draw(st.sampled_from((1, 7, 64, 1024)))


class TestColumnPlan:
    @settings(max_examples=300, deadline=None)
    @given(block_matrices(), st.integers(0, 1 << 32))
    def test_same_columns_as_the_supports(self, case, seed):
        rows, n, w, slice_width = case
        with mock.patch.object(symplectic, "COLUMN_SLICE", slice_width):
            plan = column_plan(rows, n, w)
        # each column's rows, by bit tests, in column order and block by
        # block, as the plan lists them
        supports = [bit_tests(rows, c) for c in range(2 * n)]
        plain = [supports[c] for c in plan_order(n, w)]
        assert len(plan) == len(plain) == 2 * n
        assert lane_xors(plan) <= lane_xors(plain)
        for lo in range(0, 2 * n, 2 * w):
            block = plan[lo:lo + 2 * w]
            for k, e in enumerate(block):
                if isinstance(e, tuple):
                    # names row entries of its block, fewer than its rows
                    assert all(not isinstance(block[i], tuple) and i != k
                               for i in e)
                    assert len(e) < lane_xors([plain[lo + k]])
                else:
                    check_support(e, plain[lo + k])
        rng = random.Random(seed)
        lanes = [rng.getrandbits(16) for _ in rows]
        want = [reduce(xor, (v for v, x in zip(lanes, rows) if x >> c & 1),
                       0) for c in range(2 * n)]
        got = list(chain.from_iterable(
            _distpure.block_columns(lanes, plan, w)))
        assert got == [c for j in range(0, n, w)
                       for c in want[j:j + w] + want[n + j:n + j + w]]
        assert _distpure.weight_planes(lanes, plan, w) == \
            _distpure.weight_planes(lanes, supports, n)

    def test_widths_must_split_the_positions(self):
        for n, w in ((10, 3), (4, 0)):
            with pytest.raises(ValueError):
                column_plan([1, 2], n, w)
        assert column_plan([1, 2], 0, 3) == []

    def test_sparse_rows_keep_their_supports(self):
        # two set bits per column: read row by row, nothing transposed
        rows = [0] * 16 + [0b0011, 0b0101, 0b1010, 0b1100]
        with mock.patch.object(symplectic, "transpose",
                               side_effect=AssertionError):
            plan = column_plan(rows, 2, 1)
            supports = column_plan(rows, 2, 2)  # one block: column order
        assert supports == [[16, 17], [16, 18], [17, 19], [18, 19]]
        assert plan == [[16, 17], [17, 19], [16, 18], [18, 19]]

    def test_halves_the_lane_xors_at_m3(self, code_m3k10):
        # a block's 28 columns span at most 20 dimensions
        code = code_m3k10
        plan = column_plan(code.n_matrix, code.n, 14)
        # the plain supports name every set bit of N
        assert sum(map(int.bit_count, code.n_matrix)) == 119_659
        assert lane_xors(plan) <= 60_000


def pairwise_duality(code) -> DualityReport:
    """Oracle: verify_duality with one symplectic product per row pair,
    the loop that the table-driven orthogonality check replaced; every
    failure is listed, then all but the first FAILURES_KEPT are counted
    instead."""
    n = code.n
    failures = []
    count = 0
    for i, s_row in enumerate(code.s_matrix):
        for j, n_row in enumerate(code.n_matrix):
            count += 1
            if symplectic_product_packed(s_row, n_row, n):
                failures.append(("orthogonality", i, j))
    rank_s = len(code.s_matrix)
    rank_n = len(code.n_matrix)
    dims_ok = rank_s + rank_n == 2 * n
    if not dims_ok:
        failures.append(("dimensions", rank_s, rank_n))
    n_span = Rref(row_reduce(code.n_matrix)[1])
    bad = [i for i, r in enumerate(code.s_matrix) if not in_span(n_span, r)]
    if bad:
        failures.append(("containment", bad[0], None))
    kept = symplectic.FAILURES_KEPT
    return DualityReport(
        all_orthogonal=not any(f[0] == "orthogonality" for f in failures),
        dims_complementary=dims_ok, contained=not bad, rank_s=rank_s,
        rank_n=rank_n, n_products=count, failures=failures[:kept],
        failures_omitted=max(len(failures) - kept, 0))


@st.composite
def bit_flips(draw, code):
    """The code with 1-4 random bits flipped in its S and N rows, and a
    column slice width for the transposition (narrow ones force many
    slices at small n)."""
    s_rows, n_rows = list(code.s_matrix), list(code.n_matrix)
    for _ in range(draw(st.integers(1, 4))):
        rows = s_rows if draw(st.booleans()) else n_rows
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] ^= 1 << draw(st.integers(0, 2 * code.n - 1))
    flipped = code._replace(s_matrix=tuple(s_rows), n_matrix=tuple(n_rows))
    return flipped, draw(st.sampled_from((1, 7, 64, 1024)))


class TestOrthogonalityOracle:
    def _check(self, case):
        code, slice_width = case
        with mock.patch.object(symplectic, "COLUMN_SLICE", slice_width):
            assert verify_duality(code) == pairwise_duality(code)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_m1_flips(self, code_m1k1, data):
        self._check(data.draw(bit_flips(code_m1k1)))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_m2_flips(self, code_m2k3, data):
        self._check(data.draw(bit_flips(code_m2k3)))

    def test_unflipped_codes(self, code_m1k0, code_m2k3):
        for code in (code_m1k0, code_m2k3):
            assert verify_duality(code) == pairwise_duality(code)

    def test_empty_matrices(self, code_m1k1):
        for code in (code_m1k1._replace(n_matrix=()),
                     code_m1k1._replace(s_matrix=())):
            assert verify_duality(code) == pairwise_duality(code)

    def test_bits_above_2n_ignored(self, code_m1k1):
        # as in symplectic_product_packed, bits above 2n never count
        high = 1 << (2 * code_m1k1.n + 3)
        wide = code_m1k1._replace(
            s_matrix=tuple(r | high for r in code_m1k1.s_matrix),
            n_matrix=tuple(r | high for r in code_m1k1.n_matrix))
        rep = verify_duality(wide)
        assert rep.all_orthogonal
        assert rep.failures == pairwise_duality(wide).failures


@st.composite
def product_matrices(draw):
    """S and N rows that come from no code, for n = 0..10, and a column
    slice width.

    N mixes random rows, rows of at most three bits (whose columns are
    often unit columns, of one row alone, several in one row, or shared
    with another row) and zero rows; a repeated row leaves neither copy
    a unit column.
    Every row may have bits at or above 2n.
    """
    n = draw(st.integers(0, 10))
    top = 2 * n + 3
    row = st.integers(0, (1 << top) - 1)
    few = st.lists(st.integers(0, top - 1), max_size=3).map(
        lambda bits: sum(1 << b for b in set(bits)))
    s_rows = draw(st.lists(row, min_size=1, max_size=8))
    n_rows = draw(st.lists(st.one_of(row, few, st.just(0)), max_size=12))
    if n_rows and draw(st.booleans()):
        n_rows.append(draw(st.sampled_from(n_rows)))
    n_rows = draw(st.permutations(n_rows))
    return s_rows, n_rows, n, draw(st.sampled_from((1, 7, 64)))


class TestProductsOracle:
    @settings(max_examples=400, deadline=None)
    @given(product_matrices())
    def test_matches_pairwise_products(self, case):
        s_rows, n_rows, n, slice_width = case
        want = [sum(symplectic_product_packed(s, x, n) << j
                    for j, x in enumerate(n_rows)) for s in s_rows]
        with mock.patch.object(symplectic, "COLUMN_SLICE", slice_width):
            assert symplectic_products(s_rows, n_rows, n) == want

    def test_unit_columns_are_not_xored(self, code_m3k10):
        # N's 1,140 pivot columns and 48 other columns hold one row
        # alone: only the other 576 columns are XORed (117,986 XORs
        # without the gather)
        code = code_m3k10
        picked = []
        real = symplectic.selected

        def counted(items, bits):
            items = list(real(items, bits))
            picked.append(len(items))
            return items

        with mock.patch.object(symplectic, "selected", counted):
            prods = symplectic_products(code.s_matrix, code.n_matrix,
                                        code.n)
        assert prods == [0] * code.rank_s
        assert sum(picked) == 21_086


class TestFirstOutside:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_in_span(self, data):
        width = data.draw(st.integers(1, 80))
        word = st.integers(0, (1 << width) - 1)
        span = Rref(row_reduce(data.draw(st.lists(word, max_size=12)))[1])
        # members, non-members and words with bits above every pivot
        members = [loop_xor(span.rows, b) for b in data.draw(
            st.lists(st.integers(0, (1 << span.rank) - 1), max_size=6))]
        rows = data.draw(st.permutations(
            members + data.draw(st.lists(word, max_size=4))))
        if data.draw(st.booleans()):
            rows = [r | (1 << (width + 2)) for r in rows]
        # rank oracle: r lies in the span iff it adds nothing to its rank
        want = next((i for i, r in enumerate(rows)
                     if row_reduce(span.rows + [r])[0] != span.rank), None)
        assert first_outside(span, rows) == want
        assert want == next((i for i, r in enumerate(rows)
                             if not in_span(span, r)), None)


class TestVerifyDuality:
    def test_m1_codes(self, code_m1k1, code_m1k0):
        for code, rank_s, rank_n in ((code_m1k1, 16, 20),
                                     (code_m1k0, 12, 24)):
            rep = verify_duality(code)
            assert rep.passed
            assert rep.rank_s == rank_s and rep.rank_n == rank_n
            assert rep.rank_s + rep.rank_n == 2 * code.n
        rep = verify_duality(code_m1k1)
        assert rep.n_products == 16 * 20

    def test_m2k3(self, code_m2k3):
        rep = verify_duality(code_m2k3)
        assert rep.passed
        assert rep.rank_s == 114 and rep.rank_n == 186

    def test_containment_over_non_canonical_rows(self, code_m1k1):
        # Row 0 + row 1 in place of row 0: the same row space, not RREF,
        # so containment is decided on the reduced rows.
        rows = list(code_m1k1.n_matrix)
        rows[0] ^= rows[1]
        same_span = code_m1k1._replace(n_matrix=tuple(rows))
        assert not is_rref(same_span.n_matrix)
        rep = verify_duality(same_span)
        assert rep.contained and rep.passed

    def test_failure_list_bounded(self):
        # Every stabilizer row XORed with random bits: hundreds of
        # thousands of failing pairs, of which the first few are listed.
        code = build_code(3, 10)
        rng = random.Random(7)
        bad = code._replace(s_matrix=tuple(
            r ^ rng.getrandbits(2 * code.n) for r in code.s_matrix))
        rep = verify_duality(bad)
        assert len(rep.failures) == symplectic.FAILURES_KEPT
        assert rep.failures_omitted > 100000
        assert rep == pairwise_duality(bad)

    def test_failure_enumerates_witnesses(self, code_m1k1):
        # Corrupt one stabilizer row; the report must name a bad pair.
        bad_rows = list(code_m1k1.s_matrix)
        bad_rows[0] ^= 1 << (code_m1k1.n + 5)
        bad = code_m1k1._replace(s_matrix=tuple(bad_rows))
        rep = verify_duality(bad)
        assert not rep.passed
        assert any(f[0] == "orthogonality" for f in rep.failures)


def test_duality_and_supports_memory(code_m3k10):
    """No table over N at m=3 K=10 (N: 1140 x 1764 bits).  Traced peaks,
    where the four-Russians tables and one int per set bit took 1.28 MB
    (``first_outside``), 1.29 MB (``verify_duality``) and 1.19 MB held
    by the column supports; the column plan holds about 0.31 MB."""
    code = code_m3k10
    span = code.n_span
    span.rows  # canonical before tracing
    tracemalloc.start()
    try:
        assert first_outside(span, code.s_matrix) is None
        outside = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert verify_duality(code).passed
        duality = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        plan = column_plan(code.n_matrix, code.n, code.block_width)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(plan) == 2 * code.n
    assert outside < 100_000
    assert duality < 1_000_000
    assert held - before < 600_000
    assert peak - before < 800_000
