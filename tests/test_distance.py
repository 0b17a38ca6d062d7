"""Distance search tests: kernel oracles, fixtures, and counting claims.

The chunked Gray-scan kernel is checked against a brute-force oracle
that XORs every explicit generator subset and against the per-step
Gray loop it replaced, its chunk selector lanes against explicit Gray
codes, and its bit-sliced weights lane by lane against the weight of
each word; the m=1 exact distances are frozen fixtures computed by that
enumeration under the recorded field (modulus 0x7, basis (0x2, 0x3)).
"""

import contextlib
import dataclasses
import functools
import math
import random
import sys
import tracemalloc
import types
from collections import Counter
from itertools import chain, combinations, islice
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from stabcat import _distpure, distance
from stabcat.concat import get_expander
from stabcat.distance import (DistanceError, MAX_EXACT_RANK,
                              exact_distance, sampled_distance_upper,
                              verify_counting_claims)
from stabcat.field import build_field, find_self_dual_basis
from stabcat.symplectic import (Rref, in_span, row_reduce,
                                symplectic_weight_packed, xor_rows)


def brute_force_best(gens, n, s_rows):
    """Oracle: minimum (weight, index) over all generator combinations
    outside the stabilizer span, by explicit subset XOR."""
    s_span = Rref(s_rows)
    best = None
    for idx in range(1, 1 << len(gens)):
        gray = idx ^ (idx >> 1)
        x = 0
        for j in range(len(gens)):
            if (gray >> j) & 1:
                x ^= gens[j]
        if in_span(s_span, x):
            continue
        w = symplectic_weight_packed(x, n)
        if best is None or (w, idx) < best[:2]:
            best = (w, idx, x)
    return best if best is not None else (-1, -1, 0)


class TestGrayScanKernels:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(6, 16)
        ngens = rng.randrange(4, 11)
        _, gens = row_reduce(
            [rng.getrandbits(2 * n) for _ in range(ngens)])
        if not gens:
            pytest.skip("degenerate sample")
        # exclude the span of a strict subset of the generators
        _, s_rows = row_reduce(gens[: len(gens) // 2])
        expect = brute_force_best(gens, n, s_rows)
        got = _distpure.gray_scan(gens, n, Rref(s_rows), 0, 1 << len(gens))
        assert tuple(got) == tuple(expect)

    @pytest.mark.parametrize("seed", range(4))
    def test_partition_sweep_matches_full(self, seed):
        rng = random.Random(100 + seed)
        n = 10
        _, gens = row_reduce(
            [rng.getrandbits(2 * n) for _ in range(8)])
        s_span = Rref(row_reduce(gens[:2])[1])
        total = 1 << len(gens)
        full = _distpure.gray_scan(gens, n, s_span, 0, total)
        for parts in (2, 3, 5):
            best = None
            bounds = [total * i // parts for i in range(parts + 1)]
            for lo, hi in zip(bounds, bounds[1:]):
                w, idx, x = _distpure.gray_scan(gens, n, s_span, lo, hi)
                if w >= 0 and (best is None or (w, idx) < best[:2]):
                    best = (w, idx, x)
            assert best == tuple(full)


def stepwise_gray_scan(gens, n, s_span, start, stop):
    """Oracle: the per-step Gray scan that the chunked walk replaced,
    one row XOR and one weight per combination index, and the span test
    as a loop over the span's (pivot, row) pairs."""
    s_pivots = list(zip(s_span.pivots, s_span.rows))
    mask = (1 << n) - 1
    best_w = -1
    best_idx = -1
    best_x = 0
    x = xor_rows(gens, start ^ (start >> 1))
    idx = start
    while idx < stop:
        if idx != start:
            x ^= gens[(idx & -idx).bit_length() - 1]
        if idx != 0:
            w = ((x | (x >> n)) & mask).bit_count()
            if best_w < 0 or w < best_w:
                y = x
                for p, r in s_pivots:
                    if (y >> p) & 1:
                        y ^= r
                if y:
                    best_w = w
                    best_idx = idx
                    best_x = x
        idx += 1
    return best_w, best_idx, best_x


def chunks_met(ngens, chunk_bits, start, stop):
    """How many chunks of gray_chunks, whole or partial, meet [start, stop)."""
    bits = min(ngens, chunk_bits)
    return ((stop - 1) >> bits) - (start >> bits) + 1 if start < stop else 0


@contextlib.contextmanager
def chunk_test_spy():
    """Record, for every chunk gray_scan tests, whether it was skipped:
    whether no lane of it weighed less than the best weight so far."""
    outcomes = []
    real = _distpure.lightest

    def spy(planes, every, w, word, outside):
        outcomes.append(not _distpure.below(planes, w, every))
        return real(planes, every, w, word, outside)

    with mock.patch.object(_distpure, "lightest", spy):
        yield outcomes


@st.composite
def scan_cases(draw, max_n=12, max_gens=14):
    """Random generator lists (zero, all-ones and repeated rows allowed),
    an RREF span to exclude, an index range [start, stop) that may cut
    chunks anywhere, and a chunk width."""
    n = draw(st.integers(1, max_n))
    word = st.one_of(st.integers(0, (1 << (2 * n)) - 1),
                     st.just((1 << (2 * n)) - 1),  # weight n
                     st.just((1 << n) - 1))  # u all ones, v zero
    gens = draw(st.lists(word, min_size=0, max_size=max_gens))
    if draw(st.booleans()):  # exclude part of the generators' span
        s_rows = row_reduce(gens[:draw(st.integers(0, len(gens)))])[1]
    else:
        s_rows = row_reduce(draw(st.lists(word, max_size=6)))[1]
    total = 1 << len(gens)
    start = draw(st.integers(0, total - 1))
    stop = draw(st.integers(start, total))
    chunk_bits = draw(st.sampled_from((1, 2, 3, _distpure.CHUNK_BITS)))
    return gens, n, Rref(s_rows), start, stop, chunk_bits


class TestChunkedGrayScan:
    @settings(max_examples=400, deadline=None)
    @given(scan_cases())
    def test_matches_stepwise_scan(self, case):
        self.check_against_stepwise(*case)

    @settings(max_examples=150, deadline=None)
    @given(scan_cases(max_n=300, max_gens=8))
    def test_matches_stepwise_scan_wide(self, case):
        # weights above 255 take a ninth bit-sliced plane
        self.check_against_stepwise(*case)

    @staticmethod
    def check_against_stepwise(gens, n, s_span, start, stop, chunk_bits):
        with mock.patch.object(_distpure, "CHUNK_BITS", chunk_bits), \
                chunk_test_spy() as outcomes:
            got = _distpure.gray_scan(gens, n, s_span, start, stop)
        assert got == stepwise_gray_scan(gens, n, s_span, start, stop)
        # every chunk up to the end of the scan, whole or partial, went
        # through the chunk test; a weight-1 word ends the scan with its
        # chunk
        if got[0] == 1:
            size = 1 << min(len(gens), chunk_bits)
            stop = min(stop, (got[1] // size + 1) * size)
        assert len(outcomes) == chunks_met(len(gens), chunk_bits,
                                           start, stop)

    def test_weight_one_ends_the_scan(self, code_m1k0):
        # the witness is index 1, in the first chunk: that chunk alone
        # is tested (and walked), and none of the other 2^14 - 1 is
        gens = list(code_m1k0.n_matrix)
        with chunk_test_spy() as outcomes:
            w, idx, word = _distpure.gray_scan(
                gens, code_m1k0.n, code_m1k0.s_span, 0, 1 << len(gens))
        assert (w, idx) == (1, 1)
        assert word == gens[0]
        assert outcomes == [False]

    @pytest.mark.parametrize("chunk_bits", [1, 2, 3, 10])
    def test_chunks_skipped_on_a_code(self, code_m1k1, chunk_bits):
        gens = list(code_m1k1.n_matrix)
        s_span = code_m1k1.s_span
        n = code_m1k1.n
        stop = 1 << 16
        with mock.patch.object(_distpure, "CHUNK_BITS", chunk_bits), \
                chunk_test_spy() as outcomes:
            got = _distpure.gray_scan(gens, n, s_span, 0, stop)
        assert got == stepwise_gray_scan(gens, n, s_span, 0, stop)
        assert len(outcomes) == stop >> chunk_bits
        assert 0 < sum(outcomes) < len(outcomes)

    @pytest.mark.parametrize("bits", range(_distpure.CHUNK_BITS + 1))
    def test_gray_lanes(self, bits):
        # over unit rows in the u half the chunk table lists the Gray
        # code itself, so position j's u column is the selector lane of
        # row j: bit l is bit j of l ^ (l >> 1)
        carries = _distpure.chunk_carries(
            tuple(1 << j for j in range(bits)), bits)
        lanes = [u for (u, _), _ in carries]
        assert len(lanes) == bits
        for j, lane in enumerate(lanes):
            assert lane == sum(((l ^ (l >> 1)) >> j & 1) << l
                               for l in range(1 << bits))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_chunk_carries(self, data):
        # n = 1 and any number of low rows up to CHUNK_BITS; rows may
        # repeat or be zero
        n = data.draw(st.sampled_from((1, 1, 2, 5, 13)))
        bits = data.draw(st.integers(0, _distpure.CHUNK_BITS))
        low_rows = tuple(data.draw(st.lists(
            st.integers(0, (1 << (2 * n)) - 1), min_size=bits,
            max_size=bits)))
        words = [xor_rows(low_rows, l ^ (l >> 1)) for l in range(1 << bits)]
        want = []
        for j in range(n):
            pairs = [(x >> j & 1, x >> (n + j) & 1) for x in words]

            def lanes(bit):  # lane l set where word l's (u_j, v_j) pass
                return sum(bit(u, v) << l for l, (u, v) in enumerate(pairs))

            want.append(((lanes(lambda u, v: u | v),
                          lanes(lambda u, v: u | 1 - v)),
                         (lanes(lambda u, v: 1 - u | v),
                          lanes(lambda u, v: 1 - (u & v)))))
        assert _distpure.chunk_carries(low_rows, n) == want

    @pytest.mark.parametrize("chunk_bits", [1, 3, 10])
    def test_chunks_list_every_index_once(self, chunk_bits):
        rows = [1 << j for j in range(7)]  # word at idx is gray(idx)
        with mock.patch.object(_distpure, "CHUNK_BITS", chunk_bits):
            for start, stop in ((0, 128), (5, 6), (3, 77), (64, 128)):
                words = []
                for first, high, low in _distpure.gray_chunks(
                        rows, start, stop):
                    assert first == start + len(words)
                    words += [high ^ t for t in low]
                assert words == [i ^ (i >> 1) for i in range(start, stop)]

    def test_one_walk_for_any_part_count(self, code_m1k1):
        # a part count splits the index range, not the walk: one
        # gray_scan covers [0, 2^r) and the report differs from the
        # whole scan's in its parts field alone
        base = exact_distance(code_m1k1, parts=1)
        total = 1 << code_m1k1.rank_n
        for parts in (1, 8, total):
            with mock.patch.object(_distpure, "gray_scan",
                                   wraps=_distpure.gray_scan) as spy:
                rep = exact_distance(code_m1k1, parts=parts)
            assert spy.call_count == 1
            assert spy.call_args.args[3:] == (0, total)
            assert rep == base._replace(parts=parts)


class TestExactDistance:
    def test_m1k1_fixture(self, code_m1k1):
        # Frozen from the full 2^20 enumeration: minimum weight 2 with
        # first witness u = bit 0 + bit 16, v = 0 (an XX-type logical).
        rep = exact_distance(code_m1k1)
        assert rep.method == "exact"
        assert rep.d == 2
        assert rep.d >= code_m1k1.big_k + 1
        assert rep.witness.packed() == 0x10001
        assert rep.enumerated == 1 << 20

    def test_witness_validated(self, code_m1k1):
        rep = exact_distance(code_m1k1)
        w = rep.witness.packed()
        assert in_span(code_m1k1.n_span, w)
        assert not in_span(code_m1k1.s_span, w)
        assert symplectic_weight_packed(w, code_m1k1.n) == rep.d
        assert w != 0

    def test_m1k0_fixture(self, code_m1k0):
        rep = exact_distance(code_m1k0, parts=8)
        assert rep.d == 1
        assert rep.d >= 1

    @pytest.mark.parametrize("parts", [4096, 1 << 24])
    def test_weight_one_ends_the_parts(self, code_m1k0, parts):
        # the witness is index 1: the scan ends with its chunk, and no
        # part gets a scan of its own
        base = exact_distance(code_m1k0, parts=1)
        gray_scan = _distpure.gray_scan

        def scan(*args):
            # fail at the third call rather than record 2^24 of them
            assert spy.call_count <= 2, "a part after weight 1 was scanned"
            return gray_scan(*args)

        with mock.patch.object(_distpure, "gray_scan", wraps=scan) as spy:
            rep = exact_distance(code_m1k0, parts=parts)
        assert spy.call_count <= 2
        assert rep == base._replace(parts=parts)

    @pytest.mark.parametrize("parts", [1, 2, 3, 8, 4096, 1 << 20])
    def test_partition_invariance(self, code_m1k1, parts):
        base = exact_distance(code_m1k1, parts=1)
        rep = exact_distance(code_m1k1, parts=parts)
        assert (rep.d, rep.witness) == (base.d, base.witness)

    def test_budget_refusal(self, code_m2k3):
        assert code_m2k3.rank_n > MAX_EXACT_RANK
        with pytest.raises(DistanceError, match="sampled"):
            exact_distance(code_m2k3)

    def test_summary_line(self, code_m1k1):
        line = exact_distance(code_m1k1).summary_line()
        assert line == ("d=2 witness_weight=2 enumerated=1048576 "
                        "method=exact seed=0")


class TestSampledDistance:
    def test_m2k3_regression(self, code_m2k3):
        # Regression value for seed 0, not ground truth.
        rep = sampled_distance_upper(code_m2k3, trials=10 ** 5, seed=0)
        assert rep.method == "sampled"
        assert rep.d == 83
        assert rep.d >= code_m2k3.big_k + 1
        assert rep.enumerated == 10 ** 5

    def test_deterministic_per_seed(self, code_m2k3):
        r1 = sampled_distance_upper(code_m2k3, trials=500, seed=0)
        r2 = sampled_distance_upper(code_m2k3, trials=500, seed=0)
        assert (r1.d, r1.witness) == (r2.d, r2.witness)
        r3 = sampled_distance_upper(code_m2k3, trials=500, seed=1)
        assert r3.d >= code_m2k3.big_k + 1

    def test_prefix_monotonicity(self, code_m2k3):
        prev = None
        for trials in (200, 1000, 5000):
            rep = sampled_distance_upper(code_m2k3, trials=trials, seed=0)
            if prev is not None:
                assert rep.d <= prev
            prev = rep.d

    def test_upper_bounds_exact(self, code_m1k1):
        exact = exact_distance(code_m1k1)
        for seed in range(5):
            rep = sampled_distance_upper(code_m1k1, trials=300, seed=seed)
            assert rep.d >= exact.d

    def test_witness_validated(self, code_m2k3):
        rep = sampled_distance_upper(code_m2k3, trials=200, seed=2)
        w = rep.witness.packed()
        assert in_span(code_m2k3.n_span, w)
        assert not in_span(code_m2k3.s_span, w)
        assert symplectic_weight_packed(w, code_m2k3.n) == rep.d

    def test_bad_trials(self, code_m1k1):
        with pytest.raises(DistanceError):
            sampled_distance_upper(code_m1k1, trials=0, seed=0)

    def test_m3k10_memory(self, code_m3k10):
        """A batch holds its lanes and one draw.  Traced peaks of 20,000
        draws at m=3 K=10 (rank N = 1,140): 977 KB for one-shot draws
        of 2,048 trials, which held a batch's random int and its bytes,
        then those bytes and the lanes; 934 KB for 4,096 trials streamed
        into their lanes, which take 0.65 MB.  The column plan is
        traced in both."""
        code = code_m3k10
        code.s_span.rows, code.n_span.rows  # canonical before tracing
        tracemalloc.start()
        try:
            rep = sampled_distance_upper(code, trials=20000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.d == 593
        assert peak < 977_000, peak


def one_shot_sampler(code, trials, seed):
    """Oracle: the sampler as a trial-by-trial loop, one xor_rows per
    trial; returns (d, witness word, trials enumerated, stabilizer span
    tests made), with d and the witness None when no sample left S."""
    rng = random.Random(seed)
    r = code.rank_n
    gens = code.n_matrix
    s_span = code.s_span
    best = None  # (w, trial, word)
    tests = 0
    for trial in range(trials):
        x = xor_rows(gens, rng.getrandbits(r))
        if best is not None and \
                symplectic_weight_packed(x, code.n) >= best[0]:
            continue
        tests += 1
        if in_span(s_span, x):
            continue
        w = symplectic_weight_packed(x, code.n)
        if best is None or w < best[0]:
            best = (w, trial, x)
    if best is None:
        return None, None, trials, tests
    return best[0], best[2], trials, tests


def counted_sampler(code, trials, seed):
    """The sampler's (d, witness word, trials enumerated, stabilizer
    span tests made), in the oracle's form; ``in_span`` is counted as the
    benchmark's layer trace counts it, less the two witness checks."""
    calls = []

    def counting(span, x):
        calls.append(span)
        return in_span(span, x)

    with mock.patch.object(distance, "in_span", counting):
        try:
            rep = sampled_distance_upper(code, trials=trials, seed=seed)
        except DistanceError:
            return None, None, trials, len(calls)
    assert calls[-2:] == [code.n_span, code.s_span]  # _validate_witness
    return rep.d, rep.witness.packed(), rep.enumerated, len(calls) - 2


@dataclasses.dataclass
class RowsCode:
    """What the sampler reads of a code, over any normalizer row list."""

    n: int
    n_matrix: tuple
    s_span: Rref
    n_span: Rref
    block_width = 1  # any width gives the same columns

    @property
    def rank_n(self):
        return len(self.n_matrix)


@st.composite
def row_codes(draw):
    """Rows that are rarely canonical (dependent, repeated or zero rows
    included), with a stabilizer spanned by a prefix of them; the ranks
    sit on either side of the 32-bit word boundaries of a draw."""
    r = draw(st.sampled_from([0, 1, 2, 7, 8, 9, 20, 31, 32, 33, 63, 64,
                              65, 95, 96, 97]))
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.integers(0, (1 << (2 * n)) - 1),
                         min_size=r, max_size=r))
    s = draw(st.integers(0, r))
    return RowsCode(n=n, n_matrix=tuple(rows),
                    s_span=Rref(row_reduce(rows[:s])[1]),
                    n_span=Rref(row_reduce(rows)[1]))


BATCH = _distpure.BATCH
DRAW = _distpure.DRAW
#: trial counts at the edges of the batches and of the draws within one
EDGES = [1, 8 * DRAW - 1, 8 * DRAW, 8 * DRAW + 1, BATCH - 1, BATCH,
         BATCH + 1, BATCH + 3, 2 * BATCH + 3]


class TestSamplerOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_draws_as_one_shot_loop(self, code_m1k1, code_m2k3, seed):
        for code in (code_m1k1, code_m2k3):
            for trials in (500, 2 * BATCH + 3):
                assert counted_sampler(code, trials, seed) == \
                    one_shot_sampler(code, trials, seed)

    @pytest.mark.parametrize("trials", EDGES)
    def test_batch_edges(self, code_m1k1, code_m2k3, trials):
        for code in (code_m1k1, code_m2k3):
            assert counted_sampler(code, trials, 7) == \
                one_shot_sampler(code, trials, 7)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(code=row_codes(),
           trials=st.sampled_from([1, 3, 64, BATCH - 1, BATCH + 1]),
           seed=st.integers(0, 3))
    def test_any_rows(self, code, trials, seed):
        assert counted_sampler(code, trials, seed) == \
            one_shot_sampler(code, trials, seed)

    @pytest.mark.parametrize("r", [0, 1, 5, 8, 31, 32, 33, 63, 64, 65,
                                   100, 186])
    def test_bulk_draw_is_per_trial_draws(self, r):
        one, bulk = random.Random(r), random.Random(r)
        want = [one.getrandbits(r) for _ in range(37)]
        buf = _distpure.draw(bulk, r, 37)
        assert bulk.getstate() == one.getstate()
        lanes = _distpure.lane_vectors(buf, r)
        assert lanes == [sum((sel >> i & 1) << t
                             for t, sel in enumerate(want))
                         for i in range(r)]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(r=st.one_of(st.integers(0, 200), st.sampled_from(
               [32 * k + e for k in range(7) for e in (0, 1, 31)])),
           trials=st.sampled_from([1, 7, DRAW - 1, DRAW, DRAW + 1,
                                   BATCH - 1, BATCH, BATCH + 1,
                                   BATCH + DRAW + 1]),
           seed=st.integers(0, 3),
           lanes_per=st.sampled_from([BATCH, DRAW, 8]))
    def test_streamed_batches_are_one_shot_draws(self, r, trials, seed,
                                                 lanes_per):
        # each batch's lanes are those of one draw of all its trials,
        # and the generator ends where per-trial draws leave it, for
        # the sampler's batches and sampled counting's (one draw each)
        made = []

        class Spy(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        with mock.patch.object(_distpure, "random",
                               types.SimpleNamespace(Random=Spy)):
            got = list(_distpure.batches(seed, r, trials, lanes_per))
        one = random.Random(seed)
        want = []
        for first in range(0, trials, lanes_per):
            count = min(lanes_per, trials - first)
            want.append((first, count, _distpure.lane_vectors(
                _distpure.draw(one, r, count), r)))
        assert got == want
        per_trial = random.Random(seed)
        for _ in range(trials):
            per_trial.getrandbits(r)
        assert [rng.getstate() for rng in made] == [per_trial.getstate()]

    @given(weights=st.lists(st.integers(0, 40), min_size=1, max_size=40),
           w=st.integers(0, 70))
    def test_bit_sliced_weights(self, weights, w):
        # one lane per weight: lane t has weights[t] positions set
        n = 40
        columns = [sum(int(j < wt) << t for t, wt in enumerate(weights))
                   for j in range(n)] + [0] * n
        planes = _distpure.weight_planes(
            columns, [[c] for c in range(2 * n)], n)
        every = (1 << len(weights)) - 1
        assert [sum((p >> t & 1) << k for k, p in enumerate(planes))
                for t in range(len(weights))] == weights
        assert _distpure.below(planes, w, every) == \
            sum(1 << t for t, wt in enumerate(weights) if wt < w)

    @pytest.mark.parametrize("trials", EDGES)
    def test_sampled_counting_unchanged(self, code_m1k1, code_m2k3,
                                        trials):
        # the counting check takes the sampler's draws, a batch at a time
        for code in (code_m1k1, code_m2k3):
            got = verify_counting_claims(code, mode="sampled",
                                         trials=trials, seed=7)
            assert got == count_claims(
                code, "sampled", in_span_samples(code, trials, 7), 7)


def designated_tuple(exp, i, b_bits, c_bits):
    """Oracle: the quaternary (2m+1)-tuple of block i's designated half,
    entry j = b-bit j + 2 c-bit j, or None for a zero symbol pair; read
    from the input bits of ``invert_block``."""
    m = exp.m
    tag = exp.invert_block(i, b_bits, c_bits)
    a_i, a_ni = tag & ((1 << 2 * m) - 1), (tag >> 2 * m) & ((1 << 2 * m) - 1)
    if not (a_i or a_ni):
        return None
    off = 0 if (a_i | a_ni) & ((1 << m) - 1) else 2 * m + 1
    return tuple((b_bits >> p & 1) + 2 * (c_bits >> p & 1)
                 for p in range(off, off + 2 * m + 1))


def examine(code, word, memo, exp):
    """Oracle: (nonzero blocks, distinct designated tuples, max
    multiplicity) of one word, by a loop over its blocks with a
    (block, u-bits, v-bits) memo; the per-word loop the class tables
    replaced."""
    w = exp.block_width
    mask = (1 << w) - 1
    u = word & ((1 << code.n) - 1)
    v = word >> code.n
    nonzero = 0
    counts = {}
    for i in range(code.big_n):
        ub = (u >> (i * w)) & mask
        vb = (v >> (i * w)) & mask
        if not (ub | vb):
            continue
        nonzero += 1
        key = (i, ub, vb)
        if key not in memo:
            memo[key] = designated_tuple(exp, i, ub, vb)
        tup = memo[key]
        if tup is not None:
            counts[tup] = counts.get(tup, 0) + 1
    if counts:
        return nonzero, len(counts), max(counts.values())
    return nonzero, 0, 0


def count_claims(code, mode, words, seed):
    """Oracle: the counting report tallied word by word over ``words``
    (codewords of N \\ S), the first 8 violations in order."""
    exp = get_expander(code.field, code.basis)
    blocks_thr, distinct_thr, mult_thr = thresholds(code)
    memo = {}
    examined = 0
    min_blocks = min_distinct = code.big_n + 1
    max_mult = 0
    violations = []
    for word in words:
        nb, nd, mm = examine(code, word, memo, exp)
        examined += 1
        min_blocks = min(min_blocks, nb)
        min_distinct = min(min_distinct, nd)
        max_mult = max(max_mult, mm)
        if (nb < blocks_thr or nd < distinct_thr or mm > mult_thr) and \
                len(violations) < 8:
            violations.append({"word": word, "nonzero_blocks": nb,
                               "distinct_tuples": nd, "multiplicity": mm})
    return claims_report(code, mode, examined,
                         (min_blocks, min_distinct, max_mult), violations,
                         seed)


def thresholds(code):
    """(blocks, distinct, multiplicity) thresholds of the claims."""
    return (code.big_k + 1, math.ceil((code.big_k + 1) / (1 << code.m)),
            1 << code.m)


def claims_report(code, mode, examined, extremes, violations, seed):
    """The CountingReport of (min blocks, min distinct, max mult)."""
    min_blocks, min_distinct, max_mult = extremes
    blocks_thr, distinct_thr, mult_thr = thresholds(code)
    return distance.CountingReport(
        mode=mode, examined=examined,
        claim_blocks=min_blocks >= blocks_thr,
        claim_distinct=min_distinct >= distinct_thr,
        claim_mult=max_mult <= mult_thr,
        min_nonzero_blocks=min_blocks,
        min_distinct_tuples=min_distinct,
        max_multiplicity=max_mult,
        blocks_threshold=blocks_thr,
        distinct_threshold=distinct_thr,
        mult_threshold=mult_thr,
        seed=seed, violations=violations)


def in_span_walk(code):
    """Oracle: the exhaustive counting walk before the residue-carrying
    rows, one row XOR and one in_span test per combination index."""
    gens = code.n_matrix
    x = 0
    for idx in range(1, 1 << code.rank_n):
        x ^= gens[(idx & -idx).bit_length() - 1]
        if not in_span(code.s_span, x):
            yield x


def residue_walk(code):
    """The words of N \\ S in Gray order, as one chunked walk over rows
    carrying their stabilizer residue (equal to ``in_span_walk``, which
    takes ten times as long)."""
    shift = 2 * code.n
    rows = [x | (code.s_span.reduce(x) << shift) for x in code.n_matrix]
    for _first, high, low in _distpure.gray_chunks(rows, 0,
                                                   1 << code.rank_n):
        for z in map(high.__xor__, low):
            if z >> shift:
                yield z & ((1 << shift) - 1)


def in_span_samples(code, trials, seed):
    """Oracle: the sampled counting draws with an in_span test each."""
    rng = random.Random(seed)
    for _ in range(trials):
        x = xor_rows(code.n_matrix, rng.getrandbits(code.rank_n))
        if not in_span(code.s_span, x):
            yield x


class TestCountingOracle:
    def test_exhaustive_m1k1(self, code_m1k1):
        got = verify_counting_claims(code_m1k1, mode="exhaustive")
        assert got == count_claims(
            code_m1k1, "exhaustive", in_span_walk(code_m1k1), None)
        assert got.examined == 983040

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled(self, code_m1k1, code_m2k3, seed):
        for code in (code_m1k1, code_m2k3):
            got = verify_counting_claims(code, mode="sampled", trials=500,
                                         seed=seed)
            assert got == count_claims(
                code, "sampled", in_span_samples(code, 500, seed), seed)

    def test_sampled_m3(self, code_m3k10):
        # N = 63 blocks, the most that any test's signatures carry
        got = verify_counting_claims(code_m3k10, mode="sampled",
                                     trials=500, seed=0)
        assert got == count_claims(
            code_m3k10, "sampled", in_span_samples(code_m3k10, 500, 0), 0)


def constant_half(exp, i, b_bits, c_bits):
    """Stand-in for designated_half: every block the same half."""
    return 5


def constant_tuple(exp, i, b_bits, c_bits):
    """The oracle's stand-in for designated_tuple under constant_half."""
    return (1,) * (2 * exp.m + 1)


# Forced violations: a K above the code's own raises the block and
# distinct-tuple thresholds; one constant half for every block makes a
# single tuple repeat in every nonzero block.
FORCED = {
    "blocks": (True, False),
    "constant": (False, True),
    "blocks+constant": (True, True),
}


def forced_case(code, case, monkeypatch):
    """The code with the case's K (m=1: K=2; m=2: K=15), and the
    constant half patched into both the check and the oracle."""
    raise_k, constant = FORCED[case]
    if raise_k:
        code = code._replace(big_k=2 if code.m == 1 else 15)
    if constant:
        monkeypatch.setattr(distance, "designated_half", constant_half)
        monkeypatch.setattr(sys.modules[__name__], "designated_tuple",
                            constant_tuple)
    return code


class TestCountingViolations:
    # between them these two cases fail all three claims at m=1
    @pytest.mark.parametrize("case", ["blocks", "blocks+constant"])
    def test_exhaustive(self, code_m1k1, case, monkeypatch):
        code = forced_case(code_m1k1, case, monkeypatch)
        got = verify_counting_claims(code, mode="exhaustive")
        assert got == count_claims(code, "exhaustive", residue_walk(code),
                                   None)
        assert got.examined == 983040
        assert len(got.violations) == 8

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("case", FORCED)
    def test_sampled(self, code_m1k1, code_m2k3, case, seed, monkeypatch):
        for code in (code_m1k1, code_m2k3):
            code = forced_case(code, case, monkeypatch)
            got = verify_counting_claims(code, mode="sampled", trials=300,
                                         seed=seed)
            assert got == count_claims(
                code, "sampled", in_span_samples(code, 300, seed), seed)
            assert got.violations

    @pytest.mark.parametrize("case", FORCED)
    def test_sampled_unseeded(self, code_m1k1, code_m2k3, case,
                              monkeypatch):
        # with seed=None each listed word must be a draw whose own
        # outcome violates a claim, and the aggregates must cover it.
        # About 1.4 % of m=1 "blocks" draws violate, so 300 draws miss
        # every one about 1.5 % of the time; 2000 miss with odds ~1e-12
        for code in (code_m1k1, code_m2k3):
            code = forced_case(code, case, monkeypatch)
            got = verify_counting_claims(code, mode="sampled", trials=2000)
            assert not got.passed
            assert 1 <= len(got.violations) <= 8
            exp = get_expander(code.field, code.basis)
            for v in got.violations:
                word = v["word"]
                assert in_span(code.n_span, word)
                assert not in_span(code.s_span, word)
                nb, nd, mm = examine(code, word, {}, exp)
                assert (v["nonzero_blocks"], v["distinct_tuples"],
                        v["multiplicity"]) == (nb, nd, mm)
                assert (nb < got.blocks_threshold
                        or nd < got.distinct_threshold
                        or mm > got.mult_threshold)
                assert got.min_nonzero_blocks <= nb
                assert got.min_distinct_tuples <= nd
                assert got.max_multiplicity >= mm

    def test_every_claim_fails_somewhere(self, code_m1k1, monkeypatch):
        failed = set()
        for case in FORCED:
            with monkeypatch.context() as mp:
                code = forced_case(code_m1k1, case, mp)
                rep = verify_counting_claims(code, mode="sampled",
                                             trials=300, seed=0)
            failed |= {name for name in ("blocks", "distinct", "mult")
                       if not getattr(rep, f"claim_{name}")}
        assert failed == {"blocks", "distinct", "mult"}


def tally_counting(code):
    """Oracle: the exhaustive check before the block-local decomposition.

    Every word of N gets its signature, its outside-S flag and tuple of
    block classes, from the class tables by
    ``distance._walk_signatures``; the signatures are tallied and the
    claims evaluated once per distinct signature, and only when one
    violates a claim does a second walk list the first 8 such words.
    """
    shift = 2 * code.n
    rows = [x | (code.s_span.reduce(x) << shift) for x in code.n_matrix]
    r = code.rank_n
    exp = get_expander(code.field, code.basis)
    tables = distance.class_tables(exp)
    blocks_thr, distinct_thr, mult_thr = thresholds(code)

    def violates(outcome):
        nb, nd, mm = outcome
        return nb < blocks_thr or nd < distinct_thr or mm > mult_thr

    tally = Counter(chain.from_iterable(
        distance._walk_signatures(exp, tables, rows, r)))
    examined = 0
    min_blocks = min_distinct = code.big_n + 1
    max_mult = 0
    bad = set()
    for (out, cls), count in tally.items():
        if not out:
            continue
        outcome = nb, nd, mm = distance.outcome(cls)
        examined += count
        min_blocks = min(min_blocks, nb)
        min_distinct = min(min_distinct, nd)
        max_mult = max(max_mult, mm)
        if violates(outcome):
            bad.add(cls)
    violations = []
    if bad:
        words = chain.from_iterable(
            map(high.__xor__, low)
            for _f, high, low in _distpure.gray_chunks(rows, 0, 1 << r))
        sigs = chain.from_iterable(
            distance._walk_signatures(exp, tables, rows, r))
        listed = ((word, cls) for word, (out, cls) in zip(words, sigs)
                  if out and cls in bad)
        for word, cls in islice(listed, 8):
            nb, nd, mm = distance.outcome(cls)
            violations.append({"word": word & ((1 << shift) - 1),
                               "nonzero_blocks": nb, "distinct_tuples": nd,
                               "multiplicity": mm})
    return claims_report(code, "exhaustive", examined,
                         (min_blocks, min_distinct, max_mult), violations,
                         None)


def block_local_bases(code):
    """Oracle: per block, the canonical RREF of the stabilizer words
    that vanish outside it, found by walking all 2^rank(S) words."""
    w = 4 * code.m + 2
    mask = (1 << w) - 1
    outside = [~((mask << (i * w)) | (mask << (code.n + i * w)))
               for i in range(code.big_n)]
    spans = [Rref() for _ in outside]
    for _f, high, low in _distpure.gray_chunks(list(code.s_matrix), 0,
                                               1 << code.rank_s):
        for x in map(high.__xor__, low):
            for out, span in zip(outside, spans):
                if x and not x & out:
                    span.add(x)
    return [span.rows for span in spans]


def cut_stabilizer(code, keep):
    """The code with S cut to C + span(keep), where C is a complement in
    S of the block-local words and ``keep`` some of those words."""
    local = Rref()
    for t in chain.from_iterable(block_local_bases(code)):
        local.add(t)
    complement = [x for x in code.s_matrix if local.add(x)]
    return code._replace(
        s_matrix=tuple(row_reduce(complement + keep)[1]))


# which block-local words (per-block bases) a cut stabilizer keeps
CUTS = {
    "all": lambda bases: [],
    "some": lambda bases: bases[0] + bases[1][:1],
}


@pytest.fixture(scope="module")
def cut_codes(code_m1k1):
    bases = block_local_bases(code_m1k1)
    return {name: cut_stabilizer(code_m1k1, keep(bases))
            for name, keep in CUTS.items()}


class TestBlockLocalDecomposition:
    def test_exhaustive_m1k0(self, code_m1k0):
        rep = verify_counting_claims(code_m1k0, mode="exhaustive")
        assert rep.examined == 16773120
        assert (rep.min_nonzero_blocks, rep.min_distinct_tuples,
                rep.max_multiplicity) == (1, 1, 2)
        assert (rep.blocks_threshold, rep.distinct_threshold,
                rep.mult_threshold) == (1, 1, 2)
        assert rep.passed
        assert not rep.violations

    def test_block_local_words(self, code_m1k1, cut_codes):
        dims = []
        for code in (code_m1k1, *cut_codes.values()):
            shift = 2 * code.n
            rows = [x | (code.s_span.reduce(x) << shift)
                    for x in code.n_matrix]
            local = distance.block_local(rows, code.expander)
            want = block_local_bases(code)
            assert [row_reduce(words)[1] for words in local] == want
            dims.append([len(b) for b in want])
        assert dims == [[4, 4, 4], [0, 0, 0], [4, 1, 0]]

    def test_coset_class_sets(self, code_m1k1):
        # each key's set is the classes of every key of its coset, the
        # coset spanned by brute force from the block-local words
        code = code_m1k1
        exp = code.expander
        tables = distance.class_tables(exp)
        rows = [x | (code.s_span.reduce(x) << (2 * code.n))
                for x in code.n_matrix]
        cosets = distance.coset_tables(exp, tables,
                                       distance.block_local(rows, exp))
        for i, basis in enumerate(block_local_bases(code)):
            local = {0}
            n_keys = {0}
            for t in basis:
                local |= {k ^ exp.key(t, i) for k in local}
            for x in code.n_matrix:
                n_keys |= {k ^ exp.key(x, i) for k in n_keys}
            table, coset_table = tables[i], cosets[i]
            for key in n_keys:
                want = {table(key ^ t) for t in local}
                assert coset_table(key) == want

    @pytest.mark.parametrize("case", [None, *FORCED])
    @pytest.mark.parametrize("cut", CUTS)
    def test_cut_stabilizer(self, cut_codes, cut, case, monkeypatch):
        code = cut_codes[cut]
        if case is not None:
            code = forced_case(code, case, monkeypatch)
        got = verify_counting_claims(code, mode="exhaustive")
        assert got == tally_counting(code)
        # the words of S outside the cut span fail the block claim
        assert not got.claim_blocks
        assert len(got.violations) == 8

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 5), max_size=4),
                    max_size=5))
    @example([])
    @example([frozenset()])
    @example([frozenset({3})])
    @example([frozenset({1}), frozenset()])
    def test_min_hitting_set(self, sets):
        universe = sorted(frozenset().union(*sets))
        want = next((k for k in range(len(universe) + 1)
                     if any(all(s.intersection(h) for s in sets)
                            for h in combinations(universe, k))),
                    math.inf)
        assert distance.min_hitting_set(sets) == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=8).map(tuple))
    @example(())
    @example((0, 1, 0))
    @example((2, 2, 3, 1, 0, 2))
    def test_coset_outcome_of_single_classes(self, classes):
        # a word whose every block has one class is its own coset: the
        # extremes over its class sets are the word's own outcome
        sets = tuple(frozenset({c}) for c in classes)
        assert distance.coset_outcome(sets) == distance.outcome(classes)


@st.composite
def block_inputs(draw, exp):
    """(block, a_i, a_{N+i}, s_i, t_i) for a random block of ``exp``."""
    bits = st.tuples(*[st.integers(0, 1)] * (exp.m + 1))
    symbol = st.integers(0, exp.field.order - 1)
    return (draw(st.integers(0, exp.n_blocks - 1)), draw(symbol),
            draw(symbol), draw(bits), draw(bits))


@functools.cache
def expander(m):
    f = build_field(2 * m)
    return get_expander(f, find_self_dual_basis(f))


class TestClassTables:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_ids_decode_to_designated_tuples(self, data):
        exp = expander(data.draw(st.sampled_from((1, 2))))
        tables = distance.class_tables(exp)
        w = exp.block_width
        half = 2 * exp.m + 1
        ids = {}  # designated tuple -> class, across blocks
        for _ in range(data.draw(st.integers(1, 24))):
            i, a_i, a_ni, s_i, t_i = data.draw(block_inputs(exp))
            b, c = exp.expand_block(i, a_i, a_ni, s_i, t_i)
            table = tables[i]
            cid = table(b | (c << w))
            # one class per quaternary (2m+1)-tuple, after 0 and 1
            assert 0 <= cid < 2 + 4 ** half
            tup = designated_tuple(exp, i, b, c)
            if not (a_i or a_ni or any(s_i) or any(t_i)):
                assert cid == 0
            elif tup is None:
                assert not (a_i or a_ni)
                assert cid == 1
            else:
                # the id is 2 + the half's b-bits, then its c-bits
                h = cid - 2
                assert tuple((h >> j & 1) + 2 * (h >> (half + j) & 1)
                             for j in range(half)) == tup
                assert ids.setdefault(tup, cid) == cid

    def test_signature_matches_walk(self, code_m1k1):
        # the zipped per-block walks (exhaustive mode) give each word the
        # signature of a loop over its blocks: its outside-S flag and the
        # tuple of its block classes
        shift = 2 * code_m1k1.n
        rows = [x | (code_m1k1.s_span.reduce(x) << shift)
                for x in code_m1k1.n_matrix]
        exp = code_m1k1.expander
        tables = distance.class_tables(exp)

        def signature(x):
            return (x >> shift != 0,
                    tuple(table(exp.key(x, i))
                          for i, table in enumerate(tables)))

        walked = list(chain.from_iterable(
            distance._walk_signatures(exp, tables, rows, 12)))
        words = chain.from_iterable(
            map(high.__xor__, low)
            for _f, high, low in _distpure.gray_chunks(rows, 0, 1 << 12))
        assert walked == list(map(signature, words))
        assert len(walked) == 1 << 12


class TestCountingClaims:
    def test_m1k1_sampled_quick(self, code_m1k1):
        rep = verify_counting_claims(code_m1k1, mode="sampled",
                                     trials=2000, seed=1)
        assert rep.passed
        assert rep.blocks_threshold == 2
        assert rep.distinct_threshold == 1
        assert rep.mult_threshold == 2
        assert rep.examined <= 2000
        assert not rep.violations

    def test_m2k3_sampled_quick(self, code_m2k3):
        rep = verify_counting_claims(code_m2k3, mode="sampled",
                                     trials=2000, seed=3)
        assert rep.passed
        assert rep.blocks_threshold == 4
        assert rep.mult_threshold == 4

    def test_m3k10_sampled_memory_flat(self, code_m3k10, monkeypatch):
        # at m=3 the class tables are not cached: a cache of every key
        # seen grew by 63 entries a draw and almost never hit.  Batches
        # of 128 draws keep the traced runs short; the batches are
        # freed as they go, so three take no more than one
        monkeypatch.setattr(_distpure, "DRAW", 128)
        # the block maps' inversion spans, kept by the expander
        verify_counting_claims(code_m3k10, "sampled", trials=8, seed=0)
        peaks = []
        for trials in (128, 3 * 128):
            tracemalloc.start()
            try:
                verify_counting_claims(code_m3k10, "sampled",
                                       trials=trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 20_000, peaks

    def test_m3k10_sampled_peak(self, code_m3k10):
        # batches of one draw: at 4,096-draw batches the whole keys of a
        # batch and their transposition took 4.42 MB.  The residue plan is
        # built only as far as the early stops read it: 1.13 MB with
        # Python 3.10 and 3.11, where the whole plan took 1.31
        verify_counting_claims(code_m3k10, "sampled", trials=8, seed=0)
        tracemalloc.start()
        try:
            rep = verify_counting_claims(code_m3k10, "sampled",
                                         trials=4096, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.examined, rep.min_nonzero_blocks,
                rep.min_distinct_tuples, rep.max_multiplicity,
                rep.passed) == (4096, 63, 60, 2, True)
        assert peak < 1_200_000, peak

    def test_exhaustive_budget(self, code_m2k3):
        with pytest.raises(DistanceError):
            verify_counting_claims(code_m2k3, mode="exhaustive")

    def test_bad_mode(self, code_m1k1):
        with pytest.raises(DistanceError):
            verify_counting_claims(code_m1k1, mode="nope")
