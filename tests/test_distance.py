"""Distance search tests: kernel oracle, fixtures, and counting claims.

The Gray-scan kernel is checked against a brute-force oracle that
XORs every explicit generator subset; the m=1 exact distances are
frozen fixtures computed by that enumeration under the recorded field
(modulus 0x7, basis (0x2, 0x3)).
"""

import random

import pytest

from stabcat import _distpure
from stabcat.distance import (DistanceError, MAX_EXACT_RANK,
                              exact_distance, sampled_distance_upper,
                              verify_counting_claims)
from stabcat.symplectic import (in_span, row_reduce,
                                symplectic_weight_packed)


def brute_force_best(gens, n, s_rows):
    """Oracle: minimum (weight, index) over all generator combinations
    outside the stabilizer span, by explicit subset XOR."""
    best = None
    for idx in range(1, 1 << len(gens)):
        gray = idx ^ (idx >> 1)
        x = 0
        for j in range(len(gens)):
            if (gray >> j) & 1:
                x ^= gens[j]
        if in_span(s_rows, x):
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
            [rng.getrandbits(2 * n) for _ in range(ngens)], 2 * n)
        if not gens:
            pytest.skip("degenerate sample")
        # exclude the span of a strict subset of the generators
        _, s_rows = row_reduce(gens[: len(gens) // 2], 2 * n)
        expect = brute_force_best(gens, n, s_rows)
        got = _distpure.gray_scan(gens, n, s_rows, 0, 1 << len(gens))
        assert tuple(got) == tuple(expect)

    @pytest.mark.parametrize("seed", range(4))
    def test_partition_sweep_matches_full(self, seed):
        rng = random.Random(100 + seed)
        n = 10
        _, gens = row_reduce(
            [rng.getrandbits(2 * n) for _ in range(8)], 2 * n)
        _, s_rows = row_reduce(gens[:2], 2 * n)
        total = 1 << len(gens)
        full = _distpure.gray_scan(gens, n, s_rows, 0, total)
        for parts in (2, 3, 5):
            best = None
            bounds = [total * i // parts for i in range(parts + 1)]
            for lo, hi in zip(bounds, bounds[1:]):
                w, idx, x = _distpure.gray_scan(gens, n, s_rows, lo, hi)
                if w >= 0 and (best is None or (w, idx) < best[:2]):
                    best = (w, idx, x)
            assert best == tuple(full)


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
        assert in_span(code_m1k1.n_matrix, w)
        assert not in_span(code_m1k1.s_matrix, w)
        assert symplectic_weight_packed(w, code_m1k1.n) == rep.d
        assert w != 0

    def test_m1k0_fixture(self, code_m1k0):
        rep = exact_distance(code_m1k0, parts=8)
        assert rep.d == 1
        assert rep.d >= 1

    @pytest.mark.parametrize("parts", [1, 2, 3, 8])
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
        assert in_span(code_m2k3.n_matrix, w)
        assert not in_span(code_m2k3.s_matrix, w)
        assert symplectic_weight_packed(w, code_m2k3.n) == rep.d

    def test_bad_trials(self, code_m1k1):
        with pytest.raises(DistanceError):
            sampled_distance_upper(code_m1k1, trials=0, seed=0)


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

    def test_exhaustive_budget(self, code_m2k3):
        with pytest.raises(DistanceError):
            verify_counting_claims(code_m2k3, mode="exhaustive")

    def test_bad_mode(self, code_m1k1):
        with pytest.raises(DistanceError):
            verify_counting_claims(code_m1k1, mode="nope")
