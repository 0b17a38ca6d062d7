"""Acceptance suite: one test per criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every tolerance and budget is pinned here; nothing defers to
later calibration.  Frozen numeric fixtures (exact distance, witnesses,
sampled bounds) are specific to the recorded construction constants:
lexicographically smallest primitive moduli and lexicographically
smallest self-dual bases.
"""

import random
import time
from fractions import Fraction

from stabcat import codefile
from stabcat.bounds import (delta_curve, entropy4, entropy4_inv,
                            min_total_weight, params_for_rate,
                            total_weight_bound, verify_volume_bound)
from stabcat.cli import main, verify_code_file
from stabcat.concat import build_code, check_block_injectivity
from stabcat.distance import exact_distance, verify_counting_claims
from stabcat.field import build_field, find_self_dual_basis
from stabcat.symplectic import (in_span, symplectic_weight_packed,
                                verify_duality)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_criterion_1_duality():
    """Symplectic duality, exact ranks, and containment; < 10 s total."""
    t0 = time.perf_counter()
    cases = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 3), (2, 7)]
    for m, big_k in cases:
        code = build_code(m, big_k)
        big_n = code.big_n
        rep = verify_duality(code)
        assert rep.all_orthogonal, (m, big_k)
        assert rep.contained, (m, big_k)
        assert rep.rank_s == 2 * big_n * (m + 1) + 4 * m * big_k, (m, big_k)
        assert rep.rank_s + rep.rank_n == 2 * code.n, (m, big_k)
    elapsed = time.perf_counter() - t0
    verdict(1, elapsed < 10.0,
            f"duality+ranks+containment exact on {len(cases)} instances "
            f"in {elapsed:.2f}s (< 10 s)")


def test_criterion_2_parameters():
    """[[2N(2m+1), 2m(N-2K)]] for m in 1..3 across every valid K."""
    checked = 0
    for m in (1, 2, 3):
        big_n = (1 << (2 * m)) - 1
        for big_k in range(big_n // 2 + 1):
            code = build_code(m, big_k)
            assert code.n == 2 * big_n * (2 * m + 1)
            assert code.k == 2 * m * (big_n - 2 * big_k)
            assert code.rank_n - code.rank_s == 2 * code.k
            checked += 1
    verdict(2, True,
            f"exact parameters confirmed on {checked} (m, K) instances "
            f"including rank(N)-rank(S) = 2k")


def test_criterion_3_exact_distance():
    """2^20 coset enumeration: budgets, d >= K+1, partition invariance."""
    code = build_code(1, 1)
    t0 = time.perf_counter()
    rep1 = exact_distance(code, parts=1)
    t_single = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep8 = exact_distance(code, parts=8)
    t_parts = time.perf_counter() - t0
    assert rep1.enumerated == 1 << 20
    assert rep1.d >= code.big_k + 1 == 2
    assert rep1.d == 2  # frozen fixture for modulus 0x7, basis (0x2,0x3)
    w = rep1.witness.packed()
    assert in_span(code.n_matrix, w)
    assert not in_span(code.s_matrix, w)
    assert symplectic_weight_packed(w, code.n) == rep1.d
    assert (rep8.d, rep8.witness) == (rep1.d, rep1.witness)
    for parts in (2, 5):
        r = exact_distance(code, parts=parts)
        assert (r.d, r.witness) == (rep1.d, rep1.witness)
    ok = t_single < 300.0 and t_parts < 60.0
    verdict(3, ok,
            f"exact d=2 over 2^20 in {t_single:.2f}s single "
            f"(< 300 s) and {t_parts:.2f}s with 8 partitions (< 60 s), "
            f"identical results across 1/2/5/8 partitions")


def test_criterion_4_counting_machinery():
    """Block and tuple counting claims, exhaustive then sampled."""
    code = build_code(1, 1)
    rep = verify_counting_claims(code, mode="exhaustive")
    assert rep.examined == (1 << 20) - (1 << 16)
    assert rep.claim_blocks and rep.min_nonzero_blocks >= 2
    assert rep.claim_distinct and rep.distinct_threshold == 1
    assert rep.claim_mult and rep.max_multiplicity <= 2
    assert not rep.violations

    code2 = build_code(2, 3)
    rep2 = verify_counting_claims(code2, mode="sampled", trials=10 ** 5,
                                  seed=0)
    assert rep2.claim_blocks and rep2.min_nonzero_blocks >= 4
    assert rep2.claim_distinct
    assert rep2.claim_mult and rep2.max_multiplicity <= 4
    assert not rep2.violations
    verdict(4, True,
            f"m=1 exhaustive ({rep.examined} codewords, max tuple "
            f"multiplicity {rep.max_multiplicity} <= 2) and m=2 sampled "
            f"(10^5 seeded, max multiplicity {rep2.max_multiplicity} "
            f"<= 4), zero violations")


def test_criterion_5_block_injectivity():
    """Per-block injectivity at m in 1..4 by the rank test: full rank."""
    total = 0
    for two_m in (2, 4, 6, 8):
        f = build_field(two_m)
        basis = find_self_dual_basis(f)
        for i in range(f.order - 1):
            assert check_block_injectivity(f, basis, i), (two_m, i)
            total += 1
    assert total == 3 + 15 + 63 + 255
    verdict(5, True,
            f"all {total} blocks at m=1..4 injective: the 6m+2 unit-input "
            f"images have full rank")


def test_criterion_6_volume_bound():
    """Exact big-integer bound for all n <= 16, every integral lam*n."""
    checked = 0
    for n in range(1, 17):
        for j in range(1, n + 1):
            lam = Fraction(j, n)
            if lam >= Fraction(3, 4):
                continue
            res = verify_volume_bound(n, lam)
            assert res.holds, (n, j)
            assert res.intermediate_holds, (n, j)
            checked += 1
    verdict(6, True,
            f"{checked} (n, lam) pairs with no counterexample, "
            f"including the log4(lam/3(1-lam)) intermediate at 1e-9 "
            f"outward rounding")


def test_criterion_7_weight_bound_core():
    """Oracle >= analytic bound for all L <= 4, all M, lam grid."""
    lams = [i / 100 for i in range(5, 71, 5)]
    checked = 0
    for length in range(1, 5):
        for count in range(1, 4 ** length):
            oracle = min_total_weight(length, count)
            for lam in lams:
                bound = total_weight_bound(length, count, lam)
                assert bound <= oracle + 1e-9, (length, count, lam)
                checked += 1
    verdict(7, True,
            f"{checked} (L, M, lam) combinations, bound evaluated to "
            f"1e-9, exact enumeration oracle")


def test_criterion_8_entropy_numerics():
    """Entropy endpoints, inverse residual, and curve shape."""
    assert abs(entropy4(0.75) - 1.0) < 1e-12
    x = entropy4_inv(0.25)
    assert abs(entropy4(x) - 0.25) < 1e-9
    curve = delta_curve("ours", [i / 100 for i in range(51)])
    d0 = dict(curve.points)[0.0]
    assert abs(4 * d0 - x) < 1e-12
    assert abs(d0 - 0.01857) < 1e-4
    assert dict(curve.points)[0.5] == 0.0
    deltas = [d for _, d in curve.points]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    verdict(8, True,
            f"entropy4(3/4)=1 at 1e-12, entropy4(inv(1/4))=0.25 at "
            f"1e-9, endpoints (0, {d0:.6f}) and (0.5, 0), strictly "
            f"decreasing")


def test_criterion_9_rate_guarantee():
    """Achieved rate >= target on 10^4 random valid pairs; m=2 exact."""
    p = params_for_rate(2, 0.2)
    assert p.big_k == 3
    assert p.rate == Fraction(6, 25)  # 0.24 exactly
    rng = random.Random(0)
    for _ in range(10 ** 4):
        m = rng.randint(1, 6)
        # valid domain: (2m+1) R / m < 1, i.e. R < m/(2m+1)
        rate = rng.uniform(1e-9, m / (2 * m + 1) * (1 - 1e-12))
        params = params_for_rate(m, rate)
        assert not params.clamped
        assert params.rate >= Fraction(rate), (m, rate)
    verdict(9, True,
            "m=2, R=0.2 gives K=3 with rate 6/25 = 0.24 exactly; "
            "rate >= target on 10^4 random (m <= 6, R) pairs "
            "(exact rational comparison)")


def test_criterion_10_round_trip_and_mutation(tmp_path):
    """Byte-identical round trips; every single-bit row mutation fails."""
    instances = [(1, 0), (1, 1), (2, 3)]
    for m, big_k in instances:
        path = tmp_path / f"m{m}k{big_k}.code"
        assert main(["construct", "--m", str(m), "--K", str(big_k),
                     "--out", str(path)]) == 0
        original = path.read_bytes()
        cf = codefile.load(path)
        again = tmp_path / f"m{m}k{big_k}.roundtrip"
        codefile.store(cf, again)
        assert again.read_bytes() == original
        assert verify_code_file(cf)["passed"]

    # m=1, K=1: every row and every bit position, exhaustively.
    cf = codefile.load(tmp_path / "m1k1.code")
    n = cf.n
    mutations = 0
    for which, rows in (("s", cf.s_rows), ("n", cf.n_rows)):
        for r_idx in range(len(rows)):
            for bit in range(2 * n):
                s_rows = list(cf.s_rows)
                n_rows = list(cf.n_rows)
                if which == "s":
                    s_rows[r_idx] ^= 1 << bit
                else:
                    n_rows[r_idx] ^= 1 << bit
                mutated = codefile.CodeFile(
                    m=cf.m, big_n=cf.big_n, big_k=cf.big_k, n=cf.n,
                    k=cf.k, modulus=cf.modulus, basis=cf.basis,
                    s_rows=tuple(s_rows), n_rows=tuple(n_rows))
                rep = verify_code_file(mutated)
                assert not rep["passed"], (which, r_idx, bit)
                mutations += 1

    # m=2, K=3: seeded random sample of single-bit mutations.
    cf2 = codefile.load(tmp_path / "m2k3.code")
    rng = random.Random(0)
    sampled = 0
    for _ in range(60):
        which = rng.choice(("s", "n"))
        rows = list(cf2.s_rows if which == "s" else cf2.n_rows)
        r_idx = rng.randrange(len(rows))
        rows[r_idx] ^= 1 << rng.randrange(2 * cf2.n)
        mutated = codefile.CodeFile(
            m=cf2.m, big_n=cf2.big_n, big_k=cf2.big_k, n=cf2.n, k=cf2.k,
            modulus=cf2.modulus, basis=cf2.basis,
            s_rows=tuple(rows) if which == "s" else cf2.s_rows,
            n_rows=tuple(rows) if which == "n" else cf2.n_rows)
        rep = verify_code_file(mutated)
        assert not rep["passed"], (which, r_idx)
        sampled += 1

    # and through the real command-line path
    text = (tmp_path / "m1k1.code").read_text().split("\n")
    row_line = list(text[10])
    row_line[0] = "1" if row_line[0] == "0" else "0"
    text[10] = "".join(row_line)
    bad_path = tmp_path / "m1k1.mutated"
    bad_path.write_text("\n".join(text))
    assert main(["verify", str(bad_path)]) == 1

    verdict(10, True,
            f"round trips byte-identical on {len(instances)} instances; "
            f"all {mutations} exhaustive m=1 single-bit mutations and "
            f"{sampled} sampled m=2 mutations detected")
