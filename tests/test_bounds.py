"""Entropy, volume-bound, weight-oracle, parameter, and curve tests."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import count, islice

import pytest

from stabcat.bounds import (BoundsError, chen_delta_t, curve_csv_rows,
                            curve_points, delta_curve, entropy4,
                            entropy4_inv, min_total_weight, params_for_rate,
                            total_weight_bound, verify_volume_bound,
                            weighted_ball_size)

from oracle import asymptotic_lambda


class TestEntropy:
    def test_endpoints(self):
        assert entropy4(0.0) == 0.0
        assert abs(entropy4(1.0) - math.log2(3) / 2) < 1e-15
        assert abs(entropy4(0.75) - 1.0) < 1e-12

    def test_half_value(self):
        # independent identity: H(1/2) = (1/2) log4 6 + 1/4
        indep = 0.5 * math.log2(6) / 2 + 0.25
        assert abs(entropy4(0.5) - indep) < 1e-12

    def test_strictly_increasing(self):
        grid = [i / 1000 * 0.75 for i in range(1001)]
        vals = [entropy4(x) for x in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(BoundsError):
            entropy4(-0.1)
        with pytest.raises(BoundsError):
            entropy4(1.1)
        with pytest.raises(BoundsError):
            entropy4_inv(1.5)

    def test_inverse_round_trip(self):
        for i in range(1001):
            y = i / 1000
            x = entropy4_inv(y)
            assert 0.0 <= x <= 0.75
            assert abs(entropy4(x) - y) < 1e-9

    def test_quarter_point(self):
        x = entropy4_inv(0.25)
        assert abs(entropy4(x) - 0.25) < 1e-9
        assert abs(x - 0.0744) < 5e-4
        assert entropy4_inv(0.0) < 1e-11
        # the maximum is quadratically flat, so the x-residual at y = 1
        # saturates around sqrt(eps) ~ 2.6e-9 in double precision
        assert abs(entropy4_inv(1.0) - 0.75) < 5e-9


class TestVolumeBound:
    def test_n4_half(self):
        res = verify_volume_bound(4, Fraction(1, 2))
        assert res.lhs == 1 + 3 * 4 + 9 * 6 == 67
        # 4^(4 H(1/2)) = 6^2 * 4 = 144 exactly
        assert abs(res.rhs - 144.0) < 1e-9
        assert res.holds and res.intermediate_holds

    def test_n8_quarter(self):
        res = verify_volume_bound(8, Fraction(1, 4))
        assert res.lhs == 1 + 3 * 8 + 9 * 28 == 277
        assert res.holds

    def test_n8_three_eighths(self):
        res = verify_volume_bound(8, Fraction(3, 8))
        assert res.lhs == 1 + 24 + 252 + 27 * 56 == 1789
        assert res.holds

    def test_lambda_zero_edge(self):
        res = verify_volume_bound(5, 0)
        assert res.lhs == 1
        assert res.holds
        assert res.intermediate is None

    def test_full_grid_n16(self):
        for n in range(1, 17):
            for j in range(0, n + 1):
                lam = Fraction(j, n)
                if lam >= Fraction(3, 4):
                    continue
                res = verify_volume_bound(n, lam)
                assert res.holds, (n, j)
                if j:
                    assert res.intermediate_holds, (n, j)

    def test_preconditions(self):
        with pytest.raises(BoundsError):
            verify_volume_bound(8, Fraction(3, 4))
        with pytest.raises(BoundsError):
            verify_volume_bound(8, Fraction(1, 3))  # 8/3 not an integer
        with pytest.raises(BoundsError):
            verify_volume_bound(65, Fraction(1, 5))

    def test_ball_size_matches_tuple_census(self):
        # 3^k C(n,k) really is the number of weight-k quaternary tuples.
        for n in (1, 2, 3):
            census = Counter(
                sum(1 for p in range(n) if (v >> (2 * p)) & 3)
                for v in range(4 ** n))
            for wmax in range(n + 1):
                assert weighted_ball_size(n, wmax) == \
                    sum(census[w] for w in range(wmax + 1))


class TestMinTotalWeight:
    def test_examples(self):
        assert min_total_weight(2, 3) == 3
        assert min_total_weight(1, 3) == 3
        assert min_total_weight(2, 7) == 6 + 2

    def test_enumeration_cross_check(self):
        # sum of the count smallest weights over explicitly enumerated
        # tuples, recomputed here without the library's shortcut
        for length in (1, 2):
            weights = sorted(
                bin(sum(1 << p for p in range(length)
                        if (v >> (2 * p)) & 3)).count("1")
                for v in range(1, 4 ** length))
            for count in range(1, 4 ** length):
                assert min_total_weight(length, count) == \
                    sum(weights[:count])

    def test_range(self):
        with pytest.raises(BoundsError):
            min_total_weight(5, 1)
        with pytest.raises(BoundsError):
            min_total_weight(2, 16)
        with pytest.raises(BoundsError):
            min_total_weight(2, 0)


class TestTotalWeightBound:
    def test_vacuous_when_count_small(self):
        # count below the volume term makes the bound nonpositive
        assert total_weight_bound(2, 3, 0.25) < 0

    def test_direct_value(self):
        expect = 0.25 * 2 * (3 - 4.0 ** (2 * entropy4(0.25)))
        assert abs(total_weight_bound(2, 3, 0.25) - expect) < 1e-12

    def test_lambda_domain(self):
        with pytest.raises(BoundsError):
            total_weight_bound(2, 3, 0.75)
        with pytest.raises(BoundsError):
            total_weight_bound(2, 3, 0.0)

    def test_never_exceeds_oracle(self):
        lams = [i / 100 for i in range(5, 71, 5)]
        for length in range(1, 5):
            for count in range(1, 4 ** length):
                oracle = min_total_weight(length, count)
                for lam in lams:
                    assert total_weight_bound(length, count, lam) <= \
                        oracle + 1e-9

    def test_asymptotic_lambda(self):
        with pytest.raises(BoundsError):
            asymptotic_lambda(0.1, 5)  # below the 1/log4(L) correction
        lam = asymptotic_lambda(0.3, 1 << 10)
        assert abs(entropy4(lam) - (0.3 - 1.0 / 5.0)) < 1e-9


class TestParamsForRate:
    def test_m2_r02(self):
        p = params_for_rate(2, 0.2)
        assert (p.big_k, p.big_n, p.n, p.k) == (3, 15, 150, 36)
        assert p.rate == Fraction(6, 25)
        assert float(p.rate) == 0.24
        assert not p.clamped and p.warning is None

    def test_m1_r01(self):
        p = params_for_rate(1, 0.1)
        assert p.big_k == 1
        assert p.rate == Fraction(1, 9)
        assert float(p.rate) >= 0.1

    def test_clamped(self):
        p = params_for_rate(1, 0.4)  # (2m+1)R/m = 1.2 >= 1
        assert p.clamped and p.big_k == 0
        assert p.warning is not None

    def test_domain(self):
        with pytest.raises(BoundsError):
            params_for_rate(2, 0.0)
        with pytest.raises(BoundsError):
            params_for_rate(2, 0.5)

    def test_rate_guarantee_randomized(self):
        import random
        rng = random.Random(0)
        for _ in range(2000):
            m = rng.randint(1, 6)
            rate = rng.uniform(1e-6, m / (2 * m + 1) - 1e-9)
            p = params_for_rate(m, rate)
            assert not p.clamped
            assert p.rate >= Fraction(rate)  # exact comparison


class TestCurves:
    def test_ours_endpoints(self):
        c = delta_curve("ours", [0.0, 0.5])
        (r0, d0), (r1, d1) = c.points
        assert r0 == 0.0 and r1 == 0.5
        assert abs(entropy4(4 * d0) - 0.25) < 1e-9
        assert abs(d0 - 0.01857) < 1e-4
        assert d1 == 0.0

    def test_ours_strictly_decreasing(self):
        pts = delta_curve("ours", [i / 100 for i in range(51)]).points
        assert all(a[1] > b[1] for a, b in zip(pts, pts[1:]))
        assert all(0.0 <= d <= 1.0 and 0.0 <= r <= 1.0 for r, d in pts)

    def test_finite_m_approaches_limit(self):
        ours = delta_curve("ours", [0.1]).points[0][1]
        gap10 = abs(delta_curve("ours_finite_m", [0.1], m=10).points[0][1]
                    - ours)
        gap20 = abs(delta_curve("ours_finite_m", [0.1], m=20).points[0][1]
                    - ours)
        assert gap10 < 1e-2
        assert gap20 < 1e-3
        assert gap20 < gap10

    def test_chen_intercept(self):
        assert chen_delta_t(3) == Fraction(10, 147)
        c = delta_curve("chen", [0.0], t=3)
        assert abs(c.points[0][1] - 10 / 147) < 1e-12
        with pytest.raises(BoundsError):
            chen_delta_t(2)

    def test_ashikhmin_matsumoto_inversion(self):
        # delta back-substitutes into the published linear rate form
        for name in ("ashikhmin", "matsumoto"):
            c = delta_curve(name, [0.5, 0.7, 0.8], m=5)
            assert c.points
            for r, d in c.points:
                if name == "ashikhmin":
                    r0 = 1 - 1 / (2 ** 4 - 1)
                else:
                    r0 = 1 - 2 / (2 ** 5 - 1)
                assert abs(r0 - (10 / 3) * 5 * d - r) < 1e-12

    def test_baseline_decreasing_in_m(self):
        vals = [delta_curve("baseline_rs", [0.2], m=m).points[0][1]
                for m in (1, 2, 3, 4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_out_of_domain_omitted(self):
        c = delta_curve("ours", [-0.1, 0.2, 0.9])
        assert len(c.points) == 1
        assert c.omitted == (-0.1, 0.9)

    def test_curve_points_lazy(self):
        # an endless grid is read one rate at a time, in grid order
        rates = (0.5 - i / 8 for i in count())
        got = list(islice(curve_points("ours", rates), 6))
        curve = delta_curve("ours", [0.5 - i / 8 for i in range(6)])
        assert got == [*reversed(curve.points),
                       *((r, None) for r in curve.omitted)]

    def test_points_sorted(self):
        c = delta_curve("ours", [0.4, 0.1, 0.3])
        assert [r for r, _ in c.points] == [0.1, 0.3, 0.4]

    def test_parameter_requirements(self):
        with pytest.raises(BoundsError):
            delta_curve("ours_finite_m", [0.1])
        with pytest.raises(BoundsError):
            delta_curve("chen", [0.1])
        with pytest.raises(BoundsError):
            delta_curve("nope", [0.1])

    def test_csv_rows(self):
        c = delta_curve("chen", [0.0, 0.1], t=3)
        rows = list(curve_csv_rows(c.name, c.params, c.points))
        assert rows[0][2] == "chen" and rows[0][3] == "t=3"
        # 12 significant digits
        assert rows[0][1] == f"{10 / 147:.12g}"


def full_size_point(name, r, m=None, t=None):
    """Oracle: a curve's (delta, in domain) at rate r from the closed
    forms on full-size integers 2^m, 2^(2m) and 2^t."""
    if name == "ours_finite_m":
        q = 1 << (2 * m)
        scale = (q - (1 << m)) / (q - 1)
        return (scale * 0.25 * (1.0 - (2 * m + 1) * r / m)
                * entropy4_inv(m / (4 * m + 2)),
                0.0 <= r <= 0.5 and (2 * m + 1) * r / m <= 1.0)
    if name == "ashikhmin":
        d = (1.0 - 1.0 / ((1 << (m - 1)) - 1) - r) * 3.0 / (10.0 * m)
        return d, 0.0 < d < 1.0 / 18.0
    if name == "matsumoto":
        d = (1.0 - 2.0 / ((1 << m) - 1) - r) * 3.0 / (10.0 * m)
        return d, 0.0 < d <= (0.5 - 1.0 / ((1 << m) - 1)) / (2.0 * m)
    dt = float(chen_delta_t(t))
    d = dt - r / (3.0 * t)
    return d, 0.0 <= d <= dt and r >= 0.0


class TestLargeParameters:
    GRID = [-0.05, 0.0, 1 / 6, 0.2, 0.3, 0.45, 0.5]

    @pytest.mark.parametrize("name,values", [
        ("ours_finite_m", range(1, 130)),
        ("ashikhmin", range(2, 1024)),  # 2^1023 is the last float power
        ("matsumoto", range(2, 1024)),
        ("chen", list(range(3, 130)) + [1000, 5000])])
    def test_same_floats_as_full_size_integers(self, name, values):
        # the capped powers of two change no float, on either side of
        # the cap
        key = "t" if name == "chen" else "m"
        for v in values:
            curve = delta_curve(name, self.GRID, **{key: v})
            want = {}
            for r in self.GRID:
                d, inside = full_size_point(name, r, **{key: v})
                if inside:
                    want[r] = d
            assert dict(curve.points) == want, (name, v)

    @pytest.mark.parametrize("name,key,value,rejected", [
        ("ours_finite_m", "m", 10 ** 9, False),
        ("ashikhmin", "m", 10 ** 9, False),
        ("matsumoto", "m", 10 ** 9, False),
        ("chen", "t", 10 ** 9, False),
        ("baseline_rs", "m", 10 ** 9, True),
        ("ashikhmin", "m", 10 ** 400, True),
        ("chen", "t", 10 ** 400, True)])
    def test_huge_parameter_small_memory(self, name, key, value, rejected):
        # a curve either evaluates or is a BoundsError, and neither
        # builds a 2^m- or 2^t-bit integer
        tracemalloc.start()
        try:
            if rejected:
                with pytest.raises(BoundsError, match="needs a smaller"):
                    delta_curve(name, [0.1, 0.3], **{key: value})
            else:
                assert delta_curve(name, [0.1, 0.3], **{key: value}).points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, peak

    def test_baseline_float_limit(self):
        # N = 2^(2m) - 1 is a float up to m = 511
        assert delta_curve("baseline_rs", [0.2], m=511).points
        with pytest.raises(BoundsError, match="baseline_rs needs a smaller"):
            delta_curve("baseline_rs", [0.2], m=512)
