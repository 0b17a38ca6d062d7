"""Quaternary entropy, volume/weight bounds, and rate-distance curves.

Everything analytic lives here: the entropy function over GF(4) and its
inverse, an exact big-integer check of the Chernoff-type volume bound
sum_{k<=lam*n} 3^k C(n,k) <= 4^(n H(lam)), the minimum-total-weight
bound for collections of distinct nonzero quaternary tuples (with a
brute-force enumeration oracle), the parameter choice K(m, R) that
realizes a target rate, and the closed-form comparison curves.

Asymptotic correction terms (the o(L) and o(m) slack in the source
bounds) are not computable per instance; the functions here implement
the clean finite-size core expressions and the curves drop those
corrections.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from . import CURVE_NAMES
from .concat import closed_forms


class BoundsError(ValueError):
    """Domain violation in a bound evaluation."""


_LOG4_3 = math.log2(3) / 2.0


def entropy4(x: float) -> float:
    """Quaternary entropy -x log4(x/3) - (1-x) log4(1-x) on [0, 1].

    The removable endpoints take their continuity limits: 0 at x = 0 and
    log4(3) at x = 1.  Strictly increasing on [0, 3/4] with maximum 1 at
    x = 3/4.
    """
    if not 0.0 <= x <= 1.0:
        raise BoundsError(f"entropy4 argument {x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return _LOG4_3
    return (-x * (math.log2(x / 3) / 2.0)
            - (1.0 - x) * (math.log2(1.0 - x) / 2.0))


def entropy4_inv(y: float, tol: float = 1e-12) -> float:
    """The unique x in [0, 3/4] with entropy4(x) = y, by bisection."""
    if not 0.0 <= y <= 1.0:
        raise BoundsError(f"entropy4_inv argument {y} outside [0, 1]")
    lo, hi = 0.0, 0.75
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if entropy4(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# ----------------------------------------------------------------------
# Volume bound: sum_{k=0..lam*n} 3^k C(n,k) <= 4^(n * entropy4(lam))
# ----------------------------------------------------------------------

#: Relative outward-rounding margin when comparing the exact integer
#: left side to the float right side; rounding the right side down
#: instead would risk false failures at exact-equality points.
OUTWARD_MARGIN = 1e-9


class VolumeBoundResult(NamedTuple):
    """Exact-arithmetic outcome of the weighted binomial-sum bound."""

    n: int
    lam: Fraction
    lhs: int
    rhs: float
    holds: bool
    intermediate: float | None
    intermediate_holds: bool | None


def weighted_ball_size(n: int, wmax: int) -> int:
    """Exact sum over k <= wmax of 3^k C(n,k) (quaternary ball volume)."""
    return sum(3 ** k * math.comb(n, k) for k in range(wmax + 1))


def verify_volume_bound(n: int, lam) -> VolumeBoundResult:
    """Check the ball-volume bound exactly for an integral lam * n.

    ``lam`` must be a rational in [0, 3/4) with lam * n an integer
    (lam = 0 degenerates to the single k = 0 term, where both sides are
    1).  The left side is exact big-integer arithmetic; the right side
    4^(n * entropy4(lam)) and the Chernoff intermediate
    (4^(-r lam) + 3 * 4^(r (1 - lam)))^n with r = log4(lam / (3(1-lam)))
    are floats compared with an outward 1e-9 margin.
    """
    lam = Fraction(lam)
    if n < 1 or n > 64:
        raise BoundsError(f"n={n} outside exact-arithmetic range [1, 64]")
    if not 0 <= lam < Fraction(3, 4):
        raise BoundsError(f"lam={lam} outside [0, 3/4)")
    ln = lam * n
    if ln.denominator != 1:
        raise BoundsError(f"lam*n = {ln} is not an integer")
    wmax = int(ln)
    lhs = weighted_ball_size(n, wmax)
    lam_f = float(lam)
    rhs = 4.0 ** (n * entropy4(lam_f))
    holds = lhs <= rhs * (1.0 + OUTWARD_MARGIN)
    if lam == 0:
        # r diverges; the intermediate has limit 1^n = rhs exactly.
        return VolumeBoundResult(n=n, lam=lam, lhs=lhs, rhs=rhs,
                                 holds=holds, intermediate=None,
                                 intermediate_holds=None)
    r = math.log2(lam_f / (3.0 * (1.0 - lam_f))) / 2.0
    inter = (4.0 ** (-r * lam_f) + 3.0 * 4.0 ** (r * (1.0 - lam_f))) ** n
    inter_holds = lhs <= inter * (1.0 + OUTWARD_MARGIN)
    return VolumeBoundResult(n=n, lam=lam, lhs=lhs, rhs=rhs, holds=holds,
                             intermediate=inter,
                             intermediate_holds=inter_holds)


# ----------------------------------------------------------------------
# Minimum total weight of M distinct nonzero quaternary L-tuples
# ----------------------------------------------------------------------

def min_total_weight(tuple_len: int, count: int) -> int:
    """Exact minimum total Hamming weight of ``count`` distinct nonzero
    quaternary tuples of length ``tuple_len``.

    Ground truth by enumeration: there are 3^w C(L, w) tuples of weight
    w, and the minimum is achieved by taking tuples in nondecreasing
    weight order.  Kept at L <= 4 where full enumeration stays trivial.
    """
    if tuple_len < 1 or tuple_len > 4:
        raise BoundsError(f"tuple length {tuple_len} outside [1, 4]")
    if not 1 <= count <= 4 ** tuple_len - 1:
        raise BoundsError(
            f"count {count} outside [1, {4 ** tuple_len - 1}]")
    weights = sorted(
        sum(1 for p in range(tuple_len) if (val >> (2 * p)) & 3)
        for val in range(1, 4 ** tuple_len))
    return sum(weights[:count])


def total_weight_bound(tuple_len: int, count: float, lam: float) -> float:
    """Analytic lower bound lam * L * (M - 4^(L * entropy4(lam))).

    Of M distinct nonzero tuples, at most 4^(L H(lam)) can have weight
    <= lam * L (the volume bound), so the rest each contribute more than
    lam * L to the total.  Nonpositive values are vacuous.  ``lam`` must
    lie in (0, 3/4).
    """
    if not 0.0 < lam < 0.75:
        raise BoundsError(f"lam={lam} outside (0, 3/4)")
    return lam * tuple_len * \
        (count - 4.0 ** (tuple_len * entropy4(lam)))


def asymptotic_lambda(delta: float, tuple_len: int) -> float:
    """The large-L threshold choice lam = Hinv(delta - 1/log4(L)).

    Only meaningful once delta exceeds 1/log4(L); rejects arguments
    where the corrected entropy argument is negative.
    """
    if tuple_len < 2:
        raise BoundsError("tuple length must be >= 2")
    corrected = delta - 1.0 / (math.log2(tuple_len) / 2.0)
    if corrected < 0.0:
        raise BoundsError(
            f"delta={delta} is below the 1/log4(L) correction at "
            f"L={tuple_len}; no valid threshold")
    return entropy4_inv(corrected)


# ----------------------------------------------------------------------
# Parameter choice achieving a target rate
# ----------------------------------------------------------------------

class RateParams(NamedTuple):
    """Code parameters realizing rate >= target_rate at a given m."""

    m: int
    target_rate: float
    big_k: int
    big_n: int
    n: int
    k: int
    rate: Fraction
    clamped: bool  # True when the K formula went negative and K = 0

    @property
    def warning(self) -> str | None:
        if self.clamped:
            return (f"target rate {self.target_rate} needs "
                    f"(2m+1)R/m < 1 at m={self.m}; K clamped to 0 and "
                    f"the achieved rate may fall below the target")
        return None


def params_for_rate(m: int, target_rate: float) -> RateParams:
    """K = floor((1/2) (1 - (2m+1) R / m) (2^2m - 1)) and friends.

    For target rates in (0, 1/2) with (2m+1) R / m < 1 the achieved
    rate m(N - 2K) / (N(2m+1)) is guaranteed >= R; outside that domain
    K clamps to 0 with a warning attached.  n and k come from
    :func:`stabcat.concat.closed_forms`.
    """
    if m < 1:
        raise BoundsError(f"m must be >= 1, got {m}")
    if not 0.0 < target_rate < 0.5:
        raise BoundsError(
            f"target rate {target_rate} outside the open interval "
            f"(0, 1/2)")
    big_n = (1 << (2 * m)) - 1
    # Exact arithmetic on the binary value of the target, so the floor
    # never lands on the wrong side of an integer boundary and the
    # rate >= target guarantee is exact.
    load = Fraction(2 * m + 1, m) * Fraction(target_rate)
    raw = math.floor(Fraction(1, 2) * (1 - load) * big_n)
    clamped = raw < 0
    big_k = max(0, raw)
    if big_k > big_n // 2:  # pragma: no cover - load > 0 prevents this
        big_k = big_n // 2
    n, k, _rank_s = closed_forms(m, big_n, big_k)
    rate = Fraction(m * (big_n - 2 * big_k), big_n * (2 * m + 1))
    return RateParams(m=m, target_rate=target_rate, big_k=big_k,
                      big_n=big_n, n=n, k=k, rate=rate, clamped=clamped)


# ----------------------------------------------------------------------
# Rate/relative-distance comparison curves
# ----------------------------------------------------------------------

class BoundCurve(NamedTuple):
    """A named list of (rate, relative distance) points, sorted by rate."""

    name: str
    params: dict
    points: tuple[tuple[float, float], ...]
    omitted: tuple[float, ...] = ()


def chen_delta_t(t: int) -> Fraction:
    """Distance intercept (2/3)(2^t - 3) / ((2t+1)(2^t - 1)) for t >= 3."""
    if t < 3:
        raise BoundsError(f"t must be >= 3, got {t}")
    return Fraction(2 * ((1 << t) - 3), 3 * (2 * t + 1) * ((1 << t) - 1))


def _pow2(k: int, q: int = 1) -> int:
    """2^k, capped where it stops changing the curves' floats.

    A curve reads 2^k only through a ratio within a relative 2^(3-k) of
    its limit: 1.0 or 0.5, or chen's 2/q with q = 3(2t+1) odd.  Such a
    limit lies at least 2^-(mant_dig + 2) / q (relative) from every
    rounding boundary between floats, so from k = bit_length(q) +
    mant_dig + 5 on the ratio rounds as its limit does, and a huge m or
    t costs no 2^k-bit integer.
    """
    return 1 << min(k, q.bit_length() + sys.float_info.mant_dig + 5)


def delta_curve(name: str, rate_grid, m: int | None = None,
                t: int | None = None) -> BoundCurve:
    """Evaluate a named comparison curve on a rate grid.

    Out-of-domain grid points are omitted (collected in ``omitted``),
    never clamped.  Parameter requirements: ``m`` for ours_finite_m,
    ashikhmin, matsumoto, and baseline_rs; ``t`` for chen; none for
    ours.  A parameter too large for float arithmetic (baseline_rs's
    N = 2^(2m) - 1 from m = 512 on) is a BoundsError.
    """
    pts: list[tuple[float, float]] = []
    omitted: list[float] = []
    for r, delta in curve_points(name, rate_grid, m, t):
        if delta is None:
            omitted.append(r)
        else:
            pts.append((r, delta))
    pts.sort(key=lambda p: p[0])
    return BoundCurve(name=name, params=curve_params(name, m, t),
                      points=tuple(pts), omitted=tuple(omitted))


def curve_params(name: str, m: int | None = None,
                 t: int | None = None) -> dict:
    """The parameters a named curve is evaluated with (see delta_curve)."""
    return {} if name == "ours" else {"t": t} if name == "chen" else \
        {"m": m}


def curve_points(name: str, rate_grid, m: int | None = None,
                 t: int | None = None):
    """Yield (r, delta) for each rate r of the grid, in grid order.

    delta is None where r lies outside the curve's domain.  One rate is
    evaluated at a time, so a lazy grid is never held.  The parameters
    are checked as :func:`delta_curve` checks them, before the first
    point is yielded.
    """
    # an overflow in the curve's own arithmetic is a parameter error;
    # one raised by a lazy grid passes through
    try:
        delta = _delta_function(name, m, t)
    except OverflowError:
        raise _overflow(name) from None
    for r in rate_grid:
        try:
            d = delta(r)
        except OverflowError:
            raise _overflow(name) from None
        yield r, d


def _overflow(name: str) -> BoundsError:
    what = "t" if name == "chen" else "m"
    return BoundsError(f"{name} needs a smaller {what}: the curve "
                       f"overflows float arithmetic")


def _delta_function(name: str, m: int | None, t: int | None):
    """The curve's delta as a function of the rate, None out of domain."""
    if name not in CURVE_NAMES:
        raise BoundsError(f"unknown curve {name!r}; choose from "
                          f"{', '.join(CURVE_NAMES)}")

    if name == "ours":
        scale = 0.25 * entropy4_inv(0.25)

        def delta(r):
            return scale * (1.0 - 2.0 * r) if 0.0 <= r <= 0.5 else None
    elif name == "ours_finite_m":
        if m is None or m < 1:
            raise BoundsError("ours_finite_m needs m >= 1")
        p = _pow2(m)
        scale = p / (p + 1) * 0.25  # (4^m - 2^m) / (4^m - 1), times 1/4
        h = entropy4_inv(m / (4 * m + 2))

        def delta(r):
            if 0.0 <= r <= 0.5 and (2 * m + 1) * r / m <= 1.0:
                return scale * (1.0 - (2 * m + 1) * r / m) * h
            return None
    elif name == "ashikhmin":
        if m is None or m < 2:
            raise BoundsError("ashikhmin needs m >= 2")
        # R = 1 - 1/(2^(m-1) - 1) - (10/3) m delta for 0 < delta < 1/18,
        # inverted algebraically (linear in delta).
        r0 = 1.0 - 1.0 / (_pow2(m - 1) - 1)

        def delta(r):
            d = (r0 - r) * 3.0 / (10.0 * m)
            return d if 0.0 < d < 1.0 / 18.0 else None
    elif name == "chen":
        if t is None:
            raise BoundsError("chen needs t >= 3")
        if t < 3:
            raise BoundsError(f"t must be >= 3, got {t}")
        # float(chen_delta_t(t)) without the t-bit integers
        d = 3 * (2 * t + 1)
        p = _pow2(t, d)
        dt = 2 * (p - 3) / (d * (p - 1))

        # R = 3t (delta_t - delta); the source constraint is the open
        # interval 0 < delta < delta_t, but both endpoint rows (the
        # delta_t intercept at R = 0 and delta = 0 at R = 3t delta_t)
        # are kept so the advertised intercept appears in the output.
        def delta(r):
            d = dt - r / (3.0 * t)
            return d if 0.0 <= d <= dt and r >= 0.0 else None
    elif name == "matsumoto":
        if m is None or m < 2:
            raise BoundsError("matsumoto needs m >= 2")
        p = _pow2(m)
        r0 = 1.0 - 2.0 / (p - 1)
        dmax = (0.5 - 1.0 / (p - 1)) / (2.0 * m)

        def delta(r):
            d = (r0 - r) * 3.0 / (10.0 * m)
            return d if 0.0 < d <= dmax else None
    else:  # baseline_rs
        if m is None or m < 1:
            raise BoundsError("baseline_rs needs m >= 1")
        # N as a float first: past the float range that overflows, before
        # the 2m-bit integer N is built
        n_float = math.ldexp(1.0, 2 * m) - 1.0
        big_n = (1 << (2 * m)) - 1

        # Rate axis carries the fixed symbol rate (N - 2K)/N of the
        # unconcatenated construction; the distance/length ratio
        # (K+1)/(mN) then tends to zero as m grows.
        def delta(r):
            if not 0.0 <= r <= 1.0:
                return None
            big_k = math.floor((1.0 - r) * n_float / 2.0)
            if big_k < 0 or big_k > big_n // 2:
                return None
            return (big_k + 1) / (m * big_n)
    return delta


def curve_csv_rows(name: str, params: dict, points):
    """CSV rows (R, delta, curve, params) at 12 significant digits.

    One row per (rate, delta) of ``points``, made as the rows are read.
    """
    param_str = ";".join(f"{k}={v}" for k, v in sorted(params.items()))
    for r, d in points:
        yield f"{r:.12g}", f"{d:.12g}", name, param_str
