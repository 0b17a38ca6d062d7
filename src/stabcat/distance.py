"""Minimum symplectic weight over the normalizer-minus-stabilizer coset.

Exact mode enumerates all 2^rank(N) combinations of the reduced
normalizer generators by Gray code (one row XOR per step), skipping
members of the stabilizer span, and is partitionable into disjoint
index ranges whose results combine by minimum — the outcome is
independent of the partition count.  The inner loop is
:func:`stabcat._distpure.gray_scan`.

Sampled mode draws uniform random normalizer codewords and reports the
minimum weight seen, an upper bound on the true distance only.

The module also verifies the structural weight-counting facts the
asymptotic distance bound rests on: every normalizer-coset codeword has
at least K+1 nonzero blocks, its designated quaternary half-block
tuples take at least ceil((K+1)/2^m) distinct nonzero values, and no
value repeats more than 2^m times.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

from .concat import (StabilizerCodeL, SymplecticVector,
                     designated_half_tuple, get_expander)
from .symplectic import in_span, symplectic_weight_packed, xor_rows
from . import _distpure

HAVE_COMPILED = False  # always False; perfbench/run.py's env probe reads it

MAX_EXACT_RANK = 24


class DistanceError(ValueError):
    """Infeasible or invalid distance-search request."""


@dataclass(frozen=True)
class DistanceReport:
    """Result of a distance search.

    ``d`` is the exact minimum for method "exact" and the best upper
    bound found for method "sampled".  The witness always satisfies:
    in the normalizer span, outside the stabilizer span, symplectic
    weight d.
    """

    method: str
    d: int
    witness: SymplecticVector
    enumerated: int
    seed: int | None = None
    parts: int = 1

    def summary_line(self) -> str:
        seed = self.seed if self.seed is not None else 0
        w = symplectic_weight_packed(self.witness.packed(), self.witness.n)
        return (f"d={self.d} witness_weight={w} "
                f"enumerated={self.enumerated} method={self.method} "
                f"seed={seed}")


def _validate_witness(code: StabilizerCodeL, word: int, w: int) -> None:
    if not in_span(code.n_matrix, word):
        raise DistanceError("witness fell outside the normalizer span")
    if in_span(code.s_matrix, word):
        raise DistanceError("witness lies in the stabilizer span")
    if symplectic_weight_packed(word, code.n) != w:
        raise DistanceError("witness weight does not match the reported d")


def exact_distance(code: StabilizerCodeL, parts: int = 1) -> DistanceReport:
    """Exact coset minimum by full Gray-code enumeration.

    Refuses instances with rank(N) above ``MAX_EXACT_RANK`` (the
    enumeration budget 2^24); use :func:`sampled_distance_upper` there.
    ``parts`` splits the index range into that many equal chunks,
    scanned independently; any part count gives the identical report.
    """
    r = code.rank_n
    if r > MAX_EXACT_RANK:
        raise DistanceError(
            f"rank(N) = {r} exceeds the exact-enumeration budget "
            f"2^{MAX_EXACT_RANK}; use the sampled mode")
    if parts < 1 or parts > (1 << r):
        raise DistanceError(f"invalid partition count {parts}")
    gens = list(code.n_matrix)
    total = 1 << r
    best = None  # (w, idx, word)
    bounds = [total * i // parts for i in range(parts + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        w, idx, word = _distpure.gray_scan(gens, code.n,
                                           list(code.s_matrix), lo, hi)
        if w >= 0 and (best is None or (w, idx) < best[:2]):
            best = (w, idx, word)
    if best is None:  # pragma: no cover - k >= 1 always leaves a coset
        raise DistanceError("no codeword outside the stabilizer span")
    w, _idx, word = best
    _validate_witness(code, word, w)
    return DistanceReport(
        method="exact", d=w,
        witness=SymplecticVector.from_packed(word, code.n),
        enumerated=total, seed=None, parts=parts)


def sampled_distance_upper(code: StabilizerCodeL, trials: int,
                           seed: int) -> DistanceReport:
    """Upper bound on the distance from uniform normalizer samples.

    Reproducible per seed, and prefix-stable: the first T trials of a
    longer run coincide with a T-trial run on the same seed, so more
    trials never increase the bound.
    """
    if trials < 1:
        raise DistanceError("trials must be >= 1")
    rng = random.Random(seed)
    r = code.rank_n
    gens = code.n_matrix
    best = None  # (w, trial, word)
    for trial in range(trials):
        x = xor_rows(gens, rng.getrandbits(r))
        if best is not None and \
                symplectic_weight_packed(x, code.n) >= best[0]:
            continue
        if in_span(code.s_matrix, x):
            continue
        w = symplectic_weight_packed(x, code.n)
        if best is None or w < best[0]:
            best = (w, trial, x)
    if best is None:
        raise DistanceError(
            f"no sample left the stabilizer span after {trials} trials")
    w, _trial, word = best
    _validate_witness(code, word, w)
    return DistanceReport(
        method="sampled", d=w,
        witness=SymplecticVector.from_packed(word, code.n),
        enumerated=trials, seed=seed)


# ----------------------------------------------------------------------
# Structural weight-counting checks
# ----------------------------------------------------------------------

@dataclass
class CountingReport:
    """Per-claim outcome of the block/tuple counting verification.

    claim_blocks:   every examined codeword has >= K+1 nonzero blocks.
    claim_distinct: designated half-block tuples take >= ceil((K+1)/2^m)
                    distinct nonzero values.
    claim_mult:     no designated tuple value occurs more than 2^m times.
    """

    mode: str
    examined: int
    claim_blocks: bool
    claim_distinct: bool
    claim_mult: bool
    min_nonzero_blocks: int
    min_distinct_tuples: int
    max_multiplicity: int
    blocks_threshold: int
    distinct_threshold: int
    mult_threshold: int
    seed: int | None = None
    violations: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.claim_blocks and self.claim_distinct and self.claim_mult


def _examine(code: StabilizerCodeL, word: int, memo: dict,
             exp) -> tuple[int, int, int]:
    """(nonzero blocks, distinct designated tuples, max multiplicity)."""
    w = exp.block_width
    mask = (1 << w) - 1
    u = word & ((1 << code.n) - 1)
    v = word >> code.n
    nonzero = 0
    counts: dict = {}
    for i in range(code.big_n):
        ub = (u >> (i * w)) & mask
        vb = (v >> (i * w)) & mask
        if not (ub | vb):
            continue
        nonzero += 1
        key = (i, ub, vb)
        tup = memo.get(key, -1)
        if tup == -1:
            tup = designated_half_tuple(exp, i, ub, vb)
            memo[key] = tup
        if tup is not None:
            counts[tup] = counts.get(tup, 0) + 1
    if counts:
        return nonzero, len(counts), max(counts.values())
    return nonzero, 0, 0


def verify_counting_claims(code: StabilizerCodeL, mode: str = "exhaustive",
                           trials: int | None = None,
                           seed: int | None = None) -> CountingReport:
    """Check the three counting claims over codewords of N \\ S.

    Exhaustive mode walks every normalizer combination by Gray code
    (same budget as :func:`exact_distance`); sampled mode draws
    ``trials`` seeded uniform normalizer codewords.  Stabilizer members
    are never examined.
    """
    exp = get_expander(code.field, code.basis)
    blocks_thr = code.big_k + 1
    distinct_thr = math.ceil((code.big_k + 1) / (1 << code.m))
    mult_thr = 1 << code.m
    memo: dict = {}

    min_blocks = code.big_n + 1
    min_distinct = None
    max_mult = 0
    examined = 0
    violations: list = []

    def consider(word: int) -> None:
        nonlocal min_blocks, min_distinct, max_mult, examined
        examined += 1
        nb, nd, mm = _examine(code, word, memo, exp)
        if nb < min_blocks:
            min_blocks = nb
        if min_distinct is None or nd < min_distinct:
            min_distinct = nd
        if mm > max_mult:
            max_mult = mm
        if (nb < blocks_thr or nd < distinct_thr or mm > mult_thr) and \
                len(violations) < 8:
            violations.append({"word": word, "nonzero_blocks": nb,
                               "distinct_tuples": nd, "multiplicity": mm})

    if mode == "exhaustive":
        r = code.rank_n
        if r > MAX_EXACT_RANK:
            raise DistanceError(
                f"rank(N) = {r} exceeds the exhaustive budget; use "
                f"sampled mode")
        gens = code.n_matrix
        s_rows = code.s_matrix
        x = 0
        for idx in range(1, 1 << r):
            x ^= gens[(idx & -idx).bit_length() - 1]
            if in_span(s_rows, x):
                continue
            consider(x)
    elif mode == "sampled":
        if trials is None or trials < 1:
            raise DistanceError("sampled mode needs trials >= 1")
        rng = random.Random(seed)
        r = code.rank_n
        for _ in range(trials):
            x = xor_rows(code.n_matrix, rng.getrandbits(r))
            if in_span(code.s_matrix, x):
                continue
            consider(x)
    else:
        raise DistanceError(f"unknown mode {mode!r}")

    if examined == 0:
        raise DistanceError("no codeword outside the stabilizer examined")
    return CountingReport(
        mode=mode, examined=examined,
        claim_blocks=min_blocks >= blocks_thr,
        claim_distinct=(min_distinct or 0) >= distinct_thr,
        claim_mult=max_mult <= mult_thr,
        min_nonzero_blocks=min_blocks,
        min_distinct_tuples=min_distinct or 0,
        max_multiplicity=max_mult,
        blocks_threshold=blocks_thr,
        distinct_threshold=distinct_thr,
        mult_threshold=mult_thr,
        seed=seed, violations=violations)
