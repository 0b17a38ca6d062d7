"""Minimum symplectic weight over the normalizer-minus-stabilizer coset.

Exact mode enumerates all 2^rank(N) combinations of the reduced
normalizer generators in Gray order, skipping members of the
stabilizer span, and is partitionable into disjoint index ranges whose
results combine by minimum — the outcome is independent of the
partition count.  The kernel is :func:`stabcat._distpure.gray_scan`:
it walks the indices in chunks of 2^10 words, each one XOR of a high
word with a shared table, and weighs a whole chunk at once bit-sliced,
one lane per word, with the sampler's counter.  Only the words below
the best weight so far are rebuilt and tested against the stabilizer
span, in index order.

Sampled mode draws uniform random normalizer codewords and reports the
minimum weight seen, an upper bound on the true distance only.  It is
reproducible per seed and prefix-stable.  The draws are evaluated
bit-sliced, ``BATCH`` at a time with one bit lane per draw, from one
``getrandbits`` call that gives the same bits as per-draw calls: each
column of the batch's words is one XOR of row lane vectors, or of
fewer other columns of its block where the block's columns depend on
each other, and a bit-sliced counter gives every draw's weight at once.
Only the draws below the best weight so far are rebuilt and tested
against the stabilizer span, in draw order.

The module also verifies the structural weight-counting facts the
asymptotic distance bound rests on: every normalizer-coset codeword has
at least K+1 nonzero blocks, its designated quaternary half-block
tuples take at least ceil((K+1)/2^m) distinct nonzero values, and no
value repeats more than 2^m times.  These facts depend on a word only
through the class of each block (zero, s/t content only, or its
designated tuple), so each block has a class table keyed by its bits
(:class:`ClassTables`).  The exhaustive check does not visit every
word.  Let T0_i be the words of N in S that vanish outside block i, and
F, the field parts, a complement of T0 = sum T0_i in N.  Each word of N
is f + sum t_i for one f in F and one t_i in each T0_i: it lies in S iff
f does, and block i's bits range over f's coset modulo T0_i whatever
the other blocks hold.  So the claims over the 2^dim(T0) words of one f
follow from one set of classes per block (:mod:`stabcat._cosets`), and
the F words are walked in Gray chunks as signatures of those sets: a
word's signature is its outside-S flag next to the tuple of its block
classes (or class sets).  At m=1 K=1 there are 256 field parts, 240 of
them outside S, each standing for 2^12 words.  Sampled draws rarely
share a signature, so the sampled check does not tally them: it takes
the sampler's draws, a batch at a time, reads each block's keys and the
stabilizer residue off the batch's columns, and scores the signatures
in draw order.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import cache, reduce
from itertools import chain, islice, repeat
from operator import and_, or_, rshift
from typing import NamedTuple

from .concat import (StabilizerCodeL, SymplecticVector, designated_half,
                     get_expander)
from .symplectic import (Report, Rref, byte_mask, column_plan,
                         column_supports, in_span, row_reduce,
                         symplectic_weight_packed, transpose)
from . import _distpure
from ._cosets import BlockClasses, CosetClasses, block_key, block_local
from ._distpure import BATCH

HAVE_COMPILED = False  # always False; perfbench/run.py's env probe reads it

MAX_EXACT_RANK = 24


class DistanceError(ValueError):
    """Infeasible or invalid distance-search request."""


class DistanceReport(NamedTuple):
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
    if not in_span(code.n_span, word):
        raise DistanceError("witness fell outside the normalizer span")
    if in_span(code.s_span, word):
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
    s_span = code.s_span
    s_pivots = list(zip(s_span.pivots, s_span.rows))
    total = 1 << r
    best = None  # (w, idx, word)
    for part in range(parts):
        lo, hi = total * part // parts, total * (part + 1) // parts
        w, idx, word = _distpure.gray_scan(gens, code.n, s_pivots, lo, hi)
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


def block_width(n: int) -> int:
    """4m+2 for the paper's length n = (4^m - 1)(4m+2), else 1.

    The sampler reads a code only through its rows, so it finds the
    blocks of :func:`~stabcat.symplectic.column_plan` from n.  Any width
    gives the same columns; a block of one position is its u and v
    columns alone.
    """
    m = 1
    while ((1 << (2 * m)) - 1) * (4 * m + 2) < n:
        m += 1
    return 4 * m + 2 if ((1 << (2 * m)) - 1) * (4 * m + 2) == n else 1


def sampled_distance_upper(code: StabilizerCodeL, trials: int,
                           seed: int) -> DistanceReport:
    """Upper bound on the distance from uniform normalizer samples.

    Reproducible per seed, and prefix-stable: the first T trials of a
    longer run coincide with a T-trial run on the same seed, so more
    trials never increase the bound.  Trial t's word is the XOR of the
    normalizer rows selected by the t-th ``getrandbits(rank N)`` of
    ``random.Random(seed)``; the first minimum-weight word outside the
    stabilizer span is the witness.

    The trials are evaluated bit-sliced, ``BATCH`` at a time, one bit
    lane per trial (see :mod:`stabcat._distpure`).  Each of the 2n
    columns of a batch's words is the XOR of the lane vectors of the
    rows with that column set, or of other columns of its block, as a
    plan read once per call from the normalizer's columns says
    (:func:`column_plan`, over blocks of :func:`block_width`).  The
    columns are formed a block at a time, and a bit-sliced counter gives
    every trial's weight.  Only the lanes below
    the best weight so far are rebuilt, in trial order, and tested
    against the stabilizer span (:func:`~stabcat._distpure.lightest`):
    exactly the trials that a trial-by-trial loop would test.
    """
    if trials < 1:
        raise DistanceError("trials must be >= 1")
    rng = random.Random(seed)
    rows = code.n_matrix
    r = code.rank_n
    n = code.n
    width = block_width(n)
    plan = column_plan(rows, n, width)
    s_span = code.s_span
    best = None  # (w, trial, word)
    for first in range(0, trials, BATCH):
        count = min(BATCH, trials - first)
        lanes = _distpure.lane_vectors(_distpure.draw(rng, r, count), r)
        found = _distpure.lightest(
            _distpure.weight_planes(lanes, plan, width), (1 << count) - 1,
            n + 1 if best is None else best[0],
            lambda t: _distpure.trial_word(rows, lanes, t),
            lambda x: not in_span(s_span, x))
        if found:
            w, t, x = found
            best = (w, first + t, x)
        del lanes  # before the next batch is drawn
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

class CountingReport(Report):
    """Per-claim outcome of the block/tuple counting verification.

    claim_blocks:   every examined codeword has >= K+1 nonzero blocks.
    claim_distinct: designated half-block tuples take >= ceil((K+1)/2^m)
                    distinct nonzero values.
    claim_mult:     no designated tuple value occurs more than 2^m times.
    """

    __slots__ = ("mode", "examined", "claim_blocks", "claim_distinct",
                 "claim_mult", "min_nonzero_blocks", "min_distinct_tuples",
                 "max_multiplicity", "blocks_threshold",
                 "distinct_threshold", "mult_threshold", "seed",
                 "violations")

    def __init__(self, mode: str, examined: int, claim_blocks: bool,
                 claim_distinct: bool, claim_mult: bool,
                 min_nonzero_blocks: int, min_distinct_tuples: int,
                 max_multiplicity: int, blocks_threshold: int,
                 distinct_threshold: int, mult_threshold: int,
                 seed: int | None = None,
                 violations: list | None = None) -> None:
        self.mode = mode
        self.examined = examined
        self.claim_blocks = claim_blocks
        self.claim_distinct = claim_distinct
        self.claim_mult = claim_mult
        self.min_nonzero_blocks = min_nonzero_blocks
        self.min_distinct_tuples = min_distinct_tuples
        self.max_multiplicity = max_multiplicity
        self.blocks_threshold = blocks_threshold
        self.distinct_threshold = distinct_threshold
        self.mult_threshold = mult_threshold
        self.seed = seed
        self.violations = [] if violations is None else violations

    @property
    def passed(self) -> bool:
        return self.claim_blocks and self.claim_distinct and self.claim_mult


class ClassTables:
    """Per-block class tables, from which word signatures are built.

    Classes: 0 for a zero block, 1 for a nonzero block without a
    designated half (s/t content only), and 2 + h for a block whose
    designated half is h (:func:`designated_half`), so equal tuples get
    equal classes in every block.  A word's signature is the pair of
    its outside-S flag and the tuple of its block classes
    (:func:`_signatures`); the counting claims depend on a word only
    through its signature.
    """

    def __init__(self, exp) -> None:
        self.exp = exp
        self.n = exp.n_blocks * exp.block_width
        self.tables = [BlockClasses(self, i) for i in range(exp.n_blocks)]

    def classify(self, i: int, key: int) -> int:
        """Class of block i's bits ``key``."""
        if not key:
            return 0
        w = self.exp.block_width
        half = designated_half(self.exp, i, key & ((1 << w) - 1), key >> w)
        return 1 if half is None else 2 + half

    def outcome(self, classes: tuple) -> tuple[int, int, int]:
        """(nonzero blocks, distinct designated tuples, max multiplicity)
        of a word with block classes ``classes``."""
        counts = Counter(classes)
        zero = counts.pop(0, 0)
        counts.pop(1, None)
        return (len(classes) - zero, len(counts),
                max(counts.values(), default=0))


def _signatures(tables, outside, keys):
    """Signatures of a run of words, lazily in the run's order.

    ``outside`` gives each word's outside-S flag (true iff the word lies
    outside S), and the i-th item of ``keys`` gives block i's key of
    each word.  A word's signature is ``(flag, classes)``, its block
    classes read from the tables by ``map`` at C speed.
    """
    return zip(outside, zip(*[map(table.__getitem__, block_keys)
                              for table, block_keys in zip(tables, keys)]))


def _walk_signatures(classes, rows, r: int):
    """Signatures of the words at Gray indices [0, 2^r) of ``rows``.

    ``classes`` is a :class:`ClassTables` or a :class:`CosetClasses`.
    One :func:`~stabcat._distpure.gray_chunks` walk per block key and one
    for the stabilizer residue; their chunks cover the same indices, so
    each chunk's signatures come from :func:`_signatures`, one lazy
    iterator per chunk.
    """
    n = classes.n
    w = classes.exp.block_width
    total = 1 << r
    walks = [_distpure.gray_chunks([x >> (2 * n) for x in rows], 0, total)]
    walks += [_distpure.gray_chunks([block_key(x, i, n, w) for x in rows],
                                    0, total)
              for i in range(len(classes.tables))]
    for (_f, high, low), *blocks in zip(*walks):
        yield _signatures(classes.tables, map(bool, map(high.__xor__, low)),
                          [map(high.__xor__, low) for _f, high, low in blocks])


def verify_counting_claims(code: StabilizerCodeL, mode: str = "exhaustive",
                           trials: int | None = None,
                           seed: int | None = None) -> CountingReport:
    """Check the three counting claims over codewords of N \\ S.

    Exhaustive mode covers every normalizer combination (same budget as
    :func:`exact_distance`); sampled mode draws ``trials`` seeded uniform
    normalizer codewords, the same draws as
    :func:`sampled_distance_upper`'s for the seed.
    Both combine normalizer rows that carry their stabilizer residue
    ``s_span.reduce(x)`` above bit 2n.  The residue is linear in x, so a
    combined word lies in S iff its bits from 2n up are zero; stabilizer
    members are never examined.

    Each word is reduced to its signature through per-block class tables
    (:class:`ClassTables`).  Exhaustive mode finds the block-local
    stabilizer words T0 (:func:`~stabcat._cosets.block_local`) and
    reduces the rows by ``Rref.reduce`` against them to a basis of the
    field parts F, whose block keys are then coset representatives
    modulo T0.  It walks the 2^dim(F) field parts in Gray chunks, one
    walk per block key, to signatures of per-block class sets
    (:class:`~stabcat._cosets.CosetClasses`), tallies them, and
    evaluates the claims once per distinct signature, which stands for
    2^dim(T0) words per field part.  Only when a claim fails is every
    word of N walked, to list the first 8 violating words in walk order.
    Sampled draws almost never repeat a signature (all 10^5 distinct at
    m=2 K=3), so they are not tallied: the draws are taken bit-sliced,
    ``BATCH`` at a time, as :func:`sampled_distance_upper` takes them
    for the seed, and scored in draw order.  A batch's columns come from
    :func:`~stabcat._distpure.columns`: the OR of the residue columns
    (plain supports) gives each draw's outside-S bit, and one
    :func:`transpose` of the 2n key columns, formed block by block from
    the sampler's :func:`column_plan`, gives each draw its block keys
    side by side.  A draw's word is rebuilt from its selector only when
    it is listed as a violation.
    """
    shift = 2 * code.n
    s_span = code.s_span
    rows = [x | (s_span.reduce(x) << shift) for x in code.n_matrix]
    r = code.rank_n
    classes = ClassTables(get_expander(code.field, code.basis))
    blocks_thr = code.big_k + 1
    distinct_thr = math.ceil((code.big_k + 1) / (1 << code.m))
    mult_thr = 1 << code.m
    word_mask = (1 << shift) - 1

    def violates(outcome):
        nb, nd, mm = outcome
        return nb < blocks_thr or nd < distinct_thr or mm > mult_thr

    def violation(word, outcome):
        nb, nd, mm = outcome
        return {"word": word & word_mask, "nonzero_blocks": nb,
                "distinct_tuples": nd, "multiplicity": mm}

    examined = 0
    min_blocks = min_distinct = code.big_n + 1
    max_mult = 0
    violations: list = []
    if mode == "exhaustive":
        if r > MAX_EXACT_RANK:
            raise DistanceError(
                f"rank(N) = {r} exceeds the exhaustive budget; use "
                f"sampled mode")
        local = block_local(rows, len(classes.tables), code.n,
                            classes.exp.block_width)
        t0 = Rref()
        for t in chain.from_iterable(local):
            t0.add(t)
        f_rows = row_reduce(map(t0.reduce, rows))[1]
        cosets = CosetClasses(classes, local)
        tally = Counter(chain.from_iterable(
            _walk_signatures(cosets, f_rows, len(f_rows))))
        for (out, sets), count in tally.items():
            if not out:
                continue
            nb, nd, mm = cosets.outcome(sets)
            examined += count << t0.rank
            min_blocks = min(min_blocks, nb)
            min_distinct = min(min_distinct, nd)
            max_mult = max(max_mult, mm)
        if violates((min_blocks, min_distinct, max_mult)):
            outcome = cache(classes.outcome)
            words = chain.from_iterable(
                map(high.__xor__, low)
                for _f, high, low in _distpure.gray_chunks(rows, 0, 1 << r))
            sigs = chain.from_iterable(_walk_signatures(classes, rows, r))
            listed = ((word, cls) for word, (out, cls) in zip(words, sigs)
                      if out and violates(outcome(cls)))
            violations = [violation(word, outcome(cls))
                          for word, cls in islice(listed, 8)]
    elif mode == "sampled":
        if trials is None or trials < 1:
            raise DistanceError("sampled mode needs trials >= 1")
        rng = random.Random(seed)
        n = code.n
        w = classes.exp.block_width
        residue = column_supports([x >> shift for x in rows], shift)
        # block by block, each block's u columns then its v columns, so
        # that bits 2wi.. of a draw's entry in ``keys`` are block i's key
        plan = column_plan(code.n_matrix, n, w)
        key_mask = (1 << (2 * w)) - 1
        for first in range(0, trials, BATCH):
            count = min(BATCH, trials - first)
            lanes = _distpure.lane_vectors(_distpure.draw(rng, r, count), r)
            outside = reduce(or_, _distpure.columns(lanes, residue), 0)
            keys = transpose(list(chain.from_iterable(
                _distpure.block_columns(lanes, plan, w))), count)
            sigs = _signatures(
                classes.tables, byte_mask(outside).ljust(count, b"\0"),
                (map(and_, map(rshift, keys, repeat(i)), repeat(key_mask))
                 for i in range(0, shift, 2 * w)))
            for t, (out, cls) in enumerate(sigs):
                if not out:
                    continue
                outcome = nb, nd, mm = classes.outcome(cls)
                examined += 1
                min_blocks = min(min_blocks, nb)
                min_distinct = min(min_distinct, nd)
                max_mult = max(max_mult, mm)
                if len(violations) < 8 and violates(outcome):
                    violations.append(violation(
                        _distpure.trial_word(rows, lanes, t), outcome))
    else:
        raise DistanceError(f"unknown mode {mode!r}")
    if not examined:
        raise DistanceError("no codeword outside the stabilizer examined")
    return CountingReport(
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
