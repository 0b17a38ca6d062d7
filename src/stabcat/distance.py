"""Minimum symplectic weight over the normalizer-minus-stabilizer coset.

Exact mode enumerates all 2^rank(N) combinations of the reduced
normalizer generators in Gray order, skipping members of the
stabilizer span.  The enumeration is partitionable into disjoint index
ranges whose results combine by minimum — the outcome is independent
of the partition count — and one walk covers all of them.  The kernel
is :func:`stabcat._distpure.gray_scan`: it walks the indices in chunks
of 2^10 words, each one XOR of a high word with a shared table, and
weighs a whole chunk at once bit-sliced, one lane per word, with the
sampler's counter.  Only the words below the best weight so far are
rebuilt and tested against the stabilizer span, in index order.

Sampled mode draws uniform random normalizer codewords and reports the
minimum weight seen, an upper bound on the true distance only.  It is
reproducible per seed and prefix-stable.  The draws are evaluated
bit-sliced, ``BATCH`` at a time with one bit lane per draw, from
``getrandbits`` calls of ``DRAW`` draws each that give the same bits as
per-draw calls, streamed into the lanes: each column of the batch's
words is one XOR of row lane vectors, or of fewer other columns of its
block where the block's columns depend on each other, and a
bit-sliced counter gives every draw's weight at once.
Only the draws below the best weight so far are rebuilt and tested
against the stabilizer span, in draw order.

The module also verifies the structural weight-counting facts the
asymptotic distance bound rests on: every normalizer-coset codeword has
at least K+1 nonzero blocks, its designated quaternary half-block
tuples take at least ceil((K+1)/2^m) distinct nonzero values, and no
value repeats more than 2^m times.  These facts depend on a word only
through the class of each block (zero, s/t content only, or its
designated tuple), so each block has a class table keyed by its bits
(:func:`class_tables`).  The exhaustive check does not visit every
word.  Let T0_i be the words of N in S that vanish outside block i
(:func:`block_local`), and F, the field parts, a complement of
T0 = sum T0_i in N.  Each word of N is f + sum t_i for one f in F and
one t_i in each T0_i: it lies in S iff f does, and block i's bits range
over f's coset modulo T0_i whatever the other blocks hold.  So the
claims over the 2^dim(T0) words of one f follow from one set of classes
per block (:func:`coset_tables`, scored by :func:`coset_outcome`), and
the F words are walked in Gray chunks as signatures of those sets: a
word's signature is its outside-S flag next to the tuple of its block
classes (or class sets).  At m=1 K=1 there are 256 field parts, 240 of
them outside S, each standing for 2^12 words.  Sampled draws rarely
share a signature, so the sampled check does not tally them: it takes
the sampler's batches (:func:`~stabcat._distpure.batches`), reads each
block's keys and the stabilizer residue off a batch's columns, and
scores the signatures in draw order.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache, partial, reduce
from itertools import chain, islice, repeat, tee
from operator import and_, or_, rshift
from typing import NamedTuple

from .concat import StabilizerCodeL, SymplecticVector, designated_half
from .symplectic import (Rref, block_columns, byte_mask, column_plan,
                         lowest_bit, symplectic_weight_packed, transpose,
                         xor_rows)
from . import _distpure

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


def in_span(span: Rref, x: int) -> bool:
    """Membership of x in a span: symplectic's, not imported, since the
    per-layer trace may wrap that name before this module loads."""
    return span.reduce(x) == 0


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
    ``parts``, from 1 to 2^rank(N), names how many disjoint index
    ranges the enumeration splits into.  Their minima combine to the
    minimum of the whole, ties staying with the lowest index, so every
    part count gives the identical report, and the ranges are not
    walked apart: one :func:`~stabcat._distpure.gray_scan` walks
    [0, 2^rank(N)), handing the best weight on from chunk to chunk.
    """
    r = code.rank_n
    if r > MAX_EXACT_RANK:
        raise DistanceError(
            f"rank(N) = {r} exceeds the exact-enumeration budget "
            f"2^{MAX_EXACT_RANK}; use the sampled mode")
    total = 1 << r
    if parts < 1 or parts > total:
        raise DistanceError(f"invalid partition count {parts}")
    w, _idx, word = _distpure.gray_scan(list(code.n_matrix), code.n,
                                        code.s_span, 0, total)
    if w < 0:  # pragma: no cover - k >= 1 always leaves a coset
        raise DistanceError("no codeword outside the stabilizer span")
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
    trials never increase the bound.  Trial t's word is the XOR of the
    normalizer rows selected by the t-th ``getrandbits(rank N)`` of
    ``random.Random(seed)``; the first minimum-weight word outside the
    stabilizer span is the witness.

    The trials are evaluated bit-sliced, a batch at a time, one bit
    lane per trial (:func:`~stabcat._distpure.batches`).  A batch holds
    its lanes, rank(N) × ``BATCH`` bits, and one ``getrandbits`` call's
    worth of draws while they are streamed in.  Each of the 2n
    columns of a batch's words is the XOR of the lane vectors of the
    rows with that column set, or of other columns of its block, as a
    plan read once per call from the normalizer's columns says
    (:func:`column_plan`, over blocks of ``code.block_width``).  The
    columns are formed a block at a time, and a bit-sliced counter gives
    every trial's weight.  Only the lanes below
    the best weight so far are rebuilt, in trial order, and tested
    against the stabilizer span (:func:`~stabcat._distpure.lightest`):
    exactly the trials that a trial-by-trial loop would test.
    """
    if trials < 1:
        raise DistanceError("trials must be >= 1")
    rows = code.n_matrix
    r = code.rank_n
    n = code.n
    width = code.block_width
    plan = list(column_plan(rows, n, width))
    s_span = code.s_span
    best = None  # (w, trial, word)
    for first, count, lanes in _distpure.batches(seed, r, trials):
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

class CountingReport(NamedTuple):
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
    seed: int | None
    violations: list

    @property
    def passed(self) -> bool:
        return self.claim_blocks and self.claim_distinct and self.claim_mult


def block_class(exp, i: int, key: int) -> int:
    """Class of block i's bits ``key``: 0 for a zero block, 1 for a
    nonzero block without a designated half (s/t content only), and
    2 + h for a block whose designated half is h (:func:`designated_half`),
    so equal tuples get equal classes in every block."""
    if not key:
        return 0
    w = exp.block_width
    half = designated_half(exp, i, key & ((1 << w) - 1), key >> w)
    return 1 if half is None else 2 + half


#: most input bits of the block map at which a block's class table is
#: cached (:func:`class_tables`)
CACHED_INPUT_BITS = 14


def class_tables(exp) -> list:
    """Per block of ``exp``, its :func:`block_class`, cached where its
    keys repeat.

    A block's keys in N are images of the block map, which has 6m+2
    input bits (:meth:`~stabcat.concat.BlockExpander.unit_images`), so
    a block has at most 2^(6m+2) keys.  Up to ``CACHED_INPUT_BITS``
    (m <= 2) each table is under ``functools.cache`` and classifies
    each key once; the cache is bounded by the keys themselves (16,384
    per block at m=2).  At m=3 a block has about a million keys, and a
    cache almost never hit (62,962 misses in 63,000 lookups over 1,000
    draws at K=10) and grew with every draw, so no table is cached.
    """
    tables = [partial(block_class, exp, i) for i in range(exp.n_blocks)]
    if 6 * exp.m + 2 <= CACHED_INPUT_BITS:
        tables = list(map(cache, tables))
    return tables


def outcome(classes: tuple) -> tuple[int, int, int]:
    """(nonzero blocks, distinct designated tuples, max multiplicity)
    of a word with block classes ``classes``."""
    counts = Counter(classes)
    zero = counts.pop(0, 0)
    counts.pop(1, None)
    return (len(classes) - zero, len(counts),
            max(counts.values(), default=0))


def block_local(rows, exp) -> list[list[int]]:
    """Per block of the expander ``exp``, a basis of the words of
    span(rows) in S that vanish outside it.

    ``rows`` carry their stabilizer residue above bit 2n.  One
    :class:`Rref` per block takes each row with the block's bits cleared
    (the outside bits and the residue low) and its tag ``1 << (4n + j)``
    high; an echelon row with no bit below 4n tags a combination of the
    rows that is zero outside the block and in S.
    """
    tag = 4 * exp.n
    block = (1 << (2 * exp.block_width)) - 1  # every bit of a key
    local = []
    for i in range(exp.n_blocks):
        outside = ~exp.word(block, i)
        acc = Rref()
        for j, x in enumerate(rows):
            acc.add((x & outside) | (1 << (tag + j)))
        local.append([xor_rows(rows, t >> tag) for t in acc.rows
                      if lowest_bit(t) >= tag])
    return local


def coset_tables(exp, tables, local) -> list:
    """Per block, a cached table from a key to the frozenset of the
    classes that ``tables`` give the keys of its coset key + key_i(T0_i),
    where ``local[i]`` spans T0_i (:func:`block_local`), whose keys
    :func:`~stabcat._distpure.gray_table` lists."""
    spans = [_distpure.gray_table([exp.key(t, i) for t in words])
             for i, words in enumerate(local)]
    return [cache(partial(_coset_classes, table, span))
            for table, span in zip(tables, spans)]


def _coset_classes(table, span, key: int) -> frozenset:
    return frozenset([table(key ^ s) for s in span])


def coset_outcome(sets: tuple) -> tuple[int, int, int]:
    """(min nonzero blocks, min distinct tuples, max multiplicity) over
    the words whose blocks take classes from ``sets``, one class set
    per block.

    Each block takes any class of its set, whatever the others take:
    zero wherever it can, a tuple shared with as many blocks as hold
    it, and for the blocks that must take a tuple (no class 0 or 1)
    the fewest tuples that meet all of their sets.
    """
    counts = Counter(chain.from_iterable(s - {0, 1} for s in sets))
    forced = [s for s in sets if s.isdisjoint((0, 1))]
    return (sum(0 not in s for s in sets), min_hitting_set(forced),
            max(counts.values(), default=0))


def min_hitting_set(sets) -> int | float:
    """Fewest elements meeting every one of ``sets`` (inf if one is empty).

    Branches on the elements of the smallest set: exact, and exponential
    only in the number of sets.
    """
    if not sets:
        return 0
    first = min(sets, key=len)
    return 1 + min((min_hitting_set([s for s in sets if x not in s])
                    for x in first), default=math.inf)


def _signatures(tables, outside, keys):
    """Signatures of a run of words, lazily in the run's order.

    ``outside`` gives each word's outside-S flag (true iff the word lies
    outside S), and the i-th item of ``keys`` gives block i's key of
    each word.  A word's signature is ``(flag, classes)``, its block
    classes looked up in the cached tables by ``map``.
    """
    return zip(outside, zip(*[map(table, block_keys)
                              for table, block_keys in zip(tables, keys)]))


def _walk_signatures(exp, tables, rows, r: int):
    """Signatures of the words at Gray indices [0, 2^r) of ``rows``.

    ``tables`` are the blocks' tables of ``exp``, from
    :func:`class_tables` or :func:`coset_tables`.  One
    :func:`~stabcat._distpure.gray_chunks` walk per block key and one
    for the stabilizer residue; their chunks cover the same indices, so
    each chunk's signatures come from :func:`_signatures`, one lazy
    iterator per chunk.
    """
    total = 1 << r
    walks = [_distpure.gray_chunks([x >> (2 * exp.n) for x in rows], 0,
                                   total)]
    walks += [_distpure.gray_chunks([exp.key(x, i) for x in rows], 0, total)
              for i in range(len(tables))]
    for (_f, high, low), *blocks in zip(*walks):
        yield _signatures(tables, map(bool, map(high.__xor__, low)),
                          [map(high.__xor__, low) for _f, high, low in blocks])


def _extremes(scored, n_blocks: int) -> tuple[int, int, int, int]:
    """(examined, min nonzero blocks, min distinct tuples, max
    multiplicity) over ``scored``, (word count, shared outcome) pairs."""
    examined = max_mult = 0
    min_blocks = min_distinct = n_blocks + 1
    for count, (nb, nd, mm) in scored:
        examined += count
        min_blocks = min(min_blocks, nb)
        min_distinct = min(min_distinct, nd)
        max_mult = max(max_mult, mm)
    return examined, min_blocks, min_distinct, max_mult


def verify_counting_claims(code: StabilizerCodeL, mode: str = "exhaustive",
                           trials: int | None = None,
                           seed: int | None = None) -> CountingReport:
    """Check the three counting claims over codewords of N \\ S.

    Exhaustive mode covers every normalizer combination (same budget as
    :func:`exact_distance`); sampled mode draws ``trials`` seeded uniform
    normalizer codewords, the same draws as
    :func:`sampled_distance_upper`'s for the seed.  The stabilizer
    residue ``s_span.reduce(x)`` is linear in x, so a combined word lies
    in S iff the residues combine to zero; stabilizer members are never
    examined.

    Each word is reduced to its signature through per-block class tables
    (:func:`class_tables`).  Exhaustive mode finds the block-local
    stabilizer words T0 (:func:`block_local`) and reduces the rows by
    ``Rref.reduce`` against them to a basis of the field parts F, whose
    block keys are then coset representatives modulo T0.  It tallies
    the signatures of the 2^dim(F) field parts over per-block class sets
    (:func:`coset_tables`) and scores each distinct one once
    (:func:`coset_outcome`) for the 2^dim(T0) words it stands for.
    Only when a claim fails is every word of N walked, to list the
    first 8 violating words in walk order.
    Sampled draws almost never repeat a signature (all 10^5 distinct at
    m=2 K=3), so they are not tallied but scored in draw order.  A
    batch's columns are formed block by block
    (:func:`block_columns`) from two column plans
    (:func:`column_plan`): the OR of the residue columns, from a plan of
    the residues, gives each draw's outside-S bit, and one
    :func:`transpose` of the 2n key columns, from the sampler's plan of
    N, gives each draw its block keys side by side (at m=3 K=10 in 268
    bytes, where one int per block key takes 36 a block).  The OR stops
    once every draw is outside, so the residue plan is built only as
    far as a batch has read it: 5 of 63 blocks at m=3 K=10.  A batch is
    one draw (``_distpure.DRAW`` trials): the traced peak at 4,096
    draws is 1.1 MB, not 4.4 as in 4,096-draw batches.  A draw's word
    is rebuilt from its selector only when it is listed as a violation.
    Both modes fold their scores into the extremes by :func:`_extremes`.
    """
    shift = 2 * code.n
    r = code.rank_n
    exp = code.expander
    tables = class_tables(exp)
    blocks_thr = code.big_k + 1
    distinct_thr = math.ceil((code.big_k + 1) / (1 << code.m))
    mult_thr = 1 << code.m
    word_mask = (1 << shift) - 1

    def violates(score):
        nb, nd, mm = score
        return nb < blocks_thr or nd < distinct_thr or mm > mult_thr

    def violation(word, score):
        nb, nd, mm = score
        return {"word": word & word_mask, "nonzero_blocks": nb,
                "distinct_tuples": nd, "multiplicity": mm}

    violations: list = []
    if mode == "exhaustive":
        if r > MAX_EXACT_RANK:
            raise DistanceError(
                f"rank(N) = {r} exceeds the exhaustive budget; use "
                f"sampled mode")
        rows = [x | (code.s_span.reduce(x) << shift) for x in code.n_matrix]
        local = block_local(rows, exp)
        t0 = Rref.spanning(chain.from_iterable(local))
        f_rows = Rref.spanning(map(t0.reduce, rows)).rows
        tally = Counter(chain.from_iterable(_walk_signatures(
            exp, coset_tables(exp, tables, local), f_rows, len(f_rows))))
        extremes = _extremes(((count << t0.rank, coset_outcome(sets))
                              for (out, sets), count in tally.items()
                              if out), code.big_n)
        if violates(extremes[1:]):
            score = cache(outcome)
            words = chain.from_iterable(
                map(high.__xor__, low)
                for _f, high, low in _distpure.gray_chunks(rows, 0, 1 << r))
            sigs = chain.from_iterable(_walk_signatures(exp, tables, rows, r))
            listed = ((word, cls) for word, (out, cls) in zip(words, sigs)
                      if out and violates(score(cls)))
            violations = [violation(word, score(cls))
                          for word, cls in islice(listed, 8)]
    elif mode == "sampled":
        if trials is None or trials < 1:
            raise DistanceError("sampled mode needs trials >= 1")
        w = exp.block_width
        # block by block, each block's u columns then its v columns, so
        # that bits 2wi.. of a draw's entry in ``keys`` are block i's key
        plan = list(column_plan(code.n_matrix, code.n, w))
        key_mask = (1 << (2 * w)) - 1

        def scored():
            # planned as far as the walks read it: each batch walks a copy
            # (tee), and the copy left at the start keeps what is planned
            residue = column_plan(
                list(map(code.s_span.reduce, code.n_matrix)), code.n, w)
            for _first, count, lanes in _distpure.batches(
                    seed, r, trials, _distpure.DRAW):
                # the blocks stop once every draw is known to be outside
                every = (1 << count) - 1
                outside = 0
                residue, walk = tee(residue)
                for cols in block_columns(lanes, walk, w):
                    outside = reduce(or_, cols, outside)
                    if outside == every:
                        break
                keys = transpose(list(chain.from_iterable(
                    block_columns(lanes, plan, w))), count)
                sigs = _signatures(
                    tables, byte_mask(outside).ljust(count, b"\0"),
                    (map(and_, map(rshift, keys, repeat(i)), repeat(key_mask))
                     for i in range(0, shift, 2 * w)))
                for t, (out, cls) in enumerate(sigs):
                    if out:
                        found = outcome(cls)
                        if len(violations) < 8 and violates(found):
                            violations.append(violation(
                                _distpure.trial_word(code.n_matrix, lanes,
                                                     t), found))
                        yield 1, found
                del lanes, keys, sigs  # before the next batch is drawn

        extremes = _extremes(scored(), code.big_n)
    else:
        raise DistanceError(f"unknown mode {mode!r}")
    examined, min_blocks, min_distinct, max_mult = extremes
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
