"""Chunked Gray-code walk and the one bit-sliced weight kernel.

Both exhaustive walks over normalizer combinations (the exact distance
scan and the exhaustive counting check) go through :func:`gray_chunks`.
It splits a combination index into high bits and ``CHUNK_BITS`` low
bits.  The 2^L low words are one precomputed table listed in reflected
Gray order, and each high step costs one XOR, so every word of a chunk
is ``high ^ table[l]`` and a whole chunk is handled by ``map`` at C
speed.  In the reflected Gray code an odd chunk lists the table
backwards, which is the table forwards with the top low row set
(gray(2^L - 1 - l) = gray(l) ^ 2^(L-1)), so an odd chunk's high word
takes that row and its low words are the one table's.

Both distance searches weigh their words bit-sliced (Biham, "A fast new
DES implementation in software", FSE 1997), a batch at a time: bit t of
each of a batch's 2n column ints belongs to word t.  :func:`count_planes`
sums ``u_j | v_j`` over the positions j with a ripple counter,
:func:`below` picks the words under a weight, and :func:`lightest`
rebuilds and tests those in order.  :func:`batches` draws a batch's
selectors ``DRAW`` trials per ``getrandbits`` call (:func:`draw`) and
streams each draw's bytes into the batch's byte planes, one per
selector byte; each plane is cut into its 8 lane vectors, one int per
normalizer row, and freed at once.  So a batch's memory is its lanes,
rank(N) bits a trial, plus one draw.  The sampled distance takes
batches of ``BATCH`` trials, rank(N) × ``BATCH`` bits of lanes; the
sampled counting check takes batches of ``DRAW`` trials, one draw
each.  Both form a batch's word columns from its lanes one block at a
time through ``symplectic.block_columns``, as ``symplectic.column_plan``
lists them: the plan is built and read in :mod:`stabcat.symplectic`.
A column that is the XOR of fewer of its block's other columns than it
has rows is formed from those columns, which halves a batch's XORs at
m=3 K=10.  The sampled counting check reads the same columns, and its
residue's columns from a plan of their own.  An exact-scan batch is a
chunk of :func:`gray_chunks`, whose columns are the chunk table's,
transposed once (:func:`chunk_carries`), flipped where the chunk's
high word is set.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import chain, compress
from operator import getitem, or_, xor

from .symplectic import (block_columns, byte_mask, transpose, transpose_planes,
                         xor_rows)

#: low bits of the combination index handled per chunk, one bit-sliced
#: batch.  Each scan builds its chunk table once (:func:`gray_table`);
#: 12 bits is no clear gain: it takes the m=1 K=1 scan from 21 to 9 ms,
#: but the exact CLI runs' peak RSS at m=1 from 16.2 to 16.5-16.7 MB
#: (2-CPU Xeon, Python 3.11)
CHUNK_BITS = 10


def gray_chunks(rows, start: int, stop: int):
    """Walk combination indices [start, stop) of ``rows`` in Gray order.

    The word at index idx is the XOR of rows[j] over the set bits j of
    idx ^ (idx >> 1).  Yields ``(first, high, low)`` per chunk: the
    words at indices first, first + 1, ... are ``high ^ low[0]``,
    ``high ^ low[1]``, ...  Every chunk reads the one table forwards,
    an odd chunk with the top low row in its high word; a partial chunk
    at either end of the range gets a slice of the table.
    """
    if start >= stop:
        return
    bits = min(len(rows), CHUNK_BITS)
    size = 1 << bits
    table = gray_table(rows[:bits])
    high_rows = rows[bits:]
    first_h = start >> bits
    high = xor_rows(high_rows, first_h ^ (first_h >> 1))
    for h in range(first_h, ((stop - 1) >> bits) + 1):
        if h != first_h:
            high ^= high_rows[(h & -h).bit_length() - 1]
        base = h << bits
        lo = max(start - base, 0)
        hi = min(stop - base, size)
        yield (base + lo, high ^ rows[bits - 1] if h & 1 else high,
               table if hi - lo == size else table[lo:hi])


def gray_table(low_rows) -> list[int]:
    """The chunk table over ``low_rows`` in reflected Gray order.

    Word l of the table is the XOR of low_rows[j] over the set bits j of
    l ^ (l >> 1).
    """
    table = [0]
    for g in low_rows:
        table += [t ^ g for t in reversed(table)]
    return table


# ----------------------------------------------------------------------
# Bit-sliced batches
# ----------------------------------------------------------------------

#: trials the sampler evaluates together, one bit lane of each batch int
#: per trial; a multiple of 8.  A batch holds r × BATCH bits of lanes
#: (:func:`batches`), so wider ints cost memory: the m=3 K=10 sampler
#: (20,000 draws) takes 176, 135 and 127 ms at 2,048, 4,096 and 8,192
#: lanes, at traced peaks of 0.64, 0.93 and 1.58 MB.  At 4,096 its CLI
#: run peaks no higher than the one-shot draws of 2,048 did
BATCH = 4096

#: trials per ``getrandbits`` call within a batch (:func:`batches`): a
#: 36 KB draw at m=3 K=10.  Half as many take about as long, and twice as
#: many add 0.11 MB to the sampler's traced peak there
DRAW = 256


def draw(rng, r: int, count: int) -> bytes:
    """The selectors of ``count`` trials, from one ``rng.getrandbits``.

    ``getrandbits(r)`` takes W = ceil(r/32) 32-bit words and fills its
    result from the least significant end, keeping only the top bits of
    a partial last word (and of the single word when r <= 32).  One
    ``getrandbits(32·W·count)`` takes the same words in the same order,
    so trial t's words are the 4W bytes from byte 4W·t, and the
    generator is left as ``count`` separate draws would leave it; so
    are consecutive draws of any counts.  See :func:`selector_bytes`
    for where each bit sits.
    """
    words = (r + 31) // 32
    return rng.getrandbits(32 * words * count).to_bytes(4 * words * count,
                                                        "little")


def selector_bytes(r: int) -> tuple[int, list[int], slice]:
    """Where a :func:`draw` row keeps the r selector bits.

    A row is 4W bytes; selector bit i is column i of it, or column
    i + 32·W - r in a partial last word, whose low columns are unused.
    Returns the row size 4W, the byte offsets that hold selector bits,
    in order, and the slice of the unused columns among those offsets'
    8 columns each; the other columns are bits 0..r-1.
    """
    words = (r + 31) // 32
    split = max(32 * words - 32, 0)  # selector bits below stay in place
    start = split + 32 * words - r  # the column of selector bit split
    return (4 * words, [*range(split // 8), *range(start // 8, 4 * words)],
            slice(split, split + start % 8))


def batches(seed, r: int, trials: int, lanes_per: int = BATCH):
    """Per batch of up to ``lanes_per`` trials, ``(first, count,
    lanes)``: one int per selector bit i, whose bit t - first is bit i
    of trial t's selector, for trials first..first + count - 1, trial t
    taking the t-th ``getrandbits(r)`` of ``random.Random(seed)``.

    A batch is drawn ``DRAW`` trials at a time (:func:`draw`), and each
    draw's bytes go into one plane per selector byte offset.  Each plane
    is freed as soon as its 8 lanes are cut
    (:func:`~stabcat.symplectic.transpose_planes`), so a batch holds its
    lanes, r × ``lanes_per`` bits, and one draw of ``DRAW`` trials.  No
    batch is held here while the next is drawn.
    """
    rng = random.Random(seed)
    size, offsets, unused = selector_bytes(r)
    for first in range(0, trials, lanes_per):
        count = min(lanes_per, trials - first)
        planes = [bytearray(count) for _ in offsets]
        for lo in range(0, count, DRAW):
            hi = min(lo + DRAW, count)
            buf = draw(rng, r, hi - lo)
            for plane, o in zip(planes, offsets):
                plane[lo:hi] = buf[o::size]
        del buf
        lanes = transpose_planes(_drain(planes), count)
        del lanes[unused]
        yield first, count, lanes
        del lanes  # before the next batch is drawn


def _drain(items: list):
    """The items of the list in order, each dropped from it as taken."""
    items.reverse()
    while items:
        yield items.pop()


def count_planes(carries) -> list[int]:
    """Bit-sliced counts: a ripple counter over the ints of ``carries``.

    Bit t of ``planes[k]`` is bit k of how many of the ``carries`` have
    bit t set.  Fed ``u_j | v_j`` for every position j of a batch's
    words, it counts their symplectic weights; one carry is held at a
    time.
    """
    planes: list[int] = []
    for carry in carries:
        k = 0
        for plane in planes:
            planes[k] = plane ^ carry
            carry &= plane
            if not carry:
                break
            k += 1
        else:
            if carry:
                planes.append(carry)
    return planes


def weight_planes(lanes: list[int], supports, width: int) -> list[int]:
    """Bit-sliced weights of a batch's words, a block at a time.

    ``supports`` holds the 2n columns' entries as the blocks of a
    ``symplectic.column_plan``, runs of 2·width
    (:func:`~stabcat.symplectic.block_columns`).
    Each run's u_j | v_j pairs go into :func:`count_planes`, whose
    result does not depend on their order; only one run's columns are
    held at a time.
    """
    return count_planes(chain.from_iterable(
        map(or_, cols[:width], cols[width:])
        for cols in block_columns(lanes, supports, width)))


def trial_word(rows, lanes: list[int], t: int) -> int:
    """Trial t's word: the XOR of the rows whose lane vector has bit t."""
    return reduce(xor, compress(rows, [v >> t & 1 for v in lanes]), 0)


def below(planes: list[int], w: int, every: int) -> int:
    """The lanes of ``every`` whose bit-sliced weight is below w."""
    lt, eq = 0, every
    for k in range(max(len(planes), w.bit_length()) - 1, -1, -1):
        plane = planes[k] if k < len(planes) else 0
        if w >> k & 1:
            lt |= eq & ~plane
            eq &= plane
        else:
            eq &= ~plane
    return lt


def lightest(planes: list[int], every: int, w: int, word, outside):
    """The first word of least weight below w outside the span, or None.

    Walks the lanes of ``every`` whose bit-sliced weight (``planes``)
    is below w in lane order: ``word(t)`` rebuilds lane t's word and
    ``outside(x)`` tests it.  A word outside lowers the bound to its own
    weight, and only the later lanes below that are walked on, so the
    result (weight, lane, word) is the first lane of least weight.
    """
    best = None
    todo = below(planes, w, every)
    while todo:
        low = todo & -todo
        t = low.bit_length() - 1
        x = word(t)
        if not outside(x):
            todo ^= low
            continue
        w = sum((plane >> t & 1) << k for k, plane in enumerate(planes))
        best = w, t, x
        todo = below(planes, w, every) >> (t + 1) << (t + 1)
    return best


# ----------------------------------------------------------------------
# Exact scan
# ----------------------------------------------------------------------

def chunk_carries(low_rows, n: int) -> list:
    """Per position j, the lanes ``u_j | v_j`` by the high word's u_j, v_j.

    The 2n columns of the chunk table over ``low_rows`` (:func:`gray_table`)
    are one :func:`transpose` of its words: bit l of column c is bit c of
    word l.  A set bit of a chunk's high word flips its column.
    """
    full = (1 << (1 << len(low_rows))) - 1
    table = transpose(gray_table(low_rows), 2 * n)
    return [((u | v, u | v ^ full), (u ^ full | v, (u & v) ^ full))
            for u, v in zip(table[:n], table[n:])]


def gray_scan(gens, n: int, s_span, start: int, stop: int):
    """Scan combination indices [start, stop); returns (w, idx, word).

    ``gens`` are packed 2n-bit generator rows; ``s_span`` is the span to
    exclude, an ``Rref`` whose ``reduce`` tests each candidate.  The zero
    word is never a candidate.  Returns the best (weight, index,
    codeword) with ties broken by the smallest index, or (-1, -1, 0) if
    no candidate outside the excluded span was seen.  Each chunk looks
    only for words strictly lighter than the best of the chunks before
    it, and the scan stops after the chunk that holds a word of weight
    1, which no later word can beat.  Disjoint ranges scanned apart
    combine by minimum on (weight, index) to the scan of their union;
    :func:`~stabcat.distance.exact_distance` scans its whole range in
    one call.

    Each chunk is one bit-sliced batch, a lane per word, and a partial
    chunk takes its lanes' slice of the carries.  A chunk's words are its
    high word XOR the one table (:func:`gray_chunks`), so the high word
    alone selects the carries.
    """
    bits = min(len(gens), CHUNK_BITS)  # as gray_chunks splits the index
    size = 1 << bits
    carry = chunk_carries(gens[:bits], n)
    bound = n + 1  # no word weighs more than n
    best = None  # (w, idx, word)
    for first, high, low in gray_chunks(gens, start, stop):
        lo = first & (size - 1)
        every = (1 << len(low)) - 1
        carries = map(getitem,
                      map(getitem, carry,
                          byte_mask(high & ((1 << n) - 1)).ljust(n, b"\0")),
                      byte_mask(high >> n).ljust(n, b"\0"))
        if len(low) < size:  # a partial chunk
            carries = [c >> lo & every for c in carries]
        found = lightest(count_planes(carries), every, bound,
                         lambda t: high ^ low[t], s_span.reduce)
        if found:
            bound, t, x = found
            best = bound, first + t, x
            if bound == 1:  # no later word can beat it
                break
    return best or (-1, -1, 0)
