"""Chunked Gray-code walk and the one bit-sliced weight kernel.

Both exhaustive walks over normalizer combinations (the exact distance
scan and the exhaustive counting check) go through :func:`gray_chunks`.
It splits a combination index into high bits and ``CHUNK_BITS`` low
bits.  The 2^L low words are one precomputed table listed in reflected
Gray order, and each high step costs one XOR, so every word of a chunk
is ``high ^ table[l]`` and a whole chunk is handled by ``map`` at C
speed.  In the reflected Gray code an odd chunk lists the table
backwards.

Both distance searches weigh their words bit-sliced (Biham, "A fast new
DES implementation in software", FSE 1997), a batch at a time: bit t of
each of a batch's 2n column ints belongs to word t.  :func:`count_planes`
sums ``u_j | v_j`` over the positions j with a ripple counter,
:func:`below` picks the words under a weight, and :func:`lightest`
rebuilds and tests those in order.  A sampler batch is ``BATCH`` trials:
:func:`draw` takes their selectors from one ``getrandbits`` call,
:func:`lane_vectors` transposes them into one int per normalizer row,
and :func:`columns` XORs those into the words' columns one block at a
time (:func:`block_columns`), as ``symplectic.column_plan`` lists
them: a column that is the XOR of fewer of its block's other columns
than it has rows is formed from those columns, which halves a batch's
XORs at m=3 K=10.  The sampled counting check reads the same columns.
An exact-scan batch is a chunk of :func:`gray_chunks`, whose columns
are the chunk table's (:func:`chunk_carries`) flipped where the high
word is set.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain, compress
from operator import getitem, or_, xor

from .symplectic import (byte_mask, column_supports, transpose,
                         transpose_bytes, xor_rows)

#: low bits of the combination index handled per chunk, one bit-sliced
#: batch.  12 bits halves the m=1 K=1 scan but slows the m=1 K=0 scan in
#: 4,096 parts 1.6 times, as each part builds a 4,096-word table
CHUNK_BITS = 10


def gray_chunks(rows, start: int, stop: int):
    """Walk combination indices [start, stop) of ``rows`` in Gray order.

    The word at index idx is the XOR of rows[j] over the set bits j of
    idx ^ (idx >> 1).  Yields ``(first, high, low)`` per chunk: the
    words at indices first, first + 1, ... are ``high ^ low[0]``,
    ``high ^ low[1]``, ...  Whole chunks share one table (read backwards
    for odd chunks); a partial chunk at either end of the range gets a
    slice of it.
    """
    if start >= stop:
        return
    bits = min(len(rows), CHUNK_BITS)
    size = 1 << bits
    table, backward = gray_table(tuple(rows[:bits]))
    high_rows = rows[bits:]
    first_h = start >> bits
    high = xor_rows(high_rows, first_h ^ (first_h >> 1))
    for h in range(first_h, ((stop - 1) >> bits) + 1):
        if h != first_h:
            high ^= high_rows[(h & -h).bit_length() - 1]
        base = h << bits
        lo = max(start - base, 0)
        hi = min(stop - base, size)
        low = backward if h & 1 else table
        yield base + lo, high, low if hi - lo == size else low[lo:hi]


@lru_cache(maxsize=1)
def gray_table(low_rows: tuple) -> tuple[list[int], list[int]]:
    """The chunk table over ``low_rows`` in reflected Gray order, and its
    reverse.

    Word l of the table is the XOR of low_rows[j] over the set bits j of
    l ^ (l >> 1).  The last result is kept, as every part of a split
    scan walks the same low rows.
    """
    table = [0]
    for g in low_rows:
        table += [t ^ g for t in reversed(table)]
    return table, table[::-1]


# ----------------------------------------------------------------------
# Bit-sliced batches
# ----------------------------------------------------------------------

#: trials the sampler evaluates together, one bit lane of each batch int
#: per trial; a multiple of 8.  Larger batches are barely faster and
#: raise the sampler's memory above the rest of ``distance``'s at m=3
BATCH = 2048

def draw(rng, r: int, count: int) -> bytes:
    """The selectors of ``count`` trials, from one ``rng.getrandbits``.

    ``getrandbits(r)`` takes W = ceil(r/32) 32-bit words and fills its
    result from the least significant end, keeping only the top bits of
    a partial last word (and of the single word when r <= 32).  One
    ``getrandbits(32·W·count)`` takes the same words in the same order,
    so trial t's words are the 4W bytes from byte 4W·t, and the
    generator is left as ``count`` separate draws would leave it.  See
    :func:`lane_vectors` for where each bit sits.
    """
    words = (r + 31) // 32
    return rng.getrandbits(32 * words * count).to_bytes(4 * words * count,
                                                        "little")


def lane_vectors(buf: bytes, r: int) -> list[int]:
    """One int per row: bit t of entry i is trial t's selector bit i.

    A :func:`draw` buffer holds one 32·W-bit row per trial; selector
    bit i is column i of it, or column i + 32·W - r in a partial last
    word.
    """
    words = (r + 31) // 32
    cols = transpose_bytes(buf, 4 * words, range(4 * words))
    split = max(32 * words - 32, 0)  # selector bits below stay in place
    return cols[:split] + cols[split + 32 * words - r:]


def columns(lanes: list[int], supports) -> list[int]:
    """The batch's word columns, one per entry of ``supports``.

    Bit t of a column is trial t's bit there: the XOR of the lane
    vectors of the rows in its entry, a list of row indices or a byte
    mask over the rows (``symplectic.column_supports``).  An entry that
    is a tuple (``symplectic.column_plan``) names other entries of
    ``supports`` by index, all of them row entries, and its column is
    the XOR of theirs: those are formed first.
    """
    def column(rows_at):
        if isinstance(rows_at, bytes):  # ends at a set bit: never empty
            return reduce(xor, compress(lanes, rows_at))
        if isinstance(rows_at, tuple):
            return None
        return reduce(xor, map(lanes.__getitem__, rows_at)) if rows_at \
            else 0

    cols = list(map(column, supports))
    for k, rows_at in enumerate(supports):
        if isinstance(rows_at, tuple):
            cols[k] = reduce(xor, map(cols.__getitem__, rows_at))
    return cols


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


def block_columns(lanes: list[int], supports, width: int):
    """:func:`columns` of each run of 2·width entries of ``supports``.

    A run is the u columns, then the v columns, of ``width`` positions:
    one block of a ``symplectic.column_plan``, whose tuples name entries
    of their own run.  Each run's columns are formed only when the
    iterator reaches it.
    """
    step = max(2 * width, 1)  # no positions, no entries
    return (columns(lanes, supports[lo:lo + step])
            for lo in range(0, len(supports), step))


def weight_planes(lanes: list[int], supports, width: int) -> list[int]:
    """Bit-sliced weights of a batch's words, a block at a time.

    ``supports`` holds the 2n columns' entries in runs of 2·width: the
    whole of ``symplectic.column_supports`` as one run (width n), or the
    blocks of a ``symplectic.column_plan`` (:func:`block_columns`).
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

def gray_lanes(bits: int) -> list[int]:
    """Selector lanes of a 2^bits-word chunk table of :func:`gray_chunks`.

    Bit l of entry j is bit j of l ^ (l >> 1): whether row j is in the
    table's word l.
    """
    return transpose([l ^ (l >> 1) for l in range(1 << bits)], bits)


@lru_cache(maxsize=1)
def chunk_carries(low_rows: tuple, n: int) -> list:
    """Per position j, the lanes ``u_j | v_j`` by the high word's u_j, v_j.

    The 2n columns of the chunk table over ``low_rows`` come from
    :func:`gray_lanes` through :func:`columns`; a set high bit flips its
    column.  The last result is kept, as every part of a split scan has
    the same low rows.
    """
    full = (1 << (1 << len(low_rows))) - 1
    table = columns(gray_lanes(len(low_rows)),
                    column_supports(low_rows, 2 * n))
    return [((u | v, u | v ^ full), (u ^ full | v, (u & v) ^ full))
            for u, v in zip(table[:n], table[n:])]


def gray_scan(gens, n: int, s_pivots, start: int, stop: int):
    """Scan combination indices [start, stop); returns (w, idx, word).

    ``gens`` are packed 2n-bit generator rows; ``s_pivots`` are the
    (pivot, row) pairs of the span to exclude, as held by an ``Rref``
    (the membership test below is ``Rref.reduce`` inlined).  The zero
    word is never a candidate.  Returns the best (weight, index,
    codeword) with ties broken by the smallest index, or (-1, -1, 0) if
    no candidate outside the excluded span was seen.  The scan stops
    after the chunk that holds a word of weight 1, which no later word
    can beat.

    Each chunk is one bit-sliced batch, a lane per word, and a partial
    chunk takes its lanes' slice of the carries.  An odd chunk lists the
    table backwards, which is the table forwards XOR the top low row
    (gray(2^L - 1 - l) = gray(l) ^ 2^(L-1)), so that row joins the high
    word that selects the carries.
    """
    bits = min(len(gens), CHUNK_BITS)  # as gray_chunks splits the index
    size = 1 << bits
    carry = chunk_carries(tuple(gens[:bits]), n)

    def outside(y):
        for p, r in s_pivots:
            if (y >> p) & 1:
                y ^= r
        return y != 0

    best = None  # (w, idx, word)
    for first, high, low in gray_chunks(gens, start, stop):
        lo = first & (size - 1)
        every = (1 << len(low)) - 1
        flip = high ^ gens[bits - 1] if first >> bits & 1 else high
        carries = map(getitem,
                      map(getitem, carry,
                          byte_mask(flip & ((1 << n) - 1)).ljust(n, b"\0")),
                      byte_mask(flip >> n).ljust(n, b"\0"))
        if len(low) < size:  # a partial chunk
            carries = [c >> lo & every for c in carries]
        found = lightest(count_planes(carries), every,
                         n + 1 if best is None else best[0],
                         lambda t: high ^ low[t], outside)
        if found:
            w, t, x = found
            best = w, first + t, x
            if w == 1:  # no later word can beat it
                break
    return best or (-1, -1, 0)
