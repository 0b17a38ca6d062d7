"""Chunked Gray-code walk over lifted words, and the exact-scan kernel.

Both exhaustive walks over normalizer combinations (the exact distance
scan and the exhaustive counting check) go through :func:`gray_chunks`.
It splits a combination index into high bits and ``CHUNK_BITS`` low
bits.  The 2^L low words are one precomputed table listed in reflected
Gray order, and each high step costs one XOR, so every word of a chunk
is ``high ^ table[l]`` and a whole chunk is handled by ``map`` at C
speed.  In the reflected Gray code an odd chunk lists the table
backwards.

The scan works on lifted words: a packed 2n-bit row x = (u | v) lifts
to ``x | ((u ^ v) << 2n)``.  The lift is linear, and since
wt(u|v) = (|u| + |v| + |u ^ v|) / 2 (the GF(4) weight identity of
Calderbank, Rains, Shor and Sloane, IEEE TIT 1998), the popcount of a
lifted word is twice its symplectic weight.  A chunk's minimum weight
is therefore one ``min(map(int.bit_count, ...))``; only a chunk whose
minimum beats the best so far is walked word by word.
"""

from __future__ import annotations

from .symplectic import xor_rows

#: low bits of the combination index handled per chunk; the table holds
#: 2^CHUNK_BITS words, and larger tables raise peak memory for no gain
CHUNK_BITS = 10


def lift(x: int, n: int) -> int:
    """x | ((u ^ v) << 2n) for x = (u | v); popcount = 2 * weight."""
    return x | (((x ^ (x >> n)) & ((1 << n) - 1)) << (2 * n))


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
    table = [0]
    for g in rows[:bits]:
        table += [t ^ g for t in reversed(table)]
    high_rows = rows[bits:]
    first_h = start >> bits
    high = xor_rows(high_rows, first_h ^ (first_h >> 1))
    for h in range(first_h, ((stop - 1) >> bits) + 1):
        if h != first_h:
            high ^= high_rows[(h & -h).bit_length() - 1]
        base = h << bits
        lo = max(start - base, 0)
        hi = min(stop - base, size)
        if h & 1:
            low = table[::-1] if hi - lo == size else \
                table[size - hi:size - lo][::-1]
        else:
            low = table if hi - lo == size else table[lo:hi]
        yield base + lo, high, low


def gray_scan(gens, n: int, s_pivots, start: int, stop: int):
    """Scan combination indices [start, stop); returns (w, idx, word).

    ``gens`` are packed 2n-bit generator rows; ``s_pivots`` are the
    (pivot, row) pairs of the span to exclude, as held by an ``Rref``
    (the membership test below is ``Rref.reduce`` inlined).  The zero
    word is never a candidate.  Returns the best (weight, index,
    codeword) with ties broken by the smallest index, or (-1, -1, 0) if
    no candidate outside the excluded span was seen.
    """
    mask = (1 << (2 * n)) - 1
    bit_count = int.bit_count
    best2 = 2 * n + 1  # lifted weight to beat; above any real word
    best_idx = -1
    best_x = 0
    for first, high, low in gray_chunks([lift(g, n) for g in gens],
                                        start, stop):
        if min(map(bit_count, map(high.__xor__, low))) >= best2:
            continue
        for idx, z in enumerate(map(high.__xor__, low), first):
            w2 = z.bit_count()
            if w2 < best2:
                y = z & mask
                for p, r in s_pivots:
                    if (y >> p) & 1:
                        y ^= r
                if y:
                    best2 = w2
                    best_idx = idx
                    best_x = z & mask
    if best_idx < 0:
        return -1, -1, 0
    return best2 // 2, best_idx, best_x
