"""Chunked Gray-code walk, the exact-scan kernel and the sampler batches.

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
lifted word is twice its symplectic weight.

A full chunk is first tested as a whole by :class:`PackedChunk`: the
table's u and v halves sit in one lane per word of two big ints, so the
supports u OR v of all 2^L words are three XOR/OR operations away and a
SWAR popcount (Warren, *Hacker's Delight*, section 5-1) gives every
lane's weight at once; one add, one mask and one compare tell whether
any word can beat the best so far.  Only such a chunk, or a partial one
at either end of the range, is walked word by word.

The distance sampler evaluates its trials bit-sliced (Biham, "A fast new
DES implementation in software", FSE 1997), ``BATCH`` at a time: bit t
of every batch int belongs to trial t.  :func:`draw` takes a batch's
selectors from one ``getrandbits`` call, :func:`lane_vectors` transposes
them into one int per normalizer row (``symplectic.transpose_bytes``,
as verify does), :func:`columns` XORs those into the words' columns,
and :func:`weight_planes` counts every trial's weight at once from
them.  The sampled counting check reads the same columns.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_, xor

from .symplectic import transpose_bytes, xor_rows

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


class PackedChunk:
    """The words of a chunk table packed into lanes, for the chunk test.

    A chunk of :func:`gray_chunks` over low rows r_0 .. r_(L-1) holds
    the 2^L XOR combinations of those rows, in an order that does not
    matter here.  Lane l of ``pu`` (of ``pv``) holds the u (v) half of
    the XOR of the rows r_j over the set bits j of l; a lane is
    ``width`` bits, a power of two above n (and at least ``field``), so
    it can hold a weight.  For a high word h, lane l of
    ``(pu ^ h_u * ones) | (pv ^ h_v * ones)`` is the support of
    ``h ^ word_l``.  A masked popcount tree sums it to ``field``-bit
    counts, and one multiplication adds a lane's fields into its top
    field; ``field`` starts at a byte and doubles until
    2^(field-1) > n, so the counts are exact for any n.
    """

    def __init__(self, rows, n: int):
        self.n = n
        self.half = half = (1 << n) - 1
        field = 8
        while n >> (field - 1):
            field *= 2
        width = max(field, 1 << n.bit_length())
        self.field = field
        self.width = width
        # each row doubles the lanes: the new ones are the old ones ^ row
        ones = 1  # 1 in the lowest bit of every lane
        pu = pv = 0
        for k, g in enumerate(rows):
            shift = width << k
            pu |= (pu ^ (g & half) * ones) << shift
            pv |= (pv ^ ((g >> n) & half) * ones) << shift
            ones |= ones << shift
        self.pu = pu
        self.pv = pv
        self.ones = ones
        lane = (1 << width) - 1

        def low_halves(s):  # the low s of every 2s bits, in every lane
            return lane // ((1 << (2 * s)) - 1) * ((1 << s) - 1) * ones

        self.m1 = low_halves(1)
        self.m2 = low_halves(2)
        self.wide = []  # (s, mask) for s = 4, 8, ..., field / 2
        s = 4
        while s < field:
            self.wide.append((s, low_halves(s)))
            s *= 2
        #: 1 at the bottom of every field of a lane
        self.fold = lane // ((1 << field) - 1)
        self.tops = ones << (width - 1)
        self.floor = -1
        self.bias = 0

    def weights(self, high: int) -> int:
        """The weight of ``high ^ word_l`` in lane l's top field."""
        half = self.half
        ones = self.ones
        x = ((self.pu ^ (high & half) * ones)
             | (self.pv ^ ((high >> self.n) & half) * ones))
        x -= (x >> 1) & self.m1  # 2-bit counts
        x = (x & self.m2) + ((x >> 2) & self.m2)  # 4-bit counts
        for s, m in self.wide:  # 2s <= 2^s - 1: the sum needs no pre-mask
            x = (x + (x >> s)) & m
        # each field now counts its own bits; the product's top field in
        # a lane sums that lane's width/field counts, and no partial sum
        # exceeds width < 2^field, so no field carries into the next
        return x * self.fold

    def lane(self, weights: int, l: int) -> int:
        """Lane l's weight, read from the result of :meth:`weights`."""
        return ((weights >> (self.width * (l + 1) - self.field))
                & ((1 << self.field) - 1))

    def all_at_least(self, high: int, floor: int) -> bool:
        """Whether every word ``high ^ word_l`` has weight >= floor."""
        if floor != self.floor:
            # 2^(field-1) - floor added to a lane's top field sets the
            # lane's top bit exactly when its weight is >= floor, and
            # carries into no other lane
            self.floor = floor
            self.bias = (((1 << (self.field - 1)) - floor)
                         << (self.width - self.field)) * self.ones
        return (self.weights(high) + self.bias) & self.tops == self.tops


def gray_scan(gens, n: int, s_pivots, start: int, stop: int):
    """Scan combination indices [start, stop); returns (w, idx, word).

    ``gens`` are packed 2n-bit generator rows; ``s_pivots`` are the
    (pivot, row) pairs of the span to exclude, as held by an ``Rref``
    (the membership test below is ``Rref.reduce`` inlined).  The zero
    word is never a candidate.  Returns the best (weight, index,
    codeword) with ties broken by the smallest index, or (-1, -1, 0) if
    no candidate outside the excluded span was seen.  The scan stops at
    the first word of weight 1, which no later word can beat.
    """
    mask = (1 << (2 * n)) - 1
    rows = [lift(g, n) for g in gens]
    bits = min(len(rows), CHUNK_BITS)  # as gray_chunks splits the index
    packed = None  # built at the first full chunk, if there is one
    best2 = 2 * n + 1  # lifted weight to beat; above any real word
    best_idx = -1
    best_x = 0
    for first, high, low in gray_chunks(rows, start, stop):
        if len(low) == 1 << bits:
            if packed is None:
                packed = PackedChunk(rows[:bits], n)
            # skip unless some word's lifted weight 2w is below best2
            if packed.all_at_least(high, (best2 + 1) // 2):
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
                    if w2 == 2:  # weight 1: no later word can beat it
                        return 1, idx, best_x
    if best_idx < 0:
        return -1, -1, 0
    return best2 // 2, best_idx, best_x


# ----------------------------------------------------------------------
# Bit-sliced sampler batches
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
    cols = transpose_bytes(buf, 4 * words)
    split = max(32 * words - 32, 0)  # selector bits below stay in place
    return cols[:split] + cols[split + 32 * words - r:]


def columns(lanes: list[int], supports):
    """The batch's word columns, one per entry of ``supports``, lazily.

    Bit t of a column is trial t's bit there: the XOR of the lane
    vectors of the rows in its entry, a list of row indices or a byte
    mask over the rows (``symplectic.column_supports``).  Each column is
    formed only when the iterator reaches it.
    """
    def column(rows_at):
        if isinstance(rows_at, bytes):  # ends at a set bit: never empty
            return reduce(xor, compress(lanes, rows_at))
        return reduce(xor, map(lanes.__getitem__, rows_at)) if rows_at \
            else 0

    return map(column, supports)


def weight_planes(lanes: list[int], supports, n: int) -> list[int]:
    """Bit-sliced weights of a batch's words, column by column.

    ``supports`` holds the 2n columns' entries (:func:`columns`).  Bit t
    of ``planes[k]`` is bit k of the symplectic weight of trial t's
    word: a ripple counter adds ``u_j | v_j`` for every position j, so
    only two columns are held at a time.
    """
    planes: list[int] = []
    for carry in map(or_, columns(lanes, supports[:n]),
                     columns(lanes, supports[n:])):
        for k, plane in enumerate(planes):
            planes[k] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


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
