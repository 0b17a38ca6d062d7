"""GF(2) linear algebra on packed bit-rows, with the symplectic form.

A length-2n binary vector (u | v) is stored as a single Python int with
u in bits 0..n-1 and v in bits n..2n-1, so elimination steps are single
machine-assisted XORs regardless of width.  A "matrix" is a plain list
of such ints.  Reduced matrices are kept in canonical reduced row
echelon form: rows sorted by pivot (lowest set bit), every pivot column
zero elsewhere.  RREF is unique per row space, which the file verifier
relies on to detect mutated generator files.  :class:`Rref` is the one
elimination routine: spans, membership tests, the RREF check and the
inversion of the block map all go through it.  It inserts rows into an
echelon form by collision at their lowest bit and makes them canonical
only when read, by one back-substitution, so a span built from many
rows pays for the full reduction once, not once per row.
:func:`selected` is the one way to pick out of a long list the items
that a selector's bits select: a sparse selector by a bit loop, a dense
one by a 0/1 byte mask (:func:`byte_mask`) at C speed.  The containment
test (:func:`first_outside`) and the orthogonality check
(:func:`symplectic_products`) XOR what it picks, and the column
supports (:func:`column_supports`) keep the picks of a sparse column as
a list and the mask of a dense one.  The sampler reads N's columns
through :func:`column_plan`, which reduces each block's columns, one
tag bit each, with :class:`Rref`: a column that is the XOR of fewer of
its block's columns than it has rows is formed from them.
:func:`transpose` is the one way to read whole columns out of a row
list: the orthogonality check, the column supports and plans (both
through :func:`column_slices`), the sampler's batches and the sampled
counting check's block keys all go through its byte-level core.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, islice
from operator import xor


def lowest_bit(x: int) -> int:
    """Index of the lowest set bit (the pivot column of an RREF row)."""
    return (x & -x).bit_length() - 1


class RrefError(ValueError):
    """Rows that are not in canonical reduced row echelon form."""


class Rref:
    """Span over GF(2), read out in canonical reduced row echelon form.

    ``Rref(rows)`` takes rows that already are canonical RREF, computes
    their pivots once and checks the shape (RrefError otherwise): every
    row is nonzero, the lowest-bit pivots strictly increase, and each
    row is clear at every other row's pivot.
    ``Rref()`` starts an empty span.  :meth:`add` inserts a row into an
    echelon dict keyed by lowest bit, reducing it only by collision with
    the stored row at its current lowest bit, so the stored rows are
    echelon but not reduced.  ``rows`` and ``pivots`` are made canonical
    on first access after an insert, by one back-substitution in
    descending pivot order that XORs in only the rows at set pivot bits.
    """

    def __init__(self, rows=()) -> None:
        rows = list(rows)
        pivots = [lowest_bit(r) for r in rows]
        pivot_mask = 0
        for i, p in enumerate(pivots):
            if p < pivot_mask.bit_length():
                raise RrefError(f"row {i} is zero or out of pivot order")
            pivot_mask |= 1 << p
        for i, (p, row) in enumerate(zip(pivots, rows)):
            if row & pivot_mask != 1 << p:
                raise RrefError(f"row {i} has a bit at another row's pivot")
        self._echelon: dict[int, int] = dict(zip(pivots, rows))
        self._rows: list[int] | None = rows
        self._pivots = pivots
        self._pivot_mask = pivot_mask

    @property
    def rank(self) -> int:
        return len(self._echelon)

    @property
    def rows(self) -> list[int]:
        """The canonical RREF rows, sorted by pivot."""
        if self._rows is None:
            self._canonicalize()
        return self._rows

    @property
    def pivots(self) -> list[int]:
        """The pivot (lowest set bit) of each row of ``rows``."""
        if self._rows is None:
            self._canonicalize()
        return self._pivots

    def _canonicalize(self) -> None:
        echelon = self._echelon
        pivots = sorted(echelon)
        mask = 0  # pivots of the rows made canonical so far (all higher)
        for p in reversed(pivots):
            row = echelon[p]
            # each row at a set pivot bit q > p is canonical: clear at
            # every other pivot, so XORing it in clears bit q alone
            bits = row & mask
            while bits:
                low = bits & -bits
                row ^= echelon[low.bit_length() - 1]
                bits ^= low
            echelon[p] = row
            mask |= 1 << p
        self._pivots = pivots
        self._rows = [echelon[p] for p in pivots]
        self._pivot_mask = mask

    def reduce(self, x: int) -> int:
        """Residue of x against the span (0 iff x is in the span).

        In canonical RREF the coefficient of each row in x is x's bit at
        that row's pivot, so the residue is x XOR the rows at x's set
        pivot bits: one XOR per set pivot bit, not one test per row.
        """
        if self._rows is None:
            self._canonicalize()
        echelon = self._echelon
        bits = x & self._pivot_mask
        while bits:
            low = bits & -bits
            x ^= echelon[low.bit_length() - 1]
            bits ^= low
        return x

    def add(self, x: int) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        echelon = self._echelon
        while x:
            p = (x & -x).bit_length() - 1
            row = echelon.get(p)
            if row is None:
                echelon[p] = x
                self._rows = None
                return True
            x ^= row
        return False


def row_reduce(rows) -> tuple[int, list[int]]:
    """Canonical RREF of a list of packed rows; returns (rank, rows)."""
    acc = Rref()
    for r in rows:
        acc.add(r)
    return acc.rank, list(acc.rows)


def xor_rows(rows, bits: int) -> int:
    """XOR of rows[j] over the set bits j of ``bits`` (bit 0 -> rows[0]).

    The one-shot form, for a row list combined once or a few times (the
    start word of a Gray scan, inverting one block, rebuilding one
    sampler candidate).  A row list that many selectors combine goes
    through :func:`selected`.
    """
    x = 0
    while bits:
        low = bits & -bits
        x ^= rows[low.bit_length() - 1]
        bits ^= low
    return x


_TO_BYTES = bytes.maketrans(b"01", b"\0\1")


def byte_mask(bits: int) -> bytes:
    """Byte j is bit j of ``bits`` >= 0 (0 or 1), up to its highest set bit.

    For ``itertools.compress``, which stops at the end of the mask, so
    the items past ``bits.bit_length()`` are left out as unselected.
    """
    return format(bits, "b")[::-1].encode().translate(_TO_BYTES)


def selected(items, bits: int):
    """The items[c] at the set bits c of ``bits`` >= 0, in order of c.

    Bits at or above ``len(items)`` are ignored.  A sparse selector is
    read by a bit loop, one Python step per set bit, in which each step
    also shifts and masks the whole selector; a dense one through its
    :func:`byte_mask`, one C-speed ``format``/``translate``/``compress``
    pass over its width.  The loop is taken while set bits *
    (width + 1024) <= 128 * width: it wins below about 8 % density at
    300 bits, 6 % at 1,024, 4-5 % at 1,764, 1.7 % at 6,630 and 1.2 % at
    9,180 (measured with ``functools.reduce(xor, ...)`` over items of
    64-9,180 bits, Python 3.11 on a 2-CPU Xeon; the crossing does not
    move with the item width).  Returns a list or an iterator.
    """
    width = bits.bit_length()
    if width > len(items):
        bits &= (1 << len(items)) - 1
        width = bits.bit_length()
    if bits.bit_count() * (width + 1024) > width << 7:
        return compress(items, byte_mask(bits))
    picked = []
    while bits:
        low = bits & -bits
        picked.append(items[low.bit_length() - 1])
        bits ^= low
    return picked


def transpose_bytes(buf: bytes, size: int, offsets) -> list[int]:
    """Columns of the bytes at ``offsets`` of the rows of ``size``
    little-endian bytes in ``buf``.

    Entry 8·i + k has bit j = bit k of byte offsets[i] of row j.  One
    byte offset of every row is read as one int, row j in byte j, whose
    8-byte groups are transposed at once; strided slices then split out
    the 8 columns.
    """
    if not size:
        return []
    groups = (len(buf) // size + 7) // 8
    # the 8x8 bit transpose (a swap network, as in Hacker's Delight 7-3)
    # of every 8-byte group: bit k of byte j moves to bit j of byte k
    swaps = [(shift, int.from_bytes(mask.to_bytes(8, "little") * groups,
                                    "little"))
             for shift, mask in ((7, 0x00AA00AA00AA00AA),
                                 (14, 0x0000CCCC0000CCCC),
                                 (28, 0x00000000F0F0F0F0))]
    cols = []
    for offset in offsets:
        x = int.from_bytes(buf[offset::size], "little")
        for shift, mask in swaps:
            swap = (x ^ (x >> shift)) & mask
            x ^= swap ^ (swap << shift)
        interleaved = x.to_bytes(8 * groups, "little")
        cols += [int.from_bytes(interleaved[k::8], "little")
                 for k in range(8)]
    return cols


def transpose(rows, width: int) -> list[int]:
    """Columns 0..width-1 of ``rows``: entry c has bit j = bit c of rows[j].

    Bits at or above ``width`` are ignored.  Transposing the reordered
    columns back permutes the columns of every row.
    """
    size = (width + 7) // 8
    low = (1 << width) - 1
    buf = b"".join([(x & low).to_bytes(size, "little") for x in rows])
    return transpose_bytes(buf, size, range(size))[:width]


#: columns per slice in :func:`symplectic_products` and :func:`column_plan`
#: (half as many in :func:`column_supports`); bounds the transposed columns
#: held at a time
COLUMN_SLICE = 1024


def column_slices(rows, half: int, step: int):
    """The columns of ``rows`` as u | v halves, ``step`` positions at a time.

    A slice holds the columns of positions lo..lo+width-1 of the low half
    (bits lo..), then those of the high half (bits half + lo..), 2·width
    ints for width = min(step, half - lo).  Bits at or above 2·half are
    ignored.  Each row is cut to its 2·half bits once, as bytes in one
    buffer; a slice transposes the bytes that hold its bits in either
    half (:func:`transpose_bytes`) and drops the columns of the other
    bits in them.  At m=4 K=60 the buffer holds N's 5,670 rows in 6.5 MB.
    """
    size = (2 * half + 7) // 8
    full = (1 << 2 * half) - 1
    buf = bytearray()
    for x in rows:
        buf += (x & full).to_bytes(size, "little")
    for lo in range(0, half, step):
        width = min(step, half - lo)
        cols = []
        for start in (lo, half + lo):
            skip = start & 7
            cols += transpose_bytes(buf, size, range(
                start >> 3, (start + width + 7) >> 3))[skip:skip + width]
        yield cols


def _support(index: list, col: int):
    """The rows of a column: index list or byte mask, whichever is smaller."""
    if 8 * col.bit_count() <= col.bit_length():
        return list(selected(index, col))
    return byte_mask(col)


def _sparse(rows, width: int) -> bool:
    """At most two set bits per column on average: read row by row.

    One step per set bit then costs less than transposing every column:
    0.03 s against 0.15 s at m=4 K=0 (18,262 set bits over 9,180
    columns, 6,948 of them of one row).  A column of one or two rows
    gains at most one XOR from a plan (:func:`column_plan`), and at m=4
    K=0 a plan saves none, so a sparse matrix keeps its supports.
    """
    return sum(map(int.bit_count, rows)) <= 2 * width


def _row_supports(rows, width: int, index: list) -> list:
    """:func:`column_supports` of a sparse matrix, one step per set bit."""
    found: list = [[] for _ in range(width)]
    mask = (1 << width) - 1
    for j, x in zip(index, rows):
        x &= mask
        while x:
            low = x & -x
            found[low.bit_length() - 1].append(j)
            x ^= low
    return [s if 8 * len(s) <= (s[-1] + 1 if s else 0)
            else byte_mask(sum(1 << j for j in s)) for s in found]


def column_supports(rows, width: int) -> list:
    """For each column c < width, the rows with bit c set.

    Entry c is whichever form is smaller: a list of the indices j of
    those rows (8 bytes per set bit; every list shares one int per row)
    or their :func:`byte_mask` (one byte per row up to the last one set,
    for ``itertools.compress``).  A sparse matrix (:func:`_sparse`) is
    read row by row; any other through :func:`column_slices`, its low
    and high halves side by side, ``COLUMN_SLICE // 2`` columns at a
    time, so the transposed columns of only one slice are held next to
    the rows' bytes.  Bits at or above ``width`` are ignored.  N at m=3
    K=10 (120,000 set bits) takes 0.46 MB, where one int per set bit
    took 1.16 MB; at m=4 K=60 (4.8M set bits) about a quarter of N's
    columns are masks.
    """
    index = list(range(len(rows)))
    if _sparse(rows, width):
        return _row_supports(rows, width, index)
    half = (width + 1) // 2  # an odd width reads one column past it
    low_half: list = []
    high_half: list = []
    for cols in column_slices(rows, half, max(1, COLUMN_SLICE // 4)):
        size = len(cols) // 2
        low_half += [_support(index, c) for c in cols[:size]]
        high_half += [_support(index, c) for c in cols[size:]]
    return (low_half + high_half)[:width]


def column_plan(rows, n: int, w: int) -> list:
    """Entries for the 2n columns of ``rows``, block by block, in place of
    their supports.

    The n positions form blocks of w.  Block i lists the entries of its u
    columns i·w..i·w+w-1, then of its v columns n+i·w..n+i·w+w-1, and
    the blocks follow in order.  An entry is a column's support (list or
    mask, as :func:`column_supports` chooses), or a tuple of the indices,
    within its block's 2w entries, of other columns whose XOR it is
    (:func:`~stabcat._distpure.columns`).  Within a block the columns
    are taken sparsest first (ties in column order) and reduced, each
    tagged with one bit, by one :func:`row_reduce`, as
    ``BlockExpander.unit_span`` tags unit images.  A column that is the
    XOR of k earlier columns, with k below its row count, becomes their
    tuple; those columns keep their supports.  Every entry comes from
    the actual columns, so the plan holds for any matrix.  In the
    paper's code a block's 2(4m+2) columns span at most 6m+2 dimensions:
    at m=3 K=10 the plan names 56,315 rows or columns per batch where the
    supports name 119,659.  A sparse matrix (:func:`_sparse`) keeps its
    supports.  The columns are read through :func:`column_slices`, in
    slices of whole blocks.
    """
    if w < 1 or n % w:
        raise ValueError(f"{n} positions do not split into blocks of {w}")
    index = list(range(len(rows)))
    if _sparse(rows, 2 * n):
        supports = _row_supports(rows, 2 * n, index)
        return [e for j in range(0, n, w)
                for e in supports[j:j + w] + supports[n + j:n + j + w]]
    plan: list = []
    for cols in column_slices(rows, n, max(1, COLUMN_SLICE // (2 * w)) * w):
        size = len(cols) // 2
        for j in range(0, size, w):
            plan += _block_plan(cols[j:j + w] + cols[size + j:size + j + w],
                                index)
    return plan


def _block_plan(cols: list, index: list) -> list:
    """:func:`column_plan`'s entries for one block's columns ``cols``.

    Column order[q] gets tag bit top - q above the row bits, so in the
    canonical RREF a row without row bits is the relation of the column
    of its lowest tag bit, the latest in ``order``, with columns taken
    before it that are independent of their own predecessors.
    """
    r = len(index)
    order = sorted(range(len(cols)), key=lambda k: cols[k].bit_count())
    top = r + len(cols) - 1
    entries: list = [None] * len(cols)
    for row in row_reduce(cols[k] | 1 << (top - q)
                          for q, k in enumerate(order))[1]:
        if row & ((1 << r) - 1):
            continue
        own = lowest_bit(row)
        rest = row ^ 1 << own
        k = order[top - own]
        if rest.bit_count() < cols[k].bit_count():
            entries[k] = tuple(order[top - p]
                               for p in selected(range(top + 1), rest))
    return [_support(index, c) if e is None else e
            for c, e in zip(cols, entries)]


def in_span(span: Rref, x: int) -> bool:
    """Membership of x in a span."""
    return span.reduce(x) == 0


def first_outside(span: Rref, rows) -> int | None:
    """Index of the first of ``rows`` outside the span, or None.

    In canonical RREF the coefficient of each span row in x is x's bit
    at that row's pivot, so x lies in the span iff it equals the XOR of
    the rows its pivot bits select.  The span rows are listed by pivot
    column, and the ones that ``x & pivot_mask`` selects
    (:func:`selected`) are XORed: a list of one slot per column, not a
    table of about four times the span.
    """
    rowat = [0] * (span.pivots[-1] + 1 if span.pivots else 0)
    for p, row in zip(span.pivots, span.rows):
        rowat[p] = row
    pivot_mask = span._pivot_mask
    for i, x in enumerate(rows):
        if reduce(xor, selected(rowat, x & pivot_mask), 0) != x:
            return i
    return None


def is_rref(rows) -> bool:
    """True iff the rows literally are their own canonical RREF.

    The RREF of a row space is unique, so checking the shape directly
    agrees with re-reducing the rows and comparing.
    """
    try:
        Rref(rows)
    except RrefError:
        return False
    return True


# ----------------------------------------------------------------------
# Symplectic form on packed (u | v) vectors
# ----------------------------------------------------------------------

def symplectic_product_packed(x: int, y: int, n: int) -> int:
    """Binary symplectic product of two packed 2n-bit vectors."""
    mask = (1 << n) - 1
    xu, xv = x & mask, x >> n
    yu, yv = y & mask, y >> n
    return ((xu & yv) ^ (xv & yu)).bit_count() & 1


def symplectic_weight_packed(x: int, n: int) -> int:
    """Number of positions p with (u_p, v_p) != (0, 0)."""
    mask = (1 << n) - 1
    return ((x | (x >> n)) & mask).bit_count()


def symplectic_product(x, y) -> int:
    """Symplectic product of two SymplecticVector-like objects."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} != {y.n}")
    return symplectic_product_packed(
        x.u | (x.v << x.n), y.u | (y.v << y.n), x.n)


def symplectic_weight(x) -> int:
    return symplectic_weight_packed(x.u | (x.v << x.n), x.n)


# ----------------------------------------------------------------------
# Duality verification of a constructed stabilizer code
# ----------------------------------------------------------------------

class Report:
    """A check's outcome: the fields named by ``__slots__``, set by the
    subclass's ``__init__``.  Reports of one class with equal fields are
    equal; a report can change, so it has no hash."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._values())) + ")"


class DualityReport(Report):
    """Outcome of the stabilizer/normalizer symplectic-duality check.

    ``failures`` lists the first ``FAILURES_KEPT`` failures in report
    order; ``failures_omitted`` counts the rest.
    """

    __slots__ = ("all_orthogonal", "dims_complementary", "contained",
                 "rank_s", "rank_n", "n_products", "failures",
                 "failures_omitted")

    def __init__(self, all_orthogonal: bool, dims_complementary: bool,
                 contained: bool, rank_s: int, rank_n: int,
                 n_products: int, failures: list | None = None,
                 failures_omitted: int = 0) -> None:
        self.all_orthogonal = all_orthogonal
        self.dims_complementary = dims_complementary
        self.contained = contained
        self.rank_s = rank_s
        self.rank_n = rank_n
        self.n_products = n_products
        self.failures = [] if failures is None else failures
        self.failures_omitted = failures_omitted

    @property
    def passed(self) -> bool:
        return self.all_orthogonal and self.dims_complementary and \
            self.contained


#: failures listed by :func:`verify_duality`; ``verify`` prints 8 and
#: ``distance`` 1, and a corrupted file can fail on every (S, N) row pair
FAILURES_KEPT = 8


def symplectic_products(s_rows, n_rows, n: int) -> list[int]:
    """S·Ω·Nᵀ: for each row s of S, the bit vector over j of <s, N_j>.

    Bit j of entry i is ``symplectic_product_packed(s_rows[i],
    n_rows[j], n)``.  :func:`transpose` reads N in ``COLUMN_SLICE``-wide
    slices, each row cut to the slice before it is copied, and the
    Ω-swapped (v | u) form of each s selects the slice's columns to XOR
    (:func:`selected`).
    """
    if not s_rows:  # nothing to pair; n itself may be huge or negative
        return []
    mask = (1 << n) - 1
    swapped = [((s >> n) & mask) | ((s & mask) << n) for s in s_rows]
    prods = [0] * len(swapped)
    for lo in range(0, 2 * n, COLUMN_SLICE):
        width = min(COLUMN_SLICE, 2 * n - lo)
        sel = (1 << width) - 1
        cols = transpose([(x >> lo) & sel for x in n_rows], width)
        for i, s in enumerate(swapped):
            prods[i] ^= reduce(xor, selected(cols, (s >> lo) & sel), 0)
    return prods


def verify_duality(code) -> DualityReport:
    """Check that the normalizer matrix is the exact symplectic dual.

    Three conditions: (a) every stabilizer row has symplectic product 0
    with every normalizer row, (b) rank(S) + rank(N) = 2n, and
    (c) the stabilizer row space is contained in the normalizer's
    (weak self-duality).  Failures are listed with witnessing rows, up
    to ``FAILURES_KEPT`` of them.  All rank(S)·rank(N) products of (a)
    come from :func:`symplectic_products` (selections of N's columns,
    not one product per pair); orthogonality failures come first, by stabilizer
    row, then by ascending normalizer row.  Containment (c) is one
    :func:`first_outside` over the normalizer span.
    """
    n = code.n
    prods = symplectic_products(code.s_matrix, code.n_matrix, n)
    rank_s = len(code.s_matrix)
    rank_n = len(code.n_matrix)
    dims_ok = rank_s + rank_n == 2 * n
    try:
        n_span = code.n_span
    except RrefError:  # stored rows not canonical: span their reduction
        n_span = Rref(row_reduce(code.n_matrix)[1])
    bad = first_outside(n_span, code.s_matrix)
    others = []
    if not dims_ok:
        others.append(("dimensions", rank_s, rank_n))
    if bad is not None:
        others.append(("containment", bad, None))
    n_orthogonality = sum(map(int.bit_count, prods))
    failures = list(islice(chain(_orthogonality_failures(prods), others),
                           FAILURES_KEPT))
    return DualityReport(
        all_orthogonal=n_orthogonality == 0,
        dims_complementary=dims_ok,
        contained=bad is None,
        rank_s=rank_s,
        rank_n=rank_n,
        n_products=rank_s * rank_n,
        failures=failures,
        failures_omitted=n_orthogonality + len(others) - len(failures),
    )


def _orthogonality_failures(prods):
    """("orthogonality", i, j) for each set bit j of each prods[i]."""
    for i, v in enumerate(prods):
        while v:
            low = v & -v
            yield "orthogonality", i, low.bit_length() - 1
            v ^= low
