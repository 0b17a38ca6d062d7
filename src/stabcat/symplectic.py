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
:func:`selected` is the one walk over a selector's set bits: it picks
out of a list the items that the bits select, a sparse selector by a
bit loop, a dense one by a 0/1 byte mask (:func:`byte_mask`) at C
speed; besides it only :meth:`Rref.add`'s elimination steps bit by bit.
:func:`xor_rows` XORs what it picks.  The span keeps its canonical rows
in a list indexed by pivot column, so the residue of a row
(:meth:`Rref.reduce`) and each step of the back-substitution XOR the
rows that the row's pivot bits pick; the containment test
(:func:`first_outside`) looks for the first nonzero residue, and the
orthogonality check (:func:`symplectic_products`) XORs the columns
that a stabilizer row picks, but for N's columns of one row, which it
gathers by transposes.  :func:`column_plan` is the one builder of
column entries, for the sampler's batches and the sampled counting
check, and :func:`block_columns` their one reader: both live here.
The plan reads a matrix a slice of blocks at a time, keeps a column
of one row as that row's index, the picks of a sparse column as a list
and the mask of a dense one (:func:`_support`), and reduces each
block's columns, one tag bit each, with :func:`row_reduce`, so that a
column that is the XOR of fewer of its block's columns than it has
rows is formed from them; a block is planned when it is first read.
:func:`transpose` is the one way to read whole columns out of a row
list: the orthogonality check, the column plans, the exact scan's
chunk table, the sampler's batches and the sampled counting check's
block keys all go through it or its byte-level core.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, islice
from operator import xor
from typing import NamedTuple


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
    echelon but not reduced.  They are made canonical on the first read
    after an insert, by one back-substitution in descending pivot order,
    into a list indexed by pivot column (0 at a column without a pivot):
    a row's bits at the pivots above its own pick, through
    :func:`xor_rows`, the rows it is XORed with.
    """

    def __init__(self, rows=()) -> None:
        rows = list(rows)
        pivots = [lowest_bit(r) for r in rows]
        pivot_mask = 0
        for i, p in enumerate(pivots):
            if p < pivot_mask.bit_length():
                raise RrefError(f"row {i} is zero or out of pivot order")
            pivot_mask |= 1 << p
        at = [0] * pivot_mask.bit_length()
        for i, (p, row) in enumerate(zip(pivots, rows)):
            if row & pivot_mask != 1 << p:
                raise RrefError(f"row {i} has a bit at another row's pivot")
            at[p] = row
        self._echelon: dict[int, int] = dict(zip(pivots, rows))
        self._at: list[int] | None = at
        self._pivot_mask = pivot_mask

    @property
    def rank(self) -> int:
        return len(self._echelon)

    @property
    def rows(self) -> list[int]:
        """The canonical RREF rows, sorted by pivot."""
        return list(filter(None, self._canonical()))

    @property
    def pivots(self) -> list[int]:
        """The pivot (lowest set bit) of each row of ``rows``."""
        return [p for p, row in enumerate(self._canonical()) if row]

    def _canonical(self) -> list[int]:
        """The canonical rows by pivot column, 0 at a column without one."""
        if self._at is None:
            echelon = self._echelon
            at = [0] * (max(echelon) + 1)
            mask = 0  # pivots of the rows made canonical so far (all higher)
            for p in sorted(echelon, reverse=True):
                # each row at a set pivot bit q > p is canonical: clear at
                # every other pivot, so XORing it in clears bit q alone
                row = echelon[p]
                echelon[p] = at[p] = row ^ xor_rows(at, row & mask)
                mask |= 1 << p
            self._at, self._pivot_mask = at, mask
        return self._at

    def reduce(self, x: int) -> int:
        """Residue of x against the span (0 iff x is in the span).

        In canonical RREF the coefficient of each row in x is x's bit at
        that row's pivot, so the residue is x XOR the rows at x's set
        pivot bits: one pick of the rows by pivot column, not one test
        per row.
        """
        at = self._canonical()
        return x ^ xor_rows(at, x & self._pivot_mask)

    @classmethod
    def spanning(cls, rows) -> "Rref":
        """The span of any rows, each inserted by :meth:`add`."""
        span = cls()
        for r in rows:
            span.add(r)
        return span

    def add(self, x: int) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        echelon = self._echelon
        while x:
            p = (x & -x).bit_length() - 1
            row = echelon.get(p)
            if row is None:
                echelon[p] = x
                self._at = None
                return True
            x ^= row
        return False


def row_reduce(rows) -> tuple[int, list[int]]:
    """Canonical RREF of a list of packed rows; returns (rank, rows)."""
    acc = Rref.spanning(rows)
    return acc.rank, acc.rows


def xor_rows(rows, bits: int) -> int:
    """XOR of rows[j] over the set bits j of ``bits`` >= 0 (bit 0 ->
    rows[0]), the rows picked by :func:`selected`; bits at or above
    ``len(rows)`` are ignored."""
    return reduce(xor, selected(rows, bits), 0)


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


def transpose_planes(planes, rows: int) -> list[int]:
    """Columns of byte planes: plane i holds one byte of each of ``rows``
    rows, row j in byte j.

    Entry 8·i + k has bit j = bit k of byte j of plane i.  A plane is
    read as one int, whose 8-byte groups are transposed at once; strided
    slices then split out its 8 columns.  The planes are taken one at a
    time, so an iterator that builds or releases them as it goes holds
    one plane here, not all of them.
    """
    groups = (rows + 7) // 8
    # the 8x8 bit transpose (a swap network, as in Hacker's Delight 7-3)
    # of every 8-byte group: bit k of byte j moves to bit j of byte k
    swaps = [(shift, int.from_bytes(mask.to_bytes(8, "little") * groups,
                                    "little"))
             for shift, mask in ((7, 0x00AA00AA00AA00AA),
                                 (14, 0x0000CCCC0000CCCC),
                                 (28, 0x00000000F0F0F0F0))]
    cols = []
    for plane in planes:
        x = int.from_bytes(plane, "little")
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
    return transpose_planes((buf[i::size] for i in range(size)),
                            len(buf) // max(size, 1))[:width]


#: columns per slice in :func:`symplectic_products` and :func:`column_plan`;
#: bounds the transposed columns held at a time
COLUMN_SLICE = 1024


def _support(index: list, col: int):
    """The rows of a column: the index of its one row, or an index list
    or byte mask, whichever is smaller.

    A mask costs ``compress`` a step per row up to its last set bit, not
    per set bit, but index lists for every column left the m=3 K=10
    sampler no faster (0.0730 against 0.0712 s for 20,000 draws, min of
    5, 2-vCPU Xeon) and raised the peak of ``distance --method sample``
    at m=4 K=60 from 38.7 to 51.4 MB, so the form is chosen by size.
    """
    if col.bit_count() == 1:
        return index[col.bit_length() - 1]
    if 8 * col.bit_count() <= col.bit_length():
        return list(selected(index, col))
    return byte_mask(col)


def column_plan(rows, n: int, w: int):
    """Entries for the 2n columns of ``rows``, block by block, as they
    are read.

    The n positions form blocks of w.  Block i lists the entries of its u
    columns i·w..i·w+w-1, then of its v columns n+i·w..n+i·w+w-1, and
    the blocks follow in order.  Bits at or above 2n are ignored.  An
    entry is a column's support or a tuple of the indices, within its
    block's 2w entries, of other columns whose XOR it is
    (:func:`columns`).  A support is the index j of the one row with the
    column set, or whichever form is smaller (:func:`_support`): a list
    of the indices j of the rows with the column set (8 bytes per set
    bit) or their :func:`byte_mask` (one byte per row up to the last one
    set, for ``itertools.compress``); every index is the one int of its
    row.  At m=3 K=10, 1,188 of the 1,764 columns have one row.  Within
    a block the columns are taken sparsest first (ties in column order)
    and reduced, each tagged with one bit, by one :func:`row_reduce`, as
    ``BlockExpander.unit_span`` tags unit images.  A column that is the
    XOR of k earlier columns, with k below its row count, becomes their
    tuple; those columns keep their supports.  Every entry comes from
    the actual columns, so the plan holds for any matrix.  In the
    paper's code a block's 2(4m+2) columns span at most 6m+2 dimensions:
    at m=3 K=10 the plan names 56,315 rows or columns per batch where the
    supports name 119,659.

    The columns are read in slices of whole blocks, at most
    ``COLUMN_SLICE`` columns a slice (one block if a block has more): a
    slice's u columns and its v columns are each one :func:`transpose`
    of the shifted rows, so one slice's columns are held at a time and a
    block is planned only when its first entry is read.  ``rows`` is
    read once per slice and half.  Blocks that do not split the n
    positions raise ValueError at the first read.
    """
    if w < 1 or n % w:
        raise ValueError(f"{n} positions do not split into blocks of {w}")
    index = list(range(len(rows)))
    step = max(1, COLUMN_SLICE // (2 * w)) * w
    for lo in range(0, n, step):
        width = min(step, n - lo)
        u = transpose((x >> lo for x in rows), width)
        v = transpose((x >> (n + lo) for x in rows), width)
        for j in range(0, width, w):
            yield from _block_plan(u[j:j + w] + v[j:j + w], index)


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


def columns(lanes: list[int], supports) -> list[int]:
    """The batch's word columns, one per entry of ``supports``.

    ``supports`` is a run of :func:`column_plan` entries.  Bit t of a
    column is trial t's bit there: the XOR of the lane vectors of the
    rows in its entry, one row index, a list of them or a byte mask
    over the rows.  An entry that is a tuple names other entries of
    ``supports`` by index, all of them row entries, and its column is
    the XOR of theirs: those are formed first.
    """
    def column(rows_at):
        if isinstance(rows_at, int):  # one row: its lane vector itself
            return lanes[rows_at]
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


def block_columns(lanes: list[int], supports, width: int):
    """:func:`columns` of each run of 2·width entries of ``supports``.

    A run is the u columns, then the v columns, of ``width`` positions:
    one block of a :func:`column_plan`, whose tuples name entries of
    their own run.  ``supports`` is a list or an iterator, such as a
    plan being built, and each run is taken from it, and its columns
    formed, only when the iterator reaches it.
    """
    entries = iter(supports)
    runs = iter(lambda: list(islice(entries, 2 * width)), [])
    return (columns(lanes, run) for run in runs)


def in_span(span: Rref, x: int) -> bool:
    """Membership of x in a span."""
    return span.reduce(x) == 0


def first_outside(span: Rref, rows) -> int | None:
    """Index of the first of ``rows`` outside the span, or None: the
    first whose residue (:meth:`Rref.reduce`) is nonzero."""
    return next((i for i, x in enumerate(rows) if span.reduce(x)), None)


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

class DualityReport(NamedTuple):
    """Outcome of the stabilizer/normalizer symplectic-duality check.

    ``failures`` lists the first ``FAILURES_KEPT`` failures in report
    order; ``failures_omitted`` counts the rest.
    """

    all_orthogonal: bool
    dims_complementary: bool
    contained: bool
    rank_s: int
    rank_n: int
    n_products: int
    failures: list
    failures_omitted: int

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
    n_rows[j], n)``.  :func:`transpose` reads N in slices of at most
    ``COLUMN_SLICE`` columns within one half.  The bits of s that Ω
    pairs with a u-slice at lo are its v bits at lo + n, and those
    paired with a v-slice at lo its u bits at lo - n.  A unit column,
    set in one row j alone (as every RREF pivot column), adds s's
    paired bit at bit j: the slice's unit columns take S's columns at
    their pairs, laid out by row (XORed where a row has several) and
    transposed back.  The other columns are XORed as :func:`selected`
    picks them by s's paired bits: 863,890 XORs at m=4 K=60, where all
    columns took 4,809,188.
    """
    if not s_rows:  # nothing to pair; n itself may be huge or negative
        return []
    prods = [0] * len(s_rows)
    for half, pair in ((0, n), (n, -n)):
        for lo in range(half, half + n, COLUMN_SLICE):
            width = min(COLUMN_SLICE, half + n - lo)
            cols = transpose((x >> lo for x in n_rows), width)
            at = lo + pair  # the bits of s that pair with the slice
            units = [(col.bit_length() - 1, k) for k, col in enumerate(cols)
                     if col.bit_count() == 1]  # (row, column)
            unit = sum(1 << k for _j, k in units)
            rest = ((1 << width) - 1) ^ unit
            for i, s in enumerate(s_rows):
                prods[i] ^= reduce(xor, selected(cols, (s >> at) & rest), 0)
            del cols  # before S's columns are held
            if units:
                paired = transpose(((s >> at) & unit for s in s_rows), width)
                low = min(units)[0]
                by_row = [0] * (max(units)[0] + 1 - low)
                for j, k in units:
                    by_row[j - low] ^= paired[k]
                del paired
                for i, bits in enumerate(transpose(by_row, len(s_rows))):
                    prods[i] ^= bits << low
    return prods


def verify_duality(code) -> DualityReport:
    """Check that the normalizer matrix is the exact symplectic dual.

    Three conditions: (a) every stabilizer row has symplectic product 0
    with every normalizer row, (b) rank(S) + rank(N) = 2n, and
    (c) the stabilizer row space is contained in the normalizer's
    (weak self-duality).  Failures are listed with witnessing rows, up
    to ``FAILURES_KEPT`` of them.  All rank(S)·rank(N) products of (a)
    come from :func:`symplectic_products`, not one product per pair;
    orthogonality failures come first, by stabilizer row, then by
    ascending normalizer row.  Containment (c) is one
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
        for j in selected(range(v.bit_length()), v):
            yield "orthogonality", i, j
