"""Block expansion of field codewords into binary symplectic vectors.

This is the core construction.  A length-2N vector a = (a_0..a_{N-1} |
a_N..a_{2N-1}) over GF(2^{2m}), together with free bit arrays s, t of
shape N x (m+1), expands into a binary vector (u | v) on n = N(4m+2)
qubit positions.  Writing a_{i,j} for the j-th coordinate of symbol a_i
in a self-dual basis beta_1..beta_{2m}, the bits of block i are defined
by the four equation groups

  sum_j b_{i,j} beta_j       = alpha^-i [ (a_{N+i,1} + s_{i,m+1}) beta_1
                                 + sum_{j=2..m}     a_{N+i,j} beta_j
                                 + sum_{j=m+1..2m}  s_{i,j-m} beta_j ]
  b_{i,2m+1}                 = a_{i,1} + s_{i,1}
  sum_j b_{i,2m+1+j} beta_j  = alpha^-i [ (a_{N+i,m+1} + t_{i,m+1}) beta_1
                                 + sum_{j=2..m}     a_{N+i,m+j} beta_j
                                 + sum_{j=m+1..2m}  t_{i,j-m} beta_j ]
  b_{i,4m+2}                 = a_{i,m+1} + t_{i,1}
  sum_j c_{i,j} beta_j       = alpha^i [ sum_{j=1..m} a_{i,j} beta_j
                                 + s_{i,m+1} beta_{m+1} ]
  c_{i,2m+1}                 = s_{i,m+1}
  sum_j c_{i,2m+1+j} beta_j  = alpha^i [ sum_{j=1..m} a_{i,m+j} beta_j
                                 + t_{i,m+1} beta_{m+1} ]
  c_{i,4m+2}                 = t_{i,m+1}

(empty ranges at m = 1 contribute zero).  The map is GF(2)-linear and
injective per block.  :meth:`BlockExpander.expand_block` is the only
encoding of these equations.  Injectivity is the rank of a block's 6m+2
unit-input images (:func:`check_block_injectivity`); inversion uses
their span with each image tagged by its input index above the image
bits (:meth:`BlockExpander.unit_span`).  A block's input
is one bit vector in that order: the 2m basis coordinates of a_i, those
of a_{N+i}, then s_i and t_i, and :meth:`BlockExpander.invert_block`
returns it as the tag that the reduction leaves.  No field element is
rebuilt from it: in the self-dual basis x_j = Tr(x beta_j), so the
coordinates of sum_j c_j beta_j are c itself, and the tag's low 4m bits
are the symbol pair's coordinates.  Applied to the
generator span of the CSS pair S = R x R, N = Rperp x Rperp (plus all
unit s/t inputs) this yields the stabilizer and normalizer matrices of a
binary [[2N(2m+1), 2m(N-2K)]] stabilizer code whose duality rests on the
alpha^-i / alpha^+i twists cancelling inside the trace.

:func:`build_code` never evaluates the equations per generator.  By
linearity the image of any symbol in either slot of block i is an XOR
of unit images, so each block gets two symbol tables
(:meth:`BlockExpander.block_tables`), and a generator row is one table
lookup per nonzero block.  The rows are the systematic RS generators
(:attr:`stabcat.rs.RsCode.systematic`), which touch one block of the
information set plus the fixed tail, and they stream into one
:func:`~stabcat.symplectic.row_reduce`, whose
:class:`~stabcat.symplectic.Rref` reduces them lazily.  The canonical
RREF is unique per row space, so this gives the same matrices as
expanding the monomial generators one by one.

Bit layout: qubit position p = i*(4m+2) + (j-1) holds (b_{i,j}, c_{i,j})
as (u_p, v_p).  :meth:`BlockExpander.key` reads block i's bits of a
packed word as one int b | c << (4m+2), the form of
:meth:`BlockExpander.expand_block`'s output, and :meth:`BlockExpander.word`
places such an int back; every other module goes through this pair.
:func:`closed_forms` gives n, k and rank(S) from (m, N, K), for
:func:`build_code` and :func:`stabcat.bounds.params_for_rate` alike.
"""

from __future__ import annotations

from array import array
from functools import cached_property, partial
from typing import NamedTuple

from .field import Field, build_field, coords, find_self_dual_basis
from .rs import build_rs_pair, css_generators
from .symplectic import Rref, RrefError, row_reduce


class ConcatError(ValueError):
    """Invalid expansion input or a violated construction invariant."""


class SymplecticVector(NamedTuple):
    """Binary (u | v) vector on n qubit positions, packed LSB-first."""

    u: int
    v: int
    n: int

    def packed(self) -> int:
        """Single int with u in bits 0..n-1 and v in bits n..2n-1."""
        return self.u | (self.v << self.n)

    @classmethod
    def from_packed(cls, word: int, n: int) -> "SymplecticVector":
        mask = (1 << n) - 1
        return cls(u=word & mask, v=word >> n, n=n)


class ExpansionInput(NamedTuple):
    """A length-2N field vector plus the free bit arrays s and t.

    ``s`` and ``t`` are N rows of m+1 bits; row i holds
    (s_{i,1}, ..., s_{i,m+1}).
    """

    a: tuple[int, ...]
    s: tuple[tuple[int, ...], ...]
    t: tuple[tuple[int, ...], ...]


class QuaternaryVector(NamedTuple):
    """GF(4) view of a symplectic vector: symbol_p = u_p + omega * v_p.

    Symbols are ints 0..3 with omega represented by 2 (the primitive
    element of GF(4) under modulus x^2 + x + 1), so the encoding is
    u_p + 2 * v_p.  Hamming weight equals the symplectic weight of the
    source vector.
    """

    symbols: tuple[int, ...]

    def weight(self) -> int:
        return sum(1 for s in self.symbols if s)


def to_quaternary(x: SymplecticVector) -> QuaternaryVector:
    return QuaternaryVector(symbols=tuple(
        ((x.u >> p) & 1) | (((x.v >> p) & 1) << 1) for p in range(x.n)))


# ----------------------------------------------------------------------
# Expander: caches per-(field, basis) tables for the block equations
# ----------------------------------------------------------------------

class BlockExpander:
    """Evaluates and inverts the per-block expansion equations."""

    def __init__(self, field: Field, basis: tuple[int, ...]) -> None:
        if field.two_m % 2 != 0:
            raise ConcatError(
                f"concatenation layer needs an even extension degree, "
                f"got {field.two_m}")
        if len(basis) != field.two_m:
            raise ConcatError("basis size does not match the field degree")
        self.field = field
        self.basis = basis
        self.m = field.two_m // 2
        self.n_blocks = field.order - 1
        self.block_width = 4 * self.m + 2
        self.n = self.n_blocks * self.block_width
        # bit j-1 of _coord_bits[x] is x's beta_j coordinate
        self._coord_bits = [
            sum(c << j for j, c in enumerate(coords(field, basis, x)))
            for x in range(field.order)]
        # _sums[c] is sum_j c_j beta_j, c as coordinate bits
        self._sums = [0]
        for b in basis:
            self._sums += [x ^ b for x in self._sums]
        self._unit_spans: dict[int, Rref] = {}  # block -> unit_span

    def _twist(self, e: int, c: int) -> int:
        """Coordinate bits of e * sum_j c_j beta_j (c as coordinate bits)."""
        return self._coord_bits[self.field.mul(e, self._sums[c])]

    def expand_block(self, i: int, a_i: int, a_ni: int,
                     s_i, t_i) -> tuple[int, int]:
        """Bits (b-block, c-block) of block i, each 4m+2 wide, LSB = j=1.

        Each 2m-bit equation group is one alpha^-i or alpha^+i twist of a
        coordinate-bit vector assembled from a_i, a_{N+i}, s_i and t_i.
        """
        m = self.m
        low = (1 << m) - 1
        ca = self._coord_bits[a_i]
        can = self._coord_bits[a_ni]
        s = sum(bit << j for j, bit in enumerate(s_i))
        t = sum(bit << j for j, bit in enumerate(t_i))
        s_top, t_top = s >> m, t >> m  # s_{i,m+1}, t_{i,m+1}
        down = self.field.alpha_pow(-i)
        up = self.field.alpha_pow(i)
        # b-groups: the s/t-twisted halves of a_{N+i}'s coordinates
        x1 = self._twist(down, ((can & low) ^ s_top) | ((s & low) << m))
        x2 = self._twist(down, ((can >> m) ^ t_top) | ((t & low) << m))
        # c-groups: the halves of a_i's coordinates
        y1 = self._twist(up, (ca & low) | (s_top << m))
        y2 = self._twist(up, (ca >> m) | (t_top << m))
        b_bits = (x1 | (((ca ^ s) & 1) << (2 * m)) | (x2 << (2 * m + 1))
                  | ((((ca >> m) ^ t) & 1) << (4 * m + 1)))
        c_bits = (y1 | (s_top << (2 * m)) | (y2 << (2 * m + 1))
                  | (t_top << (4 * m + 1)))
        return b_bits, c_bits

    def key(self, x: int, i: int) -> int:
        """Block i's bits of the packed word x, as b | c << width.

        GF(2)-linear in x, so the keys of a Gray walk over rows are the
        Gray walk over the rows' keys.
        """
        w = self.block_width
        mask = (1 << w) - 1
        sh = i * w
        return ((x >> sh) & mask) | (((x >> (self.n + sh)) & mask) << w)

    def word(self, key: int, i: int) -> int:
        """The packed word whose block i holds ``key`` (b | c << width)
        and whose other blocks are zero: the inverse of :meth:`key`."""
        w = self.block_width
        return ((key & ((1 << w) - 1)) | ((key >> w) << self.n)) << (i * w)

    def expand(self, inp: ExpansionInput) -> SymplecticVector:
        """Concatenate the block expansions into one (u | v) vector."""
        nb = self.n_blocks
        if len(inp.a) != 2 * nb:
            raise ConcatError(
                f"field vector length {len(inp.a)} != 2N = {2 * nb}")
        if len(inp.s) != nb or len(inp.t) != nb or any(
                len(row) != self.m + 1 for row in inp.s + inp.t):
            raise ConcatError(
                "s/t arrays must have one row of m+1 bits per block")
        w = self.block_width
        x = 0
        for i in range(nb):
            b_bits, c_bits = self.expand_block(
                i, inp.a[i], inp.a[nb + i], inp.s[i], inp.t[i])
            x |= self.word(b_bits | (c_bits << w), i)
        return SymplecticVector.from_packed(x, self.n)

    # -- unit inputs and inversion ------------------------------------

    def unit_images(self, i: int) -> list[int]:
        """Images of block i's 6m+2 unit inputs, packed as b | (c << width).

        Input order: the 2m basis coordinates of a_i, then those of
        a_{N+i}, then the m+1 bits of s_i, then the m+1 bits of t_i.  The
        block map is GF(2)-linear, so the image of any input is the XOR
        of the images of its set unit inputs.
        """
        m = self.m
        w = self.block_width
        zrow = (0,) * (m + 1)
        units = [zrow[:j] + (1,) + zrow[j + 1:] for j in range(m + 1)]

        def image(a_i: int, a_ni: int, s_i, t_i) -> int:
            b_bits, c_bits = self.expand_block(i, a_i, a_ni, s_i, t_i)
            return b_bits | (c_bits << w)

        return ([image(b, 0, zrow, zrow) for b in self.basis]
                + [image(0, b, zrow, zrow) for b in self.basis]
                + [image(0, 0, u, zrow) for u in units]
                + [image(0, 0, zrow, u) for u in units])

    def block_tables(self, i: int) -> tuple:
        """Block i's symbol tables and unit s/t images.

        Returns (a_table, an_table, st_images): a_table[x] is the image
        of a_i = x (everything else zero), an_table[x] that of
        a_{N+i} = x, both packed as in :meth:`unit_images`, and
        st_images the images of the 2m+2 unit s/t inputs.  The map is
        linear and x = sum_j coords(x)_j beta_j, so each table entry is
        the XOR of the unit images its coordinates select.
        """
        images = self.unit_images(i)
        two_m = 2 * self.m
        # one machine word an entry while an image (2(4m+2) bits) fits
        store = list if 2 * self.block_width > 64 else partial(array, "Q")
        slots = []
        for units in (images[:two_m], images[two_m:2 * two_m]):
            by_coords = [0]  # index: coordinate bits, bit j -> beta_j
            for image in units:
                by_coords += [x ^ image for x in by_coords]
            slots.append(store(by_coords[c] for c in self._coord_bits))
        return slots[0], slots[1], images[2 * two_m:]

    def unit_span(self, i: int) -> Rref:
        """Span of block i's unit-input images, image j tagged with bit
        2*width + j.  Reducing block bits against it leaves a zero image
        residue iff they lie in the image, and then their input in the
        tag bits."""
        tag = 2 * self.block_width
        acc = Rref()
        for j, image in enumerate(self.unit_images(i)):
            acc.add(image | (1 << (tag + j)))
        return acc

    def invert_block(self, i: int, b_bits: int, c_bits: int) -> int:
        """Block i's input bits, in :meth:`unit_images` order.

        Bits 0..2m-1 are a_i's basis coordinates, bits 2m..4m-1 those of
        a_{N+i}, then the m+1 bits of s_i and the m+1 bits of t_i: the
        tag that reducing the block bits against :meth:`unit_span`
        leaves.  Raises ConcatError if the bits are not in the image of
        the block map (cannot happen for blocks of genuine expanded
        codewords).
        """
        span = self._unit_spans.get(i)
        if span is None:
            span = self._unit_spans[i] = self.unit_span(i)
        w = self.block_width
        x = span.reduce(b_bits | (c_bits << w))
        if x & ((1 << (2 * w)) - 1):
            raise ConcatError(f"block {i} bits are not a valid expansion")
        return x >> (2 * w)


_EXPANDERS: dict[tuple[int, int, tuple[int, ...]], BlockExpander] = {}


def get_expander(field: Field, basis: tuple[int, ...]) -> BlockExpander:
    key = (field.two_m, field.modulus, tuple(basis))
    exp = _EXPANDERS.get(key)
    if exp is None:
        exp = _EXPANDERS[key] = BlockExpander(field, basis)
    return exp


def expand_block(field: Field, basis, i: int, a_i: int, a_ni: int,
                 s_i, t_i) -> tuple[int, int]:
    return get_expander(field, basis).expand_block(i, a_i, a_ni, s_i, t_i)


def expand_codeword(field: Field, basis, inp: ExpansionInput) \
        -> SymplecticVector:
    return get_expander(field, basis).expand(inp)


def check_block_injectivity(field: Field, basis, i: int) -> bool:
    """Test that block i's input -> bits map is injective.

    The map is GF(2)-linear, so it is injective iff no nonzero input
    maps to zero, i.e. iff its 6m+2 unit-input images
    (:meth:`BlockExpander.unit_images`) are independent: each one
    enlarges the span of those before it.
    """
    span = Rref()
    return all(map(span.add, get_expander(field, basis).unit_images(i)))


# ----------------------------------------------------------------------
# The stabilizer code
# ----------------------------------------------------------------------

class _CodeFields(NamedTuple):
    m: int
    big_n: int
    big_k: int
    n: int
    k: int
    s_matrix: tuple[int, ...]
    n_matrix: tuple[int, ...]
    field: Field
    basis: tuple[int, ...]


class StabilizerCodeL(_CodeFields):
    """Concatenated stabilizer code with its generator matrices.

    ``s_matrix`` and ``n_matrix`` are canonical RREF lists of packed
    2n-bit rows (u low, v high) generating the stabilizer and normalizer
    row spaces.  ``s_span`` and ``n_span`` are their spans, built once on
    first use; they raise RrefError unless the rows are canonical RREF.
    The fields are those of a named tuple, so ``_replace`` makes a code
    with other matrices, whose spans are built afresh.
    """

    @property
    def rank_s(self) -> int:
        return len(self.s_matrix)

    @property
    def rank_n(self) -> int:
        return len(self.n_matrix)

    @property
    def block_width(self) -> int:
        """Positions per block, 4m+2: the sampler's block size, taken from
        m alone, so a file's basis is never read to find it."""
        return 4 * self.m + 2

    @cached_property
    def expander(self) -> BlockExpander:
        """The block maps of the code's field and basis."""
        return get_expander(self.field, self.basis)

    @cached_property
    def s_span(self) -> Rref:
        return _stored_span("stabilizer", self.s_matrix)

    @cached_property
    def n_span(self) -> Rref:
        return _stored_span("normalizer", self.n_matrix)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StabilizerCodeL(m={self.m}, N={self.big_n}, "
                f"K={self.big_k}, [[{self.n},{self.k}]])")


def _stored_span(name: str, rows) -> Rref:
    try:
        return Rref(rows)
    except RrefError as exc:
        raise RrefError(f"{name} {exc}") from None


def closed_forms(m: int, big_n: int, big_k: int) -> tuple[int, int, int]:
    """(n, k, rank(S)) of the code with N blocks over GF(2^(2m)):
    n = N(4m+2), k = 2m(N - 2K) and rank(S) = 2N(m+1) + 4mK, so
    rank(N) = 2n - rank(S) = rank(S) + 2k."""
    return (big_n * (4 * m + 2), 2 * m * (big_n - 2 * big_k),
            2 * big_n * (m + 1) + 4 * m * big_k)


def _expanded_rows(exp: BlockExpander, tables, rs_rows):
    """Packed rows spanning the expansion of C x C plus every s/t input.

    ``rs_rows`` is a basis of an RS code C as position -> symbol maps
    (:attr:`RsCode.systematic`).  C x C is spanned by (r | 0) and
    (0 | r) over those rows, and the expansion is only GF(2)-linear, so
    each is taken together with its scalar multiples alpha^e for
    e < 2m, which span its GF(2^(2m))-multiples over GF(2).  A row is
    assembled from one symbol-table lookup per nonzero block
    (``tables``: :meth:`BlockExpander.block_tables` of every block).
    The unit s and t inputs of every block come first; their block-local
    pivots keep the elimination of the field rows short.  Rows are
    yielded one at a time, so none is held unreduced.
    """
    f = exp.field
    for i, (_, _, st_images) in enumerate(tables):
        for image in st_images:
            yield exp.word(image, i)
    # a field row ORs in a block per cell: its u and v halves are kept
    # apart, as :meth:`BlockExpander.word` places them, because ORing
    # each cell into one 2n-bit word doubles the cost of this loop
    w = exp.block_width
    mask = (1 << w) - 1
    for row in rs_rows:
        for slot in (0, 1):  # the a_i slot, then the a_{N+i} slot
            cells = [(tables[i][slot], i * w, sym) for i, sym in row.items()]
            for e in range(f.two_m):
                scale = f.alpha_pow(e)
                u = v = 0
                for table, shift, sym in cells:
                    image = table[f.mul(scale, sym)]
                    u |= (image & mask) << shift
                    v |= (image >> w) << shift
                yield u | (v << exp.n)


def build_code(m: int, big_k: int) -> StabilizerCodeL:
    """Construct the concatenated code for parameters (m, K).

    The stabilizer matrix spans the expansions of the R x R generator
    set (with field-scalar multiples) plus all unit s/t inputs; the
    normalizer matrix does the same over Rperp x Rperp.  Ranks are
    checked against :func:`closed_forms`, rank(S) and 2n - rank(S); a
    deviation means a construction bug, not a user error.
    """
    if m < 1:
        raise ConcatError(f"m must be >= 1, got {m}")
    field = build_field(2 * m)
    basis = find_self_dual_basis(field)
    exp = get_expander(field, basis)
    big_n = field.order - 1
    code, dual = build_rs_pair(field, big_k)  # validates K range
    css_generators(code, dual)  # checks that R lies in Rperp

    n, k, want_rank_s = closed_forms(m, big_n, big_k)

    # the tables serve both spans and are dropped before the caller
    # writes the file, the construct's memory peak
    tables = [exp.block_tables(i) for i in range(big_n)]
    rank_s, s_rows = row_reduce(_expanded_rows(exp, tables, code.systematic))
    rank_n, n_rows = row_reduce(_expanded_rows(exp, tables, dual.systematic))
    del tables

    if rank_s != want_rank_s:
        raise ConcatError(
            f"stabilizer rank {rank_s} != expected {want_rank_s}; "
            f"construction bug")
    if rank_n != 2 * n - want_rank_s:
        raise ConcatError(
            f"normalizer rank {rank_n} != expected "
            f"{2 * n - want_rank_s}; construction bug")

    return StabilizerCodeL(
        m=m, big_n=big_n, big_k=big_k, n=n, k=k,
        s_matrix=tuple(s_rows), n_matrix=tuple(n_rows),
        field=field, basis=basis,
    )


# ----------------------------------------------------------------------
# Half-block bookkeeping for the weight-counting checks
# ----------------------------------------------------------------------

def designated_half(exp: BlockExpander, i: int, b_bits: int,
                    c_bits: int) -> int | None:
    """The designated (2m+1)-position half of block i, as one int.

    A block whose underlying symbol pair (a_i | a_{N+i}) is nonzero has
    at least one nonzero half of the coordinate data
    (a_{i,1..m} | a_{N+i,1..m}) or (a_{i,m+1..2m} | a_{N+i,m+1..2m});
    the first nonzero half designates the corresponding (2m+1)-position
    half-block.  Returns None when the symbol pair is zero (the block
    carries only s/t content and is not designated).  Otherwise the int
    holds the half-block's 2m+1 b-bits, then its 2m+1 c-bits: a
    one-to-one code for the quaternary tuple whose entry j is b-bit j
    plus twice c-bit j.

    Both tests read the input bits of :meth:`BlockExpander.invert_block`
    directly, which hold the coordinates themselves (self-dual basis):
    the pair is zero iff bits 0..4m-1 are, and the first half is nonzero
    iff one of bits 0..m-1 (a_i) or 2m..3m-1 (a_{N+i}) is set.
    """
    tag = exp.invert_block(i, b_bits, c_bits)
    m = exp.m
    if not tag & ((1 << (4 * m)) - 1):
        return None
    low = (1 << m) - 1
    half = 2 * m + 1
    off = 0 if tag & (low | (low << (2 * m))) else half
    mask = (1 << half) - 1
    return ((b_bits >> off) & mask) | (((c_bits >> off) & mask) << half)
