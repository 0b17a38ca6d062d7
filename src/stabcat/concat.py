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
injective per block: the c-groups reveal s_{i,m+1}, t_{i,m+1} and the
a_i coordinates, after which the b-groups reveal the a_{N+i} coordinates
and the remaining s, t bits.  Applied to the generator span of the CSS
pair S = R x R, N = Rperp x Rperp (plus all unit s/t inputs) this yields
the stabilizer and normalizer matrices of a binary [[2N(2m+1), 2m(N-2K)]]
stabilizer code whose duality rests on the alpha^-i / alpha^+i twists
cancelling inside the trace.

Bit layout: qubit position p = i*(4m+2) + (j-1) holds (b_{i,j}, c_{i,j})
as (u_p, v_p).
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import Field, build_field, find_self_dual_basis
from .rs import build_rs_pair, css_generators
from .symplectic import Rref, row_reduce, xor_rows


class ConcatError(ValueError):
    """Invalid expansion input or a violated construction invariant."""


@dataclass(frozen=True)
class SymplecticVector:
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


@dataclass(frozen=True)
class ExpansionInput:
    """A length-2N field vector plus the free bit arrays s and t.

    ``s`` and ``t`` are N rows of m+1 bits; row i holds
    (s_{i,1}, ..., s_{i,m+1}).
    """

    a: tuple[int, ...]
    s: tuple[tuple[int, ...], ...]
    t: tuple[tuple[int, ...], ...]


def zero_input(m: int, n_blocks: int) -> ExpansionInput:
    zrow = (0,) * (m + 1)
    return ExpansionInput(
        a=(0,) * (2 * n_blocks),
        s=(zrow,) * n_blocks,
        t=(zrow,) * n_blocks,
    )


@dataclass(frozen=True)
class QuaternaryVector:
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
        # coords of every field element in the self-dual basis
        self._coords = [
            tuple(field.trace(field.mul(x, b)) for b in basis)
            for x in range(field.order)
        ]
        # bit int of the first/second halves of the coordinate vector
        self._half_bits = [
            (sum(c[j] << j for j in range(self.m)),
             sum(c[self.m + j] << j for j in range(self.m)))
            for c in self._coords
        ]

    def coords(self, x: int) -> tuple[int, ...]:
        return self._coords[x]

    def expand_block(self, i: int, a_i: int, a_ni: int,
                     s_i, t_i) -> tuple[int, int]:
        """Bits (b-block, c-block) of block i, each 4m+2 wide, LSB = j=1."""
        f = self.field
        m = self.m
        ca = self._coords[a_i]
        ca_n = self._coords[a_ni]
        a_inv_i = f.alpha_pow(-i)
        a_pow_i = f.alpha_pow(i)

        # First b-group: alpha^-i applied to the s-twisted first half of
        # a_{N+i}'s coordinates.
        w1 = self.basis[0] if (ca_n[0] ^ s_i[m]) else 0
        for j in range(1, m):
            if ca_n[j]:
                w1 ^= self.basis[j]
        for j in range(m):
            if s_i[j]:
                w1 ^= self.basis[m + j]
        x1 = f.mul(a_inv_i, w1)

        w2 = self.basis[0] if (ca_n[m] ^ t_i[m]) else 0
        for j in range(1, m):
            if ca_n[m + j]:
                w2 ^= self.basis[j]
        for j in range(m):
            if t_i[j]:
                w2 ^= self.basis[m + j]
        x2 = f.mul(a_inv_i, w2)

        y1 = self.basis[m] if s_i[m] else 0
        for j in range(m):
            if ca[j]:
                y1 ^= self.basis[j]
        y1 = f.mul(a_pow_i, y1)

        y2 = self.basis[m] if t_i[m] else 0
        for j in range(m):
            if ca[m + j]:
                y2 ^= self.basis[j]
        y2 = f.mul(a_pow_i, y2)

        cx1 = self._coords[x1]
        cx2 = self._coords[x2]
        cy1 = self._coords[y1]
        cy2 = self._coords[y2]

        b_bits = 0
        for j in range(2 * m):
            if cx1[j]:
                b_bits |= 1 << j
        if ca[0] ^ s_i[0]:
            b_bits |= 1 << (2 * m)
        for j in range(2 * m):
            if cx2[j]:
                b_bits |= 1 << (2 * m + 1 + j)
        if ca[m] ^ t_i[0]:
            b_bits |= 1 << (4 * m + 1)

        c_bits = 0
        for j in range(2 * m):
            if cy1[j]:
                c_bits |= 1 << j
        if s_i[m]:
            c_bits |= 1 << (2 * m)
        for j in range(2 * m):
            if cy2[j]:
                c_bits |= 1 << (2 * m + 1 + j)
        if t_i[m]:
            c_bits |= 1 << (4 * m + 1)
        return b_bits, c_bits

    def expand(self, inp: ExpansionInput) -> SymplecticVector:
        """Concatenate the block expansions into one (u | v) vector."""
        nb = self.n_blocks
        if len(inp.a) != 2 * nb:
            raise ConcatError(
                f"field vector length {len(inp.a)} != 2N = {2 * nb}")
        if len(inp.s) != nb or len(inp.t) != nb:
            raise ConcatError("s/t arrays must have one row per block")
        w = self.block_width
        u = 0
        v = 0
        for i in range(nb):
            b_bits, c_bits = self.expand_block(
                i, inp.a[i], inp.a[nb + i], inp.s[i], inp.t[i])
            u |= b_bits << (i * w)
            v |= c_bits << (i * w)
        return SymplecticVector(u=u, v=v, n=nb * w)

    # -- inversion -----------------------------------------------------

    def invert_block(self, i: int, b_bits: int, c_bits: int) -> "BlockData":
        """Recover (a_i, a_{N+i}, s_i, t_i) from block i's bits.

        Raises ConcatError if the bits are not in the image of the block
        map (cannot happen for blocks of genuine expanded codewords).
        """
        f = self.field
        m = self.m
        mask2m = (1 << (2 * m)) - 1
        a_inv_i = f.alpha_pow(-i)
        a_pow_i = f.alpha_pow(i)

        sig_s = (c_bits >> (2 * m)) & 1
        sig_t = (c_bits >> (4 * m + 1)) & 1

        basis = self.basis
        y1 = f.mul(a_inv_i, xor_rows(basis, c_bits & mask2m))
        cy1 = self._coords[y1]
        y2 = f.mul(a_inv_i, xor_rows(basis, (c_bits >> (2 * m + 1)) & mask2m))
        cy2 = self._coords[y2]
        if cy1[m] != sig_s or any(cy1[m + 1:]) or \
                cy2[m] != sig_t or any(cy2[m + 1:]):
            raise ConcatError(f"block {i} bits are not a valid expansion")
        a_i_coords = cy1[:m] + cy2[:m]

        w1 = f.mul(a_pow_i, xor_rows(basis, b_bits & mask2m))
        cw1 = self._coords[w1]
        w2 = f.mul(a_pow_i, xor_rows(basis, (b_bits >> (2 * m + 1)) & mask2m))
        cw2 = self._coords[w2]
        s_bits = cw1[m:] + (sig_s,)
        t_bits = cw2[m:] + (sig_t,)
        a_ni_coords = (cw1[0] ^ sig_s,) + cw1[1:m] + \
            (cw2[0] ^ sig_t,) + cw2[1:m]

        if ((b_bits >> (2 * m)) & 1) != (a_i_coords[0] ^ s_bits[0]) or \
                ((b_bits >> (4 * m + 1)) & 1) != (a_i_coords[m] ^ t_bits[0]):
            raise ConcatError(f"block {i} bits are not a valid expansion")

        a_i = 0
        a_ni = 0
        for j in range(2 * m):
            if a_i_coords[j]:
                a_i ^= basis[j]
            if a_ni_coords[j]:
                a_ni ^= basis[j]
        return BlockData(a_i=a_i, a_ni=a_ni, s=s_bits, t=t_bits)


@dataclass(frozen=True)
class BlockData:
    """Per-block expansion input recovered by :meth:`invert_block`."""

    a_i: int
    a_ni: int
    s: tuple[int, ...]
    t: tuple[int, ...]


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


def block_unit_images(field: Field, basis, i: int) -> list[int]:
    """Images of block i's 6m+2 unit inputs, packed as b | (c << width).

    Input order: the 2m basis coordinates of a_i, then those of a_{N+i},
    then the m+1 bits of s_i, then the m+1 bits of t_i.  The block map is
    GF(2)-linear, so the image of any input is the XOR of the images of
    its set unit inputs.
    """
    exp = get_expander(field, basis)
    m = exp.m
    w = exp.block_width
    zrow = (0,) * (m + 1)

    def image(a_i: int, a_ni: int, s_i, t_i) -> int:
        b_bits, c_bits = exp.expand_block(i, a_i, a_ni, s_i, t_i)
        return b_bits | (c_bits << w)

    def unit(j: int) -> tuple[int, ...]:
        return tuple(int(k == j) for k in range(m + 1))

    return ([image(b, 0, zrow, zrow) for b in exp.basis]
            + [image(0, b, zrow, zrow) for b in exp.basis]
            + [image(0, 0, unit(j), zrow) for j in range(m + 1)]
            + [image(0, 0, zrow, unit(j)) for j in range(m + 1)])


def check_block_injectivity(field: Field, basis, i: int) -> bool:
    """Rank test that block i's input -> bits map is injective.

    The map is GF(2)-linear, so it is injective iff the 6m+2 unit-input
    images (:func:`block_unit_images`) are linearly independent, i.e.
    have full rank 6m+2 in the 2(4m+2)-bit image space.
    """
    gens = block_unit_images(field, basis, i)
    width = 2 * get_expander(field, basis).block_width
    return row_reduce(gens, width)[0] == len(gens)


# ----------------------------------------------------------------------
# The stabilizer code
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizerCodeL:
    """Concatenated stabilizer code with its generator matrices.

    ``s_matrix`` and ``n_matrix`` are canonical RREF lists of packed
    2n-bit rows (u low, v high) generating the stabilizer and normalizer
    row spaces.
    """

    m: int
    big_n: int
    big_k: int
    n: int
    k: int
    s_matrix: tuple[int, ...]
    n_matrix: tuple[int, ...]
    field: Field
    basis: tuple[int, ...]

    @property
    def rank_s(self) -> int:
        return len(self.s_matrix)

    @property
    def rank_n(self) -> int:
        return len(self.n_matrix)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StabilizerCodeL(m={self.m}, N={self.big_n}, "
                f"K={self.big_k}, [[{self.n},{self.k}]])")


def _expanded_span(exp: BlockExpander, field_gens) -> Rref:
    """RREF span of the expansions of a CSS generator set.

    The expansion is only GF(2)-linear, so each field generator row g is
    included together with its scalar multiples alpha^e * g for
    e < 2m — together they span the full field-linear code over GF(2).
    All unit s and unit t inputs are appended.
    """
    f = exp.field
    nb = exp.n_blocks
    m = exp.m
    w = exp.block_width
    n = nb * w
    acc = Rref(2 * n)
    zrow = (0,) * (m + 1)
    for g in field_gens:
        for e in range(f.two_m):
            scale = f.alpha_pow(e)
            a = tuple(f.mul(scale, sym) for sym in g)
            vec = exp.expand(ExpansionInput(
                a=a, s=(zrow,) * nb, t=(zrow,) * nb))
            acc.add(vec.packed())
    for i in range(nb):
        for j in range(m + 1):
            row = list(zrow)
            row[j] = 1
            for which in ("s", "t"):
                if which == "s":
                    b_bits, c_bits = exp.expand_block(
                        i, 0, 0, tuple(row), zrow)
                else:
                    b_bits, c_bits = exp.expand_block(
                        i, 0, 0, zrow, tuple(row))
                packed = (b_bits << (i * w)) | (c_bits << (i * w + n))
                acc.add(packed)
    return acc


def build_code(m: int, big_k: int) -> StabilizerCodeL:
    """Construct the concatenated code for parameters (m, K).

    The stabilizer matrix spans the expansions of the R x R generator
    set (with field-scalar multiples) plus all unit s/t inputs; the
    normalizer matrix does the same over Rperp x Rperp.  Ranks are
    checked against the closed forms 2N(m+1) + 4mK and 2n - rank(S);
    a deviation means a construction bug, not a user error.
    """
    if m < 1:
        raise ConcatError(f"m must be >= 1, got {m}")
    field = build_field(2 * m)
    basis = find_self_dual_basis(field)
    exp = get_expander(field, basis)
    big_n = field.order - 1
    code, dual = build_rs_pair(field, big_k)  # validates K range
    css = css_generators(code, dual)

    n = big_n * exp.block_width
    k = 2 * m * (big_n - 2 * big_k)

    s_acc = _expanded_span(exp, css.s_gens)
    n_acc = _expanded_span(exp, css.n_gens)

    want_rank_s = 2 * big_n * (m + 1) + 4 * m * big_k
    if s_acc.rank != want_rank_s:
        raise ConcatError(
            f"stabilizer rank {s_acc.rank} != expected {want_rank_s}; "
            f"construction bug")
    if n_acc.rank != 2 * n - want_rank_s:
        raise ConcatError(
            f"normalizer rank {n_acc.rank} != expected "
            f"{2 * n - want_rank_s}; construction bug")
    if n_acc.rank - s_acc.rank != 2 * k:
        raise ConcatError(
            f"rank(N) - rank(S) = {n_acc.rank - s_acc.rank} != 2k = "
            f"{2 * k}; construction bug")

    return StabilizerCodeL(
        m=m, big_n=big_n, big_k=big_k, n=n, k=k,
        s_matrix=tuple(s_acc.rows), n_matrix=tuple(n_acc.rows),
        field=field, basis=basis,
    )


# ----------------------------------------------------------------------
# Half-block bookkeeping for the weight-counting checks
# ----------------------------------------------------------------------

def block_bits(x: SymplecticVector, width: int, i: int) -> tuple[int, int]:
    """(u, v) bits of block i of a symplectic vector."""
    mask = (1 << width) - 1
    return (x.u >> (i * width)) & mask, (x.v >> (i * width)) & mask


def designated_half_tuple(exp: BlockExpander, i: int, b_bits: int,
                          c_bits: int) -> tuple[int, ...] | None:
    """Quaternary (2m+1)-tuple of the designated half of block i.

    A block whose underlying symbol pair (a_i | a_{N+i}) is nonzero has
    at least one nonzero half of the coordinate data
    (a_{i,1..m} | a_{N+i,1..m}) or (a_{i,m+1..2m} | a_{N+i,m+1..2m});
    the first nonzero half designates the corresponding (2m+1)-position
    half-block.  Returns None when the symbol pair is zero (the block
    carries only s/t content and is not designated).
    """
    data = exp.invert_block(i, b_bits, c_bits)
    if data.a_i == 0 and data.a_ni == 0:
        return None
    m = exp.m
    lo_a, hi_a = exp._half_bits[data.a_i]
    lo_an, hi_an = exp._half_bits[data.a_ni]
    if lo_a or lo_an:
        off = 0
    else:
        if not (hi_a or hi_an):  # pragma: no cover - excluded above
            return None
        off = 2 * m + 1
    return tuple(
        (((b_bits >> (off + j)) & 1) | (((c_bits >> (off + j)) & 1) << 1))
        for j in range(2 * m + 1))
