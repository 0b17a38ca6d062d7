"""GF(2) linear algebra on packed bit-rows, with the symplectic form.

A length-2n binary vector (u | v) is stored as a single Python int with
u in bits 0..n-1 and v in bits n..2n-1, so elimination steps are single
machine-assisted XORs regardless of width.  A "matrix" is a plain list
of such ints together with an explicit width.  Reduced matrices are kept
in canonical reduced row echelon form: rows sorted by pivot (lowest set
bit), every pivot column zero elsewhere.  RREF is unique per row space,
which the file verifier relies on to detect mutated generator files.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field as dc_field


def lowest_bit(x: int) -> int:
    """Index of the lowest set bit (the pivot column of an RREF row)."""
    return (x & -x).bit_length() - 1


class Rref:
    """Incremental reduced-row-echelon accumulator over GF(2).

    Rows are inserted one at a time and the matrix is kept fully reduced
    (pivot columns are zero in every other row, rows sorted by pivot).
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self.rows: list[int] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, x: int) -> int:
        """Residue of x against the current rows (0 iff x is in the span)."""
        for p, row in zip(self.pivots, self.rows):
            if (x >> p) & 1:
                x ^= row
        return x

    def add(self, x: int) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        x = self.reduce(x)
        if x == 0:
            return False
        p = lowest_bit(x)
        for i, row in enumerate(self.rows):
            if (row >> p) & 1:
                self.rows[i] = row ^ x
        at = bisect.bisect_left(self.pivots, p)
        self.pivots.insert(at, p)
        self.rows.insert(at, x)
        return True

    def contains(self, x: int) -> bool:
        return self.reduce(x) == 0


def row_reduce(rows, width: int) -> tuple[int, list[int]]:
    """Canonical RREF of a list of packed rows; returns (rank, rows)."""
    acc = Rref(width)
    for r in rows:
        acc.add(r)
    return acc.rank, list(acc.rows)


def xor_rows(rows, bits: int) -> int:
    """XOR of rows[j] over the set bits j of ``bits`` (bit 0 -> rows[0])."""
    x = 0
    while bits:
        low = bits & -bits
        x ^= rows[low.bit_length() - 1]
        bits ^= low
    return x


def in_span(reduced_rows, x: int) -> bool:
    """Membership of x in the row space of an RREF matrix."""
    for row in reduced_rows:
        if (x >> lowest_bit(row)) & 1:
            x ^= row
    return x == 0


def is_rref(rows, width: int) -> bool:
    """True iff the rows literally are their own canonical RREF."""
    return list(rows) == row_reduce(rows, width)[1]


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

@dataclass
class DualityReport:
    """Outcome of the stabilizer/normalizer symplectic-duality check."""

    all_orthogonal: bool
    dims_complementary: bool
    contained: bool
    rank_s: int
    rank_n: int
    n_products: int
    failures: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.all_orthogonal and self.dims_complementary and \
            self.contained


def verify_duality(code) -> DualityReport:
    """Check that the normalizer matrix is the exact symplectic dual.

    Three conditions: (a) every stabilizer row has symplectic product 0
    with every normalizer row, (b) rank(S) + rank(N) = 2n, and
    (c) the stabilizer row space is contained in the normalizer's
    (weak self-duality).  Failures are enumerated with witnessing rows.
    """
    n = code.n
    failures = []
    count = 0
    for i, s_row in enumerate(code.s_matrix):
        for j, n_row in enumerate(code.n_matrix):
            count += 1
            if symplectic_product_packed(s_row, n_row, n):
                failures.append(("orthogonality", i, j))
    rank_s = len(code.s_matrix)
    rank_n = len(code.n_matrix)
    dims_ok = rank_s + rank_n == 2 * n
    if not dims_ok:
        failures.append(("dimensions", rank_s, rank_n))
    contained = all(in_span(code.n_matrix, r) for r in code.s_matrix)
    if not contained:
        bad = [i for i, r in enumerate(code.s_matrix)
               if not in_span(code.n_matrix, r)]
        failures.append(("containment", bad[0], None))
    return DualityReport(
        all_orthogonal=not any(f[0] == "orthogonality" for f in failures),
        dims_complementary=dims_ok,
        contained=contained,
        rank_s=rank_s,
        rank_n=rank_n,
        n_products=count,
        failures=failures,
    )
