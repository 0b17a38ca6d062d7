"""Arithmetic in binary extension fields GF(2^e).

Elements are plain Python ints whose binary digits are the coefficients
of the polynomial-basis representation: bit i of the int is the
coefficient of alpha^i, where alpha is the class of x modulo the field's
defining polynomial.  Addition is XOR; multiplication goes through
log/exp tables built once per field.

The module also provides the trace map down to GF(2), discovery of a
trace-orthonormal ("self-dual") basis, and the coordinate maps between
an element and its bit vector with respect to such a basis.  A self-dual
basis makes coordinate extraction a single trace computation:
``coords(x)[j] = trace(x * basis[j])``.
"""

from __future__ import annotations

from typing import Iterator


DEFAULT_MAX_DEGREE = 16


class FieldError(ValueError):
    """Invalid field construction or element operation."""


# ----------------------------------------------------------------------
# GF(2)[x] polynomial helpers (ints as bit-polynomials)
# ----------------------------------------------------------------------

def _poly_mul(a: int, b: int) -> int:
    """Carry-less product of two bit-polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _poly_mod(a: int, mod: int) -> int:
    """Remainder of bit-polynomial division."""
    dm = mod.bit_length()
    while a.bit_length() >= dm:
        a ^= mod << (a.bit_length() - dm)
    return a


def _poly_mulmod(a: int, b: int, mod: int) -> int:
    return _poly_mod(_poly_mul(a, b), mod)


def _poly_powmod(base: int, exp: int, mod: int) -> int:
    out = 1
    base = _poly_mod(base, mod)
    while exp:
        if exp & 1:
            out = _poly_mulmod(out, base, mod)
        base = _poly_mulmod(base, base, mod)
        exp >>= 1
    return out


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (n fits well below 2^32)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(poly: int, degree: int) -> bool:
    """Rabin irreducibility test for a degree-``degree`` bit-polynomial."""
    # x^(2^degree) == x mod poly, and x^(2^(degree/q)) - x coprime to poly
    # for every prime divisor q of the degree.  Both sides are reduced:
    # at degree 1 the class of x is the constant term, not x itself.
    x = _poly_mod(2, poly)
    if _poly_powmod(2, 1 << degree, poly) != x:
        return False
    for q in _prime_factors(degree):
        h = _poly_powmod(2, 1 << (degree // q), poly) ^ x
        if _poly_gcd(poly, h) != 1:
            return False
    return True


def _is_primitive(poly: int, degree: int) -> bool:
    """True if the class of x generates the multiplicative group mod poly.

    A modulus divisible by x makes x a zero divisor, never a generator.
    """
    if _poly_mod(2, poly) == 0:
        return False
    order = (1 << degree) - 1
    for q in _prime_factors(order):
        if _poly_powmod(2, order // q, poly) == 1:
            return False
    return True


# ----------------------------------------------------------------------
# The field itself
# ----------------------------------------------------------------------

class Field:
    """GF(2^two_m) with a fixed primitive defining polynomial.

    The log/exp tables walk the powers of alpha.  The trace table uses
    that Tr is GF(2)-linear: Tr(x) is the XOR of Tr(alpha^i) over the
    set bits i of x, so only the two_m values Tr(alpha^i) are computed
    from squarings.  Two fields are equal, and hash alike, when their
    two_m and modulus are; the tables are never compared.

    Attributes (set once, by the constructor):
        two_m: extension degree e over GF(2).
        modulus: defining polynomial as a bit-polynomial of degree e
            (irreducible and primitive, so alpha = 2 generates the
            multiplicative group).
        order: number of field elements, 2^e.
        alpha: the primitive element (class of x), always the int 2.
    """

    __slots__ = ("two_m", "modulus", "order", "alpha", "_exp", "_log",
                 "_trace")

    def __init__(self, two_m: int, modulus: int) -> None:
        e = two_m
        if not 1 <= e <= DEFAULT_MAX_DEGREE:  # before any table is built
            raise FieldError(
                f"extension degree {e} outside supported range "
                f"[1, {DEFAULT_MAX_DEGREE}]")
        if modulus.bit_length() != e + 1:
            raise FieldError(
                f"modulus 0x{modulus:x} does not have degree {e}")
        if not _is_irreducible(modulus, e):
            raise FieldError(f"modulus 0x{modulus:x} is reducible")
        if not _is_primitive(modulus, e):
            raise FieldError(
                f"modulus 0x{modulus:x} is irreducible but x is not "
                f"primitive")
        self.two_m = e
        self.modulus = modulus
        self.order = order = 1 << e
        self.alpha = 2 if e > 1 else 1

        # log/exp tables over the cyclic group generated by alpha.
        exp = [0] * (2 * order)
        log = [0] * order
        val = 1
        for i in range(order - 1):
            exp[i] = val
            log[val] = i
            val = _poly_mulmod(val, self.alpha, modulus)
        for i in range(order - 1, 2 * order):
            exp[i] = exp[i - (order - 1)]
        self._exp = exp
        self._log = log

        # Trace table: Tr(x) = sum of x^(2^i) for i < e, always 0 or 1,
        # and linear, so bit i of tmask is Tr(alpha^i) and Tr(x) is the
        # parity of x & tmask.
        tmask = 0
        for i in range(e):
            acc = 0
            y = 1 << i
            for _ in range(e):
                acc ^= y
                y = _poly_mulmod(y, y, modulus)
            if acc not in (0, 1):
                raise FieldError(
                    f"trace of {1 << i:#x} is {acc:#x}, not in GF(2); "
                    f"modulus 0x{modulus:x} is inconsistent")
            tmask |= acc << i
        self._trace = [(x & tmask).bit_count() & 1 for x in range(order)]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.two_m, self.modulus) == (other.two_m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.two_m, self.modulus))

    # -- arithmetic ----------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def inverse(self, x: int) -> int:
        if x == 0:
            raise FieldError("zero has no multiplicative inverse")
        return self._exp[(self.order - 1) - self._log[x]]

    def alpha_pow(self, e: int) -> int:
        """alpha^e for any integer exponent (reduced mod 2^two_m - 1)."""
        return self._exp[e % (self.order - 1)]

    def trace(self, x: int) -> int:
        """Trace down to GF(2): sum over i < two_m of x^(2^i)."""
        return self._trace[x]

    def elements(self) -> Iterator[int]:
        return iter(range(self.order))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Field(GF(2^{self.two_m}), modulus=0x{self.modulus:x})"


def build_field(two_m: int) -> Field:
    """Build GF(2^two_m) on the smallest primitive defining polynomial.

    The modulus is the lexicographically smallest (i.e. numerically
    smallest, as a bit-polynomial) primitive polynomial of the requested
    degree, so every downstream artifact is reproducible bit for bit.
    """
    if not 2 <= two_m <= DEFAULT_MAX_DEGREE:
        raise FieldError(
            f"extension degree {two_m} outside supported range "
            f"[2, {DEFAULT_MAX_DEGREE}]")
    lo = 1 << two_m
    for poly in range(lo | 1, lo << 1, 2):  # constant term must be 1
        if _is_irreducible(poly, two_m) and _is_primitive(poly, two_m):
            return Field(two_m, poly)
    raise FieldError(
        f"no primitive polynomial of degree {two_m} found")  # pragma: no cover


# ----------------------------------------------------------------------
# Self-dual basis and coordinates
# ----------------------------------------------------------------------

def find_self_dual_basis(field: Field) -> tuple[int, ...]:
    """Find the lexicographically smallest trace-orthonormal basis.

    Returns beta_1..beta_e with Tr(beta_i * beta_j) = 1 if i == j else 0.
    Depth-first search over strictly increasing element tuples, trying
    candidates in increasing order, so the first complete basis found is
    the lexicographically smallest one (by concatenated bit strings).
    Deterministic; such a basis exists for every GF(2^e) over GF(2).
    """
    e = field.two_m
    # Tr(c*c) = Tr(c), so diagonal candidates are exactly trace-1 elements.
    diag = [c for c in range(1, field.order) if field.trace(c) == 1]
    chosen: list[int] = []

    def extend() -> bool:
        if len(chosen) == e:
            return True
        start = chosen[-1] + 1 if chosen else 0
        for c in diag:
            if c < start:
                continue
            if all(field.trace(field.mul(c, b)) == 0 for b in chosen):
                chosen.append(c)
                if extend():
                    return True
                chosen.pop()
        return False

    if not extend():
        raise FieldError(
            f"self-dual basis search exhausted for GF(2^{e}); this "
            f"should be impossible")  # pragma: no cover
    return tuple(chosen)


def gram_matrix(field: Field, basis: tuple[int, ...]) -> list[list[int]]:
    """Trace Gram matrix Tr(beta_i * beta_j) of a candidate basis."""
    return [[field.trace(field.mul(bi, bj)) for bj in basis] for bi in basis]


def coords(field: Field, basis: tuple[int, ...], x: int) -> tuple[int, ...]:
    """Coordinates of x in a self-dual basis: x_j = Tr(x * beta_j)."""
    return tuple(field.trace(field.mul(x, b)) for b in basis)


def combine(field: Field, basis: tuple[int, ...], bits) -> int:
    """Inverse of :func:`coords`: rebuild sum of bits_j * beta_j."""
    x = 0
    for bit, b in zip(bits, basis):
        if bit:
            x ^= b
    return x
