"""Reed-Solomon code pair over GF(2^e) and its CSS generator sets.

Codes live at full length N = 2^e - 1, evaluated at all nonzero points
alpha^0 .. alpha^(N-1).  The pair is

    R      = evaluations of the monomial span x^1 .. x^K      [N, K, N-K+1]
    Rperp  = evaluations of polynomials of degree < N - K     [N, N-K, K+1]

Everything about the pair follows from one identity on the monomial
evaluations ev(x^a) = (alpha^(0*a), ..., alpha^((N-1)*a)).  Because N
is odd,

    <ev(x^a), ev(x^b)> = sum_i alpha^(i(a+b)) = [a + b = 0 mod N],

so ev(x^0) .. ev(x^(N-1)) are a basis of GF(2^e)^N, the coefficient of
ev(x^j) in any vector v is the inverse transform c_j = <v, ev(x^-j)>
(the Mattson-Solomon view, MacWilliams & Sloane 1977, ch. 8), and a
monomial code is its exponent set.  Rperp is the exact dual of R, since
exponents a in [1, K], b in [0, N-K-1] never sum to 0 or N, and R lies
in Rperp whenever K <= floor(N/2), since then [1, K] is inside
[0, N-K-1].  A plain degree-< K span would contain ev(1), which pairs
with itself to N mod 2 = 1, so it is not even self-orthogonal; the
shifted exponent window is what makes the CSS construction work.
Duality and nesting are checked on the exponent sets, and membership
(:func:`rs_contains`) reads the coefficients off the inverse transform;
no field elimination is needed.

Both codes are MDS, so the first ``dim`` positions are an information
set, and each code also carries its systematic generator in closed
form (:func:`systematic_rows`, Lagrange interpolation on those
positions, MacWilliams & Sloane 1977, ch. 10-11): row j is the unit
vector e_j on the information set plus a tail on the other N - dim
positions, stored sparsely.  At K = 0 Rperp is the whole space and its
rows have no tail at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .field import Field


class RsError(ValueError):
    """Invalid Reed-Solomon construction or argument."""


@dataclass(frozen=True)
class RsCode:
    """An evaluation code over ``field`` at all N nonzero points.

    Attributes:
        field: the symbol field.
        length: code length N = field.order - 1.
        dim: dimension (number of generator rows).
        exponents: monomial exponents whose evaluations span the code.
        generator: dim x length matrix; row r is ev(x^exponents[r]).
        eval_points: (alpha^0, ..., alpha^(N-1)).
        systematic: the same row space in systematic form, one position
            -> symbol map per row (see :func:`systematic_rows`).
    """

    field: Field
    length: int
    dim: int
    exponents: tuple[int, ...]
    generator: tuple[tuple[int, ...], ...]
    eval_points: tuple[int, ...]
    systematic: tuple[dict[int, int], ...] = dc_field(compare=False,
                                                      repr=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RsCode([{self.length}, {self.dim}] over "
                f"GF(2^{self.field.two_m}))")


def _evaluate_monomial(field: Field, exp: int, n: int) -> tuple[int, ...]:
    """(alpha^(0*exp), alpha^(1*exp), ..., alpha^((n-1)*exp))."""
    return tuple(field.alpha_pow(i * exp) for i in range(n))


def systematic_rows(field: Field, exponents: tuple[int, ...]) \
        -> tuple[dict[int, int], ...]:
    """Systematic generator of the code spanned by ev(x^e) over ``exponents``.

    The exponents must be a window e0 .. e0+dim-1, so the code is
    {ev(x^e0 f) : deg f < dim}.  With x_l = alpha^l,
    P = prod_{l<dim} (x + x_l) and the Lagrange basis
    L_j = P / ((x + x_j) P'(x_j)), row j is ev(x^e0 x_j^-e0 L_j): 1 at
    position j, 0 at the other information positions l < dim, and at a
    tail position t

        alpha^((t-j)*e0) * P(x_t) / ((x_t + x_j) * P'(x_j)).

    Every tail entry is nonzero (P has no root outside the information
    set).  Returns one {position: symbol} map per row, holding the
    nonzero entries only; O(dim * (N - dim) + dim^2) field operations,
    and none of the dim^2 when the tail is empty.
    """
    n = field.order - 1
    dim = len(exponents)
    if dim == 0:
        return ()
    e0 = exponents[0]
    if exponents != tuple(range(e0, e0 + dim)):
        raise RsError(f"exponents {exponents} are not one window")
    if dim == n:
        return tuple({j: 1} for j in range(dim))
    mul = field.mul
    x = [field.alpha_pow(i) for i in range(n)]
    p_tail = []  # P(x_t) for t >= dim
    for t in range(dim, n):
        acc = 1
        for l in range(dim):
            acc = mul(acc, x[t] ^ x[l])
        p_tail.append(acc)
    rows = []
    for j in range(dim):
        dp = 1  # P'(x_j) = prod_{l != j} (x_j + x_l) in characteristic 2
        for l in range(dim):
            if l != j:
                dp = mul(dp, x[j] ^ x[l])
        inv_dp = field.inverse(dp)
        row = {j: 1}
        for t, pt in zip(range(dim, n), p_tail):
            row[t] = mul(mul(field.alpha_pow((t - j) * e0), pt),
                         mul(inv_dp, field.inverse(x[t] ^ x[j])))
        rows.append(row)
    return tuple(rows)


def _make_code(field: Field, exponents: tuple[int, ...]) -> RsCode:
    n = field.order - 1
    return RsCode(
        field=field,
        length=n,
        dim=len(exponents),
        exponents=exponents,
        generator=tuple(_evaluate_monomial(field, e, n) for e in exponents),
        eval_points=tuple(field.alpha_pow(i) for i in range(n)),
        systematic=systematic_rows(field, exponents),
    )


def dot(field: Field, u, v) -> int:
    """Standard inner product sum_i u_i * v_i in the field."""
    acc = 0
    for a, b in zip(u, v):
        acc ^= field.mul(a, b)
    return acc


def build_rs_pair(field: Field, k: int) -> tuple[RsCode, RsCode]:
    """Build the nested dual pair (R, Rperp) for dimension k.

    Duality is verified on the exponents: <R row i, Rperp row j> is 1
    when a_i + b_j = 0 mod N and 0 otherwise, so the pair is dual iff
    no exponent b of Rperp is -a mod N for an exponent a of R.  A
    failure would mean the construction itself is wrong.  Nesting is
    checked by :func:`css_generators`.
    """
    n = field.order - 1
    if k < 0:
        raise RsError(f"dimension K={k} is negative")
    if k > n // 2:
        raise RsError(
            f"K={k} exceeds floor(N/2)={n // 2}; containment in the dual "
            f"would fail")
    code = _make_code(field, tuple(range(1, k + 1)))
    dual = _make_code(field, tuple(range(0, n - k)))
    dual_row = {b: j for j, b in enumerate(dual.exponents)}
    for i, a in enumerate(code.exponents):
        j = dual_row.get(-a % n)  # the one b with (a + b) % n == 0
        if j is not None:
            raise RsError(
                f"duality violated: <R row {i}, Rperp row {j}> = "
                f"0x1")  # pragma: no cover
    return code, dual


def rs_encode(code: RsCode, msg) -> tuple[int, ...]:
    """msg . generator (msg has one symbol per generator row)."""
    if len(msg) != code.dim:
        raise RsError(
            f"message length {len(msg)} != code dimension {code.dim}")
    f = code.field
    out = [0] * code.length
    for m_sym, row in zip(msg, code.generator):
        if m_sym == 0:
            continue
        for i, r_sym in enumerate(row):
            out[i] ^= f.mul(m_sym, r_sym)
    return tuple(out)


def rs_contains(code: RsCode, v) -> bool:
    """True iff v lies in the row space of the generator.

    v = sum_j c_j ev(x^j) over j < N, with c_j = <v, ev(x^-j)> (the
    inverse transform, see the module docstring); v is a codeword iff
    c_j = 0 for every j outside ``code.exponents``.
    """
    if len(v) != code.length:
        raise RsError(f"vector length {len(v)} != code length {code.length}")
    f = code.field
    n = code.length
    inside = set(code.exponents)
    return all(dot(f, v, _evaluate_monomial(f, -j, n)) == 0
               for j in range(n) if j not in inside)


def min_weight_exhaustive(code: RsCode) -> int:
    """Minimum Hamming weight by scanning every nonzero codeword.

    Only feasible when order^dim is small; used as the distance oracle
    for desk-scale instances.
    """
    if code.dim == 0:
        raise RsError("zero code has no nonzero codeword")
    if code.field.order ** code.dim > 1 << 20:
        raise RsError("codebook too large for exhaustive weight scan")
    f = code.field
    best = code.length + 1
    msg = [0] * code.dim
    # Odometer over all messages.
    total = f.order ** code.dim
    for idx in range(1, total):
        x = idx
        for p in range(code.dim):
            msg[p] = x % f.order
            x //= f.order
        w = sum(1 for sym in rs_encode(code, msg) if sym)
        if w < best:
            best = w
    return best


# ----------------------------------------------------------------------
# CSS generator sets S = R x R, N = Rperp x Rperp
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CssPair:
    """Length-2N generator vectors (left | right) of the CSS pair.

    ``s_gens`` holds 2*dim(R) vectors (r|0), (0|r) over R's generator
    rows; ``n_gens`` the analogous 2*dim(Rperp) vectors over Rperp.
    """

    s_gens: tuple[tuple[int, ...], ...]
    n_gens: tuple[tuple[int, ...], ...]


def symplectic_field_product(field: Field, a, b) -> int:
    """sum_i (aL_i * bR_i + aR_i * bL_i) for length-2N field vectors."""
    n = len(a) // 2
    acc = 0
    for i in range(n):
        acc ^= field.mul(a[i], b[n + i])
        acc ^= field.mul(a[n + i], b[i])
    return acc


def css_generators(code: RsCode, dual: RsCode) -> CssPair:
    """Assemble the CSS stabilizer/normalizer generators from (R, Rperp).

    R must lie in Rperp.  Distinct monomial evaluations are linearly
    independent, so that holds iff every exponent of R is one of Rperp.
    """
    inside = set(dual.exponents)
    for i, (a, r) in enumerate(zip(code.exponents, code.generator)):
        if a not in inside:
            raise RsError(
                f"R row {i} = {tuple(hex(v) for v in r)} is not in Rperp; "
                f"the pair is not nested")
    zero = (0,) * code.length
    s_gens = tuple((*r, *zero) for r in code.generator) + \
        tuple((*zero, *r) for r in code.generator)
    n_gens = tuple((*r, *zero) for r in dual.generator) + \
        tuple((*zero, *r) for r in dual.generator)
    return CssPair(s_gens=s_gens, n_gens=n_gens)
