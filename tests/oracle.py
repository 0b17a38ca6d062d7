"""Reference helpers that the tests check the program against.

None of these runs in a command, so they live here rather than in
``src``: every command child compiles what ``src`` holds.  Each is the
plain, slow form of something the program computes another way.
"""

import math

from stabcat._distpure import selector_bytes
from stabcat.bounds import BoundsError, entropy4_inv
from stabcat.concat import ExpansionInput
from stabcat.field import Field, FieldError
from stabcat.rs import RsCode, RsError, rs_encode
from stabcat.symplectic import transpose_planes


def power(f: Field, x: int, e: int) -> int:
    """x^e in ``f``; negative exponents allowed for x != 0."""
    if x == 0:
        if e < 0:
            raise FieldError("zero has no multiplicative inverse")
        return 1 if e == 0 else 0
    return f.alpha_pow(f._log[x] * e)


def min_weight_exhaustive(code: RsCode) -> int:
    """Minimum Hamming weight by scanning every nonzero codeword.

    Only feasible when order^dim is small; the distance oracle for
    desk-scale instances.
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


def symplectic_field_product(field: Field, a, b) -> int:
    """sum_i (aL_i * bR_i + aR_i * bL_i) for length-2N field vectors."""
    n = len(a) // 2
    acc = 0
    for i in range(n):
        acc ^= field.mul(a[i], b[n + i])
        acc ^= field.mul(a[n + i], b[i])
    return acc


def zero_input(m: int, n_blocks: int) -> ExpansionInput:
    """The all-zero expansion input of ``n_blocks`` blocks at m."""
    zrow = (0,) * (m + 1)
    return ExpansionInput(
        a=(0,) * (2 * n_blocks),
        s=(zrow,) * n_blocks,
        t=(zrow,) * n_blocks,
    )


def lane_vectors(buf: bytes, r: int) -> list[int]:
    """One int per row: bit t of entry i is trial t's selector bit i,
    from one ``_distpure.draw`` buffer (``selector_bytes``): the one-shot
    form of the lanes that ``_distpure.batches`` streams."""
    size, offsets, unused = selector_bytes(r)
    lanes = transpose_planes((buf[o::size] for o in offsets),
                             len(buf) // max(size, 1))
    del lanes[unused]
    return lanes


def asymptotic_lambda(delta: float, tuple_len: int) -> float:
    """The large-L threshold choice lam = Hinv(delta - 1/log4(L)).

    Only meaningful once delta exceeds 1/log4(L); rejects arguments
    where the corrected entropy argument is negative.
    """
    if tuple_len < 2:
        raise BoundsError("tuple length must be >= 2")
    corrected = delta - 1.0 / (math.log2(tuple_len) / 2.0)
    if corrected < 0.0:
        raise BoundsError(
            f"delta={delta} is below the 1/log4(L) correction at "
            f"L={tuple_len}; no valid threshold")
    return entropy4_inv(corrected)
