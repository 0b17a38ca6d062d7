"""Gray-code scan kernel for the minimum-distance search.

Enumerate the combination indices [start, stop) of the generator list,
maintaining the running codeword by flipping one generator per step
(reflected Gray code), and track the minimum symplectic weight over
codewords outside the stabilizer span.  Works on arbitrary-width Python
ints, so rows of any width are accepted.
"""

from __future__ import annotations

from .symplectic import xor_rows


def gray_scan(gens, n: int, s_rows, start: int, stop: int):
    """Scan combination indices [start, stop); returns (w, idx, word).

    ``gens`` are packed 2n-bit generator rows; ``s_rows`` is the RREF of
    the span to exclude (each row reduced by its lowest set bit).  The
    zero combination (index 0) is never a candidate.  Returns the best
    (weight, index, codeword) with ties broken by the smallest index, or
    (-1, -1, 0) if no candidate outside the excluded span was seen.
    """
    mask = (1 << n) - 1
    piv = [((r & -r).bit_length() - 1, r) for r in s_rows]

    best_w = -1
    best_idx = -1
    best_x = 0

    x = xor_rows(gens, start ^ (start >> 1))

    idx = start
    while idx < stop:
        if idx != start:
            x ^= gens[(idx & -idx).bit_length() - 1]
        if idx != 0:
            w = ((x | (x >> n)) & mask).bit_count()
            if best_w < 0 or w < best_w:
                y = x
                for p, r in piv:
                    if (y >> p) & 1:
                        y ^= r
                if y:
                    best_w = w
                    best_idx = idx
                    best_x = x
        idx += 1
    return best_w, best_idx, best_x
