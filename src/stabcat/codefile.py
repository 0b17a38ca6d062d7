"""Plain-text generator-file format with byte-exact round trips.

A code file carries a header (format version, m, N, K, n, k, field
modulus, self-dual basis) followed by the stabilizer rows and then the
normalizer rows.  Each row line is ``<u-bits>|<v-bits>`` where u and v
are 0/1 strings of length n with bit p at string index p.  Rows are
stored exactly as constructed — canonical RREF — so store(load(path))
reproduces the file byte for byte and any edit is detectable.

Text (not binary) on purpose: fixtures diff cleanly under version
control, and only the field constants are hex.

Both directions stream.  :func:`store` writes the lines of one generator
through one open file, and :func:`load` reads the file in binary, one
line at a time (a ``\\r`` stays part of its line), and parses each row as
it arrives; :func:`dumps` and :func:`loads` run the same generator and
parser on a string.  Neither holds a copy of the whole text: for the
84 MB file of m=4 K=0, ``construct`` peaks at about 26 MB of resident
memory and ``verify`` at about 30 MB, where building, decoding and
splitting the whole text took about 185 MB.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import NamedTuple

from .concat import StabilizerCodeL, closed_forms
from .field import Field

MAGIC = "stabcat-code"
FORMAT_VERSION = 1

_HEADER_KEYS = ("m", "N", "K", "n", "k", "modulus", "basis",
                "rank_s", "rank_n")


class CodeFileError(ValueError):
    """Malformed code file; the message names the offending line."""


class CodeFile(NamedTuple):
    """In-memory image of a stored code file."""

    m: int
    big_n: int
    big_k: int
    n: int
    k: int
    modulus: int
    basis: tuple[int, ...]
    s_rows: tuple[int, ...]
    n_rows: tuple[int, ...]


def _row_to_line(row: int, n: int) -> str:
    if not n:  # format(0, "00b") would write "0" for an empty half
        return "|\n"
    mask = (1 << n) - 1
    return (f"{format(row & mask, f'0{n}b')[::-1]}|"
            f"{format((row >> n) & mask, f'0{n}b')[::-1]}\n")


def _line_to_row(line: bytes, n: int, lineno: int) -> int:
    if len(line) != 2 * n + 1 or line[n:n + 1] != b"|":
        raise CodeFileError(
            f"line {lineno}: expected <u>|<v> with {n}-bit halves, got "
            f"{len(line)} characters")
    # int() would also accept "_", whitespace and signs: only 0/1 pass.
    if line.translate(None, b"01") != b"|":
        bad = (line[:n] + line[n + 1:]).translate(None, b"01")
        raise CodeFileError(f"line {lineno}: invalid bit {chr(bad[0])!r}")
    if not n:
        return 0
    # u is line[n-1], ..., line[0] and v is line[2n], ..., line[n+1]
    return int(line[n - 1::-1], 2) | (int(line[:n:-1], 2) << n)


def from_code(code: StabilizerCodeL) -> CodeFile:
    return CodeFile(
        m=code.m, big_n=code.big_n, big_k=code.big_k, n=code.n, k=code.k,
        modulus=code.field.modulus, basis=tuple(code.basis),
        s_rows=tuple(code.s_matrix), n_rows=tuple(code.n_matrix))


def to_code(cf: CodeFile) -> StabilizerCodeL:
    """Rebuild a code object (field, basis, matrices) from a file image."""
    return StabilizerCodeL(
        m=cf.m, big_n=cf.big_n, big_k=cf.big_k, n=cf.n, k=cf.k,
        s_matrix=tuple(cf.s_rows), n_matrix=tuple(cf.n_rows),
        field=Field(2 * cf.m, cf.modulus), basis=tuple(cf.basis))


def row_lines(m: int) -> tuple[int, int]:
    """(count, bytes) of the code's row lines at m, for any K: 2n rows of
    2n + 2 bytes, n from :func:`~stabcat.concat.closed_forms`."""
    n = closed_forms(m, (1 << 2 * m) - 1, 0)[0]
    return 2 * n, 2 * n + 2


def _lines(cf: CodeFile) -> Iterator[str]:
    """The lines of the file in order, each with its newline."""
    yield f"{MAGIC} {FORMAT_VERSION}\n"
    yield f"m {cf.m}\n"
    yield f"N {cf.big_n}\n"
    yield f"K {cf.big_k}\n"
    yield f"n {cf.n}\n"
    yield f"k {cf.k}\n"
    yield f"modulus 0x{cf.modulus:x}\n"
    yield "basis " + ",".join(f"0x{b:x}" for b in cf.basis) + "\n"
    yield f"rank_s {len(cf.s_rows)}\n"
    yield f"rank_n {len(cf.n_rows)}\n"
    for row in chain(cf.s_rows, cf.n_rows):
        yield _row_to_line(row, cf.n)


def _header(lines: list[str]) -> tuple:
    """The header values (m, N, K, n, k, modulus, basis, rank_s, rank_n)
    from the first lines of a file, without their newlines."""
    head = lines[0].split()
    if len(head) != 2 or head[0] != MAGIC:
        raise CodeFileError(f"line 1: expected '{MAGIC} <version>' header")
    if head[1] != str(FORMAT_VERSION):
        raise CodeFileError(
            f"line 1: unsupported format version {head[1]!r}")

    fields: dict = {}
    for off, key in enumerate(_HEADER_KEYS, start=1):
        if off >= len(lines):
            raise CodeFileError(f"line {off + 1}: missing header key {key}")
        parts = lines[off].split(None, 1)
        if len(parts) != 2 or parts[0] != key:
            raise CodeFileError(
                f"line {off + 1}: expected '{key} <value>', got "
                f"{lines[off]!r}")
        fields[key] = parts[1]

    def intval(key: str, base: int = 10) -> int:
        try:
            return int(fields[key], base)
        except ValueError as exc:
            raise CodeFileError(
                f"header key {key}: invalid integer {fields[key]!r}") \
                from exc

    m = intval("m")
    big_n = intval("N")
    big_k = intval("K")
    n = intval("n")
    k = intval("k")
    modulus = intval("modulus", 16)
    try:
        basis = tuple(int(tok, 16) for tok in fields["basis"].split(","))
    except ValueError as exc:
        raise CodeFileError(
            f"header key basis: invalid element list "
            f"{fields['basis']!r}") from exc
    return (m, big_n, big_k, n, k, modulus, basis,
            intval("rank_s"), intval("rank_n"))


def _parse(lines: Iterable[bytes]) -> CodeFile:
    """Parse a file from its lines, each ending in b"\\n" but maybe the last.

    Each row is parsed as its line arrives.  The errors come in the
    order of a parse of the whole text: a non-ASCII byte anywhere, then
    the header, then the row count, then the rows in file order; so a
    row error is held until every line has been checked and counted.
    """
    first_row = len(_HEADER_KEYS) + 1
    head: list[str] = []
    header = None
    rows: list[int] = []
    error = None  # the first malformed row
    count = 0
    for count, line in enumerate(lines, start=1):
        if not line.isascii():
            byte = next(b for b in line if b > 0x7F)
            raise CodeFileError(f"line {count}: non-ASCII byte 0x{byte:02x}")
        if line.endswith(b"\n"):
            line = line[:-1]
        if len(head) < first_row:
            head.append(line.decode("ascii"))
            if len(head) == first_row:
                try:
                    header = _header(head)
                    # n, and rank_s + rank_n rows to parse
                    n, expected = header[3], header[7] + header[8]
                except CodeFileError:
                    pass  # raised again below, after the scan
        elif header is not None and error is None and len(rows) < expected:
            try:
                rows.append(_line_to_row(line, n, count))
            except CodeFileError as exc:
                error = exc
    if not count:
        raise CodeFileError("line 1: empty file")
    if header is None:
        _header(head)  # raises: the header is malformed or cut short
    m, big_n, big_k, n, k, modulus, basis, rank_s, rank_n = header
    if count != first_row + rank_s + rank_n:
        raise CodeFileError(
            f"line {count + 1}: expected {rank_s} + {rank_n} row "
            f"lines after the header ({first_row + rank_s + rank_n} lines "
            f"total), found {count}")
    for key, rank in (("rank_s", rank_s), ("rank_n", rank_n)):
        if rank < 0:
            raise CodeFileError(f"header key {key}: negative row count "
                                f"{rank}")
    if error is not None:
        raise error
    return CodeFile(m=m, big_n=big_n, big_k=big_k, n=n, k=k,
                    modulus=modulus, basis=basis,
                    s_rows=tuple(rows[:rank_s]), n_rows=tuple(rows[rank_s:]))


def dumps(cf: CodeFile) -> str:
    return "".join(_lines(cf))


def loads(text: str) -> CodeFile:
    return _parse(io.BytesIO(text.encode()))


def store(cf: CodeFile, path) -> None:
    """Write the file line by line; the whole text is never built."""
    with open(path, "w", encoding="ascii", newline="\n") as out:
        out.writelines(_lines(cf))


def load(path) -> CodeFile:
    """Read the file in binary, one line at a time (no newline
    translation: a ``\\r`` stays part of its line)."""
    try:
        with open(path, "rb") as src:
            return _parse(src)
    except OSError as exc:
        raise CodeFileError(f"cannot read {path}: {exc}") from exc
