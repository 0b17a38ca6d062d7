"""Plain-text generator-file format with byte-exact round trips.

A code file carries a header (format version, m, N, K, n, k, field
modulus, self-dual basis) followed by the stabilizer rows and then the
normalizer rows.  Each row line is ``<u-bits>|<v-bits>`` where u and v
are 0/1 strings of length n with bit p at string index p.  Rows are
stored exactly as constructed — canonical RREF — so store(load(path))
reproduces the file byte for byte and any edit is detectable.

Text (not binary) on purpose: fixtures diff cleanly under version
control, and only the field constants are hex.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .concat import StabilizerCodeL
from .field import Field

MAGIC = "stabcat-code"
FORMAT_VERSION = 1

_HEADER_KEYS = ("m", "N", "K", "n", "k", "modulus", "basis",
                "rank_s", "rank_n")


class CodeFileError(ValueError):
    """Malformed code file; the message names the offending line."""


@dataclass(frozen=True)
class CodeFile:
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


_DROP_BITS = str.maketrans("", "", "01")


def _row_to_line(row: int, n: int) -> str:
    if not n:  # format(0, "00b") would write "0" for an empty half
        return "|"
    mask = (1 << n) - 1
    return (f"{format(row & mask, f'0{n}b')[::-1]}|"
            f"{format((row >> n) & mask, f'0{n}b')[::-1]}")


def _line_to_row(line: str, n: int, lineno: int) -> int:
    if len(line) != 2 * n + 1 or line[n] != "|":
        raise CodeFileError(
            f"line {lineno}: expected <u>|<v> with {n}-bit halves, got "
            f"{len(line)} characters")
    u_text, v_text = line[:n], line[n + 1:]
    # int() would also accept "_", whitespace and signs: only 0/1 pass.
    bad = (u_text + v_text).translate(_DROP_BITS)
    if bad:
        raise CodeFileError(f"line {lineno}: invalid bit {bad[0]!r}")
    return int(u_text[::-1] or "0", 2) | (int(v_text[::-1] or "0", 2) << n)


def from_code(code: StabilizerCodeL) -> CodeFile:
    return CodeFile(
        m=code.m, big_n=code.big_n, big_k=code.big_k, n=code.n, k=code.k,
        modulus=code.field.modulus, basis=tuple(code.basis),
        s_rows=tuple(code.s_matrix), n_rows=tuple(code.n_matrix))


def to_code(cf: CodeFile, field: Field | None = None) -> StabilizerCodeL:
    """Rebuild a code object (field, basis, matrices) from a file image.

    ``field`` is the file's field when the caller has already built it
    (``Field(2 * cf.m, cf.modulus)``); otherwise it is built here.
    """
    if field is None:
        field = Field(2 * cf.m, cf.modulus)
    return StabilizerCodeL(
        m=cf.m, big_n=cf.big_n, big_k=cf.big_k, n=cf.n, k=cf.k,
        s_matrix=tuple(cf.s_rows), n_matrix=tuple(cf.n_rows),
        field=field, basis=tuple(cf.basis))


def dumps(cf: CodeFile) -> str:
    lines = [
        f"{MAGIC} {FORMAT_VERSION}",
        f"m {cf.m}",
        f"N {cf.big_n}",
        f"K {cf.big_k}",
        f"n {cf.n}",
        f"k {cf.k}",
        f"modulus 0x{cf.modulus:x}",
        "basis " + ",".join(f"0x{b:x}" for b in cf.basis),
        f"rank_s {len(cf.s_rows)}",
        f"rank_n {len(cf.n_rows)}",
    ]
    lines.extend(_row_to_line(r, cf.n) for r in cf.s_rows)
    lines.extend(_row_to_line(r, cf.n) for r in cf.n_rows)
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


def loads(text: str) -> CodeFile:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CodeFileError("line 1: empty file")
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
    rank_s = intval("rank_s")
    rank_n = intval("rank_n")

    first_row = len(_HEADER_KEYS) + 1
    expected = first_row + rank_s + rank_n
    if len(lines) != expected:
        raise CodeFileError(
            f"line {len(lines) + 1}: expected {rank_s} + {rank_n} row "
            f"lines after the header ({expected} lines total), found "
            f"{len(lines)}")
    s_rows = tuple(
        _line_to_row(lines[first_row + i], n, first_row + i + 1)
        for i in range(rank_s))
    n_rows = tuple(
        _line_to_row(lines[first_row + rank_s + i], n,
                     first_row + rank_s + i + 1)
        for i in range(rank_n))
    return CodeFile(m=m, big_n=big_n, big_k=big_k, n=n, k=k,
                    modulus=modulus, basis=basis, s_rows=s_rows,
                    n_rows=n_rows)


def store(cf: CodeFile, path) -> None:
    Path(path).write_text(dumps(cf), encoding="ascii")


def load(path) -> CodeFile:
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise CodeFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # exc.object: the bytes read
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise CodeFileError(
            f"line {lineno}: non-ASCII byte 0x{exc.object[exc.start]:02x}") \
            from None
    return loads(text)
