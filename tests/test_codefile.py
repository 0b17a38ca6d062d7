"""The streaming code-file reader against the bulk reader it replaced.

``bulk_load`` is the reader as it was before the file was streamed: it
decodes the whole file, splits the text into lines and only then looks
at the header, the row count and the rows.  For any file, the streaming
``codefile.load`` must return an equal ``CodeFile`` or raise
``CodeFileError`` with the same message.  ``bulk_load`` differs from
that reader in two places, both on purpose:

- it decodes the bytes without newline translation.  The old reader's
  ``read_text`` turned ``\\r\\n`` and a lone ``\\r`` into ``\\n``, so a
  CRLF file loaded and ``store`` then wrote a different file;
- a negative row count whose total still matches the file is an error.
  The old reader indexed such rows from the end of the file and could
  raise ``IndexError``.
"""

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stabcat import codefile
from stabcat.codefile import CodeFileError
from stabcat.concat import build_code
from test_fuzz import SEED_FILE, SEED_FILE_M2, edit, edit_m2, mutate


def _bulk_line_to_row(line: str, n: int, lineno: int) -> int:
    if len(line) != 2 * n + 1 or line[n] != "|":
        raise CodeFileError(
            f"line {lineno}: expected <u>|<v> with {n}-bit halves, got "
            f"{len(line)} characters")
    u_text, v_text = line[:n], line[n + 1:]
    bad = (u_text + v_text).translate(str.maketrans("", "", "01"))
    if bad:
        raise CodeFileError(f"line {lineno}: invalid bit {bad[0]!r}")
    return int(u_text[::-1] or "0", 2) | (int(v_text[::-1] or "0", 2) << n)


def bulk_load(path) -> codefile.CodeFile:
    data = path.read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CodeFileError(
            f"line {lineno}: non-ASCII byte 0x{data[exc.start]:02x}") \
            from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CodeFileError("line 1: empty file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != codefile.MAGIC:
        raise CodeFileError(
            f"line 1: expected '{codefile.MAGIC} <version>' header")
    if head[1] != str(codefile.FORMAT_VERSION):
        raise CodeFileError(
            f"line 1: unsupported format version {head[1]!r}")

    fields: dict = {}
    for off, key in enumerate(codefile._HEADER_KEYS, start=1):
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
        except ValueError:
            raise CodeFileError(
                f"header key {key}: invalid integer {fields[key]!r}") \
                from None

    m = intval("m")
    big_n = intval("N")
    big_k = intval("K")
    n = intval("n")
    k = intval("k")
    modulus = intval("modulus", 16)
    try:
        basis = tuple(int(tok, 16) for tok in fields["basis"].split(","))
    except ValueError:
        raise CodeFileError(
            f"header key basis: invalid element list "
            f"{fields['basis']!r}") from None
    rank_s = intval("rank_s")
    rank_n = intval("rank_n")

    first_row = len(codefile._HEADER_KEYS) + 1
    expected = first_row + rank_s + rank_n
    if len(lines) != expected:
        raise CodeFileError(
            f"line {len(lines) + 1}: expected {rank_s} + {rank_n} row "
            f"lines after the header ({expected} lines total), found "
            f"{len(lines)}")
    for key, rank in (("rank_s", rank_s), ("rank_n", rank_n)):
        if rank < 0:
            raise CodeFileError(f"header key {key}: negative row count "
                                f"{rank}")
    rows = [_bulk_line_to_row(line, n, first_row + i + 1)
            for i, line in enumerate(lines[first_row:])]
    return codefile.CodeFile(m=m, big_n=big_n, big_k=big_k, n=n, k=k,
                             modulus=modulus, basis=basis,
                             s_rows=tuple(rows[:rank_s]),
                             n_rows=tuple(rows[rank_s:]))


def outcome(load, path):
    try:
        return load(path)
    except CodeFileError as exc:
        return f"CodeFileError: {exc}"


@pytest.fixture(scope="module")
def code_path(tmp_path_factory):
    return tmp_path_factory.mktemp("codefile") / "edited.code"


def assert_same(path, data: bytes):
    path.write_bytes(data)
    assert outcome(codefile.load, path) == outcome(bulk_load, path)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.lists(edit, min_size=1, max_size=2))
def test_mutated_m1_file_loads_as_bulk(code_path, edits):
    assert_same(code_path, mutate(SEED_FILE, edits))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.lists(edit_m2, min_size=1, max_size=2))
def test_mutated_m2_file_loads_as_bulk(code_path, edits):
    assert_same(code_path, mutate(SEED_FILE_M2, edits))


def replace_line(data: bytes, index: int, line: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[index] = line
    return b"\n".join(lines)


# line 11 is the first stabilizer row; the m=1 K=1 rows are 37 bytes
BAD_BIT_ROW = replace_line(SEED_FILE, 10,
                           b"2" + SEED_FILE.split(b"\n")[10][1:])

MULTI_FAULT = {
    "bad header, later non-ASCII byte": (
        replace_line(SEED_FILE, 0, b"stabcat-code 9")[:-5] + b"\xe9\n",
        "line 46: non-ASCII byte 0xe9"),
    "invalid bit in row 1, missing row": (
        BAD_BIT_ROW[:BAD_BIT_ROW.rindex(b"\n", 0, -1) + 1],
        "line 46: expected 16 + 20 row lines after the header (46 lines "
        "total), found 45"),
    "CRLF line endings": (
        SEED_FILE.replace(b"\n", b"\r\n"),
        "line 11: expected <u>|<v> with 18-bit halves, got 38 characters"),
    "no final newline": (SEED_FILE[:-1], None),
    "extra blank last line": (
        SEED_FILE + b"\n",
        "line 48: expected 16 + 20 row lines after the header (46 lines "
        "total), found 47"),
    "empty file": (b"", "line 1: empty file"),
    "invalid bit in row 1": (BAD_BIT_ROW, "line 11: invalid bit '2'"),
    "negative rank_s, total kept": (
        replace_line(replace_line(SEED_FILE, 8, b"rank_s -1"), 9,
                     b"rank_n 37"),
        "header key rank_s: negative row count -1"),
    "negative rank_n, total kept": (
        replace_line(replace_line(SEED_FILE, 8, b"rank_s 37"), 9,
                     b"rank_n -1"),
        "header key rank_n: negative row count -1"),
}


@pytest.mark.parametrize("case", MULTI_FAULT)
def test_multi_fault_file(code_path, case):
    data, message = MULTI_FAULT[case]
    assert_same(code_path, data)
    if message is None:
        assert codefile.load(code_path) == codefile.loads(SEED_FILE.decode())
    else:
        with pytest.raises(CodeFileError) as exc:
            codefile.load(code_path)
        assert str(exc.value) == message


def test_store_and_load_memory_below_half_the_file(tmp_path):
    """Neither direction holds a copy of the text (m=3 K=10, 3.1 MB)."""
    cf = codefile.from_code(build_code(3, 10))
    path = tmp_path / "m3k10.code"
    tracemalloc.start()
    try:
        codefile.store(cf, path)
        stored = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = codefile.load(path)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 3_000_000
    assert loaded == cf
    assert stored < size / 2
    assert read < size / 2
