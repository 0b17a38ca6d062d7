"""Hostile code files: mutated, cut and shortened copies of real ones.

Every run of ``verify``, ``distance`` and ``export`` on such a copy of
the m=1 K=1 file, and of ``verify`` and the sampler on such a copy of
the m=2 K=3 file, must end in a documented exit code with at most one
``stabcat:`` line on stderr, never in another exception.  The example
budgets are pinned so that the suite's run time stays fixed.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stabcat import codefile
from stabcat.cli import EXIT_IO, EXIT_OK, EXIT_VERIFY_FAIL, main
from stabcat.concat import build_code

SEED_FILE = codefile.dumps(codefile.from_code(build_code(1, 1))).encode()
HEADER_END = SEED_FILE.index(b"\nrank_n") + 10  # end of the header
# the m=2 K=3 file: 150-bit rows, rank(N) = 186 (six 32-bit words and a
# partial one per draw), so only the sampler can search it
SEED_FILE_M2 = codefile.dumps(codefile.from_code(build_code(2, 3))).encode()

COMMANDS = (
    (["verify"], {EXIT_OK, EXIT_VERIFY_FAIL, EXIT_IO}),
    (["distance", "--method", "sample", "--trials", "50"],
     {EXIT_OK, EXIT_VERIFY_FAIL, EXIT_IO}),
    # no exit 2: an over-budget rank(N) > 24 needs rows that two edits
    # of this 20-row file cannot add
    (["distance", "--method", "exact"], {EXIT_OK, EXIT_VERIFY_FAIL, EXIT_IO}),
    (["export"], {EXIT_OK, EXIT_IO}),
)

COMMANDS_M2 = (
    (["verify"], {EXIT_OK, EXIT_VERIFY_FAIL, EXIT_IO}),
    (["distance", "--method", "sample", "--trials", "100"],
     {EXIT_OK, EXIT_VERIFY_FAIL, EXIT_IO}),
)

# header bytes are few but decide most parse paths, so they are picked
# as often as row bytes
position = st.one_of(st.integers(0, HEADER_END), st.integers(0, 1 << 12))
position_m2 = st.one_of(st.integers(0, SEED_FILE_M2.index(b"\nrank_n") + 10),
                        st.integers(0, len(SEED_FILE_M2)))
byte = st.one_of(st.sampled_from(b"0123456789-x_ |\n"),
                 st.integers(0, 255))
# values that stress the header's arithmetic: signs, zero, off-by-one
# sizes and numbers far beyond the field's degree cap
header_value = st.one_of(
    st.sampled_from([-1, 0, 1, 2, 3, 9, 4000000000, 1 << 70]),
    st.integers(-(1 << 40), 1 << 40))


def edits_at(position, lines):
    """One edit of a file, at byte positions and line numbers drawn from
    ``position`` and ``lines``."""
    return st.one_of(
        st.tuples(st.just("byte"), position, byte),
        st.tuples(st.just("flip"), position, st.just(0)),
        st.tuples(st.just("header"), st.integers(1, 9), header_value),
        st.tuples(st.just("delete_line"), lines, st.just(0)),
        st.tuples(st.just("truncate"), position, st.just(0)),
    )


edit = edits_at(position, st.integers(0, 50))
edit_m2 = edits_at(position_m2, st.integers(0, 320))


def mutate(data: bytes, edits) -> bytes:
    """Apply the edits in turn; positions wrap around the current size.

    "byte" overwrites one byte, "flip" turns a row's 0 into 1 or back
    (other bytes stay), "header" sets the value of header line 1..9 in
    decimal (hex for the modulus), "delete_line" drops a line and
    "truncate" cuts the file short.
    """
    data = bytearray(data)
    for kind, where, value in edits:
        if kind in ("byte", "flip") and data:
            where %= len(data)
            if kind == "byte":
                data[where] = value
            elif data[where] in b"01":
                data[where] ^= 1
        elif kind in ("header", "delete_line"):
            lines = data.split(b"\n")
            where %= len(lines)
            if kind == "delete_line":
                del lines[where]
            elif b" " in lines[where]:
                key = lines[where].split(b" ", 1)[0]
                text = f"{value:#x}" if key == b"modulus" else str(value)
                lines[where] = key + b" " + text.encode()
            data = bytearray(b"\n".join(lines))
        elif kind == "truncate":
            del data[where % (len(data) + 1):]
    return bytes(data)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.code"


def check_exits(path, commands):
    for command, allowed in commands:
        rc, _out, err = run_cli(command[:1] + [str(path)] + command[1:])
        assert rc in allowed, (command[0], rc, err)
        lines = err.splitlines()
        assert len(lines) <= 1 and all(
            ln.startswith("stabcat: ") for ln in lines), (command[0], err)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.lists(edit, min_size=1, max_size=2))
def test_mutated_file_ends_in_documented_exit(fuzz_path, edits):
    fuzz_path.write_bytes(mutate(SEED_FILE, edits))
    check_exits(fuzz_path, COMMANDS)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.lists(edit_m2, min_size=1, max_size=2))
def test_mutated_m2_file_ends_in_documented_exit(fuzz_path, edits):
    fuzz_path.write_bytes(mutate(SEED_FILE_M2, edits))
    check_exits(fuzz_path, COMMANDS_M2)


def test_unmutated_file_passes(fuzz_path):
    fuzz_path.write_bytes(SEED_FILE)
    assert [run_cli(c[:1] + [str(fuzz_path)] + c[1:])[0]
            for c, _ in COMMANDS] == [EXIT_OK] * len(COMMANDS)


def test_unmutated_m2_file_passes(fuzz_path):
    fuzz_path.write_bytes(SEED_FILE_M2)
    assert [run_cli(c[:1] + [str(fuzz_path)] + c[1:])[0]
            for c, _ in COMMANDS_M2] == [EXIT_OK] * len(COMMANDS_M2)


@st.composite
def code_files(draw):
    """Any CodeFile that ``dumps`` can write: rows fit in 2n bits, the
    modulus and basis are non-negative and the basis is non-empty."""
    n = draw(st.integers(0, 24))
    row = st.integers(0, (1 << (2 * n)) - 1)
    anyint = st.integers(-(1 << 40), 1 << 40)
    return codefile.CodeFile(
        m=draw(anyint), big_n=draw(anyint), big_k=draw(anyint), n=n,
        k=draw(anyint), modulus=draw(st.integers(0, 1 << 40)),
        basis=tuple(draw(st.lists(st.integers(0, 1 << 20), min_size=1,
                                  max_size=6))),
        s_rows=tuple(draw(st.lists(row, max_size=6))),
        n_rows=tuple(draw(st.lists(row, max_size=6))))


@settings(max_examples=200, deadline=None)
@given(code_files())
def test_loads_inverts_dumps(cf):
    assert codefile.loads(codefile.dumps(cf)) == cf
