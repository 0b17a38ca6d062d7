"""CLI command tests driven through main() with captured output."""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from stabcat import cli, codefile
from stabcat.bounds import BoundsError, curve_csv_rows, delta_curve
from stabcat import field as field_mod
from stabcat.concat import build_code
from stabcat.cli import (EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL,
                         main, pauli_string)
from stabcat.field import _is_irreducible, _is_primitive
from stabcat.symplectic import lowest_bit, symplectic_weight_packed

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


@pytest.fixture(scope="module")
def m1k1_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "m1k1.code"
    assert main(["construct", "--m", "1", "--K", "1",
                 "--out", str(path)]) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def m9_header_path(m1k1_path, tmp_path_factory):
    """The m1k1 file with a header claiming m=9 and a primitive modulus
    of degree 18, which passes every field check but the degree cap."""
    lo = 1 << 18
    modulus = next(p for p in range(lo | 1, lo << 1, 2)
                   if _is_irreducible(p, 18) and _is_primitive(p, 18))
    lines = m1k1_path.read_text().split("\n")
    assert lines[1] == "m 1" and lines[6] == "modulus 0x7"
    lines[1] = "m 9"
    lines[6] = f"modulus 0x{modulus:x}"
    path = tmp_path_factory.mktemp("codes") / "m9.code"
    path.write_text("\n".join(lines))
    return path


@pytest.fixture(scope="module")
def m2k3_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "m2k3.code"
    assert main(["construct", "--m", "2", "--K", "3",
                 "--out", str(path)]) == EXIT_OK
    return path


class TestConstruct:
    def test_summary_line(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        rc = main(["construct", "--m", "1", "--K", "1", "--out", str(out)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "[[18,2]] 16 20"

    def test_m2_summary(self, m2k3_path, capsys):
        cf = codefile.load(m2k3_path)
        assert (cf.n, cf.k) == (150, 36)
        assert len(cf.s_rows) == 114 and len(cf.n_rows) == 186

    def test_k_out_of_range(self, tmp_path, capsys):
        rc = main(["construct", "--m", "1", "--K", "2",
                   "--out", str(tmp_path / "x.code")])
        assert rc == EXIT_USAGE
        assert "floor(N/2)" in capsys.readouterr().err

    def test_unwritable_path(self, capsys):
        rc = main(["construct", "--m", "1", "--K", "0",
                   "--out", "/nonexistent-dir/output.code"])
        assert rc == EXIT_IO

    def test_deterministic_output(self, tmp_path, m1k1_path):
        other = tmp_path / "again.code"
        main(["construct", "--m", "1", "--K", "1", "--out", str(other)])
        assert other.read_bytes() == m1k1_path.read_bytes()


def flip_first_row_bit(path, tmp_path):
    """A copy of the code file with bit 3 of its first stabilizer row
    flipped."""
    lines = path.read_text().split("\n")
    row = list(lines[10])  # first stabilizer row line
    row[3] = "1" if row[3] == "0" else "0"
    lines[10] = "".join(row)
    mutated = tmp_path / "mutated.code"
    mutated.write_text("\n".join(lines))
    return mutated


#: ``verify --json`` on the m=1 K=1 file
M1K1_JSON = """\
{
  "checks": {
    "header": true,
    "field": true,
    "basis": true,
    "rows_canonical": true,
    "ranks": true,
    "orthogonality": true,
    "dims_complementary": true,
    "containment": true,
    "block_injectivity": true
  },
  "details": {},
  "passed": true,
  "m": 1,
  "N": 3,
  "K": 1,
  "n": 18,
  "k": 2,
  "rank_s": 16,
  "rank_n": 20
}
"""

#: ``verify --json`` on its copy from :func:`flip_first_row_bit`
FLIPPED_JSON = """\
{
  "checks": {
    "header": true,
    "field": true,
    "basis": true,
    "rows_canonical": false,
    "ranks": true,
    "orthogonality": false,
    "dims_complementary": true,
    "containment": false,
    "block_injectivity": true
  },
  "details": {
    "duality_failures": [
      [
        "orthogonality",
        0,
        4
      ],
      [
        "orthogonality",
        0,
        5
      ],
      [
        "containment",
        0,
        null
      ]
    ]
  },
  "passed": false,
  "m": 1,
  "N": 3,
  "K": 1,
  "n": 18,
  "k": 2,
  "rank_s": 16,
  "rank_n": 20
}
"""


class TestVerify:
    def test_fresh_file_passes(self, m1k1_path, capsys):
        assert main(["verify", str(m1k1_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_json_report(self, m1k1_path, capsys):
        assert main(["verify", str(m1k1_path), "--json"]) == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is True
        assert rep["checks"]["orthogonality"] is True
        assert rep["checks"]["block_injectivity"] is True
        assert rep["rank_s"] == 16 and rep["rank_n"] == 20

    def test_json_report_bytes(self, m1k1_path, tmp_path, capsys):
        # the exact report, before and after a bit flip that fails
        # duality and carries its failure list
        assert main(["verify", str(m1k1_path), "--json"]) == EXIT_OK
        assert capsys.readouterr().out == M1K1_JSON
        mutated = flip_first_row_bit(m1k1_path, tmp_path)
        assert main(["verify", str(mutated), "--json"]) == EXIT_VERIFY_FAIL
        assert capsys.readouterr().out == FLIPPED_JSON

    def test_flipped_bit_fails(self, m1k1_path, tmp_path, capsys):
        mutated = flip_first_row_bit(m1k1_path, tmp_path)
        assert main(["verify", str(mutated)]) == EXIT_VERIFY_FAIL

    def test_degree_over_cap_fails_field(self, m9_header_path, capsys):
        assert main(["verify", str(m9_header_path)]) == EXIT_VERIFY_FAIL
        assert "field: FAIL" in capsys.readouterr().out.split("\n")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_bad_field_still_runs_duality(self, m1k1_path, tmp_path,
                                          capsys, monkeypatch, json_flag):
        # the genuine code's rows under a reducible modulus: the duality
        # checks need only n and the rows, so only field and basis fail
        lines = m1k1_path.read_text().split("\n")
        assert lines[6] == "modulus 0x7"
        lines[6] = "modulus 0x5"
        bad = tmp_path / "reducible.code"
        bad.write_text("\n".join(lines))
        calls = []
        real = cli.verify_duality
        monkeypatch.setattr(cli, "verify_duality",
                            lambda code: calls.append(code) or real(code))
        assert main(["verify", str(bad), *json_flag]) == EXIT_VERIFY_FAIL
        captured = capsys.readouterr()
        assert len(calls) == 1
        checks = {"header": True, "field": False, "basis": False,
                  "rows_canonical": True, "ranks": True,
                  "orthogonality": True, "dims_complementary": True,
                  "containment": True}
        if json_flag:
            assert json.loads(captured.out)["checks"] == checks
        else:
            assert captured.out == "".join(
                f"{name}: {'pass' if ok else 'FAIL'}\n"
                for name, ok in checks.items()) + (
                "  field: modulus 0x5 is reducible\n"
                "[[18,2]] rank_s=16 rank_n=20 => FAIL\n")
        assert captured.err == "stabcat: verification failed: field, basis\n"

    @pytest.mark.parametrize("m", ["-1", "4000000000"])
    def test_hostile_m_fails_header_and_field(self, m1k1_path, tmp_path,
                                              capsys, m):
        lines = m1k1_path.read_text().split("\n")
        assert lines[1] == "m 1"
        lines[1] = f"m {m}"
        bad = tmp_path / "hostile_m.code"
        bad.write_text("\n".join(lines))
        tracemalloc.start()
        try:
            rc = main(["verify", str(bad)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_VERIFY_FAIL
        out = capsys.readouterr().out.split("\n")
        assert "header: FAIL" in out and "field: FAIL" in out
        assert peak < 4 << 20  # a 2^(2m) shift would need gigabytes
        assert main(["distance", str(bad)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"stabcat: extension degree {2 * int(m)} outside supported "
            f"range [1, 16]\n")

    @pytest.mark.parametrize("n", [10 ** 12, -1])
    def test_hostile_n_without_rows(self, m1k1_path, tmp_path, capsys, n):
        # With no rows, nothing but the header check bounds n; the
        # S·Ω·Nᵀ products of an empty S must not walk 2n columns.
        lines = m1k1_path.read_text().split("\n")[:10]
        assert lines[4] == "n 18"
        lines[4] = f"n {n}"
        lines[8:] = ["rank_s 0", "rank_n 0"]
        bad = tmp_path / "no_rows.code"
        bad.write_text("\n".join(lines) + "\n")
        start = time.perf_counter()
        rc = main(["verify", str(bad)])
        assert time.perf_counter() - start < 1
        assert rc == EXIT_VERIFY_FAIL
        out = capsys.readouterr().out.split("\n")
        assert "header: FAIL" in out
        assert out[-2] == f"[[{n},2]] rank_s=0 rank_n=0 => FAIL"
        assert main(["distance", str(bad)]) == EXIT_VERIFY_FAIL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("stabcat: not a valid code: header")
        assert captured.err.count("\n") == 1

    def test_truncated_file(self, m1k1_path, tmp_path, capsys):
        mutated = tmp_path / "short.code"
        mutated.write_text(
            "\n".join(m1k1_path.read_text().split("\n")[:15]) + "\n")
        assert main(["verify", str(mutated)]) == EXIT_IO
        assert "line" in capsys.readouterr().err

    def test_non_ascii_byte(self, m1k1_path, tmp_path, capsys):
        data = bytearray(m1k1_path.read_bytes())
        data[data.index(b"\n", data.index(b"rank_n")) + 3] = 0xff
        bad = tmp_path / "non_ascii.code"
        bad.write_bytes(bytes(data))
        for command in ("verify", "distance", "export"):
            assert main([command, str(bad)]) == EXIT_IO
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "stabcat: line 11: non-ASCII byte 0xff\n"

    def test_missing_file(self, capsys):
        assert main(["verify", "/no/such/file.code"]) == EXIT_IO

    def test_field_built_once(self, m1k1_path, monkeypatch):
        built = []
        real = field_mod.Field

        def counting_field(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "Field", counting_field)
        monkeypatch.setattr(codefile, "Field", counting_field)
        report = cli.verify_code_file(codefile.load(m1k1_path))
        assert report["passed"]
        assert built == [(2, 0x7)]


class TestRoundTrip:
    def test_store_load_store_byte_identical(self, m1k1_path, m2k3_path,
                                             tmp_path):
        for src in (m1k1_path, m2k3_path):
            cf = codefile.load(src)
            out = tmp_path / (src.name + ".again")
            codefile.store(cf, out)
            assert out.read_bytes() == src.read_bytes()

    def test_line_shape(self, m1k1_path):
        lines = m1k1_path.read_text().split("\n")
        n = 18
        for line in lines[10:46]:
            assert len(line) == 2 * n + 1
            assert line[n] == "|"

    # sha256 of the code files ``construct`` writes; the same digests are
    # pinned in perfbench/workloads.py CODE_SHA256.
    @pytest.mark.parametrize("m,big_k,digest", [
        (1, 0, "7a1de569ad3ae73a1ac07b5884a5029e"
               "a9273f9c4ade3875a4e03d74867b8fdf"),
        (1, 1, "0012555ba969ed43b12158e7abc3b35f"
               "15c836bf73af6807522f3e641a845ae2"),
        (2, 3, "11f087f7850b9655a41abda48abc1e5b"
               "65599b6021ecdebfe1ca3e10847d2137"),
        (3, 10, "04db16796d12f169b1c71d32ac320eae"
                "e08b53f864f49845c9166e6a2878ff1b"),
    ])
    def test_pinned_file_bytes(self, m, big_k, digest):
        text = codefile.dumps(codefile.from_code(build_code(m, big_k)))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize("u_edit,v_edit,shown", [
        ({3: "x"}, {}, "x"),
        ({}, {0: "_"}, "_"),
        ({5: " "}, {2: "2"}, " "),  # the u half is named first
        ({0: "+"}, {}, "+"),
    ])
    def test_invalid_bit_named(self, m1k1_path, u_edit, v_edit, shown):
        # int(..., 2) accepts "_", spaces and signs; the parser must not.
        lines = m1k1_path.read_text().split("\n")
        row = list(lines[10])
        for p, ch in u_edit.items():
            row[p] = ch
        for p, ch in v_edit.items():
            row[19 + p] = ch
        lines[10] = "".join(row)
        with pytest.raises(codefile.CodeFileError) as exc:
            codefile.loads("\n".join(lines))
        assert str(exc.value) == f"line 11: invalid bit {shown!r}"

    def test_code_round_trip(self, m1k1_path, code_m1k1):
        cf = codefile.load(m1k1_path)
        code = codefile.to_code(cf)
        assert code.s_matrix == code_m1k1.s_matrix
        assert code.n_matrix == code_m1k1.n_matrix
        assert code.field.modulus == code_m1k1.field.modulus


class TestDistanceCmd:
    def test_exact_m1(self, m1k1_path, capsys):
        assert main(["distance", str(m1k1_path), "--method", "exact",
                     "--parts", "4"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out == ("d=2 witness_weight=2 enumerated=1048576 "
                       "method=exact seed=0")

    @pytest.mark.parametrize("parts", ["0", str((1 << 20) + 1)])
    def test_exact_parts_out_of_range(self, m1k1_path, capsys, parts):
        # rank(N) = 20 at m=1 K=1: 1..2^20 parts are valid
        assert main(["distance", str(m1k1_path), "--method", "exact",
                     "--parts", parts]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"stabcat: invalid partition count {parts}\n"

    def test_reducible_modulus(self, m1k1_path, tmp_path, capsys):
        lines = m1k1_path.read_text().split("\n")
        assert lines[6] == "modulus 0x7"
        lines[6] = "modulus 0x5"
        bad = tmp_path / "reducible.code"
        bad.write_text("\n".join(lines))
        assert main(["distance", str(bad)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "stabcat: modulus 0x5 is reducible\n"

    def test_degree_over_cap(self, m9_header_path, capsys):
        assert main(["distance", str(m9_header_path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("stabcat: extension degree 18 outside "
                                "supported range [1, 16]\n")

    def test_rows_not_canonical(self, m1k1_path, tmp_path, capsys):
        # Set the bit of stabilizer row 0 at row 1's pivot column.
        cf = codefile.load(m1k1_path)
        s_rows = list(cf.s_rows)
        s_rows[0] ^= 1 << lowest_bit(s_rows[1])
        bad = tmp_path / "not_rref.code"
        codefile.store(codefile.CodeFile(
            m=cf.m, big_n=cf.big_n, big_k=cf.big_k, n=cf.n, k=cf.k,
            modulus=cf.modulus, basis=cf.basis, s_rows=tuple(s_rows),
            n_rows=cf.n_rows), bad)
        assert main(["distance", str(bad)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("stabcat: stabilizer row 0 has a bit at "
                                "another row's pivot\n")

    def test_not_the_code(self, m1k1_path, tmp_path, capsys):
        # Flip a non-pivot bit of stabilizer row 0: the rows stay
        # canonical RREF, but they no longer span the code.
        cf = codefile.load(m1k1_path)
        s_rows = list(cf.s_rows)
        pivots = {lowest_bit(r) for r in s_rows}
        bit = max(set(range(2 * cf.n)) - pivots)
        s_rows[0] ^= 1 << bit
        bad = tmp_path / "not_the_code.code"
        codefile.store(codefile.CodeFile(
            m=cf.m, big_n=cf.big_n, big_k=cf.big_k, n=cf.n, k=cf.k,
            modulus=cf.modulus, basis=cf.basis, s_rows=tuple(s_rows),
            n_rows=cf.n_rows), bad)
        assert main(["verify", str(bad)]) == EXIT_VERIFY_FAIL
        capsys.readouterr()
        for method in ("exact", "sample"):
            assert main(["distance", str(bad), "--method", method]) == \
                EXIT_VERIFY_FAIL
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "stabcat: not a valid code: stabilizer row 0 is not "
                "orthogonal to normalizer row 1\n")

    @pytest.mark.parametrize("field, value, message", [
        ("m", 2, "header m=2 N=3 K=1 n=18 k=2 breaks the closed forms"),
        ("big_n", 5, "header m=1 N=5 K=1 n=18 k=2 breaks the closed forms"),
        ("big_k", 0, "header m=1 N=3 K=0 n=18 k=2 breaks the closed forms"),
        ("k", 4, "header m=1 N=3 K=1 n=18 k=4 breaks the closed forms"),
        ("s_rows", 15, "rank_s=15 rank_n=20 break the rank closed forms"),
        ("n_rows", 19, "rank_s=16 rank_n=19 break the rank closed forms"),
    ])
    def test_header_and_ranks_checked(self, m1k1_path, tmp_path, capsys,
                                      field, value, message):
        cf = codefile.load(m1k1_path)
        if field in ("s_rows", "n_rows"):  # drop the last rows
            value = getattr(cf, field)[:value]
        changes = {field: value}
        if field == "m":  # keep the field valid: x^4 + x + 1
            changes["modulus"] = 0x13
        bad = tmp_path / "bad_header.code"
        codefile.store(cf._replace(**changes), bad)
        assert main(["verify", str(bad)]) == EXIT_VERIFY_FAIL
        capsys.readouterr()
        for method in ("exact", "sample"):
            assert main(["distance", str(bad), "--method", method]) == \
                EXIT_VERIFY_FAIL
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"stabcat: not a valid code: {message}\n"

    def test_duality_looked_up_through_cli(self, m1k1_path, monkeypatch,
                                           capsys):
        # the per-layer trace wraps stabcat.cli.verify_duality
        calls = []
        real = cli.verify_duality
        monkeypatch.setattr(cli, "verify_duality",
                            lambda code: calls.append(code) or real(code))
        assert main(["distance", str(m1k1_path)]) == EXIT_OK
        assert len(calls) == 1

    def test_exact_refusal_m2(self, m2k3_path, capsys):
        rc = main(["distance", str(m2k3_path), "--method", "exact"])
        assert rc == EXIT_USAGE
        assert "sample" in capsys.readouterr().err

    def test_sample_m2(self, m2k3_path, capsys):
        rc = main(["distance", str(m2k3_path), "--method", "sample",
                   "--trials", "500", "--seed", "0"])
        assert rc == EXIT_OK
        first = capsys.readouterr().out
        assert "method=sampled seed=0" in first
        main(["distance", str(m2k3_path), "--method", "sample",
              "--trials", "500", "--seed", "0"])
        assert capsys.readouterr().out == first


class TestBoundsCmd:
    def test_ours_endpoints(self, capsys):
        rc = main(["bounds", "--curve", "ours", "--steps", "2",
                   "--R-min", "0", "--R-max", "0.5"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "R,delta,curve,params"
        first = lines[1].split(",")
        last = lines[2].split(",")
        assert first[0] == "0" and abs(float(first[1]) - 0.01857) < 1e-4
        assert last[0] == "0.5" and float(last[1]) == 0.0

    def test_chen_intercept(self, capsys):
        rc = main(["bounds", "--curve", "chen", "--t", "3", "--steps", "1",
                   "--R-min", "0"])
        assert rc == EXIT_OK
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert abs(float(row[1]) - 10 / 147) < 1e-12

    def test_missing_parameter(self, capsys):
        assert main(["bounds", "--curve", "chen"]) == EXIT_USAGE

    def test_out_of_domain_note(self, capsys):
        rc = main(["bounds", "--curve", "ours", "--steps", "3",
                   "--R-min", "0.4", "--R-max", "0.8"])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert "omitted" in captured.err
        assert len(captured.out.strip().split("\n")) == 2  # header + 1 row

    def test_unknown_curve_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--curve", "nope"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("args", [
        ["--curve", "ours"],
        ["--curve", "ours", "--R-min", "0.9", "--R-max", "-0.3",
         "--steps", "17"],
        ["--curve", "ours_finite_m", "--m", "2", "--steps", "1",
         "--R-min", "0.45"],
        ["--curve", "chen", "--t", "4", "--R-min", "-0.5", "--R-max", "2"],
        ["--curve", "baseline_rs", "--m", "3", "--R-min", "1.2",
         "--R-max", "-0.1", "--steps", "40"],
        ["--curve", "matsumoto", "--m", "3", "--R-min", "2",
         "--R-max", "3"],
        ["--curve", "ours_finite_m", "--m", str(10 ** 400)],
        ["--curve", "ours_finite_m", "--m", str(10 ** 400),
         "--R-min", "0.6", "--R-max", "0.9"],
    ])
    def test_streamed_output_matches_delta_curve(self, args, capsys):
        # oracle: the whole curve evaluated at once, its points sorted
        rc = main(["bounds", *args])
        got = capsys.readouterr()
        ns = cli.build_parser().parse_args(["bounds", *args])
        grid = [ns.r_min + (ns.r_max - ns.r_min) * i / (ns.steps - 1)
                for i in range(ns.steps)] if ns.steps > 1 else [ns.r_min]
        try:
            curve = delta_curve(ns.curve, grid, m=ns.m, t=ns.t)
        except BoundsError as exc:
            assert (rc, got.out, got.err) == (EXIT_USAGE, "",
                                              f"stabcat: {exc}\n")
            return
        assert rc == EXIT_OK
        assert got.out == "".join(f"{line}\n" for line in [
            "R,delta,curve,params",
            *map(",".join, curve_csv_rows(curve.name, curve.params,
                                          curve.points))])
        note = (f"stabcat: omitted {len(curve.omitted)} out-of-domain grid "
                f"point(s): " + ", ".join(f"{r:g}" for r in curve.omitted)
                + "\n") if curve.omitted else ""
        assert got.err == note

    def test_rows_streamed(self):
        # the grid, rows and note are made one point at a time; held
        # whole, 50,000 steps took about 6 MB
        with open(os.devnull, "w") as null, \
                contextlib.redirect_stdout(null), \
                contextlib.redirect_stderr(null):
            tracemalloc.start()
            try:
                rc = main(["bounds", "--curve", "ours", "--R-min", "-1",
                           "--R-max", "1", "--steps", "50000"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert rc == EXIT_OK
        assert peak < 1 << 20


def pauli_loop(row: int, n: int) -> str:
    """Oracle: the Pauli label position by position, index u_p + 2v_p."""
    u = row & ((1 << n) - 1)
    v = row >> n
    return "".join(
        "IXZY"[((u >> p) & 1) | (((v >> p) & 1) << 1)] for p in range(n))


class TestExport:
    @given(st.data())
    def test_pauli_string_matches_loop(self, data):
        # rows may carry bits above 2n, which neither form reads
        n = data.draw(st.integers(0, 90))
        row = data.draw(st.integers(0, (1 << (2 * n + 8)) - 1))
        assert pauli_string(row, n) == pauli_loop(row, n)

    def test_pauli_map_trivials(self):
        assert pauli_string(0, 4) == "IIII"
        # u = e_1, v = e_1 at position 0
        assert pauli_string(1 | (1 << 4), 4) == "YIII"
        assert pauli_string(1, 4) == "XIII"
        assert pauli_string(1 << 4, 4) == "ZIII"

    def test_weight_matches_non_identity_count(self, code_m1k1):
        for row in code_m1k1.s_matrix:
            label = pauli_string(row, code_m1k1.n)
            non_identity = sum(1 for ch in label if ch != "I")
            assert non_identity == symplectic_weight_packed(
                row, code_m1k1.n)

    def test_export_cmd(self, m1k1_path, capsys):
        assert main(["export", str(m1k1_path),
                     "--format", "pauli"]) == EXIT_OK
        out = capsys.readouterr().out.strip().split("\n")
        body = [ln for ln in out if not ln.startswith("#")]
        assert len(body) == 36
        assert all(len(ln) == 18 for ln in body)
        assert all(set(ln) <= set("IXYZ") for ln in body)


class TestImports:
    def run_fresh(self, code: str, *flags: str) -> str:
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                              capture_output=True, text=True,
                              check=True).stdout

    @pytest.mark.parametrize("imports, banned", [
        ("import stabcat.cli", ("dataclasses", "inspect", "json")),
        # what the benchmark's counting child imports
        ("from stabcat import concat, distance", ("dataclasses", "inspect")),
    ])
    def test_start_up_modules(self, imports, banned):
        # -S: no site .pth hook loads modules before the package does
        out = self.run_fresh(
            f"import sys\n{imports}\n"
            f"print(sorted(set({banned!r}) & set(sys.modules)))", "-S")
        assert out == "[]\n"

    def test_cli_leaves_bounds_alone(self):
        # every command but bounds starts without bounds and fractions
        out = self.run_fresh(
            "import sys, stabcat.cli\n"
            "print(sorted({'stabcat.bounds', 'fractions'} & set(sys.modules)))"
        )
        assert out == "[]\n"

    def test_package_names_resolve(self):
        out = self.run_fresh(
            "import stabcat\n"
            "from stabcat import bounds\n"
            "assert stabcat.delta_curve is bounds.delta_curve\n"
            "assert bounds.CURVE_NAMES is stabcat.CURVE_NAMES\n"
            "assert set(stabcat.__all__) <= set(dir(stabcat))\n"
            "print(all(hasattr(stabcat, name) for name in stabcat.__all__))"
        )
        assert out == "True\n"
        with pytest.raises(subprocess.CalledProcessError):
            self.run_fresh("import stabcat; stabcat.no_such_name")
