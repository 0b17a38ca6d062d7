"""CLI command tests driven through main() with captured output."""

import hashlib
import json

import pytest

from stabcat import codefile
from stabcat.concat import build_code
from stabcat.cli import (EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL,
                         main, pauli_string)
from stabcat.symplectic import symplectic_weight_packed


@pytest.fixture(scope="module")
def m1k1_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "m1k1.code"
    assert main(["construct", "--m", "1", "--K", "1",
                 "--out", str(path)]) == EXIT_OK
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

    def test_flipped_bit_fails(self, m1k1_path, tmp_path, capsys):
        lines = m1k1_path.read_text().split("\n")
        row = list(lines[10])  # first stabilizer row line
        row[3] = "1" if row[3] == "0" else "0"
        lines[10] = "".join(row)
        mutated = tmp_path / "mutated.code"
        mutated.write_text("\n".join(lines))
        assert main(["verify", str(mutated)]) == EXIT_VERIFY_FAIL

    def test_truncated_file(self, m1k1_path, tmp_path, capsys):
        mutated = tmp_path / "short.code"
        mutated.write_text(
            "\n".join(m1k1_path.read_text().split("\n")[:15]) + "\n")
        assert main(["verify", str(mutated)]) == EXIT_IO
        assert "line" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["verify", "/no/such/file.code"]) == EXIT_IO


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


class TestExport:
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
