"""Every documented exit code of every subcommand, driven once each.

Exit codes (``stabcat.cli``): 0 success, 1 verification failure, 2 usage
error, 3 I/O or parse error.  A run that exits non-zero writes exactly
one ``stabcat: ...`` line on stderr and never a traceback; a run that
succeeds writes nothing on stderr.  The program's own usage errors and
argparse's (a missing or malformed option, which exit through
``SystemExit``) are both driven here; ``--help`` still exits 0 with
argparse's help text.
"""


import pytest

from stabcat import codefile
from stabcat.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main
from stabcat.symplectic import lowest_bit


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Real code files and mutated copies, by name."""
    d = tmp_path_factory.mktemp("exit_codes")
    out = {"missing": d / "no_such_dir" / "x.code"}
    for name, m, big_k in (("m1k1", 1, 1), ("m2k3", 2, 3)):
        out[name] = d / f"{name}.code"
        assert main(["construct", "--m", str(m), "--K", str(big_k),
                     "--out", str(out[name])]) == EXIT_OK
    cf = codefile.load(out["m1k1"])
    # a non-pivot bit of stabilizer row 0: still canonical, not the code
    s_rows = list(cf.s_rows)
    s_rows[0] ^= 1 << max(set(range(2 * cf.n))
                          - {lowest_bit(r) for r in s_rows})
    for name, bad in (("flipped", cf._replace(s_rows=tuple(s_rows))),
                      ("bad_k", cf._replace(k=cf.k + 4)),  # k != 2m(N-2K)
                      # verify checks the field's 3 blocks, not 10^9
                      ("big_n", cf._replace(big_n=10 ** 9))):
        out[name] = d / f"{name}.code"
        codefile.store(bad, out[name])
    lines = out["m1k1"].read_text().split("\n")
    swapped = list(lines)  # stabilizer rows 0 and 1 out of pivot order
    swapped[10], swapped[11] = lines[11], lines[10]
    # one element, not a basis of the field: verify's basis check fails,
    # and distance, which never reads the basis, still runs
    bad_basis = list(lines)
    bad_basis[7] = "basis -1"
    for name, text in (("swapped", swapped), ("truncated", lines[:15]),
                       ("bad_basis", bad_basis)):
        out[name] = d / f"{name}.code"
        out[name].write_text("\n".join(text))
    return out


# (argv with {name} placeholders for files, expected exit code)
MATRIX = [
    (["construct", "--m", "1", "--K", "1", "--out", "{new}"], EXIT_OK),
    (["construct", "--m", "1", "--K", "2", "--out", "{new}"], EXIT_USAGE),
    (["construct", "--m", "0", "--K", "0", "--out", "{new}"], EXIT_USAGE),
    (["construct", "--m", "9", "--K", "0", "--out", "{new}"], EXIT_USAGE),
    (["construct", "--m", "1", "--K", "1", "--out", "{missing}"], EXIT_IO),
    (["verify", "{m1k1}"], EXIT_OK),
    (["verify", "{flipped}"], EXIT_VERIFY_FAIL),
    (["verify", "{bad_k}"], EXIT_VERIFY_FAIL),
    (["verify", "{big_n}"], EXIT_VERIFY_FAIL),
    (["verify", "{bad_basis}"], EXIT_VERIFY_FAIL),
    (["verify", "{missing}"], EXIT_IO),
    (["verify", "{truncated}"], EXIT_IO),
    (["distance", "{m1k1}", "--method", "exact"], EXIT_OK),
    (["distance", "{m2k3}", "--method", "sample", "--trials", "50"],
     EXIT_OK),
    (["distance", "{flipped}", "--method", "exact"], EXIT_VERIFY_FAIL),
    (["distance", "{bad_k}", "--method", "exact"], EXIT_VERIFY_FAIL),
    (["distance", "{big_n}", "--method", "sample"], EXIT_VERIFY_FAIL),
    (["distance", "{bad_basis}", "--method", "sample", "--trials", "50"],
     EXIT_OK),
    (["distance", "{m2k3}", "--method", "exact"], EXIT_USAGE),
    (["distance", "{m1k1}", "--method", "exact", "--parts", "0"],
     EXIT_USAGE),
    (["distance", "{missing}"], EXIT_IO),
    (["distance", "{swapped}"], EXIT_IO),
    (["bounds", "--curve", "ours", "--steps", "3"], EXIT_OK),
    (["bounds", "--curve", "ours_finite_m", "--steps", "3"], EXIT_USAGE),
    (["bounds", "--curve", "ours_finite_m", "--m", "2", "--steps", "0"],
     EXIT_USAGE),
    (["bounds", "--curve", "ours_finite_m", "--m", "2", "--steps", "-3"],
     EXIT_USAGE),
    (["bounds", "--curve", "ours", "--R-min", "nan"], EXIT_USAGE),
    (["bounds", "--curve", "ours", "--R-max", "inf"], EXIT_USAGE),
    (["bounds", "--curve", "ours", "--R-min=-inf"], EXIT_USAGE),
    (["bounds", "--curve", "ours", "--R-min", "-inf"], EXIT_USAGE),
    (["bounds", "--curve", "ashikhmin", "--m", "1100", "--steps", "3"],
     EXIT_OK),
    (["bounds", "--curve", "matsumoto", "--m", "1024", "--R-min", "0.2",
      "--steps", "3"], EXIT_OK),
    (["bounds", "--curve", "baseline_rs", "--m", "512"], EXIT_USAGE),
    # huge values, none of which builds a 2^m- or 2^t-bit integer
    (["bounds", "--curve", "ours_finite_m", "--m", "1000000000",
      "--R-max", "0.4", "--steps", "3"], EXIT_OK),
    (["bounds", "--curve", "chen", "--t", "1000000000", "--steps", "3"],
     EXIT_OK),
    (["bounds", "--curve", "baseline_rs", "--m", "1000000000"], EXIT_USAGE),
    (["bounds", "--curve", "ashikhmin", "--m", "9" * 400], EXIT_USAGE),
    (["bounds", "--curve", "ours", "--steps", "1" + "0" * 400], EXIT_USAGE),
    (["export", "{m1k1}"], EXIT_OK),
    (["export", "{missing}"], EXIT_IO),
    (["export", "{truncated}"], EXIT_IO),
]


def test_matrix_covers_every_documented_code():
    want = {"construct": {0, 2, 3}, "verify": {0, 1, 3},
            "distance": {0, 1, 2, 3}, "bounds": {0, 2}, "export": {0, 3}}
    got = {}
    for argv, code in MATRIX:
        got.setdefault(argv[0], set()).add(code)
    assert got == want


@pytest.mark.parametrize("argv,code", MATRIX,
                         ids=lambda x: x if isinstance(x, int)
                         else " ".join(x).replace("{", "").replace("}", ""))
def test_exit_code(argv, code, files, tmp_path, capsys):
    paths = {k: str(v) for k, v in files.items()}
    paths["new"] = str(tmp_path / "new.code")
    assert main([a.format(**paths) for a in argv]) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == ""
    else:
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
        assert err.startswith("stabcat: "), err


# argparse's own usage errors: (argv, text the one stderr line holds)
ARGPARSE_ERRORS = [
    (["construct", "--m", "1"],
     "the following arguments are required: --K, --out"),
    (["distance", "x", "--method", "bogus"],
     "argument --method: invalid choice: 'bogus'"),
    (["construct", "--m", "x", "--K", "1", "--out", "y"],
     "argument --m: invalid int value: 'x'"),
    (["distance", "x", "--trials"], "argument --trials: expected one"),
    (["verify", "x", "--bogus"], "unrecognized arguments: --bogus"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
]


@pytest.mark.parametrize("argv,text", ARGPARSE_ERRORS,
                         ids=lambda x: " ".join(x) if isinstance(x, list)
                         else None)
def test_argparse_error_is_one_line(argv, text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert err.startswith("stabcat: ") and text in err, err


# negative float values given as the next argument: (option, value, exit
# code); argparse alone reads -1e-3 and -inf as options
NEGATIVE_VALUES = [
    ("--R-min", "-1e-3", EXIT_OK),
    ("--R-max", "-1E-3", EXIT_OK),
    ("--R-min", "-.25e+1", EXIT_OK),
    ("--R-min", "-inf", EXIT_USAGE),
    ("--R-max", "-nan", EXIT_USAGE),
]


@pytest.mark.parametrize("option,value,code", NEGATIVE_VALUES,
                         ids=lambda x: x if isinstance(x, str) else None)
def test_negative_value_after_option(option, value, code, capsys):
    head = ["bounds", "--curve", "ours", "--steps", "3"]
    assert main(head + [f"{option}={value}"]) == code
    joined = capsys.readouterr()
    assert main(head + [option, value]) == code
    assert capsys.readouterr() == joined
    if code == EXIT_USAGE:
        assert joined.err.startswith(
            "stabcat: --R-min and --R-max must be finite, got "), joined.err


@pytest.mark.parametrize("argv", [["--help"], ["construct", "--help"],
                                  ["distance", "--help"]],
                         ids=" ".join)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK
    out, err = capsys.readouterr()
    assert out.startswith("usage: stabcat") and err == ""
