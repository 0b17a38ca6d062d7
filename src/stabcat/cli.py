"""Command-line surface: construct, verify, distance, bounds, export.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage error (bad arguments, parameters out of range, over-budget
request), 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import codefile
from .bounds import BoundsError, CURVE_NAMES, curve_csv_rows, delta_curve
from .concat import ConcatError, build_code, check_block_injectivity
from .distance import (DistanceError, exact_distance,
                       sampled_distance_upper)
from .field import FieldError, Field, gram_matrix
from .rs import RsError
from .symplectic import is_rref, verify_duality

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: ``verify`` runs the block-injectivity check for m <= 3 (6m+2 <= 24
#: unit inputs per block) and prints "skipped: over budget" above that.
#: The rank test is cheap at any m; the gate stays because the verify
#: lines per m are an output contract (perfbench/workloads.py pins them).
INJECTIVITY_BUDGET_BITS = 24


def _print_err(msg: str) -> None:
    print(f"stabcat: {msg}", file=sys.stderr)


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------

def cmd_construct(args) -> int:
    try:
        code = build_code(args.m, args.K)
    except (FieldError, RsError, ConcatError) as exc:
        _print_err(str(exc))
        return EXIT_USAGE
    cf = codefile.from_code(code)
    try:
        codefile.store(cf, args.out)
    except OSError as exc:
        _print_err(f"cannot write {args.out}: {exc}")
        return EXIT_IO
    print(f"[[{code.n},{code.k}]] {code.rank_s} {code.rank_n}")
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def verify_code_file(cf: codefile.CodeFile) -> dict:
    """Run every structural check on a loaded code file.

    Returns a dict with one boolean per check plus diagnostic details;
    key "passed" is the conjunction.  Checks: header arithmetic, field
    modulus validity, basis trace-orthonormality, literal canonical-RREF
    form of both matrices (RREF is unique per row space, so any one-bit
    edit of a stored row either breaks this shape check or changes the
    row space and breaks duality), rank closed forms, pairwise
    symplectic orthogonality, stabilizer-in-normalizer containment, and
    per-block injectivity of the expansion by a rank test (for m <= 3,
    see ``INJECTIVITY_BUDGET_BITS``).
    """
    checks: dict = {}
    details: dict = {}

    m, big_n, big_k, n = cf.m, cf.big_n, cf.big_k, cf.n
    checks["header"] = (
        big_n == (1 << (2 * m)) - 1
        and 0 <= big_k <= big_n // 2
        and n == big_n * (4 * m + 2)
        and cf.k == 2 * m * (big_n - 2 * big_k))

    field = None
    try:
        field = Field(2 * m, cf.modulus)
        checks["field"] = True
    except FieldError as exc:
        checks["field"] = False
        details["field"] = str(exc)

    if field is not None and len(cf.basis) == 2 * m and \
            all(0 < b < field.order for b in cf.basis):
        ident = [[int(i == j) for j in range(2 * m)] for i in range(2 * m)]
        checks["basis"] = gram_matrix(field, cf.basis) == ident
    else:
        checks["basis"] = False

    checks["rows_canonical"] = (
        is_rref(cf.s_rows, 2 * n) and is_rref(cf.n_rows, 2 * n))

    rank_s, rank_n = len(cf.s_rows), len(cf.n_rows)
    checks["ranks"] = (
        rank_s == 2 * big_n * (m + 1) + 4 * m * big_k
        and rank_s + rank_n == 2 * n)

    code = codefile.to_code(cf) if field is not None else None
    if code is not None:
        rep = verify_duality(code)
        checks["orthogonality"] = rep.all_orthogonal
        checks["dims_complementary"] = rep.dims_complementary
        checks["containment"] = rep.contained
        if rep.failures:
            details["duality_failures"] = rep.failures[:8]
    else:
        checks["orthogonality"] = False
        checks["dims_complementary"] = False
        checks["containment"] = False

    if checks["field"] and checks["basis"]:
        if 6 * m + 2 <= INJECTIVITY_BUDGET_BITS:
            checks["block_injectivity"] = all(
                check_block_injectivity(field, cf.basis, i)
                for i in range(big_n))
        else:
            details["block_injectivity"] = "skipped: over budget"

    return {"checks": checks, "details": details,
            "passed": all(checks.values()),
            "m": m, "N": big_n, "K": big_k, "n": n, "k": cf.k,
            "rank_s": rank_s, "rank_n": rank_n}


def cmd_verify(args) -> int:
    try:
        cf = codefile.load(args.path)
    except codefile.CodeFileError as exc:
        _print_err(str(exc))
        return EXIT_IO
    report = verify_code_file(cf)
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        for name, ok in report["checks"].items():
            print(f"{name}: {'pass' if ok else 'FAIL'}")
        for key, val in report["details"].items():
            print(f"  {key}: {val}")
        print(f"[[{report['n']},{report['k']}]] "
              f"rank_s={report['rank_s']} rank_n={report['rank_n']} "
              f"=> {'PASS' if report['passed'] else 'FAIL'}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL


# ----------------------------------------------------------------------
# distance
# ----------------------------------------------------------------------

def cmd_distance(args) -> int:
    try:
        cf = codefile.load(args.path)
    except codefile.CodeFileError as exc:
        _print_err(str(exc))
        return EXIT_IO
    try:
        code = codefile.to_code(cf)
    except FieldError as exc:
        _print_err(str(exc))
        return EXIT_IO
    try:
        if args.method == "exact":
            rep = exact_distance(code, parts=args.parts)
        else:
            rep = sampled_distance_upper(code, trials=args.trials,
                                         seed=args.seed)
    except DistanceError as exc:
        _print_err(str(exc))
        return EXIT_USAGE
    print(rep.summary_line())
    return EXIT_OK


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def cmd_bounds(args) -> int:
    grid = [args.r_min + (args.r_max - args.r_min) * i / (args.steps - 1)
            for i in range(args.steps)] if args.steps > 1 else [args.r_min]
    try:
        curve = delta_curve(args.curve, grid, m=args.m, t=args.t)
    except BoundsError as exc:
        _print_err(str(exc))
        return EXIT_USAGE
    print("R,delta,curve,params")
    for row in curve_csv_rows(curve):
        print(",".join(row))
    if curve.omitted:
        _print_err(
            f"omitted {len(curve.omitted)} out-of-domain grid point(s): "
            + ", ".join(f"{r:g}" for r in curve.omitted))
    return EXIT_OK


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

_PAULI = ("I", "X", "Z", "Y")  # index u + 2v


def pauli_string(row: int, n: int) -> str:
    """Map a packed (u | v) row to its length-n Pauli label string."""
    u = row & ((1 << n) - 1)
    v = row >> n
    return "".join(
        _PAULI[((u >> p) & 1) | (((v >> p) & 1) << 1)] for p in range(n))


def cmd_export(args) -> int:
    try:
        cf = codefile.load(args.path)
    except codefile.CodeFileError as exc:
        _print_err(str(exc))
        return EXIT_IO
    print(f"# stabilizer generators ({len(cf.s_rows)} rows)")
    for row in cf.s_rows:
        print(pauli_string(row, cf.n))
    print(f"# normalizer generators ({len(cf.n_rows)} rows)")
    for row in cf.n_rows:
        print(pauli_string(row, cf.n))
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabcat",
        description="Concatenated quantum stabilizer codes from "
                    "Reed-Solomon codes: construction, verification, "
                    "distance search, and rate/distance bound curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code and store it")
    p.add_argument("--m", type=int, required=True,
                   help="field parameter; symbols live in GF(2^(2m))")
    p.add_argument("--K", type=int, required=True,
                   help="outer code dimension, 0 <= K <= floor(N/2)")
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a stored code file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("distance", help="minimum-distance search")
    p.add_argument("path")
    p.add_argument("--method", choices=("exact", "sample"),
                   default="exact")
    p.add_argument("--trials", type=int, default=100000,
                   help="sample count (sample mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parts", type=int, default=1,
                   help="number of disjoint enumeration ranges "
                        "(exact mode)")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("bounds", help="rate/distance curve as CSV")
    p.add_argument("--curve", required=True, choices=CURVE_NAMES)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--R-min", dest="r_min", type=float, default=0.0)
    p.add_argument("--R-max", dest="r_max", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=51)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("export", help="print generators as Pauli strings")
    p.add_argument("path")
    p.add_argument("--format", choices=("pauli",), default="pauli")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def run() -> None:  # console_scripts entry point
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    run()
