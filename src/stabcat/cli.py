"""Command-line surface: construct, verify, distance, bounds, export.

Exit codes: 0 success / all checks passed, 1 verification failure
(``distance`` on a file that fails the header, rank or duality checks
included), 2 usage error (bad arguments, parameters out of range,
over-budget request, a ``construct`` whose file would pass
``CONSTRUCT_CEILING_BYTES``), 3 I/O or parse error.  Every exit other than 0
writes exactly one ``stabcat: ...`` line on stderr, argparse's own
usage errors (a missing or malformed option) included.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import chain

from . import CURVE_NAMES

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: ``verify`` runs the block-injectivity check for m <= 3 (6m+2 <= 24
#: unit inputs per block) and prints "skipped: over budget" above that.
#: The rank test is cheap at any m; the gate stays because the verify
#: lines per m are an output contract (perfbench/workloads.py pins them).
INJECTIVITY_BUDGET_BITS = 24

#: ``construct`` refuses, before any layer work, an m whose code file
#: would hold more row bytes (:func:`~stabcat.codefile.row_lines`):
#: m = 5 writes 2.03 GB, m = 6..8 would write 45 GB and more.
CONSTRUCT_CEILING_BYTES = 4 << 30


# ----------------------------------------------------------------------
# layer lookup points
# ----------------------------------------------------------------------
# Each command imports only the layers it runs; --help loads none.  The
# per-layer trace (perfbench/layertrace.py) wraps these five names here,
# so commands call them through this module's globals, until ROADMAP
# item 8 retires the trace's patch table.

def Field(*args, **kwargs):
    from .field import Field
    return Field(*args, **kwargs)


def check_block_injectivity(*args, **kwargs):
    from .concat import check_block_injectivity
    return check_block_injectivity(*args, **kwargs)


def is_rref(*args, **kwargs):
    from .symplectic import is_rref
    return is_rref(*args, **kwargs)


def verify_duality(*args, **kwargs):
    from .symplectic import verify_duality
    return verify_duality(*args, **kwargs)


def sampled_distance_upper(*args, **kwargs):
    from .distance import sampled_distance_upper
    return sampled_distance_upper(*args, **kwargs)


def _print_err(msg: str) -> None:
    print(f"stabcat: {msg}", file=sys.stderr)


def _load(path) -> codefile.CodeFile | None:
    """The code file at ``path``, or None once its error line is written."""
    from . import codefile

    try:
        return codefile.load(path)
    except codefile.CodeFileError as exc:
        _print_err(str(exc))
        return None


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------

def cmd_construct(args) -> int:
    from . import codefile
    from .concat import ConcatError, build_code
    from .field import DEFAULT_MAX_DEGREE, FieldError
    from .rs import RsError

    # an m outside the field's cap is left to build_code's own message
    if 1 <= 2 * args.m <= DEFAULT_MAX_DEGREE:
        rows, width = codefile.row_lines(args.m)
        if rows * width > CONSTRUCT_CEILING_BYTES:
            _print_err(
                f"m={args.m} would write a {rows * width / 1e9:.1f} GB "
                f"code file ({rows} rows of {width} bytes), over the "
                f"{CONSTRUCT_CEILING_BYTES >> 30} GiB ceiling")
            return EXIT_USAGE
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

def header_holds(cf: codefile.CodeFile) -> bool:
    """The header's m, N, K, n, k satisfy the construction's closed forms
    (:func:`~stabcat.concat.closed_forms`).

    An m whose field degree 2m lies outside the field's degree cap fails
    before N is compared with 2^(2m) - 1, so no header builds a huge or
    negative shift.
    """
    from .concat import closed_forms
    from .field import DEFAULT_MAX_DEGREE

    m, big_n, big_k = cf.m, cf.big_n, cf.big_k
    if not 1 <= 2 * m <= DEFAULT_MAX_DEGREE:
        return False
    return (big_n == (1 << (2 * m)) - 1
            and 0 <= big_k <= big_n // 2
            and (cf.n, cf.k) == closed_forms(m, big_n, big_k)[:2])


def ranks_hold(cf: codefile.CodeFile) -> bool:
    """rank(S) is the closed form of the header's m, N and K, and
    rank(S) + rank(N) = 2n for the header's n."""
    from .concat import closed_forms

    rank_s, rank_n = len(cf.s_rows), len(cf.n_rows)
    return (rank_s == closed_forms(cf.m, cf.big_n, cf.big_k)[2]
            and rank_s + rank_n == 2 * cf.n)


def verify_code_file(cf: codefile.CodeFile) -> dict:
    """Run every structural check on a loaded code file.

    Returns a dict with one boolean per check plus diagnostic details;
    key "passed" is the conjunction.  Checks: header arithmetic, field
    modulus validity and degree cap, basis trace-orthonormality, the
    canonical-RREF shape of both matrices, checked directly (RREF is
    unique per row space, so any one-bit edit of a stored row either
    breaks this shape or changes the row space and breaks duality),
    rank closed forms, symplectic orthogonality of every stabilizer row
    to every normalizer row (S·Ω·Nᵀ = 0, from N's columns),
    stabilizer-in-normalizer containment, and per-block injectivity of
    the expansion (for m <= 3, see ``INJECTIVITY_BUDGET_BITS``), over
    the field's 2^(2m) - 1 blocks.  The field is built once and shared
    by the field check and the code.
    """
    from .concat import StabilizerCodeL
    from .field import FieldError, gram_matrix

    checks: dict = {}
    details: dict = {}

    m, big_n, big_k, n = cf.m, cf.big_n, cf.big_k, cf.n
    checks["header"] = header_holds(cf)

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
        is_rref(cf.s_rows) and is_rref(cf.n_rows))

    rank_s, rank_n = len(cf.s_rows), len(cf.n_rows)
    checks["ranks"] = ranks_hold(cf)

    # the duality checks read n and the rows alone, so a field that
    # fails to build leaves them to run
    rep = verify_duality(StabilizerCodeL(
        m=m, big_n=big_n, big_k=big_k, n=n, k=cf.k, s_matrix=cf.s_rows,
        n_matrix=cf.n_rows, field=field, basis=cf.basis))
    checks["orthogonality"] = rep.all_orthogonal
    checks["dims_complementary"] = rep.dims_complementary
    checks["containment"] = rep.contained
    if rep.failures:
        details["duality_failures"] = rep.failures

    if checks["field"] and checks["basis"]:
        if 6 * m + 2 <= INJECTIVITY_BUDGET_BITS:
            # one block per nonzero field element, however many blocks
            # the header claims
            checks["block_injectivity"] = all(
                check_block_injectivity(field, cf.basis, i)
                for i in range(field.order - 1))
        else:
            details["block_injectivity"] = "skipped: over budget"

    return {"checks": checks, "details": details,
            "passed": all(checks.values()),
            "m": m, "N": big_n, "K": big_k, "n": n, "k": cf.k,
            "rank_s": rank_s, "rank_n": rank_n}


def cmd_verify(args) -> int:
    cf = _load(args.path)
    if cf is None:
        return EXIT_IO
    report = verify_code_file(cf)
    if args.json:
        import json  # imported here: no other output is JSON

        print(json.dumps(report, indent=2, default=str))
    else:
        for name, ok in report["checks"].items():
            print(f"{name}: {'pass' if ok else 'FAIL'}")
        for key, val in report["details"].items():
            print(f"  {key}: {val}")
        print(f"[[{report['n']},{report['k']}]] "
              f"rank_s={report['rank_s']} rank_n={report['rank_n']} "
              f"=> {'PASS' if report['passed'] else 'FAIL'}")
    if not report["passed"]:
        _print_err("verification failed: " + ", ".join(
            name for name, ok in report["checks"].items() if not ok))
        return EXIT_VERIFY_FAIL
    return EXIT_OK


# ----------------------------------------------------------------------
# distance
# ----------------------------------------------------------------------

def describe_failure(failure: tuple) -> str:
    """One line for a ``DualityReport.failures`` entry."""
    kind, a, b = failure
    if kind == "orthogonality":
        return (f"stabilizer row {a} is not orthogonal to normalizer "
                f"row {b}")
    if kind == "dimensions":
        return f"rank_s {a} + rank_n {b} is not 2n"
    return f"stabilizer row {a} lies outside the normalizer span"


def cmd_distance(args) -> int:
    from . import codefile
    from .distance import DistanceError, exact_distance
    from .field import FieldError
    from .symplectic import RrefError

    cf = _load(args.path)
    if cf is None:
        return EXIT_IO
    try:
        code = codefile.to_code(cf)
        code.s_span, code.n_span  # rejects rows that are not canonical
    except (FieldError, RrefError) as exc:
        _print_err(str(exc))
        return EXIT_IO
    if not header_holds(cf):
        _print_err(f"not a valid code: header m={cf.m} N={cf.big_n} "
                   f"K={cf.big_k} n={cf.n} k={cf.k} breaks the closed "
                   f"forms")
        return EXIT_VERIFY_FAIL
    if not ranks_hold(cf):
        _print_err(f"not a valid code: rank_s={len(cf.s_rows)} "
                   f"rank_n={len(cf.n_rows)} break the rank closed forms")
        return EXIT_VERIFY_FAIL
    duality = verify_duality(code)
    if not duality.passed:
        _print_err("not a valid code: "
                   + describe_failure(duality.failures[0]))
        return EXIT_VERIFY_FAIL
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
    # imported here: no other command needs bounds or its fractions
    from .bounds import (BoundsError, curve_csv_rows, curve_params,
                         curve_points)

    if args.steps < 1:
        _print_err(f"--steps must be at least 1, got {args.steps}")
        return EXIT_USAGE
    if args.steps - 1 > sys.float_info.max:  # the grid divides by it
        _print_err("--steps is too large for a float rate grid")
        return EXIT_USAGE
    if not (math.isfinite(args.r_min) and math.isfinite(args.r_max)):
        _print_err(f"--R-min and --R-max must be finite, got "
                   f"{args.r_min:g} and {args.r_max:g}")
        return EXIT_USAGE

    def points(indices):
        grid = (args.r_min + (args.r_max - args.r_min) * i / (args.steps - 1)
                for i in indices) if args.steps > 1 else [args.r_min]
        return curve_points(args.curve, grid, m=args.m, t=args.t)

    # one point at a time, the grid walked in ascending rate: the order
    # of delta_curve's sorted points
    order = range(args.steps)
    ascending = order if args.r_min <= args.r_max else reversed(order)
    rows = curve_csv_rows(
        args.curve, curve_params(args.curve, args.m, args.t),
        ((r, d) for r, d in points(ascending) if d is not None))
    try:
        row = next(rows, None)  # bad parameters fail before any output
    except BoundsError as exc:
        _print_err(str(exc))
        return EXIT_USAGE
    print("R,delta,curve,params")
    omitted = args.steps
    while row is not None:
        print(",".join(row))
        omitted -= 1
        row = next(rows, None)
    if omitted:  # listed in grid order, from a second walk
        rates = (f"{r:g}" for r, d in points(order) if d is None)
        sys.stderr.writelines(chain(
            [f"stabcat: omitted {omitted} out-of-domain grid point(s): ",
             next(rates)], map(", ".__add__, rates), ["\n"]))
    return EXIT_OK


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

_PAULI = str.maketrans("0123", "IXZY")  # digit u + 2v


def pauli_string(row: int, n: int) -> str:
    """Map a packed (u | v) row to its length-n Pauli label string.

    Read as hex digits, position 0 first, u + 2v holds u_p + 2v_p at p.
    """
    mask = (1 << n) - 1
    u = int(format(row & mask, f"0{n}b")[::-1], 16)
    v = int(format((row >> n) & mask, f"0{n}b")[::-1], 16)
    # [:n] also holds for n = 0, whose strings are "0"
    return format(u + 2 * v, f"0{n}x")[:n].translate(_PAULI)


def cmd_export(args) -> int:
    cf = _load(args.path)
    if cf is None:
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

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``stabcat:`` line.

    argparse would print the usage text and a ``prog: error:`` line;
    sub-command parsers are made of the same class.  ``--help`` is
    unchanged.  Every negative float (``-1e-3``, ``-inf``) is a value.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None  # a value

    def error(self, message: str):
        _print_err(message)
        self.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                   help="number of disjoint ranges the enumeration "
                        "splits into; one walk covers them all and the "
                        "report is the same for any count (exact mode)")
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
