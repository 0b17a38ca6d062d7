"""Run the library's counting check on build_code(m, K) and print a verdict.

    python3 perfbench/counting.py --m 1 --K 1 --mode exhaustive

prints ``passed=<bool> examined=<int> mode=<mode>``.  The benchmark runs
it as a child process, like a CLI command, and calls :func:`run` in
process for the traced run.  Functions are looked up through their
modules at call time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import argparse


def run(m: int, big_k: int, mode: str, trials: int | None = None,
        seed: int | None = None) -> str:
    from stabcat import concat, distance

    report = distance.verify_counting_claims(
        concat.build_code(m, big_k), mode, trials=trials, seed=seed)
    return f"passed={report.passed} examined={report.examined} mode={mode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--K", type=int, required=True)
    parser.add_argument("--mode", choices=("exhaustive", "sampled"),
                        required=True)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    print(run(args.m, args.K, args.mode, args.trials, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
