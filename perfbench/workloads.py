"""Workload definitions and the output check for every operation.

A workload is a list of set-up steps (untimed inputs, written before
measuring) and a list of timed steps.  Each step knows its CLI argv and
how to check its output: exit code, the pinned construct line (closed
forms), the verify verdict lines, the sha256 of every code file, and the
pinned ``d=`` lines.  Expected values come from the closed forms of the
construction or from the pins below, recorded on the seed commit.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

# sha256 of the code file written by `construct --m m --K K`
CODE_SHA256 = {
    (1, 0): "7a1de569ad3ae73a1ac07b5884a5029ea9273f9c4ade3875a4e03d74867b8fdf",
    (1, 1): "0012555ba969ed43b12158e7abc3b35f15c836bf73af6807522f3e641a845ae2",
    (2, 3): "11f087f7850b9655a41abda48abc1e5b65599b6021ecdebfe1ca3e10847d2137",
    (3, 10): "04db16796d12f169b1c71d32ac320eaee08b53f864f49845c9166e6a2878ff1b",
    (4, 0): "abd5c875cf2a9a010b0ec54ec862912d41af247c72a7aa19e295c91b815ef9a4",
}

# exact distance (m, K) -> (d, combinations enumerated)
EXACT_D = {
    (1, 1): (2, 1 << 20),
    (1, 0): (1, 1 << 24),
}

# sampled distance at seed 0: (m, K, trials) -> d
SAMPLED_D_SEED0 = {
    (1, 0, 2000): 3,
    (1, 1, 2000): 6,
    (2, 3, 100000): 83,
    (3, 10, 20000): 593,
}

# counting check (m, K, mode) -> codewords examined
COUNTING_EXAMINED = {
    (1, 1, "exhaustive"): 983040,
}

# end-to-end metric that a step's wall time adds to
STEP_METRIC = {
    "construct": "construct_s",
    "verify": "verify_s",
    "exact": "distance_s",
    "sample": "distance_s",
    "counting": "counting_s",
}

VERIFY_CHECKS = ("header", "field", "basis", "rows_canonical", "ranks",
                 "orthogonality", "dims_complementary", "containment")

_D_LINE = re.compile(
    r"d=(\d+) witness_weight=(\d+) enumerated=(\d+) method=(\w+) "
    r"seed=(-?\d+)")


def params(m: int, big_k: int) -> dict:
    """Closed forms of the [[2N(2m+1), 2m(N-2K)]] code and its ranks."""
    big_n = (1 << (2 * m)) - 1
    n = big_n * (4 * m + 2)
    rank_s = 2 * big_n * (m + 1) + 4 * m * big_k
    return {"n": n, "k": 2 * m * (big_n - 2 * big_k), "rank_s": rank_s,
            "rank_n": 2 * n - rank_s}


def code_name(m: int, big_k: int) -> str:
    return f"m{m}k{big_k}.code"


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class Step:
    """One operation: a CLI command, or the library counting check."""

    kind: str  # construct | verify | exact | sample | counting
    m: int
    big_k: int
    trials: int = 0
    mode: str = "exhaustive"  # counting only

    @property
    def metric(self) -> str:
        return STEP_METRIC[self.kind]

    @property
    def label(self) -> str:
        extra = f" trials={self.trials}" if self.trials else ""
        if self.kind == "counting":
            extra += f" mode={self.mode}"
        return f"{self.kind} m={self.m} K={self.big_k}{extra}"

    def argv(self, workdir, seed: int) -> list[str]:
        """Arguments after the program name (CLI or counting script)."""
        path = str(workdir / code_name(self.m, self.big_k))
        if self.kind == "construct":
            return ["construct", "--m", str(self.m), "--K",
                    str(self.big_k), "--out", path]
        if self.kind == "verify":
            return ["verify", path]
        if self.kind == "exact":
            return ["distance", path, "--method", "exact"]
        if self.kind == "sample":
            return ["distance", path, "--method", "sample", "--trials",
                    str(self.trials), "--seed", str(seed)]
        args = ["--m", str(self.m), "--K", str(self.big_k), "--mode",
                self.mode]
        if self.mode == "sampled":
            args += ["--trials", str(self.trials), "--seed", str(seed)]
        return args

    def check(self, code: int, stdout: str, workdir, seed: int) -> list[str]:
        """Problems with one operation's result; empty when it is correct."""
        if code != 0:
            return [f"exit code {code}"]
        lines = stdout.strip().splitlines()
        if not lines:
            return ["no output"]
        p = params(self.m, self.big_k)
        if self.kind == "construct":
            want = f"[[{p['n']},{p['k']}]] {p['rank_s']} {p['rank_n']}"
            errs = [] if lines[-1] == want else \
                [f"construct line {lines[-1]!r} != {want!r}"]
            digest = file_sha256(workdir / code_name(self.m, self.big_k))
            pinned = CODE_SHA256.get((self.m, self.big_k))
            if digest != pinned:
                errs.append(f"code file sha256 {digest} != pinned {pinned}")
            return errs
        if self.kind == "verify":
            return _check_verify(lines, self.m, p)
        if self.kind in ("exact", "sample"):
            return self._check_distance(lines[-1], p["n"], seed)
        return self._check_counting(lines[-1])

    def _check_distance(self, line: str, n: int, seed: int) -> list[str]:
        hit = _D_LINE.fullmatch(line)
        if hit is None:
            return [f"unparsable distance line {line!r}"]
        d, wit, enum, method, got_seed = hit.groups()
        d, wit, enum, got_seed = int(d), int(wit), int(enum), int(got_seed)
        if self.kind == "exact":
            want_d, want_enum = EXACT_D[(self.m, self.big_k)]
            want = (f"d={want_d} witness_weight={want_d} "
                    f"enumerated={want_enum} method=exact seed=0")
            return [] if line == want else [f"{line!r} != {want!r}"]
        errs = []
        if method != "sampled" or enum != self.trials or got_seed != seed:
            errs.append(f"sampled line {line!r} does not echo the request")
        if wit != d or not 1 <= d <= n:
            errs.append(f"sampled line {line!r}: need witness_weight == d "
                        f"and 1 <= d <= {n}")
        if seed == 0:
            want_d = SAMPLED_D_SEED0.get((self.m, self.big_k, self.trials))
            if want_d is not None and d != want_d:
                errs.append(f"sampled d={d} at seed 0 != pinned {want_d}")
        return errs

    def _check_counting(self, line: str) -> list[str]:
        # counting.py prints: passed=<bool> examined=<int> mode=<mode>
        hit = re.fullmatch(r"passed=(True|False) examined=(\d+) mode=(\w+)",
                           line)
        if hit is None:
            return [f"unparsable counting line {line!r}"]
        passed, examined = hit.group(1) == "True", int(hit.group(2))
        errs = [] if passed else ["counting claims did not pass"]
        want = COUNTING_EXAMINED.get((self.m, self.big_k, self.mode))
        if want is not None and examined != want:
            errs.append(f"examined={examined} != pinned {want}")
        if want is None and not 1 <= examined <= self.trials:
            errs.append(f"examined={examined} outside 1..{self.trials}")
        return errs


def _check_verify(lines: list[str], m: int, p: dict) -> list[str]:
    want_checks = VERIFY_CHECKS + (("block_injectivity",) if m <= 3 else ())
    got = [ln for ln in lines[:-1] if not ln.startswith(" ")]
    errs = []
    names = tuple(ln.split(":", 1)[0] for ln in got)
    if names != want_checks:
        errs.append(f"verify check lines {names} != {want_checks}")
    errs += [f"verify line {ln!r} does not read pass"
             for ln in got if not ln.endswith(": pass")]
    want_last = (f"[[{p['n']},{p['k']}]] rank_s={p['rank_s']} "
                 f"rank_n={p['rank_n']} => PASS")
    if lines[-1] != want_last:
        errs.append(f"verify last line {lines[-1]!r} != {want_last!r}")
    return errs


@dataclass(frozen=True)
class Workload:
    why: str
    setup: tuple[Step, ...]
    steps: tuple[Step, ...]


WORKLOADS = {
    "pipeline_m3": Workload(
        why="the user's unit of work at m=3 K=10: construct, verify "
            "(exhaustive block injectivity), sampled distance",
        setup=(),
        steps=(Step("construct", 3, 10), Step("verify", 3, 10),
               Step("sample", 3, 10, trials=20000))),
    "scale_m4": Workload(
        why="the m=4 K=0 scale target: construct and verify an 84 MB "
            "code file (duality, RREF check, text I/O)",
        setup=(),
        steps=(Step("construct", 4, 0), Step("verify", 4, 0))),
    "search_small": Workload(
        why="the distance layer alone: exact Gray scans, the sampler and "
            "the exhaustive counting check, on inputs written in set-up",
        setup=(Step("construct", 1, 1), Step("construct", 1, 0),
               Step("construct", 2, 3)),
        steps=(Step("exact", 1, 1), Step("exact", 1, 0),
               Step("sample", 2, 3, trials=100000),
               Step("counting", 1, 1, mode="exhaustive"))),
}

# The same three shapes on m=1 inputs, for the benchmark's own tests.
SMOKE_WORKLOADS = {
    "pipeline_m3": Workload(
        why="smoke shape of pipeline_m3",
        setup=(),
        steps=(Step("construct", 1, 1), Step("verify", 1, 1),
               Step("sample", 1, 1, trials=2000))),
    "scale_m4": Workload(
        why="smoke shape of scale_m4",
        setup=(),
        steps=(Step("construct", 1, 0), Step("verify", 1, 0))),
    "search_small": Workload(
        why="smoke shape of search_small",
        setup=(Step("construct", 1, 1), Step("construct", 1, 0)),
        steps=(Step("exact", 1, 1), Step("sample", 1, 0, trials=2000),
               Step("counting", 1, 1, mode="sampled", trials=5000))),
}
