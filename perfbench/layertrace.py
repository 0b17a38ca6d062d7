"""Per-layer tracing of stabcat, installed from outside the package.

The benchmark wraps the public functions of each layer at the name
through which the program looks them up (a module global such as
``stabcat.cli.is_rref`` or a class attribute such as
``stabcat.symplectic.Rref.add``), runs the CLI in process, and restores
the originals afterwards.  Nothing under ``src/`` is modified.

Spans are kept in memory, each with its parent.  Calls made many
thousands of times per command (``expand_block``, ``Rref.add``,
``in_span``) are aggregated by (parent span, name) into a count, a total
and a self time instead of one record each.  Every wrapped function also
belongs to a layer group; a group's time counts only its outermost
calls, so a group never double-counts its own nesting.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable

# layer group -> per-layer metric name for its inclusive time
GROUP_METRIC = {
    "field": "field.setup_s",
    "rs": "rs.pair_s",
    "expand": "concat.expand_s",
    "injectivity": "concat.injectivity_s",
    "rref": "symplectic.rref_insert_s",
    "is_rref": "symplectic.is_rref_s",
    "duality": "symplectic.duality_s",
    "in_span": "symplectic.in_span_s",
    "dumps": "codefile.dumps_s",
    "loads": "codefile.loads_s",
    "scan": "distance.scan_s",
    "sample": "distance.sample_s",
    "counting": "distance.counting_s",
}


class Tracer:
    """In-memory spans, hot-call aggregates, layer group times, counters."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        # (parent span id, name) -> [count, total_s, self_s]
        self.aggregates: dict[tuple[int, str], list] = {}
        self.groups: dict[str, float] = {g: 0.0 for g in GROUP_METRIC}
        self.counters: dict[str, int] = {}
        self.depth: dict[str, int] = {g: 0 for g in GROUP_METRIC}
        # open frames, innermost last; each is [seconds covered by children]
        self.stack: list[list[float]] = []
        self.current = 0  # id of the innermost open span, 0 at top level
        self._next_id = 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, group: str | None = None):
        return _Span(self, name, group)

    def wrap(self, fn: Callable, name: str, group: str, hot: bool,
             after: Callable | None = None) -> Callable:
        """Return ``fn`` timed as a span (or a hot aggregate) of ``group``."""
        perf = time.perf_counter
        stack = self.stack
        depth = self.depth
        groups = self.groups
        aggregates = self.aggregates
        tracer = self

        if hot:
            def wrapper(*args, **kwargs):
                outer = depth[group] == 0
                depth[group] += 1
                frame = [0.0]
                stack.append(frame)
                key = (tracer.current, name)
                t = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - t
                    stack.pop()
                    depth[group] -= 1
                    if stack:
                        stack[-1][0] += dur
                    if outer:
                        groups[group] += dur
                    agg = aggregates.get(key)
                    if agg is None:
                        aggregates[key] = [1, dur, dur - frame[0]]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                        agg[2] += dur - frame[0]
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                with _Span(tracer, name, group):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
        return wrapper

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "spans": self.spans,
            "aggregates": [
                {"parent": p, "name": n, "count": c, "total_s": t,
                 "self_s": s}
                for (p, n), (c, t, s) in sorted(self.aggregates.items())],
            "groups": dict(self.groups),
            "counters": dict(self.counters),
        }


class _Span:
    """One recorded span: name, parent, start, duration and self time."""

    __slots__ = ("tracer", "name", "group", "frame", "id", "parent", "t",
                 "outer", "record")

    def __init__(self, tracer: Tracer, name: str, group: str | None) -> None:
        self.tracer = tracer
        self.name = name
        self.group = group
        self.record: dict | None = None

    def __enter__(self) -> "_Span":
        tr = self.tracer
        if self.group is not None:
            self.outer = tr.depth[self.group] == 0
            tr.depth[self.group] += 1
        self.id = tr._next_id
        tr._next_id += 1
        self.parent = tr.current
        tr.current = self.id
        self.frame = [0.0]
        tr.stack.append(self.frame)
        self.t = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        dur = end - self.t
        tr = self.tracer
        tr.stack.pop()
        tr.current = self.parent
        if tr.stack:
            tr.stack[-1][0] += dur
        if self.group is not None:
            tr.depth[self.group] -= 1
            if self.outer:
                tr.groups[self.group] += dur
        self.record = {"id": self.id, "parent": self.parent,
                       "name": self.name, "start_s": self.t - tr.t0,
                       "dur_s": dur, "self_s": dur - self.frame[0]}
        tr.spans.append(self.record)


# ----------------------------------------------------------------------
# What is wrapped, and where the program looks it up
# ----------------------------------------------------------------------

def _count_rank(tr, args, kwargs, result):
    if result:  # Rref.add returns True when the row enlarged the span
        tr.count("symplectic.rank")


def _count_dumps(tr, args, kwargs, result):
    tr.count("codefile.bytes_written", len(result))


def _count_loads(tr, args, kwargs, result):
    tr.count("codefile.bytes_read", len(args[0]))


def _count_duality(tr, args, kwargs, result):
    tr.count("symplectic.products", result.n_products)


def _count_injectivity(tr, args, kwargs, result):
    tr.count("concat.injectivity_blocks")


def _count_scan(tr, args, kwargs, result):
    start, stop = args[3], args[4]
    tr.count("distance.combinations", stop - start)


def _count_sample(tr, args, kwargs, result):
    tr.count("distance.trials", result.enumerated)


def _count_counting(tr, args, kwargs, result):
    tr.count("distance.counting_examined", result.examined)


@dataclass(frozen=True)
class Patch:
    """One wrapped lookup: ``owner.attr`` becomes a traced ``name``."""

    module: str
    owner: str | None  # class name inside the module, or None for a global
    attr: str
    name: str
    group: str
    hot: bool = False
    after: Callable | None = None


PATCHES = (
    Patch("stabcat.concat", None, "build_field", "field.build_field",
          "field"),
    Patch("stabcat.concat", None, "find_self_dual_basis",
          "field.find_self_dual_basis", "field"),
    Patch("stabcat.cli", None, "Field", "field.Field", "field"),
    Patch("stabcat.codefile", None, "Field", "field.Field", "field"),
    Patch("stabcat.concat", None, "build_rs_pair", "rs.build_rs_pair", "rs"),
    Patch("stabcat.concat", None, "css_generators", "rs.css_generators",
          "rs"),
    Patch("stabcat.concat", "BlockExpander", "expand", "concat.expand",
          "expand", hot=True),
    Patch("stabcat.concat", "BlockExpander", "expand_block",
          "concat.expand_block", "expand", hot=True),
    Patch("stabcat.cli", None, "check_block_injectivity",
          "concat.check_block_injectivity", "injectivity",
          after=_count_injectivity),
    Patch("stabcat.symplectic", "Rref", "add", "symplectic.Rref.add",
          "rref", hot=True, after=_count_rank),
    Patch("stabcat.symplectic", None, "row_reduce", "symplectic.row_reduce",
          "rref"),
    Patch("stabcat.cli", None, "is_rref", "symplectic.is_rref", "is_rref"),
    Patch("stabcat.cli", None, "verify_duality", "symplectic.verify_duality",
          "duality", after=_count_duality),
    Patch("stabcat.symplectic", None, "in_span", "symplectic.in_span",
          "in_span", hot=True),
    Patch("stabcat.distance", None, "in_span", "symplectic.in_span",
          "in_span", hot=True),
    Patch("stabcat.codefile", None, "dumps", "codefile.dumps", "dumps",
          after=_count_dumps),
    Patch("stabcat.codefile", None, "loads", "codefile.loads", "loads",
          after=_count_loads),
    Patch("stabcat._distpure", None, "gray_scan", "distance.gray_scan",
          "scan", after=_count_scan),
    Patch("stabcat.cli", None, "sampled_distance_upper",
          "distance.sampled_distance_upper", "sample", after=_count_sample),
    Patch("stabcat.distance", None, "verify_counting_claims",
          "distance.verify_counting_claims", "counting",
          after=_count_counting),
)


class installed:
    """Context manager: wrap every ``PATCHES`` entry, restore on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for p in PATCHES:
            owner = importlib.import_module(p.module)
            if p.owner is not None:
                owner = getattr(owner, p.owner)
            original = owner.__dict__[p.attr]
            self.saved.append((owner, p.attr, original))
            setattr(owner, p.attr, self.tracer.wrap(
                original, p.name, p.group, p.hot, p.after))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
