"""Run one benchmark operation in this process and record what it cost.

    python3 perfbench/child.py <stats-file> cli <stabcat arguments...>
    python3 perfbench/child.py <stats-file> counting <counting.py arguments...>

``cli`` runs ``stabcat.cli`` exactly as ``python3 -m stabcat.cli`` does.
At exit a JSON object is written to ``<stats-file>``:

- ``peak_rss_kb``: the peak resident set of this process (``VmHWM`` in
  ``/proc/self/status``).  The parent's ``ru_maxrss`` from ``wait4``
  would not do: Linux carries the parent's own high-water mark into a
  child's ``ru_maxrss`` when the child calls exec, so every child would
  read at least as large as the benchmark process itself.
- ``probes``: the durations in seconds of :func:`probe_once`, run by a
  thread every ``PROBE_EVERY_S`` while the operation runs.  The probe is
  a fixed piece of work that the program cannot change, timed on the
  same core at the same moments as the program, so it shows how fast
  the host ran the operation (see ``run.py``, ``total_quiet_s``).
"""

from __future__ import annotations

import atexit
import json
import runpy
import sys
import threading
import time

PROBE_EVERY_S = 0.05

# Operands of the probe: wide ints, like packed GF(2) rows.
_PROBE_GENS = [(0x9E3779B97F4A7C15 * (i + 1)) ** 9 for i in range(10)]


def probe_once() -> float:
    """Seconds for a fixed Gray-code walk of wide-int XORs (0.15-0.3 ms)."""
    t = time.perf_counter()
    x = 0
    for idx in range(1, 1 << 10):
        x ^= _PROBE_GENS[(idx & -idx).bit_length() - 1]
        x.bit_count()
    return time.perf_counter() - t


class HostProbe(threading.Thread):
    """Times :func:`probe_once` at start, then every ``PROBE_EVERY_S``.

    The thread sleeps between probes, so it holds the GIL for about
    0.15 ms in every 50 ms of the operation.
    """

    def __init__(self) -> None:
        super().__init__(name="host-probe", daemon=True)
        self.samples: list[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        self.samples.append(probe_once())  # so a short operation has one
        while not self._done.wait(PROBE_EVERY_S):
            self.samples.append(probe_once())

    def stop(self) -> list[float]:
        self._done.set()
        self.join()
        return self.samples


def _peak_rss_kb() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return int(next(line.split()[1] for line in fh
                            if line.startswith("VmHWM:")))
    except (OSError, StopIteration):
        return None


def _write_stats(path: str, probe: HostProbe) -> None:
    stats = {"peak_rss_kb": _peak_rss_kb(), "probes": probe.stop()}
    with open(path, "w", encoding="ascii") as fh:
        json.dump(stats, fh)


def main() -> None:
    stats_path, entry, *args = sys.argv[1:]
    probe = HostProbe()
    probe.start()
    atexit.register(_write_stats, stats_path, probe)
    sys.argv = [entry, *args]
    if entry == "counting":
        import counting
        sys.exit(counting.main(args))
    runpy.run_module("stabcat.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
