"""Machine-speed probes and drift correction.

Two probes, neither touching the library's code, so no change to the
library can move them:

  CPU    a fixed piece of in-process work written with the standard library
         only: Fraction arithmetic, dict and tuple building, and sorting,
         the same kinds of work the library does.  It corrects in-process
         op times.
  START  a bare interpreter start, `python -c pass`.  It corrects the times
         of child processes (cli ops, set-up time), whose cost is mostly
         process start-up that the CPU probe does not track.

A probe runs between consecutive ops.  An op's time is multiplied by
reference / (median of the neighbouring probes), which reports it at the
speed the machine had when the reference was recorded.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Median probe times on the machine the reference figures were recorded on
# (2-core x86-64 container, Python 3.11.7).  A corrected time is
# raw_time * reference / probe_time_at_that_moment; to convert a corrected
# time back to wall time on the current machine, multiply it by
# (current probe median / reference).
REFERENCE_PROBE_MS = 3.0
REFERENCE_START_MS = 70.0

# Probes on each side of an operation whose median gives its correction.
WINDOW = 2


def probe_work() -> int:
    """The fixed CPU probe workload; returns a checksum so nothing is skipped.

    Its working set (a few hundred dict entries, Fractions and tuples) is
    of the size the library's sparse polynomials reach, so cache and memory
    contention slow it about as much as they slow the ops.
    """
    acc: dict[tuple[int, int, int], Fraction] = {}
    for i in range(350):
        key = ((i * 7919) % 701, (i * 31) % 97, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 17 + 1, i % 11 + 2)
    items = sorted(acc.items())
    mono = sorted(tuple(sorted(((j * i) % 13, j % 4) for j in range(8)))
                  for i in range(150))
    return len(items) + len(mono) + items[0][1].denominator


def probe() -> float:
    """Run the probe once; returns its wall time in seconds."""
    start = time.perf_counter()
    probe_work()
    return time.perf_counter() - start


def start_probe() -> float:
    """Start and finish a bare interpreter; returns the wall time in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def corrections(probes: list[float], count: int, reference_ms: float) -> list[float]:
    """Correction factor for each of `count` operations.

    probes[i] ran just before operation i and probes[count] after the last
    one, so operation i sits between probes i and i + 1.  Its factor uses
    the median of the probes within WINDOW positions on either side.
    """
    if len(probes) != count + 1:
        raise ValueError("need one probe before each operation and one after")
    reference = reference_ms / 1000.0
    out = []
    for i in range(count):
        lo = max(0, i + 1 - WINDOW)
        hi = min(len(probes), i + 1 + WINDOW)
        out.append(reference / statistics.median(probes[lo:hi]))
    return out


@dataclass(frozen=True)
class Probe:
    name: str
    run: Callable[[], float]
    reference_ms: float

    def corrections(self, probes: list[float], count: int) -> list[float]:
        return corrections(probes, count, self.reference_ms)


CPU = Probe("cpu", probe, REFERENCE_PROBE_MS)
START = Probe("start", start_probe, REFERENCE_START_MS)
