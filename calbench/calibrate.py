"""Calibrated host time.

The host this benchmark runs on changes speed under the program: a fixed
pure-Python loop takes one of two clearly separated times, the host
switches between them within a second, and each CPU switches on its own.
Hardware instruction counters are not available, so time cannot be
replaced by a count.  Instead every timed call, or chunk of calls, is
bracketed by an allocation-free reference loop run on the same pinned
CPU just before and just after it, and the measured time is divided by
the reference loop's speed factor:

    factor      = reference_loop_seconds / REFERENCE_NOMINAL_SECONDS
    calibrated  = raw_seconds / mean(factor_before, factor_after)

A calibrated second is therefore "a second on a host running the
reference loop at its nominal speed".  The raw value is always reported
beside the calibrated one.

Run this file directly for the self-test: it times a fixed synthetic
workload in thirty short rounds and exits non-zero unless the spread of
the calibrated round medians is below that of the raw ones::

    python3 calbench/calibrate.py
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from itertools import repeat
from typing import Callable

import numpy as np

#: Iterations of the interpreter part of the reference loop.
REFERENCE_ITERATIONS = 8_000
#: Passes of the floating-point part over ``_REFERENCE_ARRAY``.
REFERENCE_FP_PASSES = 8
#: The reference loop's time at nominal host speed (the fast state of a
#: 2-vCPU x86-64 cloud VM running CPython 3.11 and NumPy 2.4).  Only a
#: unit: changing it rescales every calibrated number by the same
#: constant.
REFERENCE_NOMINAL_SECONDS = 250e-6
#: Close a chunk of timed calls once its raw time reaches this; the host
#: changes speed on a scale of a second, so a chunk sees one speed.
CHUNK_SECONDS = 0.02

_clock = time.perf_counter


def pin_to_one_cpu() -> int:
    """Pin this process (and every child it starts later) to one CPU.

    The highest-numbered allowed CPU is used so repeated runs land on the
    same core.  Returns the CPU id.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


_REFERENCE_ARRAY = np.linspace(0.1, 3.0, 4096)
_REFERENCE_OUT = np.empty_like(_REFERENCE_ARRAY)


def _reference_loop() -> int:
    # Two parts, both allocation-free: an interpreter loop (small ints
    # are cached and ``repeat`` yields one object) and vectorised
    # transcendental math written into a preallocated array.  The
    # workloads mix both kinds of work: on this host, calibrating with
    # the two together tracked them better than either part alone.
    x = 0
    for _ in repeat(None, REFERENCE_ITERATIONS):
        x ^= 1
    for _ in repeat(None, REFERENCE_FP_PASSES):
        np.exp(_REFERENCE_ARRAY, out=_REFERENCE_OUT)
    return x


def speed_factor() -> float:
    """One reference sample: >1 means the host is slower than nominal."""
    started = _clock()
    _reference_loop()
    return (_clock() - started) / REFERENCE_NOMINAL_SECONDS


class Calibrator:
    """Collects timed samples and calibrates them chunk by chunk.

    Feed raw durations with :meth:`add` right after each timed call;
    a reference sample is taken whenever the pending chunk reaches
    ``chunk_seconds`` of raw time, and every sample of the chunk is
    divided by the mean of the factors measured before and after it.
    Call :meth:`flush` after the last call.
    """

    def __init__(self, chunk_seconds: float = CHUNK_SECONDS) -> None:
        self.chunk_seconds = chunk_seconds
        self.raw: list[float] = []
        self.calibrated: list[float] = []
        #: One factor per closed chunk (mean of its two brackets).
        self.factors: list[float] = []
        self._pending: list[float] = []
        self._pending_sum = 0.0
        self._before = speed_factor()

    def add(self, raw_seconds: float) -> None:
        """Record one timed call's raw duration."""
        self._pending.append(raw_seconds)
        self._pending_sum += raw_seconds
        if self._pending_sum >= self.chunk_seconds:
            self.flush()

    def flush(self) -> None:
        """Close the pending chunk (a no-op when it is empty)."""
        if not self._pending:
            return
        after = speed_factor()
        factor = 0.5 * (self._before + after)
        self._before = after
        self.factors.append(factor)
        self.raw.extend(self._pending)
        self.calibrated.extend(raw / factor for raw in self._pending)
        self._pending = []
        self._pending_sum = 0.0

    def time(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` as one timed call; return its result."""
        started = _clock()
        result = fn()
        self.add(_clock() - started)
        return result

    def extend(self, other: "Calibrator") -> None:
        """Append another calibrator's closed samples and factors."""
        other.flush()
        self.raw.extend(other.raw)
        self.calibrated.extend(other.calibrated)
        self.factors.extend(other.factors)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# -- self-test ------------------------------------------------------------


def _synthetic_work() -> int:
    """A fixed, allocation-heavy mix: dicts, lists, floats and sorting."""
    table: dict[int, float] = {}
    for i in range(6_000):
        table[i] = (i * 0.5) ** 0.5
    items = sorted(table.items(), key=lambda kv: -kv[1])
    return len([k for k, v in items if v > 10.0])


def self_test(rounds: int = 30, per_round: int = 60) -> int:
    """Compare raw and calibrated run-to-run spread on a fixed loop.

    Each round times ``per_round`` back-to-back calls of the same
    synthetic work, like one benchmark run times its calls, and keeps
    the median; a short pause between rounds lets the host change speed
    as it does between runs.  Passes when the spread of the calibrated
    round medians is below that of the raw ones.
    """
    cpu = pin_to_one_cpu()
    raw_medians: list[float] = []
    calibrated_medians: list[float] = []
    factors: list[float] = []
    for _ in range(rounds):
        calibrator = Calibrator(chunk_seconds=0.0)
        for _ in range(per_round):
            calibrator.time(_synthetic_work)
        calibrator.flush()
        raw_medians.append(statistics.median(calibrator.raw))
        calibrated_medians.append(statistics.median(calibrator.calibrated))
        factors.extend(calibrator.factors)
        time.sleep(0.1)
    raw = relative_spread(raw_medians)
    calibrated = relative_spread(calibrated_medians)
    q1, q2, q3 = quartiles(factors)
    print(
        f"cpu {cpu}: {rounds} rounds x {per_round} calls of a fixed loop; "
        f"spread of round medians: raw {raw:.2%} "
        f"(median {statistics.median(raw_medians) * 1e3:.3f} ms), "
        f"calibrated {calibrated:.2%} "
        f"(median {statistics.median(calibrated_medians) * 1e3:.3f} ms); "
        f"factor q1/median/q3 {q1:.3f}/{q2:.3f}/{q3:.3f}"
    )
    if calibrated >= raw:
        print("FAIL: calibration did not reduce the spread", file=sys.stderr)
        return 1
    print("ok: calibrated spread is below raw spread")
    return 0


if __name__ == "__main__":
    sys.exit(self_test())
