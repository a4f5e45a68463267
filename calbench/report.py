"""Result assembly: metric values, the printed report and the JSON line."""

from __future__ import annotations

import json
import math
import resource
import statistics

from calibrate import Calibrator, quartiles
from layers import prediction_for, unit_for

#: Beyond-percentile samples a reported percentile must have.
MIN_BEYOND = 10


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the count of samples beyond it."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def peak_rss_mb() -> float:
    """Peak RSS of this process or of the largest child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Report:
    """Everything one run prints."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.end_to_end: dict[str, tuple[float, str]] = {}
        self.per_layer: dict[str, float] = {}
        #: Informational lines: sample counts, raw values, factors.
        self.notes: list[str] = []

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        """Record one end-to-end metric (calibrated where it is a time)."""
        self.end_to_end[name] = (value, unit)
        self.notes.append(f"{name:<16} {value:12.4f} {unit:<6} {note}".rstrip())

    def host_time(
        self,
        work: int,
        busy: Calibrator,
        latency: tuple[list[float], list[float]],
        setup: Calibrator,
        work_label: str,
    ) -> None:
        """The calibrated host-time metrics shared by every workload.

        ``busy`` holds every timed call that did the ``work`` units;
        ``latency`` the (calibrated, raw) times of the interactive calls
        behind the percentiles;
        ``setup`` one sample per set-up.
        """
        busy_cal, busy_raw = sum(busy.calibrated), sum(busy.raw)
        self.metric(
            "jobs_per_s",
            work / busy_cal,
            "1/s",
            f"(raw {work / busy_raw:.4f}; {work} {work_label} in {busy_cal:.3f} calibrated s)",
        )
        cal = sorted(latency[0])
        raw = sorted(latency[1])
        for q, name in ((50.0, "latency_ms_p50"), (99.0, "latency_ms_p99")):
            value, beyond = percentile(cal, q)
            raw_value, _ = percentile(raw, q)
            self.metric(
                name,
                value * 1e3,
                "ms",
                f"(raw {raw_value * 1e3:.4f}; {len(cal)} samples, {beyond} beyond)",
            )
            if q == 99.0 and beyond < MIN_BEYOND:
                self.problems.append(
                    f"{name}: only {beyond} samples beyond the percentile"
                )
        self.metric(
            "setup_s",
            statistics.median(setup.calibrated),
            "s",
            f"(raw {statistics.median(setup.raw):.4f}; median of {len(setup.calibrated)} set-ups)",
        )
        self.metric("peak_rss_mb", peak_rss_mb(), "MB")
        for label, calibrator in (("calls", busy), ("set-up", setup)):
            q1, q2, q3 = quartiles(calibrator.factors)
            self.notes.append(
                f"calibration factor ({label}): q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f}"
                f" over {len(calibrator.factors)} brackets"
            )

    def render(self) -> list[str]:
        """The human-readable lines printed before the JSON line."""
        lines = [f"workload {self.workload}  seed {self.seed}  trace {int(self.trace)}"]
        lines += ["  " + note for note in self.notes]
        if self.per_layer:
            lines.append(
                "  per-layer (per pass over the trace set or per launch)"
                "  | should move | where | should not move"
            )
            for name, value in self.per_layer.items():
                moves, where, still = prediction_for(name)
                lines.append(
                    f"  {name:<38} {value:14.4f}  | {moves} | {where} | {still}"
                )
        lines += [f"  CHECK FAILED: {problem}" for problem in self.problems]
        return lines

    def result(self) -> dict:
        """The final JSON object."""
        if self.trace:
            metrics = {
                name: {"value": value, "unit": unit_for(name)}
                for name, value in self.per_layer.items()
            }
        else:
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.end_to_end.items()
            }
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def emit(self) -> bool:
        """Print the report and, as the last line, the JSON result."""
        for line in self.render():
            print(line)
        result = self.result()
        print(json.dumps(result), flush=True)
        return bool(result["correct"])
