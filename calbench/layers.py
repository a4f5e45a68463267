"""Per-layer timing for the traced run, from the benchmark's own code.

:class:`LayerProbe` replaces public methods of the program's classes with
wrappers that record call counts, total time and self time (total minus
the time of wrapped calls nested inside), and puts the originals back on
:meth:`LayerProbe.close`.  No file of the program changes.  A separate
:class:`GcProbe` reads collections and pauses through ``gc.callbacks``.

:data:`PREDICTIONS` is the written-down expectation of which end-to-end
metric each per-layer metric should move, and where it should not move;
``run.py`` prints it next to each number.
"""

from __future__ import annotations

import gc
import importlib
import time
from typing import Any, Callable, Optional

_clock = time.perf_counter

#: (module, class, method, layer name, timed).  Untimed targets only
#: count calls: ``ShadowCluster.would_overload`` runs hundreds of times
#: per placement, and timing it would distort the placement layer.
TARGETS: tuple[tuple[str, str, str, str, bool], ...] = (
    ("repro.sim.engine", "SimulationEngine", "advance", "engine.advance", True),
    ("repro.core.mlf_h", "MLFHScheduler", "on_schedule", "sched.on_schedule", True),
    ("repro.core.mlfs", "MLFSScheduler", "on_schedule", "sched.on_schedule", True),
    ("repro.core.placement", "PlacementEngine", "candidate_servers", "placement.candidate_servers", True),
    ("repro.core.placement", "PlacementEngine", "select_host", "placement.select_host", True),
    ("repro.sim.shadow", "ShadowCluster", "would_overload", "shadow.would_overload", False),
    ("repro.core.priority", "PriorityCalculator", "priorities", "priority.priorities", True),
    ("repro.core.overload", "MigrationSelector", "select", "overload.select", True),
    ("repro.sim.execution", "ExecutionModel", "iteration_duration", "execution.iteration_duration", True),
    ("repro.learncurve.optstop", "OptStopPolicy", "evaluate", "learncurve.evaluate", True),
    ("repro.learncurve.accuracy", "AccuracyPredictor", "predict", "learncurve.predict", False),
    ("repro.learncurve.ensemble", "CurveEnsemble", "fit", "learncurve.fit", True),
    ("repro.core.mlf_c", "MLFCController", "apply", "mlfc.apply", True),
    ("repro.cluster.cluster", "Cluster", "overload_degree", "cluster.overload_degree", True),
    ("repro.cluster.cluster", "Cluster", "overloaded_servers", "cluster.overloaded_servers", True),
)


class LayerStats:
    """Counters of one layer name."""

    __slots__ = ("calls", "total_s", "self_s", "items", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: Layer-specific work count (servers returned, jobs scored, ...).
        self.items = 0
        #: Layer-specific useful outcomes (hosts found, parked exits, ...).
        self.hits = 0


class LayerProbe:
    """Installs timing wrappers on :data:`TARGETS`; restores on close."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.events = 0
        self.live_servers = 0
        self._stack: list[float] = []
        self._patched: list[tuple[type, str, Any]] = []
        hooks: dict[str, Callable[[tuple, Any, LayerStats], None]] = {
            "engine.advance": self._after_advance,
            "placement.candidate_servers": self._after_candidates,
            "placement.select_host": _count_found,
            "priority.priorities": _count_scored,
        }
        for module_name, class_name, attr, layer, timed in TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._install(owner, attr, layer, timed, hooks.get(layer))

    def _install(
        self,
        owner: type,
        attr: str,
        layer: str,
        timed: bool,
        hook: Optional[Callable[[tuple, Any, LayerStats], None]],
    ) -> None:
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        function = original.__func__ if is_classmethod else original
        stats = self.stats.setdefault(layer, LayerStats())
        stack = self._stack

        if timed:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stack.append(0.0)
                started = _clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    elapsed = _clock() - started
                    nested = stack.pop()
                    stats.calls += 1
                    stats.total_s += elapsed
                    stats.self_s += elapsed - nested
                    if stack:
                        stack[-1] += elapsed
                if hook is not None:
                    hook(args, result, stats)
                return result

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stats.calls += 1
                return function(*args, **kwargs)

        wrapper.__name__ = getattr(function, "__name__", attr)
        wrapper.__doc__ = function.__doc__
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patched.append((owner, attr, original))

    def close(self) -> None:
        """Put every original method back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- per-layer hooks -------------------------------------------------

    def _after_advance(self, args: tuple, result: Any, stats: LayerStats) -> None:
        engine = args[0]
        self.events += result.events_processed
        stats.items += 1 if result.ticked else 0
        stats.hits += 1 if engine.parked else 0

    def _after_candidates(self, args: tuple, result: Any, stats: LayerStats) -> None:
        shadow = args[2] if len(args) > 2 else None
        stats.items += len(result)
        if shadow is not None:
            self.live_servers += sum(1 for s in shadow.cluster.servers if not s.failed)


def _count_found(args: tuple, result: Any, stats: LayerStats) -> None:
    stats.hits += 1 if result is not None else 0


def _count_scored(args: tuple, result: Any, stats: LayerStats) -> None:
    stats.items += len(args[1])


class GcProbe:
    """Counts collections and their pauses through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.gen2_collections = 0
        self.pause_s = 0.0
        self._started = 0.0
        self._explicit = False
        gc.callbacks.append(self._callback)

    def collect(self) -> None:
        """A full collection the benchmark asks for; not counted."""
        self._explicit = True
        try:
            gc.collect()
        finally:
            self._explicit = False

    def _callback(self, phase: str, info: dict[str, int]) -> None:
        if self._explicit:
            return
        if phase == "start":
            self._started = _clock()
            return
        self.pause_s += _clock() - self._started
        if info.get("generation") == 2:
            self.gen2_collections += 1

    def close(self) -> None:
        """Unregister the callback."""
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)


def layer_metrics(probe: LayerProbe, gc_probe: GcProbe, passes: int, factor: float) -> dict[str, float]:
    """The simulator per-layer metrics, per pass over the trace set.

    Times are self times in calibrated milliseconds (``factor`` is the
    run's median calibration factor); counts are per trace-set pass.
    """
    stats = probe.stats

    def ms(layer: str) -> float:
        return stats[layer].self_s / factor / passes * 1e3

    def calls(layer: str) -> float:
        return stats[layer].calls / passes

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    candidates = stats["placement.candidate_servers"]
    select = stats["placement.select_host"]
    advance = stats["engine.advance"]
    predicts = stats["learncurve.predict"].calls
    return {
        "placement.candidate_servers_ms": ms("placement.candidate_servers"),
        "placement.candidate_servers_calls": calls("placement.candidate_servers"),
        "placement.prune_ratio": ratio(candidates.items, probe.live_servers),
        "placement.select_host_ms": ms("placement.select_host"),
        "placement.host_found_ratio": ratio(select.hits, select.calls),
        "shadow.would_overload_calls": calls("shadow.would_overload"),
        "shadow.would_overload_per_placement": ratio(
            stats["shadow.would_overload"].calls, candidates.calls
        ),
        "priority.priorities_ms": ms("priority.priorities"),
        "priority.jobs_scored": stats["priority.priorities"].items / passes,
        "overload.select_ms": ms("overload.select"),
        "overload.select_calls": calls("overload.select"),
        "execution.iteration_duration_ms": ms("execution.iteration_duration"),
        "execution.iteration_duration_calls": calls("execution.iteration_duration"),
        "learncurve.evaluate_ms": ms("learncurve.evaluate"),
        "learncurve.predict_calls": predicts / passes,
        "learncurve.fit_ms": ms("learncurve.fit"),
        "learncurve.fit_calls": calls("learncurve.fit"),
        "learncurve.fits_per_predict": ratio(stats["learncurve.fit"].calls, predicts),
        "mlfc.apply_self_ms": ms("mlfc.apply"),
        "cluster.overload_degree_calls": calls("cluster.overload_degree"),
        "cluster.overload_degree_ms": ms("cluster.overload_degree"),
        "cluster.overloaded_servers_ms": ms("cluster.overloaded_servers"),
        "engine.passes": advance.items / passes,
        "engine.advance_calls": advance.calls / passes,
        "engine.events": probe.events / passes,
        "engine.parked_share": ratio(advance.hits, advance.calls),
        "engine.advance_self_ms": ms("engine.advance"),
        "engine.self_us_per_event": ratio(advance.self_s / factor * 1e6, probe.events),
        "sched.on_schedule_self_ms": ms("sched.on_schedule"),
        "gc.gen2_collections": gc_probe.gen2_collections / passes,
        "gc.pause_ms": gc_probe.pause_s / factor / passes * 1e3,
    }


def total_times(probe: LayerProbe, passes: int, factor: float) -> str:
    """One line: each called layer's calls and total (not self) time."""
    return ", ".join(
        f"{layer} {stats.calls / passes:.0f} calls {stats.total_s / factor / passes * 1e3:.1f} ms"
        for layer, stats in probe.stats.items()
        if stats.calls
    )


#: Layers whose self time makes up a scheduling pass, for the role check.
PASS_LAYERS: dict[str, tuple[str, ...]] = {
    "core.placement + sim.shadow": ("placement.candidate_servers", "placement.select_host"),
    "core.priority": ("priority.priorities",),
    "core.overload": ("overload.select",),
    "sim.execution": ("execution.iteration_duration",),
    "learncurve": ("learncurve.evaluate", "learncurve.fit"),
    "core.mlf_c": ("mlfc.apply",),
    "cluster": ("cluster.overload_degree", "cluster.overloaded_servers"),
    "sim.engine": ("engine.advance", "sched.on_schedule"),
}


def pass_shares(probe: LayerProbe) -> dict[str, float]:
    """Each layer group's share of the self time spent in scheduling passes."""
    totals = {
        group: sum(probe.stats[layer].self_s for layer in layers)
        for group, layers in PASS_LAYERS.items()
    }
    whole = sum(totals.values())
    return {group: (t / whole if whole else 0.0) for group, t in totals.items()}


#: per-layer metric prefix -> (end-to-end metric it should move, where,
#: where it should not move).
PREDICTIONS: dict[str, tuple[str, str, str]] = {
    "placement.": ("jobs_per_s, latency_ms_p50/p99", "philly-mlfh", "sparse-mlfs: ~0"),
    "shadow.": ("jobs_per_s", "philly-mlfh", "-"),
    "priority.": ("latency_ms_p50", "philly-mlfh", "-"),
    "overload.": ("latency_ms_p99", "philly-mlfh", "-"),
    "execution.": ("jobs_per_s", "philly-mlfh", "-"),
    "learncurve.": ("jobs_per_s, latency_ms_p99", "sparse-mlfs", "philly-mlfh: 0 calls"),
    "mlfc.": ("jobs_per_s", "sparse-mlfs", "-"),
    "cluster.": ("jobs_per_s", "sparse-mlfs", "-"),
    "engine.": ("jobs_per_s; latency_ms_p50", "sparse-mlfs; both simulator workloads", "-"),
    "sched.": ("latency_ms_p50", "both simulator workloads", "-"),
    "workload.": ("setup_s", "both simulator workloads", "-"),
    "gc.": ("latency_ms_p99", "simulator workloads", "-"),
    "service.": ("jobs_per_s, latency_ms_p50/p99", "gateway-ingest", "simulator workloads"),
    "gateway.": ("jobs_per_s, latency_ms_p50/p99", "gateway-ingest", "simulator workloads"),
    "trace.": ("(tracing cost, not a layer)", "-", "-"),
    "outcome.": ("(simulated outcome; a pure function of the seed)", "-", "-"),
}


#: Every per-layer metric, in report order.  A workload reports a
#: measured zero for a layer it does not run.
PER_LAYER_METRICS: tuple[str, ...] = (
    "placement.candidate_servers_ms",
    "placement.candidate_servers_calls",
    "placement.prune_ratio",
    "placement.select_host_ms",
    "placement.host_found_ratio",
    "shadow.would_overload_calls",
    "shadow.would_overload_per_placement",
    "priority.priorities_ms",
    "priority.jobs_scored",
    "overload.select_ms",
    "overload.select_calls",
    "execution.iteration_duration_ms",
    "execution.iteration_duration_calls",
    "learncurve.evaluate_ms",
    "learncurve.predict_calls",
    "learncurve.fit_ms",
    "learncurve.fit_calls",
    "learncurve.fits_per_predict",
    "mlfc.apply_self_ms",
    "cluster.overload_degree_calls",
    "cluster.overload_degree_ms",
    "cluster.overloaded_servers_ms",
    "engine.passes",
    "engine.advance_calls",
    "engine.events",
    "engine.parked_share",
    "engine.advance_self_ms",
    "engine.self_us_per_event",
    "sched.on_schedule_self_ms",
    "workload.generate_ms",
    "workload.build_jobs_ms",
    "gc.gen2_collections",
    "gc.pause_ms",
    "service.worker_batch_ms_p50",
    "service.admission_ms_mean",
    "service.admission_ms_p99",
    "service.admitted_ratio",
    "service.sim_spans",
    "gateway.routing_ms_p50",
    "gateway.forward_overhead_ms_p50",
    "gateway.forwards",
    "gateway.max_partition_share",
    "trace.overhead_ratio",
    "outcome.sim_jct_s",
    "outcome.deadline_ratio",
    "outcome.accuracy_ratio",
    "outcome.bandwidth_gb",
)


def complete_per_layer(measured: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric in report order; zero where not measured."""
    unknown = set(measured) - set(PER_LAYER_METRICS)
    if unknown:
        raise KeyError(f"per-layer metrics missing from PER_LAYER_METRICS: {sorted(unknown)}")
    return {name: float(measured.get(name, 0.0)) for name in PER_LAYER_METRICS}


#: Units of the per-layer metrics that are neither times nor counts.
_UNITS = {
    "trace.overhead_ratio": "ratio",
    "outcome.sim_jct_s": "s",
    "outcome.bandwidth_gb": "GB",
}


def unit_for(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric in _UNITS:
        return _UNITS[metric]
    if metric.endswith("_us_per_event"):
        return "us"
    if metric.endswith("_ms") or "_ms_" in metric:
        return "ms"
    if metric.endswith(("_ratio", "_share", "_per_placement", "_per_predict")):
        return "ratio"
    return "count"


def prediction_for(metric: str) -> tuple[str, str, str]:
    """The prediction row of a per-layer metric name."""
    for prefix, row in PREDICTIONS.items():
        if metric.startswith(prefix):
            return row
    return ("-", "-", "-")
