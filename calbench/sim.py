"""The simulator workloads: trace replay through the real engine.

``philly-mlfh``
    MLF-H in event cadence on the 550-server / 2,474-GPU Philly fleet,
    fed four synthetic-Philly slices of 300 jobs at the full trace's
    arrival density.  Few, expensive passes: placement and the shadow
    cluster's overload checks dominate them.

``sparse-mlfs``
    MLFS (MLF-H plus MLF-C with OptStop) on the production-default fixed
    cadence, replaying one 30-job sparse long-job trace on 40 x 4 GPUs.
    Many cheap passes; learning-curve fits dominate.  The work of a
    30-job sparse trace varies 2.6x between generator seeds (fit cost
    grows with each OptStop job's history), far more than any run length
    the time budget allows can average out, so this workload replays one
    fixed trace (generator and ``build_jobs`` seed 0) and ``--seed``
    drives the engine's random streams: accuracy-observation noise,
    which moves OptStop's decisions, and runtime-prediction noise.

A run replays its whole trace set again and again until ``--seconds``
have passed, at least twice and until at least 1,000 pass latencies
are collected, and aggregates whole set passes only, so the mix of work
does not depend on host speed.  Every replay builds its engine afresh
from the trace.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from calibrate import Calibrator
from layers import GcProbe, LayerProbe, layer_metrics, pass_shares, total_times
from report import Report
from repro.cluster.cluster import Cluster
from repro.schedulers import build_scheduler
from repro.sim.engine import EngineConfig, SimulationEngine
from repro.workload.generator import build_jobs
from repro.workload.synthetic import (
    PHILLY_DURATION_SECONDS,
    PHILLY_NUM_JOBS,
    PhillyLikeTraceGenerator,
    SyntheticTraceConfig,
    philly_cluster,
    philly_scale_config,
    sparse_trace_config,
)

_clock = time.perf_counter

#: Far enough out that every job of every trace completes.
MAX_TIME = 400 * 24 * 3600.0
#: Set-up-only rounds before the replays; with each replay pass's own
#: set-up they are the samples behind the ``setup_s`` median.
SETUP_ROUNDS = 5
#: Fewest whole passes over the trace set: the replay digests need two.
MIN_PASSES = 2
#: Fewest pass latencies: p99 must have at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 1_000

PHILLY_SLICE_JOBS = 300


@dataclass(frozen=True)
class SimWorkload:
    """One simulator workload: policy, cadence, cluster and trace shape."""

    scheduler: str
    pass_policy: str
    traces: int
    trace_config: Callable[[], SyntheticTraceConfig]
    cluster: Callable[[], Cluster]
    #: When set, every run replays the trace of this generator seed and
    #: ``--seed`` only seeds the engine.
    fixed_trace_seed: Optional[int] = None


def _philly_slice() -> SyntheticTraceConfig:
    # The full trace's arrival density: 117,325 jobs over 75 days.
    return philly_scale_config(
        num_jobs=PHILLY_SLICE_JOBS,
        duration_seconds=PHILLY_DURATION_SECONDS * PHILLY_SLICE_JOBS / PHILLY_NUM_JOBS,
    )


WORKLOADS: dict[str, SimWorkload] = {
    "philly-mlfh": SimWorkload(
        scheduler="MLF-H",
        pass_policy="event",
        traces=4,
        trace_config=_philly_slice,
        cluster=philly_cluster,
    ),
    "sparse-mlfs": SimWorkload(
        scheduler="MLFS",
        pass_policy="fixed",
        traces=1,
        trace_config=lambda: sparse_trace_config(num_jobs=30),
        cluster=lambda: Cluster.build(40, 4),
        fixed_trace_seed=0,
    ),
}


#: One trace of a set: (generator and ``build_jobs`` seed, engine seed).
TraceInputs = tuple[int, int]


def trace_inputs(seed: int, workload: SimWorkload) -> list[TraceInputs]:
    """The seeds of a run's trace set."""
    if workload.fixed_trace_seed is not None:
        return [(workload.fixed_trace_seed, seed)]
    return [(seed * 64 + index, seed * 64 + index) for index in range(workload.traces)]


@dataclass
class Replay:
    """The outcome of replaying one trace to completion."""

    jobs: int
    completed: int
    drained: bool
    digest: str
    jct_sum: float
    deadline_met: int
    accuracy_met: int
    bandwidth_gb: float


@dataclass
class SetPass:
    """One whole pass over the trace set, timed."""

    setup: Calibrator = field(default_factory=lambda: Calibrator(chunk_seconds=0.0))
    advances: Calibrator = field(default_factory=Calibrator)
    #: Per timed ``advance()``: whether it ran a scheduling pass.
    ticked: list[bool] = field(default_factory=list)
    generate_s: float = 0.0
    build_jobs_s: float = 0.0
    replays: list[Replay] = field(default_factory=list)


def set_up(workload: SimWorkload, inputs: TraceInputs, timed: SetPass) -> tuple[SimulationEngine, int]:
    """Generate the trace, build its jobs, cluster and engine (timed)."""
    trace_seed, engine_seed = inputs
    started = _clock()
    records = PhillyLikeTraceGenerator(
        config=workload.trace_config(), seed=trace_seed
    ).generate()
    generated = _clock()
    jobs = build_jobs(records, seed=trace_seed)
    built = _clock()
    engine = SimulationEngine(
        scheduler=build_scheduler(workload.scheduler),
        jobs=jobs,
        cluster=workload.cluster(),
        config=EngineConfig(
            seed=engine_seed, max_time=MAX_TIME, pass_policy=workload.pass_policy
        ),
    )
    timed.setup.add(_clock() - started)
    factor = timed.setup.factors[-1]
    timed.generate_s += (generated - started) / factor
    timed.build_jobs_s += (built - generated) / factor
    return engine, len(jobs)


def replay(engine: SimulationEngine, jobs: int, timed: SetPass) -> Replay:
    """Drive ``engine`` with ``advance()`` until the workload drains.

    Every ``advance()`` is timed into ``timed.advances``; the latency
    samples are those that ran a scheduling pass, which is what the
    daemon's ``step`` verb does.
    """
    engine.start()
    while True:
        started = _clock()
        result = engine.advance()
        elapsed = _clock() - started
        timed.advances.add(elapsed)
        timed.ticked.append(result.ticked)
        if result.drained or result.events_processed == 0:
            break
    metrics = engine.finalize()
    records = sorted(metrics.job_records, key=lambda r: r.job_id)
    digest = hashlib.sha256(
        "\n".join(f"{r.job_id} {r.jct!r}" for r in records).encode()
    ).hexdigest()
    return Replay(
        jobs=jobs,
        completed=len(records),
        drained=result.drained,
        digest=digest,
        jct_sum=sum(r.jct for r in records),
        deadline_met=sum(1 for r in records if r.met_deadline),
        accuracy_met=sum(1 for r in records if r.met_accuracy),
        bandwidth_gb=metrics.total_bandwidth_mb() / 1024.0,
    )


def run_set_pass(
    workload: SimWorkload, seeds: list[TraceInputs], collect: Callable[[], object]
) -> SetPass:
    """Set up and replay every trace of the set once."""
    timed = SetPass()
    for inputs in seeds:
        engine, jobs = set_up(workload, inputs, timed)
        # Every replay starts from the same collector state.
        collect()
        timed.replays.append(replay(engine, jobs, timed))
    timed.advances.flush()
    return timed


def outcomes(replays: list[Replay]) -> dict[str, float]:
    """The simulated outcomes of one set pass (pure functions of the seed)."""
    jobs = sum(r.completed for r in replays)
    return {
        "outcome.sim_jct_s": sum(r.jct_sum for r in replays) / jobs,
        "outcome.deadline_ratio": sum(r.deadline_met for r in replays) / jobs,
        "outcome.accuracy_ratio": sum(r.accuracy_met for r in replays) / jobs,
        "outcome.bandwidth_gb": sum(r.bandwidth_gb for r in replays),
    }


def _check(
    report: Report, set_pass: SetPass, seeds: list[TraceInputs], digests: dict[TraceInputs, str]
) -> None:
    """Every job completes; each trace's digest matches its first replay."""
    for inputs, rep in zip(seeds, set_pass.replays):
        report.attempted += rep.jobs
        if not rep.drained or rep.completed != rep.jobs:
            missing = rep.jobs - rep.completed
            report.failed += missing if missing > 0 else rep.jobs
            report.problems.append(
                f"trace {inputs}: {rep.completed}/{rep.jobs} jobs completed"
                f" (drained={rep.drained})"
            )
        elif digests.setdefault(inputs, rep.digest) != rep.digest:
            report.failed += rep.jobs
            report.problems.append(
                f"trace {inputs}: (job_id, JCT) digest differs between replays"
            )


def run(name: str, seed: int, seconds: float, trace: bool, report: Report) -> None:
    """Run one simulator workload and fill ``report``."""
    workload = WORKLOADS[name]
    seeds = trace_inputs(seed, workload)
    digests: dict[TraceInputs, str] = {}
    setup = Calibrator(chunk_seconds=0.0)
    for _ in range(SETUP_ROUNDS):
        timed = SetPass()
        for inputs in seeds:
            set_up(workload, inputs, timed)
        setup.extend(timed.setup)

    started = _clock()
    untraced: list[SetPass] = []
    traced: list[SetPass] = []
    probe: Optional[LayerProbe] = None
    gc_probe: Optional[GcProbe] = None
    try:
        while True:
            if trace and untraced and probe is None:
                probe, gc_probe = LayerProbe(), GcProbe()
            collect = gc_probe.collect if gc_probe is not None else gc.collect
            set_pass = run_set_pass(workload, seeds, collect)
            _check(report, set_pass, seeds, digests)
            (traced if probe is not None else untraced).append(set_pass)
            setup.extend(set_pass.setup)
            if _clock() - started < seconds:
                continue
            if trace:
                if traced:
                    break
            elif len(untraced) >= MIN_PASSES and sum(
                sum(p.ticked) for p in untraced
            ) >= MIN_LATENCY_SAMPLES:
                break
    finally:
        if probe is not None:
            probe.close()
        if gc_probe is not None:
            gc_probe.close()

    result = outcomes(untraced[0].replays)
    report.notes.append(
        f"trace set: {len(seeds)} trace(s) of {untraced[0].replays[0].jobs} jobs"
        f" ((generator, engine) seeds {seeds}); {len(untraced)} untraced and"
        f" {len(traced)} traced whole passes"
    )
    report.notes.append(
        "simulated outcomes: "
        + ", ".join(f"{k.split('.', 1)[1]} {v:.6g}" for k, v in result.items())
    )
    if not trace:
        busy = Calibrator()
        ticked: list[bool] = []
        for set_pass in untraced:
            busy.extend(set_pass.advances)
            ticked += set_pass.ticked
        latency = (
            [c for c, t in zip(busy.calibrated, ticked) if t],
            [r for r, t in zip(busy.raw, ticked) if t],
        )
        jobs = sum(r.completed for p in untraced for r in p.replays)
        report.host_time(jobs, busy, latency, setup, "jobs")
        return
    assert probe is not None and gc_probe is not None
    factor = statistics.median(f for p in traced for f in p.advances.factors)
    per_layer = layer_metrics(probe, gc_probe, len(traced), factor)
    per_layer["workload.generate_ms"] = statistics.median(p.generate_s for p in traced) * 1e3
    per_layer["workload.build_jobs_ms"] = statistics.median(p.build_jobs_s for p in traced) * 1e3
    per_layer["trace.overhead_ratio"] = statistics.median(
        sum(p.advances.calibrated) for p in traced
    ) / statistics.median(sum(p.advances.calibrated) for p in untraced)
    per_layer.update(result)
    report.per_layer = per_layer
    shares = pass_shares(probe)
    report.notes.append("total time per pass: " + total_times(probe, len(traced), factor))
    report.notes.append(
        "share of pass self time: "
        + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
    )
    report.notes.append(
        f"traced digests: {'equal to' if report.failed == 0 else 'NOT all equal to'} untraced"
    )
    report.notes.append(f"role: {role(name, shares, per_layer)}")


def role(name: str, shares: dict[str, float], per_layer: dict[str, float]) -> str:
    """Whether the traced run shows the layers the workload exists for."""
    largest = max(shares, key=shares.__getitem__)
    if name == "philly-mlfh":
        ok = largest == "core.placement + sim.shadow" and per_layer["learncurve.fit_calls"] == 0
        claim = "placement + shadow take the largest share; learncurve makes 0 calls"
    else:
        layer_ms = {k: v for k, v in per_layer.items() if k.endswith("_ms")}
        ok = max(layer_ms, key=layer_ms.__getitem__) == "learncurve.fit_ms"
        ok = ok and shares["core.placement + sim.shadow"] < 0.1
        claim = "learncurve.fit_ms is the largest layer; placement is under 10%"
    return f"{'confirmed' if ok else 'NOT confirmed'}: {claim}"
