"""The ``gateway-ingest`` workload: the service and gateway path alone.

A real gateway (its asyncio loop on a thread of this process) over two
worker daemons launched as ``python -m repro serve`` processes, with
``round_interval=0`` and ``gossip_interval=0`` so no scheduling pass and
no poll runs.  One connection sends a closed-loop stream of
``submit_batch`` calls of 100 seeded submissions each.

Every launch is fresh and sends the same fixed number of submissions, so
each run's timed phase sees the same number of garbage collections; the
whole process tree shares this process's single CPU, so the reference
loop run by the client between calls sees the speed every process of the
tree runs at.  Launches repeat until ``--seconds`` have passed and at
least 1,000 batches are timed.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from calibrate import Calibrator
from layers import GcProbe, LayerProbe, layer_metrics, total_times
from report import Report
from repro.gateway import GatewayConfig, ThreadedGateway
from repro.gateway.loadgen import generate_payloads
from repro.gateway.server import gateway_worker_configs
from repro.obs.distributed import analyze_trace
from repro.service.client import ServiceClient, ServiceError

_clock = time.perf_counter

WORKERS = 2
BATCH = 100
#: Submissions per launch (250 batches).
SUBMISSIONS_PER_LAUNCH = 25_000
MIN_BATCHES = 1_000
#: Admission outcomes a submission may end in.
DEFINITE = frozenset({"admitted", "queued", "rejected"})
#: Scratch space inside the checkout for worker sockets and logs.
RUN_DIR = Path(".calbench_run")
#: How often the readiness poller pings a worker that has not answered.
READY_POLL_SECONDS = 0.002


@dataclass
class Launch:
    """One fresh gateway launch and its timed submissions."""

    setup: Calibrator
    batches: Calibrator
    acknowledged: int
    lost: int
    duplicated: int
    per_partition: Counter
    statuses: Counter
    digest: str
    exit_codes: dict[int, Optional[int]]
    analysis: Optional[dict[str, Any]]


def launch(index: int, payloads: list[dict[str, Any]], traced: bool, collect: Any) -> Launch:
    """Launch the gateway, send every payload, shut down; time it all."""
    workdir = RUN_DIR / f"launch-{index}"
    config = GatewayConfig(
        workers=WORKERS,
        spawn="process",
        workdir=str(workdir),
        round_interval=0.0,
        gossip_interval=0.0,
        telemetry=False,
        trace=traced,
    )
    collect()
    gateway = ThreadedGateway(config)
    outcomes: dict[str, tuple[int, str]] = {}
    duplicated = 0
    analysis = None
    try:
        setup = Calibrator(chunk_seconds=0.0)
        started = _clock()
        setup.add(_launch(gateway, config) - started)
        batches = Calibrator(chunk_seconds=0.0)
        with ServiceClient(gateway.target, timeout=120.0) as client:
            for start in range(0, len(payloads), BATCH):
                batch = payloads[start : start + BATCH]
                started = _clock()
                results = client.submit_batch(batch)
                batches.add(_clock() - started)
                for result in results:
                    job_id = result.get("job_id")
                    if job_id in outcomes:
                        duplicated += 1
                    outcomes[job_id] = (result.get("partition", -1), result.get("status", ""))
            if traced:
                analysis = analyze_trace(client.trace_dump()["trace"])
    finally:
        gateway.__exit__(None, None, None)
        exit_codes = gateway.supervisor.exit_codes() if gateway.supervisor else {}
        shutil.rmtree(workdir, ignore_errors=True)
    expected = {p["job_id"] for p in payloads}
    digest = hashlib.sha256(
        "\n".join(f"{j} {p} {s}" for j, (p, s) in sorted(outcomes.items())).encode()
    ).hexdigest()
    return Launch(
        setup=setup,
        batches=batches,
        acknowledged=len(outcomes.keys() & expected),
        lost=len(expected - outcomes.keys()),
        duplicated=duplicated,
        per_partition=Counter(p for p, _ in outcomes.values()),
        statuses=Counter(s for _, s in outcomes.values()),
        digest=digest,
        exit_codes=exit_codes,
        analysis=analysis,
    )


def _launch(gateway: ThreadedGateway, config: GatewayConfig) -> float:
    """Start the gateway; return the clock when every worker answered ``ping``.

    The supervisor's own readiness probe backs off exponentially, which
    would round the launch time up to its next retry; a poller thread
    pings every worker every few milliseconds instead and the launch
    ends when the last one answers.
    """
    sockets = [c.socket_path for c in gateway_worker_configs(config)]
    ready_at: list[float] = []

    def poll() -> None:
        pending = list(sockets)
        while pending:
            for path in list(pending):
                try:
                    with ServiceClient(path, timeout=5.0, connect_retries=0) as client:
                        client.ping()
                    pending.remove(path)
                except (OSError, ServiceError):
                    pass
            time.sleep(READY_POLL_SECONDS)
        ready_at.append(_clock())

    poller = threading.Thread(target=poll, daemon=True)
    poller.start()
    try:
        gateway.__enter__()
    finally:
        poller.join(timeout=30.0)
    if not ready_at:
        raise RuntimeError("workers did not answer ping")
    return ready_at[0]


def _check(report: Report, timed: Launch, submissions: int, reference: Optional[str]) -> None:
    report.attempted += submissions
    indefinite = sum(n for status, n in timed.statuses.items() if status not in DEFINITE)
    bad = timed.lost + timed.duplicated + indefinite
    if bad:
        report.failed += bad
        report.problems.append(
            f"lost {timed.lost}, duplicated {timed.duplicated},"
            f" without a definite status {indefinite}"
        )
    elif reference is not None and timed.digest != reference:
        report.failed += submissions
        report.problems.append("per-worker outcomes differ between same-seed launches")
    unclean = {p: c for p, c in timed.exit_codes.items() if c != 0}
    if unclean:
        report.failed += 1
        report.problems.append(f"workers did not exit cleanly: {unclean}")


def run(name: str, seed: int, seconds: float, trace: bool, report: Report) -> None:
    """Run ``gateway-ingest`` and fill ``report``."""
    payloads = list(generate_payloads(SUBMISSIONS_PER_LAUNCH, seed=seed))
    started = _clock()
    launches: list[Launch] = []
    traced: list[Launch] = []
    probe: Optional[LayerProbe] = None
    gc_probe: Optional[GcProbe] = None
    reference: Optional[str] = None
    try:
        while True:
            if trace and launches and probe is None:
                # In-process simulator wrappers: none of them may fire.
                probe, gc_probe = LayerProbe(), GcProbe()
            collect = gc_probe.collect if gc_probe is not None else gc.collect
            timed = launch(len(launches) + len(traced), payloads, probe is not None, collect)
            _check(report, timed, len(payloads), reference)
            reference = reference or timed.digest
            (traced if probe is not None else launches).append(timed)
            if _clock() - started < seconds:
                continue
            if trace:
                if traced:
                    break
            elif sum(len(t.batches.raw) for t in launches) >= MIN_BATCHES and len(launches) >= 2:
                break
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        if probe is not None:
            probe.close()
        if gc_probe is not None:
            gc_probe.close()

    busy = Calibrator()
    setup = Calibrator()
    for timed in launches:
        busy.extend(timed.batches)
        setup.extend(timed.setup)
    acknowledged = sum(t.acknowledged for t in launches)
    if not trace:
        report.host_time(acknowledged, busy, (busy.calibrated, busy.raw), setup, "submissions")
    report.notes.append(
        f"{len(launches)} untraced + {len(traced)} traced launches of"
        f" {len(payloads)} submissions in batches of {BATCH};"
        f" statuses {dict(launches[0].statuses)};"
        f" per partition {dict(sorted(launches[0].per_partition.items()))}"
    )
    if not trace:
        return
    assert probe is not None and gc_probe is not None
    factor = statistics.median(f for t in traced for f in t.batches.factors)
    # The simulator layers' wrappers were installed too: every count is
    # a measured zero, because no scheduling pass runs in this process.
    report.per_layer = layer_metrics(probe, gc_probe, len(traced), factor)
    report.per_layer.update(gateway_layers(traced, launches, len(payloads), factor))
    report.notes.append(
        "wrapped simulator layers called in process: "
        + (total_times(probe, len(traced), factor) or "none")
    )
    quiet = (
        report.per_layer["service.sim_spans"] == 0
        and report.per_layer["engine.advance_calls"] == 0
        and report.per_layer["placement.candidate_servers_calls"] == 0
    )
    report.notes.append(
        f"role: {'confirmed' if quiet else 'NOT confirmed'}:"
        " the simulator layers make 0 calls (in process and in the workers' trace)"
    )


def gateway_layers(
    traced: list[Launch], untraced: list[Launch], submissions: int, factor: float
) -> dict[str, float]:
    """Service and gateway per-layer metrics from the merged cluster trace.

    Span times are calibrated with ``factor``, the traced launches'
    median calibration factor.
    """

    def median_of(category: str, stat: str) -> float:
        values = [
            t.analysis["categories"].get(category, {}).get(stat, 0.0)
            for t in traced
            if t.analysis is not None
        ]
        return statistics.median(values) / factor if values else 0.0

    first = traced[0]
    assert first.analysis is not None
    sim_spans = sum(
        first.analysis["categories"].get(c, {}).get("count", 0)
        for c in ("scheduler_round", "phase_priority", "phase_placement",
                  "phase_migration", "phase_load_control", "phase_rl_inference")
    )
    return {
        "service.worker_batch_ms_p50": median_of("worker_batch", "p50_ms"),
        "service.admission_ms_mean": median_of("worker_admission", "mean_ms"),
        "service.admission_ms_p99": median_of("worker_admission", "p99_ms"),
        "service.admitted_ratio": first.statuses["admitted"] / submissions,
        "service.sim_spans": float(sim_spans),
        "gateway.routing_ms_p50": median_of("gateway_routing", "p50_ms"),
        "gateway.forward_overhead_ms_p50": median_of("worker_queue", "p50_ms"),
        "gateway.forwards": float(first.analysis["forward_spans"]),
        "gateway.max_partition_share": max(first.per_partition.values()) / submissions,
        "trace.overhead_ratio": statistics.median(sum(t.batches.calibrated) for t in traced)
        / statistics.median(sum(t.batches.calibrated) for t in untraced),
    }
