"""Run one workload of the repository's benchmark.

Usage, from the root of a checkout::

    python3 calbench/run.py --workload philly-mlfh --seed 1 --seconds 20 --trace 0

Prints a human-readable report and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  Exits 1 when a correctness check fails and 2 when the program's
sources are missing.  See ``calbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = Path.cwd() / "src"

WORKLOADS = ("philly-mlfh", "sparse-mlfs", "gateway-ingest")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"no program sources at {SRC_DIR}; run from the checkout root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]

    from calibrate import pin_to_one_cpu
    from layers import complete_per_layer
    from report import Report

    cpu = pin_to_one_cpu()
    report = Report(args.workload, args.seed, bool(args.trace))
    report.notes.append(f"pinned to cpu {cpu} with every child process")
    if args.workload == "gateway-ingest":
        import gateway as workload
    else:
        import sim as workload
    workload.run(args.workload, args.seed, args.seconds, bool(args.trace), report)
    if args.trace:
        report.per_layer = complete_per_layer(report.per_layer)
    return 0 if report.emit() else 1


if __name__ == "__main__":
    sys.exit(main())
