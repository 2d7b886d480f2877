"""The repository benchmark: one workload through a fresh ``repro-service``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload noop_flood --seed 1 --seconds 20 --trace 0

Each run starts fresh daemons (``repro-service run`` defaults: journal,
transaction log and fair share on, memo off; two local workers whose
task slots total 2), drives the named workload through
``ServiceClient`` for ``--seconds``, checks every output, and stops
every daemon it started.  A workload with several sessions gives each
a fresh daemon and an equal share of ``--seconds``.

``--trace 0`` reports the end-to-end metrics, each the median over the
workload's sessions; ``setup_s`` is the median of their daemon
launches.
``--trace 1`` runs one session twice, untraced and then under the
layer-timing launcher, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced).

The report goes to standard output, one metric per line with its unit;
the last line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
#: session state directories live here, inside the checkout
WORK_DIR = ROOT / ".perfbench"

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"),
    ("makespan_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_latency_p50_s", "s"),
    ("task_latency_p95_s", "s"),
    ("manager_cpu_ms_per_task", "ms"),
    ("manager_rss_mb", "MiB"),
]


def _session_metrics(outcome, session, cpu_s: float) -> dict:
    """End-to-end metrics of one workload session (``setup_s`` aside)."""
    from layers import median, p95

    start, end = outcome.window
    in_window = sum(1 for t in outcome.completions if start <= t <= end)
    # per-round percentiles, then their median over rounds: a round that
    # a noisy neighbour slowed moves the rank, not the value
    rounds = [r for r in outcome.latencies if r]
    return {
        "makespan_s": median(outcome.makespans),
        "tasks_per_s": in_window / max(end - start, 1e-9),
        "task_latency_p50_s": median([median(r) for r in rounds]),
        "task_latency_p95_s": median([p95(r) for r in rounds]),
        "manager_cpu_ms_per_task": 1000.0 * cpu_s / max(1, outcome.completed()),
        "manager_rss_mb": session.peak_rss_mb(),
    }


def _run_session(workload, args, traced: bool, index: int = 0):
    """One daemon, one workload session; returns what the report needs."""
    from layers import read_artifacts
    from session import Session

    session = Session(WORK_DIR, SRC, workload.cores, traced=traced)
    try:
        clients = session.start(list(workload.tenants))
        cpu0 = session.cpu_s()
        outcome = workload.run(
            clients, args.seed, args.seconds / workload.sessions, index
        )
        metrics = _session_metrics(outcome, session, session.cpu_s() - cpu0)
        metrics["setup_s"] = session.setup_s
    finally:
        session.stop()
    try:
        artifacts = (
            read_artifacts(session.state_dir, session.spans_path) if traced else None
        )
    finally:
        session.remove()
    return outcome, metrics, artifacts


def _report_outcome(outcome) -> None:
    rate = outcome.failed / max(1, outcome.attempted)
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}  fail_rate {rate:.4f} ratio")
    print(
        f"  samples: {sum(map(len, outcome.latencies))} latencies, "
        f"{len(outcome.makespans)} rounds, {outcome.completed()} completions"
    )
    for error in outcome.errors:
        print(f"  error: {error}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "service" / "daemon.py").is_file():
        print(f"error: no repro sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} (have {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace == 0:
        sessions = []
        for index in range(workload.sessions):
            outcome, metrics, _ = _run_session(workload, args, traced=False, index=index)
            print(f"session {index}:")
            _report_outcome(outcome)
            sessions.append((outcome, metrics))
        metrics = {
            name: statistics.median(m[name] for _, m in sessions)
            for name, _ in END_TO_END
        }
        for name, unit in END_TO_END:
            print(f"  {name:<26} {metrics[name]:>12.6g} {unit}")
        result_metrics = {
            name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END
        }
        attempted = sum(o.attempted for o, _ in sessions)
        failed = sum(o.failed for o, _ in sessions)
    else:
        from layers import PER_LAYER, layer_metrics, predictions_for

        base, base_metrics, _ = _run_session(workload, args, traced=False)
        outcome, traced_metrics, artifacts = _run_session(workload, args, traced=True)
        print("untraced session:")
        _report_outcome(base)
        print("traced session:")
        _report_outcome(outcome)
        values = layer_metrics(artifacts, outcome, base_metrics, traced_metrics)
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<32} {values[name]:>14.6g} {unit}")
        print("predictions (perfbench/predictions.json):")
        for line in predictions_for(args.workload):
            print(line)
        result_metrics = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER
        }
        attempted = base.attempted + outcome.attempted
        failed = base.failed + outcome.failed
    print(f"  run took {time.monotonic() - started:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
