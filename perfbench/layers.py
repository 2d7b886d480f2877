"""Per-layer metrics of a traced session.

Three sources, all read after the daemon has stopped:

* ``spans.json`` — span aggregates the launcher's wrappers recorded
  around each layer's public functions (see :mod:`tracing`);
* ``metrics.json`` — the manager's own final metrics snapshot;
* ``service.jsonl`` — the transaction log (transfers, placements).

Client-side layer numbers come from the workload's :class:`Outcome`.
Every metric is reported for every workload; a layer that did no work
on a workload reports 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from repro.service import daemon

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("journal.appends", "count", "lower"),
    ("journal.appends_per_task", "ratio", "lower"),
    ("journal.append_s", "s", "lower"),
    ("journal.compactions", "count", "lower"),
    ("journal.compact_s", "s", "lower"),
    ("journal.snapshot_bytes", "bytes", "lower"),
    ("control_plane.pump_calls", "count", "lower"),
    ("control_plane.pump_s", "s", "lower"),
    ("control_plane.submit_s", "s", "lower"),
    ("control_plane.result_s", "s", "lower"),
    ("scheduler.attempts", "count", "lower"),
    ("scheduler.choose_s", "s", "lower"),
    ("scheduler.placed_per_attempt", "ratio", "higher"),
    ("manager.sweeps", "count", "lower"),
    ("manager.sweep_s", "s", "lower"),
    ("service.requests", "count", "lower"),
    ("service.handle_s", "s", "lower"),
    ("service.deliver_s", "s", "lower"),
    ("protocol.frames_in", "count", "lower"),
    ("protocol.frames_out", "count", "lower"),
    ("protocol.decode_s", "s", "lower"),
    ("protocol.validate_s", "s", "lower"),
    ("protocol.batch_fill_mean", "count", "higher"),
    ("txnlog.events", "count", "lower"),
    ("txnlog.write_s", "s", "lower"),
    ("transfer.count", "count", "lower"),
    ("transfer.manager_bytes", "bytes", "lower"),
    ("transfer.peer_bytes", "bytes", "lower"),
    ("transfer.peer_share", "ratio", "higher"),
    ("transfer.wait_s", "s", "lower"),
    ("transfer.failures", "count", "lower"),
    ("worker.exec_s", "s", "lower"),
    ("worker.sandbox_s", "s", "lower"),
    ("worker.invoke_s", "s", "lower"),
    ("worker.cache_hit_rate", "ratio", "higher"),
    ("fetch.serves", "count", "lower"),
    ("fetch.bytes", "bytes", "lower"),
    ("fetch.retries", "count", "lower"),
    ("client.submit_rtt_s", "s", "lower"),
    ("client.fetch_s", "s", "lower"),
    ("client.gen_late_p95_s", "s", "lower"),
    ("self.journal_s", "s", "lower"),
    ("self.control_plane_s", "s", "lower"),
    ("self.scheduler_s", "s", "lower"),
    ("self.manager_s", "s", "lower"),
    ("self.service_s", "s", "lower"),
    ("self.protocol_s", "s", "lower"),
    ("self.txnlog_s", "s", "lower"),
    ("trace.untraced_tasks_per_s", "1/s", "higher"),
    ("trace.traced_tasks_per_s", "1/s", "higher"),
    ("trace.overhead_tasks_per_s", "1/s", "higher"),
    ("trace.untraced_cpu_ms_per_task", "ms", "lower"),
    ("trace.traced_cpu_ms_per_task", "ms", "lower"),
    ("trace.overhead_cpu_ms_per_task", "ms", "lower"),
]

#: transfer_end categories that are not staging transfers
_NOT_STAGING = ("@retrieve", "@fetch")
#: the manager's reactor thread (its top-level spans are sweep work)
_REACTOR_THREAD = "manager-reactor"


def read_artifacts(state_dir: Path, spans_path: Path) -> dict:
    """Load everything a traced session left in its state directory."""
    with open(spans_path) as f:
        spans = json.load(f)
    with open(state_dir / daemon.METRICS_FILE) as f:
        snapshot = json.load(f)["metrics"]
    events = []
    with open(state_dir / daemon.TXN_LOG) as f:
        for line in f:
            rec = json.loads(line)
            if not rec["kind"].startswith("@"):
                events.append(rec)
    snap = state_dir / daemon.JOURNAL_DIR / "snapshot.json"
    return {
        "spans": spans,
        "metrics": snapshot,
        "events": events,
        "snapshot_bytes": snap.stat().st_size if snap.exists() else 0,
    }


def _transfers(events: list[dict]) -> dict:
    started: dict[tuple, float] = {}
    count = manager_bytes = peer_bytes = failures = 0
    wait = 0.0
    for e in events:
        kind = e["kind"]
        if kind == "transfer_start":
            started[(e.get("worker"), e.get("file"))] = e["t"]
        elif kind == "transfer_failed":
            failures += 1
            started.pop((e.get("worker"), e.get("file")), None)
        elif kind == "transfer_end":
            source = e.get("category") or ""
            if source in _NOT_STAGING:
                continue
            count += 1
            size = int(e.get("size") or 0)
            if source == "@manager":
                manager_bytes += size
            elif not source.startswith("@") and not source.startswith("url:"):
                peer_bytes += size
            t0 = started.pop((e.get("worker"), e.get("file")), None)
            if t0 is not None:
                wait += e["t"] - t0
    moved = manager_bytes + peer_bytes
    return {
        "transfer.count": count,
        "transfer.manager_bytes": manager_bytes,
        "transfer.peer_bytes": peer_bytes,
        "transfer.peer_share": peer_bytes / moved if moved else 0.0,
        "transfer.wait_s": wait,
        "transfer.failures": failures,
    }


def _call_seconds(events: list[dict]) -> float:
    """Seconds function calls spent executing: ``task_start`` (inputs
    staged, invoke sent) to ``task_end``.  By-reference calls report no
    execution time of their own, so ``library.invoke_seconds`` in the
    manager's metrics stays empty for them.
    """
    started: dict[str, float] = {}
    total = 0.0
    for e in events:
        if e.get("category") != "function_call":
            continue
        if e["kind"] == "task_start":
            started[e["task"]] = e["t"]
        elif e["kind"] == "task_end" and e["task"] in started:
            total += e["t"] - started.pop(e["task"])
    return total


def median(samples: list[float]) -> float:
    """Median, or 0 when a layer or workload produced no samples."""
    return statistics.median(samples) if samples else 0.0


def p95(samples: list[float]) -> float:
    """95th percentile, or the only sample, or 0 without samples."""
    if len(samples) < 2:
        return median(samples)
    return statistics.quantiles(samples, n=20)[-1]


def layer_metrics(art: dict, outcome, untraced: dict, traced: dict) -> dict:
    """Every :data:`PER_LAYER` metric, as ``name -> value``.

    ``untraced``/``traced`` hold ``tasks_per_s`` and
    ``manager_cpu_ms_per_task`` of the two sessions of the run.
    """
    spans = art["spans"]["spans"]
    snap = art["metrics"]

    def span(name: str, key: str = "total_s") -> float:
        return spans.get(name, {}).get(key, 0)

    def layer_self(prefix: str) -> float:
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix + "."))

    def metric(name: str, key: str = "value") -> float:
        return snap.get(name, {}).get(key, 0)

    tasks = max(1, outcome.completed())
    placed = sum(
        1 for e in art["events"]
        if e["kind"] == "task_start" and e.get("category") != "library"
    )
    attempts = span("scheduler.choose_worker_indexed", "count")
    hits, misses = metric("cache.hits"), metric("cache.misses")
    sweep_s = metric("net.reactor_loop_seconds", "sum")
    reactor_spans = art["spans"]["top_level_s"].get(_REACTOR_THREAD, 0.0)
    out = {
        "journal.appends": span("journal.append", "count"),
        "journal.appends_per_task": span("journal.append", "count") / tasks,
        "journal.append_s": span("journal.append"),
        "journal.compactions": span("journal.compact", "count"),
        "journal.compact_s": span("journal.compact"),
        "journal.snapshot_bytes": art["snapshot_bytes"],
        "control_plane.pump_calls": span("control_plane.pump", "count"),
        "control_plane.pump_s": span("control_plane.pump"),
        "control_plane.submit_s": span("control_plane.submit"),
        "control_plane.result_s": (
            span("control_plane.on_task_result") + span("control_plane.complete_task")
        ),
        "scheduler.attempts": attempts,
        "scheduler.choose_s": span("scheduler.choose_worker_indexed"),
        "scheduler.placed_per_attempt": placed / attempts if attempts else 0.0,
        "manager.sweeps": metric("net.reactor_loop_seconds", "count"),
        "manager.sweep_s": sweep_s,
        "service.requests": span("service.handle_message", "count") + span("service.hello", "count"),
        "service.handle_s": span("service.handle_message") + span("service.hello"),
        "service.deliver_s": span("service.task_delivered"),
        "protocol.frames_in": metric("net.frames_in"),
        "protocol.frames_out": metric("net.frames_out"),
        "protocol.decode_s": span("protocol.next_item"),
        "protocol.validate_s": span("protocol.validate"),
        "protocol.batch_fill_mean": metric("net.batch_fill", "mean"),
        "txnlog.events": span("txnlog.write", "count"),
        "txnlog.write_s": span("txnlog.write"),
        **_transfers(art["events"]),
        "worker.exec_s": metric("task.execution_seconds", "sum"),
        "worker.sandbox_s": metric("task.sandbox_setup_seconds", "sum"),
        "worker.invoke_s": _call_seconds(art["events"]),
        "worker.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "fetch.serves": metric("fetch.serves"),
        "fetch.bytes": metric("fetch.bytes"),
        "fetch.retries": metric("fetch.retries"),
        "client.submit_rtt_s": median(outcome.submit_rtts),
        "client.fetch_s": median(outcome.fetches),
        "client.gen_late_p95_s": p95(outcome.gen_late),
        "self.journal_s": layer_self("journal"),
        "self.control_plane_s": layer_self("control_plane"),
        "self.scheduler_s": layer_self("scheduler"),
        # the reactor's sweeps minus the layer spans that ran inside them
        "self.manager_s": max(0.0, sweep_s - reactor_spans),
        "self.service_s": layer_self("service"),
        "self.protocol_s": layer_self("protocol"),
        "self.txnlog_s": layer_self("txnlog"),
        "trace.untraced_tasks_per_s": untraced["tasks_per_s"],
        "trace.traced_tasks_per_s": traced["tasks_per_s"],
        "trace.overhead_tasks_per_s": traced["tasks_per_s"] - untraced["tasks_per_s"],
        "trace.untraced_cpu_ms_per_task": untraced["manager_cpu_ms_per_task"],
        "trace.traced_cpu_ms_per_task": traced["manager_cpu_ms_per_task"],
        "trace.overhead_cpu_ms_per_task": (
            traced["manager_cpu_ms_per_task"] - untraced["manager_cpu_ms_per_task"]
        ),
    }
    return {name: out[name] for name, _, _ in PER_LAYER}


def predictions_for(workload: str) -> list[str]:
    """Lines naming, per layer, the end-to-end metrics it should move here."""
    with open(Path(__file__).with_name("predictions.json")) as f:
        layers = json.load(f)["layers"]
    lines = []
    for layer, entry in layers.items():
        moves = [m["metric"] for m in entry["moves"] if m["workload"] == workload]
        if moves:
            lines.append(f"  {layer}: should move {', '.join(moves)}")
        elif workload in entry["bypassed"]:
            lines.append(f"  {layer}: bypassed here; predicted no change")
    return lines
