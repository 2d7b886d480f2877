"""The three benchmark workloads, driven through ``ServiceClient``.

Each workload takes the attached clients, the seed and the measuring
time, generates its inputs from the seed, checks every output it gets
back, and returns an :class:`Outcome` of raw samples.  The service only
ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import mapreduce_fns
from repro.service.client import ClientError

#: seconds without any notice after which a workload gives up
STALL_TIMEOUT = 60.0


@dataclass
class Outcome:
    """Raw samples of one workload run (times are ``time.monotonic``)."""

    #: tasks submitted, and those that failed, were refused or were wrong
    attempted: int = 0
    failed: int = 0
    #: first line of each distinct failure, for the report
    errors: list[str] = field(default_factory=list)
    #: arrival time of every completed task's notice
    completions: list[float] = field(default_factory=list)
    #: steady window for ``tasks_per_s``: (start, end) monotonic times
    window: tuple[float, float] = (0.0, 0.0)
    #: seconds from the first submit to the last verified output, per round
    makespans: list[float] = field(default_factory=list)
    #: per-task latency samples (seconds), one list per round (``noop_flood``
    #: has one); what they time is per workload
    latencies: list[list[float]] = field(default_factory=list)
    #: client round trips of submit/call requests (seconds)
    submit_rtts: list[float] = field(default_factory=list)
    #: client fetch/resolve durations (seconds)
    fetches: list[float] = field(default_factory=list)
    #: open-loop generator lateness: actual submit time minus due time
    gen_late: list[float] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(what.splitlines()[0][:200])

    def completed(self) -> int:
        return len(self.completions)


@dataclass(frozen=True)
class Workload:
    name: str
    #: one client connection per tenant (at most nproc connections)
    tenants: tuple[str, ...]
    #: cores per worker; the two workers' slots for tasks total 2
    cores: int
    #: ``run(clients, seed, seconds, session)`` drives one session
    run: Callable[[list, int, float, int], Outcome]
    #: daemon sessions per run, each given ``--seconds / sessions``; the
    #: run reports each metric's median over them
    sessions: int


def _rounds(seconds: float, round_s: float) -> int:
    """Rounds of a round-based workload: a fixed amount of work per run,
    so that no run's figures depend on where a deadline cut a round.
    """
    return max(1, round(seconds / round_s))


def _collect(client, outcome: Outcome, check) -> int:
    """Verify every buffered notice with ``check``; returns how many."""
    got = client.take_results()
    for notice, arrived in got:
        error = check(notice, arrived)
        if error is None:
            outcome.completions.append(arrived)
        else:
            outcome.fail(error)
    return len(got)


# ---------------------------------------------------------------------------
# noop_flood: control path under a deep queue, plus an open-loop probe
# ---------------------------------------------------------------------------

#: daemon sessions per run.  Each journal compaction snapshots every
#: task submitted so far and stalls the reactor for longer than the
#: last, and the probes due during a stall wait for its end.  In one
#: long session those stalls delayed 6-10% of the probes and p95 sat on
#: the steep edge of that tail, moving by a third between runs; sessions
#: a fifth as long keep the stalled probes to 1-3%, below p95
NOOP_SESSIONS = 4
#: flood tasks kept outstanding: a queue far deeper than the workers'
#: two slots, pre-loaded before the probe starts
FLOOD_BACKLOG = 500
#: after the pre-load the flood submits this many more tasks per second
#: of the session (about its share of what the two workers complete next
#: to the probe), topping its queue back up as tasks finish: a fixed
#: amount of work, so that compactions fall at the same journal sizes on
#: every run
FLOOD_RATE = 100
#: the flood tops its queue back up once this many of its tasks finished
FLOOD_CHUNK = 10
#: largest submit_dag request; the pre-load is split so work starts early
FLOOD_MAX_DAG = 200
#: probe arrivals per second, a small tenant next to the flood (about a
#: sixth of what the workers complete); each gap is the mean gap times a
#: seeded uniform factor in [0.5, 1.5).  Fair share gives the probe half
#: the slots; at 40/s a host running 1.6 times slower than usual pushed
#: the probe close to that half, and its p95 grew 2.5 times
PROBE_RATE = 25.0
#: the probe keeps its schedule through the flood's drain and stops once
#: fewer than this many flood tasks remain (the workers are still
#: saturated then): the session waits for the drain anyway, and probing
#: through it more than doubles the probe's samples
PROBE_STOP_BACKLOG = 100


class _Flood:
    """The flood tenant: keeps :data:`FLOOD_BACKLOG` trivial tasks queued
    until it has submitted ``total``, then drains, checking every
    notice."""

    def __init__(
        self, client, outcome: Outcome, lock: threading.Lock, total: int
    ) -> None:
        self.client = client
        self.outcome = outcome
        self.lock = lock
        self.total = total
        #: task id -> expected stdout
        self.expected: dict[str, str] = {}
        self.next_index = 0
        #: when the last of ``total`` was submitted
        self.all_submitted: Optional[float] = None

    def top_up(self) -> None:
        missing = min(
            FLOOD_BACKLOG - len(self.expected), self.total - self.next_index
        )
        for first in range(0, missing, FLOOD_MAX_DAG):
            self._submit(min(FLOOD_MAX_DAG, missing - first))
        if self.next_index == self.total and self.all_submitted is None:
            self.all_submitted = time.monotonic()

    def _submit(self, count: int) -> None:
        indices = range(self.next_index, self.next_index + count)
        self.next_index += count
        specs = [
            {"command": f"echo {i}; echo {i} > out", "outputs": ["out"]}
            for i in indices
        ]
        with self.lock:
            self.outcome.attempted += count
        try:
            replies = self.client.submit_dag(specs)
        except ClientError as exc:
            with self.lock:
                self.outcome.fail(f"flood submit refused: {exc}", count)
            return
        for i, reply in zip(indices, replies):
            self.expected[reply["task_id"]] = f"{i}\n"

    def _check(self, notice: dict, _arrived: float):
        want = self.expected.pop(notice["task_id"], None)
        if want is None:
            return f"unexpected notice {notice['task_id']}"
        if notice.get("state") != "done" or notice.get("exit_code") != 0:
            return f"flood task failed: {notice.get('failure')} {notice.get('output')!r}"
        if notice.get("output") != want:
            return f"flood task stdout {notice.get('output')!r} != {want!r}"
        return None

    def run(self) -> None:
        last_progress = time.monotonic()
        while True:
            left = self.total - self.next_index
            if left and FLOOD_BACKLOG - len(self.expected) >= min(FLOOD_CHUNK, left):
                self.top_up()
                continue
            if not self.expected:
                return
            self.client.poll(0.05)
            with self.lock:
                if _collect(self.client, self.outcome, self._check):
                    last_progress = time.monotonic()
                elif time.monotonic() - last_progress > STALL_TIMEOUT:
                    self.outcome.fail(
                        f"flood stalled with {len(self.expected)} outstanding",
                        len(self.expected),
                    )
                    return


def noop_flood(clients: list, seed: int, seconds: float, session: int) -> Outcome:
    """One tenant keeps a deep queue of trivial tasks until it has
    submitted a fixed number, sized from ``seconds``, then drains it; a
    second tenant sends one trivial task at a time on a seeded jittered
    schedule until the flood has nearly drained.

    Latency samples are the probe's, each timed from when it was due.
    The steady window for ``tasks_per_s`` runs from the end of the
    flood's pre-load until its last task is submitted.
    """
    flood_client, probe = clients
    outcome = Outcome()
    lock = threading.Lock()
    flood = _Flood(
        flood_client, outcome, lock, FLOOD_BACKLOG + round(seconds * FLOOD_RATE)
    )
    first_submit = time.monotonic()
    flood.top_up()
    start = time.monotonic()
    rng = random.Random(f"noop/{seed}/{session}")
    samples: list[float] = []
    outcome.latencies.append(samples)

    errors: list[BaseException] = []

    def flood_main() -> None:
        try:
            flood.run()
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    flooder = threading.Thread(target=flood_main, name="flood")
    flooder.start()
    expected: dict[str, tuple[str, float]] = {}

    def check(notice: dict, arrived: float):
        want, due = expected.pop(notice["task_id"], (None, 0.0))
        if want is None:
            return f"unexpected notice {notice['task_id']}"
        if notice.get("state") != "done" or notice.get("exit_code") != 0:
            return f"probe task failed: {notice.get('failure')}"
        if notice.get("output") != want:
            return f"probe stdout {notice.get('output')!r} != {want!r}"
        samples.append(arrived - due)
        return None

    def probing() -> bool:
        return flooder.is_alive() and len(flood.expected) >= PROBE_STOP_BACKLOG

    try:
        due = start
        for k in itertools.count():
            due += rng.uniform(0.5, 1.5) / PROBE_RATE
            while (now := time.monotonic()) < due:
                probe.poll(due - now)
                with lock:
                    _collect(probe, outcome, check)
            if not probing():
                break
            sent = time.monotonic()
            outcome.gen_late.append(sent - due)
            with lock:
                outcome.attempted += 1
            try:
                reply = probe.submit(f"echo {k}")
            except ClientError as exc:
                with lock:
                    outcome.fail(f"probe submit refused: {exc}")
                continue
            outcome.submit_rtts.append(time.monotonic() - sent)
            expected[reply["task_id"]] = (f"{k}\n", due)
        last_progress = time.monotonic()
        while expected and time.monotonic() - last_progress < STALL_TIMEOUT:
            probe.poll(0.25)
            with lock:
                if _collect(probe, outcome, check):
                    last_progress = time.monotonic()
        if expected:
            with lock:
                outcome.fail(f"probe stalled with {len(expected)} outstanding", len(expected))
    finally:
        flooder.join()
    if errors:
        raise errors[0]
    outcome.window = (start, flood.all_submitted or time.monotonic())
    outcome.makespans.append(max(outcome.completions, default=start) - first_submit)
    return outcome


# ---------------------------------------------------------------------------
# genome_fanout: shared multi-MB inputs read by many tasks, one fan-in
# ---------------------------------------------------------------------------

GENOME_BUFFERS = 2
GENOME_BUFFER_BYTES = 2 << 20
GENOME_TASKS = 48
#: a session does ``round(seconds / GENOME_ROUND_S)`` rounds
GENOME_ROUND_S = 1.8
#: daemon sessions per run
GENOME_SESSIONS = 3


def _genome_round(client, seed: int, round_no: int, outcome: Outcome) -> None:
    rng = random.Random(f"genome/{seed}/{round_no}")
    buffers = [rng.randbytes(GENOME_BUFFER_BYTES) for _ in range(GENOME_BUFFERS)]
    started = time.monotonic()
    names = [client.declare_buffer(b)["cache_name"] for b in buffers]
    specs = []
    lines = []
    for j in range(GENOME_TASKS):
        b = j % GENOME_BUFFERS
        specs.append(
            {
                "command": f"{{ echo {j}; cat in.dat; }} | sha256sum > h",
                "inputs": [["in.dat", names[b]]],
                "outputs": [["h", f"h{j}"]],
            }
        )
        lines.append(
            hashlib.sha256(f"{j}\n".encode() + buffers[b]).hexdigest() + "  -\n"
        )
    sandboxes = [f"h{j}" for j in range(GENOME_TASKS)]
    specs.append(
        {
            "command": f"cat {' '.join(sandboxes)} | sha256sum > final",
            "inputs": [[s, {"key": s}] for s in sandboxes],
            "outputs": ["final"],
        }
    )
    want_final = hashlib.sha256("".join(lines).encode()).hexdigest() + "  -\n"
    outcome.attempted += len(specs)
    sent = time.monotonic()
    try:
        replies = client.submit_dag(specs)
    except ClientError as exc:
        outcome.fail(f"genome submit refused: {exc}", len(specs))
        return
    outcome.submit_rtts.append(time.monotonic() - sent)
    pending = {r["task_id"] for r in replies}
    final_name = replies[-1]["outputs"]["final"]
    samples: list[float] = []
    outcome.latencies.append(samples)

    def check(notice: dict, arrived: float):
        if notice["task_id"] not in pending:
            return f"unexpected notice {notice['task_id']}"
        pending.discard(notice["task_id"])
        samples.append(arrived - sent)
        if notice.get("state") != "done" or notice.get("exit_code") != 0:
            return f"genome task failed: {notice.get('failure')} {notice.get('output')!r}"
        return None

    last_progress = time.monotonic()
    while pending:
        client.poll(0.25)
        if _collect(client, outcome, check):
            last_progress = time.monotonic()
        elif time.monotonic() - last_progress > STALL_TIMEOUT:
            outcome.fail(f"genome round stalled with {len(pending)} outstanding", len(pending))
            return
    fetch_started = time.monotonic()
    final = client.fetch(final_name).decode(errors="replace")
    outcome.fetches.append(time.monotonic() - fetch_started)
    if final != want_final:
        outcome.fail(f"genome fan-in digest {final!r} != {want_final!r}")
        return
    outcome.makespans.append(time.monotonic() - started)


def genome_fanout(clients: list, seed: int, seconds: float, _session: int) -> Outcome:
    """Rounds of: declare seeded shared buffers, submit a DAG of hash
    tasks over them plus one fan-in, fetch and check the fan-in digest.

    Latency samples time each DAG task from the DAG's submit.
    """
    (client,) = clients
    outcome = Outcome()
    start = time.monotonic()
    for round_no in range(_rounds(seconds, GENOME_ROUND_S)):
        _genome_round(client, seed, round_no, outcome)
    outcome.window = (start, time.monotonic())
    return outcome


# ---------------------------------------------------------------------------
# serverless_mapreduce: by-reference results, closed loop of calls
# ---------------------------------------------------------------------------

LIBRARY = "perfbench"
MAPS_PER_ROUND = 64
#: calls kept outstanding: one per call slot.  A journal compaction
#: stalls every outstanding call; with two of them the stalled calls stay
#: well under 5% of the samples, so p95 measures the calls themselves
MAP_WINDOW = 2
PART_BYTES = 64 << 10
#: a session does ``round(seconds / MAPREDUCE_ROUND_S)`` rounds
MAPREDUCE_ROUND_S = 1.8
#: daemon sessions per run
MAPREDUCE_SESSIONS = 3


def _mapreduce_round(client, seed: int, round_no: int, outcome: Outcome) -> None:
    started = time.monotonic()
    proxies: dict[int, object] = {}
    outstanding: dict[str, tuple[int, float]] = {}
    issued = 0
    samples: list[float] = []
    outcome.latencies.append(samples)

    def check(notice: dict, arrived: float):
        entry = outstanding.pop(notice["task_id"], None)
        if entry is None:
            return f"unexpected notice {notice['task_id']}"
        index, called = entry
        samples.append(arrived - called)
        if notice.get("state") != "done" or notice.get("exit_code") != 0:
            return f"map call failed: {notice.get('failure')} {notice.get('output')!r}"
        proxies[index] = client.result_proxy(notice)
        return None

    last_progress = time.monotonic()
    while issued < MAPS_PER_ROUND or outstanding:
        if issued < MAPS_PER_ROUND and len(outstanding) < MAP_WINDOW:
            called = time.monotonic()
            outcome.attempted += 1
            try:
                reply = client.call(LIBRARY, "part", seed, round_no, issued, PART_BYTES)
            except ClientError as exc:
                outcome.fail(f"map call refused: {exc}")
                issued += 1
                continue
            outcome.submit_rtts.append(time.monotonic() - called)
            outstanding[reply["task_id"]] = (issued, called)
            issued += 1
            continue
        client.poll(0.25)
        if _collect(client, outcome, check):
            last_progress = time.monotonic()
        elif time.monotonic() - last_progress > STALL_TIMEOUT:
            outcome.fail(f"maps stalled with {len(outstanding)} outstanding", len(outstanding))
            return
    if len(proxies) < MAPS_PER_ROUND:
        return  # failed maps were counted; no reduce over a partial set
    outcome.attempted += 1
    try:
        reply = client.call(LIBRARY, "digest", [proxies[i] for i in range(MAPS_PER_ROUND)])
        notice = client.wait(reply["task_id"], timeout=STALL_TIMEOUT)
    except ClientError as exc:
        outcome.fail(f"reduce call: {exc}")
        return
    if notice.get("state") != "done" or notice.get("exit_code") != 0:
        outcome.fail(f"reduce call failed: {notice.get('failure')}")
        return
    outcome.completions.append(client.arrived.pop(notice["task_id"]))
    resolve_started = time.monotonic()
    value = client.result_proxy(notice).resolve()
    outcome.fetches.append(time.monotonic() - resolve_started)
    want = mapreduce_fns.digest(
        [mapreduce_fns.part(seed, round_no, i, PART_BYTES) for i in range(MAPS_PER_ROUND)]
    )
    if value != want:
        outcome.fail(f"reduce value {value!r} != {want!r}")
        return
    outcome.makespans.append(time.monotonic() - started)


def serverless_mapreduce(
    clients: list, seed: int, seconds: float, _session: int
) -> Outcome:
    """Rounds of a closed loop of map calls (window :data:`MAP_WINDOW`)
    whose results stay at the workers, then one reduce over all of the
    round's proxies whose value the client resolves and checks.

    Latency samples time each map call from the start of ``call``.
    """
    (client,) = clients
    client.create_library(
        LIBRARY,
        {"part": mapreduce_fns.part, "digest": mapreduce_fns.digest},
        function_slots=1,
    )
    outcome = Outcome()
    start = time.monotonic()
    for round_no in range(_rounds(seconds, MAPREDUCE_ROUND_S)):
        _mapreduce_round(client, seed, round_no, outcome)
    outcome.window = (start, time.monotonic())
    return outcome


WORKLOADS = {
    w.name: w
    for w in (
        Workload("noop_flood", ("flood", "probe"), 1, noop_flood, NOOP_SESSIONS),
        Workload("genome_fanout", ("genome",), 1, genome_fanout, GENOME_SESSIONS),
        # a library instance holds one core of its worker; the second
        # core is the worker's single slot for calls
        Workload(
            "serverless_mapreduce", ("mapreduce",), 2, serverless_mapreduce,
            MAPREDUCE_SESSIONS,
        ),
    )
}
