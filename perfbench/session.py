"""One benchmark session: a fresh ``repro-service run`` daemon and its clients.

A :class:`Session` owns a new state directory, launches the daemon with
its defaults (journal, transaction log and fair share on, memo off) and
two local workers, times set-up until both workers have joined and
every client is welcomed, and tears everything down with
``repro-service stop``.  After the stop it checks that no worker
process of the session and no listening port outlives it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

from repro.service import daemon
from repro.service.client import ServiceClient

WORKERS = 2
LAUNCHER = Path(__file__).resolve().with_name("launcher.py")
SETUP_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class HygieneError(RuntimeError):
    """A process or port of a finished session is still alive."""


class TimedClient(ServiceClient):
    """A :class:`ServiceClient` that stamps when each notice arrives.

    ``arrived[task_id]`` is the monotonic time the ``task_result``
    notice was read off the socket, whichever call happened to read it.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.arrived: dict[str, float] = {}
        super().__init__(*args, **kwargs)

    def _pump(self, wait: Optional[float] = None) -> bool:
        before = len(self.results)
        got = super()._pump(wait)
        if len(self.results) > before:
            self.arrived[next(reversed(self.results))] = time.monotonic()
        return got

    def poll(self, wait: float) -> None:
        """Read at most one message, waiting up to ``wait`` seconds."""
        self._pump(wait=max(0.0, wait))

    def take_results(self) -> list[tuple[dict, float]]:
        """Pop every buffered notice together with its arrival time."""
        out = [(notice, self.arrived.pop(tid)) for tid, notice in self.results.items()]
        self.results.clear()
        return out


class Session:
    """A daemon with a fresh state directory under ``root``."""

    def __init__(self, root: Path, src: Path, cores: int, traced: bool = False) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.state_dir = Path(tempfile.mkdtemp(prefix="session-", dir=root))
        self.src = src
        self.cores = cores
        self.spans_path = self.state_dir / "spans.json" if traced else None
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.clients: list[TimedClient] = []
        self.setup_s = 0.0

    # -- set-up ------------------------------------------------------------

    def start(self, tenants: list[str]) -> list[TimedClient]:
        """Launch the daemon and attach one client per tenant.

        ``setup_s`` runs from the launch until both workers' ``worker_join``
        records are in the transaction log and every client is welcomed.
        """
        argv = [sys.executable, str(LAUNCHER)]
        if self.spans_path is not None:
            argv += ["--spans", str(self.spans_path)]
        argv += [
            "run", "--state-dir", str(self.state_dir),
            "--workers", str(WORKERS), "--cores", str(self.cores),
        ]
        env = dict(os.environ, PYTHONPATH=str(self.src))
        started = time.monotonic()
        with open(self.state_dir / "daemon.out", "wb") as out:
            self.proc = subprocess.Popen(
                argv, env=env, stdout=out, stderr=subprocess.STDOUT
            )
        deadline = started + SETUP_TIMEOUT
        state_file = self.state_dir / daemon.STATE_FILE
        txn_log = self.state_dir / daemon.TXN_LOG
        state = None
        while state is None:
            self._check_alive(deadline)
            try:
                state = json.loads(state_file.read_text())
            except (OSError, ValueError):
                time.sleep(0.005)
        self.port = int(state["port"])
        while _count_joins(txn_log) < WORKERS:
            self._check_alive(deadline)
            time.sleep(0.005)
        self.clients = [
            TimedClient(state["host"], self.port, tenant) for tenant in tenants
        ]
        self.setup_s = time.monotonic() - started
        return self.clients

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited with {self.proc.returncode}: "
                f"{(self.state_dir / 'daemon.out').read_text()[-2000:]}"
            )
        if time.monotonic() > deadline:
            raise RuntimeError(f"daemon not ready within {SETUP_TIMEOUT}s")

    # -- readings from /proc -------------------------------------------------

    def cpu_s(self) -> float:
        """The daemon's user + system CPU seconds so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (VmHWM) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    # -- teardown ------------------------------------------------------------

    def stop(self) -> None:
        """``repro-service stop`` the daemon, then check nothing outlives it."""
        for client in self.clients:
            client.close()
        self.clients = []
        if self.proc is None:
            return
        if self.proc.poll() is None:
            # ``stop`` polls the pid until it is gone, and the daemon is
            # our child: reap it here while ``stop`` waits on a thread
            argv = ["stop", "--state-dir", str(self.state_dir),
                    "--timeout", str(STOP_TIMEOUT), "--quiet-missing"]
            with contextlib.redirect_stdout(io.StringIO()):
                stopper = threading.Thread(target=daemon.main, args=(argv,))
                stopper.start()
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
                stopper.join()
        self._check_hygiene()

    def _check_hygiene(self) -> None:
        leftovers = _worker_pids(str(self.state_dir))
        for pid in leftovers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        listening = self.port is not None and _port_listening(self.port)
        if leftovers or listening:
            raise HygieneError(
                f"session {self.state_dir.name} left workers {leftovers} "
                f"and port {self.port} listening={listening}"
            )

    def remove(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)
        # write the deletions back now, not during the next session's
        # journal fsyncs
        os.sync()


def _count_joins(txn_log: Path) -> int:
    try:
        return txn_log.read_text().count('"kind": "worker_join"')
    except OSError:
        return 0


def _worker_pids(state_dir: str) -> list[int]:
    """Pids of live ``repro.worker.cli`` processes serving ``state_dir``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                args = f.read().decode(errors="replace").split("\0")
        except OSError:
            continue
        if "repro.worker.cli" in args and any(a.startswith(state_dir) for a in args):
            pids.append(int(entry))
    return pids


def _port_listening(port: int) -> bool:
    """True if some socket still listens on ``port`` (IPv4 or IPv6)."""
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as f:
                rows = f.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if int(cols[1].rsplit(":", 1)[1], 16) == port and cols[3] == "0A":
                return True
    return False
