"""One `repro serve --tcp` subprocess: spawn, warm, sample, scrape, stop.

The server runs from the checkout's own ``src`` tree. Untraced servers
run the real CLI (``python -m repro.cli serve``); traced servers run it
through ``perfbench/tracer.py``, which wraps public functions before
handing over to the same CLI entry point.

Resource figures come from ``/proc`` (psutil is not available): the
front-end pid plus every descendant (the shard processes), each read
for ``VmHWM`` and ``utime + stime``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from queue import Empty, Queue
from typing import Any, Optional

HOST = "127.0.0.1"
#: Seconds a server may take to announce its ports.
ANNOUNCE_TIMEOUT = 60.0
#: Seconds a drain may take before the process group is killed.
STOP_TIMEOUT = 30.0

_LISTEN = re.compile(r"listening on [0-9.]+:(\d+)\s*$")
_METRICS = re.compile(r"metrics on [0-9.]+:(\d+)\s*$")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server failed to start, answer or stop."""


class Server:
    """A `repro serve --tcp` process group with a metrics sidecar."""

    def __init__(
        self,
        root: Path,
        serve_args: tuple[str, ...],
        *,
        trace_dir: Optional[Path] = None,
        log_path: Optional[Path] = None,
    ) -> None:
        self.root = root
        self.serve_args = serve_args
        self.trace_dir = trace_dir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.metrics_port = 0
        self._log = None
        self._pump: Optional[threading.Thread] = None

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Spawn the server and wait until both ports are announced."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        serve = ["serve", "--tcp", f"{HOST}:0", "--metrics-port", "0",
                 *self.serve_args]
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            tracer = Path(__file__).resolve().parent / "tracer.py"
            argv = [sys.executable, str(tracer), "--out",
                    str(self.trace_dir), "--", *serve]
        self._log = (
            open(self.log_path, "ab") if self.log_path is not None
            else subprocess.DEVNULL
        )
        self.proc = subprocess.Popen(
            argv, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True, start_new_session=True,
        )
        lines: Queue = Queue()

        def pump() -> None:
            assert self.proc is not None and self.proc.stdout is not None
            for line in self.proc.stdout:
                lines.put(line)
            lines.put(None)

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        deadline = time.monotonic() + ANNOUNCE_TIMEOUT
        while not (self.port and self.metrics_port):
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except Empty:
                raise ServerError("server did not announce its ports") from None
            if line is None:
                raise ServerError(
                    f"server exited before announcing (status "
                    f"{self.proc.wait()})"
                )
            if match := _LISTEN.search(line.strip()):
                self.port = int(match.group(1))
            elif match := _METRICS.search(line.strip()):
                self.metrics_port = int(match.group(1))

    def stop(self) -> int:
        """Drain through the ``shutdown`` op; kill the group if it hangs."""
        if self.proc is None:
            return 0
        status = -1
        try:
            if self.proc.poll() is None:
                try:
                    request(self.port, {"schema": 2, "op": "shutdown",
                                        "id": "stop", "args": {}})
                except (OSError, ServerError, ValueError):
                    pass  # already gone; the wait below reports it
            status = self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        finally:
            self.kill()
        return status

    def kill(self) -> None:
        """Kill whatever is left of the process group and reap it."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:  # pragma: no cover
            pass
        # Shard processes are the front-end's children, not ours: wait
        # until no member of the group is left.
        deadline = time.monotonic() + STOP_TIMEOUT
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except (ProcessLookupError, PermissionError):
                break
            time.sleep(0.05)
        if self._pump is not None:
            self._pump.join(timeout=STOP_TIMEOUT)  # it reads stdout to EOF
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._log not in (None, subprocess.DEVNULL):
            self._log.close()
        self.proc = None

    # -- counters from outside ---------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The ``stats`` op's result block."""
        response = request(self.port, {"schema": 2, "op": "stats",
                                       "id": "bench-stats", "args": {}})
        if not response.get("ok"):
            raise ServerError(f"stats failed: {response.get('error')}")
        return response["result"]

    def scrape(self) -> dict[str, float]:
        """The ``/metrics`` exposition as ``{name{labels}: value}``."""
        conn = http.client.HTTPConnection(HOST, self.metrics_port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            body = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        samples: dict[str, float] = {}
        for line in body.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        return samples

    # -- /proc sampling ------------------------------------------------------
    def pids(self) -> list[int]:
        """The front-end pid and all its descendants."""
        assert self.proc is not None
        parents: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    stat = handle.read()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
        tree = [self.proc.pid]
        for pid in tree:
            tree.extend(child for child, ppid in parents.items() if ppid == pid)
        return tree

    def cpu_seconds(self, pids: Optional[list[int]] = None) -> float:
        """user + system CPU of ``pids`` (default: the server tree) so far."""
        total = 0
        for pid in self.pids() if pids is None else pids:
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])  # utime, stime
        return total / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server tree, in MiB."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0


def request(port: int, payload: dict[str, Any], timeout: float = 120.0
            ) -> dict[str, Any]:
    """One blocking request/response round trip on a fresh connection."""
    with socket.create_connection((HOST, port), timeout=timeout) as sock:
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        with sock.makefile("rb") as stream:
            line = stream.readline()
    if not line:
        raise ServerError(f"no response to {payload.get('op')}")
    return json.loads(line)
