"""Spawn, probe and stop one ``python -m repro.service`` process."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent


class ServiceError(RuntimeError):
    """The service failed to start, answer or stop."""


def last_cpu() -> int:
    """The highest-numbered CPU this process may run on."""
    return max(os.sched_getaffinity(0))


class SpeedProbe:
    """Times the probe kernel every ``interval`` seconds on one CPU, from a background thread.

    Pinned to the service's CPU, the probes see that CPU's speed while
    the service works on it; they take about 1% of it.  Use as a context
    manager around the measured phase; ``samples`` holds
    ``(time.perf_counter() at its start, seconds)`` per probe.
    """

    def __init__(self, cpu: int, interval: float = 0.05) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(cpu, interval), daemon=True)

    def _run(self, cpu: int, interval: float) -> None:
        # On Linux this pins the calling thread only.
        os.sched_setaffinity(0, {cpu})
        while True:
            self.samples.append((time.perf_counter(), summary.probe_kernel(summary.SPEED_PROBE_STEPS)))
            if self._stop.wait(interval):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()


def _proc_children() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry))
    return children


class Service:
    """One service process on an ephemeral port with a fresh data directory."""

    def __init__(self, state_dir: Path, root: Path, cpu: int, spans_file: Path | None = None) -> None:
        state_dir.mkdir(parents=True)
        self.state_dir = state_dir
        #: The CPU the service process and all its threads are pinned to.
        self.cpu = cpu
        port_file = state_dir / "port"
        service_args = [
            "--port", "0", "--port-file", str(port_file),
            "--data-dir", str(state_dir / "data"), "--workers", "1", "--quiet",
        ]
        if spans_file is None:
            command = [sys.executable, "-m", "repro.service", *service_args]
        else:
            command = [sys.executable, str(HERE / "launcher.py"), str(spans_file), "--", *service_args]
        environment = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(state_dir / "service.log", "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=environment, stdout=self._log, stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        try:
            self.port = self._wait_port(port_file)
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise
        #: Seconds from spawn to the first 200 from ``/healthz``.
        self.setup_s = time.perf_counter() - started

    def _wait_port(self, port_file: Path, limit: float = 60.0) -> int:
        deadline = time.monotonic() + limit
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise ServiceError(f"service exited with {self.process.returncode}: {self._log_tail()}")
            try:
                text = port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.002)
        raise ServiceError("service did not write its port file")

    def _wait_healthy(self, limit: float = 60.0) -> None:
        deadline = time.monotonic() + limit
        while time.monotonic() < deadline:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/healthz", headers={"Connection": "close"})
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.002)
        raise ServiceError("service never answered /healthz with 200")

    def get_json(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", path, headers={"Connection": "close"})
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise ServiceError(f"GET {path} answered {response.status}")
        return json.loads(body)

    def _tree(self) -> list[int]:
        children = _proc_children()
        tree, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            tree.append(pid)
            frontier.extend(children.get(pid, []))
        return tree

    def cpu_seconds(self) -> float:
        """utime + stime of the process tree, reaped children included."""
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in self._tree():
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # fields[11:15] are utime, stime, cutime, cstime.
            total += sum(int(value) for value in fields[11:15])
        return total / ticks

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the process tree, in MiB."""
        total_kb = 0
        for pid in self._tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self, limit: float = 60.0) -> None:
        """Graceful drain (SIGTERM); kill if it does not exit in ``limit`` s."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=limit)
            except subprocess.TimeoutExpired:
                self.kill()
                raise ServiceError("service did not drain on SIGTERM") from None
        self._log.close()
        if self.process.returncode != 0:
            raise ServiceError(f"service exited with {self.process.returncode}: {self._log_tail()}")

    def _log_tail(self) -> str:
        """The end of the service's output (the state directory is removed at exit)."""
        return (self.state_dir / "service.log").read_text(errors="replace")[-2000:]

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._log.close()
