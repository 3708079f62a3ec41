"""Start, probe and stop one ``repro serve`` daemon as a subprocess."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class DaemonError(RuntimeError):
    """The daemon did not start or answer as expected."""


class Daemon:
    """One daemon process on an ephemeral port with its own store.

    ``tracer`` names the spans file; the daemon then runs through
    ``tracer.py`` instead of ``python -m repro``, with the same
    arguments and defaults.
    """

    def __init__(self, root: Path, store: Path, log: Path,
                 tracer: Path | None = None) -> None:
        self.root = root
        self.store = store
        self.log = log
        self.tracer = tracer
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Spawn the daemon; return seconds until its first 200 on /healthz."""
        from repro.serve import ServeClient

        if self.tracer is None:
            entry = ["-m", "repro"]
        else:
            entry = [str(Path(__file__).with_name("tracer.py")), str(self.tracer)]
        cmd = [sys.executable, *entry, "serve", "--port", "0",
               "--store", str(self.store)]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL,
            )
        line = self._first_line(t0 + START_TIMEOUT_S)
        match = re.search(r"http://[^:/\s]+:(\d+)", line)
        if match is None:
            self.stop()
            raise DaemonError(f"unexpected daemon banner: {line!r}")
        self.port = int(match.group(1))
        client = ServeClient(port=self.port, timeout=10.0)
        while True:
            try:
                client.health()
                break
            except OSError:
                if time.perf_counter() > t0 + START_TIMEOUT_S:
                    self.stop()
                    raise DaemonError("daemon never answered /healthz") from None
                time.sleep(0.002)
        return time.perf_counter() - t0

    def _first_line(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        data = b""
        while b"\n" not in data:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                self.stop()
                raise DaemonError("daemon printed no banner")
            ready, _w, _x = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    self.stop()
                    raise DaemonError(
                        f"daemon exited during start-up; see {self.log}"
                    )
                data += chunk
        return data.split(b"\n", 1)[0].decode("utf-8", "replace")

    def cpu_ns(self) -> int:
        """CPU nanoseconds all the daemon's threads have used so far.

        This is the user + system time of ``/proc/<pid>/stat``, read at
        nanosecond resolution through the daemon's process CPU clock
        (Linux clock id ``(~pid << 3) | 2``), cheap enough to read
        around every request.
        """
        return time.clock_gettime_ns(((~self.proc.pid) << 3) | 2)

    def hwm_mb(self) -> float:
        """The daemon's peak resident set (VmHWM) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the daemon drains and exits), then wait for the exit."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
