"""The daemon under test, started the way it is deployed.

``python -m repro.serve daemon`` runs in a process of its own, so the load
generator shares no interpreter lock with it, its workers fork from a
process that holds only the daemon, and its CPU time and memory can be read
apart from the benchmark's.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from typing import List

import repro

import common

#: how long a stopped daemon and its workers get to exit before SIGKILL
STOP_TIMEOUT_S = 30.0


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (a zombie has)."""
    try:
        return common.proc_stat(pid)[0] != "Z"
    except OSError:
        return False


class DaemonProcess:
    """One ``repro.serve daemon`` process, ready when constructed."""

    def __init__(self, address: str, root: str, workers: int,
                 preload: List[str], log_path: str):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (src, env.get("PYTHONPATH")) if path)
        command = [sys.executable, "-m", "repro.serve", "daemon",
                   "--socket", address, "--root", root,
                   "--workers", str(workers)]
        for model in preload:
            command += ["--preload", model]
        self._log = open(log_path, "w")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        stderr=self._log, env=env, text=True)
        self.pid = self.process.pid
        try:
            # the daemon prints one JSON line once its workers are warm
            line = self.process.stdout.readline()
            if not line:
                with open(log_path) as handle:
                    raise RuntimeError("daemon did not start:\n"
                                       + handle.read()[-3000:])
            self.address = json.loads(line)["socket"]
        except BaseException:
            # not yet on the caller's exit stack: stop it here
            self.close()
            raise

    def processes(self) -> List[int]:
        """The daemon's pid and its workers'."""
        return common.process_tree(self.pid)

    def cpu_s(self) -> float:
        """CPU seconds the daemon and its live workers have used so far."""
        return common.cpu_s(self.processes())

    def rss_mb(self) -> List[float]:
        """Peak RSS of the daemon, then of each live worker, in MB."""
        return [common.hwm_mb(pid) for pid in self.processes()]

    def close(self) -> None:
        """SIGTERM (the daemon drains and stops its workers), then wait;
        whatever is left after :data:`STOP_TIMEOUT_S` is killed."""
        tree = self.processes() if self.process.poll() is None else []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        # workers are the daemon's children: wait for them through /proc
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in tree[1:]:
            while _running(pid):
                if time.monotonic() > deadline:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                time.sleep(0.01)
        self._log.close()

    def __enter__(self) -> "DaemonProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
