"""Server processes of the serve workloads: start, warm up, measure, stop."""

from __future__ import annotations

import http.client
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launcher.py"


def _children(pid: int) -> List[int]:
    """Direct children of ``pid``, from ``/proc/*/stat``."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def _hwm_kb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def _tree(pid: int) -> List[int]:
    """``pid`` and all its descendants."""
    found, todo = [], [pid]
    while todo:
        p = todo.pop()
        found.append(p)
        todo.extend(_children(p))
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets of ``pid`` and all its descendants."""
    return sum(_hwm_kb(p) for p in _tree(pid)) / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _readline(proc: subprocess.Popen, timeout_s: float) -> str:
    """One stdout line of ``proc`` or ``RuntimeError`` after ``timeout_s``."""
    box: Dict[str, str] = {}
    reader = threading.Thread(target=lambda: box.setdefault("line", proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout_s)
    if "line" not in box:
        raise RuntimeError(f"launcher gave no output within {timeout_s:.0f} s")
    return box["line"]


def post(port: int, body: bytes, headers: Dict[str, str], timeout_s: float = 30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    try:
        conn.request("POST", "/solve?scheduler=approx", body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def get(port: int, path: str, timeout_s: float = 10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class ServerProcess:
    """One launched server: ``start`` times launch → ``/health`` OK → warm solves."""

    def __init__(self, mode: str, workdir: Path, *, trace: bool = False, budget: Optional[float] = None):
        self.mode, self.workdir, self.trace, self.budget = mode, workdir, trace, budget
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0
        self.warm_outcomes: List[dict] = []

    def start(self, warm_bodies: List[bytes], warm_headers: List[Dict[str, str]]) -> "ServerProcess":
        self.workdir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(LAUNCHER), "--mode", self.mode, "--workdir", str(self.workdir)]
        if self.trace:
            cmd.append("--trace")
        if self.budget is not None:
            cmd += ["--budget", repr(self.budget)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = _readline(self.proc, 60.0)
        if not line.startswith("READY"):
            raise RuntimeError(f"launcher failed to start: {line!r}")
        self.port = int(line.split()[1])
        while True:
            status, _ = get(self.port, "/health")
            if status == 200:
                break
            if time.perf_counter() - t0 > 60.0:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)
        for body, headers in zip(warm_bodies, warm_headers):
            status, doc = post(self.port, body, headers)
            if status != 200:
                raise RuntimeError(f"warm-up solve failed with status {status}: {doc}")
            self.warm_outcomes.append(doc)
        self.setup_s = time.perf_counter() - t0
        return self

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> dict:
        """Ask the launcher to shut down; returns its report."""
        assert self.proc is not None
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            self.proc.stdin.close()
            self.proc.wait(timeout=60.0)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"launcher exited with status {self.proc.returncode}")
        return json.loads((self.workdir / "report.json").read_text())

    def kill(self) -> None:
        """Kill the launcher and any shard workers it left; idempotent."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            for pid in reversed(_tree(self.proc.pid)):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
