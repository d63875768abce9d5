"""A real ``python -m repro serve`` subprocess and a lean HTTP client.

The server runs with its production defaults (process tier, two
workers, bounded queue, degradation on) and a store directory inside
the run's work directory.  It runs in its own session so that stopping
it also stops its worker processes.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro.telemetry.metrics import bucket_quantile

_BANNER = re.compile(r"repro service on http://127\.0\.0\.1:(\d+)")


def program_env() -> Dict[str, str]:
    """This environment with the checkout's ``src/`` first on the path,
    for child interpreters that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    return env


class Server:
    def __init__(self, workdir: str, name: str) -> None:
        self.store_dir = os.path.join(workdir, f"{name}-store")
        self.log_path = os.path.join(workdir, f"{name}.log")
        self.started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--store-dir", self.store_dir],
                stdout=subprocess.DEVNULL,
                stderr=log,
                env=program_env(),
                start_new_session=True,
            )
        try:
            self.port = self._wait_for_banner()
            self.wait_healthy()
        except BaseException:
            self.stop()
            raise
        #: Seconds from spawn until /healthz answered 200.
        self.setup_seconds = time.perf_counter() - self.started

    def _wait_for_banner(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(self.log_path) as log:
                match = _BANNER.search(log.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    # -- requests -----------------------------------------------------

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        """One request on a fresh connection, as the repo's urllib
        client makes them.  (A reused keep-alive connection waits ~40 ms
        per reply: the server writes headers and body in two sends, and
        Nagle's algorithm holds the second for the client's delayed ACK.)"""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body or None, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get(self, path: str) -> Tuple[int, bytes]:
        return self.request("GET", path)

    def get_json(self, path: str) -> Dict[str, object]:
        status, body = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: {body[:200]!r}")
        return json.loads(body)

    def post(self, body: bytes) -> Tuple[int, bytes]:
        return self.request("POST", "/compile", body)

    def compile_all(self, payloads: List[Dict[str, object]]) -> List[Dict[str, object]]:
        """Submit without waiting, then collect every finished job."""
        ids = []
        for payload in payloads:
            status, body = self.post(json.dumps(dict(payload, wait=False)).encode())
            if status != 202:
                raise RuntimeError(f"submit -> {status}: {body[:200]!r}")
            ids.append(json.loads(body)["job_id"])
        return [self.wait_job(job_id) for job_id in ids]

    def wait_job(self, job_id: str) -> Dict[str, object]:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            snap = self.get_json(f"/jobs/{job_id}")
            if snap["state"] not in ("queued", "running"):
                return snap
            time.sleep(0.02)
        raise RuntimeError(f"job {job_id} did not finish")

    # -- observation --------------------------------------------------

    def pids(self) -> List[int]:
        """The server and every descendant (its worker processes)."""
        children: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            children.setdefault(int(fields[1]), []).append(int(entry))
        found, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            found.append(pid)
            todo.extend(children.get(pid, []))
        return found

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in self.pids())

    def stats(self) -> Dict[str, object]:
        return self.get_json("/stats")

    def histograms(self) -> Dict[str, Tuple[List[float], List[int]]]:
        """Cumulative bucket counts of every histogram on /metrics."""
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics -> {status}")
        out: Dict[str, Tuple[List[float], List[int]]] = {}
        for line in body.decode().splitlines():
            match = re.match(r'(\w+)_bucket\{le="([^"]+)"\} (\S+)', line)
            if match and match.group(2) != "+Inf":
                bounds, counts = out.setdefault(match.group(1), ([], []))
                bounds.append(float(match.group(2)))
                counts.append(int(float(match.group(3))))
        return out

    # -- shutdown -----------------------------------------------------

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then make sure every
        process of its session has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        # Stray workers share the session's process group; signal it
        # until it is empty (reaping the leader so it cannot linger).
        sig = signal.SIGTERM
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            self.proc.poll()
            try:
                os.killpg(self.proc.pid, sig)
            except ProcessLookupError:
                break
            time.sleep(0.05)
            sig = signal.SIGKILL
        self.proc.wait()


def vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def histogram_delta(
    before: Dict[str, Tuple[List[float], List[int]]],
    after: Dict[str, Tuple[List[float], List[int]]],
    name: str,
) -> Tuple[List[float], List[int]]:
    """Non-cumulative per-bucket counts observed between two scrapes."""
    bounds, cum_after = after[name]
    cum_before = before.get(name, (bounds, [0] * len(bounds)))[1]
    delta = [a - b for a, b in zip(cum_after, cum_before)]
    return bounds, [d - (delta[i - 1] if i else 0) for i, d in enumerate(delta)]


def quantile_ms(bounds: List[float], counts: List[int], q: float) -> float:
    return 1000.0 * bucket_quantile(bounds, counts, sum(counts), q)
