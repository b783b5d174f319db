"""Load generation: server processes, HTTP connections, closed and open loops.

One load-generator process drives the server process over loopback HTTP
with at most ``nproc`` threads, one persistent connection each.  A sample
keeps timings and a digest of the answer, never the response body.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAUNCHER = Path(__file__).resolve().with_name("launcher.py")

#: How long one server may take from launch to its first 200 /healthz.
START_TIMEOUT_S = 120.0

#: The fields of a /solve answer that the correctness check compares.
ANSWER_FIELDS = (
    "algorithm",
    "protectors",
    "similarity_trace",
    "initial_similarity",
    "budget_division",
    "allocation",
)


def answer_digest(payload: dict) -> int:
    """Digest of the observable answer (service metadata excluded)."""
    return hash(
        json.dumps([payload.get(name) for name in ANSWER_FIELDS], separators=(",", ":"))
    )


def percentile(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


class Connection:
    """One persistent HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self._http = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, dict]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self._http.request(method, path, body=body, headers=headers)
        response = self._http.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self._http.close()


class ServerProcess:
    """The server under test, launched with ``launcher.py`` in its own process."""

    def __init__(self, spec_path: Path, env: Dict[str, str], trace_path: Optional[Path] = None) -> None:
        command = [sys.executable, str(LAUNCHER), str(spec_path)]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        started = time.monotonic()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            line = self.process.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"server failed to start (said {line!r})")
            self.port = int(line.split()[1])
            self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise
        #: launch to first 200 /healthz, seconds
        self.setup_s = time.monotonic() - started

    def _wait_healthy(self, started: float) -> None:
        while True:
            connection = Connection(self.port)
            try:
                status, _ = connection.call("GET", "/healthz")
            except OSError:
                status = 0
            finally:
                connection.close()
            if status == 200:
                return
            if time.monotonic() - started > START_TIMEOUT_S:
                raise RuntimeError("server never answered /healthz with 200")
            time.sleep(0.002)

    def get(self, path: str) -> dict:
        connection = Connection(self.port)
        try:
            status, payload = connection.call("GET", path)
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {payload}")
        return payload

    def cpu_seconds(self) -> Tuple[float, float]:
        """(user, system) CPU time the server process has used so far."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        tick = os.sysconf("SC_CLK_TCK")
        return int(fields[11]) / tick, int(fields[12]) / tick

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set), MiB."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Close stdin (the launcher drains and exits) and wait for the process."""
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# ----------------------------------------------------------------------
# closed loop
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One answered /solve: timings and answer digest, no body."""

    index: int
    sent: float
    done: float
    status: int
    digest: int = 0
    solve_s: float = 0.0
    queue_s: float = 0.0
    content_hash: str = ""
    reused_index: bool = True
    kernel: str = ""
    shard_mode: str = ""


class RequestFeed:
    """Hands request ``i`` (built on demand by ``make``) to the next caller."""

    def __init__(self, make: Callable[[int], bytes]) -> None:
        self._make = make
        self._lock = threading.Lock()
        self._next = 0

    def take(self) -> Tuple[int, bytes]:
        with self._lock:
            index = self._next
            self._next += 1
        return index, self._make(index)


def _solve_once(connection: Connection, index: int, body: bytes) -> Sample:
    sent = time.monotonic()
    status, payload = connection.call("POST", "/solve", body)
    done = time.monotonic()
    sample = Sample(index, sent, done, status)
    if status == 200:
        extra = payload.get("extra", {})
        server = extra.get("server", {})
        service = extra.get("service", {})
        sample.digest = answer_digest(payload)
        sample.solve_s = float(server.get("solve_seconds", 0.0))
        sample.queue_s = float(server.get("queue_seconds", 0.0))
        sample.content_hash = sys.intern(str(server.get("content_hash", "")))
        sample.reused_index = bool(service.get("reused_index", True))
        sample.kernel = sys.intern(str(service.get("kernel", "")))
        sample.shard_mode = sys.intern(str(service.get("shards", {}).get("mode", "")))
    return sample


def run_sequence(port: int, bodies: Sequence[Tuple[int, bytes]]) -> List[Sample]:
    """Send a fixed list of requests one after another on one connection."""
    connection = Connection(port)
    try:
        return [_solve_once(connection, index, body) for index, body in bodies]
    finally:
        connection.close()


def run_closed_loop(port: int, feed: RequestFeed, connections: int, stop_at: float) -> List[Sample]:
    """``connections`` clients, each sending its next request once answered."""
    samples: List[Sample] = []

    def loop() -> None:
        connection = Connection(port)
        try:
            while time.monotonic() < stop_at:
                samples.append(_solve_once(connection, *feed.take()))
        finally:
            connection.close()

    _run_threads([loop] * connections)
    return samples


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    errors: List[BaseException] = []

    def guarded(target: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            try:
                target()
            except BaseException as error:  # re-raised in the caller below
                errors.append(error)

        return run

    threads = [threading.Thread(target=guarded(target)) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
@dataclass
class Reload:
    """One scheduled /reload and what it returned."""

    index: int
    scheduled: float
    sent: float
    done: float
    status: int
    content_hash: str


def run_open_loop_writer(port: int, paths: Sequence[Path], start: float, rate: float) -> List[Reload]:
    """POST ``paths[k]`` to /reload at ``start + k / rate``, in order, on one connection."""
    connection = Connection(port)
    reloads: List[Reload] = []
    try:
        for index, path in enumerate(paths):
            scheduled = start + index / rate
            delay = scheduled - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            status, payload = connection.call(
                "POST", "/reload", json.dumps({"delta": str(path)}).encode()
            )
            reloads.append(
                Reload(index, scheduled, sent, time.monotonic(), status,
                       str(payload.get("content_hash", "")))
            )
    finally:
        connection.close()
    return reloads


def run_open_loop_reads(port: int, feed: RequestFeed, start: float, rate: float,
                        count: int) -> List[Sample]:
    """Send ``count`` solves at ``start + k / rate`` on one connection.

    A solve that has to wait for the previous answer goes late; its
    ``sent`` is the scheduled time, so the wait counts in its latency.
    """
    connection = Connection(port)
    samples: List[Sample] = []
    try:
        for k in range(count):
            scheduled = start + k / rate
            delay = scheduled - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sample = _solve_once(connection, *feed.take())
            sample.sent = scheduled
            samples.append(sample)
    finally:
        connection.close()
    return samples


def server_env(native_cache: Path) -> Dict[str, str]:
    """The server's environment: pinned kernel cache, no sharding/kernel overrides."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_SHARDS", "REPRO_NATIVE", "PYTHONPATH")
    }
    env["REPRO_NATIVE_CACHE"] = str(native_cache)
    return env
