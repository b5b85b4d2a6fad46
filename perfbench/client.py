"""Client side of the benchmark: server process handling and a raw HTTP client.

:class:`Server` launches ``launcher.py`` as its own process, times its
set-up to the first ``/healthz`` 200, reads its memory, and stops it.
:class:`Connection` is one keep-alive HTTP/1.1 connection that sends
pre-serialized request bytes and times each exchange from the first byte
sent to the last byte of the reply read.  :func:`closed_loop` drives one
or more connections in a closed loop for a fixed time.
"""

import itertools
import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: Seconds one request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0
#: Seconds a launch may take to reach its first /healthz 200.
READY_TIMEOUT = 120.0
#: Interval between /healthz polls while a server warms up.
HEALTH_POLL_S = 0.002


def request_bytes(method: str, path: str, body: bytes = b"") -> bytes:
    """A complete HTTP/1.1 request (head and body) ready to send."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection to the server on loopback."""

    def __init__(self, port: int, timeout: float = REQUEST_TIMEOUT) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def exchange(self, request: bytes
                 ) -> Tuple[int, Dict[str, str], bytes, float]:
        """Send *request*; ``(status, headers, body, seconds)``."""
        sock = self.sock
        t0 = time.perf_counter()
        sock.sendall(request)
        buf = self._buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        lines = buf[:end].decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        parts = [buf[end + 4:]]
        have = len(parts[0])
        while have < length:
            chunk = sock.recv(max(1 << 16, min(1 << 22, length - have)))
            if not chunk:
                raise ConnectionError("server closed the connection")
            parts.append(chunk)
            have += len(chunk)
        elapsed = time.perf_counter() - t0
        data = b"".join(parts)
        self._buf = data[length:]
        return status, headers, data[:length], elapsed

    def close(self) -> None:
        self.sock.close()


def get_json(port: int, path: str, timeout: float = 30.0) -> Tuple[int, object]:
    """One GET on a fresh connection; ``(status, parsed JSON body)``."""
    conn = Connection(port, timeout=timeout)
    try:
        status, headers, body, _ = conn.exchange(request_bytes("GET", path))
    finally:
        conn.close()
    if headers.get("content-type", "").startswith("application/json"):
        return status, json.loads(body)
    return status, body


def pss_kb(pid: int) -> int:
    """PSS of *pid* and all its descendants, in kB.

    PSS divides every shared page among the processes mapping it, so the
    sum counts shared-memory segments and the shared plane once.
    """
    total = 0
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
                        break
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


class Server:
    """One launch of the benchmark server process."""

    def __init__(self, points_path: str, log_path: str, env: Dict[str, str],
                 vpr: bool = False, trace: bool = False) -> None:
        cmd = [sys.executable, os.path.join(HERE, "launcher.py"),
               "--points", points_path]
        if vpr:
            cmd.append("--vpr")
        if trace:
            cmd.append("--trace")
        self._log = open(log_path, "ab")
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env)
        self._lines: "queue.Queue[bytes]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.port: Optional[int] = None
        self.setup: Dict[str, float] = {}
        self.setup_s = float("nan")
        self.warm_s = float("nan")

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(b"")

    def wait_ready(self) -> Dict[str, object]:
        """Block until ``/healthz`` answers 200; returns its document."""
        deadline = self.t_launch + READY_TIMEOUT
        while self.port is None:
            try:
                line = self._lines.get(timeout=max(0.0, deadline
                                                   - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError("server did not bind in time") from None
            if not line:
                raise RuntimeError(f"server exited before binding "
                                   f"(code {self.proc.wait()})")
            doc = json.loads(line)
            self.port = doc["port"]
            self.setup = doc["setup"]
        t_bound = time.perf_counter()
        while time.perf_counter() < deadline:
            try:
                status, doc = get_json(self.port, "/healthz")
            except OSError:
                status, doc = 0, None
            if status == 200:
                t_ready = time.perf_counter()
                self.setup_s = t_ready - self.t_launch
                self.warm_s = t_ready - t_bound
                return doc
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited while warming up "
                                   f"(code {self.proc.returncode})")
            time.sleep(HEALTH_POLL_S)
        raise RuntimeError("server did not become ready in time")

    def pss_mb(self) -> float:
        return pss_kb(self.proc.pid) * 1024 / 1e6

    def stop(self) -> None:
        """SIGINT (clean shutdown), escalating to SIGKILL; always waits."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()


def check_health(doc: Dict, need_plane: bool) -> Dict[str, object]:
    """The serving posture from ``/healthz``; raises when the server is not
    the program under test (degraded executor, numpy fallback, no plane)."""
    executor = doc.get("executor") or {}
    posture = {"executor_mode": executor.get("mode"),
               "executor_degraded": executor.get("degraded"),
               "workers": executor.get("workers"),
               "kernel": (doc.get("kernel") or {}).get("resolved"),
               "plane_served": (doc.get("vpr") or {}).get("plane_served")}
    if doc.get("status") != "ok" or executor.get("degraded"):
        raise RuntimeError(f"server is degraded: {posture}")
    if posture["kernel"] != "native":
        raise RuntimeError(f"kernel fell back to {posture['kernel']!r}")
    if need_plane and not posture["plane_served"]:
        raise RuntimeError("the V_Pr plane is not served by the workers")
    return posture


def closed_loop(port: int, streams: Sequence[Sequence[bytes]],
                seconds: float, warmup: int = 0
                ) -> Tuple[List[List[Tuple[int, Dict[str, str], bytes,
                                           float]]], float, float]:
    """Drive one connection per stream in a closed loop.

    Each connection first sends its stream's first *warmup* requests
    (untimed), then waits for the others, then sends the rest one at a
    time until *seconds* have passed: the next request leaves only when
    the previous reply has arrived.  A stream that runs out before then
    starts over after its warm-up part.  Returns, per stream, the timed
    replies ``(status, headers, body, seconds)`` in order (status 0
    means the exchange itself failed); then the first warm-up latency
    and the timed wall time up to the last reply.
    """
    conns = [Connection(port) for _ in streams]
    first = [float("nan")]
    for i, (conn, stream) in enumerate(zip(conns, streams)):
        for j in range(warmup):
            _, _, _, elapsed = conn.exchange(stream[j])
            if i == 0 and j == 0:
                first[0] = elapsed
    results: List[List[tuple]] = [[] for _ in streams]
    ends = [0.0] * len(streams)
    gate = threading.Barrier(len(streams) + 1)
    t_start = [0.0]

    def drive(i: int) -> None:
        conn, out = conns[i], results[i]
        gate.wait()
        t_end = t_start[0] + seconds
        for req in itertools.cycle(streams[i][warmup:]):
            if time.perf_counter() >= t_end:
                break
            try:
                out.append(conn.exchange(req))
            except OSError as exc:
                out.append((0, {}, repr(exc).encode(), 0.0))
                conn.close()
                conns[i] = conn = Connection(port)
        ends[i] = time.perf_counter()

    threads = [threading.Thread(target=drive, args=(i,))
               for i in range(len(streams))]
    for t in threads:
        t.start()
    t_start[0] = time.perf_counter()
    gate.wait()
    for t in threads:
        t.join()
    for conn in conns:
        conn.close()
    return results, first[0], max(ends) - t_start[0]
