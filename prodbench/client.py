"""Load-side plumbing: the advisor server process and a closed-loop client.

The server is the product's own ``python -m repro serve`` at its default
``--jobs 0``, on a port it picks itself and a store directory the
benchmark owns.  The client is a minimal HTTP/1.1 keep-alive client: one
process, :data:`CONNECTIONS` connections, each sending its next request
only after the previous answer arrived.  It polls its sockets for
:data:`SPIN_S` before it blocks, so an answer that arrives within that
time is seen at once instead of after a wake-up of the load generator's CPU.
On a 2-vCPU virtual machine that cut the spread (IQR over median) of
ten advise_hot runs' request rate from 0.45, with a blocking asyncio
load generator, to 0.10.
"""

import contextlib
import http.client
import json
import os
import re
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from prodbench.common import (
    ROOT,
    BenchError,
    child_env,
    child_pids,
    stop_process,
    tree_peak_rss_kib,
)

#: closed-loop connections: at most the host's CPU count (2 here)
CONNECTIONS = 2

#: per-request ceiling; a request still open after this counts as failed
REQUEST_TIMEOUT_S = 60.0

#: how long the load generator polls for an answer before it blocks
SPIN_S = 0.002

#: how long a server may take from launch to answering /healthz
STARTUP_TIMEOUT_S = 120.0

_LISTENING = re.compile(rb"listening on http://[^:]+:(\d+)")


class Server:
    """One ``python -m repro serve`` process on a given store directory."""

    def __init__(self, store: Path, log: Path):
        store.mkdir(parents=True, exist_ok=True)
        self.log = log
        self._log_fh = open(log, "wb")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--store", str(store)],
            cwd=ROOT, env=child_env(store), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log_fh)
        try:
            self.port = self._await_port(t0)
            while self.get_json("/healthz")[0] != 200:
                self._check_alive(t0)
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        #: seconds from process launch until /healthz answered
        self.setup_s = time.monotonic() - t0

    def _check_alive(self, t0: float) -> None:
        if self.proc.poll() is not None:
            raise BenchError(f"server exited ({self.proc.returncode}):\n"
                             f"{self.log.read_text(errors='replace')[-2000:]}")
        if time.monotonic() - t0 > STARTUP_TIMEOUT_S:
            raise BenchError("server did not come up in time")

    def _await_port(self, t0: float) -> int:
        while True:
            match = _LISTENING.search(self.log.read_bytes())
            if match:
                return int(match.group(1))
            self._check_alive(t0)
            time.sleep(0.005)

    def get_json(self, path: str) -> Tuple[int, Any]:
        """Blocking GET outside the timed loop; JSON or text body."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
        finally:
            conn.close()
        ctype = resp.getheader("Content-Type", "")
        return resp.status, json.loads(body) if "json" in ctype else body.decode()

    def pin(self, server_cpus: Set[int], pool_cpus: Set[int]) -> None:
        """Pin every thread of the server to ``server_cpus`` and every
        thread of its pool workers to ``pool_cpus``."""
        _pin_threads(self.proc.pid, server_cpus)
        for pid in child_pids(self.proc.pid):
            _pin_threads(pid, pool_cpus)

    def peak_rss_kib(self) -> int:
        """Peak RSS of the server plus its pool workers (while alive)."""
        return tree_peak_rss_kib(self.proc.pid)

    def stop(self) -> None:
        stop_process(self.proc)
        self._log_fh.close()


def _pin_threads(pid: int, cpus: Set[int]) -> None:
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            os.sched_setaffinity(int(task.name), cpus)
        except (ProcessLookupError, FileNotFoundError):
            pass  # the thread ended meanwhile


@contextlib.contextmanager
def placement(server: Server) -> Iterator[None]:
    """Fixed CPU placement for a timed loop: the load generator on the first
    CPU, the server's threads alone on the second, its pool workers on
    every CPU but the server's, so client and server never compete for
    one CPU.  In interleaved runs on a 2-vCPU virtual machine, leaving
    placement to the scheduler measured the hot request rate about a
    third lower."""
    own = os.sched_getaffinity(0)
    cpus = sorted(own)
    if len(cpus) < 2:
        yield
        return
    server.pin({cpus[1]}, own - {cpus[1]})
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, own)


class Conn:
    """One keep-alive HTTP/1.1 connection; one request in flight at a time."""

    def __init__(self, port: int):
        self.port = port
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def send(self, method: str, path: str, body: bytes = b"",
             headers: bytes = b"") -> None:
        self.sock.sendall(
            b"%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n%s\r\n" % (method.encode(), path.encode(),
                                               len(body), headers) + body)

    def poll(self) -> Optional[Tuple[int, bytes]]:
        """``(status, body)`` once a whole answer has arrived, else None."""
        while True:
            try:
                chunk = self.sock.recv(1 << 16, socket.MSG_DONTWAIT)
            except BlockingIOError:
                break
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buf += chunk
        end = self._buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self._buf[:end]).split(b"\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        if len(self._buf) < end + 4 + length:
            return None
        body = bytes(self._buf[end + 4:end + 4 + length])
        del self._buf[:end + 4 + length]
        return int(head[0].split()[1]), body

    def request(self, method: str, path: str, body: bytes = b"",
                headers: bytes = b"") -> Tuple[int, bytes]:
        """One blocking round trip (trace drains, outside the timed path)."""
        self.send(method, path, body, headers)
        deadline = time.perf_counter() + REQUEST_TIMEOUT_S
        while True:
            answer = self.poll()
            if answer is not None:
                return answer
            if not select.select([self.sock], [], [], deadline - time.perf_counter())[0]:
                raise TimeoutError(f"{method} {path} got no answer")


@dataclass
class LoopResult:
    latencies_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0


def closed_loop(port: int, body_of: Callable[[int], bytes], *,
                check: Callable[[int, int, bytes], bool],
                seconds: float, min_requests: int,
                max_requests: Optional[int] = None,
                headers: bytes = b"",
                drain: Optional[Callable[[Conn], None]] = None,
                drain_every: int = 24) -> LoopResult:
    """Drive ``POST /advise`` from :data:`CONNECTIONS` closed-loop connections.

    Requests go out in stream order (``body_of(i)``).  Sending stops once
    ``seconds`` have passed and at least ``min_requests`` were sent, or
    at ``max_requests``; every sent request is awaited, so the answered
    set is always a prefix of the stream.  ``check(i, status, payload)``
    judges each answer; a False, a transport error or a timeout counts
    as failed.  With ``drain``, the connection that completes every
    ``drain_every``-th request runs it before its next send (traced runs
    read ``/debug/trace`` this way; the time counts as tracing overhead).
    """
    res = LoopResult()
    conns = [Conn(port) for _ in range(CONNECTIONS)]
    inflight: Dict[Conn, Tuple[int, float]] = {}
    since_drain = 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    last_progress = t_start

    def may_send() -> bool:
        if max_requests is not None and res.attempted >= max_requests:
            return False
        return res.attempted < min_requests or time.perf_counter() < deadline

    def fail(conn: Conn) -> Conn:
        res.failed += 1
        inflight.pop(conn, None)
        conn.close()
        return Conn(port)

    try:
        while True:
            for k, conn in enumerate(conns):
                if conn not in inflight and may_send():
                    i = res.attempted
                    body = body_of(i)
                    res.attempted += 1
                    try:
                        conn.send("POST", "/advise", body, headers)
                    except OSError:
                        conns[k] = fail(conn)
                        continue
                    inflight[conn] = (i, time.perf_counter())
            if not inflight:
                break
            progressed = False
            for k, conn in enumerate(conns):
                if conn not in inflight:
                    continue
                i, t0 = inflight[conn]
                try:
                    answer = conn.poll()
                except OSError:
                    conns[k] = fail(conn)
                    continue
                now = time.perf_counter()
                if answer is None:
                    if now - t0 > REQUEST_TIMEOUT_S:
                        conns[k] = fail(conn)
                    continue
                del inflight[conn]
                progressed = True
                res.latencies_s.append(now - t0)
                if not check(i, *answer):
                    res.failed += 1
                if drain is not None:
                    since_drain += 1
                    if since_drain >= drain_every:
                        since_drain = 0
                        drain(conn)
            now = time.perf_counter()
            if progressed:
                last_progress = now
            elif now - last_progress > SPIN_S:
                select.select([c.sock for c in inflight], [], [], 1.0)
    finally:
        res.wall_s = time.perf_counter() - t_start
        for conn in conns:
            conn.close()
    return res
