"""HTTP load generator for ``phraseindex serve``.

One process, one thread, at most a few keep-alive connections. Each request
goes out in a single ``sendall`` on a TCP_NODELAY socket, so a stall the
generator sees is the server's. In the open loop a request's latency counts
from its scheduled send time; in the closed loop the next request is
scheduled when the previous one completes.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass

HOST = "127.0.0.1"


@dataclass
class Sample:
    question: str
    scheduled: float
    noticed: float = 0.0  # when the generator put the request in its queue
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: object = None
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.scheduled) * 1e3

    @property
    def round_trip_ms(self) -> float:
        return (self.done - self.sent) * 1e3


def free_port() -> int:
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


def http_get(port: int, path: str, timeout: float = 1.0) -> tuple[int, bytes]:
    with socket.create_connection((HOST, port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {HOST}:{port}\r\nConnection: close\r\n\r\n".encode())
        buf = b""
        while True:
            data = sock.recv(65536)
            if not data:
                raise ConnectionError("connection closed before a full response")
            buf += data
            parsed = take_response(buf)
            if parsed is not None:
                return parsed[:2]


def take_response(buf: bytes) -> tuple[int, bytes, bytes] | None:
    """(status, body, rest of buffer) once `buf` holds a whole response."""
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    lines = buf[:head_end].decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        key, _, value = line.partition(":")
        if key.strip().lower() == "content-length":
            length = int(value)
    end = head_end + 4 + length
    if len(buf) < end:
        return None
    return status, buf[head_end + 4 : end], buf[end:]


def query_request(port: int, question: str, strategy: str, top_k: int) -> bytes:
    body = json.dumps({"question": question, "strategy": strategy, "top_k": top_k}).encode()
    head = (
        f"POST /query HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


class _Conn:
    """One keep-alive connection and its read buffer."""

    def __init__(self, port: int):
        self.sock = socket.create_connection((HOST, port), timeout=5.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buf = b""
        self.sample: Sample | None = None

    def take_response(self) -> tuple[int, bytes] | None:
        parsed = take_response(self.buf)
        if parsed is None:
            return None
        status, body, self.buf = parsed
        return status, body

    def close(self) -> None:
        self.sock.close()


def run_load(
    port: int,
    questions: list[str],
    strategy: str,
    top_k: int,
    seconds: float,
    rate: float | None = None,
    connections: int = 1,
    timeout: float = 5.0,
) -> list[Sample]:
    """Send questions in order for `seconds`; open loop at `rate`/s, else closed.

    Requests due while every connection is busy wait in a queue; that wait is
    part of their latency. A request with no response after `timeout` seconds
    fails and its connection is replaced. Requests still in flight at the end
    are drained, up to the timeout.
    """
    sel = selectors.SelectSelector()  # select(2) takes sub-millisecond timeouts; epoll does not
    conns = [_Conn(port) for _ in range(connections)]
    idle = deque(conns)
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    samples: list[Sample] = []
    queue: deque[Sample] = deque()
    t0 = time.perf_counter()
    t_end = t0 + seconds
    next_k = 0
    free_since = t0  # closed loop: when the last response arrived

    def next_due() -> float | None:
        if next_k >= len(questions):
            return None
        due = t0 + next_k / rate if rate else (free_since if idle and not queue else None)
        return due if due is not None and due < t_end else None

    def finish(conn: _Conn, now: float, status: int = 0, body: bytes = b"", error: str = "") -> None:
        s = conn.sample
        s.done, s.status, s.error = now, status, error
        if body:
            try:
                s.payload = json.loads(body)
            except ValueError:
                s.error = "malformed JSON response"
        conn.sample = None

    try:
        while True:
            now = time.perf_counter()
            due = next_due()
            while due is not None and due <= now:
                s = Sample(questions[next_k], scheduled=due, noticed=now)
                samples.append(s)
                queue.append(s)
                next_k += 1
                due = next_due()
            while queue and idle:
                conn = idle.popleft()
                conn.sample = queue.popleft()
                conn.sample.sent = time.perf_counter()
                conn.sock.sendall(query_request(port, conn.sample.question, strategy, top_k))
            busy = [c for c in conns if c.sample is not None]
            if not busy and not queue and due is None:
                break
            now = time.perf_counter()
            deadlines = [c.sample.sent + timeout for c in busy]
            if due is not None:
                deadlines.append(due)
            wait = max(0.0, min(deadlines) - now) if deadlines else 0.0
            for key, _ in sel.select(wait):
                conn: _Conn = key.data
                try:
                    data = conn.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                now = time.perf_counter()
                if not data:
                    if conn.sample is not None:
                        finish(conn, now, error="connection closed")
                    conns, idle = _replace(sel, conns, idle, conn, port)
                    free_since = now
                    continue
                conn.buf += data
                parsed = conn.take_response()
                if parsed is not None and conn.sample is not None:
                    finish(conn, now, *parsed)
                    idle.append(conn)
                    free_since = now
            now = time.perf_counter()
            for conn in [c for c in conns if c.sample is not None and now - c.sample.sent > timeout]:
                finish(conn, now, error="timeout")
                conns, idle = _replace(sel, conns, idle, conn, port)
                free_since = now
    finally:
        for c in conns:
            sel.unregister(c.sock)
            c.close()
        sel.close()
    return samples


def _replace(sel, conns, idle, conn, port):
    sel.unregister(conn.sock)
    conn.close()
    fresh = _Conn(port)
    sel.register(fresh.sock, selectors.EVENT_READ, fresh)
    conns = [fresh if c is conn else c for c in conns]
    idle = deque(c for c in idle if c is not conn)
    idle.append(fresh)
    return conns, idle
