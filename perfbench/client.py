"""Load generator: one process, one `selectors` loop, at most a few TCP
connections, no threads.

The server answers the lines of one connection in order, so each
connection keeps a FIFO of requests in flight and matches replies to
them by position; the reply's id is checked separately.

The open loop multiplexes independent users over two connections, so
the client acknowledges every read at once (TCP_QUICKACK). Otherwise
the kernel's delayed ACK, meeting the server's Nagle algorithm (it does
not set TCP_NODELAY), holds each reply until the next request on the
same connection, and latency would track the arrival rate instead of
the server's work.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque

from data import Request

_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


class Record:
    __slots__ = ("req", "due", "sent", "recv", "reply")

    def __init__(self, req: Request, due: float):
        self.req = req
        self.due = due
        self.sent = 0.0
        self.recv = 0.0
        self.reply: bytes | None = None


class _Conn:
    def __init__(self, addr, sel: selectors.BaseSelector):
        self.sock = socket.create_connection(addr, timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.sel = sel
        self.out = bytearray()
        self.inbuf = bytearray()
        self.inflight: deque[Record] = deque()
        self.closed = False
        sel.register(self.sock, selectors.EVENT_READ, self)

    def send(self, rec: Record) -> None:
        rec.sent = time.perf_counter()
        self.inflight.append(rec)
        waiting = bool(self.out)
        self.out += rec.req.line
        if not waiting:
            self.flush()

    def flush(self) -> None:
        try:
            n = self.sock.send(self.out)
        except BlockingIOError:
            n = 0
        del self.out[:n]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.out else 0)
        self.sel.modify(self.sock, events, self)

    def receive(self) -> list[Record]:
        """Read what is available; return the records it completed."""
        try:
            data = self.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return []
        except OSError:
            data = b""
        now = time.perf_counter()
        if not data:
            self.closed = True
            self.sel.unregister(self.sock)
            return []
        if _QUICKACK is not None:
            self.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        self.inbuf += data
        done = []
        while True:
            cut = self.inbuf.find(b"\n")
            if cut < 0:
                break
            line = bytes(self.inbuf[:cut])
            del self.inbuf[:cut + 1]
            if not self.inflight:
                continue  # unsolicited line: the id checks will not find it
            rec = self.inflight.popleft()
            rec.reply, rec.recv = line, now
            done.append(rec)
        return done

    def close(self) -> None:
        if not self.closed:
            self.sel.unregister(self.sock)
        self.sock.close()


class Client:
    def __init__(self, addr, n_conns: int):
        self.sel = selectors.DefaultSelector()
        self.conns = [_Conn(addr, self.sel) for _ in range(n_conns)]

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.sel.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _poll(self, timeout: float) -> list[tuple[_Conn, Record]]:
        done = []
        for key, events in self.sel.select(timeout):
            conn = key.data
            if events & selectors.EVENT_WRITE:
                conn.flush()
            if events & selectors.EVENT_READ:
                done.extend((conn, rec) for rec in conn.receive())
        return done

    def _inflight(self) -> int:
        return sum(len(c.inflight) for c in self.conns if not c.closed)

    def closed_loop(self, next_request, duration: float, limit: int | None = None,
                    grace: float = 60.0, conns: int | None = None) -> tuple[list[Record], float]:
        """Each of the first `conns` connections (all by default) sends its
        next request only after the reply to the previous one. Stops
        issuing after `duration` seconds or `limit` requests; returns every
        record and the start time."""
        records: list[Record] = []
        start = time.perf_counter()
        stop_at = start + duration

        def issue(conn: _Conn) -> None:
            if limit is not None and len(records) >= limit:
                return
            rec = Record(next_request(), time.perf_counter())
            records.append(rec)
            conn.send(rec)

        for conn in self.conns[:conns]:
            issue(conn)
        give_up = stop_at + grace
        while self._inflight() and time.perf_counter() < give_up:
            for conn, rec in self._poll(0.5):
                if rec.recv < stop_at and not conn.closed:
                    issue(conn)
        return records, start

    def open_loop(self, requests: list[Request], rate: float,
                  grace: float = 60.0) -> list[Record]:
        """Send request i at start + i / rate whatever the replies do,
        round-robin over the connections. Latency counts from the due
        time, so a stalled generator or server charges every request
        that waited behind it."""
        start = time.perf_counter() + 0.05
        records = [Record(req, start + i / rate) for i, req in enumerate(requests)]
        i = 0
        while i < len(records):
            now = time.perf_counter()
            while i < len(records) and records[i].due <= now:
                conn = self.conns[i % len(self.conns)]
                if conn.closed:
                    i += 1
                    continue
                conn.send(records[i])
                i += 1
            wait = records[i].due - time.perf_counter() if i < len(records) else 0.0
            self._poll(max(0.0, wait))
        give_up = time.perf_counter() + grace
        while self._inflight() and time.perf_counter() < give_up:
            self._poll(0.5)
        return records
