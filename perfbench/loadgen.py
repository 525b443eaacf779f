"""Open-loop load generation against the service's JSON-lines transport.

Requests are sent on a schedule of *absolute* due times: the sender
sleeps until each deadline, never for a relative gap, so one late send
does not shift every later one (sleeping relative gaps lets lateness
pile up unseen).  Latency is timed from a request's due time, not from
when it was actually sent, so a stalled sender still charges the stall
to the requests it delayed; how late the sender ran is reported as
``lag``.

The clock and sleep are injectable, so the arithmetic is testable
against a fake clock.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence


def paced_offsets(arrivals: Sequence[float], rate_rps: float,
                  previous: float = 0.0) -> list[float]:
    """Due offsets (s) at ``rate_rps`` from unit-rate Poisson arrival times.

    ``arrivals`` are cumulative arrival times of a rate-1 Poisson
    process and ``previous`` the arrival just before them; dividing the
    gaps by the rate gives a Poisson process at that rate, whose first
    request is due one inter-arrival gap after the phase starts.
    """
    if rate_rps <= 0:
        raise ValueError("rate must be > 0")
    return [(arrival - previous) / rate_rps for arrival in arrivals]


def send_open_loop(dues: Sequence[float], send: Callable[[int], None],
                   clock: Callable[[], float] = time.perf_counter,
                   sleep: Callable[[float], None] = time.sleep,
                   ) -> list[float]:
    """Send request ``i`` at absolute time ``dues[i]``; return send times.

    Sleeps until each deadline (never a relative gap).  A request whose
    deadline has already passed is sent at once.
    """
    sent: list[float] = []
    for index, due in enumerate(dues):
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent.append(clock())
        send(index)
    return sent


def lags(dues: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late each request was sent against its due time (s, >= 0)."""
    return [max(0.0, s - d) for d, s in zip(dues, sent)]


def latencies(dues: Sequence[float],
              received: Sequence[float | None]) -> list[float | None]:
    """Per-request latency from due time to reply (None when unanswered)."""
    return [None if r is None else r - d for d, r in zip(dues, received)]


@dataclass
class Exchange:
    """Send times, receipt times and replies, in request order."""

    sent: list[float]
    received: list[float | None]
    replies: list[dict | None]
    first_sent: float = 0.0
    last_received: float = 0.0


class Client:
    """One pipelined JSON-lines connection.

    The caller's thread sends; a reader thread stamps each reply as it
    arrives and matches it to its request by id.
    """

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")
        self._lock = threading.Lock()
        self._waiting: dict[str, int] = {}
        self._received: list[float | None] = []
        self._replies: list[dict | None] = []
        self._remaining = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        for raw in self._reader:
            stamp = time.perf_counter()
            document = json.loads(raw)
            key = str(document.get("id", ""))
            with self._lock:
                slot = self._waiting.pop(key, None)
                if slot is None:
                    continue
                self._received[slot] = stamp
                self._replies[slot] = document
                self._remaining -= 1
                if self._remaining == 0:
                    self._done.set()

    def exchange(self, lines: Sequence[tuple[str, str]],
                 dues: Sequence[float], timeout_s: float) -> Exchange:
        """Send ``(id, line)`` pairs at ``dues``; wait for every reply."""
        with self._lock:
            self._waiting = {key: slot for slot, (key, _) in enumerate(lines)}
            self._received = [None] * len(lines)
            self._replies = [None] * len(lines)
            self._remaining = len(lines)
            self._done.clear()
        payload = [(line + "\n").encode() for _, line in lines]
        sent = send_open_loop(dues, lambda i: self.sock.sendall(payload[i]))
        deadline = (dues[-1] if dues else time.perf_counter()) + timeout_s
        self._done.wait(timeout=max(0.0, deadline - time.perf_counter()))
        with self._lock:
            self._waiting = {}
            received = list(self._received)
            replies = list(self._replies)
        answered = [stamp for stamp in received if stamp is not None]
        return Exchange(sent, received, replies,
                        first_sent=min(sent) if sent else 0.0,
                        last_received=max(answered) if answered else 0.0)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._thread.join(timeout=5.0)
