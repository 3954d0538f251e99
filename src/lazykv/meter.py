"""Round-trip accounting between clients and storage.

Every operation that would cross the wire in a client/server deployment
calls trip(kind) on the deployment's meter.  The meter counts the message
by kind (the local-read property and the speculation tests are assertions
over these counters) and yields the thread, because a real round trip is a
scheduling point: concurrent clients interleave at message boundaries, not
inside server-side critical sections.  An optional fixed latency stands in
for the network.

The yield must be a real sleep: sleep(0) releases the interpreter lock for
an instant but the releaser nearly always wins it straight back, so other
clients never run and every thread executes whole transactions back to
back, which erases the read-to-commit races the benchmarks exist to
exhibit.  The shortest positive sleep the OS grants (tens of microseconds)
parks this thread properly and lets every other runnable client proceed,
which is exactly what a round trip does in a client/server deployment.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Dict


class MessageMeter:
    def __init__(self, latency_us: int = 0):
        self._mutex = threading.Lock()
        self._counts: Counter = Counter()
        self.latency_us = latency_us

    MIN_YIELD_S = 1e-6  # rounded up to the kernel's timer slack

    def trip(self, kind: str, messages: int = 1) -> None:
        with self._mutex:
            self._counts[kind] += messages
        time.sleep(max(self.latency_us * 1e-6, self.MIN_YIELD_S))

    def snapshot(self) -> Dict[str, int]:
        with self._mutex:
            return dict(self._counts)

    def total(self) -> int:
        with self._mutex:
            return sum(self._counts.values())

    def reset(self) -> None:
        with self._mutex:
            self._counts.clear()
