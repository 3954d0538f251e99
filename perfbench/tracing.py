"""Span tracing for the traced run, installed from outside the program.

`install()` replaces the public functions of each layer with wrappers that
record one span per call: name, start, end, parent span and the benchmark
transaction it ran for.  Spans are kept in memory, one set of flat arrays per
thread (34 bytes a span), and written out when the run ends.

What the wrappers cannot see: names bound by `from ... import` inside the
program (`resolve`, `keys` and `value_kind` in `locks`, `occ` and `tpl`) never
pass through them, so their time lands in the calling span's self time.
`futexpr.resolve` recurses through its module name, so only the outermost
call of a nest is recorded.
"""

from __future__ import annotations

import gzip
import threading
import time
from array import array
from typing import Callable, Dict, List, Tuple

NO_TXN = -1

_perf = time.perf_counter


class _Spans:
    """One thread's spans; index in the arrays is the span's id."""

    def __init__(self, tid: int):
        self.tid = tid
        self.name = array("h")
        self.parent = array("l")
        self.txn = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.open: Dict[int, int] = {}   # name id -> calls open on this thread
        self.txn_id = NO_TXN


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.threads: List[_Spans] = []
        self._local = threading.local()
        self._mutex = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    def spans(self) -> _Spans:
        s = getattr(self._local, "spans", None)
        if s is None:
            with self._mutex:
                s = _Spans(len(self.threads))
                self.threads.append(s)
            self._local.spans = s
        return s

    def name_id(self, name: str) -> int:
        with self._mutex:
            if name not in self.names:
                self.names.append(name)
            return self.names.index(name)

    def begin(self, nid: int) -> Tuple[_Spans, int]:
        s = self.spans()
        i = len(s.start)
        s.name.append(nid)
        s.parent.append(s.stack[-1] if s.stack else -1)
        s.txn.append(s.txn_id)
        s.end.append(0.0)
        s.stack.append(i)
        s.start.append(_perf())
        return s, i

    @staticmethod
    def end(s: _Spans, i: int) -> None:
        s.end[i] = _perf()
        s.stack.pop()

    def wrap(self, fn: Callable, name: str, outermost: bool = False) -> Callable:
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        if outermost:
            spans = self.spans

            def traced(*args, **kwargs):
                s = spans()
                if s.open.get(nid):
                    return fn(*args, **kwargs)
                s.open[nid] = 1
                s, i = begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(s, i)
                    s.open[nid] = 0
        else:
            def traced(*args, **kwargs):
                s, i = begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(s, i)
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, outermost: bool = False) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, outermost))
        else:
            new = self.wrap(raw, name, outermost)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer's public entry points (see the module docstring
        for what stays invisible)."""
        from lazykv import dist, futexpr, locks, meter, occ, store, tpl
        self.patch(futexpr, "resolve", "futexpr.resolve", outermost=True)
        self.patch(futexpr, "keys", "futexpr.keys")
        self.patch(store.Store, "get", "store.get")
        self.patch(store.Store, "put", "store.put")
        self.patch(store.Store, "load_snapshot", "store.load_snapshot")
        for attr in ("acquire_read", "acquire_write", "acquire_write_value",
                     "acquire_write_fn", "acquire_read_condition",
                     "add_condition"):
            self.patch(locks.LockManager, attr, "locks.acquire")
        for attr in ("release_read", "release_all", "rem_condition"):
            self.patch(locks.LockManager, attr, "locks.release")
        self.patch(meter.MessageMeter, "trip", "meter.trip")
        for cls in (occ.OccEngine, tpl.TplEngine, dist.Cluster):
            self.patch(cls, "begin", "txn.begin")
        for attr in ("lsd_commit", "lsd_is_true", "classic_read"):
            self.patch(occ.OccEngine, attr, "occ." + attr)
        for attr in ("lsd_commit", "lsd_is_true"):
            self.patch(tpl.TplEngine, attr, "tpl." + attr)
        self.patch(dist.Cluster, "lsd_commit", "dist.lsd_commit")
        self.patch(dist.Participant, "prepare", "dist.prepare")
        self.patch(dist.Participant, "prepare2", "dist.prepare")
        self.patch(dist.Participant, "decide", "dist.decide")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def totals(self, t0: float, t1: float) -> Dict[str, Dict[str, float]]:
        """Per span name, over spans that start in [t0, t1): calls, total
        seconds, and self seconds (total minus direct children)."""
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        rows = [out[n] for n in self.names]
        for s in self.threads:
            n = len(s.start)
            start, end, parent = s.start, s.end, s.parent
            child = array("d", bytes(8 * n))
            for i in range(n):
                if parent[i] >= 0 and end[i]:
                    child[parent[i]] += end[i] - start[i]
            for i in range(n):
                if t0 <= start[i] < t1 and end[i]:
                    row = rows[s.name[i]]
                    d = end[i] - start[i]
                    row["calls"] += 1
                    row["total_s"] += d
                    row["self_s"] += d - child[i]
        return out

    def durations(self, name: str) -> List[float]:
        nid = self.name_id(name)
        return [s.end[i] - s.start[i] for s in self.threads
                for i in range(len(s.start)) if s.name[i] == nid and s.end[i]]

    def write(self, path: str, t_origin: float) -> int:
        """Write every span as gzipped tab-separated text, times in µs from
        t_origin; returns the span count."""
        count = 0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("thread\tspan\tparent\ttxn\tname\tstart_us\tend_us\n")
            for s in self.threads:
                f.writelines("%d\t%d\t%d\t%d\t%s\t%.1f\t%.1f\n" % (
                    s.tid, i, s.parent[i], s.txn[i], names[s.name[i]],
                    (s.start[i] - t_origin) * 1e6, (s.end[i] - t_origin) * 1e6)
                    for i in range(len(s.start)))
                count += len(s.start)
        return count
