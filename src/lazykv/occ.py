"""Optimistic concurrency control, classic and future-aware.

Classic transactions read eagerly (recording versions), buffer concrete
writes, and validate the whole read set at commit.  Future-aware
transactions defer reads (futures), write expressions, and assert
conditions.  Commit latches the written keys and the deferred-read keys in
sorted order, reads the deferred reads, latches the future write-keys once
they resolve, validates the recorded reads, and then runs the shared steps
of commit.py: asserted conditions are re-resolved against the latched
reads and compared with the results the transaction observed, and the
last write per key is resolved and installed.

Condition checks read the current value at call time but record no
version; the commit-time re-evaluation is the sole guard.  That is what
lets a condition survive concurrent writes that preserve its truth, where
a version check would abort.

Latches live in a LatchTable: one plain lock per key in flight, which
commit takes exclusively in sorted key order (deadlock-free).  A
cross-partition prepare (dist) also shares the keys it only read.  Latches
never wound anyone, so a transaction with nothing to validate (empty rset,
empty cset) can wait but cannot abort.  If resolving a future write-key
produces a key that is not latched yet, commit tries to latch it without
waiting, which cannot deadlock; only if another transaction holds it does
commit release everything and restart with the larger latch set, keeping
the sorted order global.

Commit does not latch read-set keys.  validate_reads checks them the way
Silo does (Tu et al., SOSP 2013): a key passes only if its version is
unchanged *and* no other transaction holds its latch exclusively.  A
transaction that holds the latch may be about to install a new version,
so a reader validating against it must abort; checking the version alone
lets two transactions that each read what the other writes both commit
(write skew).

The execution-time reads (is_true, read_future_key) take any deployment's
key -> store lookup, so Cluster's optimistic family runs the same code and
pays one message per store it touches.  Speculative condition checks (the
+ variant) record an assumed result with zero storage contact; commit
arbitrates.  A wrong assumption costs one abort, a right one saves the
round trip.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set

from . import futexpr
from .commit import (ABORTS, Abort, CommitOutcome, RESOLUTION_ERROR,
                     STALE_READ, check_conditions, fw_entries, merge_writes,
                     reason_of, resolve_as, resolve_fw_keys, resolve_writes,
                     static_intents)
from .futexpr import Expr, ResolutionError, ResolvedValues, Value
from .locks import LockTimeout, StampClock
from .meter import MessageMeter
from .store import NotFound, Store
from .txn import COMMITTED, Deployment, TxnContext

_MAX_LATCH_RESTARTS = 32


class _Latch:
    __slots__ = ("lock", "owner", "readers", "users")

    def __init__(self):
        self.lock = threading.Lock()
        self.owner = None   # the exclusive holder, once recorded
        self.readers = []   # shared holders; together they hold lock
        self.users = 0      # every holder plus every waiter

    def waiting(self) -> int:
        """Acquirers still waiting; the caller holds the table mutex."""
        return self.users - (len(self.readers) or self.lock.locked())


class LatchTable:
    """Per-key commit latches for the optimistic family.

    Each key in flight has one threading.Lock.  An exclusive acquirer that
    finds it taken blocks on that lock itself.  A shared (read) latch never
    waits: the first reader takes the lock, later readers join it while
    nobody holds it exclusively or waits to, and the last reader to leave
    releases it.
    An entry exists only while someone holds or awaits its key, so the
    table never outgrows the keys of the commits in progress.  Each owner's
    held keys are listed, so release_all frees them in one pass.
    Re-acquiring a key one already holds is a no-op; an exclusive request
    from the only reader upgrades its latch."""

    def __init__(self):
        self._mutex = threading.Lock()
        self._latches: Dict[str, _Latch] = {}
        self._held: Dict[object, List[str]] = {}  # owner -> latched keys

    def acquire_write(self, owner, key: str,
                      timeout: Optional[float] = None) -> None:
        """Latch key exclusively for owner, waiting at most timeout seconds
        (forever when None); raises LockTimeout when the wait runs out.
        The only reader upgrades in place.  A reader that is not the only
        one raises LockTimeout at once: the others read the same version,
        so if it waited for them, both could write over that version."""
        with self._mutex:
            latch = self._latches.get(key)
            if latch is None:
                latch = self._latches[key] = _Latch()
            elif latch.owner is owner:
                return
            elif owner in latch.readers:
                if len(latch.readers) > 1:
                    raise LockTimeout(key)
                latch.readers = []
                latch.owner = owner
                return
            latch.users += 1
            if latch.lock.acquire(False):
                latch.owner = owner
                self._held.setdefault(owner, []).append(key)
                return
        if not latch.lock.acquire(timeout=-1 if timeout is None else timeout):
            with self._mutex:
                latch.users -= 1
                if not latch.users:
                    del self._latches[key]
            raise LockTimeout(key)
        with self._mutex:
            latch.owner = owner
            self._held.setdefault(owner, []).append(key)

    def acquire_read(self, owner, key: str) -> bool:
        """Latch key shared for owner, without waiting; False when another
        transaction holds it exclusively or waits to, so that a stream of
        overlapping readers cannot starve a writer."""
        with self._mutex:
            latch = self._latches.get(key)
            if latch is None:
                latch = self._latches[key] = _Latch()
            elif latch.owner is owner or owner in latch.readers:
                return True
            elif latch.waiting():
                return False
            if not latch.readers and not latch.lock.acquire(False):
                return False
            latch.readers.append(owner)
            latch.users += 1
            self._held.setdefault(owner, []).append(key)
            return True

    def release_all(self, owner) -> None:
        """Drop every latch owner holds; idempotent."""
        with self._mutex:
            for key in self._held.pop(owner, ()):
                latch = self._latches[key]
                latch.users -= 1
                if latch.owner is owner:
                    latch.owner = None
                else:
                    latch.readers.remove(owner)
                    if latch.readers:
                        continue
                if not latch.users:
                    del self._latches[key]
                latch.lock.release()

    def held_by_other(self, owner, key: str) -> bool:
        """True when a transaction other than owner holds key's latch
        exclusively; shared holders only read.

        Reads without the table mutex: an exclusive latch taken before this
        call started is always seen, because its entry exists before its
        lock is taken and it has no readers, and a holder whose ownership is
        not recorded yet counts as another transaction."""
        latch = self._latches.get(key)
        return (latch is not None and latch.lock.locked()
                and not latch.readers and latch.owner is not owner)

    def held_keys(self, owner) -> Set[str]:
        with self._mutex:
            return set(self._held.get(owner, ()))

    def queued_keys(self) -> List[str]:
        """Keys that some transaction is waiting to latch."""
        with self._mutex:
            return sorted(k for k, latch in self._latches.items()
                          if latch.waiting() > 0)

    def dump_key(self, key: str) -> str:
        """Human-readable latch state, for the diagnostic flag."""
        with self._mutex:
            latch = self._latches.get(key)
            if latch is None:
                return "%s: unlocked" % key
            if latch.readers:
                holder = "read by stamps %s" % ", ".join(
                    str(r.stamp) for r in latch.readers)
            elif latch.owner is not None:
                holder = "latched by stamp %d" % latch.owner.stamp
            else:
                holder = "latched by a transaction being recorded"
            return "%s:\n  %s\n  waiting: %d" % (key, holder, latch.waiting())


def is_true(dep, ctx: TxnContext, cond: Expr) -> bool:
    """Assert a predicate on deployment dep: evaluate it against current
    values (point reads, no version recorded) and remember the result for
    commit-time re-validation."""
    ctx.require_active()
    located = []
    touched = set()
    vals: ResolvedValues = {}
    try:
        for h in cond.handles:
            key = ctx.key_of(h)
            st = dep.store_for(key)
            touched.add(st)
            located.append((h, key, st))
        if touched:
            dep.meter.trip("is_true", messages=len(touched))
        for h, key, st in located:
            vals[h] = st.get(key)[0]
        result = resolve_as("bool", "condition", cond, vals)
    except (NotFound, ResolutionError):
        ctx.abort()
        raise
    ctx.cset.append((cond, result))
    return result


def read_future_key(dep, ctx: TxnContext, k: Expr) -> Expr:
    """Read through a key-valued expression on deployment dep: eagerly
    resolve the key (reading and version-recording whatever futures it
    needs), record the resolved key's version too, and hand back a fresh
    future for its value.  The value stays lazy."""
    ctx.require_active()
    touched = set()
    try:
        for h in k.handles:
            if h in ctx.eager_values:
                continue
            key = ctx.key_of(h)
            st = dep.store_for(key)
            touched.add(st)
            v, ver = st.get(key)
            ctx.rset.setdefault(key, ver)
            ctx.eager_values[h] = v
        key = resolve_as("str", "key expression", k, ctx.eager_values)
        if ctx.buffered_write(key) is None:
            st = dep.store_for(key)
            touched.add(st)
            ctx.rset.setdefault(key, st.get(key)[1])
    except (NotFound, ResolutionError):
        ctx.abort()
        raise
    dep.meter.trip("read_key", messages=max(1, len(touched)))
    return futexpr.read_future(key, ctx)


def is_true_speculative(ctx: TxnContext, cond: Expr, assumed: bool) -> bool:
    """Assume the predicate's result without touching storage; the
    commit-time check arbitrates.  Zero messages."""
    ctx.require_active()
    ctx.cset.append((cond, bool(assumed)))
    return bool(assumed)


def validate_reads(ctx: TxnContext, rset: Dict[str, int], store: Store,
                   latches: LatchTable) -> None:
    """Silo-style read validation: a key passes if its version is unchanged
    and no other transaction holds its latch exclusively."""
    for key, ver in rset.items():
        if store.version(key) != ver or latches.held_by_other(ctx, key):
            raise Abort(STALE_READ)


def _try_latch(latches: LatchTable, ctx: TxnContext, keys) -> bool:
    """Latch keys outside the sorted order without waiting, so that no
    deadlock can form; False once one of them is held by another."""
    for key in sorted(keys):
        try:
            latches.acquire_write(ctx, key, timeout=0)
        except LockTimeout:
            return False
    return True


class OccEngine(Deployment):
    def __init__(self, store: Store, clock: Optional[StampClock] = None,
                 meter: Optional[MessageMeter] = None):
        self.store = store
        self.latches = LatchTable()
        super().__init__([store], [self.latches], clock, meter)

    begin = Deployment.begin

    # -- reads and conditions ----------------------------------------------

    def classic_read(self, ctx: TxnContext, key: str) -> Value:
        """Eager read: fetch now, record the version for validation."""
        ctx.require_active()
        buffered = ctx.buffered_write(key)
        if buffered is not None:
            return futexpr.resolve(buffered, ctx.eager_values)
        self.meter.trip("read")
        try:
            v, ver = self.store.get(key)
        except NotFound:
            ctx.abort()
            raise
        ctx.rset.setdefault(key, ver)
        return v

    def lsd_read_future_key(self, ctx: TxnContext, k: Expr) -> Expr:
        return read_future_key(self, ctx, k)

    def lsd_is_true(self, ctx: TxnContext, cond: Expr) -> bool:
        return is_true(self, ctx, cond)

    def lsd_is_true_speculative(self, ctx: TxnContext, cond: Expr,
                                assumed: bool) -> bool:
        return is_true_speculative(ctx, cond, assumed)

    # -- commit ------------------------------------------------------------

    def lsd_commit(self, ctx: TxnContext) -> CommitOutcome:
        ctx.require_active()
        self.meter.trip("commit")
        store, latches = self.store, self.latches
        rvalues: ResolvedValues = {}
        try:
            known = sorted(set(ctx.wset) | set(ctx.frset.values()))
            for _restart in range(_MAX_LATCH_RESTARTS):
                for key in known:
                    latches.acquire_write(ctx, key)
                rvalues = {}
                for h, key in ctx.frset.items():
                    rvalues[h] = store.get(key)[0]
                resolved_fw = resolve_fw_keys(fw_entries(ctx), rvalues)
                extra = {k for k, _seq, _v in resolved_fw}.difference(known)
                if _try_latch(latches, ctx, extra):
                    break
                # a future write-key resolved outside the latch set is
                # taken: widen and redo from scratch in sorted order
                latches.release_all(ctx)
                known = sorted(extra.union(known))
            else:
                raise Abort(RESOLUTION_ERROR)
            validate_reads(ctx, ctx.rset, store, latches)
            check_conditions(ctx.cset, rvalues)
            writes = resolve_writes(
                merge_writes(static_intents(ctx), resolved_fw), rvalues)
        except ABORTS as e:
            return self._fail(ctx, reason_of(e), rvalues)
        store.put_all(writes)
        latches.release_all(ctx)
        ctx.status = COMMITTED
        return CommitOutcome(True, rvalues, None)
