"""Optimistic concurrency control, classic and future-aware.

Classic transactions read eagerly (recording versions), buffer concrete
writes, and validate the whole read set at commit.  Future-aware
transactions defer reads (futures), write expressions, and assert
conditions; commit then:

  1. latches the written keys and the deferred-read keys, in sorted order,
  2. reads every deferred-read key into rvalues,
  3. resolves future write-keys against rvalues, latching them too,
  4. validates the recorded reads,
  5. re-resolves every asserted condition against rvalues and compares it
     to the result the transaction observed,
  6. resolves the write expressions and installs them with fresh versions,
  7. unlatches and returns the resolved values to the client.

Condition checks read the current value at call time but record no
version; the commit-time re-evaluation (step 5) is the sole guard.  That
is what lets a condition survive concurrent writes that preserve its
truth, where a version check would abort.

Latches live in a LatchTable: one plain exclusive lock per key in flight,
taken in sorted key order (deadlock-free).  They never wound anyone, so a
transaction with nothing to validate (empty rset, empty cset) can wait but
cannot abort.  If resolving a future write-key produces a key that is not
latched yet, commit releases everything and restarts with the larger latch
set, keeping the sorted order global.

Read-set keys are not latched.  Step 4 validates them the way Silo does
(Tu et al., SOSP 2013): a key passes only if its version is unchanged *and*
no other transaction holds its latch.  A transaction that holds the latch
may be about to install a new version, so a reader validating against it
must abort; checking the version alone lets two transactions that each
read what the other writes both commit (write skew).

Speculative condition checks (the + variant) record an assumed result with
zero storage contact; commit arbitrates.  A wrong assumption costs one
abort, a right one saves the round trip.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from . import futexpr
from .futexpr import Expr, ResolutionError, ResolvedValues, Value, value_kind
from .locks import LockTimeout, StampClock
from .meter import MessageMeter
from .store import NotFound, Store
from .txn import ABORTED, COMMITTED, TxnContext

STALE_READ = "stale_read"
CONDITION_INVALIDATED = "condition_invalidated"
NOT_FOUND = "not_found"
RESOLUTION_ERROR = "resolution_error"
WOUNDED_REASON = "wounded"

_MAX_LATCH_RESTARTS = 32


@dataclass
class CommitOutcome:
    committed: bool
    rvalues: ResolvedValues = field(default_factory=dict)
    reason: Optional[str] = None

    def __bool__(self):
        return self.committed


class _Latch:
    __slots__ = ("lock", "owner", "users")

    def __init__(self):
        self.lock = threading.Lock()
        self.owner = None   # set once the holder is recorded
        self.users = 0      # the holder plus every waiter


class LatchTable:
    """Exclusive per-key commit latches for the optimistic family.

    Each key in flight has one threading.Lock; an acquirer that finds it
    taken blocks on that lock itself.  An entry exists only while someone
    holds or awaits its key, so the table never outgrows the keys of the
    commits in progress.  Each owner's held keys are listed, so
    release_all frees them in one pass.  Re-acquiring a key one already
    holds is a no-op."""

    def __init__(self):
        self._mutex = threading.Lock()
        self._latches: Dict[str, _Latch] = {}
        self._held: Dict[object, List[str]] = {}  # owner -> latched keys

    def acquire_write(self, owner, key: str,
                      timeout: Optional[float] = None) -> None:
        """Latch key for owner, waiting at most timeout seconds (forever
        when None); raises LockTimeout when the wait runs out."""
        with self._mutex:
            latch = self._latches.get(key)
            if latch is None:
                latch = self._latches[key] = _Latch()
            elif latch.owner is owner:
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

    def release_all(self, owner) -> None:
        """Drop every latch owner holds; idempotent."""
        with self._mutex:
            for key in self._held.pop(owner, ()):
                latch = self._latches[key]
                latch.owner = None
                latch.users -= 1
                if not latch.users:
                    del self._latches[key]
                latch.lock.release()

    def held_by_other(self, owner, key: str) -> bool:
        """True when a transaction other than owner holds key's latch.

        Reads without the table mutex: a latch taken before this call
        started is always seen, because its entry exists before its lock is
        taken, and a holder whose ownership is not recorded yet counts as
        another transaction."""
        latch = self._latches.get(key)
        return (latch is not None and latch.lock.locked()
                and latch.owner is not owner)

    def held_keys(self, owner) -> Set[str]:
        with self._mutex:
            return set(self._held.get(owner, ()))

    def queued_keys(self) -> List[str]:
        """Keys that some transaction is waiting to latch."""
        with self._mutex:
            return sorted(k for k, latch in self._latches.items()
                          if latch.users > 1)

    def dump_key(self, key: str) -> str:
        """Human-readable latch state, for the diagnostic flag."""
        with self._mutex:
            latch = self._latches.get(key)
            if latch is None:
                return "%s: unlocked" % key
            owner = latch.owner
            holder = ("stamp %d" % owner.stamp if owner is not None
                      else "a transaction being recorded")
            return "%s:\n  latched by %s\n  waiting: %d" % (
                key, holder, latch.users - 1)


class OccEngine:
    def __init__(self, store: Store, clock: Optional[StampClock] = None,
                 meter: Optional[MessageMeter] = None):
        self.store = store
        self.clock = clock or StampClock()
        self.meter = meter or MessageMeter()
        self.latches = LatchTable()
        self._ids = itertools.count(1)

    # -- lifecycle ---------------------------------------------------------

    def begin(self, stamp: Optional[int] = None) -> TxnContext:
        """Start a transaction.  Purely local.  A retry of an aborted
        transaction passes its old stamp to keep its wound-wait age."""
        if stamp is None:
            stamp = self.clock.next()
        return TxnContext(next(self._ids), stamp, engine=self)

    def on_abort(self, ctx: TxnContext) -> None:
        self.latches.release_all(ctx)

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
        """Read through a key-valued expression: eagerly resolve the key
        (reading and version-recording whatever futures it needs), record
        the resolved key's version too, and hand back a fresh future for
        its value.  The value stays lazy."""
        ctx.require_active()
        self.meter.trip("read_key")
        try:
            for h in k.handles:
                if h in ctx.eager_values:
                    continue
                if h not in ctx.frset:
                    raise futexpr.UnboundHandle("foreign handle %r" % (h,))
                v, ver = self.store.get(ctx.frset[h])
                ctx.rset.setdefault(ctx.frset[h], ver)
                ctx.eager_values[h] = v
            key = futexpr.resolve(k, ctx.eager_values)
            if value_kind(key) != "str":
                raise futexpr.TypeMismatch("key expression resolved to %r" % (key,))
            if ctx.buffered_write(key) is None:
                _v, ver = self.store.get(key)
                ctx.rset.setdefault(key, ver)
        except (NotFound, ResolutionError):
            ctx.abort()
            raise
        return futexpr.read_future(key, ctx)

    def lsd_is_true(self, ctx: TxnContext, cond: Expr) -> bool:
        """Assert a predicate: evaluate it against current values (point
        reads, no version recorded) and remember the result for commit-time
        re-validation."""
        ctx.require_active()
        handles = cond.handles
        vals: ResolvedValues = {}
        if handles:
            self.meter.trip("is_true")
        try:
            for h in handles:
                if h not in ctx.frset:
                    raise futexpr.UnboundHandle("foreign handle %r" % (h,))
                v, _ver = self.store.get(ctx.frset[h])
                vals[h] = v
            result = futexpr.resolve(cond, vals)
            if value_kind(result) != "bool":
                raise futexpr.TypeMismatch("condition resolved to %r" % (result,))
        except (NotFound, ResolutionError):
            ctx.abort()
            raise
        ctx.cset.append((cond, result))
        return result

    def lsd_is_true_speculative(self, ctx: TxnContext, cond: Expr,
                                assumed: bool) -> bool:
        """Assume the predicate's result without touching storage; the
        commit-time check arbitrates.  Zero messages."""
        ctx.require_active()
        ctx.cset.append((cond, bool(assumed)))
        return bool(assumed)

    # -- commit ------------------------------------------------------------

    def _fail(self, ctx: TxnContext, reason: str,
              rvalues: ResolvedValues) -> CommitOutcome:
        self.latches.release_all(ctx)
        ctx.status = ABORTED
        # rvalues are returned even on abort, advisory only: they are reads
        # taken under latches but not validated as a unit with anything.
        return CommitOutcome(False, rvalues, reason)

    def lsd_commit(self, ctx: TxnContext) -> CommitOutcome:
        ctx.require_active()
        self.meter.trip("commit")
        store, latches = self.store, self.latches
        rvalues: ResolvedValues = {}
        resolved_fw: List[Tuple[str, int, Expr]] = []  # (key, seq, value expr)

        known = sorted(set(ctx.wset) | set(ctx.frset.values()))
        for _restart in range(_MAX_LATCH_RESTARTS):
            for key in known:
                latches.acquire_write(ctx, key)
            rvalues = {}
            resolved_fw = []
            try:
                for h, key in ctx.frset.items():
                    v, _ver = store.get(key)
                    rvalues[h] = v
                for (kexpr, vexpr), seq in zip(ctx.fwset, ctx.fwseq):
                    k = futexpr.resolve(kexpr, rvalues)
                    if value_kind(k) != "str":
                        raise futexpr.TypeMismatch(
                            "write key resolved to %r" % (k,))
                    resolved_fw.append((k, seq, vexpr))
            except NotFound:
                return self._fail(ctx, NOT_FOUND, rvalues)
            except ResolutionError:
                return self._fail(ctx, RESOLUTION_ERROR, rvalues)
            extra = {k for k, _, _ in resolved_fw} - set(known)
            if not extra:
                break
            # a future write-key resolved outside the latch set: widen and
            # redo from scratch so acquisition order stays globally sorted
            latches.release_all(ctx)
            known = sorted(set(known) | extra)
        else:
            return self._fail(ctx, RESOLUTION_ERROR, rvalues)

        for key, ver in ctx.rset.items():
            if store.version(key) != ver or latches.held_by_other(ctx, key):
                return self._fail(ctx, STALE_READ, rvalues)

        for cond, expected in ctx.cset:
            try:
                got = futexpr.resolve(cond, rvalues)
            except ResolutionError:
                return self._fail(ctx, RESOLUTION_ERROR, rvalues)
            if got != expected:
                return self._fail(ctx, CONDITION_INVALIDATED, rvalues)

        # last write per key wins, across both buffering APIs
        intents: Dict[str, Tuple[int, Expr]] = {}
        for key, e in ctx.wset.items():
            intents[key] = (ctx.wseq[key], e)
        for key, seq, e in resolved_fw:
            if key not in intents or seq > intents[key][0]:
                intents[key] = (seq, e)
        try:
            writes = {key: futexpr.resolve(e, rvalues)
                      for key, (_seq, e) in intents.items()}
        except ResolutionError:
            return self._fail(ctx, RESOLUTION_ERROR, rvalues)

        for key in sorted(writes):
            store.put(key, writes[key], store.next_version(key))
        latches.release_all(ctx)
        ctx.status = COMMITTED
        return CommitOutcome(True, rvalues, None)
