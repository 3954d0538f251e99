"""Strict two-phase locking, classic and future-aware.

Classic transactions lock at access time (read locks on reads, write locks
on writes), buffer their writes, and apply them at commit while still
holding everything (deferred-write strict 2PL: the abort path is a plain
release).

Future-aware transactions keep execution local and lock at the edges:

  is-true   locks the key, reads it, evaluates the predicate, installs the
            (predicate, result) pair as a condition entry, then downgrades
            by dropping the plain read lock.  The entry keeps every later
            writer honest: a write may slip past it only if the value it
            installs preserves the observed result.
  commit    read-locks and reads the deferred-read keys it will not
            rewrite, then locks each read-modify-write key with a single
            write-value acquisition whose candidate value is recomputed
            from the live value at every grant attempt (no
            read-lock-then-upgrade step, so concurrent committers of one
            key serialize instead of deadlocking).  The shared steps of
            commit.py then resolve the future write-keys and the last
            write per key; each write is locked at its value, installed,
            and everything is released.  Write-value locks coexist with
            condition holders whose predicates the value preserves.

Deadlocks are prevented by wound-wait: an older requester wounds younger
conflicting holders; a younger requester waits.  A wounded transaction
aborts at its next lock call or commit entry.  Validation never aborts a
two-phase-locking transaction: every non-wounded commit succeeds.

Conditions are limited to predicates over exactly one key; asserting a
multi-key predicate raises UnsupportedCondition (the optimistic engine
supports them).

There is no lsd_read_future_key (its key is unknown until read, so it
cannot be locked before the read) and no lsd_is_true_speculative (an
assumed result installs no condition entry to enforce it).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from . import futexpr
from .commit import (ABORTS, CommitOutcome, fw_entries, merge_writes,
                     reason_of, resolve_as, resolve_fw_keys, resolve_writes,
                     static_intents)
from .futexpr import (Expr, FutureHandle, ResolutionError, ResolvedValues,
                      Value, value_kind)
from .locks import UNRESOLVABLE, LockManager, StampClock, Wounded
from .meter import MessageMeter
from .store import NotFound, Store
from .txn import COMMITTED, Deployment, TxnContext


class UnsupportedCondition(Exception):
    """Predicate spans more than one key; out of this engine's scope."""


class TplEngine(Deployment):
    def __init__(self, store: Store, clock: Optional[StampClock] = None,
                 meter: Optional[MessageMeter] = None,
                 locks: Optional[LockManager] = None):
        self.store = store
        self.locks = locks or LockManager()
        super().__init__([store], [self.locks], clock, meter)

    begin = Deployment.begin

    # -- execution-time operations ----------------------------------------

    def classic_read(self, ctx: TxnContext, key: str) -> Value:
        ctx.require_active()
        buffered = ctx.buffered_write(key)
        if buffered is not None:
            return futexpr.resolve(buffered, ctx.eager_values)
        self.meter.trip("read")
        try:
            self.locks.acquire_read(ctx, key)
            v, ver = self.store.get(key)
        except (Wounded, NotFound):
            ctx.abort()
            raise
        ctx.rset.setdefault(key, ver)
        return v

    def classic_write(self, ctx: TxnContext, key: str, v: Value) -> None:
        """Take the write lock now, buffer the concrete value, apply at
        commit."""
        ctx.require_active()
        value_kind(v)
        self.meter.trip("write_lock")
        try:
            self.locks.acquire_write(ctx, key)
        except Wounded:
            ctx.abort()
            raise
        ctx.write(key, futexpr.const(v))

    def lsd_is_true(self, ctx: TxnContext, cond: Expr) -> bool:
        ctx.require_active()
        handles = cond.handles
        if not handles:
            result = resolve_as("bool", "condition", cond, {})
            ctx.cset.append((cond, result))
            return result
        if len(handles) != 1:
            raise UnsupportedCondition(
                "condition reads %d keys, need exactly 1" % len(handles))
        (h,) = handles
        key = ctx.key_of(h)
        self.meter.trip("is_true")
        try:
            self.locks.acquire_read(ctx, key)
            v, _ver = self.store.get(key)
            result = resolve_as("bool", "condition", cond, {h: v})
            self.locks.add_condition(ctx, key, cond, result)
            self.locks.release_read(ctx, key)  # downgrade to read-condition mode
        except (Wounded, NotFound, ResolutionError):
            ctx.abort()
            raise
        ctx.cset.append((cond, result))
        return result

    # -- commit ------------------------------------------------------------

    def _candidate_fn(self, key: str, expr: Expr, handles: List[FutureHandle],
                      rvalues: ResolvedValues):
        """Candidate-value closure for the write-value lock on a
        read-modify-write key: read the current committed value, bind this
        key's futures, resolve the buffered expression.  Total by contract;
        failures surface as UNRESOLVABLE and re-raise post-grant."""
        def fn() -> object:
            try:
                v, _ver = self.store.get(key)
            except NotFound:
                return UNRESOLVABLE
            env = dict(rvalues)
            for h in handles:
                env[h] = v
            try:
                return futexpr.resolve(expr, env)
            except ResolutionError:
                return UNRESOLVABLE
        return fn

    def lsd_commit(self, ctx: TxnContext) -> CommitOutcome:
        ctx.require_active()
        self.meter.trip("commit")
        rvalues: ResolvedValues = {}
        try:
            if ctx.wounded:
                raise Wounded(ctx.stamp)
            intents = static_intents(ctx)
            handles_by_key: Dict[str, List[FutureHandle]] = {}
            for h, key in ctx.frset.items():
                handles_by_key.setdefault(key, []).append(h)
            rmw = [k for k in sorted(handles_by_key) if k in intents]

            for key in sorted(handles_by_key):
                if key in intents:
                    continue  # rewritten: read under the write lock instead
                self.locks.acquire_read(ctx, key)
                v, _ver = self.store.get(key)
                for h in handles_by_key[key]:
                    rvalues[h] = v

            # own condition entries stay installed until release_all: they
            # are exempt from this txn's own lock requests but keep every
            # violating writer parked through the whole commit window
            for key in rmw:
                self.locks.acquire_write_fn(
                    ctx, key, self._candidate_fn(
                        key, intents[key][1], handles_by_key[key], rvalues))
                v, _ver = self.store.get(key)  # stable: writers excluded now
                for h in handles_by_key[key]:
                    rvalues[h] = v

            writes = resolve_writes(merge_writes(
                intents, resolve_fw_keys(fw_entries(ctx), rvalues)), rvalues)
            rmw_held = set(rmw)
            for key in sorted(writes):
                if key in rmw_held:
                    self.locks.update_write_value(ctx, key, writes[key])
                else:
                    self.locks.acquire_write_value(ctx, key, writes[key])
        except ABORTS as e:
            return self._fail(ctx, reason_of(e), rvalues)
        self.store.put_all(writes)
        self.locks.release_all(ctx)
        ctx.status = COMMITTED
        return CommitOutcome(True, rvalues, None)
