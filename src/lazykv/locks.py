"""Per-key lock manager: read/write modes, condition locks, wound-wait.

Lock modes per key:
  R      plain shared read
  W      plain exclusive write
  R(p)   read-condition: a predicate over the key's value plus the result
         the owner observed; held instead of a read lock after is-true
  W(v)   write-value: exclusive write that names the concrete value v the
         owner will install, so it can coexist with condition holders whose
         predicates v preserves

Compatibility (requested row vs held column; value cells decided by
evaluating the installed predicate against the pending/candidate value):

               R      W      R(p)     W(v) sat   W(v) unsat
    R          ok     -      ok       -          -
    W          -      -      -        -          -
    R(p)       ok     -      ok       ok         -
    W(v) sat   -      -      ok       -          -
    W(v) unsat -      -      -        -          -

This manager serves the locking family; the optimistic engines latch
through occ.LatchTable instead.

Design rules:
  - One mutex guards the whole manager.  A request that cannot be granted
    at once parks outside it on an Event built for that request; granted
    requests never build one.
  - Wait queue per key is FIFO; the grant walk stops at the first
    incompatible waiter so writers cannot starve behind a reader stream.
  - Upgrades (requester already holds the key) bypass the queue: they are
    evaluated against held state only and park at the queue front.  Without
    this, read-then-write transactions would deadlock behind their own
    blocked followers.
  - Read-modify-write commits acquire W(v) with a value *function* instead
    of a concrete value (acquire_write_fn).  The manager calls it under its
    mutex at every grant attempt, so the candidate value always reflects
    the current committed state and no plain-R-then-upgrade step is needed.
    Two committers of the same key then serialize FIFO instead of
    deadlocking on their read locks.  A function that cannot produce a
    value yet returns UNRESOLVABLE, which satisfies no condition.
  - Wound-wait: an older requester wounds younger conflicting holders and
    then waits; a younger requester just waits.  A wound sets the victim's
    one-way flag and the Event of the request it is parked on, in whatever
    manager (partition) that is; the owner publishes that Event as
    owner.waiting while it waits.  The victim cleans up after itself:
    under its own manager's mutex it leaves the queue, runs that key's
    grant walk and raises Wounded.  Every acquisition checks the flag on
    entry, and a parked request checks it before each wait, so a wound
    that read owner.waiting before it was published still lands.  Wounded
    queue entries are leaving, so no wound scan counts them.
  - Whenever a new holder is installed while an older waiter stays parked
    against it (possible via the upgrade bypass and FIFO grants), the new
    holder is wounded.  Queue positions are wait-for edges as well: a
    stalled entry stalls everything conflicting behind it, so parking also
    wounds younger conflicting entries ahead in the queue and wounds the
    requester itself when an older conflicting entry sits behind it (the
    upgrade front-insertion creates exactly that shape).  Together these
    keep the waits-for relation, holder edges and queue edges alike, free
    of older-waits-on-unwounded-younger pairs, which is what makes it
    acyclic.
  - Value drift adds holder edges without any new holder: a parked
    function-valued W(v) request gets a fresh candidate at every grant
    attempt, and a candidate that preserved a younger holder's condition
    when the request parked may violate it later.  So when the grant walk
    finds such a request incompatible at the queue front, it wounds the
    request's younger blockers, exactly as parking does.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .futexpr import Expr, FutureHandle, ResolutionError, Value, keys, resolve

GRANTED = "granted"
WOUNDED = "wounded"
PENDING = "pending"


class _Unresolvable:
    def __repr__(self):
        return "UNRESOLVABLE"


#: Candidate write value that cannot be computed yet (missing input or a
#: resolution failure).  Never satisfies a condition, never matches a
#: read-condition probe; the owner sorts out the failure after the grant.
UNRESOLVABLE = _Unresolvable()


class Wounded(Exception):
    """The requester was aborted by an older transaction."""


class LockTimeout(Exception):
    """Acquisition gave up at its deadline.  timeout=0 gives up at once,
    but only after the wounds that parking deals: an older requester
    wounds as it would with any timeout."""


class LockUsageError(RuntimeError):
    """API misuse: condition without a read lock, multi-key condition, ..."""


class StampClock:
    """Allocates the totally ordered wound-wait stamps.  Share one clock
    across every engine of a deployment so age comparisons are global."""

    def __init__(self):
        self._mutex = threading.Lock()
        self._next = 1

    def next(self) -> int:
        with self._mutex:
            s = self._next
            self._next += 1
            return s


@dataclass
class ConditionEntry:
    """A predicate over one key plus the result its owner observed."""

    cond: Expr
    expected: bool
    owner: object  # anything with .stamp / .wounded / .waiting
    handle: FutureHandle


class _Request:
    __slots__ = ("owner", "mode", "value", "value_fn", "cond", "expected",
                 "handle", "upgrade", "event", "outcome", "key_name")

    def __init__(self, owner, mode, value=None, value_fn=None, cond=None,
                 expected=None, handle=None, upgrade=False):
        self.owner = owner
        self.mode = mode  # "r" | "w" | "wv" | "rc"
        self.value = value
        self.value_fn = value_fn  # recomputes value at each grant attempt
        self.cond = cond
        self.expected = expected
        self.handle = handle
        self.upgrade = upgrade
        self.event: Optional[threading.Event] = None  # built when parking
        self.outcome = PENDING
        self.key_name = ""


class _KeyState:
    __slots__ = ("readers", "writer", "writer_mode", "writer_value", "conditions", "queue")

    def __init__(self):
        self.readers: Dict[int, object] = {}  # stamp -> owner
        self.writer: Optional[object] = None
        self.writer_mode: Optional[str] = None  # "w" | "wv"
        self.writer_value: Optional[Value] = None
        self.conditions: List[ConditionEntry] = []
        self.queue: List[_Request] = []

    def idle(self) -> bool:
        return (not self.readers and self.writer is None
                and not self.conditions and not self.queue)


def _single_handle(cond: Expr) -> FutureHandle:
    hs = keys(cond)
    if len(hs) != 1:
        raise LockUsageError(
            "condition locks take exactly one future, got %d" % len(hs))
    return next(iter(hs))


# Requested mode -> modes of an entry ahead in the wait queue that can stall
# it, judged statically (value-dependent cells count as conflicting: wounding
# on a stale candidate value is conservative, missing a wound could leave a
# cycle).  An R or R(p) entry ahead stalls an R(p) request behind a writer
# whose value keeps the request's own predicate.
_MODE_CONFLICT = {
    "r": ("w", "wv"),
    "w": ("r", "w", "wv", "rc"),
    "wv": ("r", "w", "wv", "rc"),
    "rc": ("r", "w", "wv", "rc"),
}


def _entry_satisfied(entry: ConditionEntry, value: Value) -> bool:
    # An unevaluable predicate (type mismatch against the candidate value)
    # cannot be preserved, so it counts as violated.
    if value is UNRESOLVABLE:
        return False
    try:
        return resolve(entry.cond, {entry.handle: value}) == entry.expected
    except ResolutionError:
        return False


class LockManager:
    def __init__(self):
        self._mutex = threading.Lock()
        self._keys: Dict[str, _KeyState] = {}
        self._held: Dict[int, Set[str]] = {}  # stamp -> keys with any hold

    # -- public API --------------------------------------------------------

    def acquire_read(self, txn, key: str,
                     timeout: Optional[float] = None) -> None:
        self._acquire(txn, key, _Request(txn, "r"), timeout)

    def acquire_write(self, txn, key: str,
                      timeout: Optional[float] = None) -> None:
        self._acquire(txn, key, _Request(txn, "w"), timeout)

    def acquire_write_value(self, txn, key: str, value: Value,
                            timeout: Optional[float] = None) -> None:
        self._acquire(txn, key, _Request(txn, "wv", value=value), timeout)

    def acquire_write_fn(self, txn, key: str, value_fn,
                         timeout: Optional[float] = None) -> None:
        """Write-value lock whose candidate value is value_fn(), re-run under
        the manager mutex at every grant attempt.  For read-modify-write
        commits: the function typically reads the key's current committed
        value and computes the replacement, which stays valid from grant to
        install because the grant excludes every other writer.

        value_fn must not raise and must not touch this manager; it returns
        a plain value or UNRESOLVABLE."""
        req = _Request(txn, "wv", value=UNRESOLVABLE, value_fn=value_fn)
        self._acquire(txn, key, req, timeout)

    def update_write_value(self, txn, key: str, value: Value) -> None:
        """Replace the pending value of a held write-value lock after late
        inputs resolved.  Conditions that the new value no longer preserves
        are wounded away (younger) or win against this txn (older)."""
        with self._mutex:
            st = self._keys.get(key)
            if st is None or st.writer is not txn:
                raise LockUsageError(
                    "update_write_value(%r) without the write lock" % key)
            if st.writer_mode != "wv":
                return  # plain exclusive hold subsumes any value
            st.writer_value = value
            losers = [e for e in st.conditions
                      if e.owner is not txn and not _entry_satisfied(e, value)]
            for e in losers:
                if e.owner.stamp > txn.stamp:
                    self._wound(e.owner)
                else:
                    raise Wounded(txn.stamp)
            self._wound_younger_holder_vs_waiters(st, txn)
            self._grant_walk(st)

    def acquire_read_condition(self, txn, key: str, cond: Expr, expected: bool,
                               timeout: Optional[float] = None) -> None:
        h = _single_handle(cond)
        req = _Request(txn, "rc", cond=cond, expected=expected, handle=h)
        self._acquire(txn, key, req, timeout)

    def add_condition(self, txn, key: str, cond: Expr, expected: bool) -> None:
        """Install a condition under a held plain read lock (the is-true
        critical section); the caller downgrades via release_read after."""
        h = _single_handle(cond)
        with self._mutex:
            self._check_wounded(txn)
            st = self._state(key)
            if txn.stamp not in st.readers:
                raise LockUsageError(
                    "add_condition(%r) without a held read lock" % key)
            req = _Request(txn, "rc", cond=cond, expected=expected, handle=h)
            if self._install(st, req, key):  # idempotent per (txn, cond)
                self._wound_younger_holder_vs_waiters(st, txn)

    def rem_condition(self, txn, key: str, cond: Expr) -> None:
        """Remove this txn's entry; absent entry is a no-op.  Never checks
        the wound flag: abort paths must always get through."""
        with self._mutex:
            st = self._keys.get(key)
            if st is None:
                return
            before = len(st.conditions)
            st.conditions = [e for e in st.conditions
                             if not (e.owner is txn and e.cond == cond)]
            if len(st.conditions) != before:
                self._forget_if_free(txn, key, st)
                self._grant_walk(st)
            self._gc(key, st)

    def release_read(self, txn, key: str) -> None:
        """Drop only the plain read lock (the downgrade after
        add_condition); conditions stay installed."""
        with self._mutex:
            st = self._keys.get(key)
            if st is None or txn.stamp not in st.readers:
                return
            del st.readers[txn.stamp]
            self._forget_if_free(txn, key, st)
            self._grant_walk(st)
            self._gc(key, st)

    def release_all(self, txn) -> None:
        """Drop every mode and condition held by txn; idempotent."""
        with self._mutex:
            for key in list(self._held.get(txn.stamp, ())):
                st = self._keys.get(key)
                if st is None:
                    continue
                st.readers.pop(txn.stamp, None)
                if st.writer is txn:
                    st.writer = None
                    st.writer_mode = None
                    st.writer_value = None
                st.conditions = [e for e in st.conditions if e.owner is not txn]
                self._grant_walk(st)
                self._gc(key, st)
            self._held.pop(txn.stamp, None)

    def held_keys(self, txn) -> Set[str]:
        with self._mutex:
            return set(self._held.get(txn.stamp, ()))

    def queued_keys(self) -> List[str]:
        """Keys with at least one parked request."""
        with self._mutex:
            return sorted(k for k, st in self._keys.items() if st.queue)

    def dump_key(self, key: str) -> str:
        """Human-readable lock state, for the diagnostic flag."""
        with self._mutex:
            st = self._keys.get(key)
            if st is None or st.idle():
                return "%s: unlocked" % key
            lines = ["%s:" % key]
            if st.readers:
                lines.append("  readers: %s" % sorted(st.readers))
            if st.writer is not None:
                if st.writer_mode == "w":
                    lines.append("  writer: stamp %d (exclusive)" % st.writer.stamp)
                else:
                    lines.append("  writer: stamp %d (value %r pending)"
                                 % (st.writer.stamp, st.writer_value))
            for e in st.conditions:
                lines.append("  condition: stamp %d expects %s = %s"
                             % (e.owner.stamp, e.cond, e.expected))
            for r in st.queue:
                lines.append("  waiting: stamp %d for %s%s"
                             % (r.owner.stamp, r.mode,
                                " (upgrade)" if r.upgrade else ""))
            return "\n".join(lines)

    # -- internals ---------------------------------------------------------

    def _state(self, key: str) -> _KeyState:
        st = self._keys.get(key)
        if st is None:
            st = self._keys[key] = _KeyState()
        return st

    def _gc(self, key: str, st: _KeyState) -> None:
        if st.idle():
            self._keys.pop(key, None)

    def _note_held(self, txn, key: str) -> None:
        held = self._held.get(txn.stamp)
        if held is None:
            held = self._held[txn.stamp] = set()
        held.add(key)

    def _forget_if_free(self, txn, key: str, st: _KeyState) -> None:
        if (txn.stamp not in st.readers and st.writer is not txn
                and not any(e.owner is txn for e in st.conditions)):
            held = self._held.get(txn.stamp)
            if held is not None:
                held.discard(key)
                if not held:
                    del self._held[txn.stamp]

    def _check_wounded(self, txn) -> None:
        if txn.wounded:
            raise Wounded(txn.stamp)

    def _refresh(self, req: _Request) -> None:
        """Recompute a function-valued candidate so compatibility is judged
        against the value the owner would install right now."""
        if req.value_fn is not None:
            req.value = req.value_fn()

    @staticmethod
    def _others_read(st: _KeyState, owner) -> bool:
        for o in st.readers.values():
            if o is not owner:
                return True
        return False

    def _compatible(self, st: _KeyState, req: _Request) -> bool:
        owner = req.owner
        writer = st.writer
        if writer is owner:
            writer = None
        m = req.mode
        if m == "r":
            return writer is None
        if m == "w" or m == "wv":
            if writer is not None or self._others_read(st, owner):
                return False
            for e in st.conditions:
                if e.owner is not owner and (
                        m == "w" or not _entry_satisfied(e, req.value)):
                    return False
            return True
        if m == "rc":
            if writer is None:
                return True
            if st.writer_mode == "w" or st.writer_value is UNRESOLVABLE:
                return False
            try:
                got = resolve(req.cond, {req.handle: st.writer_value})
            except ResolutionError:
                return False
            return got == req.expected
        raise AssertionError(m)

    def _blockers(self, st: _KeyState, req: _Request) -> List[object]:
        """The holders whose presence makes req incompatible."""
        owner = req.owner
        m = req.mode
        out = []
        if m == "w" or m == "wv":
            out.extend(o for o in st.readers.values() if o is not owner)
        writer = st.writer
        if writer is not None and writer is not owner and (
                m != "rc" or not self._compatible(st, req)):
            out.append(writer)
        if m == "w" or m == "wv":
            out.extend(e.owner for e in st.conditions
                       if e.owner is not owner
                       and (m == "w" or not _entry_satisfied(e, req.value)))
        return out

    def _install(self, st: _KeyState, req: _Request, key: str) -> bool:
        """Apply a granted request to the key state.  Returns True when the
        grant added holdership (rather than being a reentrant no-op)."""
        txn = req.owner
        if req.mode == "r":
            if st.writer is txn or txn.stamp in st.readers:
                return False  # reentrant; writer subsumes read
            st.readers[txn.stamp] = txn
        elif req.mode in ("w", "wv"):
            st.readers.pop(txn.stamp, None)  # upgrade consumes the read hold
            already = st.writer is txn
            st.writer = txn
            if req.mode == "w":
                st.writer_mode, st.writer_value = "w", None
            elif st.writer_mode != "w":
                st.writer_mode, st.writer_value = "wv", req.value
            if already:
                self._note_held(txn, key)
                return False
        elif req.mode == "rc":
            for e in st.conditions:
                if e.owner is txn and e.cond == req.cond:
                    e.expected = req.expected
                    return False
            st.conditions.append(
                ConditionEntry(req.cond, req.expected, txn, req.handle))
        self._note_held(txn, key)
        return True

    def _wound(self, victim) -> None:
        victim.wounded = True
        waiting = victim.waiting  # the victim may be clearing it right now
        if waiting is not None:
            waiting.set()

    @staticmethod
    def _settle(req: _Request, outcome: str) -> None:
        req.outcome = outcome
        req.event.set()

    def _wound_younger_blockers(self, st: _KeyState, req: _Request) -> None:
        self._refresh(req)
        for blocker in self._blockers(st, req):
            if blocker.stamp > req.owner.stamp:
                self._wound(blocker)

    def _wound_queue_conflicts(self, st: _KeyState, req: _Request) -> None:
        """A parked entry stalls every conflicting entry behind it (the
        grant walk is FIFO), so queue positions are wait-for edges.  Wound
        younger conflicting entries ahead of req, and req itself when an
        older conflicting entry is behind it; otherwise a barrier edge
        could close a cycle no holder edge exposes."""
        me = st.queue.index(req)
        for i, e in enumerate(st.queue):
            if e is req or e.owner.wounded:
                continue
            if (i < me and e.owner.stamp > req.owner.stamp
                    and e.mode in _MODE_CONFLICT[req.mode]):
                self._wound(e.owner)
            elif (i > me and e.owner.stamp < req.owner.stamp
                    and req.mode in _MODE_CONFLICT[e.mode]):
                self._wound(req.owner)
                return

    def _wound_younger_holder_vs_waiters(self, st: _KeyState, holder) -> None:
        """New holder installed; wound it if an older parked waiter on this
        key conflicts with the new hold."""
        for waiter in st.queue:
            if waiter.owner.stamp < holder.stamp and not waiter.owner.wounded:
                self._refresh(waiter)
                if any(b is holder for b in self._blockers(st, waiter)):
                    self._wound(holder)
                    return

    def _grant_walk(self, st: _KeyState) -> None:
        """Grant queued requests front-to-back, stopping at the first
        incompatible one (FIFO fairness barrier)."""
        while st.queue:
            req = st.queue[0]
            if req.owner.wounded:  # leaving anyway: must not stall the rest
                st.queue.pop(0)
                self._settle(req, WOUNDED)
                continue
            self._refresh(req)
            if not self._compatible(st, req):
                if req.value_fn is not None:  # the candidate may have drifted
                    self._wound_younger_blockers(st, req)
                return
            st.queue.pop(0)
            added = self._install(st, req, req.key_name)
            self._settle(req, GRANTED)
            if added:
                self._wound_younger_holder_vs_waiters(st, req.owner)

    def _acquire(self, txn, key: str, req: _Request,
                 timeout: Optional[float]) -> None:
        req.key_name = key
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._mutex:
            self._check_wounded(txn)
            st = self._state(key)
            holds_here = (txn.stamp in st.readers or st.writer is txn
                          or any(e.owner is txn for e in st.conditions))
            req.upgrade = holds_here
            self._refresh(req)
            if (holds_here or not st.queue) and self._compatible(st, req):
                if self._install(st, req, key):
                    self._wound_younger_holder_vs_waiters(st, txn)
                return
            if txn.waiting is not None:
                raise LockUsageError(
                    "owner %d already has a parked request" % txn.stamp)
            if req.upgrade:
                pos = 0
                while pos < len(st.queue) and st.queue[pos].upgrade:
                    pos += 1
                st.queue.insert(pos, req)
            else:
                st.queue.append(req)
            # published under the mutex; from here on a wound from any
            # manager sets this event, and so does every outcome change
            req.event = txn.waiting = threading.Event()
            self._wound_younger_blockers(st, req)
            self._wound_queue_conflicts(st, req)
            # the wounds may have freed the key already
            self._grant_walk(st)
        try:
            # check first, wait second: a wound that read txn.waiting before
            # it was published has already set the flag
            while not self._wait_over(txn, st, req, deadline):
                req.event.wait(None if deadline is None
                               else max(0.0, deadline - time.monotonic()))
        finally:
            txn.waiting = None

    def _wait_over(self, txn, st: _KeyState, req: _Request,
                   deadline: Optional[float]) -> bool:
        """True once req is granted.  A wounded or timed-out request leaves
        the queue itself, runs the key's grant walk for the requests behind
        it, and raises."""
        with self._mutex:
            if req.outcome == GRANTED:
                return True
            if req.outcome == WOUNDED:  # dropped by a grant walk
                raise Wounded(txn.stamp)
            timed_out = deadline is not None and time.monotonic() >= deadline
            if not (txn.wounded or timed_out):
                return False
            st.queue.remove(req)
            self._grant_walk(st)
            self._gc(req.key_name, st)
            if txn.wounded:
                raise Wounded(txn.stamp)
            raise LockTimeout(req.key_name)
