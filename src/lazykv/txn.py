"""Protocol-agnostic transaction lifecycle and the client-facing buffers.

A TxnContext carries the five per-transaction sets:

  rset   what was read concretely (key and, for optimistic engines, the
         version observed)
  wset   buffered writes: key -> value expression
  frset  futures handed out for delayed reads (handle -> key)
  fwset  buffered writes whose *key* is itself an expression
  cset   conditions asserted via is-true, with the result reported

Buffered effects are invisible to every other transaction until commit.
read_future / write / write_future_key are purely local: they exchange no
messages with storage.

Writes keep a per-call sequence number; at commit the last write to a
resolved key wins regardless of whether it came through write() or
write_future_key().  Retry policy lives with the caller: commit reports the
abort and the caller decides whether to run the transaction again (engines
accept a stamp so a retry can keep its wound-wait age).

Deployment is what the single-node engines and Cluster share: the
transaction lifecycle (begin, the abort path) and the data plane used
outside any transaction (load, values_dict, snapshots, lock inspection).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from .commit import CommitOutcome
from .futexpr import Expr, FutureHandle, ResolvedValues, UnboundHandle, Value
from .locks import StampClock
from .meter import MessageMeter
from .store import Store, write_snapshot

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


class TxnInactive(RuntimeError):
    """Operation on a committed or aborted transaction."""


class TxnContext:
    __slots__ = ("txn_id", "stamp", "wounded", "waiting", "status", "rset",
                 "wset", "frset", "fwset", "cset", "engine", "_next_handle",
                 "_next_seq", "wseq", "fwseq", "eager_values")

    def __init__(self, txn_id: int, stamp: int, engine=None):
        self.txn_id = txn_id
        self.stamp = stamp          # wound-wait age, smaller = older
        self.wounded = False        # one-way flag set by lock managers
        self.waiting = None         # Event of the lock request parked on
        self.status = ACTIVE
        self.rset: Dict[str, int] = {}              # key -> version (0 = keys only)
        self.wset: Dict[str, Expr] = {}             # key -> value expression
        self.frset: Dict[FutureHandle, str] = {}    # handle -> key
        self.fwset: List[Tuple[Expr, Expr]] = []    # (key expr, value expr)
        self.cset: List[Tuple[Expr, bool]] = []     # (condition, reported result)
        self.engine = engine
        self._next_handle = 1
        self._next_seq = 1
        self.wseq: Dict[str, int] = {}              # key -> seq of last write()
        self.fwseq: List[int] = []                  # seq per fwset entry
        self.eager_values: Dict[FutureHandle, object] = {}  # future-key resolution cache

    # -- plumbing used by futexpr.read_future ------------------------------

    def require_active(self) -> None:
        if self.status != ACTIVE:
            raise TxnInactive("transaction %d is %s" % (self.txn_id, self.status))

    def buffered_write(self, key: str) -> Optional[Expr]:
        return self.wset.get(key)

    def key_of(self, h: FutureHandle) -> str:
        """The key this transaction's future h reads."""
        key = self.frset.get(h)
        if key is None:
            raise UnboundHandle("foreign handle %r" % (h,))
        return key

    def new_future(self, key: str) -> FutureHandle:
        h = FutureHandle(self._next_handle, key)
        self._next_handle += 1
        self.frset[h] = key
        return h

    def _seq(self) -> int:
        s = self._next_seq
        self._next_seq += 1
        return s

    # -- client operations -------------------------------------------------

    def write(self, key: str, v: Expr) -> None:
        """Buffer a value expression for key; last writer within the
        transaction wins.  Purely local."""
        self.require_active()
        if not isinstance(v, Expr):
            raise TypeError("write takes an Expr; wrap constants with const()")
        self.wset[key] = v
        self.wseq[key] = self._seq()

    def write_future_key(self, k: Expr, v: Expr) -> None:
        """Buffer a write whose key is an expression, resolved at commit."""
        self.require_active()
        if not isinstance(k, Expr) or not isinstance(v, Expr):
            raise TypeError("write_future_key takes Expr key and value")
        self.fwset.append((k, v))
        self.fwseq.append(self._seq())

    def abort(self) -> None:
        """Abort and release protocol resources; idempotent."""
        if self.status == ABORTED:
            return
        if self.status == COMMITTED:
            raise TxnInactive("transaction %d already committed" % self.txn_id)
        self.status = ABORTED
        if self.engine is not None:
            self.engine.on_abort(self)


class Deployment:
    """Base of OccEngine, TplEngine and Cluster.

    stores lists the deployment's stores, one per partition, and tables
    the latch table or lock manager of each; store_for(key) names the store
    that owns key (on a single node, the only one).  Each subclass binds
    begin in its own class body (begin = Deployment.begin), so wrapping one
    class's entry point leaves the others alone."""

    def __init__(self, stores: List[Store], tables: list,
                 clock: Optional[StampClock], meter: Optional[MessageMeter]):
        self.stores = stores
        self.tables = tables
        self.clock = clock or StampClock()
        self.meter = meter or MessageMeter()
        self._ids = itertools.count(1)

    def store_for(self, key: str) -> Store:
        return self.stores[0]

    def begin(self, stamp: Optional[int] = None) -> TxnContext:
        """Start a transaction.  Purely local.  A retry of an aborted
        transaction passes its old stamp to keep its wound-wait age."""
        if stamp is None:
            stamp = self.clock.next()
        return TxnContext(next(self._ids), stamp, engine=self)

    def on_abort(self, ctx: TxnContext) -> None:
        for table in self.tables:
            table.release_all(ctx)

    def _fail(self, ctx: TxnContext, reason: str,
              rvalues: ResolvedValues) -> CommitOutcome:
        self.on_abort(ctx)
        ctx.status = ABORTED
        # rvalues are returned even on abort, advisory only: they are reads
        # taken under latches or locks but not validated as a unit
        return CommitOutcome(False, rvalues, reason)

    # -- data plane, outside any transaction -------------------------------

    def load(self, key: str, value: Value) -> None:
        """Initial data placement."""
        self.store_for(key).put_all({key: value})

    def values_dict(self) -> Dict[str, Value]:
        """Every key's current value, in a new dict the caller owns.  Each
        store's map is merged straight into it under that store's mutex,
        with no per-store copy."""
        out: Dict[str, Value] = {}
        for st in self.stores:
            st.values_into(out)
        return out

    def load_snapshot(self, path: str) -> None:
        """Install a snapshot's records straight into the stores that own
        their keys; valid only before any transaction runs."""
        Store.load_snapshot(path, into=self.store_for)

    def save_snapshot(self, path: str) -> None:
        write_snapshot(path, self.stores)

    def dump_key(self, key: str) -> str:
        """Human-readable latch or lock state of key, per partition."""
        if len(self.tables) == 1:
            return self.tables[0].dump_key(key)
        return "\n".join("partition %d: %s" % (pid, t.dump_key(key))
                         for pid, t in enumerate(self.tables))

    def queued_keys(self) -> List[str]:
        """Keys that some transaction is waiting for."""
        return sorted({k for t in self.tables for k in t.queued_keys()})
