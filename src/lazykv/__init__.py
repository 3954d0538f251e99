"""Embeddable transactional key-value store with lazily evaluated writes.

Transactions read values as futures, write expressions over those futures,
and assert predicate outcomes instead of concrete values; everything
unresolved is evaluated inside the commit, where the freshest data is at
hand.  Both an optimistic engine and a locking engine implement the same
client surface, a partitioned deployment adds two-phase commit on top, and
a benchmark harness measures what the laziness buys under contention.

    >>> import lazykv
    >>> store = lazykv.Store()
    >>> engine = lazykv.OccEngine(store)
    >>> store.put("stock", 42, 1)
    >>> txn = engine.begin()
    >>> f = lazykv.read_future("stock", txn)
    >>> engine.lsd_is_true(txn, lazykv.ge(f, lazykv.const(10)))
    True
    >>> txn.write("stock", lazykv.sub(f, lazykv.const(10)))
    >>> engine.lsd_commit(txn).committed
    True
    >>> store.get("stock")
    (32, 2)
"""

from .futexpr import (ArityError, Expr, FutureHandle, IntOverflow,
                      ResolutionError, ResolvedValues, TypeMismatch,
                      UnboundHandle, Value, add, and_, compose, concat, const,
                      eq, from_sexpr, ge, gt, keys, le, lt, not_, or_, read,
                      read_future, resolve, sub, to_sexpr, to_str)
from .store import NotFound, SnapshotError, Store, VersionRegression
from .locks import (ConditionEntry, LockManager, LockTimeout, LockUsageError,
                    StampClock, Wounded)
from .txn import TxnContext, TxnInactive
from .meter import MessageMeter
from .commit import (CommitOutcome, CONDITION_INVALIDATED, NOT_FOUND,
                     PREPARE_TIMEOUT, RESOLUTION_ERROR, STALE_READ,
                     WOUNDED_REASON)
from .occ import OccEngine
from .tpl import TplEngine, UnsupportedCondition
from .dist import (Cluster, ConfigurationError, DirectoryPartitionMap,
                   DistOutcome, HashPartitionMap, Participant, PartitionMap,
                   can_skip_extra_round)

__version__ = "0.1.0"

__all__ = [
    "ArityError", "Expr", "FutureHandle", "IntOverflow", "ResolutionError",
    "ResolvedValues", "TypeMismatch", "UnboundHandle", "Value", "add", "and_",
    "compose", "concat", "const", "eq", "from_sexpr", "ge", "gt", "keys",
    "le", "lt", "not_", "or_", "read", "read_future", "resolve", "sub",
    "to_sexpr", "to_str",
    "NotFound", "SnapshotError", "Store", "VersionRegression",
    "ConditionEntry", "LockManager", "LockTimeout", "LockUsageError",
    "StampClock", "Wounded",
    "TxnContext", "TxnInactive",
    "MessageMeter",
    "CommitOutcome", "CONDITION_INVALIDATED", "NOT_FOUND", "PREPARE_TIMEOUT",
    "RESOLUTION_ERROR", "STALE_READ", "WOUNDED_REASON", "OccEngine",
    "TplEngine", "UnsupportedCondition",
    "Cluster", "ConfigurationError", "DirectoryPartitionMap", "DistOutcome",
    "HashPartitionMap", "Participant", "PartitionMap", "can_skip_extra_round",
    "__version__",
]
