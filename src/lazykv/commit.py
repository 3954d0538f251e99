"""The commit steps that every commit path shares.

A lazy commit is one algorithm whichever path runs it (OccEngine and
TplEngine commits, a Participant's prepare, Cluster's two-phase commit):
take the path's own latches or locks and read the deferred-read keys, then

  resolve_fw_keys   resolve each future write-key; it must be a string
  merge_writes      keep the last write per key, by sequence number, across
                    write() and write_future_key()
  check_conditions  re-resolve each asserted condition and compare it with
                    the result the transaction observed (optimistic family;
                    the locking family enforces conditions with lock modes)
  resolve_writes    resolve the winning value expressions

and install.  These functions are pure: they touch no store and no lock.
A step that refuses the commit raises; every path catches ABORTS and
reports reason_of(exc) as the abort reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from . import futexpr
from .futexpr import Expr, ResolutionError, ResolvedValues, Value, value_kind
from .locks import LockTimeout, Wounded
from .store import NotFound

STALE_READ = "stale_read"
CONDITION_INVALIDATED = "condition_invalidated"
NOT_FOUND = "not_found"
RESOLUTION_ERROR = "resolution_error"
WOUNDED_REASON = "wounded"
PREPARE_TIMEOUT = "prepare_timeout"

FwEntry = Tuple[Expr, int, Expr]     # (key expr, write seq, value expr)
FwWrite = Tuple[str, int, Expr]      # (resolved key, write seq, value expr)
Intents = Dict[str, Tuple[int, Expr]]  # key -> (write seq, value expr)


@dataclass
class CommitOutcome:
    committed: bool
    rvalues: ResolvedValues = field(default_factory=dict)
    reason: Optional[str] = None

    def __bool__(self):
        return self.committed


class Abort(Exception):
    """A commit step refused the transaction; reason is the abort reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


#: Everything a commit step raises to abort the transaction.
ABORTS = (Abort, NotFound, ResolutionError, Wounded, LockTimeout)


def reason_of(exc: Exception) -> str:
    """The abort reason for one of ABORTS."""
    if isinstance(exc, Abort):
        return exc.reason
    if isinstance(exc, NotFound):
        return NOT_FOUND
    if isinstance(exc, Wounded):
        return WOUNDED_REASON
    if isinstance(exc, LockTimeout):
        return PREPARE_TIMEOUT
    return RESOLUTION_ERROR


def resolve_as(kind: str, what: str, e: Expr, values: ResolvedValues) -> Value:
    """Resolve e and require a value of kind ("str" for keys, "bool" for
    conditions); TypeMismatch names what was resolved otherwise."""
    v = futexpr.resolve(e, values)
    if value_kind(v) != kind:
        raise futexpr.TypeMismatch("%s resolved to %r" % (what, v))
    return v


def fw_entries(ctx) -> List[FwEntry]:
    """The transaction's future-keyed writes with their sequence numbers."""
    return [(k, seq, v) for (k, v), seq in zip(ctx.fwset, ctx.fwseq)]


def resolve_fw_keys(entries: Iterable[FwEntry],
                    values: ResolvedValues) -> List[FwWrite]:
    return [(resolve_as("str", "write key", k, values), seq, v)
            for k, seq, v in entries]


def static_intents(ctx) -> Intents:
    """The writes whose key was known at write() time, last one per key."""
    return {key: (ctx.wseq[key], e) for key, e in ctx.wset.items()}


def merge_writes(intents: Intents, resolved_fw: Iterable[FwWrite]) -> Intents:
    """Fold resolved future-keyed writes into intents (in place): the
    write with the larger sequence number wins a key."""
    for key, seq, e in resolved_fw:
        if key not in intents or seq > intents[key][0]:
            intents[key] = (seq, e)
    return intents


def check_conditions(cset, values: ResolvedValues) -> None:
    for cond, expected in cset:
        if futexpr.resolve(cond, values) != expected:
            raise Abort(CONDITION_INVALIDATED)


def resolve_writes(intents: Intents, values: ResolvedValues) -> Dict[str, Value]:
    return {key: futexpr.resolve(e, values) for key, (_seq, e) in intents.items()}
