"""Partitioned deployment: key routing, 2PC, and the extra prepare round.

Keys are spread over partitions by a routing policy (hash, or a directory
of key-prefix rules, e.g. one partition per warehouse).  Each partition
owns a store and a full local engine (optimistic or locking).  The
coordinator is the client's own thread; messages are direct in-process
calls through a counting meter, so the observable protocol cost (messages
and prepare rounds) is exact while the plumbing stays debuggable.

A transaction whose keys all live on one partition commits locally and
records zero 2PC rounds.  Otherwise the commit is the one of commit.py,
split across the partitions:

  round 1   each participant gets its slice: it latches/locks its local
            write and deferred-read keys (and, optimistic family, shares
            its read-set keys, so that a validated read stays valid until
            the decision), reads the deferred reads, and votes with the values
            it read.  Writes whose key is itself an unresolved expression
            cannot be prepared yet, unless the key's partition is
            statically known and all the futures it depends on live there
            too; in that case the entry rides along in round 1 and the
            participant resolves its key in place.
  round 2   needed exactly when some future write-key could not ride along
            (the skip test failed): the coordinator resolves those keys
            against the merged round-1 values and sends each to its
            partition to be latched/locked.
  decision  the coordinator checks asserted conditions against the merged
            values (optimistic family), resolves the last write per key,
            and tells each participant to install and release, or to
            release.

Each future write-key is resolved once, by its participant or by the
coordinator.  So: prepare rounds = 1 + (future write-keys present and not
skippable), exactly.  Participants hold their latches/locks from their
prepare until the decision; a latch that cannot be had within a short
deadline makes the participant vote no (watchdog against cross-partition
latch cycles), and the client retries.

Message schema (tagged in-process records, one request + one response
message counted per participant per round):

  prepare    {latch keys, deferred-read slice, read-version slice,
              ride-along future writes}        -> vote {ok, rvalues} | no
  prepare2   {resolved future write-keys}      -> vote {ok} | no
  decision   {commit, resolved writes} | abort -> ack
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import futexpr, occ
from .commit import (ABORTS, Abort, CommitOutcome, FwEntry, FwWrite,
                     STALE_READ, check_conditions, fw_entries, merge_writes, reason_of,
                     resolve_fw_keys, resolve_writes, static_intents)
from .futexpr import Expr, ResolutionError, ResolvedValues, Value
from .locks import StampClock
from .meter import MessageMeter
from .occ import OccEngine
from .store import Store
from .tpl import TplEngine
from .txn import ABORTED, COMMITTED, Deployment, TxnContext

_PREPARE_DEADLINE = 0.25  # seconds a participant will wait for one latch


class ConfigurationError(ValueError):
    """A key does not route anywhere under the configured policy."""


# -- routing ---------------------------------------------------------------

def _static_str(e: Expr) -> Tuple[str, bool]:
    """Longest statically known prefix of a string-valued expression, and
    whether the whole value is static."""
    if e.kind == "const":
        if isinstance(e.value, str):
            return e.value, True
        return "", False
    if e.kind == "read":
        return "", False
    if e.kind == "str":
        if not e.handles:
            try:
                return futexpr.resolve(e, {}), True
            except ResolutionError:
                return "", False
        return "", False
    if e.kind == "concat":
        pa, ca = _static_str(e.children[0])
        if not ca:
            return pa, False
        pb, cb = _static_str(e.children[1])
        return pa + pb, cb
    return "", False


class PartitionMap:
    """Deterministic, total key -> partition routing."""

    def __init__(self, n_partitions: int):
        if n_partitions < 1:
            raise ConfigurationError("need at least one partition")
        self.n_partitions = n_partitions

    def route(self, key: str) -> int:
        raise NotImplementedError

    def static_partition(self, kexpr: Expr) -> Optional[int]:
        """Partition of the key kexpr will resolve to, when that is
        determinable without resolving; None otherwise."""
        text, complete = _static_str(kexpr)
        if complete:
            return self.route(text)
        return self._prefix_partition(text)

    def _prefix_partition(self, prefix: str) -> Optional[int]:
        """Partition of every key that starts with prefix, if there is one.
        Under hashing any unresolved suffix can change the bucket."""
        return None


class HashPartitionMap(PartitionMap):
    def route(self, key: str) -> int:
        # crc32: stable across runs, unlike the salted builtin hash()
        return zlib.crc32(key.encode("utf-8")) % self.n_partitions


class DirectoryPartitionMap(PartitionMap):
    """Routes by the longest matching registered key prefix."""

    def __init__(self, n_partitions: int, entries: Dict[str, int]):
        super().__init__(n_partitions)
        for prefix, pid in entries.items():
            if not (0 <= pid < n_partitions):
                raise ConfigurationError(
                    "entry %r -> %d outside 0..%d" % (prefix, pid, n_partitions - 1))
        self.entries = dict(entries)
        self._by_length = sorted(self.entries, key=len, reverse=True)

    def route(self, key: str) -> int:
        for prefix in self._by_length:
            if key.startswith(prefix):
                return self.entries[prefix]
        raise ConfigurationError("no directory entry matches %r" % key)

    def _prefix_partition(self, text: str) -> Optional[int]:
        # a longer entry might still match once the suffix resolves; only
        # when no entry extends the static prefix is the match decided
        for prefix in self._by_length:
            if len(prefix) > len(text) and prefix.startswith(text):
                return None
        for prefix in self._by_length:
            if text.startswith(prefix):
                return self.entries[prefix]
        return None


def can_skip_extra_round(ctx: TxnContext, pm: PartitionMap) -> bool:
    """True iff every future write-key (1) has a statically known partition
    and (2) depends only on futures whose keys live on that partition, so
    the entry can ride along in round 1."""
    return _rides_along(ctx, [pm.static_partition(k) for k, _v in ctx.fwset],
                        pm.route)


def _rides_along(ctx: TxnContext, fw_pids: List[Optional[int]],
                 route: Callable[[str], int]) -> bool:
    """can_skip_extra_round, given each future write-key's static
    partition (in fwset order) and a key -> partition function."""
    for (kexpr, _vexpr), pid in zip(ctx.fwset, fw_pids):
        if pid is None:
            return False
        for h in kexpr.handles:
            if route(ctx.frset[h]) != pid:
                return False
    return True


# -- message records -------------------------------------------------------

@dataclass
class PrepareRequest:
    latch_keys: List[str]
    frset: Dict[futexpr.FutureHandle, str]
    rset: Dict[str, int]
    ride_along_fw: List[FwEntry] = field(default_factory=list)
    cset_remove: List[Tuple[str, Expr]] = field(default_factory=list)  # locking family
    local_values: Dict[str, Tuple[int, Expr]] = field(default_factory=dict)  # locking family


@dataclass
class PrepareVote:
    ok: bool
    rvalues: ResolvedValues = field(default_factory=dict)
    resolved_fw: List[FwWrite] = field(default_factory=list)
    reason: Optional[str] = None


@dataclass
class Prepare2Request:
    fw_writes: List[Tuple[str, Optional[Value]]]  # value set for locking family


@dataclass
class DecisionRequest:
    commit: bool
    writes: Dict[str, Value] = field(default_factory=dict)


# -- participants ----------------------------------------------------------

class Participant:
    """One partition: a store plus a full local engine."""

    def __init__(self, pid: int, family: str, clock: StampClock,
                 meter: MessageMeter):
        self.pid = pid
        self.family = family  # "occ" | "tpl"
        self.store = Store()
        engine_cls = OccEngine if family == "occ" else TplEngine
        self.engine = engine_cls(self.store, clock=clock, meter=meter)
        # latches for the optimistic family, locks for the locking one
        (self._locks,) = self.engine.tables

    def _vote(self, ctx: TxnContext, step, req) -> PrepareVote:
        try:
            return step(ctx, req)
        except ABORTS as e:
            self._locks.release_all(ctx)
            return PrepareVote(False, reason=reason_of(e))

    def prepare(self, ctx: TxnContext, req: PrepareRequest) -> PrepareVote:
        if self.family == "occ":
            return self._vote(ctx, self._prepare_occ, req)
        return self._vote(ctx, self._prepare_tpl, req)

    def _read_futures(self, req: PrepareRequest) -> ResolvedValues:
        return {h: self.store.get(key)[0] for h, key in req.frset.items()}

    def _prepare_occ(self, ctx: TxnContext, req: PrepareRequest) -> PrepareVote:
        latches = self.engine.latches
        # read-only keys are latched shared in the same pass: validated
        # here, they must stay valid until the decision, while later
        # partitions prepare.  A read key latched exclusively by another
        # transaction is about to change (as in validate_reads), so it is
        # not waited for; other readers do not conflict.
        latch_keys = set(req.latch_keys)
        for key in sorted(latch_keys.union(req.rset)):
            if key in latch_keys:
                latches.acquire_write(ctx, key, timeout=_PREPARE_DEADLINE)
            elif not latches.acquire_read(ctx, key):
                raise Abort(STALE_READ)
        rvalues = self._read_futures(req)
        resolved_fw = resolve_fw_keys(req.ride_along_fw, rvalues)
        for key in sorted({k for k, _seq, _v in resolved_fw}
                          .difference(latch_keys)):
            latches.acquire_write(ctx, key, timeout=_PREPARE_DEADLINE)
        occ.validate_reads(ctx, req.rset, self.store, latches)
        return PrepareVote(True, rvalues, resolved_fw)

    def _prepare_tpl(self, ctx: TxnContext, req: PrepareRequest) -> PrepareVote:
        locks = self._locks
        for key in sorted(set(req.frset.values())):
            locks.acquire_read(ctx, key, timeout=_PREPARE_DEADLINE)
        rvalues = self._read_futures(req)
        for key, cond in req.cset_remove:
            locks.rem_condition(ctx, key, cond)
        resolved_fw = resolve_fw_keys(req.ride_along_fw, rvalues)
        pending = merge_writes(dict(req.local_values), resolved_fw)
        for key in sorted(pending):
            _seq, vexpr = pending[key]
            if vexpr.handles <= rvalues.keys():
                v = futexpr.resolve(vexpr, rvalues)
                locks.acquire_write_value(ctx, key, v,
                                          timeout=_PREPARE_DEADLINE)
            else:
                # value needs values from other partitions: hold the key
                # exclusively, the decision brings the resolved value
                locks.acquire_write(ctx, key, timeout=_PREPARE_DEADLINE)
        return PrepareVote(True, rvalues, resolved_fw)

    def prepare2(self, ctx: TxnContext, req: Prepare2Request) -> PrepareVote:
        return self._vote(ctx, self._prepare2, req)

    def _prepare2(self, ctx: TxnContext, req: Prepare2Request) -> PrepareVote:
        locks = self._locks
        # optimistic family: a key read here in round 1 is held shared;
        # the only reader upgrades and one of several votes no, because
        # round 1's read validation is not rerun
        for key, value in sorted(req.fw_writes):
            if self.family == "occ" or value is None:
                locks.acquire_write(ctx, key, timeout=_PREPARE_DEADLINE)
            else:
                locks.acquire_write_value(ctx, key, value,
                                          timeout=_PREPARE_DEADLINE)
        return PrepareVote(True)

    def decide(self, ctx: TxnContext, req: DecisionRequest) -> None:
        if req.commit:
            self.store.put_all(req.writes)
        self._locks.release_all(ctx)


# -- coordinator -----------------------------------------------------------

@dataclass
class DistOutcome(CommitOutcome):
    prepare_rounds: int = 0
    messages: int = 0


class Cluster(Deployment):
    """A partitioned deployment with the same client surface as a local
    engine, plus round/message accounting on commit outcomes."""

    def __init__(self, pm: PartitionMap, family: str = "occ",
                 latency_us: int = 0, meter: Optional[MessageMeter] = None):
        if family not in ("occ", "tpl"):
            raise ConfigurationError("unknown engine family %r" % family)
        self.pm = pm
        self.family = family
        clock, meter = StampClock(), meter or MessageMeter(latency_us)
        self.partitions = [Participant(pid, family, clock, meter)
                           for pid in range(pm.n_partitions)]
        super().__init__([p.store for p in self.partitions],
                         [p._locks for p in self.partitions], clock, meter)

    begin = Deployment.begin

    # -- plumbing ----------------------------------------------------------

    def part(self, key: str) -> Participant:
        return self.partitions[self.pm.route(key)]

    def store_for(self, key: str) -> Store:
        return self.part(key).store

    # -- routed execution-time operations ----------------------------------

    def classic_read(self, ctx: TxnContext, key: str) -> Value:
        return self.part(key).engine.classic_read(ctx, key)

    def _only(self, family: str, op: str) -> None:
        """Refuse op on a deployment of the other family, as the engine of
        that family lacks it."""
        if self.family != family:
            raise ConfigurationError("%s needs the %s family" % (op, family))

    def classic_write(self, ctx: TxnContext, key: str, v: Value) -> None:
        self._only("tpl", "classic_write")
        self.part(key).engine.classic_write(ctx, key, v)

    def lsd_read_future_key(self, ctx: TxnContext, k: Expr) -> Expr:
        # handles may live anywhere; each partition contacted costs a message
        self._only("occ", "lsd_read_future_key")
        return occ.read_future_key(self, ctx, k)

    def lsd_is_true(self, ctx: TxnContext, cond: Expr) -> bool:
        if self.family == "occ":
            return occ.is_true(self, ctx, cond)
        handles = cond.handles
        if not handles:
            return self.partitions[0].engine.lsd_is_true(ctx, cond)
        key = ctx.key_of(next(iter(handles)))
        return self.part(key).engine.lsd_is_true(ctx, cond)

    def lsd_is_true_speculative(self, ctx: TxnContext, cond: Expr,
                                assumed: bool) -> bool:
        self._only("occ", "lsd_is_true_speculative")
        return occ.is_true_speculative(ctx, cond, assumed)

    # -- commit ------------------------------------------------------------

    def lsd_commit(self, ctx: TxnContext) -> DistOutcome:
        ctx.require_active()
        pm = self.pm
        # every statically known key routed once, for this commit only
        where: Dict[str, int] = {}
        for keys in (ctx.wset, ctx.frset.values(), ctx.rset):
            for key in keys:
                if key not in where:
                    where[key] = pm.route(key)
        fw_pids = [pm.static_partition(kexpr) for kexpr, _v in ctx.fwset]
        if None not in fw_pids:
            pids = set(where.values())
            pids.update(fw_pids)
            if len(pids) == 1:
                base = self.partitions[pids.pop()].engine.lsd_commit(ctx)
                return DistOutcome(base.committed, base.rvalues, base.reason,
                                   prepare_rounds=0, messages=1)
        return self._two_pc(ctx, where, fw_pids)

    def _abort_everywhere(self, ctx: TxnContext, pids: Sequence[int],
                          reason: str, rvalues: ResolvedValues,
                          rounds: int, messages: int) -> DistOutcome:
        if pids:
            self.meter.trip("decision", messages=2 * len(pids))
            messages += 2 * len(pids)
        for pid in pids:
            self.partitions[pid].decide(ctx, DecisionRequest(False))
        ctx.status = ABORTED
        return DistOutcome(False, rvalues, reason,
                           prepare_rounds=rounds, messages=messages)

    def _two_pc(self, ctx: TxnContext, where: Dict[str, int],
                fw_pids: List[Optional[int]]) -> DistOutcome:
        """where routes every key of wset, frset and rset; fw_pids holds
        each future write-key's static partition, in fwset order."""
        fw = fw_entries(ctx)
        skip = _rides_along(ctx, fw_pids, where.__getitem__)

        def route(key: str) -> int:
            if key not in where:
                where[key] = self.pm.route(key)
            return where[key]

        # slice per partition
        reqs: Dict[int, PrepareRequest] = {}

        def req_for(pid: int) -> PrepareRequest:
            if pid not in reqs:
                reqs[pid] = PrepareRequest([], {}, {})
            return reqs[pid]

        for key, e in ctx.wset.items():
            r = req_for(where[key])
            r.latch_keys.append(key)
            r.local_values[key] = (ctx.wseq[key], e)
        for h, key in ctx.frset.items():
            r = req_for(where[key])
            r.frset[h] = key
            if self.family == "occ" and key not in r.latch_keys:
                r.latch_keys.append(key)
        for key, ver in ctx.rset.items():
            req_for(where[key]).rset[key] = ver
        if skip:
            for entry, pid in zip(fw, fw_pids):
                req_for(pid).ride_along_fw.append(entry)
        if self.family == "tpl":
            for cond, _expected in ctx.cset:
                handles = cond.handles
                if not handles:
                    continue
                key = ctx.frset[next(iter(handles))]
                req_for(where[key]).cset_remove.append((key, cond))

        pids = sorted(reqs)
        self.meter.trip("prepare", messages=2 * len(pids))
        messages = 2 * len(pids)
        rvalues: ResolvedValues = {}
        resolved_fw: List[FwWrite] = []  # ride-along keys, resolved in place
        votes = [self.partitions[pid].prepare(ctx, reqs[pid]) for pid in pids]
        for vote in votes:
            if vote.ok:
                rvalues.update(vote.rvalues)
                resolved_fw.extend(vote.resolved_fw)
        bad = [v.reason for v in votes if not v.ok]
        if bad:
            ok_pids = [pid for pid, v in zip(pids, votes) if v.ok]
            return self._abort_everywhere(ctx, ok_pids, bad[0], rvalues, 1,
                                          messages)

        rounds = 1
        contacted = set(pids)
        try:
            if fw and not skip:
                resolved_fw = resolve_fw_keys(fw, rvalues)
                by_pid: Dict[int, List[Tuple[str, Optional[Value]]]] = {}
                for k, (_seq, vexpr) in merge_writes({}, resolved_fw).items():
                    value = (futexpr.resolve(vexpr, rvalues)
                             if self.family == "tpl" else None)
                    by_pid.setdefault(route(k), []).append((k, value))
                rounds = 2
                p2pids = sorted(by_pid)
                self.meter.trip("prepare", messages=2 * len(p2pids))
                messages += 2 * len(p2pids)
                for pid in p2pids:
                    contacted.add(pid)
                    vote = self.partitions[pid].prepare2(
                        ctx, Prepare2Request(by_pid[pid]))
                    if not vote.ok:
                        raise Abort(vote.reason)
            # the locking family enforced conditions with lock modes
            if self.family == "occ":
                check_conditions(ctx.cset, rvalues)
            writes = resolve_writes(
                merge_writes(static_intents(ctx), resolved_fw), rvalues)
        except ABORTS as e:
            return self._abort_everywhere(ctx, sorted(contacted), reason_of(e),
                                          rvalues, rounds, messages)

        decide_pids = sorted(contacted.union(map(route, writes)))
        by_pid_writes: Dict[int, Dict[str, Value]] = {pid: {} for pid in decide_pids}
        for k, v in writes.items():
            by_pid_writes[where[k]][k] = v
        self.meter.trip("decision", messages=2 * len(decide_pids))
        messages += 2 * len(decide_pids)
        for pid in decide_pids:
            self.partitions[pid].decide(
                ctx, DecisionRequest(True, by_pid_writes[pid]))
        ctx.status = COMMITTED
        return DistOutcome(True, rvalues, None,
                           prepare_rounds=rounds, messages=messages)
