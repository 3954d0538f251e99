"""Partitioned deployment: key routing, 2PC, and the extra prepare round.

Keys are spread over partitions by a routing policy (hash, or a directory
of key-prefix rules, e.g. one partition per warehouse).  Each partition
owns a store and a full local engine (optimistic or locking).  The
coordinator is the client's own thread; messages are direct in-process
calls through a counting meter, so the observable protocol cost (messages
and prepare rounds) is exact while the plumbing stays debuggable.

A transaction whose keys all live on one partition commits locally and
records zero 2PC rounds.  Otherwise:

  round 1   each participant gets its slice: it latches/locks its local
            write and deferred-read keys, reads the deferred reads, and
            votes with the values it resolved.  Writes whose key is itself
            an unresolved expression cannot be prepared yet, unless the
            key's partition is statically known and all the futures it
            depends on live there too; in that case the entry rides along
            in round 1 and the participant resolves it in place.
  round 2   needed exactly when some future write-key could not ride along
            (the skip test failed): the coordinator resolves those keys
            against the merged round-1 values and sends each to its
            partition to be latched/locked.
  decision  the coordinator resolves every write value, validates asserted
            conditions against the merged values (optimistic family), and
            tells each participant to install and release, or to release.

So: prepare rounds = 1 + (future write-keys present and not skippable),
exactly.  Participants hold their latches/locks from their prepare until
the decision; a latch that cannot be had within a short deadline makes the
participant vote no (watchdog against cross-partition latch cycles), and
the client retries.

Message schema (tagged in-process records, one request + one response
message counted per participant per round):

  prepare    {latch keys, deferred-read slice, read-version slice,
              ride-along future writes}        -> vote {ok, rvalues} | no
  prepare2   {resolved future write-keys}      -> vote {ok} | no
  decision   {commit, resolved writes} | abort -> ack
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import futexpr
from .futexpr import Expr, ResolutionError, ResolvedValues, Value, value_kind
from .locks import LockTimeout, StampClock, Wounded
from .meter import MessageMeter
from .occ import (CommitOutcome, CONDITION_INVALIDATED, NOT_FOUND,
                  OccEngine, RESOLUTION_ERROR, STALE_READ, WOUNDED_REASON)
from .store import NotFound, Store
from .tpl import TplEngine
from .txn import ABORTED, COMMITTED, TxnContext

PREPARE_TIMEOUT = "prepare_timeout"
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
        raise NotImplementedError


class HashPartitionMap(PartitionMap):
    def route(self, key: str) -> int:
        # crc32: stable across runs, unlike the salted builtin hash()
        return zlib.crc32(key.encode("utf-8")) % self.n_partitions

    def static_partition(self, kexpr: Expr) -> Optional[int]:
        # under hashing any unresolved suffix can change the bucket, so the
        # key must be fully static
        text, complete = _static_str(kexpr)
        if complete:
            return self.route(text)
        return None


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

    def static_partition(self, kexpr: Expr) -> Optional[int]:
        text, complete = _static_str(kexpr)
        if complete:
            return self.route(text)
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
    ride_along_fw: List[Tuple[Expr, int, Expr]] = field(default_factory=list)
    cset_remove: List[Tuple[str, Expr]] = field(default_factory=list)  # locking family
    local_values: Dict[str, Tuple[int, Expr]] = field(default_factory=dict)  # locking family


@dataclass
class PrepareVote:
    ok: bool
    rvalues: ResolvedValues = field(default_factory=dict)
    resolved_fw: List[Tuple[str, int]] = field(default_factory=list)  # (key, seq)
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
        if family == "occ":
            self.engine = OccEngine(self.store, clock=clock, meter=meter)
        else:
            self.engine = TplEngine(self.store, clock=clock, meter=meter)

    # latches for the optimistic family, locks for the locking one
    @property
    def _locks(self):
        return self.engine.latches if self.family == "occ" else self.engine.locks

    def prepare(self, ctx: TxnContext, req: PrepareRequest) -> PrepareVote:
        if self.family == "occ":
            return self._prepare_occ(ctx, req)
        return self._prepare_tpl(ctx, req)

    def _prepare_occ(self, ctx: TxnContext, req: PrepareRequest) -> PrepareVote:
        latches = self.engine.latches
        try:
            for key in sorted(req.latch_keys):
                latches.acquire_write(ctx, key, timeout=_PREPARE_DEADLINE)
            rvalues: ResolvedValues = {}
            for h, key in req.frset.items():
                v, _ver = self.store.get(key)
                rvalues[h] = v
            resolved_fw: List[Tuple[str, int]] = []
            fw_extra: List[str] = []
            for kexpr, seq, _vexpr in req.ride_along_fw:
                k = futexpr.resolve(kexpr, rvalues)
                if value_kind(k) != "str":
                    raise futexpr.TypeMismatch("write key resolved to %r" % (k,))
                resolved_fw.append((k, seq))
                if k not in req.latch_keys:
                    fw_extra.append(k)
            for key in sorted(set(fw_extra)):
                latches.acquire_write(ctx, key, timeout=_PREPARE_DEADLINE)
            # Silo-style, as in OccEngine.lsd_commit: a read key latched by
            # another transaction may be about to change
            for key, ver in req.rset.items():
                if (self.store.version(key) != ver
                        or latches.held_by_other(ctx, key)):
                    latches.release_all(ctx)
                    return PrepareVote(False, reason=STALE_READ)
            return PrepareVote(True, rvalues, resolved_fw)
        except LockTimeout:
            latches.release_all(ctx)
            return PrepareVote(False, reason=PREPARE_TIMEOUT)
        except NotFound:
            latches.release_all(ctx)
            return PrepareVote(False, reason=NOT_FOUND)
        except ResolutionError:
            latches.release_all(ctx)
            return PrepareVote(False, reason=RESOLUTION_ERROR)

    def _prepare_tpl(self, ctx: TxnContext, req: PrepareRequest) -> PrepareVote:
        locks = self._locks
        try:
            for key in sorted(set(req.frset.values())):
                locks.acquire_read(ctx, key, timeout=_PREPARE_DEADLINE)
            rvalues: ResolvedValues = {}
            for h, key in req.frset.items():
                v, _ver = self.store.get(key)
                rvalues[h] = v
            for key, cond in req.cset_remove:
                locks.rem_condition(ctx, key, cond)
            resolved_fw: List[Tuple[str, int]] = []
            pending: Dict[str, Tuple[int, Expr]] = dict(req.local_values)
            for kexpr, seq, vexpr in req.ride_along_fw:
                k = futexpr.resolve(kexpr, rvalues)
                if value_kind(k) != "str":
                    raise futexpr.TypeMismatch("write key resolved to %r" % (k,))
                resolved_fw.append((k, seq))
                if k not in pending or seq > pending[k][0]:
                    pending[k] = (seq, vexpr)
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
        except (Wounded,):
            locks.release_all(ctx)
            return PrepareVote(False, reason=WOUNDED_REASON)
        except LockTimeout:
            locks.release_all(ctx)
            return PrepareVote(False, reason=PREPARE_TIMEOUT)
        except NotFound:
            locks.release_all(ctx)
            return PrepareVote(False, reason=NOT_FOUND)
        except ResolutionError:
            locks.release_all(ctx)
            return PrepareVote(False, reason=RESOLUTION_ERROR)

    def prepare2(self, ctx: TxnContext, req: Prepare2Request) -> PrepareVote:
        locks = self._locks
        try:
            for key, value in sorted(req.fw_writes):
                if self.family == "occ" or value is None:
                    locks.acquire_write(ctx, key, timeout=_PREPARE_DEADLINE)
                else:
                    locks.acquire_write_value(ctx, key, value,
                                              timeout=_PREPARE_DEADLINE)
            return PrepareVote(True)
        except (Wounded,):
            locks.release_all(ctx)
            return PrepareVote(False, reason=WOUNDED_REASON)
        except LockTimeout:
            locks.release_all(ctx)
            return PrepareVote(False, reason=PREPARE_TIMEOUT)

    def decide(self, ctx: TxnContext, req: DecisionRequest) -> None:
        if req.commit:
            for key in sorted(req.writes):
                self.store.put(key, req.writes[key], self.store.next_version(key))
        self._locks.release_all(ctx)


# -- coordinator -----------------------------------------------------------

@dataclass
class DistOutcome(CommitOutcome):
    prepare_rounds: int = 0
    messages: int = 0


class Cluster:
    """A partitioned deployment with the same client surface as a local
    engine, plus round/message accounting on commit outcomes."""

    def __init__(self, pm: PartitionMap, family: str = "occ",
                 latency_us: int = 0, meter: Optional[MessageMeter] = None):
        if family not in ("occ", "tpl"):
            raise ConfigurationError("unknown engine family %r" % family)
        self.pm = pm
        self.family = family
        self.meter = meter or MessageMeter(latency_us)
        self.clock = StampClock()
        self.partitions = [Participant(pid, family, self.clock, self.meter)
                           for pid in range(pm.n_partitions)]
        self._ids = itertools.count(1)

    # -- plumbing ----------------------------------------------------------

    def part(self, key: str) -> Participant:
        return self.partitions[self.pm.route(key)]

    def store_for(self, key: str) -> Store:
        return self.part(key).store

    def load(self, key: str, value: Value) -> None:
        """Initial data placement, outside any transaction."""
        st = self.store_for(key)
        st.put(key, value, st.next_version(key))

    def values_dict(self) -> Dict[str, Value]:
        out: Dict[str, Value] = {}
        for p in self.partitions:
            out.update(p.store.values_dict())
        return out

    def begin(self, stamp: Optional[int] = None) -> TxnContext:
        if stamp is None:
            stamp = self.clock.next()
        return TxnContext(next(self._ids), stamp, engine=self)

    def on_abort(self, ctx: TxnContext) -> None:
        for p in self.partitions:
            p._locks.release_all(ctx)

    # -- routed execution-time operations ----------------------------------

    def classic_read(self, ctx: TxnContext, key: str) -> Value:
        return self.part(key).engine.classic_read(ctx, key)

    def classic_write(self, ctx: TxnContext, key: str, v: Value) -> None:
        if self.family != "tpl":
            raise ConfigurationError("classic_write is a locking-family op")
        self.part(key).engine.classic_write(ctx, key, v)

    def lsd_read_future_key(self, ctx: TxnContext, k: Expr) -> Expr:
        # handles may live anywhere; each partition contacted costs a message
        ctx.require_active()
        pids = set()
        try:
            for h in k.handles:
                if h not in ctx.eager_values:
                    key = ctx.frset[h]
                    pid = self.pm.route(key)
                    pids.add(pid)
                    v, ver = self.partitions[pid].store.get(key)
                    ctx.rset.setdefault(key, ver)
                    ctx.eager_values[h] = v
            key = futexpr.resolve(k, ctx.eager_values)
            if value_kind(key) != "str":
                raise futexpr.TypeMismatch("key expression resolved to %r" % (key,))
            if ctx.buffered_write(key) is None:
                pid = self.pm.route(key)
                pids.add(pid)
                _v, ver = self.partitions[pid].store.get(key)
                ctx.rset.setdefault(key, ver)
        except (NotFound, ResolutionError):
            ctx.abort()
            raise
        self.meter.trip("read_key", messages=max(1, len(pids)))
        return futexpr.read_future(key, ctx)

    def lsd_is_true(self, ctx: TxnContext, cond: Expr) -> bool:
        handles = cond.handles
        if self.family == "tpl":
            if not handles:
                return self.partitions[0].engine.lsd_is_true(ctx, cond)
            key = ctx.frset[next(iter(handles))]
            return self.part(key).engine.lsd_is_true(ctx, cond)
        # optimistic: point-read each key on its partition
        ctx.require_active()
        vals: ResolvedValues = {}
        pids = set()
        try:
            for h in handles:
                key = ctx.frset[h]
                pid = self.pm.route(key)
                pids.add(pid)
                v, _ver = self.partitions[pid].store.get(key)
                vals[h] = v
            result = futexpr.resolve(cond, vals)
            if value_kind(result) != "bool":
                raise futexpr.TypeMismatch("condition resolved to %r" % (result,))
        except (NotFound, ResolutionError):
            ctx.abort()
            raise
        if pids:
            self.meter.trip("is_true", messages=len(pids))
        ctx.cset.append((cond, result))
        return result

    def lsd_is_true_speculative(self, ctx: TxnContext, cond: Expr,
                                assumed: bool) -> bool:
        ctx.require_active()
        ctx.cset.append((cond, bool(assumed)))
        return bool(assumed)

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
        pm = self.pm
        skip = _rides_along(ctx, fw_pids, where.__getitem__)
        extra_round_needed = bool(ctx.fwset) and not skip
        messages = 0

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
            for (kexpr, vexpr), seq, pid in zip(ctx.fwset, ctx.fwseq, fw_pids):
                req_for(pid).ride_along_fw.append((kexpr, seq, vexpr))
        if self.family == "tpl":
            for cond, _expected in ctx.cset:
                handles = cond.handles
                if not handles:
                    continue
                key = ctx.frset[next(iter(handles))]
                req_for(where[key]).cset_remove.append((key, cond))

        pids = sorted(reqs)
        self.meter.trip("prepare", messages=2 * len(pids))
        messages += 2 * len(pids)
        rvalues: ResolvedValues = {}
        resolved_fw: List[Tuple[str, int]] = []
        votes: Dict[int, PrepareVote] = {}
        for pid in pids:
            vote = self.partitions[pid].prepare(ctx, reqs[pid])
            votes[pid] = vote
            if vote.ok:
                rvalues.update(vote.rvalues)
                resolved_fw.extend(vote.resolved_fw)
        bad = [v for v in votes.values() if not v.ok]
        if bad:
            ok_pids = [pid for pid in pids if votes[pid].ok]
            return self._abort_everywhere(ctx, ok_pids, bad[0].reason,
                                          rvalues, 1, messages)

        rounds = 1
        contacted = set(pids)
        fw_values: Dict[str, Tuple[int, Expr]] = {}
        if extra_round_needed:
            try:
                for (kexpr, vexpr), seq in zip(ctx.fwset, ctx.fwseq):
                    k = futexpr.resolve(kexpr, rvalues)
                    if value_kind(k) != "str":
                        raise futexpr.TypeMismatch("write key resolved to %r" % (k,))
                    resolved_fw.append((k, seq))
                    if k not in fw_values or seq > fw_values[k][0]:
                        fw_values[k] = (seq, vexpr)
            except ResolutionError:
                return self._abort_everywhere(ctx, pids, RESOLUTION_ERROR,
                                              rvalues, rounds, messages)
            by_pid: Dict[int, List[Tuple[str, Optional[Value]]]] = {}
            for k, (seq, vexpr) in fw_values.items():
                value: Optional[Value] = None
                if self.family == "tpl":
                    try:
                        value = futexpr.resolve(vexpr, rvalues)
                    except ResolutionError:
                        return self._abort_everywhere(
                            ctx, pids, RESOLUTION_ERROR, rvalues, rounds, messages)
                if k not in where:
                    where[k] = pm.route(k)
                by_pid.setdefault(where[k], []).append((k, value))
            rounds = 2
            p2pids = sorted(by_pid)
            self.meter.trip("prepare", messages=2 * len(p2pids))
            messages += 2 * len(p2pids)
            for pid in p2pids:
                contacted.add(pid)
                vote = self.partitions[pid].prepare2(
                    ctx, Prepare2Request(by_pid[pid]))
                if not vote.ok:
                    return self._abort_everywhere(ctx, sorted(contacted),
                                                  vote.reason, rvalues,
                                                  rounds, messages)

        # optimistic family: conditions are checked here, against the merged
        # latched reads; the locking family enforced them with lock modes
        if self.family == "occ":
            for cond, expected in ctx.cset:
                try:
                    got = futexpr.resolve(cond, rvalues)
                except ResolutionError:
                    return self._abort_everywhere(ctx, sorted(contacted),
                                                  RESOLUTION_ERROR, rvalues,
                                                  rounds, messages)
                if got != expected:
                    return self._abort_everywhere(ctx, sorted(contacted),
                                                  CONDITION_INVALIDATED, rvalues,
                                                  rounds, messages)

        intents: Dict[str, Tuple[int, Expr]] = {}
        for key, e in ctx.wset.items():
            intents[key] = (ctx.wseq[key], e)
        for (kexpr, vexpr), seq in zip(ctx.fwset, ctx.fwseq):
            try:
                k = futexpr.resolve(kexpr, rvalues)
            except ResolutionError:
                return self._abort_everywhere(ctx, sorted(contacted),
                                              RESOLUTION_ERROR, rvalues,
                                              rounds, messages)
            if k not in intents or seq > intents[k][0]:
                intents[k] = (seq, vexpr)
        try:
            writes = {key: futexpr.resolve(e, rvalues)
                      for key, (_seq, e) in intents.items()}
        except ResolutionError:
            return self._abort_everywhere(ctx, sorted(contacted),
                                          RESOLUTION_ERROR, rvalues,
                                          rounds, messages)

        for k in writes:
            if k not in where:
                where[k] = pm.route(k)
        decide_pids = sorted(contacted | {where[k] for k in writes})
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

    # explicit name for the distributed commit entry point
    two_pc_commit = lsd_commit


def route(pm: PartitionMap, key: str) -> int:
    return pm.route(key)


def two_pc_commit(cluster: Cluster, ctx: TxnContext) -> DistOutcome:
    return cluster.lsd_commit(ctx)
