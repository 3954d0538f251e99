"""Benchmark runner: engine construction, client threads, metrics.

One thread per simulated client.  Each client keeps its own random stream
(seeded from the run seed and its client index) and its own metric counters;
the report is assembled only after every worker joins, so no metric needs a
lock.  A transaction that aborts is retried with the same plan and the same
age stamp until it commits (or the run's clock runs out); attempts therefore
always equal commits + aborts.  Client-initiated give-ups (insufficient
stock) are tracked separately and never retried.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import futexpr
from ..commit import reason_of
from ..dist import Cluster, DirectoryPartitionMap, HashPartitionMap
from ..locks import Wounded
from ..meter import MessageMeter
from ..occ import OccEngine
from ..store import NotFound, Store
from ..tpl import TplEngine
from .workloads import ClientAbort, make_workload

PROTOCOLS = ("occ", "2pl", "occ-lsd", "2pl-lsd", "occ-lsd+")
WORKLOADS = ("hotkey", "assert", "tpcc-lite")


@dataclass
class RunConfig:
    protocol: str = "occ"
    workload: str = "hotkey"
    clients: int = 16
    duration: float = 1.0            # seconds; ignored when ops is set
    ops: Optional[int] = None        # committed txns per client, exact-count mode
    p: int = 100                     # hotkey: % of txns on the shared counter
    init: int = 1                    # assert: counter start value n (rate 1/n)
    warehouses: int = 1
    partitions: int = 1
    policy: str = "directory"
    seed: int = 42
    inject_latency_us: int = 0
    snapshot: Optional[str] = None       # load store state from this file first
    save_snapshot: Optional[str] = None  # write final state here
    dump_key: Optional[str] = None       # report lock state of this key


@dataclass
class RunReport:
    protocol: str
    workload: str
    params: Dict[str, object]
    clients: int
    duration: float
    commits: int
    aborts: int
    client_aborts: int
    attempts: int
    throughput: float                # committed txns per second
    mean_latency_us: float           # first begin to commit, retries included
    abort_frac: float
    aborts_by_reason: Dict[str, int]
    prepare_rounds_mean: float
    messages_total: int
    messages_by_kind: Dict[str, int]
    state_digest: str
    tallies: Dict[str, int]
    invariant_failures: List[str]
    lock_dump: Optional[str] = None


def validate(cfg: RunConfig) -> None:
    if cfg.protocol not in PROTOCOLS:
        raise ValueError("unknown protocol %r (have: %s)"
                         % (cfg.protocol, ", ".join(PROTOCOLS)))
    if cfg.workload not in WORKLOADS:
        raise ValueError("unknown workload %r (have: %s)"
                         % (cfg.workload, ", ".join(WORKLOADS)))
    if cfg.clients < 1:
        raise ValueError("clients must be >= 1")
    if cfg.ops is None and cfg.duration <= 0:
        raise ValueError("duration must be positive (or set ops)")
    if cfg.ops is not None and cfg.ops < 1:
        raise ValueError("ops must be >= 1")
    if not 0 <= cfg.p <= 100:
        raise ValueError("p is a percentage, 0..100")
    if cfg.init < 1:
        raise ValueError("init must be >= 1")
    if cfg.warehouses < 1 or cfg.partitions < 1:
        raise ValueError("warehouses and partitions must be >= 1")
    if cfg.policy not in ("hash", "directory"):
        raise ValueError("policy must be hash or directory")
    if (cfg.partitions > 1 and cfg.policy == "directory"
            and cfg.workload != "tpcc-lite"):
        raise ValueError(
            "directory policy routes by warehouse prefix; only tpcc-lite "
            "keys fit it (use hash for %s)" % cfg.workload)
    if cfg.inject_latency_us < 0:
        raise ValueError("inject-latency-us must be >= 0")


def family_of(protocol: str) -> str:
    return "tpl" if protocol.startswith("2pl") else "occ"


def make_engine(protocol: str, store: Optional[Store] = None,
                latency_us: int = 0):
    """A single-partition engine with a fresh message meter."""
    store = store if store is not None else Store()
    meter = MessageMeter(latency_us)
    if family_of(protocol) == "tpl":
        return TplEngine(store, meter=meter)
    return OccEngine(store, meter=meter)


class ProtocolApi:
    """Uniform client surface over the five protocol variants and over
    single-partition engines and clusters alike.  Workload bodies talk only
    to this."""

    def __init__(self, engine, protocol: str):
        self.engine = engine
        self.protocol = protocol
        self.classic = protocol in ("occ", "2pl")
        self.family = family_of(protocol)
        self.speculative = protocol == "occ-lsd+"
        self.meter = engine.meter

    def begin(self, stamp=None):
        return self.engine.begin(stamp)

    def commit(self, ctx):
        return self.engine.lsd_commit(ctx)

    def read(self, ctx, key):
        return self.engine.classic_read(ctx, key)

    def write_value(self, ctx, key, v) -> None:
        # classic write: 2PL locks at execution time, OCC buffers
        if self.family == "tpl":
            self.engine.classic_write(ctx, key, v)
        else:
            ctx.write(key, futexpr.const(v))

    def read_future(self, ctx, key):
        return futexpr.read_future(key, ctx)

    def write_expr(self, ctx, key, e) -> None:
        ctx.write(key, e)

    def write_future_key(self, ctx, k, v) -> None:
        ctx.write_future_key(k, v)

    def is_true(self, ctx, cond, assumed: bool = True) -> bool:
        if self.speculative:
            return self.engine.lsd_is_true_speculative(ctx, cond, assumed)
        return self.engine.lsd_is_true(ctx, cond)

    # -- data placement and inspection (outside any transaction) -----------

    def load(self, key, value) -> None:
        self.engine.load(key, value)

    def load_default(self, key, value) -> None:
        if not self.engine.store_for(key).contains(key):
            self.engine.load(key, value)

    def values(self) -> Dict[str, object]:
        return self.engine.values_dict()

    def restore_snapshot(self, path: str) -> None:
        self.engine.load_snapshot(path)

    def write_snapshot(self, path: str) -> None:
        self.engine.save_snapshot(path)

    def dump_lock_state(self, key) -> str:
        return self.engine.dump_key(key)

    def dump_queued(self) -> str:
        """Lock state of every key that some transaction waits for."""
        keys = self.engine.queued_keys()
        if not keys:
            return "(no key has a waiter)"
        return "\n".join(self.engine.dump_key(k) for k in keys)


def build_api(cfg: RunConfig) -> ProtocolApi:
    if cfg.partitions <= 1:
        return ProtocolApi(
            make_engine(cfg.protocol, latency_us=cfg.inject_latency_us),
            cfg.protocol)
    if cfg.policy == "hash":
        pm = HashPartitionMap(cfg.partitions)
    else:
        pm = DirectoryPartitionMap(
            cfg.partitions,
            {"w%d/" % w: (w - 1) % cfg.partitions
             for w in range(1, cfg.warehouses + 1)})
    cluster = Cluster(pm, family_of(cfg.protocol),
                      latency_us=cfg.inject_latency_us)
    return ProtocolApi(cluster, cfg.protocol)


@dataclass
class _ClientStats:
    commits: int = 0
    aborts: int = 0
    client_aborts: int = 0
    latency_sum: float = 0.0
    rounds_sum: int = 0
    rounds_n: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    tallies: Dict[str, int] = field(default_factory=dict)

    def abort_for(self, reason: str) -> None:
        self.aborts += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


def _client_loop(cid: int, api: ProtocolApi, wl, cfg: RunConfig,
                 t_end: float, stats: _ClientStats) -> None:
    rng = random.Random(cfg.seed * 10007 + cid)
    while True:
        if cfg.ops is not None:
            if stats.commits >= cfg.ops:
                return
        elif time.monotonic() >= t_end:
            return
        plan = wl.plan(rng, cid)
        t0 = time.perf_counter()
        stamp = None
        attempt = 0
        while True:
            attempt += 1
            ctx = api.begin(stamp)
            stamp = ctx.stamp  # retries keep their age: wound-wait progress
            try:
                wl.body(api, ctx, plan, attempt)
            except ClientAbort:
                ctx.abort()
                stats.client_aborts += 1
                break
            except (Wounded, NotFound) as e:
                ctx.abort()  # engines abort before raising; keep it local
                stats.abort_for(reason_of(e))
                if cfg.ops is None and time.monotonic() >= t_end:
                    return
                continue
            out = api.commit(ctx)
            if out.committed:
                stats.commits += 1
                stats.latency_sum += time.perf_counter() - t0
                rounds = getattr(out, "prepare_rounds", None)
                if rounds is not None:
                    stats.rounds_sum += rounds
                    stats.rounds_n += 1
                wl.on_commit(plan, stats.tallies)
                break
            stats.abort_for(out.reason or "unknown")
            if cfg.ops is None and time.monotonic() >= t_end:
                return


def run(cfg: RunConfig) -> RunReport:
    validate(cfg)
    wl = make_workload(cfg)
    api = build_api(cfg)
    if cfg.snapshot:
        api.restore_snapshot(cfg.snapshot)
    wl.setup(api)
    api.meter.reset()

    all_stats = [_ClientStats() for _ in range(cfg.clients)]
    t_start = time.monotonic()
    t_end = t_start + cfg.duration
    threads = [
        threading.Thread(
            target=_client_loop, args=(cid, api, wl, cfg, t_end, all_stats[cid]),
            name="client-%d" % cid, daemon=True)
        for cid in range(cfg.clients)
    ]
    for t in threads:
        t.start()
    budget = 120.0 if cfg.ops is not None else cfg.duration + 60.0
    deadline = time.monotonic() + budget
    for t in threads:
        t.join(max(0.1, deadline - time.monotonic()))
    if any(t.is_alive() for t in threads):
        stuck = [t.name for t in threads if t.is_alive()]
        raise RuntimeError(
            "clients %s did not finish; lock state of every key with a "
            "waiter:\n%s" % (", ".join(stuck), api.dump_queued()))
    elapsed = time.monotonic() - t_start

    commits = sum(s.commits for s in all_stats)
    aborts = sum(s.aborts for s in all_stats)
    client_aborts = sum(s.client_aborts for s in all_stats)
    attempts = commits + aborts
    reasons: Dict[str, int] = {}
    tallies: Dict[str, int] = {}
    for s in all_stats:
        for k, v in s.reasons.items():
            reasons[k] = reasons.get(k, 0) + v
        for k, v in s.tallies.items():
            tallies[k] = tallies.get(k, 0) + v
    latency_sum = sum(s.latency_sum for s in all_stats)
    rounds_sum = sum(s.rounds_sum for s in all_stats)
    rounds_n = sum(s.rounds_n for s in all_stats)

    if cfg.save_snapshot:
        api.write_snapshot(cfg.save_snapshot)

    values = api.values()
    digest = hashlib.sha256(
        repr(sorted(values.items())).encode("utf-8")).hexdigest()[:16]

    return RunReport(
        protocol=cfg.protocol,
        workload=cfg.workload,
        params={
            "clients": cfg.clients,
            "duration": cfg.duration if cfg.ops is None else None,
            "ops": cfg.ops,
            "p": cfg.p,
            "init": cfg.init,
            "warehouses": cfg.warehouses,
            "partitions": cfg.partitions,
            "policy": cfg.policy,
            "seed": cfg.seed,
            "inject_latency_us": cfg.inject_latency_us,
        },
        clients=cfg.clients,
        duration=elapsed,
        commits=commits,
        aborts=aborts,
        client_aborts=client_aborts,
        attempts=attempts,
        throughput=commits / elapsed if elapsed > 0 else 0.0,
        mean_latency_us=(latency_sum / commits * 1e6) if commits else 0.0,
        abort_frac=(aborts / attempts) if attempts else 0.0,
        aborts_by_reason=reasons,
        prepare_rounds_mean=(rounds_sum / rounds_n) if rounds_n else 0.0,
        messages_total=api.meter.total(),
        messages_by_kind=api.meter.snapshot(),
        state_digest=digest,
        tallies=tallies,
        invariant_failures=wl.check(api, tallies),
        lock_dump=api.dump_lock_state(cfg.dump_key) if cfg.dump_key else None,
    )

