"""End-to-end acceptance properties.

Trend assertions use 3-run medians over fixed seeds; threshold choices and
run parameterizations are recorded in the project decision ledger.  Every
test is self-limiting on wall-clock time.
"""

import itertools
import random
import statistics
import threading
import time

import pytest

from lazykv import (CONDITION_INVALIDATED, LockManager, LockTimeout,
                    OccEngine, Store, TxnContext, const, ge, gt, read,
                    resolve, sub)
from lazykv.futexpr import FutureHandle, UnboundHandle
from lazykv.bench.oracle import (CommittedTxn, GuardedWriteStep, ReadStep,
                                 ScheduleLog, WriteStep,
                                 check_serial_equivalence, random_schedule,
                                 run_schedule, slot_read, slot_handle,
                                 _execute_txn, _slots_of)
from lazykv.bench.runner import (ProtocolApi, RunConfig, build_api,
                                 make_engine, run)
from lazykv.bench.workloads import make_workload
from lazykv import futexpr

MEDIAN_SEEDS = (11, 23, 47)


def medians(**cfg_kw):
    """3-run medians of (throughput, abort fraction); every run must keep
    its workload invariants."""
    reports = [run(RunConfig(seed=s, **cfg_kw)) for s in MEDIAN_SEEDS]
    for r in reports:
        assert r.invariant_failures == [], r.invariant_failures
    return (statistics.median(r.throughput for r in reports),
            statistics.median(r.abort_frac for r in reports),
            reports)


# -- lock-mode compatibility ------------------------------------------------

H = FutureHandle(1, "k")
POSITIVE = gt(read(H), const(0))
SAT, UNSAT = 5, 0


def _hold(m, owner, mode, value=None):
    if mode == "r":
        m.acquire_read(owner, "k")
    elif mode == "w":
        m.acquire_write(owner, "k")
    elif mode == "wv":
        m.acquire_write_value(owner, "k", value)
    else:
        m.acquire_read_condition(owner, "k", POSITIVE, True)


def _grantable(m, owner, mode, value=None):
    try:
        if mode == "r":
            m.acquire_read(owner, "k", timeout=0)
        elif mode == "w":
            m.acquire_write(owner, "k", timeout=0)
        elif mode == "wv":
            m.acquire_write_value(owner, "k", value, timeout=0)
        else:
            m.acquire_read_condition(owner, "k", POSITIVE, True,
                                     timeout=0)
    except LockTimeout:
        return False
    return True


class TestLockMatrix:
    # (requested, requested value, held, held value, compatible); the
    # value-dependent cells appear with both a preserving and a violating
    # candidate against the installed "value > 0" (observed True) predicate
    CELLS = [
        ("r", None, "r", None, True),
        ("r", None, "w", None, False),
        ("r", None, "rc", None, True),
        ("r", None, "wv", SAT, False),
        ("r", None, "wv", UNSAT, False),
        ("w", None, "r", None, False),
        ("w", None, "w", None, False),
        ("w", None, "rc", None, False),
        ("w", None, "wv", SAT, False),
        ("w", None, "wv", UNSAT, False),
        ("rc", None, "r", None, True),
        ("rc", None, "w", None, False),
        ("rc", None, "rc", None, True),
        ("rc", None, "wv", SAT, True),
        ("rc", None, "wv", UNSAT, False),
        ("wv", SAT, "r", None, False),
        ("wv", UNSAT, "r", None, False),
        ("wv", SAT, "w", None, False),
        ("wv", UNSAT, "w", None, False),
        ("wv", SAT, "rc", None, True),
        ("wv", UNSAT, "rc", None, False),
        ("wv", SAT, "wv", SAT, False),
        ("wv", SAT, "wv", UNSAT, False),
        ("wv", UNSAT, "wv", SAT, False),
        ("wv", UNSAT, "wv", UNSAT, False),
    ]

    def test_every_cell_under_one_second(self):
        t0 = time.monotonic()
        for req, rv, held, hv, expected in self.CELLS:
            m = LockManager()
            _hold(m, TxnContext(1, 1), held, hv)
            got = _grantable(m, TxnContext(2, 2), req, rv)
            assert got is expected, (req, rv, held, hv)
        assert time.monotonic() - t0 < 1.0


# -- serial equivalence over randomized histories ---------------------------

class _LeakyOcc(OccEngine):
    """Deliberately broken: drops asserted conditions at commit so the
    re-validation step never runs."""

    def lsd_commit(self, ctx):
        ctx.cset = []
        return super().lsd_commit(ctx)


def _drive_one(api, prog, seq, log):
    ctx = api.begin()
    begin_seq = next(seq)
    env, obs_reads, obs_conds = _execute_txn(api, ctx, prog, lambda: None)
    out = api.commit(ctx)
    if not out.committed:
        return False
    commit_seq = next(seq)
    if not api.classic:
        obs_reads = {s: futexpr.resolve(env[slot_handle(s)], out.rvalues)
                     for s in _slots_of(prog)}
    log.committed.append(CommittedTxn(len(log.committed), prog,
                                      begin_seq, commit_seq,
                                      obs_reads, tuple(obs_conds)))
    return True


class TestSerialEquivalence:
    def test_500_random_schedules_per_protocol(self):
        t0 = time.monotonic()
        for protocol in ("occ", "2pl", "occ-lsd", "2pl-lsd"):
            for seed in range(500):
                programs, initial = random_schedule(random.Random(seed))
                log = run_schedule(protocol, programs, initial, seed=seed)
                assert check_serial_equivalence(log, initial), (protocol, seed)
        assert time.monotonic() - t0 < 120.0

    def test_condition_skipping_engine_fails_the_check(self):
        guard_prog = (ReadStep("x", 0),
                      GuardedWriteStep("y", ge(slot_read(0), const(10)),
                                       slot_read(0), const(-1)))
        racer_prog = (WriteStep("x", const(5)),)

        def interleave(engine_cls):
            api = ProtocolApi(engine_cls(Store()), "occ-lsd")
            api.load("x", 10)
            seq = itertools.count()
            log = ScheduleLog()
            ctx = api.begin()
            begin_seq = next(seq)
            env, _reads, conds = _execute_txn(api, ctx, guard_prog,
                                              lambda: None)
            assert _drive_one(api, racer_prog, seq, log)  # lands inside
            out = api.commit(ctx)
            if out.committed:
                reads = {s: futexpr.resolve(env[slot_handle(s)], out.rvalues)
                         for s in _slots_of(guard_prog)}
                log.committed.append(CommittedTxn(
                    len(log.committed), guard_prog, begin_seq, next(seq),
                    reads, tuple(conds)))
            log.final_state = api.values()
            return log

        honest = interleave(OccEngine)
        assert len(honest.committed) == 1
        assert check_serial_equivalence(honest, {"x": 10})

        broken = interleave(_LeakyOcc)
        assert len(broken.committed) == 2  # the stale guard slipped through
        assert not check_serial_equivalence(broken, {"x": 10})


# -- the reserve-ten-units transaction, end to end --------------------------

class TestRunningExample:
    @pytest.mark.parametrize("protocol", ["occ", "2pl", "occ-lsd", "2pl-lsd"])
    def test_commits_42_minus_10(self, protocol):
        api = ProtocolApi(make_engine(protocol), protocol)
        api.load("stock", 42)
        ctx = api.begin()
        if api.classic:
            v = api.read(ctx, "stock")
            assert v >= 10
            api.write_value(ctx, "stock", v - 10)
        else:
            f = api.read_future(ctx, "stock")
            assert api.is_true(ctx, ge(f, const(10))) is True
            api.write_expr(ctx, "stock", sub(f, const(10)))
        assert api.commit(ctx).committed
        assert api.engine.store.get("stock") == (32, 2)

    def test_optimistic_racer_invalidates_the_condition(self):
        api = ProtocolApi(make_engine("occ-lsd"), "occ-lsd")
        api.load("stock", 42)
        ctx = api.begin()
        f = api.read_future(ctx, "stock")
        assert api.is_true(ctx, ge(f, const(10))) is True
        racer = api.begin()
        api.write_expr(racer, "stock", const(5))
        assert api.commit(racer).committed
        api.write_expr(ctx, "stock", sub(f, const(10)))
        out = api.commit(ctx)
        assert not out.committed
        assert out.reason == CONDITION_INVALIDATED
        assert api.engine.store.get("stock")[0] == 5

    def test_locking_racer_blocks_until_the_holder_commits(self):
        api = ProtocolApi(make_engine("2pl-lsd"), "2pl-lsd")
        api.load("stock", 42)
        ctx = api.begin()
        f = api.read_future(ctx, "stock")
        assert api.is_true(ctx, ge(f, const(10))) is True
        api.write_expr(ctx, "stock", sub(f, const(10)))
        racer = api.begin()  # younger: waits, never wounds
        api.write_expr(racer, "stock", const(5))
        order = []
        t = threading.Thread(
            target=lambda: (api.commit(racer), order.append("racer")))
        t.start()
        time.sleep(0.08)
        assert order == []           # parked against the condition
        assert not ctx.wounded
        out = api.commit(ctx)
        assert out.committed
        assert out.rvalues[f.handle] == 42  # guarded observation intact
        t.join(5.0)
        assert order == ["racer"]
        # version chain: 42 at v1, the holder's 32 at v2, the racer's 5 at v3
        assert api.engine.store.get("stock") == (5, 3)


# -- shared-counter contention trends ---------------------------------------

class TestHotkeyTrends:
    P_VALUES = (0, 25, 50, 75, 100)

    def _interleaved_medians(self, protocol, **base):
        """Per p, 3-run medians of (throughput, abort fraction, reports).
        The runs go round-robin over p, so that every p samples the same
        stretch of time and a drift in host speed does not read as a
        trend across p."""
        reports = {p: [] for p in self.P_VALUES}
        for seed in MEDIAN_SEEDS:
            for p in self.P_VALUES:
                r = run(RunConfig(protocol=protocol, p=p, seed=seed, **base))
                assert r.invariant_failures == [], r.invariant_failures
                reports[p].append(r)
        return {p: (statistics.median(r.throughput for r in rs),
                    statistics.median(r.abort_frac for r in rs), rs)
                for p, rs in reports.items()}

    def test_trends_within_five_minutes(self):
        t0 = time.monotonic()
        base = dict(workload="hotkey", clients=16, duration=0.5,
                    inject_latency_us=0)

        for protocol in ("occ-lsd", "2pl-lsd"):
            by_p = self._interleaved_medians(protocol, **base)
            if protocol == "occ-lsd":
                for p, (_tp, frac, reports) in by_p.items():
                    assert frac == 0.0, (p, frac)  # nothing to validate
                    assert sum(r.aborts for r in reports) == 0
            p0, p100 = by_p[0][0], by_p[100][0]
            assert abs(p100 - p0) <= 0.20 * p0, (protocol, p0, p100)

        by_p = self._interleaved_medians("occ", **base)
        occ_fracs = [by_p[p][1] for p in self.P_VALUES]
        assert occ_fracs == sorted(occ_fracs), occ_fracs  # non-decreasing
        assert occ_fracs[-1] >= 0.5, occ_fracs

        # committed-increment accounting, checked directly on one report
        r = run(RunConfig(protocol="occ-lsd", workload="hotkey", clients=16,
                          ops=10, p=100))
        assert r.tallies.get("hot") == r.commits
        assert r.invariant_failures == []

        assert time.monotonic() - t0 < 300.0


# -- guarded-counter invalidation-ratio trends ------------------------------

class TestGuardedCounterTrends:
    # counter start value n gives invalidation ratio 1/n; round-trip
    # latency is injected because the throughput comparison is between
    # protocols' message economies, not the interpreter's loop overhead
    INITS = (1, 10, 100, 1000, 10000)
    LATENCY_US = 400

    def test_ratio_sweep(self):
        t0 = time.monotonic()
        base = dict(workload="assert", clients=16, duration=0.7,
                    inject_latency_us=self.LATENCY_US)

        results = {}
        for protocol in ("occ", "occ-lsd", "2pl-lsd"):
            for init in self.INITS:
                results[(protocol, init)] = medians(
                    protocol=protocol, init=init, **base)[:2]

        for protocol in ("occ-lsd", "2pl-lsd"):
            fracs = [results[(protocol, i)][1] for i in self.INITS]
            for earlier, later in zip(fracs, fracs[1:]):
                assert later <= earlier + 1e-9, (protocol, fracs)
            assert fracs[-1] < 0.02, (protocol, fracs)

        occ_fracs = [results[("occ", i)][1] for i in self.INITS]
        assert max(occ_fracs) - min(occ_fracs) < 0.10, occ_fracs
        assert min(occ_fracs) >= 0.5, occ_fracs

        lazy_tp = results[("occ-lsd", 10000)][0]
        classic_tp = results[("occ", 10000)][0]
        assert lazy_tp >= 5.0 * classic_tp, (lazy_tp, classic_tp)

        assert time.monotonic() - t0 < 300.0


# -- speculative condition checks -------------------------------------------

class TestSpeculation:
    # per private counter starting at n, a cycle is n correct first-guess
    # commits plus one reset that needs a second attempt: n+1 commits,
    # n+2 attempts, abort fraction exactly 1/(n+2)
    TARGETS = {1: 33.3, 10: 8.3, 100: 1.0}

    @pytest.mark.parametrize("init", sorted(TARGETS))
    def test_abort_fraction_and_zero_condition_messages(self, init):
        cycles = 2 if init == 1 else 1
        r = run(RunConfig(protocol="occ-lsd+", workload="assert",
                          clients=4, ops=cycles * (init + 1), init=init))
        assert r.invariant_failures == []
        assert set(r.messages_by_kind) == {"commit"}  # no is-true traffic
        expected = 1.0 / (init + 2)
        assert r.abort_frac == pytest.approx(expected, rel=1e-9)
        assert abs(r.abort_frac * 100 - self.TARGETS[init]) <= 10.0


# -- consensus round accounting ---------------------------------------------

class TestPrepareRounds:
    NEWORDER = {"kind": "neworder", "w": 1, "d": 1,
                "lines": [(1, 3, 2), (2, 7, 1)]}  # one remote stock line
    PAYMENT = {"kind": "payment", "w": 1, "d": 2, "cust": 5, "amount": 100}

    def _commit_plan(self, policy, plan):
        cfg = RunConfig(protocol="occ-lsd", workload="tpcc-lite",
                        warehouses=2, partitions=2, policy=policy)
        api = build_api(cfg)
        wl = make_workload(cfg)
        wl.setup(api)
        ctx = api.begin()
        wl.body(api, ctx, plan, attempt=1)
        out = api.commit(ctx)
        assert out.committed
        return api, out

    def test_exact_counts_under_ten_seconds(self):
        t0 = time.monotonic()

        # prefix routing decides the order row's partition up front, so the
        # future-keyed write rides along in the only prepare round
        api, out = self._commit_plan("directory", dict(self.NEWORDER))
        assert out.prepare_rounds == 1
        assert api.values()["w1/d1/order/1"] == "items=1:3:2,2:7:1"

        # hashed keys stay unknown until the counter resolves: extra round
        _api, out = self._commit_plan("hash", dict(self.NEWORDER))
        assert out.prepare_rounds == 2

        # everything on one partition: straight local commit
        _api, out = self._commit_plan("directory", dict(self.PAYMENT))
        assert out.prepare_rounds == 0
        assert out.messages == 1

        assert time.monotonic() - t0 < 10.0


# -- order/payment mix integrity and trend ----------------------------------

class TestOrderMixTrends:
    # the protocol gap is a message-economy effect, so the runs inject the
    # same round-trip latency as the guarded-counter sweep; at zero latency
    # round trips are free and the comparison degenerates
    def test_integrity_and_protocol_gap(self):
        t0 = time.monotonic()
        base = dict(workload="tpcc-lite", clients=16, duration=0.6,
                    warehouses=1, inject_latency_us=400)
        lazy_tp, lazy_frac, _ = medians(protocol="occ-lsd", **base)
        classic_tp, classic_frac, _ = medians(protocol="occ", **base)
        assert classic_frac >= 0.5, classic_frac
        assert lazy_frac <= 0.2, lazy_frac
        assert lazy_tp >= 2.0 * classic_tp, (lazy_tp, classic_tp)
        assert time.monotonic() - t0 < 300.0


# -- expression engine ------------------------------------------------------

class TestExpressionEngine:
    def test_pinned_resolve_examples(self):
        h = FutureHandle(1, "stock")
        assert resolve(sub(read(h), const(10)), {h: 42}) == 32
        assert resolve(ge(read(h), const(10)), {h: 42}) is True
        with pytest.raises(UnboundHandle):
            resolve(read(h), {})

    def test_substitution_property_1000(self):
        from test_futexpr import _gen, _outcome, _random_env, substitute
        rng = random.Random(822)
        handles = [FutureHandle(i, "k%d" % i) for i in range(4)]
        for _ in range(1000):
            e = _gen(rng, rng.choice(("int", "str", "bool")), handles, 3)
            rv = _random_env(rng, handles)
            direct = _outcome(e, rv)
            composed = _outcome(substitute(e, rv), {})
            assert direct == composed, (e, rv, direct, composed)
