"""Benchmark harness: workload determinism, runner accounting, the CLI
contract, and the serial-equivalence oracle."""

import csv
import random
import threading
import time

import pytest

from lazykv import OccEngine, Store, const, ge
from lazykv.bench.cli import CSV_COLUMNS, append_csv, main
from lazykv.bench.oracle import (CommittedTxn, GuardedWriteStep, ReadStep,
                                 ScheduleLog, WriteStep, check_serial_equivalence,
                                 random_schedule, run_schedule, slot_read,
                                 _execute_txn, _slots_of, slot_handle)
from lazykv.bench.runner import (ProtocolApi, RunConfig, build_api,
                                 family_of, make_engine, run, validate)
from lazykv.bench import runner
from lazykv.bench.workloads import ClientAbort, Hotkey, make_workload
from lazykv.locks import Wounded
from lazykv.store import NotFound
from lazykv.txn import ABORTED, COMMITTED
from lazykv import futexpr

OPS_CFG = dict(protocol="occ-lsd", workload="hotkey", clients=4, ops=5, p=100)


class TestWorkloadPlans:
    def test_plan_stream_determined_by_seed(self):
        cfg = RunConfig(workload="tpcc-lite", warehouses=2, partitions=2,
                        policy="hash")
        a, b = make_workload(cfg), make_workload(cfg)
        ra, rb = random.Random(7), random.Random(7)
        for client in range(3):
            for _ in range(20):
                assert a.plan(ra, client) == b.plan(rb, client)

    def test_hotkey_p_extremes(self):
        rng = random.Random(1)
        hot = make_workload(RunConfig(workload="hotkey", p=100))
        assert all(hot.plan(rng, 3)["key"] == "hot" for _ in range(50))
        cold = make_workload(RunConfig(workload="hotkey", p=0))
        assert all(cold.plan(rng, 3)["key"] == "c/3" for _ in range(50))

    def test_assert_counters_private_only_when_speculating(self):
        spec = make_workload(RunConfig(workload="assert", protocol="occ-lsd+"))
        shared = make_workload(RunConfig(workload="assert", protocol="occ-lsd"))
        assert spec.private and not shared.private

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            make_workload(RunConfig(workload="ycsb"))


class TestValidate:
    BAD = [
        dict(protocol="mvcc"),
        dict(workload="ycsb"),
        dict(clients=0),
        dict(duration=0.0),
        dict(ops=0),
        dict(p=101),
        dict(init=0),
        dict(warehouses=0),
        dict(partitions=0),
        dict(policy="range"),
        dict(workload="hotkey", partitions=2, policy="directory"),
        dict(inject_latency_us=-1),
    ]

    @pytest.mark.parametrize("kw", BAD)
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            validate(RunConfig(**kw))

    def test_accepts_defaults_and_partitioned_tpcc(self):
        validate(RunConfig())
        validate(RunConfig(workload="tpcc-lite", warehouses=2, partitions=2))
        validate(RunConfig(workload="hotkey", partitions=2, policy="hash"))

    def test_family_mapping(self):
        assert family_of("occ") == family_of("occ-lsd") == "occ"
        assert family_of("occ-lsd+") == "occ"
        assert family_of("2pl") == family_of("2pl-lsd") == "tpl"


class TestRunnerAccounting:
    def test_ops_mode_exact_commit_count(self):
        r = run(RunConfig(**OPS_CFG))
        assert r.commits == 4 * 5
        assert r.attempts == r.commits + r.aborts
        assert r.aborts == 0  # blind lazy increments validate nothing
        assert r.messages_by_kind == {"commit": 20}
        assert r.invariant_failures == []
        assert sum(r.tallies.values()) == r.commits

    def test_same_seed_same_state_digest(self):
        a = run(RunConfig(**OPS_CFG))
        b = run(RunConfig(**OPS_CFG))
        assert a.state_digest == b.state_digest
        assert a.tallies == b.tallies

    def test_duration_mode_smoke(self):
        r = run(RunConfig(protocol="2pl-lsd", workload="hotkey", clients=4,
                          duration=0.15, p=100))
        assert r.commits > 0
        assert r.throughput > 0
        assert r.mean_latency_us > 0
        assert 0.0 <= r.abort_frac <= 1.0
        assert r.invariant_failures == []

    def test_speculation_abort_math_is_exact(self):
        # private counter cycling 1 -> 0 -> 1: every second commit needs one
        # extra attempt with the flipped guess, and no attempt ever pays an
        # is-true round trip
        r = run(RunConfig(protocol="occ-lsd+", workload="assert",
                          clients=2, ops=4, init=1))
        assert r.commits == 8
        assert r.aborts == 4
        assert r.abort_frac == pytest.approx(1 / 3)
        assert r.messages_by_kind == {"commit": r.commits + r.aborts}

    def test_tpcc_lite_invariants_hold(self):
        r = run(RunConfig(protocol="occ-lsd", workload="tpcc-lite",
                          clients=2, ops=2))
        assert r.commits == 4
        assert r.invariant_failures == []
        assert r.client_aborts == 0  # stock is deep enough at this scale

    def test_partitioned_run_reports_rounds(self):
        r = run(RunConfig(protocol="occ-lsd", workload="tpcc-lite",
                          clients=2, ops=2, warehouses=2, partitions=2,
                          policy="hash"))
        assert r.invariant_failures == []
        assert r.prepare_rounds_mean > 0  # hash scatters every txn's keys

    def test_dump_key_in_report(self):
        r = run(RunConfig(**OPS_CFG, dump_key="hot"))
        assert r.lock_dump == "hot: unlocked"

    def test_wedge_dump_lists_every_waited_key(self):
        # the report a wedged run raises with: every key someone waits for
        api = build_api(RunConfig(protocol="occ-lsd"))
        latches = api.engine.latches
        holder, waiter = api.begin(), api.begin()
        latches.acquire_write(holder, "a")
        latches.acquire_write(holder, "b")
        t = threading.Thread(target=latches.acquire_write,
                             args=(waiter, "b", 10.0))
        t.start()
        deadline = time.monotonic() + 10
        while latches.queued_keys() != ["b"] and time.monotonic() < deadline:
            time.sleep(0.001)
        text = api.dump_queued()
        latches.release_all(holder)
        t.join(10)
        assert not t.is_alive()
        latches.release_all(waiter)
        assert text == "b:\n  latched by stamp %d\n  waiting: 1" % holder.stamp
        assert api.dump_queued() == "(no key has a waiter)"

    def test_give_up_drops_the_plan_and_aborts_retry_it(self, monkeypatch):
        made = []

        def make(cfg):
            made.append(_FlakyHotkey(cfg))
            return made[-1]

        monkeypatch.setattr(runner, "make_workload", make)
        r = run(RunConfig(protocol="2pl-lsd", workload="hotkey", clients=1,
                          ops=2, p=100))
        assert (r.commits, r.client_aborts, r.aborts,
                r.attempts) == (2, 1, 2, 4)
        assert r.aborts_by_reason == {"wounded": 1, "not_found": 1}
        assert r.tallies == {"hot": 2} and r.invariant_failures == []
        (c1, a1), (c2, a2), (c3, a3), (c4, a4), (c5, a5) = made[0].attempts
        assert [a1, a2, a3, a4, a5] == [1, 1, 2, 3, 1]
        assert [c.status for c in (c1, c2, c3, c4, c5)] == [
            ABORTED, ABORTED, ABORTED, COMMITTED, COMMITTED]
        # a retry keeps its wound-wait age; a new plan draws a new one
        assert c2.stamp == c3.stamp == c4.stamp
        assert len({c1.stamp, c2.stamp, c5.stamp}) == 3

    def test_retries_stop_when_the_clock_runs_out(self, monkeypatch):
        monkeypatch.setattr(runner, "make_workload", _LostHotkey)
        r = run(RunConfig(protocol="occ-lsd", workload="hotkey", clients=1,
                          duration=0.05))
        assert r.commits == 0 and r.aborts > 0
        assert r.aborts_by_reason == {"not_found": r.aborts}


class _FlakyHotkey(Hotkey):
    """Hotkey whose first three bodies raise, in order, a client give-up,
    a wound and a missing key; it records each attempt's context."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.raises = [ClientAbort(), Wounded(0), NotFound("gone")]
        self.attempts = []

    def body(self, api, ctx, plan, attempt):
        self.attempts.append((ctx, attempt))
        if self.raises:
            raise self.raises.pop(0)
        super().body(api, ctx, plan, attempt)


class _LostHotkey(Hotkey):
    """Hotkey whose every body misses its key."""

    def body(self, api, ctx, plan, attempt):
        raise NotFound(plan["key"])


class TestSnapshotFlow:
    def test_save_then_restore_round_trip(self, tmp_path):
        path = str(tmp_path / "state.snap")
        a = run(RunConfig(**OPS_CFG, save_snapshot=path))
        restored = Store.load_snapshot(path)
        assert restored.values_dict()["hot"] == 20
        # versions survive too: initial load then 20 committed increments
        assert restored.get("hot") == (20, 21)
        del a

    def test_snapshot_preload_skips_defaults(self, tmp_path):
        path = str(tmp_path / "seeded.snap")
        s = Store()
        s.put("c/0", 100, 1)
        s.save_snapshot(path)
        out = str(tmp_path / "final.snap")
        r = run(RunConfig(protocol="occ-lsd", workload="hotkey", clients=1,
                          ops=3, p=0, seed=5, snapshot=path,
                          save_snapshot=out))
        # the seeded counter kept its value as the base for new increments,
        # and the check tallies from that base
        assert Store.load_snapshot(out).get("c/0") == (103, 4)
        assert r.tallies == {"c/0": 3} and r.invariant_failures == []

    def test_restore_places_records_on_their_partitions(self, tmp_path):
        path = str(tmp_path / "seeded.snap")
        s = Store()
        for i in range(20):
            s.put("k%d" % i, i, 1)
            s.put("k%d" % i, i + 1, 2)
        s.save_snapshot(path)
        api = build_api(RunConfig(protocol="occ-lsd", partitions=2,
                                  policy="hash"))
        api.restore_snapshot(path)
        for p in api.engine.partitions:
            for key, value, version in p.store.items():
                assert api.engine.pm.route(key) == p.pid
                assert (value, version) == (int(key[1:]) + 1, 2)
        assert len(api.values()) == 20


class TestCli:
    def test_csv_columns_and_append(self, tmp_path):
        path = str(tmp_path / "out.csv")
        r = run(RunConfig(**OPS_CFG))
        append_csv(path, r)
        append_csv(path, r)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 3
        assert rows[1][0] == "occ-lsd" and rows[1][1] == "hotkey"
        assert float(rows[1][3]) > 0  # commits/s

    def test_exit_zero_and_summary(self, capsys, tmp_path):
        path = str(tmp_path / "cli.csv")
        code = main(["--protocol", "occ-lsd", "--workload", "hotkey",
                     "--clients", "2", "--ops", "3", "--csv", path])
        assert code == 0
        text = capsys.readouterr().out
        assert "occ-lsd / hotkey: 6 commits" in text
        assert "state digest:" in text
        with open(path, newline="") as fh:
            assert len(list(csv.reader(fh))) == 2

    def test_exit_two_on_bad_config(self, capsys):
        assert main(["--p", "150", "--ops", "1"]) == 2
        assert "bench:" in capsys.readouterr().err

    def test_exit_two_on_missing_snapshot(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.snap")
        assert main(["--ops", "1", "--snapshot", missing]) == 2

    def test_exit_one_on_invariant_violation(self, capsys, tmp_path):
        # a restored state that breaks an invariant no run can repair
        path = str(tmp_path / "tainted.snap")
        s = Store()
        s.put("w1/stock/0", -5, 1)
        s.save_snapshot(path)
        code = main(["--protocol", "occ-lsd", "--workload", "tpcc-lite",
                     "--clients", "2", "--ops", "2", "--snapshot", path])
        assert code == 1
        assert "w1/stock/0 fell below zero" in capsys.readouterr().err

    @pytest.mark.parametrize("workload", ["hotkey", "tpcc-lite"])
    def test_restored_run_checks_clean(self, capsys, tmp_path, workload):
        path = str(tmp_path / "state.snap")
        args = ["--protocol", "occ-lsd", "--workload", workload,
                "--clients", "2", "--ops", "3"]
        assert main(args + ["--save-snapshot", path]) == 0
        assert main(args + ["--snapshot", path]) == 0
        assert "INVARIANT VIOLATED" not in capsys.readouterr().err

    def test_exit_two_on_non_int_counter(self, capsys, tmp_path):
        path = str(tmp_path / "typed.snap")
        s = Store()
        s.put("hot", "text", 1)
        s.save_snapshot(path)
        assert main(["--workload", "hotkey", "--ops", "1",
                     "--snapshot", path]) == 2
        assert "needs an int" in capsys.readouterr().err

    def test_dump_key_flag_prints_lock_state(self, capsys):
        code = main(["--protocol", "2pl-lsd", "--workload", "hotkey",
                     "--clients", "2", "--ops", "2", "--dump-key", "hot"])
        assert code == 0
        assert "hot: unlocked" in capsys.readouterr().out


def drive(api, prog, seq, log):
    """Single-threaded twin of the oracle's threaded worker: run one program
    to completion at a chosen point in the interleaving."""
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
    log.committed.append(CommittedTxn(
        len(log.committed), prog, begin_seq, commit_seq,
        obs_reads, tuple(obs_conds)))
    return True


class LeakyOcc(OccEngine):
    """Tampered engine: forgets every asserted condition at commit, so the
    commit-time re-validation never runs."""

    def lsd_commit(self, ctx):
        ctx.cset = []
        return super().lsd_commit(ctx)


class TestOracle:
    T_GUARD = (ReadStep("x", 0),
               GuardedWriteStep("y", ge(slot_read(0), const(10)),
                                slot_read(0), const(-1)))
    T_SET5 = (WriteStep("x", const(5)),)

    def _interleaved_log(self, engine_cls):
        import itertools
        engine = engine_cls(Store())
        api = ProtocolApi(engine, "occ-lsd")
        api.load("x", 10)
        seq = itertools.count()
        log = ScheduleLog()
        # begin the guarded txn, slide the x=5 writer inside its window
        ctx = api.begin()
        begin_seq = next(seq)
        env, obs_reads, obs_conds = _execute_txn(
            api, ctx, self.T_GUARD, lambda: None)
        assert drive(api, self.T_SET5, seq, log)
        out = api.commit(ctx)
        if out.committed:
            commit_seq = next(seq)
            obs_reads = {s: futexpr.resolve(env[slot_handle(s)], out.rvalues)
                         for s in _slots_of(self.T_GUARD)}
            log.committed.append(CommittedTxn(
                len(log.committed), self.T_GUARD, begin_seq, commit_seq,
                obs_reads, tuple(obs_conds)))
        log.final_state = api.values()
        return log

    def test_honest_engine_aborts_and_passes(self):
        log = self._interleaved_log(OccEngine)
        assert len(log.committed) == 1  # the guarded txn was invalidated
        assert check_serial_equivalence(log, {"x": 10})

    def test_tampered_engine_is_caught(self):
        log = self._interleaved_log(LeakyOcc)
        assert len(log.committed) == 2  # the guard's observation leaked through
        assert not check_serial_equivalence(log, {"x": 10})

    def test_precedence_prunes_impossible_orders(self):
        a = CommittedTxn(0, (WriteStep("x", const(1)),), 0, 1, {}, ())
        stale = CommittedTxn(1, (ReadStep("x", 0),), 2, 3, {0: 0}, ())
        log = ScheduleLog([a, stale], {"x": 1})
        # reading 0 needs stale-first, but a committed before stale began
        assert not check_serial_equivalence(log, {"x": 0})
        overlapped = CommittedTxn(1, (ReadStep("x", 0),), 0, 3, {0: 0}, ())
        log2 = ScheduleLog([a, overlapped], {"x": 1})
        assert check_serial_equivalence(log2, {"x": 0})

    def test_search_capped_at_eight(self):
        txns = [CommittedTxn(i, (WriteStep("x", const(i)),), 0, i + 1, {}, ())
                for i in range(9)]
        with pytest.raises(ValueError):
            check_serial_equivalence(ScheduleLog(txns, {"x": 8}), {"x": 0})

    @pytest.mark.parametrize("protocol", ["occ", "2pl", "occ-lsd", "2pl-lsd"])
    def test_random_schedules_serially_equivalent(self, protocol):
        for seed in (3, 11, 22):
            programs, initial = random_schedule(random.Random(seed))
            log = run_schedule(protocol, programs, initial, seed=seed)
            assert check_serial_equivalence(log, initial), (protocol, seed)


class TestProtocolApi:
    def test_classic_flag_and_engine_families(self):
        for proto, classic in [("occ", True), ("2pl", True),
                               ("occ-lsd", False), ("2pl-lsd", False),
                               ("occ-lsd+", False)]:
            api = ProtocolApi(make_engine(proto), proto)
            assert api.classic is classic

    def test_speculative_routing(self):
        api = ProtocolApi(make_engine("occ-lsd+"), "occ-lsd+")
        api.load("x", 1)
        ctx = api.begin()
        f = api.read_future(ctx, "x")
        assert api.is_true(ctx, ge(f, const(0)), assumed=False) is False
        assert api.meter.total() == 0  # never consulted storage
