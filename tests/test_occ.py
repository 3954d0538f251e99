"""Optimistic engine: classic validation, future-aware commit, speculation,
and the latch table."""

import random
import sys
import threading
import time

import pytest

from lazykv import (CONDITION_INVALIDATED, LockTimeout, MessageMeter,
                    NOT_FOUND, NotFound, OccEngine, RESOLUTION_ERROR,
                    STALE_READ, Store, TypeMismatch, add, concat, const, ge,
                    gt, read_future, sub, to_str)
from lazykv import futexpr
from lazykv.occ import LatchTable


def engine(**initial):
    store = Store()
    for k, v in initial.items():
        store.put(k, v, 1)
    return OccEngine(store, meter=MessageMeter())


class TestWalkthrough:
    def test_reserve_ten_units(self):
        eng = engine(stock=42)
        ctx = eng.begin()
        fut = read_future("stock", ctx)
        assert eng.lsd_is_true(ctx, ge(fut, const(10))) is True
        ctx.write("stock", sub(fut, const(10)))
        out = eng.lsd_commit(ctx)
        assert out.committed and out.reason is None
        assert list(out.rvalues.values()) == [42]
        assert eng.store.get("stock") == (32, 2)

    def test_rvalues_keyed_by_handle(self):
        eng = engine(a=1, b=2)
        ctx = eng.begin()
        fa = read_future("a", ctx)
        fb = read_future("b", ctx)
        ctx.write("a", add(fa, fb))
        out = eng.lsd_commit(ctx)
        assert out.committed
        got = {ctx.frset[h]: v for h, v in out.rvalues.items()}
        assert got == {"a": 1, "b": 2}
        assert eng.store.get("a")[0] == 3


class TestClassic:
    def test_read_records_version(self):
        eng = engine(x=5)
        ctx = eng.begin()
        assert eng.classic_read(ctx, "x") == 5
        assert ctx.rset == {"x": 1}

    def test_read_your_write_resolves_eagerly(self):
        eng = engine(x=5)
        ctx = eng.begin()
        ctx.write("x", const(9))
        assert eng.classic_read(ctx, "x") == 9
        assert ctx.rset == {}  # served from the buffer, nothing to validate

    def test_stale_read_aborts(self):
        eng = engine(x=5)
        victim = eng.begin()
        eng.classic_read(victim, "x")
        racer = eng.begin()
        racer.write("x", const(6))
        assert eng.lsd_commit(racer).committed
        victim.write("y", const(1))
        out = eng.lsd_commit(victim)
        assert not out.committed and out.reason == STALE_READ
        assert victim.status == "aborted"
        assert not eng.store.contains("y")

    def test_missing_key_aborts_at_read(self):
        eng = engine()
        ctx = eng.begin()
        with pytest.raises(NotFound):
            eng.classic_read(ctx, "ghost")
        assert ctx.status == "aborted"


class TestConditions:
    def test_point_read_records_no_version(self):
        eng = engine(stock=42)
        ctx = eng.begin()
        fut = read_future("stock", ctx)
        eng.lsd_is_true(ctx, ge(fut, const(10)))
        assert ctx.rset == {}
        assert ctx.cset and ctx.cset[0][1] is True

    def test_survives_write_that_preserves_predicate(self):
        # the version moved but the predicate still holds: no abort
        eng = engine(stock=42)
        ctx = eng.begin()
        fut = read_future("stock", ctx)
        eng.lsd_is_true(ctx, ge(fut, const(10)))
        racer = eng.begin()
        racer.write("stock", const(50))
        assert eng.lsd_commit(racer).committed
        ctx.write("reserved", const(10))
        out = eng.lsd_commit(ctx)
        assert out.committed
        assert out.rvalues[next(iter(ctx.frset))] == 50

    def test_aborts_when_predicate_flips(self):
        eng = engine(stock=42)
        ctx = eng.begin()
        fut = read_future("stock", ctx)
        assert eng.lsd_is_true(ctx, ge(fut, const(10))) is True
        racer = eng.begin()
        racer.write("stock", const(3))
        assert eng.lsd_commit(racer).committed
        ctx.write("reserved", const(10))
        out = eng.lsd_commit(ctx)
        assert not out.committed and out.reason == CONDITION_INVALIDATED
        assert not eng.store.contains("reserved")

    def test_false_observation_validated_as_false(self):
        eng = engine(stock=3)
        ctx = eng.begin()
        fut = read_future("stock", ctx)
        assert eng.lsd_is_true(ctx, ge(fut, const(10))) is False
        ctx.write("flag", const(True))
        assert eng.lsd_commit(ctx).committed

    def test_non_bool_condition_rejected(self):
        eng = engine(stock=3)
        ctx = eng.begin()
        fut = read_future("stock", ctx)
        with pytest.raises(TypeMismatch):
            eng.lsd_is_true(ctx, add(fut, const(1)))
        assert ctx.status == "aborted"


class TestSpeculation:
    def test_assumed_result_costs_no_messages(self):
        eng = engine(stock=42)
        ctx = eng.begin()
        fut = read_future("stock", ctx)
        assert eng.lsd_is_true_speculative(ctx, ge(fut, const(10)), True) is True
        assert eng.meter.total() == 0
        ctx.write("stock", sub(fut, const(10)))
        assert eng.lsd_commit(ctx).committed
        assert eng.store.get("stock")[0] == 32

    def test_wrong_assumption_aborts_at_commit(self):
        eng = engine(stock=42)
        ctx = eng.begin()
        fut = read_future("stock", ctx)
        eng.lsd_is_true_speculative(ctx, ge(fut, const(10)), False)
        ctx.write("flag", const(1))
        out = eng.lsd_commit(ctx)
        assert not out.committed and out.reason == CONDITION_INVALIDATED


class TestFutureWriteKeys:
    def test_key_resolved_at_commit_widens_latches(self):
        eng = engine(ptr="target", target=0)
        ctx = eng.begin()
        fut = read_future("ptr", ctx)
        ctx.write_future_key(fut, const(9))
        out = eng.lsd_commit(ctx)
        assert out.committed
        assert eng.store.get("target")[0] == 9

    def test_computed_key_via_concat(self):
        eng = engine(seq=7)
        ctx = eng.begin()
        fut = read_future("seq", ctx)
        ctx.write_future_key(concat(const("order:"), to_str(fut)), const("new"))
        ctx.write("seq", add(fut, const(1)))
        assert eng.lsd_commit(ctx).committed
        assert eng.store.get("order:7")[0] == "new"
        assert eng.store.get("seq")[0] == 8

    def test_eager_key_read_is_validated(self):
        eng = engine(ptr="target", target=0)
        ctx = eng.begin()
        fut = read_future("ptr", ctx)
        value_fut = eng.lsd_read_future_key(ctx, fut)
        assert ctx.rset == {"ptr": 1, "target": 1}
        racer = eng.begin()
        racer.write("target", const(5))
        assert eng.lsd_commit(racer).committed
        ctx.write("out", add(value_fut, const(1)))
        out = eng.lsd_commit(ctx)
        assert not out.committed and out.reason == STALE_READ

    def test_non_string_key_rejected(self):
        eng = engine(n=3)
        ctx = eng.begin()
        fut = read_future("n", ctx)
        with pytest.raises(TypeMismatch):
            eng.lsd_read_future_key(ctx, fut)
        assert ctx.status == "aborted"

    def test_future_key_last_wins_against_plain_write(self):
        eng = engine(ptr="k")
        ctx = eng.begin()
        fut = read_future("ptr", ctx)
        ctx.write("k", const(1))
        ctx.write_future_key(fut, const(2))  # later sequence, same key
        assert eng.lsd_commit(ctx).committed
        assert eng.store.get("k")[0] == 2


    def test_new_order_shape_latches_each_key_once(self, monkeypatch):
        # ten stock lines, a counter and an order row keyed by the counter:
        # the row's key resolves outside the first latch pass
        lines = ["stock/%d" % i for i in range(10)]
        eng = engine(next_oid=7, **{k: 50 for k in lines})
        acquired, released = [], []
        real_acquire = LatchTable.acquire_write
        real_release = LatchTable.release_all

        def counting_acquire(table, owner, key, timeout=None):
            acquired.append(key)
            return real_acquire(table, owner, key, timeout)

        def counting_release(table, owner):
            released.append(owner)
            return real_release(table, owner)

        monkeypatch.setattr(LatchTable, "acquire_write", counting_acquire)
        monkeypatch.setattr(LatchTable, "release_all", counting_release)
        reads = []
        real_get = Store.get

        def counting_get(st, key):
            reads.append(key)
            return real_get(st, key)

        monkeypatch.setattr(Store, "get", counting_get)
        ctx = eng.begin()
        oid = read_future("next_oid", ctx)
        for key in lines:
            stock = read_future(key, ctx)
            ctx.write(key, sub(stock, const(1)))
        ctx.write_future_key(concat(const("order/"), to_str(oid)), const("row"))
        ctx.write("next_oid", add(oid, const(1)))
        assert eng.lsd_commit(ctx).committed
        assert sorted(acquired) == sorted(lines + ["next_oid", "order/7"])
        assert len(released) == 1
        assert sorted(reads) == sorted(lines + ["next_oid"])
        assert eng.store.get("order/7") == ("row", 1)

    def test_taken_future_key_restarts_in_sorted_order(self):
        # another transaction holds the resolved key: commit releases
        # everything and waits for it in a sorted pass instead of spinning
        eng = engine(ptr="target", target=0)
        blocker = eng.begin()
        eng.latches.acquire_write(blocker, "target")
        ctx = eng.begin()
        fut = read_future("ptr", ctx)
        ctx.write_future_key(fut, const(9))
        timer = threading.Timer(0.05, eng.latches.release_all, (blocker,))
        timer.start()
        try:
            assert eng.lsd_commit(ctx).committed
        finally:
            timer.join()
        assert eng.store.get("target") == (9, 2)


class TestLatchTable:
    def test_readers_share_and_last_one_releases(self):
        t = LatchTable()
        a, b, w = object(), object(), object()
        assert t.acquire_read(a, "k") and t.acquire_read(b, "k")
        assert not t.held_by_other(w, "k")  # readers do not count
        with pytest.raises(LockTimeout):
            t.acquire_write(w, "k", timeout=0)
        t.release_all(a)
        with pytest.raises(LockTimeout):
            t.acquire_write(w, "k", timeout=0)
        t.release_all(b)
        t.acquire_write(w, "k", timeout=0)
        assert t.held_by_other(a, "k")
        assert not t.acquire_read(a, "k")  # an exclusive holder refuses
        t.release_all(w)
        assert t.dump_key("k") == "k: unlocked"

    def test_writer_waits_for_every_reader(self):
        t = LatchTable()
        a, b, w = object(), object(), object()
        t.acquire_read(a, "k")
        t.acquire_read(b, "k")
        got = threading.Event()

        def writer():
            t.acquire_write(w, "k", timeout=5)
            got.set()

        th = threading.Thread(target=writer)
        th.start()
        deadline = time.monotonic() + 5
        while t.queued_keys() != ["k"] and time.monotonic() < deadline:
            time.sleep(0.001)
        assert t.queued_keys() == ["k"]
        t.release_all(a)
        assert not got.wait(0.05)
        t.release_all(b)
        assert got.wait(5)
        th.join(5)
        assert t.held_keys(w) == {"k"} and t.queued_keys() == []
        t.release_all(w)

    def test_sole_reader_upgrades_in_place(self):
        t = LatchTable()
        a, b = object(), object()
        t.acquire_read(a, "k")
        t.acquire_write(a, "k", timeout=0)
        assert t.held_by_other(b, "k")
        assert t.held_keys(a) == {"k"}
        t.release_all(a)
        assert t.acquire_read(b, "k")
        t.release_all(b)
        assert t.dump_key("k") == "k: unlocked"

    def test_upgrade_refused_while_others_read(self):
        # both read the same version: waiting for b would let a write over
        # it after b did (a lost update), so a fails at once, keeping its
        # share, even with time to wait
        t = LatchTable()
        a, b = object(), object()
        t.acquire_read(a, "k")
        t.acquire_read(b, "k")
        with pytest.raises(LockTimeout):
            t.acquire_write(a, "k", timeout=5)
        assert t.held_keys(a) == {"k"} and t.queued_keys() == []
        t.release_all(b)
        t.acquire_write(a, "k", timeout=0)
        assert t.held_by_other(b, "k")
        t.release_all(a)
        assert t.dump_key("k") == "k: unlocked"

    def test_queued_writer_refuses_new_readers(self):
        t = LatchTable()
        a, b, w = object(), object(), object()
        t.acquire_read(a, "k")
        got = threading.Event()

        def writer():
            t.acquire_write(w, "k", timeout=5)
            got.set()

        th = threading.Thread(target=writer)
        th.start()
        deadline = time.monotonic() + 5
        while t.queued_keys() != ["k"] and time.monotonic() < deadline:
            time.sleep(0.001)
        assert not t.acquire_read(b, "k")
        t.release_all(a)
        assert got.wait(5)
        th.join(5)
        assert not t.acquire_read(b, "k")
        t.release_all(w)
        assert t.acquire_read(b, "k")
        t.release_all(b)
        assert t.dump_key("k") == "k: unlocked"

    def test_writer_gets_in_while_readers_keep_arriving(self):
        # overlapping readers would hold the key shared without a break;
        # a waiting writer must still get it, and promptly
        t = LatchTable()
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                owner = object()
                if t.acquire_read(owner, "k"):
                    time.sleep(0.002)
                    t.release_all(owner)
                else:
                    time.sleep(0.0005)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for th in readers:
            th.start()
        try:
            time.sleep(0.02)
            w = object()
            for _ in range(20):
                t.acquire_write(w, "k", timeout=1)
                t.release_all(w)
        finally:
            stop.set()
            for th in readers:
                th.join(5)
        assert not any(th.is_alive() for th in readers)
        assert t.dump_key("k") == "k: unlocked"


    def test_stress_keeps_writers_exclusive(self):
        # more threads than cores, a short switch interval: an exclusive
        # holder must never share its key, and nothing may leak
        t = LatchTable()
        keys = ["a", "b", "c"]
        check = threading.Lock()
        held = {k: [0, 0] for k in keys}  # key -> [readers, writers]
        errors = []
        stop = time.monotonic() + 0.5

        def worker(seed):
            rng = random.Random(seed)
            while time.monotonic() < stop:
                owner = object()
                mine = []
                for key in rng.sample(keys, rng.randint(1, 3)):
                    write = rng.random() < 0.4
                    if write:
                        try:
                            t.acquire_write(owner, key, timeout=0.001)
                        except LockTimeout:
                            continue
                    elif not t.acquire_read(owner, key):
                        continue
                    with check:
                        readers, writers = held[key]
                        if writers or (write and readers):
                            errors.append((key, readers, writers, write))
                        held[key][1 if write else 0] += 1
                    mine.append((key, write))
                with check:
                    for key, write in mine:
                        held[key][1 if write else 0] -= 1
                t.release_all(owner)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(10)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert t.queued_keys() == []
        assert all(t.dump_key(k) == "%s: unlocked" % k for k in keys)


class TestCommitEdges:
    def test_blind_writes_never_abort(self):
        eng = engine(x=0)
        a, b = eng.begin(), eng.begin()
        a.write("x", const(1))
        b.write("x", const(2))
        assert eng.lsd_commit(a).committed
        assert eng.lsd_commit(b).committed
        assert eng.store.get("x") == (2, 3)

    def test_missing_future_read_key(self):
        eng = engine()
        ctx = eng.begin()
        fut = read_future("ghost", ctx)
        ctx.write("out", add(fut, const(1)))
        out = eng.lsd_commit(ctx)
        assert not out.committed and out.reason == NOT_FOUND
        assert not eng.store.contains("out")

    def test_type_mismatch_in_write_expression(self):
        eng = engine(s="text")
        ctx = eng.begin()
        fut = read_future("s", ctx)
        ctx.write("out", add(fut, const(1)))  # int + str
        out = eng.lsd_commit(ctx)
        assert not out.committed and out.reason == RESOLUTION_ERROR

    def test_latches_released_after_abort(self):
        eng = engine(x=5)
        victim = eng.begin()
        eng.classic_read(victim, "x")
        racer = eng.begin()
        racer.write("x", const(6))
        eng.lsd_commit(racer)
        victim.write("x", const(7))
        assert not eng.lsd_commit(victim).committed
        follower = eng.begin()
        follower.write("x", const(8))
        assert eng.lsd_commit(follower).committed  # would wedge on a leak

    def test_read_only_empty_sets_commits(self):
        eng = engine(x=1)
        ctx = eng.begin()
        out = eng.lsd_commit(ctx)
        assert out.committed and out.rvalues == {}


class TestWriteSkew:
    """T1 reads k and writes x; T2 reads x and writes k.  Classic OCC must
    not let both commit."""

    def test_read_key_latched_by_another_aborts(self):
        eng = engine(k=0, x=0)
        t1 = eng.begin()
        eng.classic_read(t1, "k")
        t1.write("x", const(1))
        t2 = eng.begin()
        eng.latches.acquire_write(t2, "k")  # T2 is mid-commit on k
        out = eng.lsd_commit(t1)
        eng.latches.release_all(t2)
        assert not out.committed and out.reason == STALE_READ
        assert eng.store.get("x") == (0, 1)

    def test_racing_pairs_never_both_commit(self, monkeypatch):
        # a slow version check opens the window between one commit's
        # validation and its install, where the other commit can run
        real_version = Store.version

        def slow_version(store, key):
            v = real_version(store, key)
            time.sleep(0.0002)
            return v

        monkeypatch.setattr(Store, "version", slow_version)
        both = 0
        for _ in range(300):
            eng = engine(k=0, x=0)
            barrier = threading.Barrier(2)
            committed = {}

            def txn(read_key, write_key):
                ctx = eng.begin()
                eng.classic_read(ctx, read_key)
                ctx.write(write_key, const(1))
                barrier.wait(timeout=10)
                committed[read_key] = eng.lsd_commit(ctx).committed

            threads = [threading.Thread(target=txn, args=("k", "x")),
                       threading.Thread(target=txn, args=("x", "k"))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            both += committed["k"] and committed["x"]
        assert both == 0


class TestMessageAccounting:
    def test_lsd_reserve_is_two_messages(self):
        # one is-true round trip, one commit; the deferred read rides along
        eng = engine(stock=42)
        ctx = eng.begin()
        fut = read_future("stock", ctx)
        eng.lsd_is_true(ctx, ge(fut, const(10)))
        ctx.write("stock", sub(fut, const(10)))
        eng.lsd_commit(ctx)
        assert eng.meter.snapshot() == {"is_true": 1, "commit": 1}

    def test_constant_condition_skips_the_trip(self):
        eng = engine(x=1)
        ctx = eng.begin()
        assert eng.lsd_is_true(ctx, gt(const(2), const(1))) is True
        assert eng.meter.total() == 0
