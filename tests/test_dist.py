"""Partitioned deployment: routing policies, the ride-along test for future
write-keys, and exact prepare-round / message accounting."""

import threading
import zlib

import pytest

from lazykv import (CONDITION_INVALIDATED, Cluster, ConfigurationError,
                    DirectoryPartitionMap, HashPartitionMap, STALE_READ, add,
                    can_skip_extra_round, concat, const, ge, read, read_future,
                    to_str)
from lazykv.futexpr import FutureHandle, UnboundHandle


def find_key(pm, pid, prefix="k"):
    """Smallest suffix whose hash routes to pid."""
    for i in range(10000):
        k = "%s%d" % (prefix, i)
        if pm.route(k) == pid:
            return k
    raise AssertionError("no key found for partition %d" % pid)


class TestRouting:
    def test_hash_route_is_stable_and_total(self):
        pm = HashPartitionMap(4)
        for key in ("a", "warehouse:1", "héllo"):
            pid = pm.route(key)
            assert 0 <= pid < 4
            assert pid == pm.route(key)
            assert pid == zlib.crc32(key.encode("utf-8")) % 4

    def test_directory_longest_prefix_wins(self):
        pm = DirectoryPartitionMap(3, {"w": 0, "w1:": 1, "w1:special": 2})
        assert pm.route("wx") == 0
        assert pm.route("w1:stock") == 1
        assert pm.route("w1:special:item") == 2

    def test_directory_unrouted_key_rejected(self):
        pm = DirectoryPartitionMap(2, {"a:": 0})
        with pytest.raises(ConfigurationError):
            pm.route("b:1")

    def test_directory_entry_out_of_range(self):
        with pytest.raises(ConfigurationError):
            DirectoryPartitionMap(2, {"a:": 5})

    def test_zero_partitions_rejected(self):
        with pytest.raises(ConfigurationError):
            HashPartitionMap(0)


class TestStaticPartition:
    H = FutureHandle(1, "src")

    def test_const_key_always_static(self):
        pm = HashPartitionMap(4)
        e = const("order:7")
        assert pm.static_partition(e) == pm.route("order:7")

    def test_hash_partial_prefix_is_unknown(self):
        pm = HashPartitionMap(4)
        e = concat(const("order:"), to_str(read(self.H)))
        assert pm.static_partition(e) is None

    def test_directory_decides_from_prefix(self):
        pm = DirectoryPartitionMap(2, {"a:": 0, "b:": 1})
        e = concat(const("a:"), to_str(read(self.H)))
        assert pm.static_partition(e) == 0

    def test_directory_longer_entry_shadows(self):
        # the unresolved suffix could still select the longer entry
        pm = DirectoryPartitionMap(3, {"a:": 0, "a:special": 2})
        e = concat(const("a:"), to_str(read(self.H)))
        assert pm.static_partition(e) is None

    def test_bare_future_key_is_unknown(self):
        assert HashPartitionMap(2).static_partition(read(self.H)) is None


class TestSkipExtraRound:
    def test_const_keys_ride_along(self):
        c = Cluster(HashPartitionMap(2))
        ctx = c.begin()
        ctx.write_future_key(const("anywhere"), const(1))
        assert can_skip_extra_round(ctx, c.pm) is True

    def test_directory_same_partition_dependency(self):
        pm = DirectoryPartitionMap(2, {"a:": 0, "b:": 1})
        c = Cluster(pm)
        ctx = c.begin()
        c.load("a:n", 7)
        fut = read_future("a:n", ctx)
        ctx.write_future_key(concat(const("a:"), to_str(fut)), const(1))
        assert can_skip_extra_round(ctx, pm) is True

    def test_cross_partition_dependency_blocks_skip(self):
        pm = DirectoryPartitionMap(2, {"a:": 0, "b:": 1})
        c = Cluster(pm)
        ctx = c.begin()
        c.load("b:n", 7)
        fut = read_future("b:n", ctx)  # dependency lives on the other side
        ctx.write_future_key(concat(const("a:"), to_str(fut)), const(1))
        assert can_skip_extra_round(ctx, pm) is False

    def test_hash_future_key_blocks_skip(self):
        c = Cluster(HashPartitionMap(2))
        ctx = c.begin()
        c.load("src", "dst")
        fut = read_future("src", ctx)
        ctx.write_future_key(fut, const(1))
        assert can_skip_extra_round(ctx, c.pm) is False


class TestRoundAccounting:
    def test_single_partition_bypasses_consensus(self):
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        ka = find_key(pm, 0)
        c.load(ka, 1)
        ctx = c.begin()
        fut = read_future(ka, ctx)
        ctx.write(ka, add(fut, const(1)))
        out = c.lsd_commit(ctx)
        assert out.committed
        assert out.prepare_rounds == 0
        assert out.messages == 1
        assert c.store_for(ka).get(ka)[0] == 2

    def test_cross_partition_concrete_writes_one_round(self):
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        ka, kb = find_key(pm, 0), find_key(pm, 1)
        ctx = c.begin()
        ctx.write(ka, const(1))
        ctx.write(kb, const(2))
        out = c.lsd_commit(ctx)
        assert out.committed
        assert out.prepare_rounds == 1
        # 2 participants: prepare 2x2, decision 2x2
        assert out.messages == 8
        assert c.store_for(ka).get(ka) == (1, 1)
        assert c.store_for(kb).get(kb) == (2, 1)

    def test_unresolved_write_key_costs_second_round(self):
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        ptr = find_key(pm, 0, "ptr")
        target = find_key(pm, 1, "t")
        c.load(ptr, target)
        ctx = c.begin()
        fut = read_future(ptr, ctx)
        ctx.write_future_key(fut, const(9))
        out = c.lsd_commit(ctx)
        assert out.committed
        assert out.prepare_rounds == 2
        # round 1: p0 (2), round 2: p1 (2), decision: both (4)
        assert out.messages == 8
        assert c.store_for(target).get(target)[0] == 9

    def test_ride_along_write_key_stays_one_round(self):
        pm = DirectoryPartitionMap(2, {"a:": 0, "b:": 1})
        c = Cluster(pm)
        c.load("a:n", 7)
        ctx = c.begin()
        fut = read_future("a:n", ctx)
        ctx.write_future_key(concat(const("a:"), to_str(fut)), const("x"))
        ctx.write("b:flag", const(1))  # forces the cross-partition path
        out = c.lsd_commit(ctx)
        assert out.committed
        assert out.prepare_rounds == 1
        assert out.messages == 8
        assert c.store_for("a:7").get("a:7")[0] == "x"
        assert c.store_for("b:flag").get("b:flag")[0] == 1


class TestDistributedValidation:
    def test_stale_read_vote_aborts_everywhere(self):
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        ka, kb = find_key(pm, 0), find_key(pm, 1)
        c.load(ka, 1)
        victim = c.begin()
        assert c.classic_read(victim, ka) == 1
        racer = c.begin()
        racer.write(ka, const(2))
        assert c.lsd_commit(racer).committed
        victim.write(kb, const(5))
        out = c.lsd_commit(victim)
        assert not out.committed and out.reason == STALE_READ
        assert out.prepare_rounds == 1
        assert not c.store_for(kb).contains(kb)
        follower = c.begin()  # the ok participant released its latches
        follower.write(ka, const(3))
        follower.write(kb, const(3))
        assert c.lsd_commit(follower).committed

    def test_read_key_latched_by_another_votes_stale(self):
        # write skew guard: T2 holds the latch on T1's read-only key
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        ka, kb = find_key(pm, 0), find_key(pm, 1)
        c.load(ka, 0)
        c.load(kb, 0)
        t1 = c.begin()
        c.classic_read(t1, ka)
        t1.write(kb, const(1))
        t2 = c.begin()
        c.partitions[0]._locks.acquire_write(t2, ka)
        out = c.lsd_commit(t1)
        c.partitions[0]._locks.release_all(t2)
        assert not out.committed and out.reason == STALE_READ
        assert out.prepare_rounds == 1
        assert c.store_for(kb).get(kb) == (0, 1)

    def test_cross_partition_write_skew_is_refused(self):
        # T1 reads k (partition 0) and writes x (partition 1); T2 reads x
        # and writes k.  T2's whole commit runs between T1's two prepares,
        # after T1 validated k and before it latched x.  Serializability
        # allows at most one of them to commit.
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        k, x = find_key(pm, 0, "k"), find_key(pm, 1, "x")
        c.load(k, 0)
        c.load(x, 0)
        t1, t2 = c.begin(), c.begin()
        c.classic_read(t1, k)
        t1.write(x, const(1))
        c.classic_read(t2, x)
        t2.write(k, const(1))
        p1 = c.partitions[1]
        prepare = p1.prepare
        outcomes = {}

        def hooked(ctx, req):
            if ctx is t1 and "t2" not in outcomes:
                outcomes["t2"] = c.lsd_commit(t2)
            return prepare(ctx, req)

        p1.prepare = hooked
        outcomes["t1"] = c.lsd_commit(t1)
        assert "t2" in outcomes
        committed = [n for n, out in sorted(outcomes.items()) if out.committed]
        assert len(committed) <= 1, c.values_dict()
        assert committed == ["t1"]

    def test_shared_read_does_not_conflict(self):
        # T1 reads k (partition 0) and writes x; T2 reads k and writes y
        # (both on partition 1).  T2's whole commit runs while T1 holds its
        # partition-0 prepare; nobody writes k, so both commit.
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        k = find_key(pm, 0, "k")
        x, y = find_key(pm, 1, "x"), find_key(pm, 1, "y")
        for key in (k, x, y):
            c.load(key, 0)
        t1, t2 = c.begin(), c.begin()
        c.classic_read(t1, k)
        t1.write(x, const(1))
        c.classic_read(t2, k)
        t2.write(y, const(1))
        p1 = c.partitions[1]
        prepare = p1.prepare
        outcomes = {}

        def hooked(ctx, req):
            if ctx is t1 and "t2" not in outcomes:
                outcomes["t2"] = c.lsd_commit(t2)
            return prepare(ctx, req)

        p1.prepare = hooked
        outcomes["t1"] = c.lsd_commit(t1)
        assert outcomes["t2"].committed, outcomes["t2"].reason
        assert outcomes["t1"].committed, outcomes["t1"].reason
        assert c.values_dict() == {k: 0, x: 1, y: 1}
        assert c.partitions[0]._locks.dump_key(k) == "%s: unlocked" % k

    def test_shared_read_then_round2_write_key_loses_no_update(self):
        # T and R each read k (partition 0) and add one to it through a
        # future write-key that resolves in round 2 (each pointer lives on
        # partition 1).  Both reach round 2 holding k shared; at most one
        # may commit, and k counts every commit.
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        k = find_key(pm, 0, "k")
        ptrs = [find_key(pm, 1, "p"), find_key(pm, 1, "q")]
        c.load(k, 0)
        for ptr in ptrs:
            c.load(ptr, k)
        txns = []
        for ptr in ptrs:
            ctx = c.begin()
            seen = c.classic_read(ctx, k)
            ctx.write_future_key(read_future(ptr, ctx), const(seen + 1))
            txns.append(ctx)
        p0 = c.partitions[0]
        prepare2 = p0.prepare2
        both_read = threading.Barrier(2, timeout=5)

        def hooked(ctx, req):
            both_read.wait()
            return prepare2(ctx, req)

        p0.prepare2 = hooked
        outcomes = [None, None]

        def run(i):
            outcomes[i] = c.lsd_commit(txns[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(10)
        assert not any(th.is_alive() for th in threads)
        assert all(out.prepare_rounds == 2 for out in outcomes
                   if out.committed)
        committed = [out for out in outcomes if out.committed]
        assert len(committed) <= 1
        assert c.values_dict()[k] == len(committed)
        assert p0._locks.dump_key(k) == "%s: unlocked" % k

    def test_condition_checked_against_merged_reads(self):
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        stock = find_key(pm, 0, "stock")
        flag = find_key(pm, 1, "flag")
        c.load(stock, 42)
        ctx = c.begin()
        fut = read_future(stock, ctx)
        assert c.lsd_is_true(ctx, ge(fut, const(10))) is True
        racer = c.begin()
        racer.write(stock, const(3))  # flips the observed predicate
        assert c.lsd_commit(racer).committed
        ctx.write(flag, const(1))
        out = c.lsd_commit(ctx)
        assert not out.committed and out.reason == CONDITION_INVALIDATED
        assert not c.store_for(flag).contains(flag)

    def test_preserving_write_does_not_invalidate(self):
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        stock = find_key(pm, 0, "stock")
        flag = find_key(pm, 1, "flag")
        c.load(stock, 42)
        ctx = c.begin()
        fut = read_future(stock, ctx)
        c.lsd_is_true(ctx, ge(fut, const(10)))
        racer = c.begin()
        racer.write(stock, const(50))
        assert c.lsd_commit(racer).committed
        ctx.write(flag, const(1))
        assert c.lsd_commit(ctx).committed

    def test_speculative_condition_is_free_and_checked(self):
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        stock = find_key(pm, 0, "stock")
        flag = find_key(pm, 1, "flag")
        c.load(stock, 42)
        ctx = c.begin()
        fut = read_future(stock, ctx)
        before = c.meter.total()
        assert c.lsd_is_true_speculative(ctx, ge(fut, const(10)), True)
        assert c.meter.total() == before
        ctx.write(flag, const(1))
        assert c.lsd_commit(ctx).committed


class TestFutureKeyRead:
    """lsd_read_future_key on an optimistic Cluster, with the pointer on
    partition 0 and the key it names on partition 1."""

    def start(self):
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        ptr, target = find_key(pm, 0, "ptr"), find_key(pm, 1, "t")
        c.load(ptr, int(target[1:]))
        c.load(target, 42)
        ctx = c.begin()
        fut = read_future(ptr, ctx)
        c.meter.reset()
        value = c.lsd_read_future_key(ctx, concat(const("t"), to_str(fut)))
        return c, ctx, ptr, target, value

    def test_reads_through_a_key_on_another_partition(self):
        c, ctx, ptr, target, value = self.start()
        assert c.meter.snapshot() == {"read_key": 2}  # one per partition
        assert ctx.rset == {ptr: 1, target: 1}
        ctx.write(ptr, add(value, const(1)))
        out = c.lsd_commit(ctx)
        assert out.committed
        assert out.rvalues[next(iter(value.handles))] == 42
        assert c.store_for(ptr).get(ptr) == (43, 2)

    def test_write_to_the_resolved_key_makes_the_read_stale(self):
        c, ctx, ptr, target, value = self.start()
        racer = c.begin()
        racer.write(target, const(5))
        assert c.lsd_commit(racer).committed
        ctx.write(ptr, add(value, const(1)))
        out = c.lsd_commit(ctx)
        assert not out.committed and out.reason == STALE_READ
        assert c.store_for(ptr).get(ptr)[0] == int(target[1:])


class TestLockingFamilyCluster:
    def pm(self):
        return DirectoryPartitionMap(2, {"a:": 0, "b:": 1})

    def test_cross_partition_read_modify_write(self):
        c = Cluster(self.pm(), family="tpl")
        c.load("a:n", 5)
        ctx = c.begin()
        fut = read_future("a:n", ctx)
        ctx.write("b:out", add(fut, const(1)))
        out = c.lsd_commit(ctx)
        assert out.committed and out.prepare_rounds == 1
        assert c.store_for("b:out").get("b:out")[0] == 6
        follower = c.begin()
        follower.write("b:out", const(0))
        assert c.lsd_commit(follower).committed  # locks were released

    def test_condition_lives_on_its_partition(self):
        c = Cluster(self.pm(), family="tpl")
        c.load("a:n", 42)
        ctx = c.begin()
        fut = read_future("a:n", ctx)
        assert c.lsd_is_true(ctx, ge(fut, const(10))) is True
        assert c.partitions[0]._locks.held_keys(ctx) == {"a:n"}
        assert c.partitions[1]._locks.held_keys(ctx) == set()
        ctx.write("b:out", const(1))
        assert c.lsd_commit(ctx).committed
        assert c.partitions[0]._locks.held_keys(ctx) == set()

    def test_classic_write_routed(self):
        c = Cluster(self.pm(), family="tpl")
        ctx = c.begin()
        c.classic_write(ctx, "a:x", 1)
        c.classic_write(ctx, "b:y", 2)
        assert c.lsd_commit(ctx).committed
        assert c.store_for("a:x").get("a:x")[0] == 1
        assert c.store_for("b:y").get("b:y")[0] == 2

    def test_classic_write_needs_locking_family(self):
        c = Cluster(self.pm(), family="occ")
        ctx = c.begin()
        with pytest.raises(ConfigurationError):
            c.classic_write(ctx, "a:x", 1)

    def test_foreign_handle_in_condition_rejected(self):
        c = Cluster(self.pm(), family="tpl")
        c.load("a:n", 5)
        foreign = read_future("a:n", c.begin())
        with pytest.raises(UnboundHandle):
            c.lsd_is_true(c.begin(), ge(foreign, const(1)))

    def test_optimistic_only_reads_refused(self):
        # TplEngine has no lsd_read_future_key or speculative is-true, and
        # the cluster's commit never re-checks a locking-family condition
        c = Cluster(self.pm(), family="tpl")
        c.load("a:n", 5)
        ctx = c.begin()
        fut = read_future("a:n", ctx)
        with pytest.raises(ConfigurationError):
            c.lsd_read_future_key(ctx, const("a:n"))
        with pytest.raises(ConfigurationError):
            c.lsd_is_true_speculative(ctx, ge(fut, const(10)), True)


class TestClusterPlumbing:
    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(HashPartitionMap(2), family="mvcc")

    def test_load_routes_to_owning_store(self):
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        ka, kb = find_key(pm, 0), find_key(pm, 1)
        c.load(ka, 1)
        c.load(kb, 2)
        assert c.partitions[0].store.contains(ka)
        assert not c.partitions[0].store.contains(kb)
        assert c.values_dict() == {ka: 1, kb: 2}

    def test_abort_releases_on_every_partition(self):
        pm = HashPartitionMap(2)
        c = Cluster(pm, family="tpl")
        ka, kb = find_key(pm, 0), find_key(pm, 1)
        c.load(ka, 1)
        c.load(kb, 2)
        ctx = c.begin()
        c.classic_read(ctx, ka)
        c.classic_read(ctx, kb)
        ctx.abort()
        assert c.partitions[0]._locks.held_keys(ctx) == set()
        assert c.partitions[1]._locks.held_keys(ctx) == set()

    def test_prepare_timeout_votes_no_and_retries_clean(self):
        pm = HashPartitionMap(2)
        c = Cluster(pm)
        ka, kb = find_key(pm, 0), find_key(pm, 1)
        blocker = c.begin()
        c.partitions[0]._locks.acquire_write(blocker, ka)
        ctx = c.begin()
        ctx.write(ka, const(1))
        ctx.write(kb, const(2))
        out = c.lsd_commit(ctx)
        assert not out.committed and out.reason == "prepare_timeout"
        c.partitions[0]._locks.release_all(blocker)
        retry = c.begin()
        retry.write(ka, const(1))
        retry.write(kb, const(2))
        assert c.lsd_commit(retry).committed
