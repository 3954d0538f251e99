"""Lock-manager conformance: the compatibility matrix, wound-wait, and the
grant-time value recomputation used by read-modify-write commits."""

import threading
import time

import pytest

from lazykv.futexpr import FutureHandle, const, gt, read
from lazykv.locks import (UNRESOLVABLE, LockManager, LockTimeout,
                          LockUsageError, WouldBlock, Wounded)
from lazykv.locks import LockOwner

H = FutureHandle(1, "k")
COND = gt(read(H), const(0))  # predicate: value > 0


def mgr():
    return LockManager()


def hold(m, owner, mode, value=None, expected=True):
    """Install one held mode on key "k"."""
    if mode == "r":
        m.acquire_read(owner, "k")
    elif mode == "w":
        m.acquire_write(owner, "k")
    elif mode == "wv":
        m.acquire_write_value(owner, "k", value)
    elif mode == "rc":
        m.acquire_read_condition(owner, "k", COND, expected)
    else:
        raise AssertionError(mode)


def probe(m, owner, mode, value=None, expected=True) -> bool:
    """True iff the request is immediately grantable."""
    try:
        if mode == "r":
            m.acquire_read(owner, "k", blocking=False)
        elif mode == "w":
            m.acquire_write(owner, "k", blocking=False)
        elif mode == "wv":
            m.acquire_write_value(owner, "k", value, blocking=False)
        elif mode == "rc":
            m.acquire_read_condition(owner, "k", COND, expected,
                                     blocking=False)
        else:
            raise AssertionError(mode)
    except WouldBlock:
        return False
    m.release_all(owner)
    return True


SAT, UNSAT = 5, 0  # candidate values against COND expecting True


class TestCompatibilityMatrix:
    """Requested mode (rows) against a single held mode (columns); the
    value cells are exercised with both a preserving and a violating
    value."""

    CELLS = [
        # (requested, req_value, held, held_value, compatible)
        ("r", None, "r", None, True),
        ("r", None, "w", None, False),
        ("r", None, "rc", None, True),
        ("r", None, "wv", SAT, False),
        ("r", None, "wv", UNSAT, False),
        ("w", None, "r", None, False),
        ("w", None, "w", None, False),
        ("w", None, "rc", None, False),
        ("w", None, "wv", SAT, False),
        ("rc", None, "r", None, True),
        ("rc", None, "w", None, False),
        ("rc", None, "rc", None, True),
        ("rc", None, "wv", SAT, True),    # pending value keeps cond true
        ("rc", None, "wv", UNSAT, False),  # pending value flips it
        ("wv", SAT, "r", None, False),
        ("wv", SAT, "w", None, False),
        ("wv", SAT, "rc", None, True),     # written value preserves cond
        ("wv", UNSAT, "rc", None, False),  # written value violates cond
        ("wv", SAT, "wv", SAT, False),
        ("wv", SAT, "wv", UNSAT, False),
    ]

    @pytest.mark.parametrize("req,rv,held,hv,ok", CELLS)
    def test_cell(self, req, rv, held, hv, ok):
        m = mgr()
        holder, requester = LockOwner(1), LockOwner(2)
        hold(m, holder, held, value=hv)
        assert probe(m, requester, req, value=rv) is ok

    def test_free_key_grants_everything(self):
        for mode, value in [("r", None), ("w", None), ("wv", SAT),
                            ("rc", None)]:
            m = mgr()
            assert probe(m, LockOwner(1), mode, value=value)

    def test_two_readers_then_writer(self):
        m = mgr()
        a, b, c = LockOwner(1), LockOwner(2), LockOwner(3)
        m.acquire_read(a, "k")
        m.acquire_read(b, "k")
        assert not probe(m, c, "w")
        m.release_all(a)
        assert not probe(m, c, "w")
        m.release_all(b)
        assert probe(m, c, "w")


class TestConditionLifecycle:
    def test_add_requires_read_lock(self):
        m = mgr()
        a = LockOwner(1)
        with pytest.raises(LockUsageError):
            m.add_condition(a, "k", COND, True)

    def test_downgrade_keeps_condition(self):
        m = mgr()
        a, b = LockOwner(1), LockOwner(2)
        m.acquire_read(a, "k")
        m.add_condition(a, "k", COND, True)
        m.release_read(a, "k")  # downgrade: only the condition holds now
        assert probe(m, b, "r")          # plain read passes a bare condition
        assert probe(m, b, "wv", value=SAT)
        assert not probe(m, b, "wv", value=UNSAT)
        assert not probe(m, b, "w")

    def test_rem_condition_unblocks(self):
        m = mgr()
        a, b = LockOwner(1), LockOwner(2)
        m.acquire_read(a, "k")
        m.add_condition(a, "k", COND, True)
        m.release_read(a, "k")
        got = []
        t = threading.Thread(
            target=lambda: (m.acquire_write_value(b, "k", UNSAT),
                            got.append("granted")))
        t.start()
        time.sleep(0.05)
        assert got == []
        m.rem_condition(a, "k", COND)
        t.join(2.0)
        assert got == ["granted"]
        assert "k" in m.held_keys(b)

    def test_multi_key_condition_rejected(self):
        m = mgr()
        a = LockOwner(1)
        m.acquire_read(a, "k")
        two = gt(read(H), read(FutureHandle(2, "j")))
        with pytest.raises(LockUsageError):
            m.add_condition(a, "k", two, True)

    def test_condition_expected_false(self):
        # the holder observed the predicate as false; writes must keep it so
        m = mgr()
        a, b = LockOwner(1), LockOwner(2)
        m.acquire_read(a, "k")
        m.add_condition(a, "k", COND, False)
        m.release_read(a, "k")
        assert probe(m, b, "wv", value=UNSAT)
        assert not probe(m, b, "wv", value=SAT)


class TestUpgrades:
    def test_read_to_write_upgrade(self):
        m = mgr()
        a, b = LockOwner(1), LockOwner(2)
        m.acquire_read(a, "k")
        m.acquire_read(b, "k")
        with pytest.raises(WouldBlock):
            m.acquire_write(a, "k", blocking=False)
        m.release_all(b)
        m.acquire_write(a, "k", blocking=False)
        # the read hold was consumed by the upgrade
        assert m.dump_key("k").splitlines()[1].strip().startswith("writer")

    def test_upgrade_bypasses_queue(self):
        m = mgr()
        a, b = LockOwner(1), LockOwner(2)
        m.acquire_read(a, "k")
        blocked = []
        t = threading.Thread(
            target=lambda: (m.acquire_write(b, "k"), blocked.append("b")))
        t.start()
        time.sleep(0.05)  # b parks behind a's read
        m.acquire_write_value(a, "k", 9, blocking=False)  # jumps the queue
        m.release_all(a)
        t.join(2.0)
        assert blocked == ["b"]
        m.release_all(b)


class TestWoundWait:
    def test_older_wounds_younger_holder(self):
        m = mgr()
        young, old = LockOwner(9), LockOwner(1)
        m.acquire_write(young, "k")
        granted = []
        t = threading.Thread(
            target=lambda: (m.acquire_write(old, "k"), granted.append("old")))
        t.start()
        deadline = time.monotonic() + 2.0
        while not young.wounded and time.monotonic() < deadline:
            time.sleep(0.001)
        assert young.wounded
        m.release_all(young)  # the victim aborts and releases
        t.join(2.0)
        assert granted == ["old"]

    def test_younger_waits_without_wounding(self):
        m = mgr()
        old, young = LockOwner(1), LockOwner(9)
        m.acquire_write(old, "k")
        with pytest.raises(LockTimeout):
            m.acquire_write(young, "k", timeout=0.15)
        assert not old.wounded

    def test_wounded_requester_rejected_at_entry(self):
        m = mgr()
        a = LockOwner(5)
        a.wounded = True
        with pytest.raises(Wounded):
            m.acquire_read(a, "k")

    def test_parked_victim_raises_promptly(self):
        # holder M, then parked Y, then older O arrives: O wounds both the
        # holder and the younger queued waiter ahead of it (queue edges are
        # wait-for edges; leaving Y parked could close a cycle elsewhere)
        m = mgr()
        medium, young, old = LockOwner(5), LockOwner(9), LockOwner(1)
        m.acquire_write(medium, "k")
        outcome = []
        ty = threading.Thread(
            target=lambda: outcome.append(
                _acquire_outcome(m, young, "w", "k")))
        ty.start()
        time.sleep(0.05)
        to = threading.Thread(
            target=lambda: outcome.append(
                _acquire_outcome(m, old, "w", "k")))
        to.start()
        ty.join(2.0)
        assert outcome and outcome[0] == "wounded"
        assert medium.wounded
        m.release_all(medium)
        to.join(2.0)
        assert outcome[-1] == "granted"
        m.release_all(old)

    def test_cross_manager_wound_lands_via_poll(self):
        m1, m2 = mgr(), mgr()
        shared_clock_victim = LockOwner(7)
        blocker = LockOwner(3)
        old = LockOwner(1)
        m1.acquire_write(blocker, "a")  # victim will park behind this
        m2.acquire_write(shared_clock_victim, "b")
        res = []
        tv = threading.Thread(
            target=lambda: res.append(
                _acquire_outcome(m1, shared_clock_victim, "w", "a")))
        tv.start()
        time.sleep(0.05)
        t0 = time.monotonic()
        tw = threading.Thread(target=lambda: m2.acquire_write(old, "b"))
        tw.start()  # wounds the victim through the *other* manager
        tv.join(2.0)
        assert res == ["wounded"]
        assert time.monotonic() - t0 < 1.0
        m2.release_all(shared_clock_victim)
        tw.join(2.0)
        m1.release_all(blocker)
        m2.release_all(old)


    def test_value_drift_wounds_younger_condition_holder(self):
        # C holds W(1) while A and B hold "k > 0 = True".  A's
        # read-modify-write candidate (k - 1) is 1 while C holds, so A parks
        # without wounding anyone.  C installs 1 and releases: A's refreshed
        # candidate is 0, which violates B's condition.  Unless that drift
        # wounds B, A waits on B's condition while B's own write queues
        # behind A, and both time out.
        m = mgr()
        c, a, b = LockOwner(1), LockOwner(2), LockOwner(3)
        m.acquire_read_condition(a, "k", COND, True)
        m.acquire_read_condition(b, "k", COND, True)
        m.acquire_write_value(c, "k", 1)
        cell = {"v": 2}
        outcome = {}

        def request(owner):
            try:
                m.acquire_write_fn(owner, "k", lambda: cell["v"] - 1,
                                   timeout=1.0)
                outcome[owner.stamp] = "granted"
            except Wounded:
                m.release_all(owner)  # as the engines do on Wounded
                outcome[owner.stamp] = "wounded"
            except LockTimeout:
                outcome[owner.stamp] = "timeout"

        ta = threading.Thread(target=request, args=(a,))
        ta.start()
        deadline = time.monotonic() + 2.0
        while "waiting: stamp 2" not in m.dump_key("k"):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        cell["v"] = 1  # C installs 1 ...
        m.release_all(c)  # ... and releases
        request(b)
        ta.join(2.0)
        assert outcome == {3: "wounded", 2: "granted"}
        assert b.wounded and not a.wounded
        m.release_all(a)

    def test_upgrade_ahead_of_an_older_waiter_wounds_itself(self):
        # Y holds a condition that the writer's pending value preserves,
        # and O, older than Y, queues for a read behind that writer.  Y's
        # upgrade to W parks at the queue front, ahead of O, so O would
        # wait for the younger Y: Y wounds itself instead.
        m = mgr()
        writer, old, young = LockOwner(1), LockOwner(5), LockOwner(9)
        m.acquire_read_condition(young, "k", COND, True)
        m.acquire_write_value(writer, "k", SAT)
        outcome = []
        t = threading.Thread(target=lambda: outcome.append(
            _acquire_outcome(m, old, "r", "k")))
        t.start()
        _await(lambda: "waiting: stamp 5" in m.dump_key("k"))
        with pytest.raises(Wounded):
            m.acquire_write(young, "k")
        assert young.wounded
        assert not old.wounded and not writer.wounded
        assert "waiting: stamp 9" not in m.dump_key("k")
        m.release_all(young)
        m.release_all(writer)
        t.join(2.0)
        assert outcome == ["granted"]
        m.release_all(old)

    def test_grant_walk_drops_a_front_entry_wounded_elsewhere(self):
        # A wound through another manager only sets the victim's flag, so
        # its request parked here stays at the queue front.  When the key
        # frees, the grant walk drops that entry, wakes its owner with
        # Wounded and grants the entry behind it; the victim's 60 s poll
        # plays no part.
        m1, m2 = LockManager(poll_interval=60.0), mgr()
        old, blocker, victim, behind = (LockOwner(1), LockOwner(3),
                                        LockOwner(7), LockOwner(8))
        m1.acquire_write(blocker, "a")
        m2.acquire_write(victim, "b")
        outcome = {}

        def request(m, owner, key):
            outcome[owner.stamp] = _acquire_outcome(m, owner, "w", key)

        tv = threading.Thread(target=request, args=(m1, victim, "a"))
        tv.start()
        _await(lambda: "waiting: stamp 7" in m1.dump_key("a"))
        tb = threading.Thread(target=request, args=(m1, behind, "a"))
        tb.start()
        _await(lambda: "waiting: stamp 8" in m1.dump_key("a"))
        to = threading.Thread(target=request, args=(m2, old, "b"))
        to.start()  # wounds the victim through m2
        _await(lambda: victim.wounded)
        assert m1.dump_key("a").splitlines()[2:] == [
            "  waiting: stamp 7 for w", "  waiting: stamp 8 for w"]
        t0 = time.monotonic()
        m1.release_all(blocker)
        tv.join(2.0)
        tb.join(2.0)
        assert time.monotonic() - t0 < 1.0
        assert outcome == {7: "wounded", 8: "granted"}
        m2.release_all(victim)
        to.join(2.0)
        assert outcome[1] == "granted"
        m1.release_all(behind)
        m2.release_all(old)


def _await(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def _acquire_outcome(m, owner, mode, key):
    try:
        if mode == "w":
            m.acquire_write(owner, key)
        elif mode == "r":
            m.acquire_read(owner, key)
        return "granted"
    except Wounded:
        return "wounded"


class TestWriteFn:
    def test_candidate_recomputed_per_attempt(self):
        m = mgr()
        cond_holder, writer = LockOwner(9), LockOwner(5)
        m.acquire_read_condition(cond_holder, "k", COND, True)
        cell = {"v": UNSAT}
        with pytest.raises(WouldBlock):
            m.acquire_write_fn(writer, "k", lambda: cell["v"], blocking=False)
        cell["v"] = SAT  # same request shape, fresh candidate
        m.acquire_write_fn(writer, "k", lambda: cell["v"], blocking=False)
        m.release_all(writer)
        m.release_all(cond_holder)

    def test_unresolvable_blocks_conditions_only(self):
        m = mgr()
        a, b = LockOwner(9), LockOwner(5)
        m.acquire_write_fn(b, "k", lambda: UNRESOLVABLE, blocking=False)
        assert "unlocked" not in m.dump_key("k")
        m.release_all(b)
        m.acquire_read_condition(a, "k", COND, True)
        with pytest.raises(WouldBlock):
            m.acquire_write_fn(b, "k", lambda: UNRESOLVABLE, blocking=False)
        m.release_all(a)

    def test_pending_value_visible_to_probes(self):
        m = mgr()
        w, rc = LockOwner(1), LockOwner(2)
        m.acquire_write_fn(w, "k", lambda: SAT)
        m.acquire_read_condition(rc, "k", COND, True, blocking=False)
        m.release_all(rc)
        m.release_all(w)

    def test_update_write_value_wounds_younger_violated(self):
        m = mgr()
        w, rc = LockOwner(1), LockOwner(9)
        m.acquire_read_condition(rc, "k", COND, True)
        m.acquire_write_value(w, "k", SAT)  # compatible: value preserves
        m.update_write_value(w, "k", UNSAT)
        assert rc.wounded

    def test_update_write_value_loses_to_older(self):
        m = mgr()
        w, rc = LockOwner(9), LockOwner(1)
        m.acquire_read_condition(rc, "k", COND, True)
        m.acquire_write_value(w, "k", SAT)
        with pytest.raises(Wounded):
            m.update_write_value(w, "k", UNSAT)
        assert not rc.wounded

    def test_update_requires_the_lock(self):
        m = mgr()
        with pytest.raises(LockUsageError):
            m.update_write_value(LockOwner(1), "k", 3)


class TestDiagnostics:
    def test_dump_unlocked(self):
        assert mgr().dump_key("k") == "k: unlocked"

    def test_dump_lists_holds_and_queue(self):
        m = mgr()
        a, b, c = LockOwner(1), LockOwner(2), LockOwner(3)
        m.acquire_read(a, "k")
        m.acquire_read(b, "k")
        m.add_condition(b, "k", COND, True)
        t = threading.Thread(target=lambda: _acquire_outcome(m, c, "w", "k"))
        t.start()
        time.sleep(0.05)
        text = m.dump_key("k")
        assert "readers: [1, 2]" in text
        assert "condition: stamp 2" in text
        assert "waiting: stamp 3 for w" in text
        m.release_all(a)
        m.release_all(b)
        t.join(2.0)

    def test_held_keys(self):
        m = mgr()
        a = LockOwner(1)
        m.acquire_read(a, "x")
        m.acquire_write(a, "y")
        assert m.held_keys(a) == {"x", "y"}
        m.release_all(a)
        assert m.held_keys(a) == set()


class TestNoDeadlockStress:
    def test_random_mixed_traffic_terminates(self):
        import random as _random
        m = mgr()
        keys = ["a", "b", "c"]
        stop = time.monotonic() + 1.5
        failures = []

        def client(seed):
            rng = _random.Random(seed)
            stamp = seed  # stride keeps stamps unique across threads
            while time.monotonic() < stop:
                stamp += 8
                me = LockOwner(stamp)
                try:
                    for key in rng.sample(keys, rng.randint(1, 3)):
                        if rng.random() < 0.5:
                            m.acquire_read(me, key)
                        elif rng.random() < 0.5:
                            m.acquire_write(me, key)
                        else:
                            m.acquire_write_value(me, key, rng.randint(0, 5))
                except Wounded:
                    pass
                except Exception as e:  # noqa: BLE001 - fail the test visibly
                    failures.append(repr(e))
                    return
                finally:
                    m.release_all(me)

        threads = [threading.Thread(target=client, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert not failures
        assert not any(t.is_alive() for t in threads), "lock traffic wedged"
