"""Lock-manager conformance: the compatibility matrix, wound-wait, and the
grant-time value recomputation used by read-modify-write commits."""

import sys
import threading
import time

import pytest

from lazykv.futexpr import FutureHandle, const, gt, read
from lazykv.locks import (UNRESOLVABLE, LockManager, LockTimeout,
                          LockUsageError, Wounded)
from lazykv.txn import TxnContext

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
    """True iff the request is immediately grantable.  The prober must be
    younger than every holder: an older requester wounds before it gives
    up."""
    try:
        if mode == "r":
            m.acquire_read(owner, "k", timeout=0)
        elif mode == "w":
            m.acquire_write(owner, "k", timeout=0)
        elif mode == "wv":
            m.acquire_write_value(owner, "k", value, timeout=0)
        elif mode == "rc":
            m.acquire_read_condition(owner, "k", COND, expected,
                                     timeout=0)
        else:
            raise AssertionError(mode)
    except LockTimeout:
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
        holder, requester = TxnContext(1, 1), TxnContext(2, 2)
        hold(m, holder, held, value=hv)
        assert probe(m, requester, req, value=rv) is ok

    def test_free_key_grants_everything(self):
        for mode, value in [("r", None), ("w", None), ("wv", SAT),
                            ("rc", None)]:
            m = mgr()
            assert probe(m, TxnContext(1, 1), mode, value=value)

    def test_two_readers_then_writer(self):
        m = mgr()
        a, b, c = TxnContext(1, 1), TxnContext(2, 2), TxnContext(3, 3)
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
        a = TxnContext(1, 1)
        with pytest.raises(LockUsageError):
            m.add_condition(a, "k", COND, True)

    def test_downgrade_keeps_condition(self):
        m = mgr()
        a, b = TxnContext(1, 1), TxnContext(2, 2)
        m.acquire_read(a, "k")
        m.add_condition(a, "k", COND, True)
        m.release_read(a, "k")  # downgrade: only the condition holds now
        assert probe(m, b, "r")          # plain read passes a bare condition
        assert probe(m, b, "wv", value=SAT)
        assert not probe(m, b, "wv", value=UNSAT)
        assert not probe(m, b, "w")

    def test_rem_condition_unblocks(self):
        m = mgr()
        a, b = TxnContext(1, 1), TxnContext(2, 2)
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
        a = TxnContext(1, 1)
        m.acquire_read(a, "k")
        two = gt(read(H), read(FutureHandle(2, "j")))
        with pytest.raises(LockUsageError):
            m.add_condition(a, "k", two, True)

    def test_condition_expected_false(self):
        # the holder observed the predicate as false; writes must keep it so
        m = mgr()
        a, b = TxnContext(1, 1), TxnContext(2, 2)
        m.acquire_read(a, "k")
        m.add_condition(a, "k", COND, False)
        m.release_read(a, "k")
        assert probe(m, b, "wv", value=UNSAT)
        assert not probe(m, b, "wv", value=SAT)


class TestUpgrades:
    def test_read_to_write_upgrade(self):
        m = mgr()
        a, b = TxnContext(2, 2), TxnContext(1, 1)  # the prober is youngest
        m.acquire_read(a, "k")
        m.acquire_read(b, "k")
        with pytest.raises(LockTimeout):
            m.acquire_write(a, "k", timeout=0)
        assert not b.wounded
        m.release_all(b)
        m.acquire_write(a, "k", timeout=0)
        # the read hold was consumed by the upgrade
        assert m.dump_key("k").splitlines()[1].strip().startswith("writer")

    def test_upgrade_bypasses_queue(self):
        m = mgr()
        a, b = TxnContext(1, 1), TxnContext(2, 2)
        m.acquire_read(a, "k")
        blocked = []
        t = threading.Thread(
            target=lambda: (m.acquire_write(b, "k"), blocked.append("b")))
        t.start()
        time.sleep(0.05)  # b parks behind a's read
        m.acquire_write_value(a, "k", 9, timeout=0)  # jumps the queue
        m.release_all(a)
        t.join(2.0)
        assert blocked == ["b"]
        m.release_all(b)


class TestWoundWait:
    def test_older_wounds_younger_holder(self):
        m = mgr()
        young, old = TxnContext(9, 9), TxnContext(1, 1)
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
        old, young = TxnContext(1, 1), TxnContext(9, 9)
        m.acquire_write(old, "k")
        with pytest.raises(LockTimeout):
            m.acquire_write(young, "k", timeout=0.15)
        assert not old.wounded

    def test_wounded_requester_rejected_at_entry(self):
        m = mgr()
        a = TxnContext(5, 5)
        a.wounded = True
        with pytest.raises(Wounded):
            m.acquire_read(a, "k")

    def test_parked_victim_raises_promptly(self):
        # holder M, then parked Y, then older O arrives: O wounds both the
        # holder and the younger queued waiter ahead of it (queue edges are
        # wait-for edges; leaving Y parked could close a cycle elsewhere)
        m = mgr()
        medium, young, old = (TxnContext(s, s) for s in (5, 9, 1))
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

    def test_cross_manager_wound_wakes_the_parked_victim(self):
        m1, m2 = mgr(), mgr()
        shared_clock_victim = TxnContext(7, 7)
        blocker = TxnContext(3, 3)
        old = TxnContext(1, 1)
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
        c, a, b = TxnContext(1, 1), TxnContext(2, 2), TxnContext(3, 3)
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
        writer, old, young = (TxnContext(s, s) for s in (1, 5, 9))
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

    def test_condition_request_wounds_a_younger_read_ahead(self):
        # W holds W(SAT), which keeps O's predicate, and the younger R
        # parks for a plain read behind it.  O's R(p) is compatible with W
        # but would wait behind R, so on a younger R: R is wounded and O is
        # granted at once.  Leaving R queued wedges O whenever W waits for
        # O elsewhere.
        m = mgr()
        writer, young, old = (TxnContext(s, s) for s in (5, 9, 1))
        m.acquire_write_value(writer, "k", SAT)
        outcome = []
        t = threading.Thread(target=lambda: outcome.append(
            _acquire_outcome(m, young, "r", "k", timeout=2.0)))
        t.start()
        _await(lambda: "waiting: stamp 9" in m.dump_key("k"))
        m.acquire_read_condition(old, "k", COND, True, timeout=0)
        t.join(2.0)
        assert outcome == ["wounded"]
        assert not writer.wounded
        m.release_all(old)
        m.release_all(writer)

    def test_grant_walk_drops_a_wounded_front_entry(self):
        # H reads k and the younger Y parks for W behind it.  The older O
        # asks for R: it parks behind Y and wounds it (queue edge), so when
        # O's own grant walk runs, the wounded Y is at the queue front.
        # The walk must drop Y and grant O, which is compatible with H;
        # O's timeout=0 shows that this happened in O's own call.
        m = mgr()
        holder, young, old = (TxnContext(s, s) for s in (5, 9, 1))
        m.acquire_read(holder, "k")
        outcome = []
        t = threading.Thread(target=lambda: outcome.append(
            _acquire_outcome(m, young, "w", "k", timeout=2.0)))
        t.start()
        _await(lambda: "waiting: stamp 9" in m.dump_key("k"))
        m.acquire_read(old, "k", timeout=0)
        t.join(2.0)
        assert outcome == ["wounded"]
        assert young.wounded and not holder.wounded
        assert "waiting" not in m.dump_key("k")
        m.release_all(holder)
        m.release_all(old)

    @pytest.mark.parametrize("managers", [1, 2])
    def test_wounded_waiter_leaving_grants_the_entry_behind(self, managers):
        # H reads a; V parks for W on a, and B parks for R behind V.  An
        # older O wounds V through b, which V holds (in m2 when there are
        # two managers).  V's leaving must run a's grant walk: B is
        # compatible with H and must not stay parked.
        m1 = mgr()
        m2 = m1 if managers == 1 else mgr()
        holder, old, victim, behind = (TxnContext(s, s) for s in (5, 1, 7, 8))
        m1.acquire_read(holder, "a")
        m2.acquire_write(victim, "b")
        outcome = {}

        def request(m, owner, mode, key):
            outcome[owner.stamp] = _acquire_outcome(m, owner, mode, key,
                                                    timeout=2.0)

        tv = threading.Thread(target=request, args=(m1, victim, "w", "a"))
        tv.start()
        _await(lambda: "waiting: stamp 7" in m1.dump_key("a"))
        tb = threading.Thread(target=request, args=(m1, behind, "r", "a"))
        tb.start()
        _await(lambda: "waiting: stamp 8" in m1.dump_key("a"))
        to = threading.Thread(target=request, args=(m2, old, "w", "b"))
        to.start()  # wounds the victim through b
        tv.join(2.0)
        try:
            _await(lambda: 8 in outcome, timeout=1.0)
            assert outcome == {7: "wounded", 8: "granted"}
        finally:
            m2.release_all(victim)  # as the engines do on Wounded
            to.join(2.0)
            tb.join(2.0)
        assert outcome[1] == "granted"
        for owner in (holder, behind):
            m1.release_all(owner)
        m2.release_all(old)


def _await(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def _acquire_outcome(m, owner, mode, key, timeout=None):
    try:
        if mode == "w":
            m.acquire_write(owner, key, timeout=timeout)
        elif mode == "r":
            m.acquire_read(owner, key, timeout=timeout)
        return "granted"
    except Wounded:
        return "wounded"
    except LockTimeout:
        return "timeout"


class TestWriteFn:
    def test_candidate_recomputed_per_attempt(self):
        m = mgr()
        cond_holder, writer = TxnContext(5, 5), TxnContext(9, 9)
        m.acquire_read_condition(cond_holder, "k", COND, True)
        cell = {"v": UNSAT}
        with pytest.raises(LockTimeout):
            m.acquire_write_fn(writer, "k", lambda: cell["v"], timeout=0)
        cell["v"] = SAT  # same request shape, fresh candidate
        m.acquire_write_fn(writer, "k", lambda: cell["v"], timeout=0)
        m.release_all(writer)
        m.release_all(cond_holder)

    def test_unresolvable_blocks_conditions_only(self):
        m = mgr()
        a, b = TxnContext(5, 5), TxnContext(9, 9)
        m.acquire_write_fn(b, "k", lambda: UNRESOLVABLE, timeout=0)
        assert "unlocked" not in m.dump_key("k")
        m.release_all(b)
        m.acquire_read_condition(a, "k", COND, True)
        with pytest.raises(LockTimeout):
            m.acquire_write_fn(b, "k", lambda: UNRESOLVABLE, timeout=0)
        m.release_all(a)

    def test_pending_value_visible_to_probes(self):
        m = mgr()
        w, rc = TxnContext(1, 1), TxnContext(2, 2)
        m.acquire_write_fn(w, "k", lambda: SAT)
        m.acquire_read_condition(rc, "k", COND, True, timeout=0)
        m.release_all(rc)
        m.release_all(w)

    def test_update_write_value_wounds_younger_violated(self):
        m = mgr()
        w, rc = TxnContext(1, 1), TxnContext(9, 9)
        m.acquire_read_condition(rc, "k", COND, True)
        m.acquire_write_value(w, "k", SAT)  # compatible: value preserves
        m.update_write_value(w, "k", UNSAT)
        assert rc.wounded

    def test_update_write_value_loses_to_older(self):
        m = mgr()
        w, rc = TxnContext(9, 9), TxnContext(1, 1)
        m.acquire_read_condition(rc, "k", COND, True)
        m.acquire_write_value(w, "k", SAT)
        with pytest.raises(Wounded):
            m.update_write_value(w, "k", UNSAT)
        assert not rc.wounded

    def test_update_requires_the_lock(self):
        m = mgr()
        with pytest.raises(LockUsageError):
            m.update_write_value(TxnContext(1, 1), "k", 3)


class TestDiagnostics:
    def test_dump_unlocked(self):
        assert mgr().dump_key("k") == "k: unlocked"

    def test_dump_lists_holds_and_queue(self):
        m = mgr()
        a, b, c = TxnContext(1, 1), TxnContext(2, 2), TxnContext(3, 3)
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
        a = TxnContext(1, 1)
        m.acquire_read(a, "x")
        m.acquire_write(a, "y")
        assert m.held_keys(a) == {"x", "y"}
        m.release_all(a)
        assert m.held_keys(a) == set()


class TestNoDeadlockStress:
    @pytest.mark.parametrize("managers", [1, 2])
    def test_random_mixed_traffic_terminates(self, managers):
        # with two managers every wound on one key's owner may have to
        # reach a request parked in the other manager
        import random as _random
        ms = [mgr() for _ in range(managers)]
        keys = [(m, k) for m in ms for k in ("a", "b", "c")]
        stop = time.monotonic() + 1.5
        failures = []

        def client(seed):
            rng = _random.Random(seed)
            stamp = seed  # stride keeps stamps unique across threads
            while time.monotonic() < stop:
                stamp += 8
                me = TxnContext(stamp, stamp)
                try:
                    for m, key in rng.sample(keys, rng.randint(1, 3)):
                        timeout = rng.choice([None, None, 0.05, 0])
                        r = rng.random()
                        if r < 0.3:
                            m.acquire_read(me, key, timeout=timeout)
                        elif r < 0.5:
                            m.acquire_write(me, key, timeout=timeout)
                        elif r < 0.7:
                            m.acquire_write_value(me, key, rng.randint(0, 5),
                                                  timeout=timeout)
                        elif r < 0.85:
                            v = rng.randint(0, 5)
                            m.acquire_write_fn(me, key, lambda v=v: v,
                                               timeout=timeout)
                        else:
                            m.acquire_read_condition(me, key, COND, True,
                                                     timeout=timeout)
                except (Wounded, LockTimeout):
                    pass
                except Exception as e:  # noqa: BLE001 - fail the test visibly
                    failures.append(repr(e))
                    return
                finally:
                    for m in ms:
                        m.release_all(me)
                    if me.waiting is not None:
                        failures.append("stamp %d still waiting" % stamp)

        threads = [threading.Thread(target=client, args=(s,), daemon=True)
                   for s in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert not any(t.is_alive() for t in threads), "lock traffic wedged"
        # every request that gave up left its queue, every hold was released
        assert [m.queued_keys() for m in ms] == [[]] * managers
        assert all(not m._keys for m in ms)
