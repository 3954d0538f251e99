"""The three contention workloads.

Every random decision a transaction makes is drawn into a plan dict before
its first attempt, from a per-client generator seeded off the run seed, so
retries re-execute the same logical transaction and a seed fully determines
the workload (thread timing only shuffles interleavings).

hotkey     blind increments; a txn hits the one shared counter with
           probability p% and its client-private counter otherwise.  Lazy
           variants write add(future, 1) and never read eagerly, so their
           read sets and condition sets are empty; classic variants
           read-modify-write.

assert     a guarded counter: decrement while the value stays above zero,
           restore it to n otherwise.  The guard outcome changes once every
           n commits, so n sets the condition-invalidation rate at 1/n.
           The speculative protocol assumes the guard holds and flips the
           assumption on a retry, which never costs a message.

tpcc-lite  the two conflict-bearing TPC-C transactions at toy scale.
           New-Order fetch-and-increments a district order counter, writes
           the order row under a key derived from that counter, and
           decrements stock under a stock-suffices guard, giving up
           (client abort) when stock is short.  Payment bumps warehouse,
           district, and customer balances (integer cents).  50/50 mix.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from .. import futexpr
from ..futexpr import Value

DISTRICTS = 10
ITEMS = 100
CUSTOMERS = 30
STOCK_INIT = 25_000
MIN_LINES, MAX_LINES = 5, 15
MAX_QTY = 10
MAX_PAYMENT_CENTS = 5_000
REMOTE_LINE_PCT = 10  # partitioned runs: % of order lines supplied remotely

HOT_KEY = "hot"


class ClientAbort(Exception):
    """The transaction's own logic gave up (e.g. insufficient stock);
    counted apart from protocol aborts and never retried."""


class Workload:
    name = ""

    def __init__(self, cfg):
        self.cfg = cfg
        # values of the checked keys once setup() has run: the base that
        # check() tallies from, whether it came from the workload's
        # defaults or from a restored snapshot
        self.start: Dict[str, Value] = {}

    def _defaults(self) -> Dict[str, int]:
        """The checked keys and the value each starts at unless restored."""
        raise NotImplementedError

    def setup(self, api) -> None:
        defaults = self._defaults()
        for key, value in defaults.items():
            api.load_default(key, value)
        values = api.values()
        for key in defaults:
            v = values[key]
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError("%s is %r after set-up; the %s workload "
                                 "needs an int there" % (key, v, self.name))
        self.start = {key: values[key] for key in defaults}

    def plan(self, rng: random.Random, client: int) -> dict:
        raise NotImplementedError

    def body(self, api, ctx, plan: dict, attempt: int) -> None:
        raise NotImplementedError

    def on_commit(self, plan: dict, tallies: Dict[str, int]) -> None:
        pass

    def check(self, api, tallies: Dict[str, int]) -> List[str]:
        """Invariant recount against the final state; [] when clean."""
        return []


def _speculation_guess(attempt: int) -> bool:
    # first try assumes the guard holds; a failed attempt flips it (a wrong
    # guess means the opposite branch was true at the attempted commit)
    return attempt % 2 == 1


class Hotkey(Workload):
    name = "hotkey"

    def _keys(self) -> List[str]:
        return [HOT_KEY] + ["c/%d" % c for c in range(self.cfg.clients)]

    def _defaults(self) -> Dict[str, int]:
        return {key: 0 for key in self._keys()}

    def plan(self, rng: random.Random, client: int) -> dict:
        hot = rng.randrange(100) < self.cfg.p
        return {"key": HOT_KEY if hot else "c/%d" % client}

    def body(self, api, ctx, plan: dict, attempt: int) -> None:
        key = plan["key"]
        if api.classic:
            v = api.read(ctx, key)
            api.write_value(ctx, key, v + 1)
        else:
            f = api.read_future(ctx, key)
            api.write_expr(ctx, key, futexpr.add(f, futexpr.const(1)))

    def on_commit(self, plan: dict, tallies: Dict[str, int]) -> None:
        tallies[plan["key"]] = tallies.get(plan["key"], 0) + 1

    def check(self, api, tallies: Dict[str, int]) -> List[str]:
        # each counter must have moved by exactly its committed increments
        out = []
        values = api.values()
        for key, n in sorted(tallies.items()):
            start = self.start[key]
            if values.get(key) != start + n:
                out.append("%s is %r after %d committed increments from %r"
                           % (key, values.get(key), n, start))
        return out


class Assert(Workload):
    name = "assert"

    def __init__(self, cfg):
        super().__init__(cfg)
        # speculation only pays when the guard is locally predictable
        self.private = cfg.protocol == "occ-lsd+"

    def _key(self, client: int) -> str:
        return "c/%d" % client if self.private else HOT_KEY

    def _keys(self) -> List[str]:
        if self.private:
            return ["c/%d" % c for c in range(self.cfg.clients)]
        return [HOT_KEY]

    def _defaults(self) -> Dict[str, int]:
        return {key: self.cfg.init for key in self._keys()}

    def plan(self, rng: random.Random, client: int) -> dict:
        return {"key": self._key(client)}

    def body(self, api, ctx, plan: dict, attempt: int) -> None:
        key = plan["key"]
        n = self.cfg.init
        if api.classic:
            v = api.read(ctx, key)
            if v > 0:
                api.write_value(ctx, key, v - 1)
            else:
                api.write_value(ctx, key, n)
            return
        f = api.read_future(ctx, key)
        ok = api.is_true(ctx, futexpr.gt(f, futexpr.const(0)),
                         assumed=_speculation_guess(attempt))
        if ok:
            api.write_expr(ctx, key, futexpr.sub(f, futexpr.const(1)))
        else:
            api.write_expr(ctx, key, futexpr.const(n))

    def check(self, api, tallies: Dict[str, int]) -> List[str]:
        # the guard keeps a counter in [0, n]; one restored outside that
        # range may still hold its start value or be counting down from it
        out = []
        values = api.values()
        for key in self._keys():
            v, start = values.get(key), self.start[key]
            lo, hi = min(0, start), max(self.cfg.init, start)
            if not isinstance(v, int) or not (lo <= v <= hi):
                out.append("%s is %r, outside [%d, %d]" % (key, v, lo, hi))
        return out


class TpccLite(Workload):
    name = "tpcc-lite"

    def _defaults(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for w in range(1, self.cfg.warehouses + 1):
            out["w%d/ytd" % w] = 0
            for d in range(1, DISTRICTS + 1):
                out["w%d/d%d/next_oid" % (w, d)] = 1
                out["w%d/d%d/ytd" % (w, d)] = 0
            for i in range(ITEMS):
                out["w%d/stock/%d" % (w, i)] = STOCK_INIT
            for c in range(CUSTOMERS):
                out["w%d/cust/%d" % (w, c)] = 0
        return out

    def plan(self, rng: random.Random, client: int) -> dict:
        cfg = self.cfg
        w = rng.randint(1, cfg.warehouses)
        d = rng.randint(1, DISTRICTS)
        if rng.random() < 0.5:
            n = rng.randint(MIN_LINES, MAX_LINES)
            lines = []
            for item in rng.sample(range(ITEMS), n):
                sw = w
                if (cfg.warehouses > 1 and cfg.partitions > 1
                        and rng.randrange(100) < REMOTE_LINE_PCT):
                    sw = rng.choice([x for x in range(1, cfg.warehouses + 1)
                                     if x != w])
                lines.append((sw, item, rng.randint(1, MAX_QTY)))
            return {"kind": "neworder", "w": w, "d": d, "lines": lines}
        return {"kind": "payment", "w": w, "d": d,
                "cust": rng.randrange(CUSTOMERS),
                "amount": rng.randint(1, MAX_PAYMENT_CENTS)}

    # -- New-Order ---------------------------------------------------------

    def _neworder(self, api, ctx, plan: dict, attempt: int) -> None:
        w, d = plan["w"], plan["d"]
        ctr = "w%d/d%d/next_oid" % (w, d)
        payload = "items=" + ",".join(
            "%d:%d:%d" % line for line in plan["lines"])
        if api.classic:
            oid = api.read(ctx, ctr)
            for sw, item, qty in plan["lines"]:
                sk = "w%d/stock/%d" % (sw, item)
                s = api.read(ctx, sk)
                if s < qty:
                    raise ClientAbort(sk)
                api.write_value(ctx, sk, s - qty)
            api.write_value(ctx, "w%d/d%d/order/%d" % (w, d, oid), payload)
            api.write_value(ctx, ctr, oid + 1)
            return
        f = api.read_future(ctx, ctr)
        for sw, item, qty in plan["lines"]:
            sk = "w%d/stock/%d" % (sw, item)
            fs = api.read_future(ctx, sk)
            ok = api.is_true(ctx, futexpr.ge(fs, futexpr.const(qty)),
                             assumed=_speculation_guess(attempt))
            if not ok:
                raise ClientAbort(sk)
            api.write_expr(ctx, sk, futexpr.sub(fs, futexpr.const(qty)))
        row_key = futexpr.concat(
            futexpr.const("w%d/d%d/order/" % (w, d)), futexpr.to_str(f))
        api.write_future_key(ctx, row_key, futexpr.const(payload))
        api.write_expr(ctx, ctr, futexpr.add(f, futexpr.const(1)))

    # -- Payment -----------------------------------------------------------

    def _payment_keys(self, plan: dict) -> List[str]:
        w, d = plan["w"], plan["d"]
        return ["w%d/ytd" % w, "w%d/d%d/ytd" % (w, d),
                "w%d/cust/%d" % (w, plan["cust"])]

    def _payment(self, api, ctx, plan: dict) -> None:
        amt = plan["amount"]
        for key in self._payment_keys(plan):
            if api.classic:
                v = api.read(ctx, key)
                api.write_value(ctx, key, v + amt)
            else:
                f = api.read_future(ctx, key)
                api.write_expr(ctx, key, futexpr.add(f, futexpr.const(amt)))

    def body(self, api, ctx, plan: dict, attempt: int) -> None:
        if plan["kind"] == "neworder":
            self._neworder(api, ctx, plan, attempt)
        else:
            self._payment(api, ctx, plan)

    def on_commit(self, plan: dict, tallies: Dict[str, int]) -> None:
        def bump(key: str, by: int) -> None:
            tallies[key] = tallies.get(key, 0) + by

        if plan["kind"] == "neworder":
            bump("orders @ w%d/d%d" % (plan["w"], plan["d"]), 1)
            for sw, item, qty in plan["lines"]:
                bump("taken @ w%d/stock/%d" % (sw, item), qty)
        else:
            for key in self._payment_keys(plan):
                bump("paid @ " + key, plan["amount"])

    def check(self, api, tallies: Dict[str, int]) -> List[str]:
        out = []
        values = api.values()
        start = self.start
        for w in range(1, self.cfg.warehouses + 1):
            for i in range(ITEMS):
                sk = "w%d/stock/%d" % (w, i)
                s = values[sk]
                if s < 0:
                    out.append("%s fell below zero: %d" % (sk, s))
                expect = start[sk] - tallies.get("taken @ " + sk, 0)
                if s != expect:
                    out.append("%s is %d, committed decrements say %d"
                               % (sk, s, expect))
            for d in range(1, DISTRICTS + 1):
                ctr = "w%d/d%d/next_oid" % (w, d)
                nxt, first = values[ctr], start[ctr]
                committed = tallies.get("orders @ w%d/d%d" % (w, d), 0)
                if nxt != first + committed:
                    out.append("%s is %d after %d committed orders from %d"
                               % (ctr, nxt, committed, first))
                for oid in range(first, nxt):
                    if "w%d/d%d/order/%d" % (w, d, oid) not in values:
                        out.append("order id %d missing in w%d/d%d"
                                   % (oid, w, d))
                if "w%d/d%d/order/%d" % (w, d, nxt) in values:
                    out.append("order id %d beyond counter in w%d/d%d"
                               % (nxt, w, d))
            for key in (["w%d/ytd" % w]
                        + ["w%d/d%d/ytd" % (w, d) for d in range(1, DISTRICTS + 1)]
                        + ["w%d/cust/%d" % (w, c) for c in range(CUSTOMERS)]):
                paid = tallies.get("paid @ " + key, 0)
                if values[key] != start[key] + paid:
                    out.append("%s is %d, %d plus committed payments sum to %d"
                               % (key, values[key], start[key],
                                  start[key] + paid))
        return out


_WORKLOADS = {"hotkey": Hotkey, "assert": Assert, "tpcc-lite": TpccLite}


def make_workload(cfg) -> Workload:
    try:
        cls = _WORKLOADS[cfg.workload]
    except KeyError:
        raise ValueError("unknown workload %r (have: %s)"
                         % (cfg.workload, ", ".join(sorted(_WORKLOADS))))
    return cls(cfg)
