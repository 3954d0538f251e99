"""tpcc-lite inputs, initial state and correctness checks for the benchmark.

Everything here is the benchmark's own: the initial state (TPC-C's starting
order history), the per-client input streams drawn from the run seed, and the
totals the final store is checked against.  None of it reads the program's
workload module, so a fault there cannot hide a fault in the store.

Plans use the schema the tpcc-lite transaction bodies consume:

    {"kind": "neworder", "w": w, "d": d, "lines": [(supply_w, item, qty), ...]}
    {"kind": "payment", "w": w, "d": d, "cust": c, "amount": cents}
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

DISTRICTS = 10
ITEMS = 100
CUSTOMERS = 30
ORDERS_PER_DISTRICT = 3_000          # TPC-C's initial order history
MIN_LINES, MAX_LINES = 5, 15
MAX_QTY = 10
MAX_PAYMENT_CENTS = 5_000
REMOTE_LINE_PCT = 10                 # lines supplied by another warehouse

# Stock is large enough that no New-Order ever finds it short within a run
# (about 3,000 units of one item are taken in 60 s at the rates seen), so
# every transaction commits and `failed` stays 0 whatever the seed.
STOCK_BASE = 1_000_000
CUSTOMER_BALANCE = 1_000_000         # cents; TPC-C's W_YTD is 300,000.00
DISTRICT_YTD = CUSTOMERS * CUSTOMER_BALANCE // DISTRICTS
HISTORY_SEED = 2020                  # fixed: the initial state never varies


def stock_key(w: int, item: int) -> str:
    return "w%d/stock/%d" % (w, item)


def counter_key(w: int, d: int) -> str:
    return "w%d/d%d/next_oid" % (w, d)


def order_key(w: int, d: int, oid: int) -> str:
    return "w%d/d%d/order/%d" % (w, d, oid)


def payment_keys(w: int, d: int, cust: int) -> Tuple[str, str, str]:
    return "w%d/ytd" % w, "w%d/d%d/ytd" % (w, d), "w%d/cust/%d" % (w, cust)


def initial_state(warehouses: int) -> Dict[str, object]:
    """The starting database: stock, balances, and per district an order
    counter at ORDERS_PER_DISTRICT + 1 with the rows below it present."""
    rng = random.Random(HISTORY_SEED)
    state: Dict[str, object] = {}
    for w in range(1, warehouses + 1):
        state["w%d/ytd" % w] = DISTRICT_YTD * DISTRICTS
        for c in range(CUSTOMERS):
            state["w%d/cust/%d" % (w, c)] = CUSTOMER_BALANCE
        for i in range(ITEMS):
            state[stock_key(w, i)] = STOCK_BASE + i
        for d in range(1, DISTRICTS + 1):
            state["w%d/d%d/ytd" % (w, d)] = DISTRICT_YTD
            state[counter_key(w, d)] = ORDERS_PER_DISTRICT + 1
            for oid in range(1, ORDERS_PER_DISTRICT + 1):
                n = rng.randint(MIN_LINES, MAX_LINES)
                state[order_key(w, d, oid)] = "items=" + ",".join(
                    "%d:%d:%d" % (w, item, rng.randint(1, MAX_QTY))
                    for item in rng.sample(range(ITEMS), n))
    return state


def plans(seed: int, client: int, warehouses: int) -> Iterator[dict]:
    """One client's endless input stream: a 50/50 New-Order/Payment mix.
    The same (seed, client, warehouses) always gives the same stream."""
    rng = random.Random("%d/%d" % (seed, client))
    while True:
        w = rng.randint(1, warehouses)
        d = rng.randint(1, DISTRICTS)
        if rng.random() < 0.5:
            lines = []
            for item in rng.sample(range(ITEMS), rng.randint(MIN_LINES, MAX_LINES)):
                sw = w
                if warehouses > 1 and rng.randrange(100) < REMOTE_LINE_PCT:
                    sw = rng.choice([x for x in range(1, warehouses + 1) if x != w])
                lines.append((sw, item, rng.randint(1, MAX_QTY)))
            yield {"kind": "neworder", "w": w, "d": d, "lines": lines}
        else:
            yield {"kind": "payment", "w": w, "d": d,
                   "cust": rng.randrange(CUSTOMERS),
                   "amount": rng.randint(1, MAX_PAYMENT_CENTS)}


def tally(plan: dict, deltas: Dict[str, int]) -> None:
    """Fold one committed plan into the expected per-key deltas.  Stock
    deltas are negative; counter deltas count New-Orders."""
    if plan["kind"] == "neworder":
        ck = counter_key(plan["w"], plan["d"])
        deltas[ck] = deltas.get(ck, 0) + 1
        for sw, item, qty in plan["lines"]:
            sk = stock_key(sw, item)
            deltas[sk] = deltas.get(sk, 0) - qty
    else:
        for key in payment_keys(plan["w"], plan["d"], plan["cust"]):
            deltas[key] = deltas.get(key, 0) + plan["amount"]


def check(values: Dict[str, object], initial: Dict[str, object],
          deltas: Dict[str, int], warehouses: int) -> List[str]:
    """Problems found in a final store, [] when it matches what the
    committed inputs imply."""
    out: List[str] = []
    new_rows = 0
    for w in range(1, warehouses + 1):
        for i in range(ITEMS):
            sk = stock_key(w, i)
            want = initial[sk] + deltas.get(sk, 0)
            if values.get(sk) != want:
                out.append("%s is %r, committed orders leave %d"
                           % (sk, values.get(sk), want))
            if not isinstance(values.get(sk), int) or values[sk] < 0:
                out.append("%s is negative or missing: %r" % (sk, values.get(sk)))
        for d in range(1, DISTRICTS + 1):
            ck = counter_key(w, d)
            want = initial[ck] + deltas.get(ck, 0)
            if values.get(ck) != want:
                out.append("%s is %r after %d committed New-Orders"
                           % (ck, values.get(ck), deltas.get(ck, 0)))
                continue
            missing = [oid for oid in range(1, want)
                       if order_key(w, d, oid) not in values]
            if missing:
                out.append("w%d/d%d has no order rows %s" % (w, d, missing[:5]))
            if order_key(w, d, want) in values:
                out.append("w%d/d%d has an order row at next_oid %d" % (w, d, want))
            new_rows += want - initial[ck]
        balances = {}
        for key in (["w%d/ytd" % w]
                    + ["w%d/d%d/ytd" % (w, d) for d in range(1, DISTRICTS + 1)]
                    + ["w%d/cust/%d" % (w, c) for c in range(CUSTOMERS)]):
            want = initial[key] + deltas.get(key, 0)
            if values.get(key) != want:
                out.append("%s is %r, committed payments leave %d"
                           % (key, values.get(key), want))
            balances[key] = values.get(key)
        try:
            districts = sum(balances["w%d/d%d/ytd" % (w, d)]
                            for d in range(1, DISTRICTS + 1))
            customers = sum(balances["w%d/cust/%d" % (w, c)]
                            for c in range(CUSTOMERS))
        except TypeError:
            out.append("w%d balances are not all integers" % w)
            continue
        if not balances["w%d/ytd" % w] == districts == customers:
            out.append("w%d ytd %r, district ytds sum to %d, customer balances "
                       "to %d" % (w, balances["w%d/ytd" % w], districts, customers))
    if len(values) != len(initial) + new_rows:
        out.append("store holds %d keys, expected %d initial + %d new order rows"
                   % (len(values), len(initial), new_rows))
    return out
