"""Tests of the benchmark's own correctness checks.

    python3 -m pytest perfbench/test_checks.py     (or: python3 perfbench/test_checks.py)
"""

import os
import sys
import tempfile
import unittest
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tpcc  # noqa: E402
from lazykv.bench import RunConfig, build_api, make_workload  # noqa: E402


class CheckTest(unittest.TestCase):
    """A short single-client run through the program's snapshot restore and
    transaction bodies, then the final store against the benchmark's totals."""

    WAREHOUSES = 2
    CFG = RunConfig(protocol="occ-lsd", workload="tpcc-lite", clients=1,
                    warehouses=WAREHOUSES, partitions=2, policy="hash")

    @classmethod
    def setUpClass(cls):
        cls.initial = tpcc.initial_state(cls.WAREHOUSES)
        cls.tmp = tempfile.TemporaryDirectory()
        cls.snapshot = os.path.join(cls.tmp.name, "initial.bin")
        run.write_snapshot(cls.initial, cls.snapshot)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def setUp(self):
        self.api = build_api(self.CFG)
        self.api.restore_snapshot(self.snapshot)
        wl = make_workload(self.CFG)
        self.deltas = {}
        for plan in islice(tpcc.plans(7, 0, self.WAREHOUSES), 40):
            ctx = self.api.begin()
            wl.body(self.api, ctx, plan, 1)
            self.assertTrue(self.api.commit(ctx).committed)
            tpcc.tally(plan, self.deltas)

    def problems(self):
        return tpcc.check(self.api.values(), self.initial, self.deltas,
                          self.WAREHOUSES)

    def test_committed_run_passes(self):
        self.assertEqual(self.problems(), [])

    def test_stock_changed_outside_a_transaction_is_rejected(self):
        key = tpcc.stock_key(2, 17)
        self.api.load(key, self.api.values()[key] - 1)
        found = self.problems()
        self.assertEqual(len(found), 1, found)
        self.assertIn(key, found[0])

    def test_lost_new_order_is_rejected(self):
        ck = next(k for k, d in self.deltas.items() if k.endswith("next_oid"))
        self.deltas[ck] += 1  # the benchmark saw one more New-Order commit
        self.assertTrue(any(ck in p for p in self.problems()))

    def test_payment_to_one_balance_only_is_rejected(self):
        key = "w1/cust/3"
        self.api.load(key, self.api.values()[key] + 100)
        self.deltas[key] = self.deltas.get(key, 0) + 100
        found = self.problems()
        self.assertEqual(len(found), 1, found)
        self.assertIn("customer balances", found[0])


if __name__ == "__main__":
    unittest.main()
