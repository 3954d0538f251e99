"""Fixed-seed behaviour matrix: every protocol on every workload, on one
node and on two partitions, must reproduce the recorded outcome exactly.

Each row is a single-client run of 40 committed transactions, so its
outcome does not depend on thread scheduling: the final-state digest, the
messages by kind, and the commit and abort counts are functions of the
code alone.  A refactor of a commit path that keeps this matrix unchanged
kept the observable behaviour of every path it touched.

The data file was recorded from this module:

    PYTHONPATH=src python tests/test_golden_matrix.py --record
"""

import json
import os
import sys

import pytest

from lazykv.bench.runner import PROTOCOLS, WORKLOADS, RunConfig, run

DATA = os.path.join(os.path.dirname(__file__), "golden_matrix.json")
SEEDS = (1, 7)


def matrix():
    """(name, RunConfig keyword arguments) for every row."""
    rows = []
    for seed in SEEDS:
        for protocol in PROTOCOLS:
            for workload in WORKLOADS:
                rows.append(dict(protocol=protocol, workload=workload,
                                 seed=seed))
                rows.append(dict(protocol=protocol, workload=workload,
                                 seed=seed, partitions=2, policy="hash"))
            rows.append(dict(protocol=protocol, workload="tpcc-lite",
                             seed=seed, partitions=2, policy="directory",
                             warehouses=2))
    return [("-".join("%s=%s" % kv for kv in sorted(kw.items())), kw)
            for kw in rows]


def outcome(kw):
    report = run(RunConfig(clients=1, ops=40, **kw))
    return {
        "state_digest": report.state_digest,
        "messages_by_kind": dict(sorted(report.messages_by_kind.items())),
        "commits": report.commits,
        "client_aborts": report.client_aborts,
        "aborts_by_reason": dict(sorted(report.aborts_by_reason.items())),
    }


def _recorded():
    with open(DATA) as f:
        return json.load(f)


ROWS = matrix()


def test_matrix_covers_recorded_rows():
    assert sorted(name for name, _kw in ROWS) == sorted(_recorded())


@pytest.mark.parametrize("name,kw", ROWS, ids=[name for name, _kw in ROWS])
def test_outcome_matches_recording(name, kw):
    assert outcome(kw) == _recorded()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_matrix.py --record")
    with open(DATA, "w") as f:
        json.dump({name: outcome(kw) for name, kw in ROWS}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
