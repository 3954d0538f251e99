"""Command-line entry point for the benchmarks.

    bench --protocol occ-lsd --workload hotkey --clients 16 --p 100 \
          --duration 2 --csv results.csv

Each invocation performs one run, prints a short summary, and optionally
appends one CSV row.  The CSV gains a header only when the file is new, so
sweeps can append into a single sheet.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import List, Optional

from .runner import PROTOCOLS, WORKLOADS, RunConfig, RunReport, run

CSV_COLUMNS = ["protocol", "workload", "params", "commits/s",
               "mean_latency_us", "abort_frac", "aborts_by_reason",
               "prepare_rounds_mean", "messages_total"]


def _params_text(report: RunReport) -> str:
    return " ".join("%s=%s" % (k, v) for k, v in report.params.items()
                    if v is not None)


def _reasons_text(report: RunReport) -> str:
    return ";".join("%s=%d" % (k, v)
                    for k, v in sorted(report.aborts_by_reason.items()))


def append_csv(path: str, report: RunReport) -> None:
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh)
        if fresh:
            w.writerow(CSV_COLUMNS)
        w.writerow([
            report.protocol,
            report.workload,
            _params_text(report),
            "%.1f" % report.throughput,
            "%.1f" % report.mean_latency_us,
            "%.4f" % report.abort_frac,
            _reasons_text(report),
            "%.3f" % report.prepare_rounds_mean,
            report.messages_total,
        ])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bench",
        description="Contention benchmarks for the transactional KV store.")
    ap.add_argument("--protocol", default="occ", choices=PROTOCOLS)
    ap.add_argument("--workload", default="hotkey", choices=WORKLOADS)
    ap.add_argument("--clients", type=int, default=16)
    ap.add_argument("--p", type=int, default=100,
                    help="hotkey: percent of txns hitting the shared counter")
    ap.add_argument("--init", type=int, default=1,
                    help="assert: counter start value n (guard flips at rate 1/n)")
    ap.add_argument("--warehouses", type=int, default=1)
    ap.add_argument("--partitions", type=int, default=1)
    ap.add_argument("--policy", default="directory",
                    choices=("hash", "directory"))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--duration", type=float, default=1.0,
                    help="seconds per run (wall clock)")
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many committed txns per client "
                         "instead of a fixed duration")
    ap.add_argument("--csv", default=None, metavar="PATH",
                    help="append one result row to this CSV file")
    ap.add_argument("--inject-latency-us", type=int, default=0,
                    dest="inject_latency_us",
                    help="sleep this long on every client-storage round trip")
    ap.add_argument("--snapshot", default=None, metavar="PATH",
                    help="restore store contents from this snapshot file "
                         "before loading workload defaults")
    ap.add_argument("--save-snapshot", default=None, metavar="PATH",
                    dest="save_snapshot",
                    help="write the final store contents to this file")
    ap.add_argument("--dump-key", default=None, metavar="KEY", dest="dump_key",
                    help="print the lock state of KEY after the run")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # every flag but --csv names the RunConfig field it sets
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if k != "csv"})
    try:
        report = run(cfg)
    except (ValueError, OSError) as e:
        print("bench: %s" % e, file=sys.stderr)
        return 2

    print("%s / %s: %d commits in %.2fs (%.1f/s), "
          "abort fraction %.4f, mean latency %.1fus"
          % (report.protocol, report.workload, report.commits,
             report.duration, report.throughput, report.abort_frac,
             report.mean_latency_us))
    if report.aborts_by_reason:
        print("  aborts: " + _reasons_text(report))
    if report.client_aborts:
        print("  client give-ups: %d" % report.client_aborts)
    print("  messages: %d (%s)"
          % (report.messages_total,
             ", ".join("%s=%d" % kv
                       for kv in sorted(report.messages_by_kind.items()))))
    if report.prepare_rounds_mean:
        print("  mean 2pc prepare rounds: %.3f" % report.prepare_rounds_mean)
    print("  state digest: %s" % report.state_digest)
    if report.invariant_failures:
        for line in report.invariant_failures:
            print("  INVARIANT VIOLATED: %s" % line, file=sys.stderr)
        return 1
    if report.lock_dump is not None:
        print(report.lock_dump)
    if args.csv:
        append_csv(args.csv, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
