#!/usr/bin/env python3
"""tpcc-lite benchmark for lazykv: end-to-end metrics, or per-layer ones traced.

    python3 perfbench/run.py --workload tpcc-occ-lsd --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the program from `src/`.
One run = one workload in this fresh process: build the deployment and
restore TPC-C's initial state through the snapshot path (SETUP_REPS times,
median reported as setup_s), warm up, then drive CLIENTS closed-loop client
threads for --seconds while sampling the process every SLICE_S.  Each client
draws its inputs from --seed; a retry re-runs the same inputs with the same
stamp.  The final store is checked against totals computed from the inputs
that committed.  The last line of stdout is one JSON object; the full record
(environment included) goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import glob
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from array import array
from typing import Dict, List, Optional

import tpcc
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# Why each workload: see README.md.  Two clients = one per vCPU on the
# reference machine; all three share data shape and mix, and differ in which
# layers carry the work.
WORKLOADS = {
    "tpcc-occ-lsd": dict(protocol="occ-lsd", warehouses=1, partitions=1,
                         policy="directory"),
    "tpcc-occ": dict(protocol="occ", warehouses=1, partitions=1,
                     policy="directory"),
    "tpcc-2pl-lsd-hash": dict(protocol="2pl-lsd", warehouses=2, partitions=2,
                              policy="hash"),
}
CLIENTS = 2
WARMUP_S = 2.0
SLICE_S = 0.25
SETUP_REPS = 7
QUIET_SHARE = 0.15
JOIN_GRACE_S = 60.0


class Client:
    """One closed-loop client thread and what it saw."""

    def __init__(self, cid: int, api, wl, inputs, tracer=None):
        self.cid = cid
        self.api = api
        self.wl = wl
        self.inputs = inputs
        self.tracer = tracer
        self.issued = 0
        self.failed = 0
        self.attempts = 0
        self.deltas: Dict[str, int] = {}   # expected store changes, see tpcc.tally
        self.done = array("d")             # commit times
        self.latency = array("d")          # first begin to commit, seconds
        self.neworder = array("b")         # 1 = New-Order, 0 = Payment
        self.rounds = array("l")           # 2PC prepare rounds of the commit
        self.error: Optional[str] = None

    def run(self, stop_at: float) -> None:
        try:
            self._loop(stop_at)
        except Exception:  # reported by the main thread, run marked failed
            self.error = traceback.format_exc()

    def _loop(self, stop_at: float) -> None:
        from lazykv import NotFound, Wounded
        from lazykv.bench import ClientAbort

        api, tracer, perf = self.api, self.tracer, time.perf_counter
        body = self.wl.body
        if tracer is not None:
            body = tracer.wrap(body, "bench.body")
            txn_nid = tracer.name_id("bench.txn")
            spans = tracer.spans()
        while perf() < stop_at:
            plan = next(self.inputs)
            self.issued += 1
            if tracer is not None:
                spans.txn_id = self.issued * CLIENTS + self.cid
                span = tracer.begin(txn_nid)
            t0 = perf()
            stamp = None
            attempt = 0
            while True:
                attempt += 1
                ctx = api.begin(stamp)
                stamp = ctx.stamp  # retries keep their wound-wait age
                try:
                    body(api, ctx, plan, attempt)
                except Wounded:
                    ctx.abort()
                    continue
                except (ClientAbort, NotFound):
                    # the initial state makes both impossible: a fault
                    ctx.abort()
                    self.failed += 1
                    break
                out = api.commit(ctx)
                if out.committed:
                    t1 = perf()
                    self.done.append(t1)
                    self.latency.append(t1 - t0)
                    self.neworder.append(plan["kind"] == "neworder")
                    self.rounds.append(getattr(out, "prepare_rounds", 0))
                    tpcc.tally(plan, self.deltas)
                    break
            self.attempts += attempt
            if tracer is not None:
                tracer.end(*span)
                spans.txn_id = tracing.NO_TXN


# -- environment ---------------------------------------------------------

def cpu_times() -> Optional[List[int]]:
    """The aggregate `cpu` line of /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def sleep_floor_us(n: int = 200) -> float:
    """Median wall time of time.sleep(1e-6): what every MessageMeter.trip
    costs at zero injected latency."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        time.sleep(1e-6)
        out.append(time.perf_counter() - t0)
    return statistics.median(out) * 1e6


def steal_pct(before, after) -> Optional[float]:
    if before is None or after is None:
        return None
    d = [b - a for a, b in zip(before, after)]
    return 100.0 * d[7] / sum(d) if sum(d) else 0.0


# -- statistics ----------------------------------------------------------

def pct(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def window_stats(clients: List[Client], slices: List[dict]) -> dict:
    """End-to-end figures over the timed window.  Time-based figures use
    only the QUIET_SHARE of slices with the least CPU steal (ties kept).
    That choice reads /proc/stat alone, never the program's own figures, so
    it drops hypervisor interference without favouring fast or slow
    stretches of the program.  Counts use the whole window."""
    bounds = [s["t"] for s in slices]
    per: List[list] = [[] for _ in slices[1:]]   # (latency s, is New-Order)
    commits = rounds = 0
    for c in clients:
        for t, lat, no, r in zip(c.done, c.latency, c.neworder, c.rounds):
            k = bisect.bisect_right(bounds, t) - 1
            if 0 <= k < len(per):
                per[k].append((lat, no))
                commits += 1
                rounds += r
    steal = [steal_pct(a["stat"], b["stat"]) or 0.0
             for a, b in zip(slices, slices[1:])]
    cut = sorted(steal)[max(1, round(len(steal) * QUIET_SHARE)) - 1]
    quiet = [k for k, st in enumerate(steal) if st <= cut]
    q_commits = sum(len(per[k]) for k in quiet)
    q_wall = sum(bounds[k + 1] - bounds[k] for k in quiet)
    q_cpu = sum(slices[k + 1]["cpu"] - slices[k]["cpu"] for k in quiet)
    neworder = [lat * 1e6 for k in quiet for lat, no in per[k] if no]
    payment = [lat * 1e6 for k in quiet for lat, no in per[k] if not no]
    return {
        "commits": commits,
        "prepare_rounds": rounds,
        "messages_per_commit":
            (slices[-1]["msgs"] - slices[0]["msgs"]) / commits,
        "quiet_slices": len(quiet),
        "quiet_neworders": len(neworder),
        "quiet_payments": len(payment),
        "commits_per_s": q_commits / q_wall,
        "cpu_us_per_commit": q_cpu / q_commits * 1e6,
        "neworder_p50_us": pct(neworder, 50),
        "neworder_p95_us": pct(neworder, 95),
        "payment_p50_us": pct(payment, 50),
        "payment_p95_us": pct(payment, 95),
        "slices": [{"commits": len(per[k]), "steal_pct": steal[k],
                    "cpu_s": slices[k + 1]["cpu"] - slices[k]["cpu"],
                    "quiet": k in quiet} for k in range(len(per))],
    }


# -- one run -------------------------------------------------------------

def write_snapshot(initial: Dict[str, object], path: str) -> None:
    from lazykv import Store
    st = Store()
    for key in sorted(initial):
        st.put(key, initial[key], 1)
    st.save_snapshot(path)


def measure(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    # lazykv is importable only once main() has put src/ on sys.path
    from lazykv.bench import RunConfig, build_api, make_workload

    shape = WORKLOADS[workload]
    cfg = RunConfig(protocol=shape["protocol"], workload="tpcc-lite",
                    clients=CLIENTS, warehouses=shape["warehouses"],
                    partitions=shape["partitions"], policy=shape["policy"],
                    seed=seed)
    os.makedirs(OUT, exist_ok=True)
    initial = tpcc.initial_state(cfg.warehouses)
    snap = os.path.join(OUT, "initial-%s.bin" % workload)
    write_snapshot(initial, snap)

    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    setup = []
    api = None
    for _ in range(SETUP_REPS):
        api = None  # the previous deployment is freed outside the timing
        t = time.perf_counter()
        api = build_api(cfg)
        api.restore_snapshot(snap)
        setup.append(time.perf_counter() - t)
    problems = [] if api.values() == initial else [
        "restored state differs from the initial state"]
    wl = make_workload(cfg)

    clients = [Client(cid, api, wl, tpcc.plans(seed, cid, cfg.warehouses),
                      tracer) for cid in range(CLIENTS)]
    stat0 = cpu_times()
    t_start = time.perf_counter()
    t0 = t_start + WARMUP_S
    t1 = t0 + seconds
    threads = [threading.Thread(target=c.run, args=(t1,), daemon=True,
                                name="client-%d" % c.cid) for c in clients]
    for th in threads:
        th.start()
    slices = []
    n_slices = max(1, round(seconds / SLICE_S))
    for k in range(n_slices + 1):
        due = t0 + (t1 - t0) * k / n_slices
        time.sleep(max(0.0, due - time.perf_counter()))
        slices.append({"t": time.perf_counter(), "cpu": time.process_time(),
                       "msgs": api.meter.total(), "kinds": api.meter.snapshot(),
                       "stat": cpu_times()})
    for th in threads:
        th.join(max(0.1, t1 + JOIN_GRACE_S - time.perf_counter()))
    stat1 = cpu_times()
    if tracer is not None:
        tracer.uninstall()
    stuck = [th.name for th in threads if th.is_alive()]
    if stuck:
        raise RuntimeError("%s still running %.0f s after the window"
                           % (", ".join(stuck), JOIN_GRACE_S))
    for c in clients:
        if c.error:
            raise RuntimeError("client %d failed:\n%s" % (c.cid, c.error))

    deltas: Dict[str, int] = {}
    for c in clients:
        for key, d in c.deltas.items():
            deltas[key] = deltas.get(key, 0) + d
    problems += tpcc.check(api.values(), initial, deltas, cfg.warehouses)

    t0, t1 = slices[0]["t"], slices[-1]["t"]
    stats = window_stats(clients, slices)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(traced), "clients": CLIENTS, "protocol": cfg.protocol,
        "warehouses": cfg.warehouses, "partitions": cfg.partitions,
        "policy": cfg.policy if cfg.partitions > 1 else None,
        "issued": sum(c.issued for c in clients),
        "failed": sum(c.failed for c in clients),
        "attempts": sum(c.attempts for c in clients),
        "problems": problems,
        "setup_s": setup,
        "window": stats,
        "env": {
            "steal_pct": steal_pct(stat0, stat1),
            "sleep_floor_us": sleep_floor_us(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
    }
    commits = stats["commits"]
    if tracer is None:
        result["metrics"] = {
            "commits_per_s": (stats["commits_per_s"], "commits/s"),
            "neworder_p50_us": (stats["neworder_p50_us"], "us"),
            "neworder_p95_us": (stats["neworder_p95_us"], "us"),
            "payment_p50_us": (stats["payment_p50_us"], "us"),
            "payment_p95_us": (stats["payment_p95_us"], "us"),
            "cpu_us_per_commit": (stats["cpu_us_per_commit"], "us"),
            "messages_per_commit": (stats["messages_per_commit"], "msgs"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        return result

    tot = tracer.totals(t0, t1)
    kinds0, kinds1 = slices[0]["kinds"], slices[-1]["kinds"]

    def calls(name):
        return (tot[name]["calls"] / commits, "count")

    def us(name, field="total_s"):
        return (tot[name][field] * 1e6 / commits, "us")

    def msgs(kind):
        return ((kinds1.get(kind, 0) - kinds0.get(kind, 0)) / commits, "msgs")

    result["metrics"] = {
        "futexpr.resolve.calls_per_commit": calls("futexpr.resolve"),
        "futexpr.resolve.us_per_commit": us("futexpr.resolve"),
        "futexpr.keys.calls_per_commit": calls("futexpr.keys"),
        "futexpr.keys.us_per_commit": us("futexpr.keys"),
        "store.get.calls_per_commit": calls("store.get"),
        "store.get.us_per_commit": us("store.get"),
        "store.put.calls_per_commit": calls("store.put"),
        "store.put.us_per_commit": us("store.put"),
        "store.load_snapshot.s":
            (statistics.median(tracer.durations("store.load_snapshot")), "s"),
        "locks.acquire.calls_per_commit": calls("locks.acquire"),
        "locks.acquire.us_per_commit": us("locks.acquire"),
        "locks.release.us_per_commit": us("locks.release"),
        "meter.trip.calls_per_commit": calls("meter.trip"),
        "meter.trip.us_per_commit": us("meter.trip"),
        "meter.read.msgs_per_commit": msgs("read"),
        "meter.is_true.msgs_per_commit": msgs("is_true"),
        "meter.commit.msgs_per_commit": msgs("commit"),
        "meter.prepare.msgs_per_commit": msgs("prepare"),
        "meter.decision.msgs_per_commit": msgs("decision"),
        "occ.lsd_commit.self_us_per_commit": us("occ.lsd_commit", "self_s"),
        "occ.lsd_is_true.self_us_per_commit": us("occ.lsd_is_true", "self_s"),
        "occ.classic_read.self_us_per_commit":
            us("occ.classic_read", "self_s"),
        "txn.begin.calls_per_commit": calls("txn.begin"),
        "tpl.lsd_commit.self_us_per_commit": us("tpl.lsd_commit", "self_s"),
        "tpl.lsd_is_true.self_us_per_commit": us("tpl.lsd_is_true", "self_s"),
        "dist.lsd_commit.self_us_per_commit": us("dist.lsd_commit", "self_s"),
        "dist.prepare.us_per_commit": us("dist.prepare"),
        "dist.decide.us_per_commit": us("dist.decide"),
        "dist.prepare_rounds_per_commit":
            (stats["prepare_rounds"] / commits, "rounds"),
        "bench.body.self_us_per_commit": us("bench.body", "self_s"),
        "trace.commits_per_s": (stats["commits_per_s"], "commits/s"),
    }
    path = os.path.join(OUT, "spans-%s.tsv.gz" % workload)
    result["spans"] = {"path": os.path.relpath(path, os.path.dirname(HERE)),
                       "count": tracer.write(path, t_start)}
    result["trace_overhead"] = overhead_vs_untraced(workload,
                                                    stats["commits_per_s"])
    return result


def overhead_vs_untraced(workload: str, traced_cps: float) -> Optional[dict]:
    """Traced against untraced commits_per_s, from the untraced results of
    this workload already in perfbench/out/ (median over them)."""
    cps = []
    for path in glob.glob(os.path.join(OUT, "result-%s-trace0-*.json" % workload)):
        try:
            with open(path) as f:
                cps.append(json.load(f)["metrics"]["commits_per_s"]["value"])
        except (OSError, ValueError, KeyError):
            continue
    if not cps:
        return None
    base = statistics.median(cps)
    return {"untraced_commits_per_s": base, "untraced_runs": len(cps),
            "traced_commits_per_s": traced_cps,
            "slowdown_pct": 100.0 * (1 - traced_cps / base)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "lazykv", "__init__.py")):
        print("run.py: no lazykv sources at %s; run from a source checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = {name: {"value": v, "unit": unit}
               for name, (v, unit) in result.pop("metrics").items()}
    result["metrics"] = metrics
    with open(os.path.join(OUT, "result-%s-trace%d-seed%d.json"
                           % (args.workload, args.trace, args.seed)), "w") as f:
        json.dump(result, f, indent=1)

    w = result["window"]
    print("%s seed %d: %d commits in the %d s window; %d issued, %d failed, "
          "%.3f attempts per transaction; latencies from the %d quietest "
          "slices (%d New-Order, %d Payment)"
          % (args.workload, args.seed, w["commits"], args.seconds,
             result["issued"], result["failed"],
             result["attempts"] / max(1, result["issued"]), w["quiet_slices"],
             w["quiet_neworders"], w["quiet_payments"]))
    print("env: %s" % json.dumps(result["env"]))
    if result.get("trace_overhead"):
        print("tracing overhead: %s" % json.dumps(result["trace_overhead"]))
    for p in result["problems"]:
        print("CHECK FAILED: %s" % p)
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["issued"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
