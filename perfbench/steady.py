#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report spreads.

    python3 perfbench/steady.py [--seeds 1-10] [--seconds S] [--save DIR] [WORKLOAD ...]

For each run prints raw and host-corrected ops_per_s, p50 and p99 with
the run's probe times; then, per end-to-end metric, the median over the
runs and the spread, the distance between the first and third quartile
as a share of the median (statistics.quantiles(values, n=4)); and the
spread of ops_per_s had it been corrected with each host share from 0.5
to 1 (see src/host.mli).  Defaults to every workload of BENCHMARK.json
and its run_seconds.  --save keeps each run's whole output as
DIR/WORKLOAD-SEED.out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one(workload, seed, seconds, save):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       cwd=ROOT, capture_output=True, text=True)
    if save:
        with open(os.path.join(save, "%s-%d.out" % (workload, seed)), "w") as f:
            f.write(p.stdout)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, p.returncode))
    diag = next(json.loads(l)["diag"] for l in lines if l.startswith('{"diag"'))
    return diag, json.loads(lines[-1])


SHARES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def spread(xs):
    """Distance between the first and third quartile, as a share of the median."""
    med = statistics.median(xs)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
    return (q[2] - q[0]) / med if med else float("nan")


def rate_with(diag, share):
    """The run's ops_per_s corrected with another host share, per cycle:
    the median over cycles of ops / (raw busy time * mean probe ** -share).
    The benchmark corrects each op by the probe before it; this is close."""
    per_cycle = diag["ops"] / diag["cycles"]
    return statistics.median(per_cycle / (r * p ** -share)
                             for r, p in zip(diag["cycle_raw_s"], diag["cycle_probe_ms"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in args.workloads:
        print("## %s (%d s per run)\n" % (w, args.seconds))
        print("| seed | ops/s raw | ops/s | p50 ms raw | p50 ms | p99 ms raw | p99 ms "
              "| probe ms p25/p50/p75 | setup s | rss MB | rss MB at end |")
        print("|---|---|---|---|---|---|---|---|---|---|---|")
        values = {m: [] for m in bounds}
        by_share = {share: [] for share in SHARES}
        for s in seeds(args.seeds):
            d, r = one(w, s, args.seconds, args.save)
            for share, xs in by_share.items():
                xs.append(rate_with(d, share))
            m = {k: v["value"] for k, v in r["metrics"].items()}
            for k in values:
                values[k].append(m[k])
            pr = d["probe_ms"]
            print("| %d | %.1f | %.1f | %.4f | %.4f | %.3f | %.3f | %.3f/%.3f/%.3f | %.5f | %.2f | %.2f |" % (
                s, d["ops_per_s_raw"], m["ops_per_s"], d["latency_p50_ms_raw"],
                m["latency_p50_ms"], d["latency_p99_ms_raw"], m["latency_p99_ms"],
                pr["p25"], pr["p50"], pr["p75"], m["setup_s"], m["peak_rss_mb"],
                d["peak_rss_mb_at_end"]))
            sys.stdout.flush()
        print("\n| metric | median | spread (IQR/median) | bound | spread/bound |")
        print("|---|---|---|---|---|")
        for k, xs in values.items():
            sp = spread(xs)
            print("| %s | %.6g | %.4f | %.2f | %.2f |" % (k, statistics.median(xs), sp, bounds[k],
                                                         sp / bounds[k]))
        print("\n| host share | %s |" % " | ".join("%.1f" % share for share in SHARES))
        print("|---|%s" % ("---|" * len(SHARES)))
        print("| ops_per_s spread | %s |" % " | ".join("%.3f" % spread(by_share[share])
                                                      for share in SHARES))
        print()
        sys.stdout.flush()


if __name__ == "__main__":
    main()
