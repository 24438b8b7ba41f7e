"""Recheck the benchmark's steadiness: two sets of runs, compared.

    python3 perfbench/steadiness.py [--runs 10] [--pause 0] [--workload NAME ...]

Run from the root of a proxcalc checkout. Each set runs run.py ``--runs``
times per workload, each run with its own seed (set A seeds 1..N, set B
N+1..2N), for the ``run_seconds`` of BENCHMARK.json. ``--pause`` waits
that many seconds between the sets, so that they are made at different
times. For every workload and end-to-end metric it prints both medians,
each set's quartile spread (Q3 - Q1 over the median, from
statistics.quantiles(n=4)), the bound, and whether the benchmark holds:
every spread but setup_s's within the bound, set B's median no worse than
set A's by more than the bound, and the same share of failed ops in both
sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run_set(spec, workload, seeds):
    out = []
    for seed in seeds:
        cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: outputs not correct")
        out.append(result)
        print(f"  {workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return out


def _spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--pause", type=float, default=0.0)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds_a = range(1, args.runs + 1)
    seeds_b = range(args.runs + 1, 2 * args.runs + 1)

    sets = {}
    for label, seeds in (("A", seeds_a), ("B", seeds_b)):
        if label == "B" and args.pause:
            time.sleep(args.pause)
        print(f"set {label}", flush=True)
        sets[label] = {w: _run_set(spec, w, seeds) for w in names}

    ok = True
    print(f"\n{'workload':18s} {'metric':12s} {'median A':>11s} {'median B':>11s} "
          f"{'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for w in names:
        a_runs, b_runs = sets["A"][w], sets["B"][w]
        share_a = {r["failed"] / r["attempted"] for r in a_runs}
        share_b = {r["failed"] / r["attempted"] for r in b_runs}
        if len(share_a | share_b) != 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(share_a | share_b)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb = _spread(a), _spread(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            held = worse <= bound and (name == "setup_s" or max(sa, sb) <= bound)
            ok &= held
            note = "ok" if held else "NOT STEADY"
            if held and name != "setup_s" and max(sa, sb) > bound / 3:
                note = "ok, spread above a third of the bound"
            print(f"{w:18s} {name:12s} {ma:11.4g} {mb:11.4g} {sa:9.3f} {sb:9.3f} "
                  f"{bound:6.2f}  {note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
