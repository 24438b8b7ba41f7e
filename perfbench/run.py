"""proxcalc benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify_lowdim --seed 1 --seconds 30 --trace 0

Run from the root of a proxcalc checkout. The workload runs in a fresh
process (worker.py) with one BLAS/OpenMP thread. With ``--trace 0`` four
more processes repeat only the set-up, and the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run. Both are also written, with the raw op
times, to ``perfbench/results/``. See README.md for what each metric
means.
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
WORKLOADS = ["verify_lowdim", "reconstruct_2d", "solver_crosscheck"]
SETUP_PROCESSES = 5  # set-up is measured this many times; its median is reported
RUN_LIMIT_S = 170  # every worker of one run ends within this many seconds
STARTED = time.monotonic()


def _worker(args, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - STARTED)))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _reference_tail(times_ms):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(times_ms)
    if n < 40:
        return None
    pct = 100.0 * (n - 10) / n
    return pct, sorted(times_ms)[n - 11], n


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "proxcalc", "__init__.py")):
        raise SystemExit(f"no proxcalc sources under {os.path.join(ROOT, 'src')}")

    main_run = _worker(args)
    if main_run["wrong"]:
        sys.stderr.write("wrong outputs:\n  " + "\n  ".join(main_run["wrong"][:20]) + "\n")
    for line in main_run["failures"]:
        sys.stderr.write(f"failed op (known fault): {line}\n")

    times_ms = [1e3 * t for t in main_run["op_times"]]
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in sorted(main_run["layers"].items())}
    else:
        setups = [main_run["setup_s"]]
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(_worker(args, ["--setup-only"])["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(times_ms) / (sum(times_ms) / 1e3), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(times_ms), "unit": "ms"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
        }
        tail = _reference_tail(times_ms)
        if tail:
            sys.stderr.write(f"reference only: p{tail[0]:.1f} = {tail[1]:.1f} ms "
                             f"over {tail[2]} ops\n")
    result = {
        "correct": not main_run["wrong"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "results", name), "w", encoding="utf-8") as handle:
        json.dump(dict(result, op_times_ms=times_ms, op_labels=main_run["op_labels"]),
                  handle, indent=1)
    print(json.dumps(result))


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
