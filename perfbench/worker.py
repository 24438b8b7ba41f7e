"""One benchmark process: set up a workload, then time its ops.

Started by run.py, never imported; ``bootstrap`` fixes the thread count
and the proxcalc import path before numpy is imported.

Set-up is timed from ``--spawned-at`` (the parent's ``time.monotonic()``
just before it started this process, a clock shared by all processes) to
the end of one untimed warm-up op. With ``--setup-only`` the process stops
there. Otherwise it runs whole rounds of the workload's ops, in a fixed
order, until one more round would pass ``--seconds``, checks each op's
output, and prints one JSON line.

With ``--trace 1`` untraced rounds alternate with rounds in which every
proxcalc layer is wrapped by ``tracer.Tracer``; the ratio of their mean op
times is the tracing overhead.
"""

import argparse
import json
import os
import resource
import statistics
import tempfile
import time

import bootstrap  # threads and import path, before numpy is imported
import tracer
import workloads

# layer -> metric name of its self time per op; reports' self time is
# reported as reports.render_ms, the inclusive time of render_reports
SELF_TIMES = {
    "sampling": "sampling.self_ms",
    "functions.prox": "functions.prox_self_ms",
    "functions.eval": "functions.eval_self_ms",
    "functions.other": "functions.other_self_ms",
    "sets": "sets.self_ms",
    "engine": "engine.self_ms",
    "grids": "grids.self_ms",
    "conjugation": "conjugation.self_ms",
    "determination": "determination.self_ms",
    "verify": "verify.self_ms",
    "specfmt": "specfmt.self_ms",
    "cli": "cli.self_ms",
}
COUNTS = ["sampling.points", "functions.prox_rows", "functions.eval_calls",
          "engine.solves", "engine.iterations", "engine.objective_evals",
          "engine.nonconverged", "engine.closed_form_calls", "grids.lattice_points",
          "conjugation.score_evals", "determination.oracle_queries",
          "determination.quadrature_panels"]
INCLUSIVE_TIMES = ["determination.validate_ms", "reports.render_ms"]


class Outcomes:
    """Op times and check results of a run of rounds."""

    def __init__(self):
        self.times = []
        self.labels = []
        self.failed = []
        self.wrong = []

    def record(self, workload, i, label, seconds, output):
        self.times.append(seconds)
        self.labels.append(label)
        try:
            workload.check(i, output)
        except workloads.KnownFault as exc:
            self.failed.append(str(exc))
        except workloads.WrongOutput as exc:
            self.wrong.append(str(exc))


def run_rounds(workload, seconds: float, outcomes: Outcomes) -> None:
    """Whole rounds until one more would pass ``seconds``."""
    clock = time.perf_counter
    rounds = []
    start = clock()
    while True:
        t_round = clock()
        for i, (label, op) in enumerate(workload.ops):
            t0 = clock()
            output = op()
            outcomes.record(workload, i, label, clock() - t0, output)
        rounds.append(clock() - t_round)
        if clock() - start + statistics.fmean(rounds) > seconds:
            return


def run_alternating(workload, seconds: float, trace, plain: Outcomes, traced: Outcomes):
    """An untraced and a traced round in turn, so that both meet the same
    phases of machine speed, until one more pair would pass ``seconds``."""
    clock = time.perf_counter
    pairs = []
    start = clock()
    while True:
        t_pair = clock()
        run_rounds(workload, 0.0, plain)  # a budget of 0 s runs one round
        trace.install()
        run_rounds(workload, 0.0, traced)
        trace.uninstall()
        pairs.append(clock() - t_pair)
        if clock() - start + statistics.fmean(pairs) > seconds:
            return


def layer_metrics(trace, outcomes, untraced, setup_specfmt_s):
    """Per-op layer metrics of the traced rounds."""
    ops = len(outcomes.times)
    out = {name: 1e3 * trace.self_s[layer] / ops for layer, name in SELF_TIMES.items()}
    out.update({name: trace.counts[name] / ops for name in COUNTS})
    out.update({name: 1e3 * trace.inclusive_s[name] / ops for name in INCLUSIVE_TIMES})
    draws = trace.counts["sampling.cube_draws"]
    out["sampling.accept_ratio"] = trace.counts["sampling.ball_points"] / draws if draws else 0.0
    out["specfmt.parse_ms"] = 1e3 * setup_specfmt_s
    op_ms = 1e3 * sum(outcomes.times) / ops
    out["trace.op_ms"] = op_ms
    out["trace.unattributed_ms"] = op_ms - 1e3 * sum(trace.self_s.values()) / ops
    out["trace.overhead_pct"] = 100.0 * (
        statistics.fmean(outcomes.times) / statistics.fmean(untraced.times) - 1.0)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    trace = tracer.Tracer()
    if args.trace:
        trace.install()
    os.makedirs(os.path.join(bootstrap.HERE, "_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(bootstrap.HERE, "_work")) as work:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        warm = Outcomes()
        label, op = workload.ops[0]
        warm.record(workload, 0, label, 0.0, op())
        setup_s = time.monotonic() - args.spawned_at
        setup_specfmt_s = trace.self_s["specfmt"]
        result = {"setup_s": setup_s}
        if not args.setup_only:
            timed = Outcomes()  # the rounds the reported times come from
            phases = [timed]
            if args.trace:
                trace.uninstall()
                trace.reset()
                untraced = Outcomes()
                phases.append(untraced)
                run_alternating(workload, args.seconds, trace, untraced, timed)
                result["layers"] = layer_metrics(trace, timed, untraced, setup_specfmt_s)
            else:
                run_rounds(workload, args.seconds, timed)
            result.update(
                op_times=timed.times, op_labels=timed.labels,
                attempted=sum(len(p.times) for p in phases),
                failed=sum(len(p.failed) for p in phases),
                failures=sorted({line for p in phases for line in p.failed}),
                wrong=warm.wrong + [line for p in phases for line in p.wrong],
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
