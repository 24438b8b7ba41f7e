"""Show that every output check of the benchmark catches a perturbed output.

    python3 perfbench/mutations.py

Run from the root of a proxcalc checkout. For each workload it runs ops
once, confirms that the check accepts the true output, then feeds the
check slightly perturbed copies and confirms that each is refused. Exit
status 0 when every perturbation is caught.
"""

import dataclasses
import os
import sys
import tempfile

import bootstrap  # threads and import path, before numpy is imported
import workloads
from workloads import KnownFault, WrongOutput


def _expect(verdict, workload, i, output, what):
    try:
        workload.check(i, output)
        got = None
    except (KnownFault, WrongOutput) as exc:
        got = type(exc)
    ok = got is verdict
    name = verdict.__name__ if verdict else "accepted"
    print(f"{'ok ' if ok else 'BAD'} {type(workload).__name__:16s} {what}: "
          f"expected {name}, got {got.__name__ if got else 'accepted'}")
    return ok


def _replace_status(text, check, new):
    blocks = text.split("check: ")
    for k, block in enumerate(blocks):
        if block.startswith(check + "\n"):
            head, status, rest = block.partition("status: ")
            blocks[k] = head + status + new + rest[rest.index("\n"):]
    return "check: ".join(blocks)


def verify_cases(work):
    ok = True

    def fresh():  # a check that has not yet seen a report of this seed
        return workloads.VerifyLowdim(seed=3, workdir=work)

    w = fresh()
    i2 = 0
    i3 = [k for k, d in enumerate(w.dims) if d == 3][0]
    code, text = w.ops[i2][1]()
    ok &= _expect(None, w, i2, (code, text), "2-D report as produced")
    ok &= _expect(WrongOutput, w, i2, (code, text.replace("e-", "e-1", 1)),
                  "second run of the same seed with one residual digit changed")
    ok &= _expect(WrongOutput, fresh(), i2, (code, _replace_status(
        text, "comparison(f,g)", "hypothesis_fails")), "comparison(f,g) status changed")
    ok &= _expect(WrongOutput, fresh(), i2, (2, _replace_status(
        text, "envelope_conjugate(f)", "counterexample")),
        "2-D envelope_conjugate counterexample")
    ok &= _expect(WrongOutput, fresh(), i2, (2, text), "exit code 2 on a clean report")
    code3, text3 = w.ops[i3][1]()
    ok &= _expect(KnownFault, fresh(), i3, (code3, text3), "3-D report as produced")
    ok &= _expect(WrongOutput, fresh(), i3, (code3, _replace_status(
        text3, "lipschitz(ell=1.0)", "counterexample")),
        "3-D report with a second, unrecorded counterexample")
    return ok


def reconstruct_cases(work):
    ok = True
    w = workloads.Reconstruct2d(seed=3, workdir=work)
    report = w.ops[0][1]()
    ok &= _expect(None, w, 0, report, "report as produced")
    off = 1.25 * workloads.TOL_RECONSTRUCT
    bumped = [(q, v + (off if k == 5 else 0.0)) for k, (q, v) in enumerate(report.recovered)]
    ok &= _expect(WrongOutput, w, 0, dataclasses.replace(report, recovered=bumped),
                  f"one recovered value off by {off:.1e}")
    ok &= _expect(WrongOutput, w, 0, dataclasses.replace(
        report, monotonicity_residual=2 * workloads.MONOTONE_MAX),
        "monotonicity residual 2e-8")
    ok &= _expect(WrongOutput, w, 0, dataclasses.replace(
        report, recovered=report.recovered[1:]), "one query missing")
    return ok


def solver_cases(work):
    ok = True
    w = workloads.SolverCrosscheck(seed=3, workdir=work)
    results = w.ops[0][1]()
    ok &= _expect(None, w, 0, results, "solves as produced")
    for case in range(len(results)):
        label = w.cases[case][0]
        bad = [list(r) for r in results]
        res = bad[case][7]
        bad[case][7] = dataclasses.replace(
            res, minimizer=res.minimizer + [2 * workloads.TOL_NUMERICAL, 0.0])
        ok &= _expect(WrongOutput, w, 0, bad, f"{label}: one minimizer off by 2e-4")
    bad = [list(r) for r in results]
    bad[1][3] = dataclasses.replace(bad[1][3], converged=False)
    ok &= _expect(WrongOutput, w, 0, bad, "one solve not converged")
    ok &= _expect(WrongOutput, w, 0, [r[:-1] for r in results], "one solve missing per case")
    return ok


def main():
    os.makedirs(os.path.join(bootstrap.HERE, "_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(bootstrap.HERE, "_work")) as work:
        ok = verify_cases(work) & reconstruct_cases(work) & solver_cases(work)
    print("every perturbation caught" if ok else "SOME PERTURBATION SLIPPED THROUGH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
