"""The benchmark's workloads: seeded inputs, one op, and a check per op.

Every check compares proxcalc's output with a value computed here in
numpy, or with a verdict derived by hand from the closed forms; none of
them calls proxcalc to decide whether proxcalc was right.

A check returns quietly, raises ``KnownFault`` when the output is wrong
in the way a recorded program fault makes it wrong (the op counts as
failed), or raises ``WrongOutput`` (the run is not correct).
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from proxcalc import cli, determination, engine, grids, specfmt

TOL_RECONSTRUCT = 2e-3
TOL_NUMERICAL = 1e-4
MONOTONE_MAX = 1e-8


class KnownFault(Exception):
    """The output is wrong because of a program fault the README records."""


class WrongOutput(Exception):
    """The output disagrees with the independent reference."""


def _norm_doc(ell, dim):
    return {"atom": "scaled_norm", "ell": ell, "center": [0.0] * dim}


def _huber_doc(ell, dim):
    return {"op": "envelope", "lambda": 1.0, "f": _norm_doc(ell, dim)}


def _identity_quadratic_doc(dim):
    return {"atom": "quadratic", "Q": np.eye(dim).tolist()}


def _huber(Z, ell, lam=1.0):
    """Moreau envelope of ell*||.|| with index lam, row-wise."""
    r = np.linalg.norm(Z, axis=1)
    return np.where(r <= ell * lam, r * r / (2 * lam), ell * r - ell * ell * lam / 2)


def _soft_threshold(x, t):
    r = np.linalg.norm(x)
    return x * max(0.0, 1.0 - t / r) if r > 0 else np.zeros_like(x)


# ---------------------------------------------------------------------------
# verify_lowdim
# ---------------------------------------------------------------------------

V, H, C = "verified", "hypothesis_fails", "counterexample"

# Reasons shared by every pair: each function below has a closed-form
# conjugate and prox, so the decomposition prox_f + prox_f* = id and the
# envelope gradient (x - prox_f x)/1 hold to rounding; the envelope-conjugate
# identity (f_1)* = f* + ||.||^2/2 holds exactly, and on the 2-D battery
# lattice (spacing 0.1) the discrete sup misses it by at most
# (1/2)(1/2)(0.1^2/2) = 1.25e-3 < 2e-3 where f_1 has curvature <= 1/2, as
# for these Huber functions and ||.||^2/2.
_SAME = {
    "moreau_decomposition": (V, "closed-form conjugate and prox"),
    "envelope_gradient": (V, "f_1 is C^1,1 with closed-form prox"),
    "envelope_conjugate": (V, "(f_1)* = f* + ||.||^2/2; lattice error <= 1.25e-3"),
}


def _expected(comparison_fg, comparison_gf, lipschitz, norm_lower_bound, ell):
    rows = [("comparison(f,g)", comparison_fg), ("comparison(g,f)", comparison_gf),
            ("equivalences(f,g)",
             (V, "f* and g* are bounded below; the five items hold or fail together"))]
    for tag in ("f", "g"):
        rows += [(f"{name}({tag})", verdict) for name, verdict in _SAME.items()]
    rows += [(f"lipschitz(ell={ell})", lipschitz),
             (f"norm_lower_bound(ell={ell})", norm_lower_bound)]
    return rows


# (label, f document, g document, ell, fixed CLI seed or None, expected)
# Huber_l is the envelope of l*||.||; its prox norm is
# (|x| + max(|x| - 2l, 0))/2, which is what the verdicts below rest on.
VERIFY_PAIRS = [
    ("huber1-huber1-2d", _huber_doc(1.0, 2), _huber_doc(1.0, 2), 1.0, None, _expected(
        (V, "equal prox maps: hypothesis holds with equality, f - g constant"),
        (V, "equal prox maps"),
        (V, "Huber_1 is 1-Lipschitz"),
        (V, "|prox| >= |x| - 1 and Huber_1 <= |x|"), 1.0)),
    ("huber1-huber1plus2-2d", _huber_doc(1.0, 2),
     {"op": "add_const", "c": 2.0, "f": _huber_doc(1.0, 2)}, 1.0, None, _expected(
        (V, "a constant changes no prox map and cancels in g - g(x0)"),
        (V, "as (f,g)"),
        (V, "Huber_1 is 1-Lipschitz"),
        (V, "|prox| >= |x| - 1 and Huber_1 + 2 - (Huber_1(0) + 2) <= |x|"), 1.0)),
    ("huber1-halfsq-2d", _huber_doc(1.0, 2), _identity_quadratic_doc(2), 1.0, None,
     _expected(
        (H, "|prox_f x| > |x|/2 = |prox_g x| once |x| > 2"),
        (V, "|x|/2 <= |prox_f x|, and Huber_1 <= |x|^2/2"),
        (V, "Huber_1 is 1-Lipschitz"),
        (H, "|x| - 1 > |x|/2 once |x| > 2"), 1.0)),
    ("huber2-huber1-2d", _huber_doc(2.0, 2), _huber_doc(1.0, 2), 2.0, None, _expected(
        (V, "|prox Huber_2| <= |prox Huber_1|, and Huber_1 <= Huber_2"),
        (H, "|prox Huber_1| > |prox Huber_2| once |x| > 2"),
        (V, "Huber_2 is 2-Lipschitz"),
        (V, "|prox Huber_1| >= |x| - 1 >= |x| - 2 and Huber_1 <= 2|x|"), 2.0)),
    # 3-D pairs: the same verdicts hold, but the battery's 61^3 lattice has
    # spacing 0.5 and envelope_conjugate reports a false counterexample
    # (recorded in the README); their inputs do not depend on the seed
    ("norm1-norm1-3d", _norm_doc(1.0, 3), _norm_doc(1.0, 3), 1.0, 7, _expected(
        (V, "equal prox maps"),
        (V, "equal prox maps"),
        (V, "|.| is 1-Lipschitz"),
        (V, "|prox| = max(|x| - 1, 0) and |x| - |0| <= |x|"), 1.0)),
    ("huber1-halfsq-3d", _huber_doc(1.0, 3), _identity_quadratic_doc(3), 1.0, 7,
     _expected(
        (H, "|prox_f x| > |x|/2 = |prox_g x| once |x| > 2"),
        (V, "|x|/2 <= |prox_f x|, and Huber_1 <= |x|^2/2"),
        (V, "Huber_1 is 1-Lipschitz"),
        (H, "|x| - 1 > |x|/2 once |x| > 2"), 1.0)),
]


def parse_statuses(text: str) -> list[tuple[str, str]]:
    """(check name, status) per block of a structured-text report."""
    names = [line[len("check: "):] for line in text.splitlines()
             if line.startswith("check: ")]
    statuses = [line[len("status: "):] for line in text.splitlines()
                if line.startswith("status: ")]
    return list(zip(names, statuses))


class VerifyLowdim:
    """verify-all through the CLI entry point, in-process, on fixed pairs."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.ops = []
        self.expected = []
        self.dims = []
        for label, fdoc, gdoc, ell, fixed_seed, expected in VERIFY_PAIRS:
            dim = specfmt.parse_document(json.dumps(fdoc)).dim
            cli_seed = fixed_seed if fixed_seed is not None else int(rng.integers(2**31))
            paths = []
            for tag, doc in (("f", fdoc), ("g", gdoc)):
                text = json.dumps(doc)
                path = os.path.join(workdir, f"{label}.{tag}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                paths.append(path)
            argv = ["verify-all", "--f", paths[0], "--g", paths[1],
                    "--anchor", ",".join(["0"] * dim), "--seed", str(cli_seed),
                    "--ell", str(ell)]
            self.ops.append((label, lambda argv=argv: _run_cli(argv)))
            self.expected.append(expected)
            self.dims.append(dim)
        self._first_text = {}

    def check(self, i: int, output) -> None:
        code, text = output
        label = self.ops[i][0]
        first = self._first_text.setdefault(i, text)
        if text != first:
            raise WrongOutput(f"{label}: report bytes differ between two runs of one seed")
        got = parse_statuses(text)
        want = [(name, verdict[0]) for name, verdict in self.expected[i]]
        if [n for n, _ in got] != [n for n, _ in want]:
            raise WrongOutput(f"{label}: checks {[n for n, _ in got]}")
        any_counterexample = any(s == C for _, s in got)
        if code != (2 if any_counterexample else 0):
            raise WrongOutput(f"{label}: exit code {code}")
        wrong = [(n, g, w) for (n, g), (_, w) in zip(got, want) if g != w]
        if not wrong:
            return
        fault_1 = all(n.startswith("envelope_conjugate(") and g == C and w == V
                      for n, g, w in wrong)
        if fault_1 and self.dims[i] == 3:
            raise KnownFault(f"{label}: false envelope_conjugate counterexample")
        raise WrongOutput(f"{label}: {wrong}")


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# reconstruct_2d
# ---------------------------------------------------------------------------

_TILT = np.array([-0.3, 0.2])
_SHIFT = np.array([-0.5, 0.3])

# (label, document, f in numpy). Each case keeps its path probe at 64
# panels except the tilted norm, which doubles to 256; the three cases near
# 0.8 s put the median inside one cluster of op times.
RECONSTRUCT_CASES = [
    ("shifted_quadratic",
     {"op": "translate", "t": _SHIFT.tolist(), "f": _identity_quadratic_doc(2)},
     lambda Z: 0.5 * np.sum((Z + _SHIFT) ** 2, axis=1)),
    ("scaled_norm", _norm_doc(1.5, 2), lambda Z: 1.5 * np.linalg.norm(Z, axis=1)),
    ("tilted_norm", {"op": "tilt", "a": _TILT.tolist(), "f": _norm_doc(1.0, 2)},
     lambda Z: np.linalg.norm(Z, axis=1) - Z @ _TILT),
    ("huber_1.5", _huber_doc(1.5, 2), lambda Z: _huber(Z, 1.5)),
    ("huber_1", _huber_doc(1.0, 2), lambda Z: _huber(Z, 1.0)),
]
RECONSTRUCT_QUERIES = 22
RECONSTRUCT_QUERY_RADIUS = 1.2


class Reconstruct2d:
    """reconstruct() from the prox of catalog functions on a 241x241 grid."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        r = RECONSTRUCT_QUERY_RADIUS * np.sqrt(rng.uniform(size=RECONSTRUCT_QUERIES))
        theta = rng.uniform(0.0, 2 * np.pi, size=RECONSTRUCT_QUERIES)
        self.queries = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        self.grid = grids.SampleGrid([-6.0, -6.0], [6.0, 6.0], [241, 241])
        self.ops = []
        self.truth = []
        for label, doc, f_numpy in RECONSTRUCT_CASES:
            f = specfmt.parse_document(json.dumps(doc))
            f0 = float(f_numpy(np.zeros((1, 2)))[0])
            self.ops.append((label, lambda f=f, f0=f0: self._reconstruct(f, f0)))
            self.truth.append(f_numpy(self.queries))

    def _reconstruct(self, f, f0):
        oracle = determination.ProxOracle.from_function(f)
        task = determination.ReconstructionTask(oracle, np.zeros(2), self.grid,
                                                self.queries, f_at_x0=f0)
        return determination.reconstruct(task)

    def check(self, i: int, report) -> None:
        label = self.ops[i][0]
        points = np.array([q for q, _ in report.recovered])
        values = np.array([v for _, v in report.recovered])
        if points.shape != self.queries.shape or not np.array_equal(points, self.queries):
            raise WrongOutput(f"{label}: recovered points are not the queries")
        err = float(np.max(np.abs(values - self.truth[i])))
        if not err <= TOL_RECONSTRUCT:
            raise WrongOutput(f"{label}: recovered f off by {err:.3e}")
        if not report.monotonicity_residual <= MONOTONE_MAX:
            raise WrongOutput(f"{label}: monotonicity residual "
                              f"{report.monotonicity_residual:.3e}")


# ---------------------------------------------------------------------------
# solver_crosscheck
# ---------------------------------------------------------------------------

_Q = np.array([[2.0, 0.4], [0.4, 1.0]])
_B = np.array([0.3, -0.1])
_TILT_SOLVER = np.array([0.3, 0.2])
_BOX_LO = np.array([-1.0, -0.5])
_BOX_HI = np.array([1.0, 0.5])


def _prox_huber(x, ell, mu=1.0, lam=1.0):
    # prox of the envelope: (mu x + lam prox_{(lam+mu) ell ||.||}(x)) / (lam+mu)
    nu = lam + mu
    return (mu * x + lam * _soft_threshold(x, nu * ell)) / nu


# (label, document, centre of the kink, prox in numpy at lam = 1). Points sit
# on circles of fixed radii around the centre where the function has its
# kink, at a seeded rotation, so each seed draws the same mix of easy and
# hard solves; a point next to the kink circle |x - centre| = 1 can cost a
# hundred times the median solve.
SOLVER_CASES = [
    ("norm", _norm_doc(1.0, 2), np.zeros(2), lambda x: _soft_threshold(x, 1.0)),
    ("tilted_norm", {"op": "tilt", "a": _TILT_SOLVER.tolist(), "f": _norm_doc(1.0, 2)},
     -_TILT_SOLVER, lambda x: _soft_threshold(x + _TILT_SOLVER, 1.0)),
    ("quadratic_cross", {"atom": "quadratic", "Q": _Q.tolist(), "b": _B.tolist(), "c": 0.5},
     np.zeros(2), lambda x: np.linalg.solve(np.eye(2) + _Q, x - _B)),
    ("support_box", {"atom": "support_box", "lo": _BOX_LO.tolist(), "hi": _BOX_HI.tolist()},
     np.zeros(2), lambda x: x - np.clip(x, _BOX_LO, _BOX_HI)),
    ("huber_1.5", _huber_doc(1.5, 2), np.zeros(2), lambda x: _prox_huber(x, 1.5)),
]
SOLVER_RADII = (0.5, 1.5, 2.5, 3.5)
SOLVER_ANGLES = 6


class SolverCrosscheck:
    """engine.numerical_prox on non-indicator 2-D functions; one op solves
    every point of every case."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.cases = []
        for label, doc, centre, prox_numpy in SOLVER_CASES:
            f = specfmt.parse_document(json.dumps(doc))
            phase = rng.uniform(0.0, 2 * np.pi, size=(len(SOLVER_RADII), 1))
            theta = phase + 2 * np.pi * np.arange(SOLVER_ANGLES) / SOLVER_ANGLES
            X = np.concatenate([centre + r * np.stack([np.cos(t), np.sin(t)], axis=1)
                                for r, t in zip(SOLVER_RADII, theta)])
            truth = np.array([prox_numpy(x) for x in X])
            self.cases.append((label, f, X, truth))
        self.ops = [("all_cases", self._solve_all)]

    def _solve_all(self):
        solve = engine.numerical_prox
        return [[solve(f, 1.0, x) for x in X] for _, f, X, _ in self.cases]

    def check(self, i: int, results) -> None:
        if [len(r) for r in results] != [len(X) for _, _, X, _ in self.cases]:
            raise WrongOutput("a case returned the wrong number of solves")
        for (label, _, X, truth), case_results in zip(self.cases, results):
            for x, want, res in zip(X, truth, case_results):
                if not res.converged:
                    raise WrongOutput(f"{label} at {x.tolist()}: not converged")
                err = float(np.linalg.norm(res.minimizer - want))
                if not err <= TOL_NUMERICAL:
                    raise WrongOutput(f"{label} at {x.tolist()}: off by {err:.3e}")


WORKLOADS = {
    "verify_lowdim": VerifyLowdim,
    "reconstruct_2d": Reconstruct2d,
    "solver_crosscheck": SolverCrosscheck,
}
