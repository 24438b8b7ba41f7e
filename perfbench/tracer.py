"""Layer spans and counters recorded around proxcalc's public functions.

Nothing under ``src/`` knows about this module. ``Tracer.install`` replaces
each public function and method of a layer by a wrapper, in every proxcalc
namespace that binds it, and ``Tracer.uninstall`` puts the originals back.

A span opens when a call enters a layer from outside it; calls from a
layer into itself pass straight through. A layer's self time is the
duration of its spans minus the time their child spans (other layers)
cover, so the self times of all layers add up to the time spent inside
proxcalc. Counters are bumped on every call, nested or not, unless the
counter says otherwise.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

from proxcalc import (
    cli,
    conjugation,
    determination,
    engine,
    functions,
    grids,
    reports,
    sampling,
    sets,
    specfmt,
    verify,
)


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


def _count_prox_rows(tracer, args, result, outermost):
    if outermost:
        tracer.counts["functions.prox_rows"] += _rows(args[2])


def _count_eval_call(tracer, args, result, outermost):
    if outermost:
        tracer.counts["functions.eval_calls"] += 1


def _count_sampling_points(tracer, args, result, outermost):
    if outermost:
        tracer.counts["sampling.points"] += _rows(result)


def _count_ball_accept(tracer, args, result, outermost):
    tracer.counts["sampling.ball_points"] += 1
    _count_sampling_points(tracer, args, result, outermost)


def _count_cube_draw(tracer, args, result, outermost):
    tracer.counts["sampling.cube_draws"] += 1
    _count_sampling_points(tracer, args, result, outermost)


def _count_solve(tracer, args, result, outermost):
    tracer.counts["engine.solves"] += 1
    tracer.counts["engine.iterations"] += int(result.iterations)
    tracer.counts["engine.nonconverged"] += int(not result.converged)


def _count_prox_dispatch(tracer, args, result, outermost):
    if result.method == "closed_form":
        tracer.counts["engine.closed_form_calls"] += 1


def _count_lattice(tracer, args, result, outermost):
    tracer.counts["grids.lattice_points"] += int(result.shape[0])


def _count_scores_many(tracer, args, result, outermost):
    table, queries = args[0], np.asarray(args[1])
    tracer.counts["conjugation.score_evals"] += table.grid.size * _rows(queries)


def _count_scores_one(tracer, args, result, outermost):
    tracer.counts["conjugation.score_evals"] += args[0].grid.size


def _count_oracle_batch(tracer, args, result, outermost):
    tracer.counts["determination.oracle_queries"] += _rows(args[1])


def _count_oracle_point(tracer, args, result, outermost):
    tracer.counts["determination.oracle_queries"] += 1


def _count_panels(tracer, args, result, outermost):
    tracer.counts["determination.quadrature_panels"] += int(result[1])


def _catalog_classes(module, base):
    return [c for c in vars(module).values()
            if isinstance(c, type) and issubclass(c, base)]


def _targets():
    """(layer, owner, attribute, counter, inclusive-time key) per wrapped callable."""
    out = []

    def add(layer, owner, names, counter=None, inclusive=None):
        for name in names:
            out.append((layer, owner, name, counter, inclusive))

    add("cli", cli, ["main", "run", "build_parser", "parse_point", "parse_grid"])
    add("specfmt", specfmt, ["parse_document", "load_document", "build_tree",
                             "to_document"])
    add("verify", verify, ["standard_battery", "battery_samples", "check_comparison",
                           "check_gradient_comparison", "check_norm_lower_bound",
                           "check_lipschitz", "check_equivalences",
                           "check_support_distance", "sampled_conjugate_infimum",
                           "support_function_of"])
    add("reports", reports, ["render_reports"], inclusive="reports.render_ms")
    add("reports", reports, ["write_reports", "report_to_text", "report_to_csv_row"])
    add("determination", determination, ["reconstruct", "integrate_tilde",
                                         "tilde_gradient", "determine_from_norm"])
    add("determination", determination, ["validate_field"],
        inclusive="determination.validate_ms")
    add("determination", determination, ["check_path_independence"], _count_panels)
    oracle = determination.ProxOracle
    add("determination", oracle, ["from_function", "from_table"])
    add("determination", oracle, ["query_many"], _count_oracle_batch)
    add("determination", oracle, ["__call__"], _count_oracle_point)
    add("conjugation", conjugation, ["conjugate_many"], _count_scores_many)
    add("conjugation", conjugation, ["conjugate_argmax"], _count_scores_one)
    add("conjugation", conjugation, ["numerical_conjugate",
                                     "verify_envelope_conjugate"])
    add("conjugation", conjugation.TabulatedConjugate, ["value_many"])
    add("grids", grids, ["tabulate", "read_table_csv", "write_table_csv"])
    add("grids", grids.SampleGrid, ["__init__", "axes", "boundary_mask"])
    add("grids", grids.SampleGrid, ["points"], _count_lattice)
    add("grids", grids.ValueTable, ["__init__"])
    add("engine", engine, ["numerical_prox"], _count_solve)
    add("engine", engine, ["prox"], _count_prox_dispatch)
    add("engine", engine, ["moreau_envelope", "envelope_gradient",
                           "moreau_decomposition_residual"])
    add("functions.prox", functions, ["prox_closed_form", "prox_many_closed_form"])
    add("functions.eval", functions, ["evaluate", "evaluate_many"], _count_eval_call)
    add("functions.other", functions, ["conjugate_closed_form", "subdifferential",
                                       "minimal_selection", "structured_probes",
                                       "is_indicator_chain", "contains_envelope",
                                       "atom_of"])
    for cls in _catalog_classes(functions, functions.ConvexFunction):
        own = vars(cls)
        add("functions.prox", cls, [n for n in ["prox_many"] if n in own],
            _count_prox_rows)
        add("functions.eval", cls, [n for n in ["value_many"] if n in own],
            _count_eval_call)
        add("functions.other", cls, [n for n in ["conjugate", "subdiff"] if n in own])
    add("sets", sets, ["sets_equal"])
    for cls in _catalog_classes(sets, sets.SubdiffSet):
        own = vars(cls)
        add("sets", cls, [n for n in ["project", "contains", "support", "shift",
                                      "min_norm_element", "sample"] if n in own])
    add("sampling", sampling.Lcg, ["point_in_ball"], _count_ball_accept)
    add("sampling", sampling.Lcg, ["point_in_cube"], _count_cube_draw)
    add("sampling", sampling.Lcg, ["unit_vector", "points_in_ball", "log_radial_points"],
        _count_sampling_points)
    return out


class Tracer:
    """Per-layer self time, inclusive time of a few functions, and counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [layer, child seconds] per open span
        self._plan = None  # (owner, attribute, original, wrapper) per binding
        self._patches = []

    def reset(self) -> None:
        self.self_s.clear()
        self.inclusive_s.clear()
        self.counts.clear()

    def _wrap(self, layer, func, counter, inclusive):
        stack = self._stack
        self_s = self.self_s
        incl = self.inclusive_s
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                if inclusive is None:
                    result = func(*args, **kwargs)
                else:
                    t0 = clock()
                    result = func(*args, **kwargs)
                    incl[inclusive] += clock() - t0
                if counter is not None:
                    counter(tracer, args, result, False)
                return result
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if inclusive is not None:
                    incl[inclusive] += dt
            if counter is not None:
                counter(tracer, args, result, True)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            return
        if self._plan is None:
            self._plan = self._collect()
        for owner, name, _, wrapper in self._plan:
            setattr(owner, name, wrapper)
        self._patches = self._plan

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _collect(self) -> list:
        """Every binding of each target, in its class or module and in each
        proxcalc module that imported it by name."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "proxcalc" or n.startswith("proxcalc."))]
        plan = []
        for layer, owner, name, counter, inclusive in _targets():
            original = vars(owner)[name]
            if isinstance(original, classmethod):
                wrapper = classmethod(
                    self._wrap(layer, original.__func__, counter, inclusive))
            else:
                wrapper = self._wrap(layer, original, counter, inclusive)
            plan.append((owner, name, original, wrapper))
            if isinstance(owner, type):
                continue
            for module in modules:
                for alias, value in vars(module).items():
                    if value is original and module is not owner:
                        plan.append((module, alias, original, wrapper))
        plan.append(self._objective_counter())
        return plan

    def _objective_counter(self):
        # engine._objective is private; it is counted, not timed, because the
        # solver calls it once per objective evaluation
        original = engine._objective
        counts = self.counts

        def counted(*args):
            counts["engine.objective_evals"] += 1
            return original(*args)

        return (engine, "_objective", original, counted)
