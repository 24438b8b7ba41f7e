"""Batch front end.

Commands: prox, envelope, conjugate, reconstruct, compare, verify-all.
Function arguments are function-spec documents (JSON trees, see specfmt).
Points are comma-separated decimals ("3,4"); grids are lo:hi:count per
axis, semicolon-separated across axes ("-4:4:401;-4:4:401").

Exit status: 0 computed/verified, 1 usage or parse error, 2 counterexample
or solver failure. All sampling is driven by --seed through the library's
64-bit linear congruential generator, so identical invocations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import engine
from . import functions as fn
from .conjugation import conjugate_argmax
from .determination import ProxOracle, ReconstructionTask, reconstruct
from .errors import ProxcalcError, SpecParseError
from .grids import SampleGrid, tabulate
from .reports import COUNTEREXAMPLE, fmt_float, fmt_point, render_reports
from .specfmt import load_document
from .verify import check_comparison, battery_samples, standard_battery


def parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")])
    except ValueError:
        raise SpecParseError(f"bad point '{text}': expected comma-separated decimals")


def parse_grid(text: str) -> SampleGrid:
    lo, hi, counts = [], [], []
    for axis in text.split(";"):
        parts = axis.split(":")
        if len(parts) != 3:
            raise SpecParseError(f"bad grid axis '{axis}': expected lo:hi:count")
        try:
            lo.append(float(parts[0]))
            hi.append(float(parts[1]))
            counts.append(int(parts[2]))
        except ValueError:
            raise SpecParseError(f"bad grid axis '{axis}': non-numeric field")
    return SampleGrid(lo, hi, counts)


def _read_points_csv(path: str) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append([float(p) for p in line.split(",")])
    return np.array(rows)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="proxcalc", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prox", help="evaluate prox_{lambda f}(x)")
    p.add_argument("--f", required=True, help="function-spec document")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--x", required=True, help="query point, comma-separated")
    p.add_argument("--numerical", action="store_true",
                   help="force the iterative solver instead of closed forms")

    p = sub.add_parser("envelope", help="evaluate the Moreau envelope f_lambda(x)")
    p.add_argument("--f", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--x", required=True)

    p = sub.add_parser("conjugate", help="evaluate the Fenchel conjugate f*(x)")
    p.add_argument("--f", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--grid", help="force grid conjugation on this lattice")

    p = sub.add_parser("reconstruct", help="rebuild f from a prox oracle")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--f", help="in-process oracle: prox of this function")
    src.add_argument("--oracle-table", help="CSV of input,output point pairs")
    p.add_argument("--anchor", required=True, help="anchor point x0 (in dom f)")
    p.add_argument("--f-at-anchor", type=float, default=None)
    p.add_argument("--grid", required=True, help="box the maximizers are sought in")
    p.add_argument("--queries", required=True, help="CSV of query points")
    p.add_argument("--out", default=None)

    p = sub.add_parser("compare", help="comparison principle for a pair")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--anchor", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--radius", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", choices=["csv", "structured-text"],
                   default="structured-text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify-all", help="full check battery for a pair")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--anchor", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--radius", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ell", type=float, default=None,
                   help="also run the Lipschitz and norm-lower-bound checks")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="conclusion tolerance for the comparison checks")
    p.add_argument("--format", choices=["csv", "structured-text"],
                   default="structured-text")
    p.add_argument("--out", default=None)
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "prox":
        f = load_document(args.f)
        x = parse_point(args.x)
        res = engine.prox(f, args.lam, x, force_numerical=args.numerical)
        _emit(fmt_point(res.minimizer) + "\n", None)
        return 0 if res.converged else 2

    if args.command == "envelope":
        f = load_document(args.f)
        val = engine.moreau_envelope(f, args.lam, parse_point(args.x))
        _emit(fmt_float(val) + "\n", None)
        return 0

    if args.command == "conjugate":
        f = load_document(args.f)
        x = parse_point(args.x)
        if args.grid:
            table = tabulate(f, parse_grid(args.grid))
            val, _, on_boundary = conjugate_argmax(table, x)
            if on_boundary:
                print("warning: conjugate argmax on the grid boundary; "
                      "the value is truncated, enlarge the grid", file=sys.stderr)
        else:
            val = fn.evaluate(fn.conjugate_closed_form(f), x)
        _emit(fmt_float(val) + "\n", None)
        return 0

    if args.command == "reconstruct":
        if args.f:
            oracle = ProxOracle.from_function(load_document(args.f))
        else:
            pairs = _read_points_csv(args.oracle_table)
            dim = pairs.shape[1] // 2
            oracle = ProxOracle.from_table(pairs[:, :dim], pairs[:, dim:])
        report = reconstruct(ReconstructionTask(
            oracle=oracle,
            x0=parse_point(args.anchor),
            tilde_grid=parse_grid(args.grid),
            query_points=_read_points_csv(args.queries),
            f_at_x0=args.f_at_anchor,
        ))
        lines = [f"# convention={report.convention}",
                 f"# pinned_constant={fmt_float(report.pinned_constant)}",
                 f"# monotonicity_residual={fmt_float(report.monotonicity_residual)}",
                 f"# gradient_symmetry_residual={fmt_float(report.gradient_symmetry_residual)}",
                 f"# certificate={fmt_float(report.details['certificate'])}",
                 f"# boundary_argmax_warnings={report.boundary_argmax_warnings}",
                 f"# pin_min_on_boundary={report.pin_min_on_boundary}"]
        for q, v in report.recovered:
            coords = ",".join(fmt_float(c) for c in q)
            lines.append(f"{coords},{fmt_float(v)}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    if args.command == "compare":
        f = load_document(args.f)
        g = load_document(args.g)
        anchor = parse_point(args.anchor)
        extra = fn.structured_probes(f) + fn.structured_probes(g) + [anchor]
        X = battery_samples(f.dim, args.seed, args.samples, args.radius, extra)
        rep = check_comparison(f, g, anchor, X, tol_c=args.tol)
        _emit(render_reports([rep], args.format), args.out)
        return 2 if rep.status == COUNTEREXAMPLE else 0

    if args.command == "verify-all":
        f = load_document(args.f)
        g = load_document(args.g)
        reports = standard_battery(f, g, parse_point(args.anchor), args.seed,
                                   count=args.samples, radius=args.radius,
                                   ell=args.ell, tol_conclusion=args.tol)
        _emit(render_reports(reports, args.format), args.out)
        return 2 if any(r.status == COUNTEREXAMPLE for r in reports) else 0

    raise AssertionError("unreachable")


def main(argv=None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return 0 if exc.code == 0 else 1
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProxcalcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
