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
import functools
import sys

import numpy as np

from . import engine
from . import functions as fn
from .conjugation import conjugate_argmax
from .determination import ProxOracle, ReconstructionTask, reconstruct
from .errors import ProxcalcError, SpecParseError
from .grids import SampleGrid, read_csv_rows, tabulate
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


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused by every
    in-process ``main`` call. The module docstring is its --help description."""
    ap = argparse.ArgumentParser(prog="proxcalc", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--f", required=True, help="function-spec document")
    point.add_argument("--x", required=True, help="query point, comma-separated")
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument("--lambda", dest="lam", type=float, default=1.0)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--f", required=True)
    pair.add_argument("--g", required=True)
    pair.add_argument("--anchor", required=True)
    pair.add_argument("--samples", type=int, default=200)
    pair.add_argument("--radius", type=float, default=6.0)
    pair.add_argument("--seed", type=int, default=0)
    pair.add_argument("--tol", type=float, default=1e-6,
                      help="conclusion tolerance for the comparison checks")
    pair.add_argument("--format", choices=["csv", "structured-text"],
                      default="structured-text")
    pair.add_argument("--out", default=None)

    p = sub.add_parser("prox", parents=[point, lam], help="evaluate prox_{lambda f}(x)")
    p.add_argument("--numerical", action="store_true",
                   help="force the iterative solver instead of closed forms")
    sub.add_parser("envelope", parents=[point, lam],
                   help="evaluate the Moreau envelope f_lambda(x)")
    p = sub.add_parser("conjugate", parents=[point], help="evaluate the Fenchel conjugate f*(x)")
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

    sub.add_parser("compare", parents=[pair], help="comparison principle for a pair")
    p = sub.add_parser("verify-all", parents=[pair], help="full check battery for a pair")
    p.add_argument("--ell", type=float, default=None,
                   help="also run the Lipschitz and norm-lower-bound checks")
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    f = load_document(args.f) if args.f is not None else None
    if args.command == "prox":
        x = parse_point(args.x)
        res = engine.prox(f, args.lam, x, force_numerical=args.numerical)
        _emit(fmt_point(res.minimizer) + "\n", None)
        return 0 if res.converged else 2

    if args.command == "envelope":
        val = engine.moreau_envelope(f, args.lam, parse_point(args.x))
        _emit(fmt_float(val) + "\n", None)
        return 0

    if args.command == "conjugate":
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
        if f is not None:
            oracle = ProxOracle.from_function(f)
        else:
            pairs = read_csv_rows(args.oracle_table)
            dim, odd = divmod(pairs.shape[1], 2)
            if odd:
                raise SpecParseError(f"{args.oracle_table}: an oracle table row is input "
                                     f"then output coordinates, got {pairs.shape[1]} columns")
            oracle = ProxOracle.from_table(pairs[:, :dim], pairs[:, dim:])
        report = reconstruct(ReconstructionTask(
            oracle=oracle,
            x0=parse_point(args.anchor),
            tilde_grid=parse_grid(args.grid),
            query_points=read_csv_rows(args.queries),
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
        g = load_document(args.g)
        anchor = fn.as_point(parse_point(args.anchor), f.dim)
        extra = fn.structured_probes(f) + fn.structured_probes(g) + [anchor]
        X = battery_samples(f.dim, args.seed, args.samples, args.radius, extra)
        rep = check_comparison(f, g, anchor, X, tol_c=args.tol)
        _emit(render_reports([rep], args.format), args.out)
        return 2 if rep.status == COUNTEREXAMPLE else 0

    if args.command == "verify-all":
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
