"""Check reports and their deterministic serializations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

VERIFIED = "verified"
HYPOTHESIS_FAILS = "hypothesis_fails"
COUNTEREXAMPLE = "counterexample"
PRECONDITION_VIOLATED = "precondition_violated"

CSV_HEADER = "check_name,status,hypothesis_residual,conclusion_residual,witness_coords,tolerance"


@dataclass
class CheckReport:
    """Outcome of one empirical check.

    hypothesis_residual and conclusion_residual are maxima over the declared
    sample set; tolerance is the governing conclusion tolerance. Witnesses
    are (point, detail) pairs for violated inequalities.
    """

    name: str
    status: str
    hypothesis_residual: float
    conclusion_residual: float
    tolerance: float
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def __repr__(self):
        return f"[{self.status}] {self.name}"


def sampled_verdict(name, X, hyp, tol_h, gaps, tol, note, details,
                    first=None) -> CheckReport:
    """The report of a sampled implication: hypothesis residual hyp, and one
    conclusion gap per sample row of X (NaN gaps skipped).

    hypothesis_fails when hyp > tol_h, else verified when the largest gap is
    within tol and counterexample otherwise. Only a counterexample carries
    witnesses, each (X[i], note(i)): the first ``first`` samples whose gap
    exceeds tol, or without ``first`` the first sample attaining the
    largest gap.
    """
    worst = float(np.fmax.reduce(gaps, initial=0.0))
    witnesses = []
    if hyp > tol_h:
        status = HYPOTHESIS_FAILS
    elif worst <= tol:
        status = VERIFIED
    else:
        status = COUNTEREXAMPLE
        idx = (np.flatnonzero(gaps > tol)[:first] if first is not None
               else np.flatnonzero(gaps == worst)[:1])
        witnesses = [(X[i], note(i)) for i in idx]
    return CheckReport(name, status, hyp, worst, tol, witnesses, details)


def fmt_float(v) -> str:
    v = float(v)
    if v == math.inf:
        return "+inf"
    if v == -math.inf:
        return "-inf"
    return repr(v)


def fmt_point(p) -> str:
    return "(" + " ".join(fmt_float(c) for c in np.atleast_1d(p)) + ")"


def report_to_text(report: CheckReport) -> str:
    lines = [
        f"check: {report.name}",
        f"status: {report.status}",
        f"hypothesis_residual: {fmt_float(report.hypothesis_residual)}",
        f"conclusion_residual: {fmt_float(report.conclusion_residual)}",
        f"tolerance: {fmt_float(report.tolerance)}",
    ]
    for key in sorted(report.details):
        lines.append(f"detail.{key}: {_fmt_detail(report.details[key])}")
    for point, note in report.witnesses:
        lines.append(f"witness: {fmt_point(point)} {note}")
    return "\n".join(lines) + "\n"


def _fmt_detail(v) -> str:
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, np.ndarray):
        return fmt_point(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt_detail(x) for x in v) + "]"
    return str(v)


def _csv_field(text: str) -> str:
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def report_to_csv_row(report: CheckReport) -> str:
    coords = ";".join(fmt_point(p) for p, _ in report.witnesses)
    return ",".join(
        [
            _csv_field(report.name),
            report.status,
            fmt_float(report.hypothesis_residual),
            fmt_float(report.conclusion_residual),
            f'"{coords}"',
            fmt_float(report.tolerance),
        ]
    )


def write_reports(reports, path: str, fmt: str = "structured-text") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_reports(reports, fmt))


def render_reports(reports, fmt: str = "structured-text") -> str:
    if fmt == "csv":
        rows = [CSV_HEADER] + [report_to_csv_row(r) for r in reports]
        return "\n".join(rows) + "\n"
    if fmt == "structured-text":
        return "\n".join(report_to_text(r) for r in reports)
    raise ValueError(f"unknown report format '{fmt}'")
