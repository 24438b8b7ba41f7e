"""Golden report fixtures: CLI output and reports pinned byte for byte.

Each case runs one CLI command (or renders one report) and compares exit
status, stdout and stderr with the recorded file under ``tests/golden/``.
A change that alters any report byte, verdict or sample stream fails here.
Every product behind a report sums coordinates left to right in plain
numpy, so the bytes do not depend on the BLAS build: on x86-64 with a
DYNAMIC_ARCH OpenBLAS the CLI cases are rerun under other kernel families
(``OPENBLAS_CORETYPE``). Only ``conjugate --grid`` scores its lattice with
a BLAS product. When a change of bytes is deliberate, re-record with

    PYTHONPATH=src python tests/test_golden.py --record

which prints, per fixture, the exit and check/status lines that moved and
how many lines moved under each key (``detail.certificate: 2``); say in
the change log which bytes moved and why.
"""

import contextlib
import difflib
import io
import json
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import proxcalc as pc
from proxcalc.cli import main
from proxcalc.determination import determine_from_norm
from proxcalc.reports import render_reports
from proxcalc.verify import (
    battery_samples,
    check_comparison,
    check_gradient_comparison,
    check_norm_lower_bound,
    check_support_distance,
)

GOLDEN = Path(__file__).parent / "golden"


def _spec(name):
    return str(GOLDEN / name)


CLI_CASES = {
    "verify_env_norm_vs_half_sq_ell1": [
        "verify-all", "--f", _spec("env_norm.json"), "--g", _spec("half_sq.json"),
        "--anchor", "0,0", "--ell", "1"],
    "verify_env_norm_vs_unit_ball_seed3": [
        "verify-all", "--f", _spec("env_norm.json"), "--g", _spec("unit_ball.json"),
        "--anchor", "0,0", "--seed", "3"],
    "conjugate_grid_env_norm_two_row_blocks": [
        "conjugate", "--f", _spec("env_norm.json"), "--x", "0.5,-0.75",
        "--grid=-4:4:501;-4:4:501"],
    "conjugate_grid_half_sq_boundary": [
        "conjugate", "--f", _spec("half_sq.json"), "--x", "10,0.5",
        "--grid=-3:3:61;-3:3:61"],
    "verify_off_center_ball_preconditions": [
        "verify-all", "--f", _spec("off_center_ball.json"),
        "--g", _spec("off_center_ball.json"), "--anchor", "0,0", "--ell", "1"],
    "verify_halfspace_vs_norm_4d": [
        "verify-all", "--f", _spec("halfspace_4d.json"), "--g", _spec("norm_4d.json"),
        "--anchor", "0,0,0,0", "--samples", "60", "--ell", "1"],
    "verify_env_norm_vs_norm_1d": [
        "verify-all", "--f", _spec("env_norm_1d.json"), "--g", _spec("norm_1d.json"),
        "--anchor", "0", "--ell", "1"],
    "verify_env_norm_vs_half_sq_3d_seed7": [
        "verify-all", "--f", _spec("env_norm_3d.json"), "--g", _spec("half_sq_3d.json"),
        "--anchor", "0,0,0", "--seed", "7", "--ell", "1"],
    "verify_cross_quadratic_vs_tilted_norm": [
        "verify-all", "--f", _spec("cross_quadratic.json"), "--g", _spec("tilted_norm.json"),
        "--anchor", "0,0", "--ell", "1"],
    "verify_quadratic_vs_norm_4d": [
        "verify-all", "--f", _spec("quadratic_4d.json"), "--g", _spec("norm_4d.json"),
        "--anchor", "0,0,0,0", "--samples", "60", "--ell", "1"],
    "verify_norm_vs_norm_16d": [
        "verify-all", "--f", _spec("norm_16d.json"), "--g", _spec("norm_16d.json"),
        "--anchor", ",".join(["0"] * 16)],
    "reconstruct_tilted_norm_2d": [
        "reconstruct", "--f", _spec("tilted_norm.json"), "--anchor", "0,0",
        "--grid=-3:3:61;-3:3:61", "--queries", _spec("queries.csv")],
}


class _DoubledNorm(pc.ScaledNorm):
    """Prox of the norm, values of twice the norm: not a consistent pair."""

    def value_many(self, X):
        return 2.0 * super().value_many(X)


class _ShrunkBall(pc.IndicatorBall):
    """Projection onto the ball, values of the ball of half the radius."""

    def value_many(self, X):
        return pc.IndicatorBall(self.center, 0.5 * self.radius).value_many(X)


def _rendered(reports):
    text = render_reports(reports, "structured-text") + render_reports(reports, "csv")
    return 0, text, ""


def _comparison_counterexample():
    norm = pc.ScaledNorm(1.0, [0.0, 0.0])
    rep = check_comparison(norm, _DoubledNorm(1.0, [0.0, 0.0]), [0.0, 0.0],
                           battery_samples(2, 17, 150, 6.0))
    return _rendered([rep])


def _inconsistent_pair_reports():
    """Every checker's verdict branch on pairs whose prox and values disagree."""
    X = battery_samples(2, 17, 150, 6.0)
    origin = [0.0, 0.0]
    norm, doubled = pc.ScaledNorm(1.0, origin), _DoubledNorm(1.0, origin)
    ball, shrunk = pc.IndicatorBall(origin, 1.0), _ShrunkBall(origin, 1.0)
    return _rendered([
        check_comparison(ball, shrunk, origin, X),
        determine_from_norm(norm, doubled, X, x0=origin),
        determine_from_norm(ball, shrunk, X, x0=origin),
        determine_from_norm(norm, doubled, X),
        check_gradient_comparison(pc.Envelope(doubled, 1.0), pc.Envelope(norm, 1.0), X),
        check_norm_lower_bound(doubled, 1.0, X),
        check_support_distance(doubled, ball, X),
    ])


def _run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _serialize(code, out, err):
    return f"exit: {code}\n--- stdout\n{out}--- stderr\n{err}"


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name, capsys):
    got = _serialize(*_run_cli(CLI_CASES[name], capsys))
    assert got == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


REPORT_CASES = {
    "comparison_norm_vs_doubled_norm": _comparison_counterexample,
    "reports_inconsistent_pairs": _inconsistent_pair_reports,
}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_report_matches_golden(name):
    got = _serialize(*REPORT_CASES[name]())
    assert got == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def _dynamic_openblas() -> bool:
    """True on x86-64 when numpy's OpenBLAS picks its kernels at run time."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS on x86-64")
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott", "Sandybridge"])
def test_cli_goldens_under_every_openblas_kernel_family(coretype, cli_env):
    r = subprocess.run([sys.executable, __file__, "--print-cli"],
                       env=dict(cli_env, OPENBLAS_CORETYPE=coretype),
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout)
    for name in sorted(CLI_CASES):
        assert got[name] == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), name


def _verdicts(text):
    """The exit line and one "check: ... status: ..." line per report."""
    out = []
    for line in text.splitlines():
        if line.startswith(("exit:", "check:")):
            out.append(line)
        elif line.startswith("status:") and out:
            out[-1] += "  " + line
    return out


def _moved_keys(old, new):
    """{key: count} of the lines that moved, keyed by the text before ": "
    (the whole line where there is none); a changed line counts once."""
    removed, added = Counter(), Counter()
    for line in difflib.ndiff(old.splitlines(), new.splitlines()):
        if line[:2] in ("- ", "+ "):
            key = line[2:].partition(": ")[0]
            (removed if line[0] == "-" else added)[key] += 1
    return {key: max(removed[key], added[key]) for key in sorted(removed | added)}


def _write(name, text):
    """Record one fixture and print the verdict lines it changed and how
    many lines moved under each key."""
    path = GOLDEN / f"{name}.txt"
    old = path.read_text(encoding="utf-8") if path.exists() else ""
    path.write_text(text, encoding="utf-8")
    moved = [line for line in difflib.ndiff(_verdicts(old), _verdicts(text))
             if line[:2] in ("- ", "+ ")]
    moved += [f"{key}: {count}" for key, count in _moved_keys(old, text).items()]
    if moved:
        print(f"{name}:", *moved, sep="\n  ")


def _cli_outputs():
    """{case: serialized output} for every CLI case, run in this process."""
    outputs = {}
    for name, argv in sorted(CLI_CASES.items()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        outputs[name] = _serialize(code, out.getvalue(), err.getvalue())
    return outputs


def _record():
    for name, text in _cli_outputs().items():
        _write(name, text)
    for name, build in sorted(REPORT_CASES.items()):
        _write(name, _serialize(*build()))


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        _record()
    elif sys.argv[1:] == ["--print-cli"]:
        print(json.dumps(_cli_outputs()))
    else:
        sys.exit("usage: python tests/test_golden.py --record | --print-cli")
