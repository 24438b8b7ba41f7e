"""Command-line interface: commands, formats, exit codes, determinism."""

import json
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import proxcalc as pc
from proxcalc.cli import build_parser, main, parse_grid, parse_point
from proxcalc.errors import SpecParseError
from proxcalc.reports import fmt_float


def write_spec(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def norm_spec(tmp_path):
    return write_spec(tmp_path, "norm.json",
                      {"atom": "scaled_norm", "ell": 1.0, "center": [0.0, 0.0]})


@pytest.fixture
def sq_spec(tmp_path):
    return write_spec(tmp_path, "sq.json",
                      {"atom": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]]})


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_prox_command(norm_spec, capsys):
    code, out, _ = run_cli(["prox", "--f", norm_spec, "--lambda", "1", "--x", "3,4"], capsys)
    assert code == 0
    vals = [float(v) for v in out.strip().strip("()").split()]
    assert np.allclose(vals, [2.4, 3.2])


def test_prox_numerical_flag(norm_spec, capsys):
    code, out, _ = run_cli(
        ["prox", "--f", norm_spec, "--lambda", "1", "--x", "3,4", "--numerical"],
        capsys)
    assert code == 0
    vals = [float(v) for v in out.strip().strip("()").split()]
    assert np.allclose(vals, [2.4, 3.2], atol=1e-6)


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize("command, extra", [("prox", []), ("prox", ["--numerical"]),
                                            ("envelope", [])])
def test_non_finite_lambda_is_a_usage_error(norm_spec, capsys, lam, command, extra):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            [command, "--f", norm_spec, f"--lambda={lam}", "--x", "3,4", *extra], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: lam must be finite and > 0\n"


@pytest.mark.parametrize("lam", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_envelope_index_in_spec_is_a_usage_error(tmp_path, capsys, lam):
    spec = tmp_path / "env.json"
    spec.write_text('{"op": "envelope", "lambda": %s, "f": {"atom": "scaled_norm", '
                    '"ell": 1.0, "center": [0.0, 0.0]}}' % lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["envelope", "--f", str(spec), "--x", "3,4"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: envelope index must be finite and > 0\n"


def test_envelope_command(sq_spec, capsys):
    code, out, _ = run_cli(["envelope", "--f", sq_spec, "--lambda", "1", "--x", "2,0"], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0)


def test_conjugate_closed_form_command(norm_spec, capsys):
    code, out, _ = run_cli(["conjugate", "--f", norm_spec, "--x", "0.5,0"], capsys)
    assert code == 0
    assert float(out.strip()) == 0.0


def test_conjugate_grid_command(tmp_path, capsys):
    spec = write_spec(tmp_path, "halfspace.json",
                      {"atom": "indicator_halfspace", "a": [1.0], "beta": 0.0})
    code, out, _ = run_cli(
        ["conjugate", "--f", spec, "--x", "1.0", "--grid=-20:20:4001"], capsys)
    assert code == 0
    # support of {x <= 0} at q=1 is 0
    assert float(out.strip()) == pytest.approx(0.0, abs=1e-9)


def test_conjugate_of_halfspace_is_beta_t_on_the_ray(tmp_path, capsys):
    spec = write_spec(tmp_path, "halfspace.json",
                      {"atom": "indicator_halfspace", "a": [1.0, 0.0], "beta": 2.0})
    for x, want in (("3,0", "6.0"), ("0,0", "0.0"), ("3,0.5", "+inf"), ("-1,0", "+inf")):
        code, out, err = run_cli(["conjugate", "--f", spec, f"--x={x}"], capsys)
        assert (code, out, err) == (0, want + "\n", "")


def test_prox_numerical_at_large_lambda_converges(norm_spec, capsys):
    # the stop used to need residual * lam <= 1e-5, out of reach at a kink
    code, out, _ = run_cli(["prox", "--f", norm_spec, "--numerical", "--lambda", "1e6",
                            "--x", "3,-2"], capsys)
    vals = [float(v) for v in out.strip().strip("()").split()]
    assert np.linalg.norm(vals) <= 2.1e-9
    assert code == 0


@pytest.mark.parametrize("lam", ["1e150", "1e200", "1e300"])
def test_prox_numerical_at_a_huge_lambda_converges(tmp_path, cli_env, lam):
    # 1e200 ended in an OverflowError traceback, 1e150 and 1e300 made numpy warn
    spec = write_spec(tmp_path, "q.json", {"atom": "quadratic", "Q": [[2.0, 0.4], [0.4, 1.0]],
                                           "b": [0.3, -0.1], "c": 0.5})
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "proxcalc.cli",
                          "prox", "--f", spec, "--numerical", "--lambda", lam, "--x", "3,4"],
                         capture_output=True, text=True, env=cli_env, timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    vals = [float(v) for v in out.stdout.strip().strip("()").split()]
    assert np.allclose(vals, np.linalg.solve([[2.0, 0.4], [0.4, 1.0]], [-0.3, 0.1]),
                       rtol=0.0, atol=1e-4)


_QUADRATIC_2D = {"atom": "quadratic", "Q": [[2.0, 0.4], [0.4, 1.0]], "b": [0.3, -0.1],
                 "c": 0.5}


@pytest.mark.parametrize("lam", ["1e308", "1.7e308"])
@pytest.mark.parametrize("doc, numerical, expected, atol", [
    (_QUADRATIC_2D, True, np.linalg.solve(_QUADRATIC_2D["Q"], [-0.3, 0.1]), 1e-7),
    (_QUADRATIC_2D, False, np.linalg.solve(_QUADRATIC_2D["Q"], [-0.3, 0.1]), 1e-15),
    ({"atom": "scaled_norm", "ell": 2.0, "center": [0.0, 0.0]}, False, [0.0, 0.0], 0.0),
], ids=["quadratic_numerical", "quadratic_closed_form", "doubled_norm"])
def test_prox_at_a_lambda_near_the_float_maximum(tmp_path, capsys, lam, doc, numerical,
                                                  expected, atol):
    # lam p overflowed in the solver (exit 2), 1 + lam w in the quadratic's closed
    # form (a wrong point) and inf / inf in the norm's soft threshold (exit 1);
    # the suite turns the RuntimeWarnings on the way into errors
    spec = write_spec(tmp_path, "f.json", doc)
    argv = ["prox", "--f", spec, "--lambda", lam, "--x", "3,4"] + ["--numerical"] * numerical
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    got = [float(v) for v in out.strip().strip("()").split()]
    assert np.allclose(got, expected, rtol=0.0, atol=atol)


def test_far_finite_points_have_finite_envelopes_and_prox(tmp_path, capsys):
    # squares of coordinates past 1.34e154 overflowed in the norm: the envelope
    # read +inf, and the prox of the tilted norm kept the far point
    norm = write_spec(tmp_path, "norm.json",
                      {"atom": "scaled_norm", "ell": 1.0, "center": [0.0, 0.0]})
    tilt = write_spec(tmp_path, "tilt.json", {"op": "tilt", "a": [0.3, 0.2], "f": {
        "atom": "scaled_norm", "ell": 1.0, "center": [0.0, 0.0]}})
    for argv, expected in [
        (["envelope", "--f", norm, "--x", "1e155,0", "--lambda", "1"], "1e+155\n"),
        (["prox", "--f", tilt, "--x", "3,4", "--lambda", "1e300"], "(0.0 0.0)\n"),
    ]:
        assert run_cli(argv, capsys) == (0, expected, "")


def test_prox_numerical_far_from_the_origin_converges(norm_spec, capsys):
    # the right point, once reported unconverged with exit 2: its float
    # spacing passed 1e-5, so the floor test ||s|| min(lam, 1) <= 1e-5 could
    # not hold
    code, out, err = run_cli(["prox", "--f", norm_spec, "--numerical", "--lambda", "1",
                              "--x", "3e12,-4e12"], capsys)
    assert (code, err) == (0, "")
    got = np.array([float(v) for v in out.strip().strip("()").split()])
    assert np.allclose(got, [3e12 - 0.6, -4e12 + 0.8], rtol=1e-15, atol=0.0)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(["prox", "--f", str(bad), "--x", "1,2"], capsys)
    assert code == 1
    assert "error" in err


def test_unknown_key_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, "u.json", {"atom": "scaled_norm", "ell": 1.0,
                                           "center": [0.0], "extra": 2})
    code, _, err = run_cli(["prox", "--f", spec, "--x", "1"], capsys)
    assert code == 1
    assert "unknown keys" in err


def test_dimension_mismatch_reported(norm_spec, capsys):
    code, _, err = run_cli(["prox", "--f", norm_spec, "--x", "1,2,3"], capsys)
    assert code in (1, 2)
    assert "dimension" in err.lower()


def test_point_and_grid_parsing():
    assert np.allclose(parse_point("1.5,-2"), [1.5, -2.0])
    g = parse_grid("-4:4:41;-2:2:21")
    assert g.dim == 2
    assert g.counts.tolist() == [41, 21]
    with pytest.raises(SpecParseError):
        parse_point("1,x")
    with pytest.raises(SpecParseError):
        parse_grid("-4:4")


def test_compare_command(tmp_path, norm_spec, capsys):
    two = write_spec(tmp_path, "n2.json",
                     {"atom": "scaled_norm", "ell": 2.0, "center": [0.0, 0.0]})
    code, out, _ = run_cli(
        ["compare", "--f", two, "--g", norm_spec, "--anchor", "0,0", "--seed", "5"],
        capsys)
    assert code == 0
    assert "status: verified" in out


def test_reconstruct_command_with_oracle_table(tmp_path, capsys):
    f = pc.ScaledNorm(1.0, [0.0])
    xs = np.linspace(-12, 12, 4001).reshape(-1, 1)
    ys = f.prox_many(1.0, xs)
    table_path = tmp_path / "prox_samples.csv"
    with open(table_path, "w") as h:
        for a, b in zip(xs, ys):
            h.write(f"{float(a[0])!r},{float(b[0])!r}\n")
    queries_path = tmp_path / "q.csv"
    queries_path.write_text("-1.0\n0.0\n2.0\n")
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli([
        "reconstruct", "--oracle-table", str(table_path), "--anchor", "0",
        "--f-at-anchor", "0.0", "--grid=-10:10:2001",
        "--queries", str(queries_path), "--out", str(out_path),
    ], capsys)
    assert code == 0
    lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    got = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines}
    for q, expected in ((-1.0, 1.0), (0.0, 0.0), (2.0, 2.0)):
        assert got[q] == pytest.approx(expected, abs=2e-3)


def test_reconstruct_quadrature_steps_is_a_usage_error(tmp_path, norm_spec, capsys):
    queries_path = tmp_path / "q.csv"
    queries_path.write_text("1.0,0.5\n")
    argv = ["reconstruct", "--f", norm_spec, "--anchor", "0,0", "--f-at-anchor", "0",
            "--grid=-4:4:41;-4:4:41", "--queries", str(queries_path)]
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    code, out, err = run_cli(argv + ["--quadrature-steps", "64"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: proxcalc")
    assert "unrecognized arguments: --quadrature-steps 64" in err


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    for argv in (["verify-all", "--bogus"], ["no-such-command"], []):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage: proxcalc") and "error:" in err
    code, out, err = run_cli(["verify-all", "--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: proxcalc verify-all")


def test_parser_is_built_once_and_survives_a_usage_error(sq_spec, norm_spec, capsys):
    argv = ["verify-all", "--f", sq_spec, "--g", norm_spec, "--anchor", "0,0",
            "--seed", "3", "--samples", "30", "--ell", "1.0"]
    build_parser.cache_clear()
    alone = run_cli(argv, capsys)
    assert build_parser() is build_parser()
    code, out, err = run_cli(["verify-all", "--f", sq_spec, "--bogus"], capsys)
    assert (code, out) == (1, "") and err.startswith("usage: proxcalc")
    assert run_cli(argv, capsys) == alone
    assert alone[0] == 2 and "check: lipschitz(ell=1.0)" in alone[1]


@pytest.mark.parametrize("value, text", [
    (float("inf"), "+inf"), (float("-inf"), "-inf"), (float("nan"), "nan"),
    (-0.0, "-0.0"), (5e-324, "5e-324"), (np.float32(0.1), "0.10000000149011612"),
    (np.float64(1 / 3), "0.3333333333333333"), (np.float64(-np.inf), "-inf"),
])
def test_fmt_float_strings(value, text):
    assert fmt_float(value) == text


def test_reconstruct_expansive_oracle_table_exits_2(tmp_path, capsys):
    # x -> 2x is monotone but not firmly nonexpansive: the prox of no convex f
    table_path = tmp_path / "prox_samples.csv"
    table_path.write_text("".join(f"{x!r},{2.0 * x!r}\n"
                                  for x in np.linspace(-10.0, 10.0, 201).tolist()))
    queries_path = tmp_path / "q.csv"
    queries_path.write_text("1.0\n")
    code, out, err = run_cli([
        "reconstruct", "--oracle-table", str(table_path), "--anchor", "0",
        "--grid=-4:4:81", "--queries", str(queries_path),
    ], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: NonConservativeField: field is not firmly nonexpansive")


@pytest.mark.parametrize("doc, message", [
    ('{"atom": "scaled_norm", "ell": NaN, "center": [0.0, 0.0]}',
     "ell must be finite and >= 0"),
    ('{"atom": "indicator_ball", "center": [0.0, 0.0], "radius": Infinity}',
     "radius must be finite and > 0"),
    ('{"atom": "quadratic", "Q": [[1.0, 0.0], [0.0, NaN]]}', "Q entries must be finite"),
    ('{"op": "add_const", "c": -Infinity, '
     '"f": {"atom": "affine", "a": [1.0, 0.0]}}', "c must be finite"),
])
def test_non_finite_document_scalar_is_a_usage_error(tmp_path, capsys, doc, message):
    spec = tmp_path / "f.json"
    spec.write_text(doc)
    code, out, err = run_cli(["envelope", "--f", str(spec), "--x", "3,4"], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_reconstruct_nan_query_is_a_usage_error(tmp_path, norm_spec, capsys):
    queries_path = tmp_path / "q.csv"
    queries_path.write_text("1.0,0.5\nnan,0.2\n")
    code, out, err = run_cli([
        "reconstruct", "--f", norm_spec, "--anchor", "0,0", "--f-at-anchor", "0",
        "--grid=-4:4:81;-4:4:81", "--queries", str(queries_path),
    ], capsys)
    assert (code, out, err) == (1, "", "error: query coordinates must be finite\n")


def test_reconstruct_nan_oracle_table_exits_2(tmp_path, capsys):
    table_path = tmp_path / "prox_samples.csv"
    table_path.write_text("".join(f"{float(x)!r},nan\n" for x in np.linspace(-5.0, 5.0, 11)))
    queries_path = tmp_path / "q.csv"
    queries_path.write_text("1.0\n")
    code, _, err = run_cli([
        "reconstruct", "--oracle-table", str(table_path), "--anchor", "0",
        "--grid=-4:4:81", "--queries", str(queries_path),
    ], capsys)
    assert code == 2
    assert "OracleError" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_reconstruct_non_finite_f_at_anchor_is_a_usage_error(tmp_path, norm_spec, capsys,
                                                             value):
    queries_path = tmp_path / "q.csv"
    queries_path.write_text("1.0,0.5\n")
    code, out, err = run_cli([
        "reconstruct", "--f", norm_spec, "--anchor", "0,0", f"--f-at-anchor={value}",
        "--grid=-4:4:81;-4:4:81", "--queries", str(queries_path),
    ], capsys)
    assert (code, out, err) == (1, "", "error: f_at_x0 must be finite\n")


@pytest.mark.parametrize("dim, table, message", [
    (1, "0,0\nnan,1\n1,0.5\n2,1\n", "inputs must be finite"),
    (2, "0,0,0,0\n1,1,0.5,0.5\n2,2,1,1\n3,3,2,2\n", "inputs must span R^2"),
    (2, "0,0,0,0\n1,0,0.5,0\nnan,1,0,0.5\n0,1,0,0.5\n", "inputs must be finite"),
], ids=["nan_1d", "collinear_2d", "nan_2d"])
def test_reconstruct_bad_oracle_table_inputs_are_usage_errors(tmp_path, capsys, dim, table,
                                                              message):
    table_path = tmp_path / "prox_samples.csv"
    table_path.write_text(table)
    queries_path = tmp_path / "q.csv"
    queries_path.write_text(",".join(["0.5"] * dim) + "\n")
    code, out, err = run_cli([
        "reconstruct", "--oracle-table", str(table_path), "--anchor", ",".join(["0"] * dim),
        "--grid=" + ";".join(["-4:4:81"] * dim), "--queries", str(queries_path),
    ], capsys)
    assert (code, out, err) == (1, "", f"error: oracle table {message}\n")


@pytest.mark.parametrize("command, options", [
    ("prox", "--f --lambda --x --numerical"),
    ("envelope", "--f --lambda --x"),
    ("conjugate", "--f --x --grid"),
    ("reconstruct", "--f --oracle-table --anchor --f-at-anchor --grid --queries --out"),
    ("compare", "--f --g --anchor --samples --radius --seed --tol --format --out"),
    ("verify-all", "--f --g --anchor --samples --radius --seed --ell --tol --format --out"),
])
def test_every_command_lists_its_options(capsys, command, options):
    code, out, err = run_cli([command, "--help"], capsys)
    assert (code, err) == (0, "")
    listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", out, re.M)
    assert sorted(listed) == sorted(["--help"] + options.split())


@pytest.mark.parametrize("option, text, message", [
    ("--queries", "1.0,0.5\n0.5\n", "{path}:2: expected 2 fields, got 1\n"),
    ("--queries", "# header\n1.0,0.5\nabc,0.2\n",
     "{path}:3: could not convert string to float: 'abc'\n"),
    ("--queries", "\n# nothing\n", "no rows in {path}\n"),
    ("--oracle-table", "0.0,0.0,0.0\n1.0,0.5,0.5\n",
     "{path}: an oracle table row is input then output coordinates, got 3 columns\n"),
])
def test_reconstruct_csv_errors_name_the_file_and_line(tmp_path, norm_spec, capsys,
                                                       option, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    good = tmp_path / "q.csv"
    good.write_text("1.0,0.5\n")
    if option == "--queries":
        source, queries = ["--f", norm_spec], bad
    else:
        source, queries = ["--oracle-table", str(bad)], good
    code, out, err = run_cli(["reconstruct", *source, "--anchor", "0,0",
                              "--grid=-4:4:41;-4:4:41", "--queries", str(queries)], capsys)
    assert (code, out, err) == (1, "", "error: " + message.format(path=bad))


def test_reconstruct_16d_reads_only_the_box(tmp_path, capsys):
    # 3**16 lattice points exceed the cap, but reconstruct builds no lattice
    spec = write_spec(tmp_path, "n16.json",
                      {"atom": "scaled_norm", "ell": 1.0, "center": [0.0] * 16})
    queries_path = tmp_path / "q.csv"
    queries_path.write_text(",".join(["0.5"] * 16) + "\n")
    code, out, err = run_cli([
        "reconstruct", "--f", spec, "--anchor", ",".join(["0"] * 16), "--f-at-anchor", "0",
        "--grid=" + ";".join(["-2:2:3"] * 16), "--queries", str(queries_path),
    ], capsys)
    assert (code, err) == (0, "")
    assert float(out.splitlines()[-1].split(",")[-1]) == pytest.approx(2.0, abs=1e-6)


def test_conjugate_grid_past_the_cap_is_a_usage_error(norm_spec, capsys):
    code, out, err = run_cli(["conjugate", "--f", norm_spec, "--x", "0,0",
                              "--grid=-4:4:4294967296;-4:4:4294967296"], capsys)
    assert (code, out, err) == (1, "", "error: grid exceeds 1000000 points\n")


@pytest.mark.parametrize("command", ["conjugate", "reconstruct"])
def test_grid_count_past_int64_is_a_usage_error(tmp_path, norm_spec, capsys, command):
    grid = "--grid=-4:4:99999999999999999999;-4:4:3"
    if command == "conjugate":
        args = ["conjugate", "--f", norm_spec, "--x", "0,0", grid]
    else:
        queries = tmp_path / "q.csv"
        queries.write_text("0.5,0.5\n")
        args = ["reconstruct", "--f", norm_spec, "--anchor", "0,0", grid,
                "--queries", str(queries)]
    err = "error: grid counts must fit in a signed 64-bit integer\n"
    assert run_cli(args, capsys) == (1, "", err)


@pytest.mark.parametrize("command", ["compare", "verify-all"])
def test_anchor_of_the_wrong_dimension(norm_spec, capsys, command):
    code, out, err = run_cli([command, "--f", norm_spec, "--g", norm_spec,
                              "--anchor", "0,0,0"], capsys)
    assert (code, out, err) == (2, "", "error: DimensionMismatch: expected dimension 2, got 3\n")


def test_verify_all_csv_format(sq_spec, tmp_path, capsys):
    out_path = tmp_path / "reports.csv"
    code, _, _ = run_cli([
        "verify-all", "--f", sq_spec, "--g", sq_spec, "--anchor", "0,0",
        "--seed", "7", "--samples", "40", "--format", "csv",
        "--out", str(out_path),
    ], capsys)
    assert code == 0
    text = out_path.read_text()
    header = text.splitlines()[0]
    assert header == "check_name,status,hypothesis_residual,conclusion_residual,witness_coords,tolerance"
    assert '"comparison(f,g)",verified' in text
    # rows parse back into exactly six columns
    import csv as csvmod
    rows = list(csvmod.reader(text.splitlines()))
    assert all(len(r) == 6 for r in rows)


def test_verify_all_deterministic(sq_spec, tmp_path, cli_env):
    # two subprocess runs with the same seed give byte-identical files
    outs = []
    for name in ("a.txt", "b.txt"):
        out_path = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "proxcalc.cli", "verify-all",
             "--f", sq_spec, "--g", sq_spec, "--anchor", "0,0", "--seed", "7",
             "--samples", "40", "--out", str(out_path)],
            capture_output=True, env=cli_env,
        )
        assert r.returncode == 0, r.stderr.decode()
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def _statuses(out):
    names = [line[len("check: "):] for line in out.splitlines() if line.startswith("check: ")]
    states = [line[len("status: "):] for line in out.splitlines()
              if line.startswith("status: ")]
    return dict(zip(names, states))


@pytest.mark.parametrize("f, g, args", [
    ({"atom": "quadratic", "Q": np.eye(3).tolist()},
     {"atom": "quadratic", "Q": np.eye(3).tolist()}, ["--seed", "7"]),
    ({"atom": "scaled_norm", "ell": 1.0, "center": [0.0, 0.0]},
     {"atom": "scaled_norm", "ell": 2.0, "center": [0.0, 0.0]}, ["--ell", "1", "--seed", "4"]),
    ({"atom": "scaled_norm", "ell": 1.0, "center": [0.0, 0.0]},
     {"atom": "scaled_norm", "ell": 2.0, "center": [0.0, 0.0]}, ["--ell", "1", "--seed", "6"]),
], ids=["half_sq_3d_seed7", "norm_vs_2norm_seed4", "norm_vs_2norm_seed6"])
def test_verify_all_envelope_conjugate_refined_past_the_lattice(tmp_path, capsys, f, g, args):
    # the plain lattice maximum on 61^3 (spacing 0.5) fell short by 0.0307 on
    # the first pair, and on 301^2 by 2.2e-3 > 2e-3 on the other two
    dim = len(f.get("center", f.get("Q")))
    code, out, _ = run_cli(["verify-all", "--f", write_spec(tmp_path, "f.json", f),
                            "--g", write_spec(tmp_path, "g.json", g),
                            "--anchor", ",".join(["0"] * dim), *args], capsys)
    statuses = _statuses(out)
    assert statuses["envelope_conjugate(f)"] == "verified"
    assert statuses["envelope_conjugate(g)"] == "verified"
    assert code == 0


_ILL_CONDITIONED_Q = [[0.4781, -0.6842, 0.3947], [-0.6842, 1.0101, -0.5769],
                      [0.3947, -0.5769, 2.0218]]  # eigenvalues 0.01, 1 and 2.5


@pytest.mark.parametrize("seed", ["0", "1", "3"])
def test_verify_all_ill_conditioned_quadratic_has_no_false_counterexample(
        tmp_path, capsys, seed):
    # f_1 is nearly flat along the 0.01 eigenvector, so a climb from lam q can
    # stop far short of the sup while still inside the box; such a query was
    # compared both ways and gave a gap of 2.1-3.1 under a certificate of 8-10
    spec = write_spec(tmp_path, "q.json", {"atom": "quadratic", "Q": _ILL_CONDITIONED_Q})
    code, out, _ = run_cli(["verify-all", "--f", spec, "--g", spec,
                            "--anchor", "0,0,0", "--seed", seed], capsys)
    statuses = _statuses(out)
    assert statuses["envelope_conjugate(f)"] == statuses["envelope_conjugate(g)"] == "verified"
    assert code == 0


@pytest.mark.parametrize("f, g", [
    ({"atom": "indicator_halfspace", "a": [1.0, 0.0], "beta": 1.0},
     {"atom": "indicator_ball", "center": [0.0, 0.0], "radius": 1.0}),
    ({"atom": "quadratic", "Q": [[1.0, 0.0], [0.0, 0.0]]},
     {"atom": "quadratic", "Q": [[1.0, 0.0], [0.0, 0.0]]}),
], ids=["halfspace_vs_unit_ball", "singular_quadratic_self"])
def test_verify_all_with_thin_domain_conjugates(tmp_path, capsys, f, g):
    # f* is finite only on a ray or a line; a grid surrogate used to stand in
    # and reported false moreau_decomposition counterexamples in about 17 s
    argv = ["verify-all", "--f", write_spec(tmp_path, "f.json", f),
            "--g", write_spec(tmp_path, "g.json", g), "--anchor", "0,0"]
    t0 = time.perf_counter()
    code, out, _ = run_cli(argv, capsys)
    elapsed = time.perf_counter() - t0
    statuses = _statuses(out)
    assert statuses["equivalences(f,g)"] == "verified"
    assert statuses["moreau_decomposition(f)"] == statuses["moreau_decomposition(g)"] == "verified"
    # the cloud queries miss dom f*; the envelope-gradient queries lie in it
    assert statuses["envelope_conjugate(f)"] == statuses["envelope_conjugate(g)"] == "verified"
    assert "counterexample" not in statuses.values()
    assert code == 0
    assert elapsed < 1.0


def test_verify_all_box_indicator_self_pair_warns_nothing(tmp_path, capsys):
    # the box subdifferential at a corner has infinite bounds on both sides;
    # comparing them subtracted inf from inf
    spec = write_spec(tmp_path, "box.json",
                      {"atom": "indicator_box", "lo": [-1.0, -1.0], "hi": [0.5, 0.5]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["verify-all", "--f", spec, "--g", spec,
                                  "--anchor", "0,0", "--seed", "3"], capsys)
    assert code == 0
    assert _statuses(out)["equivalences(f,g)"] == "verified"
    assert err == ""


@pytest.mark.parametrize("command, option, value, message", [
    ("verify-all", "--ell", "nan", "ell must be finite and >= 0"),
    ("verify-all", "--tol", "nan", "tol must be finite and > 0"),
    ("compare", "--tol", "nan", "tol must be finite and > 0"),
    ("verify-all", "--radius", "nan", "radius must be finite and > 0"),
    ("verify-all", "--samples", "-3", "samples must be an integer >= 1"),
])
def test_bad_numeric_options_are_usage_errors(norm_spec, capsys, command, option, value,
                                              message):
    code, out, err = run_cli([command, "--f", norm_spec, "--g", norm_spec,
                              "--anchor", "0,0", f"{option}={value}"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_all_norm_16d_within_5s(tmp_path, capsys):
    # the README promises dimensions up to 16; clouds cost the same per
    # coordinate in every dimension, so the whole battery stays fast
    spec = write_spec(tmp_path, "norm16.json",
                      {"atom": "scaled_norm", "ell": 1.0, "center": [0.0] * 16})
    start = time.perf_counter()
    code, out, _ = run_cli(["verify-all", "--f", spec, "--g", spec,
                            "--anchor", ",".join(["0"] * 16)], capsys)
    elapsed = time.perf_counter() - start
    statuses = [line.split(": ", 1)[1] for line in out.splitlines()
                if line.startswith("status:")]
    assert code == 0
    assert len(statuses) == 9 and set(statuses) == {"verified"}
    assert elapsed < 5.0


def test_lcg_is_stable():
    # pinned stream so reports are reproducible across implementations
    gen = pc.Lcg(7)
    assert [gen.next_u64() for _ in range(3)] == [
        2912987876554479601,
        8017002578942608812,
        4316772256760829067,
    ]
    gen2 = pc.Lcg(7)
    assert gen2.uniform() == pytest.approx(0.15791338920921505, abs=0.0)


def test_extended_real_failure_exits_2(tmp_path, capsys):
    # the tilt overflows to inf - inf at this point: a library error, not a traceback
    spec = write_spec(tmp_path, "tilt.json",
                      {"op": "tilt", "a": [1e200],
                       "f": {"atom": "quadratic", "Q": [[1.0]]}})
    with np.errstate(all="ignore"):
        code, out, err = run_cli(["envelope", "--f", spec, "--x", "1e200"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ExtendedRealError:")


def test_extended_real_failure_prints_only_the_error_line(tmp_path, cli_env):
    # no numpy overflow warnings from the tilt reach stderr before the error
    spec = write_spec(tmp_path, "tilt.json",
                      {"op": "tilt", "a": [1e200],
                       "f": {"atom": "quadratic", "Q": [[1.0]]}})
    r = subprocess.run([sys.executable, "-m", "proxcalc.cli", "envelope", "--f", spec,
                        "--x", "1e200"], capture_output=True, text=True, env=cli_env)
    assert r.returncode == 2
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ExtendedRealError:"), r.stderr
