import argparse
import json
import re
import sys
from pathlib import Path

import pytest

from todahess import cli, continuation, raney, stieltjes

README = Path(__file__).resolve().parents[1] / "README.md"


def run(args):
    return cli.main(args)


def exit_code(args):
    """main's return value, or the code of the SystemExit that argparse raises."""
    try:
        return run(args)
    except SystemExit as err:
        return err.code


def test_thresholds_stdout(capsys):
    assert run(["thresholds", "--s", "3"]) == 0
    out = capsys.readouterr().out
    assert "4/27" in out and "1/2" in out


def test_thresholds_range(capsys):
    assert run(["thresholds", "--s", "2..6"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 6  # header + 5


def test_thresholds_usage_error(capsys):
    assert run(["thresholds", "--s", "1"]) == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 2


def test_raney_output(capsys):
    assert run(["raney", "--s", "2", "--p", "1", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].split()[-1] == "42"


def test_csv_output_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sigma", "--s", "2", "--p", "1", "--grid", "0.1:0.5:5", "--out"]
    assert run(args + [str(out1)]) == 0
    assert run(args + [str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("# schema: todahess.sigma.v1")
    header = text.splitlines()[1]
    assert header == "s,p,zeta_ratio,zeta,sigma"
    assert len(text.splitlines()) == 2 + 5


def test_json_mirrors_csv(tmp_path):
    out = tmp_path / "x.json"
    assert run(
        ["sigma", "--s", "2", "--p", "1", "--zeta", "0.1", "--format", "json",
         "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "todahess.sigma.v1"
    assert payload["columns"][-1] == "sigma"
    assert len(payload["rows"]) == 1


def test_svg_output(tmp_path):
    out = tmp_path / "rho_plot"
    assert run(
        ["rho", "--s", "2", "--p", "1", "--grid", "1.01:2.0:12,log",
         "--format", "svg", "--out", str(out)]
    ) == 0
    svg = (tmp_path / "rho_plot.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert (tmp_path / "rho_plot.csv").exists()


def test_config_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 2\np = 3\nn = 4\n")
    out = tmp_path / "r.csv"
    # flag --p 1 overrides config p=3; s and n come from the config
    assert run(
        ["--config", str(cfg), "raney", "--p", "1", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[2].startswith("2,1,0,")
    assert len(lines) == 2 + 5  # schema + header + n=0..4


@pytest.mark.parametrize(
    "cfg",
    ["s = 2\nsigma = 3\n", "s = abc\n", "s = 2\nformat = xml\n", "s 2\n"],
    ids=["key-names-no-flag", "malformed-value", "bad-choice", "no-equals"],
)
def test_bad_config_is_usage_error(tmp_path, cfg):
    path = tmp_path / "run.cfg"
    path.write_text(cfg)
    assert exit_code(["--config", str(path), "raney"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        # a flag the command does not read
        ["spectrum", "--s", "3", "--n", "10", "--zeta-ratio", "0.99", "--tol", "1e-3"],
        ["figure"],
        ["spectrum", "--n", "4"],
        ["sigma", "--s", "3"],
        ["continue", "--s", "2"],
        ["spectrum", "--s", "abc"],
        ["thresholds", "--s", "2..x"],
        ["block", "--s", "3", "--zeta-ratio", "inf"],
        ["block", "--s", "3", "--n", "2", "--format", "svg"],
        ["continue", "--s", "2", "--u-ratio", "nan"],
        ["continue", "--s", "3", "--u-ratio", "inf", "--side", "above"],
        ["rho", "--s", "2", "--grid", "nan:2:3"],
    ],
    ids=["unread-flag", "no-id", "no-s", "no-zeta", "no-u-ratio", "bad-int",
         "bad-range", "inf-zeta", "svg-without-out", "nan-u-ratio",
         "inf-u-ratio-above", "nan-grid"],
)
def test_usage_errors_exit_2(args):
    assert exit_code(args) == 2


def test_non_finite_beta_is_named(capsys):
    assert run(["block", "--s", "3", "--beta", "nan"]) == 2
    assert "beta must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["block", "spectrum", "soft"])
def test_non_positive_beta_is_named(capsys, cmd):
    assert run([cmd, "--s", "3", "--beta", "-1", "--zeta-ratio", "0.5"]) == 2
    assert "beta must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_format_without_out_prints_that_format(tmp_path, capsys, fmt):
    args = ["block", "--s", "3", "--n", "2", "--zeta-ratio", "0.5", "--format", fmt]
    assert run(args) == 0
    printed = capsys.readouterr().out
    assert run(args + ["--out", str(tmp_path / "b")]) == 0
    assert printed == (tmp_path / f"b.{fmt}").read_text()


def test_readme_documents_the_parser():
    text = README.read_text(encoding="utf-8")
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    listed = re.search(r"Commands: `([^`]*)`", text).group(1).split()
    assert listed == list(sub.choices)
    rows = dict(re.findall(r"^\| `([a-z-]+)` \|(.*)\|$", text, re.M))
    assert set(rows) == set(sub.choices)
    for name, sp in sub.choices.items():
        required, optional = (re.findall(r"--[a-z-]+", cell)
                              for cell in rows[name].split("|"))
        flags = [a for a in sp._actions if a.option_strings != ["-h", "--help"]]
        assert required == [a.option_strings[0] for a in flags if a.required]
        assert optional == [a.option_strings[0] for a in flags if not a.required]


def test_bad_grid_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run(["sigma", "--s", "2", "--grid", "nonsense"])
    assert err.value.code == 2


def test_block_and_spectrum_commands(capsys):
    assert run(["block", "--s", "3", "--n", "4", "--zeta-ratio", "0.9"]) == 0
    capsys.readouterr()
    near = ["block", "--s", "3", "--n", "4", "--zeta-ratio", "0.99"]
    assert run(near) == 0
    default_tol = capsys.readouterr().out
    assert run(near + ["--tol", "1e-3"]) == 0
    assert capsys.readouterr().out != default_tol
    assert run(
        ["spectrum", "--s", "3", "--n", "12", "--zeta-ratio", "0.99", "--k", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 4


def test_continue_and_weyl_commands(capsys):
    assert run(
        ["continue", "--s", "2", "--p", "1", "--u-ratio", "-3.0"]
    ) == 0
    capsys.readouterr()
    assert run(
        ["weyl", "--s", "2", "--p", "1", "--n", "12", "--u-ratio", "0.3"]
    ) == 0
    out = capsys.readouterr().out.strip().splitlines()
    diff = float(out[-1].split()[-1])
    assert diff < 1e-6


def test_continue_reports_the_walk_diagnostics(capsys):
    # dps is null for a walk in doubles: (8, 16) at -1.2 walks the axis, and
    # 2.5 below the cut takes the fixed-point rung
    rows = {}
    for ratio, side in (("-1.2", "none"), ("2.5", "below")):
        args = ["continue", "--s", "8", "--p", "16", "--u-ratio", ratio, "--side", side]
        assert run(args + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "todahess.continue.v2"
        rows[ratio] = dict(zip(payload["columns"], payload["rows"][0], strict=True))
    assert rows["-1.2"]["dps"] is None and rows["-1.2"]["steps"] == 4
    assert rows["2.5"]["dps"] == continuation._MP_RUNG_DPS + continuation.TAYLOR_GUARD_DPS
    for row in rows.values():
        assert 0.0 <= float(row["rel_est"]) <= 1e-12 / 4
    assert run(["continue", "--s", "8", "--p", "16", "--u-ratio", "-1.2", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split(",")[-3:-1] == ["", "4"]


def test_jacobi_command(capsys):
    assert run(["jacobi", "--s", "2", "--p", "1", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "1/16" in out and "3/256" in out


def _str_past_the_digit_limit(values):
    """str() of each value with Python's limit on int -> str conversion
    (4300 digits by default) lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)


def test_int_str_matches_str_across_chunks():
    # 4000-digit chunks: both sides of a chunk edge, zeros inside a chunk
    # and negative values
    values = [0, -7, 10**4000 - 1, 10**4000, 10**8001 + 7, -(10**9000) - 1]
    assert [cli._int_str(v) for v in values] == _str_past_the_digit_limit(values)


def test_jacobi_command_prints_exact_values_past_the_digit_limit(capsys):
    # a_39^2 at (8, 8) has over 6000 digits, and the command exited 1 with
    # the ValueError of Python's 4300-digit limit on int -> str conversion
    assert run(["jacobi", "--s", "8", "--p", "8", "--n", "40", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    jac = stieltjes.jacobi_coefficients(stieltjes.moments(8, 8, 81), 40)
    want_a = _str_past_the_digit_limit(jac.a_sq_exact)
    assert max(map(len, want_a)) > 4300
    assert [r[4] for r in rows[1:]] == want_a
    assert [r[3] for r in rows] == _str_past_the_digit_limit(jac.b_exact)


def test_raney_command_prints_values_past_the_digit_limit(capsys):
    assert run(["raney", "--s", "8", "--p", "16", "--n", "3400", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    want = _str_past_the_digit_limit([raney.raney(8, 16, 3400)])
    assert len(want[0]) > 4300 and rows[-1][3] == want[0]


def test_computation_failure_exit_1(capsys):
    # sigma beyond the divergence threshold is a computation-domain failure
    assert run(["sigma", "--s", "2", "--p", "1", "--zeta", "0.3"]) == 1


def test_hessian_and_soft_and_align_commands(capsys):
    assert run(["hessian", "--s", "2", "--zeta", "0.1", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "0.3" in out  # H_{13} = 0.3 at zeta = 0.1
    assert run(
        ["soft", "--s", "3", "--n", "14", "--zeta-ratio", "0.99", "--k", "4"]
    ) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4
    assert run(
        ["align", "--s", "3", "--n", "14", "--grid", "0.9:0.999:3,log1m"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split()[-1] == "degenerate"
    assert len(lines) == 4


def test_stiff_fit_command(tmp_path):
    out = tmp_path / "fit"
    assert run(
        ["stiff-fit", "--s", "3", "--n", "12",
         "--grid", "0.99:0.9995:4,log1m", "--out", str(out)]
    ) == 0
    summary = (tmp_path / "fit_summary.csv").read_text().splitlines()
    assert summary[0] == "# schema: todahess.stiff-fit.v1"
    rel_dev = float(summary[2].split(",")[6])
    assert rel_dev < 0.25
    assert (tmp_path / "fit_points.csv").exists()


def test_density_command(tmp_path, capsys):
    assert run(
        ["density", "--s", "2", "--p", "1", "--grid", "0.1:0.9:6"]
    ) == 0
    out = capsys.readouterr().out
    assert "mass" in out
    for line in out.splitlines():
        if line.startswith("2  1  1e-12"):
            assert abs(float(line.split()[-1]) - 1.0) < 0.02


def test_resonant_fit_command_double_precision(capsys):
    assert run(
        ["resonant-fit", "--s", "2", "--p", "1", "--precision", "double"]
    ) == 0
    out = capsys.readouterr().out.strip().splitlines()
    rel = float(out[-1].split()[4])
    assert rel < 0.1


def test_svg_outputs_are_well_formed_xml(tmp_path):
    import xml.etree.ElementTree as ET

    out = tmp_path / "plot"
    assert run(
        ["rho", "--s", "2", "--p", "1", "--grid", "1.05:2:8,log",
         "--format", "svg", "--out", str(out)]
    ) == 0
    ET.fromstring((tmp_path / "plot.svg").read_text())
