import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entwit import (
    DETECTION_GAMMA,
    BipartiteOperator,
    SimplexParams,
    bell_projector,
    certify_witness,
    detection_profile,
    hs_inner,
    hs_measure_gamma0,
    hs_norm,
    line_witness,
    nearest_ppt,
    operator_to_dict,
    partial_transpose,
    region_witnesses,
)
from entwit.atlas import (
    LABEL_BOUND,
    LABEL_INVALID,
    LABEL_NPT_I,
    LABEL_NPT_II,
    LABEL_UNRESOLVED,
    _classify_slice,
    classify_point,
    lambda_scan,
    positivity_vertices,
    separability_note,
    slice_sweep,
)
from entwit.cli import (_GRID_BOUND, _SAMPLES_BOUND, _STEPS_BOUND,
                        _build_parser, _json_payload, main)
from entwit.families import horodecki_to_simplex, simplex_state
from entwit.reproduce import run_battery


def test_classify_point_region_one():
    sample = classify_point(SimplexParams(0.5, 0.0, 0.0))
    assert sample.label == LABEL_NPT_I
    assert sample.valid
    assert sample.measure == pytest.approx(math.sqrt(2) / 6)
    assert sample.witness_values["region_I"] == pytest.approx(-math.sqrt(2) / 6)


def test_classify_point_region_two_and_invalid():
    assert classify_point(SimplexParams(0.0, 0.8, 0.0)).label == LABEL_NPT_II
    assert classify_point(SimplexParams(-0.5, 0.0, 0.0)).label == LABEL_INVALID


def test_classify_b_bound_entangled_window():
    sample = classify_point(horodecki_to_simplex(3.5))
    assert sample.label == LABEL_BOUND
    assert sample.min_pt_eigenvalue > -1e-10
    assert sample.witness_values["line"] < 0


def test_classify_b_separable_window_note():
    sample = classify_point(horodecki_to_simplex(2.5))
    assert sample.label == LABEL_UNRESOLVED
    note = separability_note(sample, b=2.5)
    assert note is not None and "separable" in note
    # no separability claim where nothing is known
    far = classify_point(horodecki_to_simplex(1.2))
    assert separability_note(far, b=1.2) is None


def test_classify_point_line_lambda_override():
    params = horodecki_to_simplex(3.5)
    gamma = params.gamma
    default = classify_point(params)
    assert default.label == LABEL_BOUND
    # below the certification threshold the override witness does not count
    overridden = classify_point(params, line_lambda=0.5)
    assert "line" in overridden.witness_values
    assert overridden.label == LABEL_UNRESOLVED
    assert abs(gamma) > 1 / 7


def test_positivity_vertices_gamma0():
    vertices = positivity_vertices(0.0)
    assert vertices[0] == pytest.approx((-1 / 6, -1 / 3))
    assert vertices[1] == pytest.approx((0.0, 1.0))
    assert vertices[2] == pytest.approx((1.0, 0.0))
    for alpha, beta in vertices:
        state = simplex_state(SimplexParams(alpha, beta, 0.0))
        assert state.min_eigenvalue == pytest.approx(0, abs=1e-12)


def test_slice_gamma0_labels():
    columns = slice_sweep(0.0, 25).columns
    assert len(columns) == 625
    for k, label in enumerate(columns.label):
        if not columns.valid[k]:
            assert label == LABEL_INVALID
            continue
        npt = columns.min_pt_eig[k] < -1e-10
        w1 = columns.witness_values["region_I"][k]
        w2 = columns.witness_values["region_II"][k]
        if npt:
            # witness sign rule reproduces the region tag on this slice
            assert label == (LABEL_NPT_I if w1 < -1e-10 else LABEL_NPT_II)
            assert (w1 < -1e-10) or (w2 < -1e-10)
        else:
            assert label == LABEL_UNRESOLVED  # never bound-entangled here
            assert math.isnan(columns.measure[k])


def test_slice_gamma0_region_one_border():
    # the region-I witness changes sign across alpha = 1/4 + beta/8
    columns = slice_sweep(0.0, 40).columns
    margin = columns.alpha - 0.25 - columns.beta / 8
    w1 = columns.witness_values["region_I"]
    checked = columns.valid & (np.abs(margin) > 1e-9)
    assert np.array_equal((w1 < 0)[checked], (margin > 0)[checked])


def test_slice_bound_entangled_gamma_minus_three_sevenths():
    sample = classify_point(SimplexParams(2 / 21, -8 / 21, -3 / 7))
    assert sample.label == LABEL_BOUND
    report = slice_sweep(-3 / 7, 21)
    assert LABEL_BOUND in set(report.columns.label.tolist())


def test_slice_rows_rederivable_from_columns():
    columns = slice_sweep(-0.35, 15).columns
    for k, label in enumerate(columns.label):
        values = {name: column[k]
                  for name, column in columns.witness_values.items()}
        if not columns.valid[k]:
            assert label == LABEL_INVALID
        elif columns.min_pt_eig[k] < -1e-10:
            expected = (LABEL_NPT_I if values["region_I"] <= values["region_II"]
                        else LABEL_NPT_II)
            assert label == expected
        else:
            detected = any(v < -1e-10 for v in values.values())
            assert label == (LABEL_BOUND if detected else LABEL_UNRESOLVED)


def test_slice_csv_deterministic():
    first = slice_sweep(-0.3, 12).to_csv()
    second = slice_sweep(-0.3, 12).to_csv()
    assert first == second
    header = first.splitlines()[0]
    assert header.startswith("alpha,beta,gamma,valid,min_pt_eig,label")


def test_lambda_scan_minimum_and_flip():
    report = lambda_scan(0.2, 3 / 7, 1000)
    assert report.min_lambda == pytest.approx(0.875, abs=1e-5)
    assert report.argmin_gamma == pytest.approx(math.sqrt(5) / 7, abs=1e-3)
    flips = [row.gamma for row in report.rows if row.detects]
    assert flips[0] == pytest.approx(1 / math.sqrt(21), abs=5e-4)
    csv_text = report.to_csv()
    assert csv_text.splitlines()[-1].startswith("# summary:")


def test_lambda_scan_spot_value():
    report = lambda_scan(0.25, 0.25, 2)
    profile = report.rows[0]
    assert profile.lambda_min == pytest.approx(
        max(8 / (7 * 1.1875), 2 * math.sqrt(1 + 147 / 16) / (7 * 1.1875)))
    assert profile.lambda_min == pytest.approx(0.9624, abs=1e-4)


def test_cli_classify_exit_codes_and_text(capsys):
    assert main(["classify", "--b", "3.5"]) == 0
    out = capsys.readouterr().out
    assert "PPT-detected-bound-entangled" in out
    assert main(["classify", "--alpha", "0.5", "--beta", "0"]) == 0
    out = capsys.readouterr().out
    assert "NPT-I" in out and "0.235702260395516" in out
    assert main(["classify", "--b", "2.5"]) == 0
    out = capsys.readouterr().out
    assert "PPT-unresolved" in out and "note:" in out


def test_cli_usage_errors(capsys):
    assert main(["classify"]) == 1                      # no state given
    assert main(["classify", "--b", "7"]) == 1          # out of range
    assert main(["classify", "--b", "1", "--alpha", "0.2"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["classify", "--b", "3.5", "--lambda", "2"], "lambda=2.0 outside (0, 1]"),
    (["classify", "--b", "3.5", "--lambda=-1"], "lambda=-1.0 outside (0, 1]"),
    (["classify", "--alpha", "0.1", "--beta", "0", "--gamma", "0.05",
      "--lambda", "0.5"], "gamma=0.05 outside the anchor windows"),
])
def test_cli_classify_rejects_unusable_lambda(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["classify", "nearest-ppt"])
def test_cli_rejects_gamma_with_b(command, capsys):
    assert main([command, "--b", "3.5", "--gamma", "0.3"]) == 1
    assert "give either --b or --alpha/--beta/--gamma" in \
        capsys.readouterr().err


def test_cli_reused_parser_matches_fresh_parser(capsys):
    # main() builds its parser once per process; a usage error or an earlier
    # command must leave nothing behind in it
    commands = [
        ["classify", "--alpha", "0.2", "--format", "xml"],
        ["classify", "--alpha", "0.119", "--beta", "-0.333",
         "--gamma=-0.2857", "--format", "json"],
        ["nearest-ppt", "--alpha", "0.5", "--beta", "0"],
        ["classify", "--b", "3.5"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in commands:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    _build_parser.cache_clear()
    reused = [run(argv) for argv in commands]
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [1, 0, 0, 0]


@pytest.mark.parametrize("argv, flag", [
    (["classify", "--alpha=1.7e308", "--beta=-1.7e308", "--gamma=0.5",
      "--format", "csv"], "--alpha"),
    (["classify", "--alpha=1.7e308", "--beta=-1.7e308", "--gamma=0.5",
      "--format", "json"], "--alpha"),
    (["classify", "--alpha=1e308", "--beta=1e308"], "--alpha"),
    (["classify", "--alpha=0.1", "--beta=0", "--gamma=-1e101"], "--gamma"),
    (["nearest-ppt", "--alpha=1e308", "--beta=1e308"], "--alpha"),
    (["nearest-ppt", "--alpha=0.1", "--beta=2e200"], "--beta"),
])
def test_cli_rejects_huge_state_parameters(argv, flag, capsys):
    # warnings are errors in this suite, so an overflow would fail here too
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and flag + "=" in err[0] and "outside" in err[0]


def test_cli_accepts_state_parameters_at_the_bound(capsys):
    assert main(["classify", "--alpha=1e100", "--beta=-1e100",
                 "--gamma=1e100", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["sample"]["label"] == \
        LABEL_INVALID


@pytest.mark.parametrize("argv, code", [
    (["classify", "--b", "3.5"], 0),
    (["slice", "--gamma", "9", "--grid", "3"], 1),
])
def test_python_dash_m_entwit_exit_code(argv, code):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "entwit", *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == code, result.stderr
    if code == 0:
        assert "label: " + LABEL_BOUND in result.stdout
    else:
        assert "gamma=9.0 outside" in result.stderr


def test_cli_rejects_non_finite_state_flags(capsys):
    for argv in (["classify", "--alpha", "nan", "--beta", "0"],
                 ["classify", "--alpha", "0.2", "--beta", "inf"],
                 ["classify", "--alpha", "0.2", "--beta", "0", "--gamma", "nan"],
                 ["classify", "--b", "nan"],
                 ["classify", "--b", "3.5", "--lambda", "inf"],
                 ["nearest-ppt", "--alpha", "0.2", "--beta", "nan"]):
        assert main(argv) == 1
        assert "must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify", "--alpha", "0.5", "--beta", "0", "--tol", "nan"],
    ["classify", "--alpha", "0.5", "--beta", "0", "--tol", "-1"],
    ["slice", "--gamma", "0", "--grid", "3", "--tol", "inf"],
    ["nearest-ppt", "--alpha", "0.5", "--beta", "0", "--tol", "nan"],
])
def test_cli_rejects_bad_tol(argv, capsys):
    assert main(argv) == 1
    assert "argument --tol: must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["reproduce"],
                                     ["witness-check", "operator.json"]])
@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "argument --seed: must be >= 0, got -1"),
    ("--seed", "1.5", "argument --seed: invalid int value: '1.5'"),
    ("--samples", "0", "argument --samples: must be >= 1, got 0"),
    ("--samples", "-5", "argument --samples: must be >= 1, got -5"),
    ("--samples", str(_SAMPLES_BOUND + 1),
     f"argument --samples: must be <= {_SAMPLES_BOUND}, "
     f"got {_SAMPLES_BOUND + 1}"),
])
def test_cli_rejects_bad_seed_and_samples(command, flag, value, message,
                                          capsys):
    # rejected while parsing, before any file is read or sample drawn
    assert main(command + [flag, value]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_cli_rejects_non_finite_gamma_range(capsys):
    for bounds in (["nan", "0.4"], ["0.2", "inf"]):
        assert main(["lambda-scan", "--gamma-range", *bounds]) == 1
        assert "--gamma-range: must be a finite number" in \
            capsys.readouterr().err


def test_cli_nearest_ppt_rejects_steps_below_one(capsys):
    assert main(["nearest-ppt", "--alpha", "0.5", "--beta", "0",
                 "--steps", "0"]) == 1
    assert "argument --steps: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, bound", [
    (["slice", "--gamma", "0.3"], "--grid", _GRID_BOUND),
    (["lambda-scan"], "--steps", _STEPS_BOUND),
])
def test_cli_bounds_grid_and_steps_while_parsing(command, flag, bound, capsys):
    # parsed only: a grid at the bound would really allocate
    args = _build_parser().parse_args(command + [flag, str(bound)])
    assert getattr(args, flag[2:]) == bound
    assert main(command + [flag, str(bound + 1)]) == 1
    captured = capsys.readouterr()
    assert (f"argument {flag}: must be <= {bound}, got {bound + 1}"
            in captured.err)
    assert captured.out == ""
    assert main(command + [flag, "1"]) == 1
    assert f"argument {flag}: must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["reproduce"],
                                     ["witness-check", "operator.json"]])
def test_cli_takes_samples_at_the_bound(command):
    # parsed only: a pool at the bound would really be drawn and probed
    args = _build_parser().parse_args(command + ["--samples",
                                                 str(_SAMPLES_BOUND)])
    assert args.samples == _SAMPLES_BOUND


def test_cli_negative_scientific_notation_as_separate_argument(capsys):
    assert main(["classify", "--alpha", "-1e-05", "--beta", "0.5",
                 "--gamma", "-2.5E-1", "--format", "csv"]) == 0
    cells = capsys.readouterr().out.splitlines()[1].split(",")
    assert cells[:3] == ["-1e-05", "0.5", "-0.25"]


def test_slice_rejects_gamma_without_states(capsys):
    for gamma in (-0.5, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError):
            slice_sweep(gamma, 3)
    assert main(["slice", "--gamma", "1.5", "--grid", "3"]) == 1
    assert "outside (-1/2, 1)" in capsys.readouterr().err


def test_classify_point_gamma0_measure_matches_hs_measure():
    for alpha in np.linspace(-1 / 6, 1.0, 15):
        for beta in np.linspace(-1 / 3, 1.0, 15):
            sample = classify_point(SimplexParams(alpha, beta, 0.0))
            if sample.label in (LABEL_NPT_I, LABEL_NPT_II):
                measure, region = hs_measure_gamma0(alpha, beta)
                assert sample.measure == measure
                assert sample.label == f"NPT-{region}"


def test_gamma0_measure_only_where_positive(capsys):
    # the corner (-1/6, -1/3) of the gamma = 0 triangle, a PPT point outside
    # both region formulas, has the exact PT minimum 0, which the closed
    # form gives exactly, so even --tol 0 labels it PPT, with no measure
    assert main(["classify", "--alpha=-0.16666666666666666",
                 "--beta=-0.3333333333333333", "--tol", "0"]) == 0
    out = capsys.readouterr().out
    assert "min partial-transpose eigenvalue: 0\n" in out
    assert "label: PPT-unresolved" in out and "distance measure" not in out
    # (-1/27, 10/27), cell 167 of the 37 x 37 grid, is PPT with the exact
    # PT minimum 0 on the border of region II, but -1.4e-17 by round-off:
    # with --tol 0 it is labelled NPT and gets the label but no measure
    assert main(["slice", "--gamma", "0", "--grid", "37", "--tol", "0"]) == 0
    rows = [line.split(",") for line in
            capsys.readouterr().out.splitlines()[1:]]
    assert float(rows[167][4]) < 0
    assert rows[167][5] == LABEL_NPT_II and rows[167][9] == ""
    measures = [float(row[9]) for row in rows if row[9]]
    assert measures and min(measures) > 0
    npt = sum(row[5] in (LABEL_NPT_I, LABEL_NPT_II) for row in rows)
    assert npt == len(measures) + 1


def _reference_sample(alpha, beta, gamma, tol=1e-10):
    """(valid, PT minimum, label, witness values, measure), point by point."""
    state = simplex_state(SimplexParams(alpha, beta, gamma))
    valid = state.min_eigenvalue >= -tol
    pt_min = np.linalg.eigvalsh(partial_transpose(state.op, 2).entries)[0]
    witness_one, witness_two = region_witnesses()
    witnesses = {"region_I": witness_one.op, "region_II": witness_two.op}
    certified = ["region_I", "region_II"]
    if DETECTION_GAMMA < abs(gamma) <= 3 / 7 + 1e-12:
        profile = detection_profile(gamma)
        if profile.detects:
            line, _ = line_witness(gamma, profile.lambda_min)
            witnesses["line"] = line.op
            if certify_witness(line).certified:
                certified.append("line")
    values = {name: hs_inner(state.op, op).real
              for name, op in witnesses.items()}
    measure = None
    if not valid:
        label = LABEL_INVALID
    elif pt_min < -tol:
        label = (LABEL_NPT_I if values["region_I"] <= values["region_II"]
                 else LABEL_NPT_II)
        if gamma == 0.0:
            measure, _ = hs_measure_gamma0(alpha, beta)
    else:
        detected = any(values[name] < -tol for name in certified)
        label = LABEL_BOUND if detected else LABEL_UNRESOLVED
    return valid, pt_min, label, values, measure


@pytest.mark.parametrize("gamma", [0.0, 0.3, -0.3, 0.18, 0.05, -3 / 7])
def test_slice_sweep_matches_per_point_reference(gamma):
    columns = slice_sweep(gamma, 9).columns
    for k in range(len(columns)):
        valid, pt_min, label, values, measure = _reference_sample(
            columns.alpha[k], columns.beta[k], columns.gamma)
        row_measure = None if math.isnan(columns.measure[k]) else \
            columns.measure[k]
        assert (columns.valid[k], columns.label[k], row_measure) == \
            (valid, label, measure)
        assert columns.min_pt_eig[k] == pytest.approx(pt_min, abs=1e-12)
        assert columns.witness_values.keys() == values.keys()
        for name, value in values.items():
            assert columns.witness_values[name][k] == \
                pytest.approx(value, abs=1e-12)


def _fields(columns, order=slice(None)):
    """Every column in `order` as a list, None marking an absent measure."""
    *head, measure = columns.lists(order)
    return head + [[None if math.isnan(m) else m for m in measure]]


@pytest.mark.parametrize("gamma", [0.0, -0.3])
def test_classify_slice_is_point_order_invariant(gamma):
    columns = slice_sweep(gamma, 9).columns
    perm = np.random.default_rng(7).permutation(len(columns))
    shuffled = _classify_slice(columns.alpha[perm], columns.beta[perm], gamma,
                               1e-10, None)
    assert _fields(shuffled) == _fields(columns, perm)


def test_cli_classify_json_deterministic(capsys):
    assert main(["classify", "--b", "3.5", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["classify", "--b", "3.5", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["sample"]["label"] == LABEL_BOUND


def test_cli_slice_csv(tmp_path, capsys):
    out_file = tmp_path / "slice.csv"
    assert main(["slice", "--gamma", "0", "--grid", "8",
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    lines = out_file.read_text().splitlines()
    assert len(lines) == 65
    assert lines[0].split(",")[:3] == ["alpha", "beta", "gamma"]


def test_cli_out_missing_directory(tmp_path, capsys):
    out_file = tmp_path / "missing" / "x.txt"
    assert main(["classify", "--alpha", "0.5", "--beta", "0",
                 "--out", str(out_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("entwit classify: ")
    assert captured.out == ""


def test_cli_out_is_a_directory(tmp_path, capsys):
    assert main(["slice", "--gamma", "0.1", "--grid", "3",
                 "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("entwit slice: ")
    assert captured.out == ""


def test_cli_classify_csv_row(capsys):
    assert main(["classify", "--alpha", "0.5", "--beta", "0",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("alpha,beta,gamma,valid")
    cells = lines[1].split(",")
    assert cells[:3] == ["0.5", "0", "0"] and cells[5] == "NPT-I"


def test_cli_slice_json(capsys):
    assert main(["slice", "--gamma", "-0.35", "--grid", "5",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["grid"]["grid_n"] == 5
    assert len(doc["rows"]) == 25
    assert {"params", "valid", "label"} <= set(doc["rows"][0])


def test_cli_lambda_scan_stdout(capsys):
    assert main(["lambda-scan", "--gamma-range", "0.3", "0.32",
                 "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "gamma,lambda_1,lambda_2,lambda_min,detects"
    assert len(out.splitlines()) == 5


def test_lambda_scan_rejects_range_without_nonzero_gamma(capsys):
    with pytest.raises(ValueError, match="no nonzero gamma"):
        lambda_scan(0.0, 0.0, 3)
    for fmt in ("csv", "json"):
        assert main(["lambda-scan", "--gamma-range", "0", "0", "--steps", "3",
                     "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert "no nonzero gamma" in captured.err and captured.out == ""


def test_json_payload_rejects_non_finite_floats():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="JSON"):
            _json_payload({"rows": [{"value": bad}]})


def test_cli_witness_check_certified(tmp_path, capsys):
    witness_one, _ = region_witnesses()
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(operator_to_dict(witness_one.op)))
    assert main(["witness-check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "certified: yes" in out


def test_cli_witness_check_uncertified_probe(tmp_path, capsys):
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    herm = raw + raw.conj().T
    path = tmp_path / "random.json"
    path.write_text(json.dumps(operator_to_dict(
        BipartiteOperator(3, 3, herm))))
    assert main(["witness-check", str(path), "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "in certifiable form: no" in out
    assert "sampled separable minimum" in out
    assert "one-sided" in out


@pytest.mark.parametrize("name, matrix, floor", [
    # the largest overlap of a product state with |phi+> is 1/3
    ("bell_offset", 0.3 * np.eye(9) - bell_projector(3, (0, 0)).entries, -1 / 30),
    # not Bell-diagonal: |00> is itself a product state
    ("product", np.eye(9) - 2 * np.outer(np.eye(9)[0], np.eye(9)[0]), -1.0),
])
def test_cli_witness_check_reaches_closed_form_floor(name, matrix, floor,
                                                     tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(operator_to_dict(BipartiteOperator(3, 3, matrix))))
    assert main(["witness-check", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not doc["certificate"]["certified"]
    assert abs(doc["sampled_minimum"] - floor) <= 1e-12


def test_cli_witness_check_bad_file(tmp_path, capsys):
    # a missing file, malformed JSON and an operator of 0 entries each fail
    # through main's handler, with its prefix and nothing on stdout
    broken, empty = tmp_path / "broken.json", tmp_path / "empty.json"
    broken.write_text("{not json")
    empty.write_text(json.dumps({"dim_a": 3, "dim_b": 3, "entries": []}))
    for path, message in ((tmp_path / "missing.json", "No such file"),
                          (broken, "Expecting property name"),
                          (empty, "entries has 0 elements, expected 81")):
        assert main(["witness-check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entwit witness-check: ")
        assert captured.err.count("\n") == 1 and message in captured.err


def test_cli_witness_check_non_finite_entries(tmp_path, capsys):
    witness_one, _ = region_witnesses()
    for bad in (math.nan, math.inf, -math.inf):
        doc = operator_to_dict(witness_one.op)
        doc["entries"][10] = [0.0, bad]
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(doc))
        assert main(["witness-check", str(path)]) == 1
        assert "entries[10] is not finite" in capsys.readouterr().err


def test_cli_witness_check_huge_entries(tmp_path, capsys):
    # every entry finite, but far past the range certification and the
    # probe can square without overflow
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(operator_to_dict(
        BipartiteOperator(3, 3, np.full((9, 9), 1e308)))))
    assert main(["witness-check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("entwit witness-check: entries[0] = [1e+308, 0.0] "
                            "outside [-1e+100, 1e+100]\n")


def test_cli_witness_check_non_integer_dimensions(tmp_path, capsys):
    witness_one, _ = region_witnesses()
    doc = operator_to_dict(witness_one.op)
    doc["dim_a"], doc["dim_b"] = 3.9, 3.2
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(doc))
    assert main(["witness-check", str(path)]) == 1
    captured = capsys.readouterr()
    assert "must be integers" in captured.err and captured.out == ""


@pytest.mark.parametrize("fields, message", [
    ({"entries": 5}, "entries must be a list"),
    ({"entries": None}, "entries must be a list"),
    ({"dim_a": -3, "dim_b": -3, "entries": []}, "must be positive"),
    ({"dim_a": True, "dim_b": True}, "must be integers"),
])
def test_cli_witness_check_malformed_operator(fields, message, tmp_path,
                                              capsys):
    doc = operator_to_dict(region_witnesses()[0].op) | fields
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["witness-check", str(path)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("doc, message", [
    ({"dim_a": 3}, "malformed operator object: missing key 'dim_b'"),
    ([], "malformed operator object: expected a JSON object with keys "
         "dim_a, dim_b and entries, got list"),
    ("x", "malformed operator object: expected a JSON object with keys "
          "dim_a, dim_b and entries, got str"),
])
def test_cli_witness_check_names_the_expected_object(doc, message, tmp_path,
                                                     capsys):
    path = tmp_path / "not_an_operator.json"
    path.write_text(json.dumps(doc))
    assert main(["witness-check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"entwit witness-check: {message}\n"


def test_cli_nearest_ppt(capsys):
    assert main(["nearest-ppt", "--alpha", "0.5", "--beta", "0"]) == 0
    out = capsys.readouterr().out
    assert "converged: yes" in out
    assert "0.2357" in out
    # iteration cap exhausted -> numeric-failure exit code
    assert main(["nearest-ppt", "--alpha", "0.5", "--beta", "0",
                 "--steps", "1"]) == 2
    capsys.readouterr()


def _nearest_json(argv, capsys):
    code = main(["nearest-ppt", *argv, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    return code, doc


@pytest.mark.parametrize("alpha, beta", [
    (0.5, 0.0), (0.7, 0.1), (0.3, -0.1),          # region I
    (0.0, 0.8), (0.1, 0.7), (-0.05, 0.6),         # region II
])
def test_cli_nearest_ppt_distance_is_the_gamma0_measure(alpha, beta, capsys):
    measure, region = hs_measure_gamma0(alpha, beta)
    assert region in ("I", "II")
    code, doc = _nearest_json(["--alpha", str(alpha), "--beta", str(beta)],
                              capsys)
    assert code == 0 and doc["converged"]
    assert abs(doc["distance"] - measure) <= 1e-9


@pytest.mark.parametrize("argv, steps", [
    (["--alpha", "0.5", "--beta", "0.1", "--gamma", "0.3"], None),
    (["--alpha", "0.6", "--beta", "-0.2", "--gamma", "-0.3"], None),
    (["--alpha", "0.1", "--beta", "0.5", "--gamma", "0.3"], None),
    (["--alpha", "0.3", "--beta", "0.1", "--gamma", "0.2"], None),
    (["--b", "0.5"], None),
    (["--b", "4.6"], None),
    (["--b", "2.5"], None),
    (["--alpha", "0.5", "--beta", "0.1", "--gamma", "0.3"], 7),
    (["--b", "0.5"], 1),
])
def test_cli_nearest_ppt_matches_the_matrix_projection(argv, steps, capsys):
    flags = argv + ([] if steps is None else ["--steps", str(steps)])
    code, doc = _nearest_json(flags, capsys)
    params = (horodecki_to_simplex(float(argv[1])) if argv[0] == "--b"
              else SimplexParams(*map(float, argv[1::2])))
    rho = simplex_state(params).density()
    result = nearest_ppt(rho, max_iter=10000 if steps is None else steps)
    assert code == (0 if result.converged else 2)
    assert doc["converged"] == result.converged
    assert doc["iterations"] == result.iterations
    assert abs(doc["residual"] - result.residual) <= 1e-12
    assert abs(doc["min_pt_eigenvalue"] - result.min_pt_eigenvalue) <= 1e-12
    entries = np.array(doc["state"]["entries"])
    state = entries[:, 0] + 1j * entries[:, 1]
    assert np.abs(state - result.state.entries.ravel()).max() <= 1e-12
    if result.converged:
        assert abs(doc["distance"] - hs_norm(result.state.op - rho.op)) <= 1e-12
    else:
        assert doc["distance"] is None


@pytest.mark.parametrize("argv", [
    ["--alpha", "0.5", "--beta", "0.1", "--gamma", "0.3"],
    ["--b", "0.5"],
    ["--b", "4.5"],
    ["--alpha", "0.4", "--beta", "-0.2", "--gamma", "-0.3"],
])
def test_cli_nearest_ppt_state_is_real(argv, capsys):
    # the nearest PPT state of a family state is real; the Bell-space run
    # leaves its conjugate pairs unequal at round-off only
    code, doc = _nearest_json(argv, capsys)
    assert code == 0
    entries = np.array(doc["state"]["entries"]).reshape(9, 9, 2)
    assert not entries[..., 1].any()
    assert np.array_equal(entries[..., 0], entries[..., 0].T)


def test_cli_nearest_ppt_rejects_weights_off_unit_trace(capsys):
    # a PSD tolerance this wide passes the spectrum; the rounding of weights
    # of size 1e10 moves their sum off 1 by far more than TRACE_TOL
    assert main(["nearest-ppt", "--alpha=1e10", "--beta=-1e10",
                 "--tol", "1e11"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trace is" in captured.err and "must equal 1 within 1e-12" \
        in captured.err


def test_cli_nearest_ppt_invalid_state(capsys):
    assert main(["nearest-ppt", "--alpha", "-0.5", "--beta", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["--alpha=2", "--beta=0"], "-1.111e-01"),
    # far outside the states, where a 9x9 matrix is not Hermitian to the
    # absolute tolerance any more
    (["--alpha=1e100", "--beta=1e100"], "-2.222e+99"),
])
def test_cli_nearest_ppt_rejects_non_states_by_spectrum(argv, message, capsys):
    assert main(["nearest-ppt", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"entwit nearest-ppt: not positive semidefinite: "
                            f"min eigenvalue {message} < -1e-10\n")


def test_cli_reproduce_small_battery(capsys):
    code = main(["reproduce", "--samples", "800", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_battery_results_structure():
    results = run_battery(samples=300, seed=5)
    names = [r.name for r in results]
    assert "total_minimum_closed_form" in names
    assert "nearest_ppt_gamma0" in names
    assert all(r.passed for r in results)
