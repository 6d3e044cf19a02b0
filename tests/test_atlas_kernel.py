"""The 9-weight kernel of the classifier against 9x9 matrix computations."""

import itertools
import json
import math

import numpy as np
import pytest

from entwit import (
    BipartiteOperator,
    SimplexParams,
    bell_projector,
    classify_ppt,
    detection_profile,
    hs_inner,
    hs_measure_gamma0,
    line_witness,
    nearest_separable_gamma0,
    region_witnesses,
    simplex_state,
)
from entwit.atlas import (
    LABEL_INVALID,
    _SWEEP_BLOCK,
    _classify_slice,
    classify_point,
    classify_weights,
    slice_sweep,
)
from entwit.cli import main
from entwit.families import _bell_traces, _family_weights, _pt_block_table
from entwit.operators import _pt_array

BELL = np.array([bell_projector(3, (n, m)).entries
                 for n in range(3) for m in range(3)])

# product-basis indices of the three (i + j) mod 3 blocks
BLOCKS = [[3 * i + j for i in range(3) for j in range(3) if (i + j) % 3 == s]
          for s in range(3)]

# the 12 lines of Z3 x Z3 (three distinct points are collinear iff they sum
# to 0): uniform mixtures of their Bell states are PPT with a doubly
# degenerate lowest block eigenvalue 0
LINES = [c for c in itertools.combinations(range(9), 3)
         if sum(k // 3 for k in c) % 3 == 0 and sum(k % 3 for k in c) % 3 == 0]


def _states(weights):
    return np.einsum("nk,kij->nij", weights, BELL)


def _block_test_weights():
    """Seeded Dirichlet(1, ..., 1) weights, the vertices, the maximally mixed
    state and mixtures with a doubly degenerate block eigenvalue."""
    rng = np.random.default_rng(2024)
    dirichlet = rng.dirichlet(np.ones(9), size=2000)
    vertices = np.eye(9)
    mixed = np.full((1, 9), 1 / 9)
    line_mixes = []
    for line in LINES:
        uniform = np.zeros(9)
        uniform[list(line)] = 1 / 3
        for t in (1.0, 0.6, 0.25):
            line_mixes.append(t * uniform + (1 - t) / 9)
    return dirichlet, vertices, mixed, np.array(line_mixes)


def test_pt_block_minimum_equals_full_partial_transpose():
    """rho^Gamma commutes with U (x) U for every Weyl U (each Bell projector
    is invariant under U (x) U*).  The phase pair U_{1,0} (x) U_{1,0} splits
    it into three blocks by (i + j) mod 3, and the shift pair
    U_{0,1} (x) U_{0,1} maps the blocks unitarily onto one another, so all
    three share one spectrum, and the lowest eigenvalue of the block on
    |00>, |12>, |21> is the lowest of the whole 9x9 rho^Gamma."""
    table = _pt_block_table()
    for weights in _block_test_weights():
        pt = _pt_array(_states(weights), 3, 3, 2)
        full = np.linalg.eigvalsh(pt)
        block = np.linalg.eigvalsh((weights @ table).reshape(-1, 3, 3))
        assert np.abs(block[:, 0] - full[:, 0]).max() <= 1e-12
        spectra = [np.linalg.eigvalsh(pt[:, idx][:, :, idx]) for idx in BLOCKS]
        for spectrum in spectra[1:]:
            assert np.abs(spectrum - spectra[0]).max() <= 1e-12
        # every other entry of rho^Gamma lies inside one of the blocks
        off = pt.copy()
        for idx in BLOCKS:
            rows, cols = np.ix_(idx, idx)
            off[:, rows, cols] = 0
        assert np.abs(off).max() <= 1e-15
        # the spectrum of rho^Gamma is the block spectrum three times over
        assert np.abs(np.sort(np.tile(block, 3), axis=1) - full).max() <= 1e-12


def test_block_test_weights_hit_degenerate_blocks():
    assert len(LINES) == 12
    table = _pt_block_table()
    _, vertices, mixed, line_mixes = _block_test_weights()
    gaps = np.diff(np.linalg.eigvalsh((vertices @ table).reshape(-1, 3, 3)))
    assert np.all(gaps[:, 1] <= 1e-12)      # 1/3 twice at the top
    gaps = np.diff(np.linalg.eigvalsh((line_mixes @ table).reshape(-1, 3, 3)))
    assert np.all(gaps[:, 0] <= 1e-12)      # a double lowest eigenvalue
    spectrum = np.linalg.eigvalsh((mixed @ table).reshape(3, 3))
    assert np.abs(spectrum - 1 / 9).max() <= 1e-15   # 1/9 three times


def _line_operators():
    operators = []
    for gamma in (0.3, -0.3, 0.18, -3 / 7):
        lam_min = detection_profile(gamma).lambda_min
        for lam in (0.5, min(lam_min, 1.0)):
            operators.append(line_witness(gamma, lam)[0].op.entries)
    return operators


def test_bell_traces_give_witness_expectations():
    rng = np.random.default_rng(11)
    family = _family_weights(rng.uniform(-1 / 6, 1.0, 300),
                             rng.uniform(-1 / 3, 1.0, 300),
                             rng.uniform(-0.45, 0.45, 300))
    general = rng.uniform(-0.2, 1.0, (300, 9))
    raw = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    operators = ([w.op.entries for w in region_witnesses()]
                 + _line_operators() + [raw + raw.conj().T])
    for weights in (family, general):
        states = _states(weights)
        for op in operators:
            witness = BipartiteOperator(3, 3, op)
            direct = np.array([hs_inner(BipartiteOperator(3, 3, rho),
                                        witness).real for rho in states])
            assert np.abs(weights @ _bell_traces(op) - direct).max() <= 1e-12


def test_classify_weights_matches_matrices_on_general_weights():
    rng = np.random.default_rng(5)
    weights = np.vstack([rng.dirichlet(np.ones(9), size=500),
                         rng.uniform(-0.1, 0.4, (500, 9))])
    valid, min_pt_eig, label, values = classify_weights(weights)
    states = _states(weights)
    assert np.array_equal(valid,
                          np.linalg.eigvalsh(states)[:, 0] >= -1e-10)
    full = np.linalg.eigvalsh(_pt_array(states, 3, 3, 2))[:, 0]
    assert np.abs(min_pt_eig - full).max() <= 1e-12
    assert list(values) == ["region_I", "region_II"]
    assert np.array_equal(label == LABEL_INVALID, ~valid)


def test_classify_weights_rejects_other_shapes():
    for shape in ((9,), (4, 8), (2, 9, 1)):
        with pytest.raises(ValueError, match="shape"):
            classify_weights(np.zeros(shape))


def test_label_path_builds_no_nine_by_nine_matrix(monkeypatch):
    slice_sweep(-0.3, 4)    # fill the witness caches first
    shapes = []
    solver = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    for gamma in (0.0, -0.3, 0.18):
        slice_sweep(gamma, 12)
        classify_point(SimplexParams(0.1, -0.05, gamma))
    calls = len(shapes)
    # the gamma = 0 measure and nearest point: NPT in each region, and PPT
    for alpha, beta in ((0.5, 0.0), (0.0, 0.8), (0.2, 0.2)):
        hs_measure_gamma0(alpha, beta)
    nearest_separable_gamma0(0.5, 0.0)
    nearest_separable_gamma0(0.0, 0.8)
    assert len(shapes) == calls + 5
    assert shapes and set(shapes) == {(3, 3)}


def _gamma0_border_points(count):
    """Valid NPT points of the gamma = 0 slice in each region and their
    nearest separable points, which lie on the region borders."""
    rng = np.random.default_rng(61)
    npt, border = {"I": [], "II": []}, {"I": [], "II": []}
    while min(map(len, npt.values())) < count:
        alpha, beta = rng.uniform(-1 / 6, 1.0), rng.uniform(-1 / 3, 1.0)
        if not simplex_state(SimplexParams(alpha, beta, 0.0)).valid:
            continue
        if hs_measure_gamma0(alpha, beta)[1] == "separable":
            continue
        params, region = nearest_separable_gamma0(alpha, beta)
        npt[region].append((alpha, beta))
        border[region].append(params[:2])
    return ([p for points in npt.values() for p in points[:count]],
            [p for points in border.values() for p in points[:count]])


def test_gamma0_ppt_decision_matches_full_partial_transpose():
    rng = np.random.default_rng(60)
    seeded = [(a, b) for a, b in zip(rng.uniform(-1 / 6, 1.0, 400),
                                     rng.uniform(-1 / 3, 1.0, 400))
              if simplex_state(SimplexParams(a, b, 0.0)).valid]
    npt, border = _gamma0_border_points(25)
    for alpha, beta in seeded + npt + border:
        rho = simplex_state(SimplexParams(alpha, beta, 0.0)).density()
        want = classify_ppt(rho).label
        measure, region = hs_measure_gamma0(alpha, beta)
        assert (region == "separable") == (want == "PPT")
        if want == "PPT":
            assert measure == 0.0
            with pytest.raises(ValueError, match="PPT"):
                nearest_separable_gamma0(alpha, beta)
        else:
            assert nearest_separable_gamma0(alpha, beta)[1] == region
    # the border points are PPT, on the edge of the NPT regions
    for alpha, beta in border:
        assert hs_measure_gamma0(alpha, beta) == (0.0, "separable")


@pytest.mark.parametrize("gamma", [0.0, -0.3])
def test_blocked_sweep_equals_one_call(gamma):
    columns = slice_sweep(gamma, 37).columns
    assert len(columns) > 2 * _SWEEP_BLOCK
    whole = _classify_slice(columns.alpha, columns.beta, gamma, 1e-10, None)
    first, second = columns.lists(), whole.lists()
    assert first[:-1] == second[:-1]
    assert np.array_equal(columns.measure, whole.measure, equal_nan=True)


@pytest.mark.parametrize("gamma", ["0", "-0.3", "0.41"])
def test_slice_json_rows_match_csv_cells(gamma, capsys):
    assert main(["slice", f"--gamma={gamma}", "--grid=7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["slice", f"--gamma={gamma}", "--grid=7",
                 "--format=json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == len(lines) - 1 == 49
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        values = row["witness_values"]
        expected = [row["params"]["alpha"], row["params"]["beta"],
                    row["params"]["gamma"], row["valid"],
                    row["min_pt_eigenvalue"], row["label"],
                    values["region_I"], values["region_II"],
                    values.get("line"), row["measure"]]
        for cell, value in zip(cells, expected):
            if value is None:
                assert cell == ""
            elif isinstance(value, bool):
                assert cell == ("true" if value else "false")
            elif isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == value and math.isfinite(value)
