"""The 9-weight kernel of the classifier against 9x9 matrix computations."""

import itertools
import json
import math

import numpy as np
import pytest

import entwit
from entwit import (
    BipartiteOperator,
    DensityMatrix,
    SimplexParams,
    bell_projector,
    certify_witness,
    classify_ppt,
    detection_profile,
    geometric_witness,
    hs_inner,
    hs_measure_gamma0,
    line_witness,
    nearest_separable_gamma0,
    region_witnesses,
    simplex_state,
)
from entwit.atlas import (
    LABEL_BOUND,
    LABEL_INVALID,
    LABEL_NPT_I,
    LABEL_UNRESOLVED,
    SLICE_COLUMNS,
    SliceColumns,
    SweepReport,
    _classify_slice,
    _line_witness_for_slice,
    classify_point,
    classify_weights,
    positivity_vertices,
    slice_sweep,
)
from entwit.cli import main
from entwit.families import (_family_pt_minimum, _family_weights,
                             _pt_block_table, _pt_minimum)
from entwit.operators import _pt_array
from entwit.witness import _region_traces

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


def _full_pt_minimum(alpha, beta, gamma):
    """Minimum eigenvalue of the whole 9x9 partial transpose of each family
    member, built as a matrix from its Bell weights."""
    states = _states(np.atleast_2d(_family_weights(alpha, beta, gamma)))
    return np.linalg.eigvalsh(_pt_array(states, 3, 3, 2))[:, 0]


def _crossing_points(rng, count):
    """(alpha, beta, gamma) where the 1x1 block e + (alpha + beta)/3 equals
    the lower eigenvalue of the 2x2 block: with u = (alpha + beta)/3 < 0,
    gamma > 3u and (alpha - beta/2)/3 = +-sqrt(u (u - gamma/3))."""
    u = rng.uniform(-0.3, -0.01, count)
    gamma = rng.uniform(3 * u, 1.0)
    d = rng.choice([-1.0, 1.0], count) * np.sqrt(u * (u - gamma / 3))
    beta = 2 * (u - d)
    return 3 * u - beta, beta, gamma


def test_family_pt_minimum_equals_full_partial_transpose():
    rng = np.random.default_rng(515)
    seeded = rng.uniform(-1.0, 1.0, (3, 2000))
    beta = rng.uniform(-1.0, 1.0, 200)
    off_diagonal_zero = (beta / 2, beta, rng.uniform(-1.0, 1.0, 200))
    gamma_zero = (*rng.uniform(-1.0, 1.0, (2, 200)), np.zeros(200))
    crossing = _crossing_points(rng, 200)
    vertices = [(a, b, gamma) for gamma in np.linspace(-0.49, 0.99, 25)
                for a, b in positivity_vertices(gamma)]
    loci = [seeded, off_diagonal_zero, gamma_zero, crossing,
            np.array(vertices).T, np.zeros((3, 1))]
    for alpha, beta, gamma in loci:
        closed = _family_pt_minimum(alpha, beta, gamma)
        assert np.abs(closed - _full_pt_minimum(alpha, beta, gamma)).max() \
            <= 1e-12
    # the crossing: both branches of the closed form give the minimum
    alpha, beta, gamma = crossing
    base = (1 - alpha - beta - gamma) / 9
    one = base + (alpha + beta) / 3
    two = base + gamma / 6 - np.hypot(gamma / 6, (alpha - beta / 2) / 3)
    assert np.abs(one - two).max() <= 1e-15
    # the maximally mixed point: 1/9, exactly
    assert _family_pt_minimum(0.0, 0.0, 0.0) == 1 / 9


def test_family_pt_minimum_broadcasts_as_the_weights():
    alpha, beta = np.linspace(-0.2, 0.8, 6), np.linspace(-0.3, 0.6, 6)
    closed = _family_pt_minimum(alpha[:, None], beta, 0.25)
    assert closed.shape == (6, 6)
    numeric = _pt_minimum(_family_weights(np.repeat(alpha, 6),
                                          np.tile(beta, 6), 0.25))
    assert np.abs(closed.ravel() - numeric).max() <= 1e-15
    assert np.ndim(_family_pt_minimum(0.1, 0.2, 0.3)) == 0


@pytest.mark.parametrize("gamma", [0.0, 0.25, -0.3, 0.18, 0.05, -0.4, 0.41,
                                   0.6, -0.49])
def test_closed_form_and_numeric_routes_label_alike(gamma):
    """`slice_sweep` (closed form) against `classify_weights` (3x3
    eigvalsh) on the same grid, with the same line witness, at the default
    tol: the same labels, validity and witness values, and PT minima within
    1e-15."""
    columns = slice_sweep(gamma, 41).columns
    valid, min_pt_eig, label, values = classify_weights(
        _family_weights(columns.alpha, columns.beta, gamma),
        line=_line_witness_for_slice(gamma))
    assert np.array_equal(label, columns.label)
    assert np.array_equal(valid, columns.valid)
    assert np.abs(min_pt_eig - columns.min_pt_eig).max() <= 1e-15
    assert values.keys() == columns.witness_values.keys()
    for name, column in values.items():
        assert np.array_equal(column, columns.witness_values[name])


def _weight_witnesses():
    """(Bell traces of the label path, the witness as a 9x9 matrix) of the
    two region witnesses and of line witnesses on both anchor windows."""
    pairs = [(traces, witness.op.entries) for traces, witness
             in zip(_region_traces(), region_witnesses())]
    for gamma in (0.3, -0.3, 0.18, -3 / 7):
        lam_min = detection_profile(gamma).lambda_min
        for lam in (0.5, min(lam_min, 1.0)):
            pairs.append((_line_witness_for_slice(gamma, lam)[0],
                          line_witness(gamma, lam)[0].op.entries))
    return pairs


def test_bell_traces_give_witness_expectations():
    rng = np.random.default_rng(11)
    family = _family_weights(rng.uniform(-1 / 6, 1.0, 300),
                             rng.uniform(-1 / 3, 1.0, 300),
                             rng.uniform(-0.45, 0.45, 300))
    general = rng.uniform(-0.2, 1.0, (300, 9))
    witnesses = _weight_witnesses()
    for weights in (family, general):
        states = _states(weights)
        for traces, op in witnesses:
            witness = BipartiteOperator(3, 3, op)
            direct = np.array([hs_inner(BipartiteOperator(3, 3, rho),
                                        witness).real for rho in states])
            assert np.abs(weights @ traces - direct).max() <= 1e-12


def test_weight_traces_equal_nine_by_nine_tangent_witness():
    """t = s - r - s . (s - r) against Tr(P_k W) of `geometric_witness` on
    the same two states as 9x9 matrices."""
    cases = [(traces, witness.reference, witness.target, True)
             for traces, witness in zip(_region_traces(), region_witnesses())]
    magnitudes = np.linspace(1 / 7 + 1e-3, 3 / 7, 6)
    for gamma in np.concatenate([-magnitudes, magnitudes]):
        for lam in (0.05, 0.5, 0.9, 0.999):
            witness, _ = line_witness(gamma, lam)
            cases.append((_line_witness_for_slice(gamma, lam)[0],
                          witness.reference, witness.target, False))
    for traces, sigma, rho, normalize in cases:
        direct = geometric_witness(sigma, rho, normalize=normalize)
        bell_traces = np.einsum("kij,ji->k", BELL, direct.op.entries).real
        assert np.abs(traces - bell_traces).max() <= 1e-15


def test_label_path_certificate_equals_nine_by_nine_certificate():
    magnitudes = np.linspace(1 / 7 + 1e-3, 3 / 7, 40)
    certified = 0
    for gamma in np.concatenate([-magnitudes[::-1], magnitudes]):
        lam_min = detection_profile(gamma).lambda_min
        for lam in [*np.linspace(0.05, 1.0, 30), min(lam_min, 1.0)]:
            flag = _line_witness_for_slice(gamma, lam)[1]
            witness, _ = line_witness(gamma, lam)
            assert flag == certify_witness(witness).certified, (gamma, lam)
            certified += flag
    assert 0 < certified < 80 * 31


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
    # family points take the closed-form PT minimum: no eigensolve at all
    for gamma in (0.0, -0.3, 0.18):
        slice_sweep(gamma, 12)
        classify_point(SimplexParams(0.1, -0.05, gamma))
    # the gamma = 0 measure and nearest point: NPT in each region, and PPT
    for alpha, beta in ((0.5, 0.0), (0.0, 0.8), (0.2, 0.2)):
        hs_measure_gamma0(alpha, beta)
    nearest_separable_gamma0(0.5, 0.0)
    nearest_separable_gamma0(0.0, 0.8)
    assert shapes == []
    # general weights go through one stacked eigensolve of 3x3 blocks
    classify_weights(np.full((5, 9), 1 / 9))
    assert shapes == [(3, 3)]

    # a fresh detecting gamma with the witness caches cleared: no 9x9
    # operator is created and no Weyl expansion is made
    _region_traces.cache_clear()
    _line_witness_for_slice.cache_clear()
    created = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            created.append(f"{owner.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(BipartiteOperator, "__post_init__")
    counting(DensityMatrix, "__init__")
    counting(entwit.weyl, "weyl_expand")
    counting(entwit.weyl, "_weyl_coefficients")
    counting(entwit.witness, "_weyl_coefficients")
    # the Horodecki anchor of the slice
    sample = classify_point(SimplexParams(0.63 / 6, -7.59 / 21, -0.37))
    assert sample.label == LABEL_BOUND
    assert "line" in sample.witness_values
    assert created == []
    assert shapes == [(3, 3)]


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


def _reference_csv(columns):
    """The CSV of a slice built cell by cell: format(x, ".15g") per float,
    "" for NaN or an absent line, true/false for validity."""

    def cell(x):
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, str):
            return x
        return "" if x is None or math.isnan(x) else format(float(x), ".15g")

    line = columns.witness_values.get("line")
    lines = [",".join(SLICE_COLUMNS)]
    for k in range(len(columns)):
        lines.append(",".join(cell(x) for x in (
            columns.alpha[k], columns.beta[k], columns.gamma,
            columns.valid[k], columns.min_pt_eig[k], columns.label[k],
            columns.witness_values["region_I"][k],
            columns.witness_values["region_II"][k],
            None if line is None else line[k], columns.measure[k])))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid_n", [2, 7, 37])
@pytest.mark.parametrize("gamma", [0.0, -0.3, 0.41, 0.05])
def test_slice_csv_equals_per_cell_reference(gamma, grid_n):
    report = slice_sweep(gamma, grid_n)
    columns = report.columns
    # gamma = 0 carries the measure column (the 2 x 2 grid holds no NPT
    # state), -0.3 and 0.41 the line column
    measured = (~np.isnan(columns.measure)).any()
    assert measured == (gamma == 0.0 and grid_n > 2)
    assert (gamma in (-0.3, 0.41)) == ("line" in columns.witness_values)
    assert report.to_csv() == _reference_csv(columns)


def test_csv_of_hand_built_columns_equals_per_cell_reference():
    """Signed zeros, a subnormal, huge values and a partial NaN measure, on
    a 2 x 2 grid with and without a line column."""
    alpha = np.repeat([-0.0, 1e300], 2)
    beta = np.tile([5e-324, -0.0], 2)
    values = {"region_I": np.array([-0.0, 1e300, -5e-324, 0.1]),
              "region_II": np.array([1 / 3, -1e-300, 0.0, 2.5e-17])}
    columns = SliceColumns(
        alpha, beta, -0.0, np.array([True, False, True, True]),
        np.array([5e-324, -0.0, -1e300, 1 / 7]),
        np.array([LABEL_NPT_I, LABEL_INVALID, LABEL_NPT_I, LABEL_UNRESOLVED],
                 dtype=object),
        values, np.array([math.nan, 0.0, -0.0, 1e300]))
    for witness_values in (values, values | {"line": np.array(
            [-0.0, 5e-324, math.inf, -1e300])}):
        columns = SliceColumns(**(vars(columns) |
                                  {"witness_values": witness_values}))
        report = SweepReport({"grid_n": 2}, {}, columns)
        assert report.to_csv() == _reference_csv(columns)


@pytest.mark.parametrize("gamma, k", [(0.0, 0), (0.0, 12), (-0.3, 31),
                                      (0.41, 40), (0.05, 48)])
def test_classify_csv_row_is_the_slice_row(gamma, k, capsys):
    report = slice_sweep(gamma, 7)
    slice_line = report.to_csv().splitlines()[k + 1]
    alpha, beta = float(report.columns.alpha[k]), float(report.columns.beta[k])
    assert main(["classify", f"--alpha={alpha!r}", f"--beta={beta!r}",
                 f"--gamma={gamma!r}", "--format=csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [",".join(SLICE_COLUMNS),
                                                    slice_line]
