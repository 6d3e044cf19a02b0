"""Point classification and parameter sweeps over the three-parameter family.

Every family state is Bell-diagonal, rho = sum_k w_k P_k, so each point is
classified from its 9 Bell weights: validity, the minimum eigenvalue of the
partial transpose, the expectations of the certified witnesses, and a label.
Labels never claim separability; PPT cells that no certified witness
catches stay "PPT-unresolved".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .operators import PSD_TOL
from .families import (SimplexParams, _family_pt_minimum, _family_weights,
                       _pt_minimum)
from .witness import (DetectionProfile, _detection_profiles, _label_witnesses,
                      _measure_values, _reject_nonfinite)

__all__ = [
    "LABEL_INVALID",
    "LABEL_NPT_I",
    "LABEL_NPT_II",
    "LABEL_BOUND",
    "LABEL_UNRESOLVED",
    "RegionSample",
    "SliceColumns",
    "SweepReport",
    "LambdaScanReport",
    "classify_weights",
    "classify_point",
    "separability_note",
    "positivity_vertices",
    "slice_sweep",
    "lambda_scan",
    "format_float",
]

LABEL_INVALID = "invalid"
LABEL_NPT_I = "NPT-I"
LABEL_NPT_II = "NPT-II"
LABEL_BOUND = "PPT-detected-bound-entangled"
LABEL_UNRESOLVED = "PPT-unresolved"

SLICE_COLUMNS = (
    "alpha", "beta", "gamma", "valid", "min_pt_eig", "label",
    "w_region_I", "w_region_II", "w_line", "measure",
)

_FLOAT = "%.15g"

# CSV cells of the valid column, indexed by the bool as a uint8
_BOOL_CELLS = np.array(["false", "true"], dtype=object)

# an object array of the five label strings: a label column costs one
# pointer per point, not 28 UCS-4 characters
_LABELS = np.array([LABEL_INVALID, LABEL_NPT_I, LABEL_NPT_II, LABEL_BOUND,
                    LABEL_UNRESOLVED], dtype=object)

def format_float(x: float) -> str:
    """Fixed 15-significant-digit rendering used in all CSV/JSON output."""
    return _FLOAT % float(x)


def _witness_values(weights: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """w . t, (M, N), for traces (M, 9) and weights (N, 9), summed elementwise
    in index order; a BLAS dot sums in an order that depends on the block."""
    values = traces[:, :1] * weights[:, 0]
    for k in range(1, 9):
        values += traces[:, k:k + 1] * weights[:, k]
    return values


def _label_points(weights: np.ndarray, min_pt_eig: np.ndarray, tol: float,
                  traces: np.ndarray, certified: np.ndarray) -> tuple:
    """The labelling rule, shared by `classify_weights` and `_classify_slice`:
    (valid, min_pt_eig, label, witness_values) of the states with Bell
    weights (N, 9) and PT minima (N,), as `classify_weights` returns them,
    from the witness table (traces (M, 9), certified (M,)) of
    `witness._label_witnesses`.  Every witness is reported; only the
    certified ones count toward detection."""
    valid = weights.min(axis=1) >= -tol
    table = _witness_values(weights, traces)
    values = dict(zip(("region_I", "region_II", "line"), table))
    # some certified witness below -tol (NaN hides one only on invalid rows)
    detected = table[certified].min(axis=0) < -tol
    npt_tag = np.where(values["region_I"] <= values["region_II"], 1, 2)
    code = np.where(valid, np.where(min_pt_eig < -tol, npt_tag,
                                    np.where(detected, 3, 4)), 0)
    return valid, min_pt_eig, _LABELS[code], values


def classify_weights(weights, tol: float = PSD_TOL):
    """Classify Bell-diagonal two-qutrit states rho = sum_k w_k P_k.

    `weights` is an (N, 9) array with the weight of P_{n,m} at column
    3n + m; ValueError for another shape or a weight that is not finite.

    Returns (valid, min_pt_eig, label, witness_values): arrays of length N
    and a dict of them keyed "region_I" and "region_II", the witness table
    of `witness._label_witnesses` with no line witness, which is defined
    per gamma.  Valid means every weight is >= -tol.  NPT states are
    tagged NPT-I or NPT-II by the more violated region witness; valid PPT
    states become "PPT-detected-bound-entangled" only when a region
    witness is below -tol on them, otherwise "PPT-unresolved".  No 9x9
    matrix is formed.  General weights have no closed-form PT spectrum, so
    the PT minimum is the numeric one of a stacked 3x3 `eigvalsh`
    (`families._pt_minimum`); family points, which `_classify_slice`
    labels by the same rule, take the closed form
    (`families._family_pt_minimum`) instead.  Each witness value is w . t.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != 9:
        raise ValueError(f"weights must have shape (N, 9), got {weights.shape}")
    _reject_nonfinite("weights", weights)
    return _label_points(weights, _pt_minimum(weights), tol,
                         *_label_witnesses(0.0))


def _csv_rows(columns: SliceColumns, width: int):
    """CSV lines of a row-major grid of classified points, `width` points per
    grid row, yielded as one string of newline-ended lines per grid row.

    Cells are reused by grid position, not looked up by value: alpha is
    formatted once per grid row (from its first point) and beta, joined with
    the gamma cell, once per grid column (from the first grid row), so alpha
    must be constant along a grid row and beta must repeat from row to row,
    as in `slice_sweep`.  Each line comes from one %-template: the grid
    row's alpha cell in front of a line template chosen once, with or
    without the w_line cell ("%.15g" % x is format(x, ".15g")).  The
    measure is formatted only where it is set; NaN is an empty cell.
    """
    gamma = _FLOAT % columns.gamma
    beta_gamma = [f"{_FLOAT % b},{gamma}" for b in columns.beta[:width].tolist()]
    values = columns.witness_values
    line = values.get("line")
    # after alpha: beta and gamma, valid, min_pt_eig, label, the two region
    # witnesses, w_line, measure
    template = (",%s,%s,%.15g,%s,%.15g,%.15g,"
                + ("" if line is None else "%.15g") + ",%s\n")
    for start in range(0, len(columns), width):
        part = slice(start, start + width)
        measure = columns.measure[part]
        measure_cells = [""] * len(measure)
        for k in np.flatnonzero(measure == measure).tolist():
            measure_cells[k] = _FLOAT % measure[k]
        cells = [beta_gamma, _BOOL_CELLS[columns.valid[part].view(np.uint8)],
                 columns.min_pt_eig[part].tolist(),
                 columns.label[part].tolist(),
                 values["region_I"][part].tolist(),
                 values["region_II"][part].tolist()]
        if line is not None:
            cells.append(line[part].tolist())
        cells.append(measure_cells)
        row = (_FLOAT % columns.alpha[start]) + template
        yield "".join(row % point for point in zip(*cells))


def _json_rows(columns: SliceColumns):
    """JSON rows of classified points."""
    alpha, beta, gamma, valid, min_pt_eig, label, values, measure = \
        columns.lists()
    names = list(values)
    return [
        {"params": {"alpha": a, "beta": b, "gamma": gamma},
         "valid": v,
         "min_pt_eigenvalue": p,
         "label": lab,
         "witness_values": dict(zip(names, w)),
         "measure": m if m == m else None}
        for a, b, v, p, lab, m, *w in zip(alpha, beta, valid, min_pt_eig,
                                          label, measure, *values.values())
    ]


@dataclass(frozen=True, eq=False)
class RegionSample:
    """One classified point of the parameter space."""

    params: SimplexParams
    valid: bool
    min_pt_eigenvalue: float
    label: str
    witness_values: dict = field(default_factory=dict)
    measure: float | None = None

    def _columns(self) -> SliceColumns:
        """This point as a one-point slice."""
        return SliceColumns(
            np.array([self.params.alpha]), np.array([self.params.beta]),
            self.params.gamma, np.array([self.valid], dtype=bool),
            np.array([self.min_pt_eigenvalue]), np.array([self.label]),
            {name: np.array([v]) for name, v in self.witness_values.items()},
            np.array([math.nan if self.measure is None else self.measure]))

    def to_dict(self) -> dict:
        return _json_rows(self._columns())[0]

    def to_csv_row(self) -> str:
        return next(_csv_rows(self._columns(), 1))[:-1]


@dataclass(frozen=True, eq=False)
class SliceColumns:
    """Classified points of one gamma slice, one array entry per point.

    `witness_values` maps each witness name to its column of expectations;
    `measure` is NaN where no distance measure is attached.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: float
    valid: np.ndarray
    min_pt_eig: np.ndarray
    label: np.ndarray
    witness_values: dict
    measure: np.ndarray

    def __len__(self) -> int:
        return len(self.label)

    def lists(self, part: slice = slice(None)):
        """The columns of the points in `part` as plain lists (gamma stays
        one float), in the order of the fields."""
        return (self.alpha[part].tolist(), self.beta[part].tolist(),
                self.gamma, self.valid[part].tolist(),
                self.min_pt_eig[part].tolist(), self.label[part].tolist(),
                {name: column[part].tolist()
                 for name, column in self.witness_values.items()},
                self.measure[part].tolist())


def _classify_slice(alphas: np.ndarray, betas: np.ndarray, gamma: float,
                    tol: float, line_lambda: float | None) -> SliceColumns:
    """Classify the points (alphas[k], betas[k], gamma) of a slice at once.

    The labelling rule is that of `classify_weights`, on the family's Bell
    weights, but the PT minimum is the exact closed form of the family
    (`families._family_pt_minimum`), with no eigensolve.  It agrees with
    the numeric route of `classify_weights` to round-off; where the exact
    minimum is 0, as at the corner (-1/6, -1/3, 0), it is exactly 0, so
    only a `tol` of 0 can tell the two routes apart.  The witnesses are
    the one table of `witness._label_witnesses(gamma, line_lambda)`, built
    per call.
    """
    valid, min_pt_eig, label, values = _label_points(
        _family_weights(alphas, betas, gamma),
        _family_pt_minimum(alphas, betas, gamma), tol,
        *_label_witnesses(gamma, line_lambda))
    measure = np.full(len(label), math.nan)
    if gamma == 0.0:
        # the PT test of the label is the one hs_measure_gamma0 would repeat;
        # a measure is attached only where it is positive, since a small tol
        # lets round-off label NPT a PPT point outside both region formulas
        npt = (label == LABEL_NPT_I) | (label == LABEL_NPT_II)
        distance = np.maximum(*_measure_values(alphas, betas))
        attach = npt & (distance > 0)
        measure[attach] = distance[attach]
    return SliceColumns(alphas, betas, gamma, valid, min_pt_eig, label,
                        values, measure)


def classify_point(params, tol: float = PSD_TOL,
                   line_lambda: float | None = None) -> RegionSample:
    """Classify one (alpha, beta, gamma) point.

    NPT points are tagged NPT-I or NPT-II by the more violated of the two
    region witnesses (on the gamma = 0 slice exactly one is negative, so
    the tag is the sign rule there).  PPT points become
    "PPT-detected-bound-entangled" only when a certified witness is
    negative on them; otherwise "PPT-unresolved".  The distance measure is
    attached on the gamma = 0 slice for NPT points where it is positive.

    `line_lambda` overrides the segment parameter of the line witness
    (default: lambda_min of the slice); an uncertified override is still
    reported but never counts toward detection, and one that
    `line_witness` cannot build raises ValueError, as does a parameter that
    is not finite.
    """
    point = np.array(params, dtype=float)
    if not np.isfinite(point).all():
        for name, value in zip(("alpha", "beta", "gamma"), point):
            _reject_nonfinite(name, value)
    columns = _classify_slice(point[:1], point[1:2], float(point[2]), tol,
                              line_lambda)
    (alpha,), (beta,), gamma, (valid,), (pt_min,), (label,), values, \
        (measure,) = columns.lists()
    return RegionSample(
        SimplexParams(alpha, beta, gamma), valid, pt_min, label,
        {name: value for name, (value,) in values.items()},
        None if math.isnan(measure) else measure)


def separability_note(sample: RegionSample, b: float | None = None) -> str | None:
    """Known-separable annotation for PPT points; never a verdict.

    Separability itself is not certifiable here, so the note only records
    externally established windows: the whole PPT part of the gamma = 0
    slice, and the Horodecki segment 2 <= b <= 3.
    """
    if sample.label != LABEL_UNRESOLVED:
        return None
    if b is not None and 2.0 <= b <= 3.0:
        return "separable by external results (Horodecki window 2 <= b <= 3)"
    if sample.params.gamma == 0.0:
        return "separable by external results (PPT = separable on gamma = 0)"
    return None


def positivity_vertices(gamma: float) -> list[tuple[float, float]]:
    """Corners of the (alpha, beta) positivity triangle of a gamma slice.

    Rejects gamma outside (-1/2, 1), where the slice holds at most one state.
    """
    if not -0.5 < gamma < 1.0:
        raise ValueError(f"gamma={gamma} outside (-1/2, 1): no triangle of "
                         f"states on this slice")
    c = min(1 + 2 * gamma, 1 - gamma)
    a_vertex = ((gamma - 1) / 6, (gamma - 1) / 3)
    b_vertex = ((c - 1 + gamma) / 9, c - (c - 1 + gamma) / 9)
    c_vertex = ((7 * c + 2 - 2 * gamma) / 9, (2 * c - 2 + 2 * gamma) / 9)
    return [a_vertex, b_vertex, c_vertex]


@dataclass(eq=False)
class SweepReport:
    """Grid sweep result with enough provenance to re-run bit-identically."""

    grid: dict
    provenance: dict
    columns: SliceColumns

    def to_csv(self) -> str:
        """The slice as CSV, header first, one line per point in grid order.

        Rendered by `_csv_rows`: alpha is formatted once per grid row, beta
        and gamma once per grid column, and each line from one %-template;
        the lines of one grid row are joined before the next row is
        converted, so they never all live at once.  The header goes into
        the same list as the rows: prefixing it to the joined rows would
        copy the whole text, about 1.3 MB more peak RSS in `perfbench`
        slice-atlas runs.
        """
        rows = [",".join(SLICE_COLUMNS) + "\n"]
        rows.extend(_csv_rows(self.columns, self.grid["grid_n"]))
        return "".join(rows)

    def to_json_obj(self) -> dict:
        return {
            "grid": self.grid,
            "provenance": self.provenance,
            "rows": _json_rows(self.columns),
        }


def slice_sweep(gamma: float, grid_n: int, tol: float = PSD_TOL) -> SweepReport:
    """Classify a grid over the positivity bounding box of a gamma slice.

    The grid covers the bounding box of the positivity triangle with
    `grid_n` points per axis, row-major in (alpha, beta), and is classified
    in one `_classify_slice` call.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    gamma = float(gamma)
    vertices = positivity_vertices(gamma)
    low, high = np.min(vertices, axis=0), np.max(vertices, axis=0)
    alphas = np.linspace(low[0], high[0], grid_n)
    betas = np.linspace(low[1], high[1], grid_n)
    alpha_grid, beta_grid = np.repeat(alphas, grid_n), np.tile(betas, grid_n)
    columns = _classify_slice(alpha_grid, beta_grid, gamma, tol, None)
    grid = {
        "gamma": gamma,
        "alpha_range": [float(alphas[0]), float(alphas[-1])],
        "beta_range": [float(betas[0]), float(betas[-1])],
        "grid_n": grid_n,
    }
    provenance = {"tool": "entwit", "version": __version__, "tol": float(tol)}
    return SweepReport(grid=grid, provenance=provenance, columns=columns)


@dataclass(eq=False)
class LambdaScanReport:
    """Detection profiles over a gamma range, plus the scan minimum."""

    grid: dict
    provenance: dict
    rows: list
    min_lambda: float
    argmin_gamma: float

    def to_csv(self) -> str:
        lines = ["gamma,lambda_1,lambda_2,lambda_min,detects"]
        lines.extend("%.15g,%.15g,%.15g,%.15g,%s" % (
            p.gamma, p.lambda_1, p.lambda_2, p.lambda_min,
            "true" if p.detects else "false") for p in self.rows)
        lines.append("# summary: min_lambda_min=%.15g at gamma=%.15g"
                     % (self.min_lambda, self.argmin_gamma))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "grid": self.grid,
            "provenance": self.provenance,
            "rows": [profile.to_dict() for profile in self.rows],
            "summary": {"min_lambda_min": self.min_lambda,
                        "argmin_gamma": self.argmin_gamma},
        }


def lambda_scan(gamma_lo: float, gamma_hi: float, steps: int) -> LambdaScanReport:
    """Detection profiles on an even gamma grid, all from one call of
    `witness._detection_profiles` (the rows are bit for bit those of
    `detection_profile`); gamma = 0 is skipped, and a grid with no other
    gamma is rejected, as is the first gamma `detection_profile` rejects."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    gammas = np.linspace(float(gamma_lo), float(gamma_hi), steps)
    gammas = gammas[gammas != 0.0]
    if not gammas.size:
        raise ValueError("the gamma range holds no nonzero gamma to scan")
    columns = (gammas, *_detection_profiles(gammas))
    rows = [DetectionProfile(*row)
            for row in zip(*(column.tolist() for column in columns))]
    # the first of equal minima, in grid order
    best = rows[int(np.argmin(columns[3]))]
    grid = {"gamma_range": [float(gamma_lo), float(gamma_hi)], "steps": steps}
    return LambdaScanReport(grid, {"tool": "entwit", "version": __version__},
                            rows, best.lambda_min, best.gamma)
