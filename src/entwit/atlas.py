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
from functools import lru_cache

import numpy as np

from . import __version__
from .operators import PSD_TOL
from .families import (SimplexParams, horodecki_to_simplex, _bell_traces,
                       _family_weights, _pt_minimum)
from .witness import (
    DETECTION_GAMMA,
    certify_witness,
    detection_profile,
    line_witness,
    region_witnesses,
    _measure_values,
)

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
    "classify_b",
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

_FLOAT_SPEC = ".15g"

# an object array of the five label strings: a label column costs one
# pointer per point, not 28 UCS-4 characters
_LABELS = np.array([LABEL_INVALID, LABEL_NPT_I, LABEL_NPT_II, LABEL_BOUND,
                    LABEL_UNRESOLVED], dtype=object)

# points per `_classify_slice` call in a sweep.  In `perfbench` slice-atlas
# runs (2-vCPU x86 host) one call per 80 x 80 grid, with its 0.9 MB stack of
# complex PT blocks, had about 1.5 MB more peak RSS than blocks of 512 points,
# which cost 2-3 % of the speed.
_SWEEP_BLOCK = 512


def format_float(x: float) -> str:
    """Fixed 15-significant-digit rendering used in all CSV/JSON output."""
    return format(float(x), _FLOAT_SPEC)


@lru_cache(maxsize=None)
def _region_traces() -> tuple[np.ndarray, np.ndarray]:
    """Bell traces of the two region witnesses."""
    return tuple(_bell_traces(w.op.entries) for w in region_witnesses())


@lru_cache(maxsize=64)
def _line_witness_for_slice(gamma: float, lam: float | None = None):
    """(Bell traces of the line witness, certified) for a slice.

    With `lam=None` the witness sits at lambda_min(gamma), where it is
    certified whenever detection is possible at all; slices where it
    detects nothing give None.  An explicit `lam` goes straight to
    `line_witness`, which rejects lambda outside (0, 1] and gamma outside
    the anchor windows with ValueError.
    """
    if lam is None:
        if not DETECTION_GAMMA < abs(gamma) <= 3 / 7 + 1e-12:
            return None
        profile = detection_profile(gamma)
        if not profile.detects:
            return None
        lam = profile.lambda_min
    witness, _ = line_witness(gamma, lam)
    return _bell_traces(witness.op.entries), certify_witness(witness).certified


def classify_weights(weights, tol: float = PSD_TOL, line=None):
    """Classify Bell-diagonal two-qutrit states rho = sum_k w_k P_k.

    `weights` is an (N, 9) array with the weight of P_{n,m} at column
    3n + m.  `line` optionally adds a third witness as (t, certified), with
    t_k = Tr(P_k W); an uncertified witness is reported but never counts
    toward detection.

    Returns (valid, min_pt_eig, label, witness_values): arrays of length N
    and a dict of them keyed "region_I", "region_II" and, with `line`,
    "line".  Valid means every weight is >= -tol.  NPT states are tagged
    NPT-I or NPT-II by the more violated region witness; valid PPT states
    become "PPT-detected-bound-entangled" only when a certified witness is
    below -tol on them, otherwise "PPT-unresolved".  No 9x9 matrix is
    formed: the PT minimum comes from one 3x3 block
    (`families._pt_minimum`) and each witness value is w . t.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != 9:
        raise ValueError(f"weights must have shape (N, 9), got {weights.shape}")
    valid = weights.min(axis=1) >= -tol
    min_pt_eig = _pt_minimum(weights)
    traces = dict(zip(("region_I", "region_II"), _region_traces()))
    certified = list(traces)
    if line is not None:
        traces["line"] = line[0]
        if line[1]:
            certified.append("line")
    values = {name: np.vecdot(weights, t) for name, t in traces.items()}
    detected = values["region_I"] < -tol
    for name in certified[1:]:
        detected |= values[name] < -tol
    npt_tag = np.where(values["region_I"] <= values["region_II"], 1, 2)
    code = np.where(valid, np.where(min_pt_eig < -tol, npt_tag,
                                    np.where(detected, 3, 4)), 0)
    return valid, min_pt_eig, _LABELS[code], values


def _csv_lines(alpha, beta, gamma, valid, min_pt_eig, label, values, measure):
    """CSV lines of classified points, from one list per column (NaN marks
    an absent measure) and one float gamma."""

    def floats(column):
        return [format(x, _FLOAT_SPEC) if x == x else "" for x in column]

    n = len(label)
    line = values.get("line")
    cells = [floats(alpha), floats(beta), [format_float(gamma)] * n,
             ["true" if v else "false" for v in valid], floats(min_pt_eig),
             label, floats(values["region_I"]), floats(values["region_II"]),
             [""] * n if line is None else floats(line), floats(measure)]
    return [",".join(row) for row in zip(*cells)]


def _json_rows(alpha, beta, gamma, valid, min_pt_eig, label, values, measure):
    """JSON rows of classified points, from the columns `_csv_lines` takes."""
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

    def _columns(self):
        return ([self.params.alpha], [self.params.beta], self.params.gamma,
                [self.valid], [self.min_pt_eigenvalue], [self.label],
                {name: [v] for name, v in self.witness_values.items()},
                [math.nan if self.measure is None else self.measure])

    def to_dict(self) -> dict:
        return _json_rows(*self._columns())[0]

    def to_csv_row(self) -> str:
        return _csv_lines(*self._columns())[0]


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

    @classmethod
    def concatenate(cls, parts: list) -> "SliceColumns":
        """The points of several classified parts of one slice, in order."""

        def join(columns):
            return np.concatenate(list(columns))

        first = parts[0]
        return cls(join(p.alpha for p in parts), join(p.beta for p in parts),
                   first.gamma, join(p.valid for p in parts),
                   join(p.min_pt_eig for p in parts),
                   join(p.label for p in parts),
                   {name: join(p.witness_values[name] for p in parts)
                    for name in first.witness_values},
                   join(p.measure for p in parts))

    def lists(self, part: slice = slice(None)):
        """The columns of the points in `part` as plain lists (gamma stays
        one float), in the order `_csv_lines` and `_json_rows` take."""
        return (self.alpha[part].tolist(), self.beta[part].tolist(),
                self.gamma, self.valid[part].tolist(),
                self.min_pt_eig[part].tolist(), self.label[part].tolist(),
                {name: column[part].tolist()
                 for name, column in self.witness_values.items()},
                self.measure[part].tolist())


def _classify_slice(alphas: np.ndarray, betas: np.ndarray, gamma: float,
                    tol: float, line_lambda: float | None) -> SliceColumns:
    """Classify the points (alphas[k], betas[k], gamma) of a slice at once."""
    valid, min_pt_eig, label, values = classify_weights(
        _family_weights(alphas, betas, gamma), tol,
        _line_witness_for_slice(gamma, line_lambda))
    measure = np.full(len(label), math.nan)
    if gamma == 0.0:
        # the PT test of the label is the one hs_measure_gamma0 would repeat
        npt = (label == LABEL_NPT_I) | (label == LABEL_NPT_II)
        measure[npt] = np.maximum(*_measure_values(alphas[npt], betas[npt]))
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
    attached on the gamma = 0 slice for NPT points.

    `line_lambda` overrides the segment parameter of the line witness
    (default: lambda_min of the slice); an uncertified override is still
    reported but never counts toward detection, and one that
    `line_witness` cannot build raises ValueError.
    """
    point = np.array(params, dtype=float)
    columns = _classify_slice(point[:1], point[1:2], float(point[2]), tol,
                              line_lambda)
    (alpha,), (beta,), gamma, (valid,), (pt_min,), (label,), values, \
        (measure,) = columns.lists()
    return RegionSample(
        SimplexParams(alpha, beta, gamma), valid, pt_min, label,
        {name: value for name, (value,) in values.items()},
        None if math.isnan(measure) else measure)


def classify_b(b: float, tol: float = PSD_TOL) -> RegionSample:
    """Classify a Horodecki state through its simplex embedding."""
    return classify_point(horodecki_to_simplex(b), tol=tol)


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
        # one string per grid row: the short line strings of a row die as
        # soon as the row is joined, so they never all live at once
        n = self.grid["grid_n"]
        rows = [",".join(SLICE_COLUMNS) + "\n"]
        for start in range(0, len(self.columns), n):
            lines = _csv_lines(*self.columns.lists(slice(start, start + n)))
            rows.append("\n".join(lines) + "\n")
        return "".join(rows)

    def to_json_obj(self) -> dict:
        return {
            "grid": self.grid,
            "provenance": self.provenance,
            "rows": _json_rows(*self.columns.lists()),
        }


def slice_sweep(gamma: float, grid_n: int, tol: float = PSD_TOL) -> SweepReport:
    """Classify a grid over the positivity bounding box of a gamma slice.

    The grid covers the bounding box of the positivity triangle with
    `grid_n` points per axis, row-major in (alpha, beta), and is classified
    `_SWEEP_BLOCK` points at a time.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    gamma = float(gamma)
    vertices = positivity_vertices(gamma)
    low, high = np.min(vertices, axis=0), np.max(vertices, axis=0)
    alphas = np.linspace(low[0], high[0], grid_n)
    betas = np.linspace(low[1], high[1], grid_n)
    alpha_grid, beta_grid = np.repeat(alphas, grid_n), np.tile(betas, grid_n)
    columns = SliceColumns.concatenate([
        _classify_slice(alpha_grid[start:start + _SWEEP_BLOCK],
                        beta_grid[start:start + _SWEEP_BLOCK], gamma, tol, None)
        for start in range(0, grid_n * grid_n, _SWEEP_BLOCK)])
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
        for profile in self.rows:
            lines.append(",".join([
                format_float(profile.gamma),
                format_float(profile.lambda_1),
                format_float(profile.lambda_2),
                format_float(profile.lambda_min),
                "true" if profile.detects else "false",
            ]))
        lines.append(
            f"# summary: min_lambda_min={format_float(self.min_lambda)}"
            f" at gamma={format_float(self.argmin_gamma)}"
        )
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "grid": self.grid,
            "provenance": self.provenance,
            "rows": [profile.to_dict() for profile in self.rows],
            "summary": {
                "min_lambda_min": self.min_lambda,
                "argmin_gamma": self.argmin_gamma,
            },
        }


def lambda_scan(gamma_lo: float, gamma_hi: float, steps: int) -> LambdaScanReport:
    """Detection profiles on an even gamma grid; gamma = 0 is skipped, and a
    grid with no other gamma is rejected."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    gammas = np.linspace(float(gamma_lo), float(gamma_hi), steps)
    rows = [detection_profile(float(gamma)) for gamma in gammas if gamma != 0.0]
    if not rows:
        raise ValueError("the gamma range holds no nonzero gamma to scan")
    # the first of equal minima, in grid order
    best = min(rows, key=lambda profile: profile.lambda_min)
    grid = {
        "gamma_range": [float(gamma_lo), float(gamma_hi)],
        "steps": steps,
    }
    provenance = {"tool": "entwit", "version": __version__}
    return LambdaScanReport(grid=grid, provenance=provenance, rows=rows,
                            min_lambda=best.lambda_min,
                            argmin_gamma=best.gamma)
