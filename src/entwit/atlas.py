"""Point classification and parameter sweeps over the three-parameter family.

Every grid cell gets a `RegionSample`: validity, the minimum eigenvalue of
the partial transpose, the expectations of the certified witnesses, and a
label.  Labels never claim separability; PPT cells that no certified witness
catches stay "PPT-unresolved".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import __version__
from .operators import PSD_TOL, hs_inner, partial_transpose
from .families import SimplexParams, horodecki_to_simplex, simplex_state
from .witness import (
    DETECTION_GAMMA,
    DetectionProfile,
    certify_witness,
    detection_profile,
    line_witness,
    region_witnesses,
    _gamma0_measure,
)

__all__ = [
    "LABEL_INVALID",
    "LABEL_NPT_I",
    "LABEL_NPT_II",
    "LABEL_BOUND",
    "LABEL_UNRESOLVED",
    "RegionSample",
    "SweepReport",
    "LambdaScanReport",
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


def format_float(x: float) -> str:
    """Fixed 15-significant-digit rendering used in all CSV/JSON output."""
    return format(float(x), ".15g")


def _round_floats(obj):
    """Floats, also inside dicts and lists, as read back from format_float."""
    if isinstance(obj, float):
        return float(format_float(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


@dataclass(frozen=True, eq=False)
class RegionSample:
    """One classified point of the parameter space."""

    params: SimplexParams
    valid: bool
    min_pt_eigenvalue: float
    label: str
    witness_values: dict = field(default_factory=dict)
    measure: float | None = None

    def to_dict(self) -> dict:
        return _round_floats({
            "params": {
                "alpha": self.params.alpha,
                "beta": self.params.beta,
                "gamma": self.params.gamma,
            },
            "valid": self.valid,
            "min_pt_eigenvalue": self.min_pt_eigenvalue,
            "label": self.label,
            "witness_values": self.witness_values,
            "measure": self.measure,
        })

    def to_csv_row(self) -> str:
        w_line = self.witness_values.get("line")
        cells = [
            format_float(self.params.alpha),
            format_float(self.params.beta),
            format_float(self.params.gamma),
            "true" if self.valid else "false",
            format_float(self.min_pt_eigenvalue),
            self.label,
            format_float(self.witness_values["region_I"]),
            format_float(self.witness_values["region_II"]),
            "" if w_line is None else format_float(w_line),
            "" if self.measure is None else format_float(self.measure),
        ]
        return ",".join(cells)


@lru_cache(maxsize=64)
def _line_witness_for_slice(gamma: float, lam: float | None = None):
    """(line witness, certified) for a slice, or None when not constructible.

    With `lam=None` the witness sits at lambda_min(gamma), where it is
    certified whenever detection is possible at all.
    """
    if abs(gamma) > 3 / 7 + 1e-12 or abs(gamma) <= 1 / 7:
        return None
    if lam is None:
        if abs(gamma) <= DETECTION_GAMMA:
            return None
        profile = detection_profile(gamma)
        if not profile.detects:
            return None
        lam = profile.lambda_min
    if not 0.0 < lam <= 1.0:
        return None
    witness, _ = line_witness(gamma, lam)
    return witness, certify_witness(witness).certified


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
    reported but never counts toward detection.
    """
    params = SimplexParams(*map(float, params))
    state = simplex_state(params, psd_tol=tol)
    pt_min = float(np.linalg.eigvalsh(partial_transpose(state.op, 2).entries)[0])

    witness_one, witness_two = region_witnesses()
    values = {
        "region_I": hs_inner(state.op, witness_one.op).real,
        "region_II": hs_inner(state.op, witness_two.op).real,
    }
    certified_values = dict(values)
    line = _line_witness_for_slice(params.gamma, line_lambda)
    if line is not None:
        line_value = hs_inner(state.op, line[0].op).real
        values["line"] = line_value
        if line[1]:
            certified_values["line"] = line_value

    measure = None
    if not state.valid:
        label = LABEL_INVALID
    elif pt_min < -tol:
        label = (LABEL_NPT_I if values["region_I"] <= values["region_II"]
                 else LABEL_NPT_II)
        if params.gamma == 0.0:
            # the PT test above is the one hs_measure_gamma0 would repeat
            measure, _ = _gamma0_measure(params.alpha, params.beta)
    else:
        detected = any(v < -tol for v in certified_values.values())
        label = LABEL_BOUND if detected else LABEL_UNRESOLVED
    return RegionSample(
        params=params,
        valid=state.valid,
        min_pt_eigenvalue=pt_min,
        label=label,
        witness_values=values,
        measure=measure,
    )


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
    rows: list

    def to_csv(self) -> str:
        lines = [",".join(SLICE_COLUMNS)]
        lines.extend(row.to_csv_row() for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "grid": self.grid,
            "provenance": self.provenance,
            "rows": [row.to_dict() for row in self.rows],
        }


def slice_sweep(gamma: float, grid_n: int, tol: float = PSD_TOL) -> SweepReport:
    """Classify a grid over the positivity bounding box of a gamma slice.

    The grid covers the bounding box of the positivity triangle with
    `grid_n` points per axis, row-major in (alpha, beta).
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    gamma = float(gamma)
    vertices = positivity_vertices(gamma)
    alphas = np.linspace(min(v[0] for v in vertices),
                         max(v[0] for v in vertices), grid_n)
    betas = np.linspace(min(v[1] for v in vertices),
                        max(v[1] for v in vertices), grid_n)
    rows = [
        classify_point(SimplexParams(alpha, beta, gamma), tol=tol)
        for alpha in alphas
        for beta in betas
    ]
    grid = _round_floats({
        "gamma": gamma,
        "alpha_range": [alphas[0], alphas[-1]],
        "beta_range": [betas[0], betas[-1]],
        "grid_n": grid_n,
    })
    provenance = {"tool": "entwit", "version": __version__,
                  "tol": _round_floats(float(tol))}
    return SweepReport(grid=grid, provenance=provenance, rows=rows)


@dataclass(eq=False)
class LambdaScanReport:
    """Detection profiles over a gamma range, plus the scan minimum."""

    grid: dict
    provenance: dict
    rows: list
    min_lambda: float = math.inf
    argmin_gamma: float = math.nan

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
            "summary": _round_floats({
                "min_lambda_min": self.min_lambda,
                "argmin_gamma": self.argmin_gamma,
            }),
        }


def lambda_scan(gamma_lo: float, gamma_hi: float, steps: int) -> LambdaScanReport:
    """Detection profiles on an even gamma grid; gamma = 0 is skipped."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    gammas = np.linspace(float(gamma_lo), float(gamma_hi), steps)
    rows: list[DetectionProfile] = []
    min_lambda = math.inf
    argmin_gamma = math.nan
    for gamma in gammas:
        if gamma == 0.0:
            continue
        profile = detection_profile(float(gamma))
        rows.append(profile)
        if profile.lambda_min < min_lambda:
            min_lambda = profile.lambda_min
            argmin_gamma = profile.gamma
    grid = {
        "gamma_range": _round_floats([float(gamma_lo), float(gamma_hi)]),
        "steps": steps,
    }
    provenance = {"tool": "entwit", "version": __version__}
    return LambdaScanReport(grid=grid, provenance=provenance, rows=rows,
                            min_lambda=min_lambda, argmin_gamma=argmin_gamma)
