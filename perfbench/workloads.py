"""The three benchmark workloads: their seeded inputs and their output checks.

A workload hands out passes.  A pass is a list of operations; an operation
is one or more `entwit` command lines run back to back and timed together,
plus a check of their captured outputs.  Every check compares the program's
output with `reference`, which never imports entwit.

A check returns None when the output is right, FAILED for the one known
program fault the benchmark keeps (see `Queries`), and otherwise a message.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import reference as R

FAILED = "failed"
TOL = R.PSD_TOL
SLICE_COLUMNS = ("alpha,beta,gamma,valid,min_pt_eig,label,"
                 "w_region_I,w_region_II,w_line,measure")
NPT_LABELS = ("NPT-I", "NPT-II")
PPT_LABELS = ("PPT-detected-bound-entangled", "PPT-unresolved")
BOUND = "PPT-detected-bound-entangled"
UNRESOLVED = "PPT-unresolved"


class Output(NamedTuple):
    code: int
    stdout: str
    stderr: str


class Op(NamedTuple):
    kind: str
    commands: list            # argv lists, run back to back
    check: Callable           # list[Output] -> None | FAILED | str


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# --------------------------------------------------------------------------
# slice-atlas


def slice_gammas(rng: np.random.Generator) -> list[float]:
    """One gamma from each class the classifier treats differently: 0, the
    detecting window 1/sqrt(21) < |gamma| <= 3/7 once per sign, the line
    window 1/7 < |gamma| <= 1/sqrt(21), and 0 < |gamma| <= 1/7."""
    lo, hi = R.DETECTION_GAMMA + 1e-3, 3 / 7 - 1e-3
    signs = np.where(rng.random(2) < 0.5, -1.0, 1.0)
    return [
        0.0,
        rng.uniform(lo, hi),
        -rng.uniform(lo, hi),
        signs[0] * rng.uniform(1 / 7 + 1e-3, R.DETECTION_GAMMA - 1e-3),
        signs[1] * rng.uniform(1e-3, 1 / 7 - 1e-3),
    ]


def _floats(column) -> np.ndarray:
    return np.array([float(x) if x else math.nan for x in column])


def check_slice(out: Output, gamma: float, grid: int,
                rng: np.random.Generator, sample: int) -> str | None:
    if out.code != 0:
        return f"exit {out.code}: {out.stderr.strip()}"
    lines = out.stdout.splitlines()
    if not lines or lines[0] != SLICE_COLUMNS:
        return "unexpected CSV header"
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != grid * grid:
        return f"{len(rows)} rows, expected {grid * grid}"
    cols = list(zip(*rows))
    alpha, beta, gam = _floats(cols[0]), _floats(cols[1]), _floats(cols[2])
    valid = np.array(cols[3]) == "true"
    pt_min = _floats(cols[4])
    labels = np.array(cols[5])
    w_one, w_two, w_line, measure = (_floats(cols[i]) for i in (6, 7, 8, 9))

    if not np.all(gam == float(format(gamma, ".15g"))):
        return "gamma column differs from the requested slice"
    own_valid = R.spectrum_min(alpha, beta, gamma) >= -TOL
    if np.any(own_valid != valid):
        return f"validity differs on {int(np.sum(own_valid != valid))} rows"
    if np.any((labels == "invalid") != ~valid):
        return "'invalid' label does not match validity"
    npt = valid & (pt_min < -TOL)
    if not np.all(np.isin(labels[npt], NPT_LABELS)):
        return "NPT row without an NPT label"
    if not np.all(np.isin(labels[valid & ~npt], PPT_LABELS)):
        return "PPT row without a PPT label"
    if np.any(labels == BOUND) and not (
            R.DETECTION_GAMMA < abs(gamma) <= 3 / 7):
        return f"bound-entangled cells at gamma={gamma}"

    has_measure = ~np.isnan(measure)
    if gamma == 0.0:
        if np.any(has_measure != npt):
            return "measure column not set exactly on NPT rows"
        d_one, d_two = R.region_distances(alpha[npt], beta[npt])
        tagged = np.where(labels[npt] == "NPT-I", w_one[npt], w_two[npt])
        paper = np.maximum(d_one, d_two)
        if np.max(np.abs(measure[npt] + tagged), initial=0.0) > 1e-12:
            return "measure differs from minus the region witness value"
        if np.max(np.abs(measure[npt] - paper), initial=0.0) > 1e-12:
            return "measure differs from the paper's distance"
    elif np.any(has_measure):
        return f"measure set off the gamma = 0 slice (gamma={gamma})"

    has_line = ~np.isnan(w_line)
    if np.any(has_line) and not np.all(has_line):
        return "w_line set on some rows only"
    line = (R.line_witness(gamma, R.lambda_min(gamma)) if has_line[0]
            else None)
    for i in rng.choice(len(rows), size=min(sample, len(rows)), replace=False):
        rho = R.family_state(alpha[i], beta[i], gamma)
        if not _close(pt_min[i], R.min_pt_eig(rho), 1e-12):
            return f"min_pt_eig differs at row {i}"
        if not (_close(w_one[i], R.hs(rho, R.W_REGION_I), 1e-12)
                and _close(w_two[i], R.hs(rho, R.W_REGION_II), 1e-12)):
            return f"region witness value differs at row {i}"
        if line is not None and not _close(w_line[i], R.hs(rho, line), 1e-12):
            return f"line witness value differs at row {i}"
    return None


class SliceAtlas:
    """One operation charts five gamma slices, one of each class, as CSV."""

    name = "slice-atlas"

    def __init__(self, seed: int, workdir: Path, grid: int = 80,
                 sample: int = 16):
        self.rng = np.random.default_rng([seed, 1])
        self.check_rng = np.random.default_rng([seed, 2])
        self.grid = grid
        self.sample = sample

    def next_pass(self) -> list[Op]:
        gammas = [float(g) for g in slice_gammas(self.rng)]
        commands = [["slice", f"--gamma={g!r}", f"--grid={self.grid}"]
                    for g in gammas]

        def check(outputs):
            for gamma, out in zip(gammas, outputs):
                problem = check_slice(out, gamma, self.grid, self.check_rng,
                                      self.sample)
                if problem:
                    return f"slice gamma={gamma!r}: {problem}"
            return None

        return [Op("slice-pass", commands, check)]


# --------------------------------------------------------------------------
# battery

_CHECK_LINE = re.compile(
    r"^(PASS|FAIL)  (\w+): target=(.*) computed=(.*) tol=(\S+)$")
BATTERY_CHECKS = 18


def check_battery(out: Output) -> str | None:
    if out.code != 0:
        return f"exit {out.code}"
    lines = out.stdout.splitlines()
    if lines[-1:] != [f"{BATTERY_CHECKS}/{BATTERY_CHECKS} checks passed"]:
        return f"summary line {lines[-1:]!r}"
    computed = {}
    for line in lines[:-1]:
        match = _CHECK_LINE.match(line)
        if not match or match.group(1) != "PASS":
            return f"check line {line!r}"
        computed[match.group(2)] = match.group(4)
    if len(computed) != BATTERY_CHECKS:
        return f"{len(computed)} distinct checks, expected {BATTERY_CHECKS}"
    if not _close(float(computed["total_minimum_closed_form"]),
                  R.LAMBDA_MIN_TOTAL, 1e-12):
        return "lambda_min closed form differs from 7/8"
    if not _close(float(computed["total_minimum_scan"]),
                  R.LAMBDA_MIN_TOTAL, 1e-6):
        return "lambda_min scan differs from 7/8"
    low, high = (float(x) for x in
                 computed["detection_endpoints_b"].strip("()").split(","))
    if not (_close(low, R.HORODECKI_LOW, 1e-9)
            and _close(high, R.HORODECKI_HIGH, 1e-9)):
        return "Horodecki detection endpoints differ from (15 -+ sqrt 21)/6"
    return None


class Battery:
    """One operation is `entwit reproduce` with a fresh seed."""

    name = "battery"

    def __init__(self, seed: int, workdir: Path, samples: int | None = None):
        self.rng = np.random.default_rng([seed, 1])
        self.extra = [] if samples is None else ["--samples", str(samples)]

    def next_pass(self) -> list[Op]:
        seed = int(self.rng.integers(1, 2**31 - 1))
        command = ["reproduce", "--seed", str(seed)] + self.extra
        return [Op("reproduce", [command], lambda outs: check_battery(outs[0]))]


# --------------------------------------------------------------------------
# queries


def _json_output(out: Output):
    if out.code != 0:
        raise ValueError(f"exit {out.code}: {out.stderr.strip()}")
    return json.loads(out.stdout)


def _random_point(rng, gamma, accept, tries: int = 10000):
    """A valid (alpha, beta) of the slice whose state satisfies `accept`."""
    for _ in range(tries):
        alpha, beta = rng.uniform(-0.5, 1.0, 2)
        if R.spectrum_min(alpha, beta, gamma) < 2e-3:
            continue
        if accept(alpha, beta, R.family_state(alpha, beta, gamma)):
            return float(alpha), float(beta)
    raise RuntimeError(f"no admissible point on gamma={gamma}")


def _own_label(alpha, beta, gamma):
    """Label from the benchmark's own PPT test and witnesses, or None
    when the point sits too close to a decision edge to call."""
    rho = R.family_state(alpha, beta, gamma)
    if R.spectrum_min(alpha, beta, gamma) < -TOL:
        return "invalid"
    pt = R.min_pt_eig(rho)
    w_one, w_two = R.hs(rho, R.W_REGION_I), R.hs(rho, R.W_REGION_II)
    if abs(pt + TOL) < 1e-9:
        return None
    if pt < -TOL:
        if abs(w_one - w_two) < 1e-9:
            return None
        return "NPT-I" if w_one <= w_two else "NPT-II"
    values = [w_one, w_two]
    if R.DETECTION_GAMMA < abs(gamma) <= 3 / 7:
        values.append(R.hs(rho, R.line_witness(gamma, R.lambda_min(gamma))))
    if any(abs(v + TOL) < 1e-9 for v in values):
        return None
    return BOUND if min(values) < -TOL else UNRESOLVED


def _state_flags(alpha, beta, gamma):
    # "--flag=value": argparse takes "--alpha -9e-05" for two options
    return [f"--alpha={alpha!r}", f"--beta={beta!r}", f"--gamma={gamma!r}"]


def _check_classify(wanted: tuple, note: str | None):
    """The label is one of `wanted`; the note contains `note`, or is absent."""
    def check(outs):
        doc = _json_output(outs[0])
        label = doc["sample"]["label"]
        if label not in wanted:
            return f"label {label}, expected one of {wanted}"
        got_note = doc["note"] or ""
        if (note is None and got_note) or (note or "") not in got_note:
            return f"note {got_note!r}, expected {note!r}"
        return None
    return check


def _horodecki_expectation(b: float) -> tuple[tuple, str | None]:
    if b < 1.0 or b > 4.0:
        return NPT_LABELS, None
    if b < R.HORODECKI_LOW or b > R.HORODECKI_HIGH:
        return (BOUND,), None
    if 2.0 <= b <= 3.0:
        return (UNRESOLVED,), "Horodecki window 2 <= b <= 3"
    return (UNRESOLVED,), None


def _segment_distance(rho: np.ndarray) -> float:
    """Distance from rho to the first PPT point on its segment toward 1/9."""
    mixed = R.IDENTITY / 9.0
    lo, hi = 0.0, 1.0       # lo stays PPT, hi stays NPT
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if R.min_pt_eig(mid * rho + (1 - mid) * mixed) >= 0.0:
            lo = mid
        else:
            hi = mid
    return (1.0 - lo) * float(np.linalg.norm(rho - mixed))


def _check_nearest(alpha, beta, gamma):
    rho = R.family_state(alpha, beta, gamma)
    expected = {}

    def bounds():
        # (exact distance or None, upper limit or None), computed once
        if not expected:
            npt = R.min_pt_eig(rho) < -TOL
            if gamma == 0.0 and npt:
                expected["v"] = (max(R.region_distances(alpha, beta)), None)
            elif npt:
                expected["v"] = (None, _segment_distance(rho))
            else:
                expected["v"] = (None, 1e-9)
        return expected["v"]

    def check(outs):
        doc = _json_output(outs[0])
        if not doc["converged"]:
            return "did not converge"
        pairs = np.array(doc["state"]["entries"], dtype=float)
        state = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(R.SIDE, R.SIDE)
        if np.abs(state - state.conj().T).max() > 1e-12:
            return "state not Hermitian"
        if abs(np.trace(state).real - 1.0) > 1e-12:
            return "state trace differs from 1"
        if R.min_eig((state + state.conj().T) / 2) < -TOL - 1e-12:
            return "state not PSD"
        if R.min_pt_eig((state + state.conj().T) / 2) < -TOL - 1e-12:
            return "state not PPT"
        distance = doc["distance"]
        if not _close(distance, float(np.linalg.norm(state - rho)), 1e-9):
            return "reported distance differs from |state - input|"
        exact, limit = bounds()
        if exact is not None and not _close(distance, exact, 1e-6):
            return f"distance {distance} differs from closed form {exact}"
        if limit is not None and distance > limit + 1e-9:
            return f"distance {distance} exceeds segment bound {limit}"
        return None
    return check


def _check_witness(certified, max_abs_c=None, sampled_range=None,
                   known_fault=False):
    def check(outs):
        doc = _json_output(outs[0])
        cert = doc["certificate"]
        if certified and not cert["certified"] and known_fault:
            return FAILED
        if cert["certified"] != certified:
            return f"certified={cert['certified']}, expected {certified}"
        if max_abs_c is not None and not _close(cert["max_abs_c"], max_abs_c, 1e-9):
            return f"max|c| {cert['max_abs_c']}, expected {max_abs_c}"
        if sampled_range is not None:
            lo, hi = sampled_range
            if not lo <= doc["sampled_minimum"] < hi:
                return f"sampled minimum {doc['sampled_minimum']} outside [{lo}, {hi})"
        return None
    return check


def write_operator(path: Path, mat: np.ndarray) -> str:
    entries = [[float(z.real), float(z.imag)] for z in mat.ravel()]
    path.write_text(json.dumps({"dim_a": 3, "dim_b": 3, "entries": entries}))
    return str(path)


class Queries:
    """One operation is one single-state command from a fixed stream.

    A pass holds 100 classify, 21 witness-check and 10 nearest-ppt commands.
    Sorted by latency: classify (about 1.3-2.6 ms here), the 15 certified
    witness-checks (about 1.6-3 ms), nearest-ppt (about 4-8 ms) and the 6
    witness-checks that run the separable sampler (about 30-45 ms).  The
    median, the 66th of 131 latencies, lies about two thirds of the way into
    the classify block, so `op_p50_s` is a classify latency.  The host's speed
    is bimodal (README): a median taken near the edge of a block, or of a
    small block, jumps between the fast and slow values of its kind.
    """

    name = "queries"
    SCALES = range(-8, 9)
    # 10^k W_I with k >= 5 fails certification: the off-form residual is
    # compared with an absolute 1e-12, not one relative to the scale.
    FAULTY_SCALES = range(5, 9)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.ops = self._classify_ops(rng) + self._witness_ops(rng, workdir) \
            + self._nearest_ops(rng)

    def next_pass(self) -> list[Op]:
        return self.ops

    @staticmethod
    def _classify_ops(rng) -> list[Op]:
        ops = []

        def add(alpha, beta, gamma, note=None):
            ops.append(Op("classify",
                          [["classify"] + _state_flags(alpha, beta, gamma)
                           + ["--format", "json"]],
                          _check_classify((_own_label(alpha, beta, gamma),),
                                          note)))

        detecting = (R.DETECTION_GAMMA + 1e-2, 3 / 7 - 5e-3)
        no_line = (1e-2, R.DETECTION_GAMMA - 1e-2)
        plan = [  # (|gamma| range, None for gamma = 0; labels; count; note)
            (None, ("NPT-I",), 14, None),
            (None, ("NPT-II",), 14, None),
            (None, (UNRESOLVED,), 6, "PPT = separable on gamma = 0"),
            (detecting, NPT_LABELS, 10, None),
            (detecting, PPT_LABELS, 10, None),
            (no_line, NPT_LABELS, 8, None),
            (no_line, PPT_LABELS, 8, None),
        ]
        for window, wanted, count, note in plan:
            for _ in range(count):
                gamma = 0.0 if window is None else float(
                    rng.choice((-1.0, 1.0)) * rng.uniform(*window))
                add(*_random_point(
                    rng, gamma,
                    lambda a, b, _rho: _own_label(a, b, gamma) in wanted),
                    gamma, note)
        invalid = 0
        while invalid < 6:
            alpha, beta, gamma = rng.uniform(-0.5, 1.0, 3)
            if R.spectrum_min(alpha, beta, gamma) < -1e-2:
                add(float(alpha), float(beta), float(gamma))
                invalid += 1

        for (lo, hi), count in (((0.1, 0.9), 4), ((1.05, 1.65), 5),
                                ((1.8, 1.95), 2), ((2.0, 3.0), 4),
                                ((3.35, 3.95), 5), ((4.1, 4.9), 4)):
            for b in rng.uniform(lo, hi, count):
                ops.append(Op("classify-b", [["classify", f"--b={float(b)!r}",
                                              "--format", "json"]],
                              _check_classify(*_horodecki_expectation(float(b)))))
        return ops

    def _witness_ops(self, rng, workdir: Path) -> list[Op]:
        ops = []

        def add(name, mat, check):
            path = write_operator(workdir / f"{name}.json", mat)
            ops.append(Op("witness-check",
                          [["witness-check", path, "--format", "json"]], check))

        for k in self.SCALES:
            add(f"w_region_I_1e{k}", R.W_REGION_I * 10.0**k,
                _check_witness(True, 1.0, known_fault=k in self.FAULTY_SCALES))
        gamma = (1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(
            R.DETECTION_GAMMA + 1e-2, 3 / 7 - 5e-3)
        lam = R.lambda_min(gamma)
        for name, scale, certified in (("line_lambda_min", 1.0, True),
                                       ("line_0.9_lambda_min", 0.9, False)):
            _, c1, c2 = R.line_coefficients(gamma, scale * lam)
            add(name, R.line_witness(gamma, scale * lam),
                _check_witness(certified, max(abs(c1), abs(c2))))
        p00 = R.bell_projector(0, 0)
        add("third_identity_minus_p00", R.IDENTITY / 3 - p00,
            _check_witness(True, 1.0))
        add("0.3_identity_minus_p00", 0.3 * R.IDENTITY - p00,
            _check_witness(False, sampled_range=(-1 / 30 - 1e-12, 0.0)))
        return ops

    @staticmethod
    def _nearest_ops(rng) -> list[Op]:
        ops = []

        def add(alpha, beta, gamma):
            ops.append(Op("nearest-ppt",
                          [["nearest-ppt"] + _state_flags(alpha, beta, gamma)
                           + ["--format", "json"]],
                          _check_nearest(alpha, beta, gamma)))

        def npt(a, b, rho):
            return R.min_pt_eig(rho) < -2e-2

        for want in ["NPT-I"] * 3 + ["NPT-II"] * 3:
            add(*_random_point(
                rng, 0.0,
                lambda a, b, rho, want=want: npt(a, b, rho)
                and _own_label(a, b, 0.0) == want), 0.0)
        for _ in range(3):
            gamma = float(rng.uniform(-0.45, 0.45))
            add(*_random_point(rng, gamma, npt), gamma)
        gamma = float(rng.uniform(-0.45, 0.45))
        add(*_random_point(rng, gamma, lambda a, b, rho: R.min_pt_eig(rho) > 1e-3),
            gamma)
        return ops


WORKLOADS = {cls.name: cls for cls in (SliceAtlas, Battery, Queries)}
