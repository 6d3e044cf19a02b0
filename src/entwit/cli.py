"""Command-line front end.

Subcommands: classify, slice, lambda-scan, reproduce, witness-check,
nearest-ppt.  All floating-point output is rendered with 15 significant
digits and no run-dependent state, so identical flags produce byte-identical
output.

Exit codes: 0 success / all checks pass, 1 usage or input error, 2 numeric
failure (non-convergence), 3 reproduction-battery failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .operators import PSD_TOL, TRACE_TOL, operator_from_dict
from .families import (SimplexParams, _bell_diagonal, _family_weights,
                       horodecki_to_simplex)
from .witness import certify_witness
from .ppt import (_BELL_SPACE, SamplerConfig, _dykstra, _single_result,
                  min_separable_expectation)
from .atlas import (
    SLICE_COLUMNS,
    classify_point,
    format_float,
    lambda_scan,
    separability_note,
    slice_sweep,
)
from .reproduce import run_battery

__all__ = ["main", "entry_point"]

#: Largest |alpha|, |beta|, |gamma| and largest real or imaginary part of an
#: operator entry: far outside the states, far below overflow.
_PARAM_BOUND = 1e100

#: Largest `slice --grid` (a million points) and `lambda-scan --steps`: each
#: point or step holds about 0.5 kB until the output is written, so a larger
#: value would exhaust memory instead of failing with a message.
_GRID_BOUND = 1000
_STEPS_BOUND = 10 ** 6

#: Largest `--samples` of `reproduce` and `witness-check`: the probe draws
#: its ceil(sqrt(N)) factor pairs at once (`ppt._pool_factors`), 10^4 of
#: them at this bound; without one, 10^20 samples would ask for about
#: 900 GiB and end in a MemoryError instead of a message.
_SAMPLES_BOUND = 10 ** 8


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # take "-1e-05" as a value, not an option; argparse's own pattern
        # only knows "-1" and "-1.5"
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _integer_in(low: int, high: float = math.inf):
    """Parser of an integer flag that rejects values below `low` or above
    `high`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return parse


def _emit(payload: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {out}")
    else:
        sys.stdout.write(payload)


def _round_floats(obj):
    """Floats, also inside dicts and lists, as read back from format_float."""
    if isinstance(obj, float):
        return float(format_float(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _json_payload(obj) -> str:
    """Indented JSON with every float rounded, once, to 15 significant
    digits; NaN and infinity, which JSON cannot hold, raise ValueError."""
    return json.dumps(_round_floats(obj), indent=2, allow_nan=False) + "\n"


def _add_state_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--b", type=_finite, default=None,
                        help="Horodecki parameter b in [0, 5]")
    parser.add_argument("--alpha", type=_finite, default=None)
    parser.add_argument("--beta", type=_finite, default=None)
    parser.add_argument("--gamma", type=_finite, default=None,
                        help="with --alpha/--beta (default 0)")


def _params_from_args(args) -> tuple[SimplexParams, float | None]:
    if args.b is not None:
        if any(v is not None for v in (args.alpha, args.beta, args.gamma)):
            raise ValueError("give either --b or --alpha/--beta/--gamma, "
                             "not both")
        return horodecki_to_simplex(args.b), args.b
    if args.alpha is None or args.beta is None:
        raise ValueError("state required: --b or both --alpha and --beta")
    gamma = 0.0 if args.gamma is None else args.gamma
    params = SimplexParams(args.alpha, args.beta, gamma)
    for name, value in params._asdict().items():
        if abs(value) > _PARAM_BOUND:
            raise ValueError(f"--{name}={value!r} outside [-{_PARAM_BOUND:g}, "
                             f"{_PARAM_BOUND:g}]")
    return params, None


def _cmd_classify(args) -> int:
    params, b = _params_from_args(args)
    sample = classify_point(params, tol=args.tol, line_lambda=args.lam)
    note = separability_note(sample, b=b)
    if args.format == "json":
        payload = _json_payload({
            "input": {"b": b} if b is not None else {
                "alpha": params.alpha, "beta": params.beta,
                "gamma": params.gamma},
            "sample": sample.to_dict(),
            "note": note,
        })
    elif args.format == "csv":
        payload = ",".join(SLICE_COLUMNS) + "\n" + sample.to_csv_row() + "\n"
    else:
        lines = []
        if b is not None:
            lines.append(f"b: {format_float(b)} (embedded in the simplex family)")
        lines.append(
            f"params: alpha={format_float(params.alpha)} "
            f"beta={format_float(params.beta)} gamma={format_float(params.gamma)}")
        lines.append(f"valid state: {'yes' if sample.valid else 'no'}")
        lines.append(
            f"min partial-transpose eigenvalue: "
            f"{format_float(sample.min_pt_eigenvalue)}")
        witness_bits = ", ".join(
            f"{name}={format_float(value)}"
            for name, value in sample.witness_values.items())
        lines.append(f"witness expectations: {witness_bits}")
        if sample.measure is not None:
            lines.append(f"distance measure: {format_float(sample.measure)}")
        lines.append(f"label: {sample.label}")
        if note:
            lines.append(f"note: {note}")
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.out)
    return 0


def _emit_report(report, args) -> int:
    """Write a sweep or scan report as JSON or CSV."""
    _emit(_json_payload(report.to_json_obj()) if args.format == "json"
          else report.to_csv(), args.out)
    return 0


def _cmd_slice(args) -> int:
    return _emit_report(slice_sweep(args.gamma, args.grid, tol=args.tol), args)


def _cmd_lambda_scan(args) -> int:
    return _emit_report(lambda_scan(*args.gamma_range, args.steps), args)


def _cmd_reproduce(args) -> int:
    results = run_battery(samples=args.samples, seed=args.seed)
    if args.format == "json":
        payload = _json_payload([r.__dict__ for r in results])
    elif args.format == "csv":
        lines = ["name,passed,target,computed,tolerance,deviation"]
        for r in results:
            lines.append(",".join([
                r.name, "true" if r.passed else "false",
                json.dumps(r.target), json.dumps(r.computed),
                format_float(r.tolerance), format_float(r.deviation),
            ]))
        payload = "\n".join(lines) + "\n"
    else:
        lines = [r.line() for r in results]
        failures = sum(not r.passed for r in results)
        lines.append(f"{len(results) - failures}/{len(results)} checks passed")
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.out)
    return 0 if all(r.passed for r in results) else 3


def _cmd_witness_check(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        operator = operator_from_dict(json.load(fh))
    for index, entry in enumerate(operator.entries.ravel().tolist()):
        if max(abs(entry.real), abs(entry.imag)) > _PARAM_BOUND:
            raise ValueError(
                f"entries[{index}] = [{entry.real!r}, {entry.imag!r}] outside "
                f"[-{_PARAM_BOUND:g}, {_PARAM_BOUND:g}]")
    certificate = certify_witness(operator)
    doc = {"certificate": certificate.to_dict()}
    lines = [
        f"in certifiable form: {'yes' if certificate.in_certifiable_form else 'no'}",
        f"scale a: {format_float(certificate.a)}",
        f"max |c|: {format_float(certificate.max_abs_c)}",
        f"off-form residual: {format_float(certificate.off_form_residual)}",
        f"certified: {'yes' if certificate.certified else 'no'}",
    ]
    if not certificate.certified:
        config = SamplerConfig(seed=args.seed, count=args.samples)
        floor = min_separable_expectation(operator, config)
        caveat = ("one-sided: an upper bound on the separable minimum; "
                  "only a negative value is conclusive")
        doc["sampled_minimum"] = floor
        doc["caveat"] = caveat
        lines.append(
            f"sampled separable minimum ({args.samples} states): "
            f"{format_float(floor)}")
        lines.append(f"  ({caveat})")
    payload = (_json_payload(doc) if args.format == "json"
               else "\n".join(lines) + "\n")
    _emit(payload, args.out)
    return 0


def _cmd_nearest_ppt(args) -> int:
    params, _ = _params_from_args(args)
    # every family state is Bell-diagonal: the density gates read its
    # closed-form spectrum, the Bell weights, and Dykstra runs on those
    weights = _family_weights(*params)
    min_eig = weights.min()
    if min_eig < -args.tol:
        raise ValueError(f"not positive semidefinite: min eigenvalue "
                         f"{min_eig:.3e} < -{args.tol}")
    trace = weights.sum()
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"trace is {trace!r}, must equal 1 within {TRACE_TOL}")
    run = _dykstra(_BELL_SPACE, weights[None], args.tol, args.steps)
    # the input and both convex sets are invariant under conjugation, so the
    # nearest PPT state is real; the Bell PT projection leaves the weights of
    # a conjugate pair unequal at round-off, and only that is dropped
    result = _single_result(run, _bell_diagonal(run.states[0]).real, 3, 3)
    distance = None
    if result.converged:
        distance = float(_BELL_SPACE.norms(run.states - weights)[0])
    doc = result.to_dict()
    doc["distance"] = distance
    if args.format == "json":
        payload = _json_payload(doc)
    else:
        lines = [
            f"converged: {'yes' if result.converged else 'no'} "
            f"({result.iterations} iterations, residual "
            f"{format_float(result.residual)})",
            f"min partial-transpose eigenvalue: "
            f"{format_float(result.min_pt_eigenvalue)}",
        ]
        if distance is not None:
            lines.append(f"distance to input: {format_float(distance)}")
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.out)
    if not result.converged:
        sys.stderr.write(
            f"nearest-ppt: no convergence within {args.steps} iterations "
            f"(residual {format_float(result.residual)})\n")
        return 2
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The CLI parser, built on the first call: parsing never changes it."""
    parser = _Parser(
        prog="entwit",
        description=(
            "Geometric entanglement witnesses for two-qutrit states: "
            "classification, parameter sweeps, threshold reproduction."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser(
        "classify",
        help="classify one state (validity, PPT/NPT, witness values, label)")
    _add_state_flags(classify)
    classify.add_argument("--lambda", dest="lam", type=_finite, default=None,
                          help="segment parameter of the line witness "
                               "(default: lambda_min of the slice)")
    classify.add_argument("--tol", type=_tolerance, default=PSD_TOL)
    classify.add_argument("--format", choices=("text", "csv", "json"),
                          default="text")
    classify.add_argument("--out", default=None)
    classify.set_defaults(func=_cmd_classify)

    slice_cmd = sub.add_parser(
        "slice",
        help="sweep one gamma slice over its positivity bounding box; "
             "CSV columns: " + ",".join(SLICE_COLUMNS))
    slice_cmd.add_argument("--gamma", type=_finite, required=True)
    slice_cmd.add_argument("--grid", type=_integer_in(2, _GRID_BOUND),
                           default=60,
                           help=f"points per axis, at most {_GRID_BOUND} "
                                "(default 60)")
    slice_cmd.add_argument("--tol", type=_tolerance, default=PSD_TOL)
    slice_cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    slice_cmd.add_argument("--out", default=None)
    slice_cmd.set_defaults(func=_cmd_slice)

    scan = sub.add_parser(
        "lambda-scan",
        help="detection thresholds lambda_1, lambda_2, lambda_min over a "
             "gamma range")
    scan.add_argument("--gamma-range", type=_finite, nargs=2,
                      default=(0.15, 3 / 7), metavar=("LO", "HI"))
    scan.add_argument("--steps", type=_integer_in(2, _STEPS_BOUND),
                      default=200,
                      help=f"gamma grid points, at most {_STEPS_BOUND} "
                           "(default 200)")
    scan.add_argument("--format", choices=("csv", "json"), default="csv")
    scan.add_argument("--out", default=None)
    scan.set_defaults(func=_cmd_lambda_scan)

    reproduce = sub.add_parser(
        "reproduce",
        help="run the full threshold-reproduction battery (exit 3 on any "
             "failure)")
    reproduce.add_argument("--samples", type=_integer_in(1, _SAMPLES_BOUND),
                           default=100000,
                           help="product states in the one pool that probes "
                                "every witness: the first N pairs of a "
                                "ceil(sqrt(N))-square grid of Haar factors, "
                                "at most 1e8 (default 1e5)")
    reproduce.add_argument("--seed", type=_integer_in(0), default=20240901)
    reproduce.add_argument("--format", choices=("text", "csv", "json"),
                           default="text")
    reproduce.add_argument("--out", default=None)
    reproduce.set_defaults(func=_cmd_reproduce)

    witness = sub.add_parser(
        "witness-check",
        help="certify an operator file (shared JSON format); uncertified "
             "operators get a sampler probe")
    witness.add_argument("file")
    witness.add_argument("--samples", type=_integer_in(1, _SAMPLES_BOUND),
                         default=20000,
                         help="product states in the probe's pool: the first "
                              "N pairs of a ceil(sqrt(N))-square grid of Haar "
                              "factors, at most 1e8 (default 20000)")
    witness.add_argument("--seed", type=_integer_in(0), default=0)
    witness.add_argument("--format", choices=("text", "json"), default="text")
    witness.add_argument("--out", default=None)
    witness.set_defaults(func=_cmd_witness_check)

    nearest = sub.add_parser(
        "nearest-ppt",
        help="project a state onto the PPT set (alternating projections "
             "with corrections)")
    _add_state_flags(nearest)
    nearest.add_argument("--tol", type=_tolerance, default=PSD_TOL)
    nearest.add_argument("--steps", type=_integer_in(1), default=10000,
                         help="iteration cap (default 10000)")
    nearest.add_argument("--format", choices=("text", "json"), default="text")
    nearest.add_argument("--out", default=None)
    nearest.set_defaults(func=_cmd_nearest_ppt)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"entwit {args.command}: {exc}\n")
        return 1


def entry_point():
    sys.exit(main())
