"""Benchmark of the entwit CLI: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {slice-atlas,battery,queries} \
        --seed N --seconds S --trace {0,1}

Runs the workload in this process, driving `entwit.cli.main(argv)` with its
standard output captured in memory, so argument parsing, validation, the
library and the CSV/JSON formatting are timed as a user's command runs them,
without interpreter start-up.  Times are reported in reference seconds: wall
seconds scaled by a host-speed kernel timed around and inside each command
(`hostspeed`).  Every output is checked against `reference` outside the
timed phase.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.

entwit is imported from the `src` directory next to this one; without it the
benchmark exits 2.
"""

from __future__ import annotations

import os

# One BLAS thread on every run, whatever the environment says: on a small
# shared host a second OpenBLAS thread adds CPU time and noise, not speed
# (see README.md).  Must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import PERIOD_S, HostSpeed
from tracing import Tracer
from workloads import FAILED, WORKLOADS, Output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set up at least MIN_SETUPS times and until the set-ups total SETUP_S wall
# seconds (at most MAX_SETUPS); setup_s is their median.
MIN_SETUPS, MAX_SETUPS, SETUP_S = 3, 9, 4.0


def fresh_cli():
    """Import entwit anew, so its lru caches start empty."""
    for name in [n for n in sys.modules if n == "entwit" or n.startswith("entwit.")]:
        del sys.modules[name]
    return importlib.import_module("entwit.cli")


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return Output(code, out.getvalue(), err.getvalue())


class Verdicts:
    """Outcome of the output checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op, outputs, counted: bool):
        try:
            verdict = op.check(outputs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            verdict = f"unreadable output: {exc!r}"
        if counted:
            self.attempted += 1
            self.failed += verdict == FAILED
        if verdict not in (None, FAILED):
            self.problems.append(f"{op.kind} {op.commands[0]}: {verdict}")


class Timeline:
    """Wall times of commands, converted to reference seconds.

    A command's reference time is its wall time, less the time of the kernel
    runs inside it, times the mean reference speed (`HostSpeed.speed`) of the
    kernel samples around and inside it.  Commands shorter than PERIOD_S
    share the pair of samples taken around them; longer ones are also
    sampled inside, unless `inside` is false.
    """

    def __init__(self, host: HostSpeed, inside: bool = True):
        self.host = host
        self.inside = host.inside if inside else contextlib.nullcontext
        self.before = host.sample()
        self.pending: list[tuple[float, list[float]]] = []
        self.pending_s = 0.0
        self.scaled: list[float] = []       # reference seconds, closed only
        self.wall = 0.0
        self.cpu = 0.0

    def add(self, elapsed: float, inside: list[float] = ()):
        self.pending.append((elapsed, list(inside)))
        self.pending_s += elapsed
        self.wall += elapsed
        if self.pending_s >= PERIOD_S:
            self.close()

    def close(self):
        if not self.pending:
            return
        after = self.host.sample()
        for elapsed, inside in self.pending:
            speeds = [HostSpeed.speed(k) for k in [self.before, after] + inside]
            self.scaled.append(elapsed * statistics.fmean(speeds))
        self.before, self.pending, self.pending_s = after, [], 0.0

    def timed(self, call):
        """Return call(), adding its time to the timeline as one interval."""
        host = self.host
        first, kernel_s = len(host.inside_samples), host.inside_s
        cpu_start, start = time.process_time(), time.perf_counter()
        with self.inside():
            result = call()
        kernel_s = host.inside_s - kernel_s
        elapsed = time.perf_counter() - start - kernel_s
        self.cpu += time.process_time() - cpu_start - kernel_s
        self.add(elapsed, host.inside_samples[first:])
        return result

    def run(self, cli, op) -> list[Output]:
        """Run the commands of one operation, timing each."""
        return [self.timed(lambda: run_command(cli, argv)) for argv in op.commands]


def set_up(workload_cls, seed: int, workdir: Path, sizes: dict, verdicts,
           host: HostSpeed):
    """Import entwit, make the inputs and run one warm-up pass; timed."""
    timeline = Timeline(host)

    def prepare():
        cli = fresh_cli()
        workload = workload_cls(seed, workdir, **sizes)
        return cli, workload, workload.next_pass()

    cli, workload, warm_up = timeline.timed(prepare)
    results = [timeline.run(cli, op) for op in warm_up]
    timeline.close()
    for op, outputs in zip(warm_up, results):
        verdicts.record(op, outputs, counted=False)
    return timeline, cli, workload


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            min_setups: int = MIN_SETUPS, setup_s: float = SETUP_S,
            sizes: dict | None = None) -> dict:
    """Run one workload; return the result object the benchmark prints."""
    workload_cls = WORKLOADS[workload_name]
    verdicts = Verdicts()
    host = HostSpeed()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setup_times, setup_wall = [], []
        while len(setup_times) < min_setups or (
                sum(setup_wall) < setup_s and len(setup_wall) < MAX_SETUPS):
            setup, cli, workload = set_up(workload_cls, seed, Path(tmp),
                                          sizes or {}, verdicts, host)
            setup_times.append(sum(setup.scaled))
            setup_wall.append(setup.wall)

        tracer = Tracer()
        if trace:
            tracer.install()
        cache = getattr(sys.modules["entwit.atlas"], "_line_witness_for_slice", None)
        misses_before = cache.cache_info().misses if cache else 0
        timeline, op_sizes = Timeline(host, inside=not trace), []
        try:
            while timeline.wall < seconds or not op_sizes:
                for op in workload.next_pass():
                    tracer.active = trace
                    outputs = timeline.run(cli, op)
                    tracer.active = False
                    op_sizes.append(len(op.commands))
                    verdicts.record(op, outputs, counted=True)
            timeline.close()
        finally:
            tracer.uninstall()
        misses = (cache.cache_info().misses if cache else 0) - misses_before

    commands = iter(timeline.scaled)
    latencies = [sum(next(commands) for _ in range(n)) for n in op_sizes]
    wall, cpu = timeline.wall, timeline.cpu
    ops_per_s = len(latencies) / sum(latencies)
    sys.stderr.write(
        f"{workload_name} seed={seed} trace={int(trace)}: {len(latencies)} ops "
        f"in {wall:.3f} wall s = {sum(latencies):.3f} reference s; "
        f"reference: {ops_per_s:.4f} ops/s, "
        f"p50 {statistics.median(latencies):.6f} s, "
        f"setups {', '.join(f'{t:.3f}' for t in setup_times)} s; "
        f"wall: {len(latencies) / wall:.4f} ops/s, "
        f"setups {', '.join(f'{t:.3f}' for t in setup_wall)} s; "
        f"kernel p50 {statistics.median(host.inside_samples or [0.0]) * 1e3:.3f} ms "
        f"over {len(host.inside_samples)} samples inside commands\n")
    for problem in verdicts.problems[:10]:
        sys.stderr.write(f"check failed: {problem}\n")

    if trace:
        metrics = tracer.per_layer(len(latencies), wall, cpu, misses)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    return {
        "correct": not verdicts.problems,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("slice-atlas", "battery", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entwit" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no entwit sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
