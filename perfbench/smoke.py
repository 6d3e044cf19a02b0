"""Smoke test of the benchmark: every workload at a toy size, with its output
checks and both metric sets, and no timing gate.

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

It is not named test_*.py, so the repository's own pytest run does not
collect it.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)
import tracing  # noqa: E402

TOY_SIZES = {
    "slice-atlas": {"grid": 6, "sample": 4},
    "battery": {"samples": 2000},
    "queries": {},
}
END_TO_END = {"setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb"}


def _toy(workload: str, trace: bool) -> dict:
    return run.measure(workload, seed=7, seconds=0.0, trace=trace, min_setups=1,
                       setup_s=0.0, sizes=TOY_SIZES[workload])


def _expect_clean(result: dict, workload: str):
    assert result["correct"], workload
    assert result["attempted"] >= 1
    # the only failures kept on purpose: 10^k W_I, k = 5..8, in every
    # 131-command queries pass
    expected_failed = 4 * result["attempted"] // 131 if workload == "queries" else 0
    assert result["failed"] == expected_failed, result


def test_end_to_end_metrics():
    for workload in TOY_SIZES:
        result = _toy(workload, trace=False)
        _expect_clean(result, workload)
        assert set(result["metrics"]) == END_TO_END
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics():
    names = None
    for workload in TOY_SIZES:
        result = _toy(workload, trace=True)
        _expect_clean(result, workload)
        names = names or set(result["metrics"])
        assert set(result["metrics"]) == names
        calls = result["metrics"]["cli.main.calls"]["value"]
        assert calls >= 1, workload
    assert len(names) == 55


def test_tracer_restores_numpy():
    import numpy as np

    run.fresh_cli()
    original = np.linalg.eigvalsh
    tracer = tracing.Tracer()
    tracer.install()
    assert np.linalg.eigvalsh is not original
    tracer.uninstall()
    assert np.linalg.eigvalsh is original


if __name__ == "__main__":
    for test in (test_end_to_end_metrics, test_per_layer_metrics,
                 test_tracer_restores_numpy):
        test()
        print(f"{test.__name__}: ok")
