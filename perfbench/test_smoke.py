"""Smoke test of the benchmark: every workload at its tiny size, traced and untraced.

    python3 -m pytest perfbench/test_smoke.py

Not part of the package's test suite (pytest collects ``tests/`` by default);
it takes about a minute because every invocation starts a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_printed_metrics_match_benchmark_json(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}


def test_tracer_restores_bindings_and_results():
    from spherecov import cli, interpolation, ranktests, sampling, twosample

    z = np.random.default_rng(3).normal(size=40)
    params = sampling.RingDensity(a=0.2)
    before = tracer.bindings()
    plain = (ranktests.signed_rank(z), sampling.rejection_sample(params, 30, np.random.default_rng(1)))

    t = tracer.Tracer()
    t.install()
    try:
        for wrapped in (cli.projections_at, twosample.signed_rank, ranktests.midranks,
                        interpolation.grad_H, cli.main):
            assert hasattr(wrapped, "__wrapped__")
        traced = (ranktests.signed_rank(z),
                  sampling.rejection_sample(params, 30, np.random.default_rng(1)))
    finally:
        t.uninstall()

    assert tracer.bindings() == before
    assert traced[0] == plain[0]
    assert np.array_equal(traced[1], plain[1])
    assert t.counts["sampling.points"] == 30
    assert t.counts["ranktests.signed_rank.normal"] == 1
    # signed_rank calls midranks, so its span is the parent of the midranks span
    names = [t.names[i] for i in t.span_name]
    assert names[:2] == ["ranktests.signed_rank", "ranktests.midranks"]
    assert t.span_parent[1] == 0
