"""Self-tests of the benchmark at smoke size.

    python3 -m pytest perfbench -q

Every workload must print exactly the metrics BENCHMARK.json names, with
their units; a deliberately corrupted result must be counted as failed; a
missing trace hook must be reported, not crash the run; and the benchmark
must refuse to run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans      # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT) -> tuple[int, dict | None, str]:
    cmd = [sys.executable, *SPEC["command"][1:], "--seed", "3", "--seconds", "0.2", *args]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, result, out.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric(workload, trace):
    code, result, err = _run("--workload", workload, "--trace", str(trace), "--smoke")
    assert code == 0, err
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float))
        if not trace:
            assert m["value"] > 0, name


@pytest.mark.parametrize("workload,corruption", [
    ("cube-n12", "word-code"), ("orbit-unfold", "residual"), ("exact-geometry", "period")])
def test_corrupted_result_is_counted(workload, corruption):
    code, result, err = _run("--workload", workload, "--smoke", "--corrupt", corruption)
    assert code == 0, err
    assert result["correct"] is False
    assert result["failed"] == 1


def test_refuses_to_run_without_package_sources():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "cube-n12",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=170, env=env)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_missing_hook_is_reported(monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + [
        ("gone", "polybilliard.billiard", "no_such_kernel")])
    monkeypatch.setitem(spans.NEEDS, "billiard.step_s", ["gone"])
    from polybilliard import billiard
    original = billiard.orbit
    tracer = spans.Tracer()
    with tracer:
        assert billiard.orbit is not original
        lo = tracer.mark()
        P = workloads.geometry.load_polyhedron(workloads.box_json())
        x = billiard.phase_point(P, [0.3171, 0.4419, 0.0], [0.21, 0.33, 1.0], face="z0")
        assert billiard.orbit(x, 20, P).completed
        metrics = tracer.layer_metrics(lo, tracer.mark())
    assert billiard.orbit is original
    assert tracer.missing == ["gone"]
    assert tracer.missing_metrics() == ["billiard.step_s"]
    assert metrics["billiard.step_s"] == 0.0
    assert metrics["billiard.bounces"] == 19
    assert metrics["geometry.first_hit_calls"] == 20


def test_box_oracle_matches_hand_computed_periods():
    # the rational directions and periods of the acceptance suite's tube criterion
    cube = [((0, 0, 1), 2), ((1, 0, 1), 4), ((1, 1, 1), 6), ((2, 0, 1), 6), ((1, 2, 2), 10)]
    box = [((2, 0, 1), 4), ((2, 1, 1), 6), ((4, 0, 1), 6), ((2, 2, 1), 8), ((4, 1, 0), 6)]
    for dims, cases in (((1, 1, 1), cube), ((2, 1, 1), box)):
        for d, period in cases:
            assert workloads.box_period(dims, d) == period, (dims, d)


def test_box_oracle_word_matches_scalar_orbit():
    from polybilliard import billiard
    P = workloads.geometry.load_polyhedron(workloads.box_json((2, 1, 1)))
    d = [1, 2, -2]
    m = [0.7, 0.0, 0.35]
    word, gap = workloads.box_word((2, 1, 1), "y0", m, d, 25)
    assert gap > 1e-6
    rec = billiard.orbit(billiard.phase_point(P, m, d, face="y0"), 25, P)
    assert rec.word == word
