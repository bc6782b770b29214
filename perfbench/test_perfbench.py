"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench -q

The smoke test runs a minimal pass of every workload, traced and untraced
(about five minutes on two cores); the anchor test runs ROADMAP's T2 with
the default Budget (about seven seconds).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 1


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_lists_match_benchmark_json():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(
        workloads.WORKLOADS)


def test_property_names_match_verify():
    from pilip.verify import PROPERTIES

    assert [name for name, _, _ in PROPERTIES] == tracing.PROPERTY_NAMES


def test_anchor_t2_bracket(tmp_path):
    """At the default seed the summing workload's first instance is ROADMAP's
    T2, and the CLI with the default Budget reproduces its bracket."""
    first = workloads.build("summing", 0, str(tmp_path))[0][0]
    assert first.name == "t2/0"
    src = tmp_path / "t2_0.json"
    assert src.exists()
    out = tmp_path / "anchor.json"
    from pilip import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.cli_main(["summing", str(src), "--seed", "0", "--p", "2",
                             "--json-out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["certified_lower"] == pytest.approx(2.70161, abs=1e-5)
    assert result["certified_upper"] == pytest.approx(4.22071, abs=1e-5)


def test_tracer_counts_calls_and_restores_bindings():
    import pilip
    from pilip import formnorm, summing
    from pilip.verify import lambda_n

    before = (pilip.operator_norm, summing.operator_norm, formnorm.operator_norm)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert summing.operator_norm is not before[1]
        pilip.operator_norm(lambda_n(2))
        summing.operator_norm(lambda_n(3))
    finally:
        tracer.uninstall()
    assert (pilip.operator_norm, summing.operator_norm, formnorm.operator_norm) == before
    calls, self_s, total_s, _ = tracer.drain()
    assert calls["formnorm.operator_norm"] == 2
    assert 0 < self_s["formnorm.operator_norm"] <= total_s["formnorm.operator_norm"]
    assert tracer.spans == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(HELD_OUT_SEED), "--seconds", "0",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    assert record["seed"] == HELD_OUT_SEED and record["machine"]["blas_env"][
        "OPENBLAS_NUM_THREADS"] == "1"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    else:
        lp_calls = values["simplex.solve_lp.calls"]
        assert (lp_calls > 0) == (workload in ("summing", "verify"))


def test_check_fails_a_bracket_without_positive_lower_end():
    ok = workloads.Outcome(b"", [(1.0, 2.0)])
    assert workloads.check(ok, None) == []
    for bracket in [(0.0, 2.0), (-1.0, 2.0), (1.0, math.inf), (3.0, 2.0)]:
        assert len(workloads.check(workloads.Outcome(b"", [bracket]), None)) == 1


def test_run_killed_at_its_deadline_still_reports():
    """A run whose deadline falls before its minimum of passes prints the
    result from the passes it finished, with the interrupted instance
    failed."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "run.SETUP_SAMPLES, run.DEADLINE_S = 1, 8.0; "
            "sys.argv = ['run.py', '--workload', 'denominator', '--seed', '0', "
            "'--seconds', '20', '--trace', '0']; sys.exit(run.main())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-2])["record"]["killed"]
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert [k for k in result["metrics"]] == [m["name"] for m in _spec()["end_to_end"]]


def test_refuses_tree_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "summing", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
