"""Self-test of the benchmark on the smallest corpus the protocol accepts
(4 subjects, 2 per group, 2 images each).

Run from the repository root:

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from graphsift import evaluation, matcher, sift  # noqa: E402

SMALL = bench.Sizes(
    enroll=bench.CorpusSize(4, 2, 128), protocol=bench.CorpusSize(4, 2, 128)
)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CLAIMS_PER_CONSTRAINT = 8  # 4 probes x 2 enrolled subjects of their group


def small_run(workload: str, traced: bool = False) -> bench.Run:
    return bench.run_workload(workload, 42, 0, traced, SMALL)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_metrics_units_and_fingerprint(workload):
    timed = small_run(workload)
    again = small_run(workload)
    traced = small_run(workload, traced=True)
    for run, spec in ((timed, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        result = run.result_line()
        assert result["correct"], (run.errors, run.check_failures)
        assert result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in spec}
        json.dumps(result, allow_nan=False)
    assert all(m["value"] > 0 for m in timed.result_line()["metrics"].values())
    assert timed.fingerprint == again.fingerprint == traced.fingerprint


def nan_once(fn):
    """``fn`` whose first non-self match scores NaN."""
    hit = []

    def patched(g_gallery, g_probe, *args, **kwargs):
        score = fn(g_gallery, g_probe, *args, **kwargs)
        if g_gallery is not g_probe and not hit:
            hit.append(True)
            return replace(score, combined=math.nan)
        return score

    return patched


def raise_on_call(fn, n: int):
    """``fn`` that raises on its n-th call."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(True)
        if len(calls) == n:
            raise RuntimeError("forced failure")
        return fn(*args, **kwargs)

    return patched


@pytest.mark.parametrize(
    "workload, module, name",
    [("verify", evaluation, "match"), ("identify", matcher, "match")],
)
def test_forced_nan_counts_as_failed_op(monkeypatch, workload, module, name):
    monkeypatch.setattr(module, name, nan_once(getattr(module, name)))
    run = small_run(workload)
    assert run.failed == 1
    assert not run.result_line()["correct"]


@pytest.mark.parametrize(
    "workload, module, name, n, failed",
    [
        ("enroll", sift, "extract_features", 2, 1),
        ("verify", evaluation, "run_protocol", 1, CLAIMS_PER_CONSTRAINT),
        ("identify", matcher, "identify", 1, 1),
    ],
)
def test_forced_exception_counts_as_failed_op(monkeypatch, workload, module, name, n, failed):
    monkeypatch.setattr(module, name, raise_on_call(getattr(module, name), n))
    run = small_run(workload)
    assert run.failed == failed
    assert run.attempted > failed
    assert any("forced failure" in e for e in run.errors)


def test_fails_without_library_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
