"""Smoke test of the pipeline benchmark at tiny sizes.

Runs every workload of BENCHMARK.json untraced and traced through
``run.py`` and checks that each metric the file names comes back with its
unit and that no invocation failed, so the harness cannot rot unnoticed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import generate

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(work: Path, workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny", "--work-dir", str(work)],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads((work / workload / "results.json").read_text(encoding="utf-8"))
    return json.loads(done.stdout.splitlines()[-1]), record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_and_nothing_fails(tmp_path, workload, trace):
    result, record = _run(tmp_path, workload, trace)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert record["check_failures"] == {}
    assert result["failed"] == 0 and record["failed_ops"] == 0
    assert result["attempted"] >= 12
    assert result["correct"]
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        # the subcommand spans cover the traced pass, bar the loop around them
        traced = values["trace.pipeline_s"]
        assert 0.9 * traced <= values["trace.cli_sum_s"] <= traced


def test_same_seed_gives_identical_inputs(tmp_path):
    first, _ = generate.write_workload("corpus", 7, tmp_path / "a", "tiny")
    again, _ = generate.write_workload("corpus", 7, tmp_path / "b", "tiny")
    other, _ = generate.write_workload("corpus", 8, tmp_path / "c", "tiny")
    assert generate.digest(first) == generate.digest(again)
    assert generate.digest(first) != generate.digest(other)
