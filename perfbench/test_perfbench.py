"""Smoke tests of the benchmark itself, at tiny problem sizes.

    python3 -m pytest perfbench/test_perfbench.py

Each workload must print every metric named in BENCHMARK.json with its
unit and no failed op, and a result corrupted on purpose after the solve
must count as a failed op.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()
from workloads import TINY, WORKLOADS  # noqa: E402  (needs p2plreg on the path)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(capsys, tmp_path, workload, trace=0, seconds="0.001"):
    argv = ["--workload", workload, "--seed", "0", "--seconds", seconds, "--trace", str(trace)]
    assert run.main(argv, sizes=TINY, scratch=tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines[:-1]


def _assert_metrics(result, lines, spec):
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert any(line.startswith(f"# {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_print_with_units(capsys, tmp_path, workload):
    result, lines = _run(capsys, tmp_path, workload)
    _assert_metrics(result, lines, SPEC["end_to_end"])
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_layer_metric(capsys, tmp_path):
    result, lines = _run(capsys, tmp_path, "diff-step", trace=1)
    _assert_metrics(result, lines, SPEC["per_layer"])
    assert result["failed"] == 0 and result["correct"]
    assert any((tmp_path / ".perfbench_out").glob("spans-*.jsonl"))


def _corrupt_step(monkeypatch):
    import p2plreg

    solve = p2plreg.register_p2pl

    def rotated(*args, **kwargs):
        report = solve(*args, **kwargs)
        turn = p2plreg.RigidTransform(p2plreg.rodrigues([0.0, 0.0, 0.2]), [0.0, 0.0, 0.0])
        report.transform = p2plreg.compose(turn, report.transform)
        return report

    monkeypatch.setattr(p2plreg, "register_p2pl", rotated)


def _corrupt_icp(monkeypatch):
    import p2plreg
    import p2plreg.cli

    solve = p2plreg.cli.icp

    def skewed(*args, **kwargs):
        report = solve(*args, **kwargs)
        t = report.transform
        report.transform = p2plreg.RigidTransform(1.01 * t.rotation, t.translation)
        return report

    monkeypatch.setattr(p2plreg.cli, "icp", skewed)


def _corrupt_gradients(monkeypatch):
    import dataclasses

    import p2plreg.cli

    backward = p2plreg.cli.backward

    def scaled(*args, **kwargs):
        bundle = backward(*args, **kwargs)
        return dataclasses.replace(bundle, d_g_d_x=1.1 * bundle.d_g_d_x)

    monkeypatch.setattr(p2plreg.cli, "backward", scaled)


CORRUPT = {
    "icp-register": _corrupt_icp,
    "diff-step": _corrupt_step,
    "soft-step": _corrupt_step,
    "gradcheck": _corrupt_gradients,
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_result_counts_as_failed(capsys, tmp_path, monkeypatch, workload):
    CORRUPT[workload](monkeypatch)
    result, _ = _run(capsys, tmp_path, workload)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "diff-step", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
