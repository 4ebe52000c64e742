"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest bench -q

They stay out of the tier-1 suite (``testpaths = ["tests"]``): several run
whole episodes and take a minute or two together.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import episode
import layers
import run as bench_run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE_DIR = ROOT / "src" / "repro"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_repro_module_maps_to_a_layer():
    for entry in sorted(PACKAGE_DIR.iterdir()):
        if entry.is_dir() and (entry / "__init__.py").is_file():
            assert layers.layer_of(f"{entry.name}/__init__.py") in layers.LAYERS
        elif entry.suffix == ".py":
            assert layers.layer_of(entry.name) in layers.LAYERS
    assert layers.layer_of("kernel/ebpf/vm.py") == "ebpf"
    assert layers.layer_of("kernel/ops.py") == "kernel"


def test_workload_names_agree_everywhere():
    names = [workload["name"] for workload in SPEC["workloads"]]
    assert names == list(bench_run.WORKLOADS) == list(episode.WORKLOADS)
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    assert list(expected) == names


@pytest.fixture(scope="module")
def plain_and_profiled():
    profiler = cProfile.Profile()
    plain = episode.run("boutique-grpc", 11)
    profiled = episode.run("boutique-grpc", 11, profiler=profiler)
    stats = pstats.Stats(profiler)
    return plain, profiled, stats, layers.Fold(stats, str(PACKAGE_DIR))


def test_profiled_run_simulates_the_same_as_a_plain_run(plain_and_profiled):
    plain, profiled, _, _ = plain_and_profiled
    for key in ("completed", "events", "sent", "failed", "drained", "digest"):
        assert plain[key] == profiled[key], key


def test_fold_covers_the_profiled_time(plain_and_profiled):
    _, _, stats, fold = plain_and_profiled
    assert fold.total >= 0.95 * stats.total_tt
    assert fold.shares()["other"] <= 0.05
    assert fold.shares()["protocols"] > 0.05
    assert fold.calls("protocols.encodes") > 0
    assert fold.calls("ebpf.runs") == 0


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_short_run_passes_the_gate_and_reports_end_to_end_metrics(workload):
    done = invoke(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.1")
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]
    }
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    done = invoke(ROOT, "--workload", "boutique-grpc", "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert result["correct"] is True
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["per_layer"]
    }


def _copy_bench(tmp_path: Path, with_source: bool) -> Path:
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_source:
        os.symlink(ROOT / "src", tmp_path / "src")
    return tmp_path


def test_corrupted_expected_outputs_fail_the_run(tmp_path):
    root = _copy_bench(tmp_path, with_source=True)
    path = root / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["boutique-grpc"]["sim_requests"] += 1
    path.write_text(json.dumps(expected))
    done = invoke(root, "--workload", "boutique-grpc", "--seconds", "0.1")
    assert done.returncode == 1
    assert result_of(done)["correct"] is False
    assert "expected.json" in done.stderr


def test_run_without_the_simulator_source_fails_without_a_result(tmp_path):
    root = _copy_bench(tmp_path, with_source=False)
    done = invoke(root, "--workload", "boutique-grpc", "--seconds", "0.1")
    assert done.returncode != 0
    assert done.stdout == ""
