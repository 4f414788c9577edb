"""The benchmark's own tests (about two minutes):

    python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen_models
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def test_workload_and_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == {name: ("s", "lower") for name, _ in
                   run.END_TO_END + [("total_s", None), ("setup_s", None)]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert per_layer == run.per_layer_metrics()


def test_model_files_regenerate(tmp_path):
    gen_models.main(["--out", str(tmp_path)])
    committed = sorted(p.name for p in (HERE / "models").glob("*.json"))
    assert committed == sorted(p.name for p in tmp_path.glob("*.json"))
    for name in committed:
        assert (tmp_path / name).read_bytes() == (HERE / "models" / name).read_bytes(), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_short_run_passes_its_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        if not trace:
            assert metric["value"] > 0, name


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-heavy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
