"""Smoke test of the end-to-end benchmark (not collected by tier-1: run it
with ``python3 benchmarks/e2e/run.py --self-test``).  Small sizes only:
scale 0.02 and 32 workers, under 30 s in all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HARNESS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(HARNESS_DIR))

import catalog  # noqa: E402
from loadgen import make_schedule  # noqa: E402

RUN = [sys.executable, str(HARNESS_DIR / "run.py")]
SMALL = ["--workload", "kv_write", "--scale", "0.02", "--n", "32"]
EXACT = ("lat_p50_ms", "lat_p99_ms", "msgs_per_req", "wire_bytes_per_req")


def run(*args: str, env=None) -> str:
    done = subprocess.run(
        RUN + list(args), stdout=subprocess.PIPE, check=True, timeout=120, env=env
    )
    return done.stdout.decode()


@pytest.fixture(scope="module")
def document() -> dict:
    return json.loads(run(*SMALL, "--seed", "3").splitlines()[-1])


def test_benchmark_json_restates_the_catalog():
    recorded = json.loads((HARNESS_DIR.parents[1] / "BENCHMARK.json").read_text())
    assert recorded == catalog.benchmark_json()


def test_list_names_every_metric():
    lines = run("--list").splitlines()
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert any(line.split()[:2] == [metric.name, metric.unit] for line in lines if line.strip())


def test_schedule_follows_the_seed():
    workload = catalog.WORKLOAD_BY_NAME["churn"]
    assert make_schedule(workload, 5, 0.5) == make_schedule(workload, 5, 0.5)
    assert make_schedule(workload, 5, 0.5) != make_schedule(workload, 6, 0.5)
    assert make_schedule(workload, 5, 0.5).fault_times


def test_every_metric_is_present_with_a_unit(document):
    assert document["correct"] and document["failed"] == 0
    for section, metrics in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.PER_LAYER)):
        assert list(document[section]) == [m.name for m in metrics]
        for metric in metrics:
            entry = document[section][metric.name]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["value"], float)
    assert all(document["end_to_end"][m.name]["value"] > 0 for m in catalog.END_TO_END)


def test_same_seed_repeats_exactly_in_the_contract_form(document):
    line = json.loads(run(*SMALL, "--seed", "3", "--trace", "0").splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(line["metrics"]) == sorted(m.name for m in catalog.END_TO_END)
    for name in EXACT:
        assert line["metrics"][name]["value"] == document["end_to_end"][name]["value"]


def test_profile_samples_all_land_on_a_layer():
    env = dict(os.environ, PYTHONHASHSEED="0")
    traced = json.loads(run("--child", "traced", *SMALL, "--seed", "3", env=env))
    metrics = traced["metrics"]
    charged = sum(metrics[f"{layer}.self_us_per_req"] for layer in catalog.LAYERS_PROFILED)
    assert charged == pytest.approx(metrics["harness.cpu_us_per_req"], rel=0.01)
