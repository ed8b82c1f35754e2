"""Smoke test of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py``.
It is not collected by tier-1 (``testpaths = ["tests"]``) and must stay
that way: it starts servers and takes tens of seconds.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from dataset import SMOKE_TRIPLES, Dataset, schedule_sha256  # noqa: E402

SEED = 93259
WORKLOADS = ("load_reify", "point_zipf", "analytic_mix", "serve_read",
             "serve_mixed")


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed",
         str(SEED), "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text(encoding="utf-8"))


def test_declares_the_five_workloads(declared):
    assert tuple(w["name"] for w in declared["workloads"]) == WORKLOADS


def test_every_declared_metric_is_reported_and_finite(declared, report):
    for workload in WORKLOADS:
        entry = report["workloads"][workload]
        for key in ("end_to_end", "per_layer"):
            names = [metric["name"] for metric in declared[key]]
            assert sorted(entry[key]) == sorted(names), (workload, key)
            for name, value in entry[key].items():
                assert math.isfinite(value), (workload, name)


def test_end_to_end_metrics_are_never_zero(declared, report):
    for workload in WORKLOADS:
        for name, value in report["workloads"][workload][
                "end_to_end"].items():
            assert value > 0, (workload, name)


def test_no_operation_fails(report):
    for workload in WORKLOADS:
        for key in ("end_to_end_ops", "per_layer_ops"):
            ops = report["workloads"][workload][key]
            assert ops["attempted"] >= 1
            assert ops["failed"] == 0, (workload, key, ops["warnings"])


def test_report_is_stamped(report):
    for key in ("nproc", "cpu", "python", "sqlite", "platform",
                "git_commit", "git_dirty", "seed"):
        assert key in report["env"]
    assert set(report["control"]) == {"control.sqlite_pk_us",
                                      "control.pyloop_ms"}


def test_schedule_depends_on_the_seed_and_nothing_else(report, tmp_path):
    def point_sha(seed: int) -> str:
        dataset = Dataset(seed, SMOKE_TRIPLES, str(tmp_path / "s.nt"))
        return schedule_sha256(dataset.point_schedule())

    assert point_sha(SEED) == report["schedule_sha256"]["point_zipf"]
    assert point_sha(SEED + 1) != report["schedule_sha256"]["point_zipf"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark the command must fail
    without printing a result."""
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (copy / source.name).write_bytes(source.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "point_zipf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert done.returncode != 0
    assert not done.stdout.strip()
