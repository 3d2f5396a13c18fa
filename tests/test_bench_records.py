"""Every committed benchmark record keeps the layout its readers rely on.

A `BENCH_*.json` record backs a speed claim with old/new numbers from the
harness.  Each names what changed and how it was measured, records the
machine it ran on (cores, BLAS and its thread count, the Python, numpy
and scipy versions) and reports every end-to-end metric of `BENCHMARK.json`
on every one of its workloads, so a record that drops a workload, a
metric or the machine shows here instead of drifting silently.
"""

import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
RECORDS = sorted(REPO.glob("BENCH_*.json"))
MACHINE_KEYS = ("cores", "cpu_count", "blas", "blas_version", "blas_threads", "python", "numpy",
                "scipy")


def _benchmark():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    return {w["name"] for w in bench["workloads"]}, {m["name"] for m in bench["end_to_end"]}


def test_the_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_the_change_the_machine_and_every_end_to_end_metric(path):
    record = json.loads(path.read_text())
    for key in ("label", "change", "command", "method"):
        assert record.get(key), f"{path.name}: no {key}"
    machine = record["machine"]
    assert [k for k in MACHINE_KEYS if k not in machine] == [], path.name
    workloads, metrics = _benchmark()
    assert set(record["end_to_end"]) == workloads, path.name
    for name, workload in record["end_to_end"].items():
        assert set(workload["metrics"]) == metrics, f"{path.name}: {name}"
