"""Tests of the end-to-end benchmark itself (tiny workload sizes).

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from catalog import END_TO_END, NAME_RE, PER_LAYER, UNIT_RE, WORKLOADS  # noqa: E402
from tracing import Tracer  # noqa: E402

DETERMINISTIC = [
    name for name, unit in PER_LAYER if unit != "s" and name != "bench.tracing_overhead"
]


def _run(workload: str, trace: int, *, seed: int = 3, cwd: str = ROOT):
    return subprocess.run(
        [
            sys.executable, os.path.join(cwd, "e2ebench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result_of(done: subprocess.CompletedProcess):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def result():
    """``result(workload, trace)``: one tiny run's result, run once per module."""
    cache = {}

    def get(workload: str, trace: int):
        if (workload, trace) not in cache:
            cache[workload, trace] = _result_of(_run(workload, trace))
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_a_unit(result, workload, trace):
    emitted = result(workload, trace)
    assert set(emitted) == {"correct", "attempted", "failed", "metrics"}
    assert emitted["correct"] is True
    assert emitted["failed"] == 0 and emitted["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert list(emitted["metrics"]) == [name for name, _ in expected]
    for name, unit in expected:
        assert NAME_RE.match(name), name
        assert UNIT_RE.match(unit), unit
        metric = emitted["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name


def test_catalog_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in document["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in document["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_routing(result, workload):
    metrics = {k: v["value"] for k, v in result(workload, 1)["metrics"].items()}
    assert (metrics["core.audit_s"] > 0) == (workload == "audited-cell")
    assert (metrics["traceio.write_s"] > 0) == (workload == "traced-scale")
    assert (metrics["campaign.store_append_s"] > 0) == (workload == "campaign-grid")
    assert metrics["simulation.node.send_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counts_repeat_for_one_seed(result, workload):
    first = result(workload, 1)["metrics"]
    second = _result_of(_run(workload, 1))["metrics"]
    assert {k: first[k]["value"] for k in DETERMINISTIC} == {
        k: second[k]["value"] for k in DETERMINISTIC
    }


def test_self_time_on_a_hand_built_span_tree():
    tracer = Tracer()
    root = tracer.add("root", 0.0, 10.0)
    a = tracer.add("a", 1.0, 4.0, root)
    tracer.add("leaf", 2.0, 3.0, a)
    tracer.add("b", 3.5, 6.0, root)  # overlaps a: together they cover [1, 6]
    tracer.add("late", 9.0, 12.0, root)  # only [9, 10] lies inside root
    assert tracer.self_times() == [4.0, 2.0, 1.0, 2.5, 3.0]
    assert tracer.per_name() == {
        "root": (1, 4.0), "a": (1, 2.0), "leaf": (1, 1.0), "b": (1, 2.5), "late": (1, 3.0),
    }


def test_wrapped_calls_record_nested_spans():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", tally=lambda result: result)
    outer = tracer.wrap(lambda: inner(1) + inner(2), "outer")
    tracer.set_run("cell0")
    assert outer() == 5
    names = [tracer.names[n] for n in tracer.name]
    assert names == ["outer", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.tallies == {"inner": 5}
    assert [tracer.runs[r] for r in tracer.run] == ["cell0"] * 3
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert sum(tracer.self_times()) == pytest.approx(durations[0])


def test_opaque_span_hides_the_spans_beneath_it():
    tracer = Tracer()
    inner = tracer.wrap(lambda: 1, "inner", tally=lambda result: result)
    opaque = tracer.wrap(lambda: inner() + inner(), "opaque", opaque=True)
    assert opaque() + inner() == 3
    assert [tracer.names[n] for n in tracer.name] == ["opaque", "inner"]
    assert list(tracer.parent) == [-1, -1]
    assert tracer.tallies == {"inner": 1}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("audited-cell", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
