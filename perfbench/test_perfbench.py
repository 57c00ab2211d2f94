"""Tests of the benchmark's own code.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.outputs import canonical, digest, golden_digests
from perfbench.run import Outcome, measure, measure_traced
from perfbench.tracing import Instrumentation, Tracer, traced_iterator
from perfbench.workloads import AloneBenign, AttackBlockHammer, AttackPara
from repro.api import Session

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------- #
# Self-time arithmetic
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("outer")
    clock.advance(1)
    tracer.enter("inner")
    clock.advance(2)
    tracer.enter("leaf")
    clock.advance(4)
    tracer.exit()
    clock.advance(8)
    tracer.exit()
    tracer.enter("inner")
    clock.advance(16)
    tracer.exit()
    clock.advance(32)
    tracer.exit()

    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert tracer.inclusive_s == {"outer": 63, "inner": 30, "leaf": 4}
    assert tracer.self_s == {"outer": 33, "inner": 26, "leaf": 4}
    assert sum(tracer.self_s.values()) == tracer.inclusive_s["outer"]


def test_span_of_the_open_group_merges_into_it():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("probe")
    clock.advance(1)
    tracer.enter("probe")  # Channel.ready calling Channel.kind_ready
    clock.advance(2)
    tracer.exit()
    clock.advance(4)
    tracer.exit()

    assert tracer.calls == {"probe": 1}
    assert tracer.self_s["probe"] == tracer.inclusive_s["probe"] == 7


def test_generator_spans_cover_each_next_call_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def produce():
        clock.advance(1)
        yield "a"
        tracer.enter("child")
        clock.advance(2)
        tracer.exit()
        clock.advance(4)
        yield "b"
        clock.advance(8)

    traced = traced_iterator(produce, "scan", tracer, "decisions")
    tracer.enter("consumer")
    for _ in traced():
        clock.advance(100)
    tracer.exit()

    assert tracer.calls == {"scan": 3, "child": 1, "consumer": 1}
    assert tracer.counts == {"decisions": 2}
    assert tracer.inclusive_s["scan"] == 1 + 6 + 8
    assert tracer.self_s["scan"] == 1 + 4 + 8
    assert tracer.self_s["consumer"] == 200


def test_abandoned_generator_leaves_no_span_open():
    tracer = Tracer(clock=FakeClock())
    traced = traced_iterator(lambda: iter("abc"), "scan", tracer, "n")
    tracer.enter("consumer")
    for _ in traced():
        break
    tracer.exit()

    assert tracer.calls == {"scan": 1, "consumer": 1}


def test_kept_spans_record_their_kept_parent():
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep=("op", "io"))
    tracer.enter("op")
    tracer.enter("hot")
    tracer.enter("io")
    clock.advance(3)
    tracer.exit()
    tracer.exit()
    tracer.exit()

    assert [(s["name"], s["parent"]) for s in tracer.spans] == [
        ("op", None), ("io", 0)]
    assert tracer.spans[1]["end"] - tracer.spans[1]["start"] == 3


def test_instrumentation_restores_originals_after_an_error():
    class Target:
        def method(self):
            return 1

    original = vars(Target)["method"]
    with pytest.raises(RuntimeError):
        with Instrumentation() as instrumentation:
            instrumentation.replace(Target, "method",
                                    lambda fn: lambda self: 2)
            assert Target().method() == 2
            raise RuntimeError
    assert vars(Target)["method"] is original


# ---------------------------------------------------------------------- #
# Output digests
# ---------------------------------------------------------------------- #
def test_digest_is_independent_of_dict_order():
    one = {"x": 1, 2: [1.5, {"b": None, "a": True}]}
    two = {2: [1.5, {"a": True, "b": None}], "x": 1}
    assert list(one) != list(two)
    assert digest(one) == digest(two)


def test_digest_keeps_distinctions_json_would_lose():
    assert digest({1: 0}) != digest({"1": 0})
    assert digest(1) != digest(1.0)
    assert digest(True) != digest(1)
    assert digest(0.1 + 0.2) != digest(0.3)


def test_digest_covers_dataclass_fields():
    @dataclasses.dataclass
    class Point:
        a: int
        b: dict

    assert digest(Point(1, {"k": 1})) == digest(Point(1, {"k": 1}))
    assert digest(Point(1, {"k": 1})) != digest(Point(1, {"k": 2}))
    with pytest.raises(TypeError):
        canonical(object())


# ---------------------------------------------------------------------- #
# Metric names
# ---------------------------------------------------------------------- #
def test_metric_names_and_units_equal_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.PER_LAYER
    for name in (*layers.END_TO_END, *layers.PER_LAYER):
        assert NAME.fullmatch(name), name


# ---------------------------------------------------------------------- #
# The workloads measure what the harness computes
# ---------------------------------------------------------------------- #
def _session(spec) -> Session:
    return Session(spec, cache_dir="", jobs=1, backend="local")


@pytest.mark.parametrize("workload_type", [AttackPara, AttackBlockHammer])
def test_point_workload_equals_session_run(workload_type):
    workload = workload_type(0, "fast")
    (stats,) = workload.run_once().outputs.values()
    with _session(workload.spec) as session:
        expected = session.run(*workload.point, seed=0)
    assert dataclasses.asdict(stats) == dataclasses.asdict(expected)


def test_alone_workload_equals_session_baselines():
    workload = AloneBenign(0, "fast")
    measured = workload.run_once().outputs
    with _session(workload.spec) as session:
        runner = session.runner
        expected = {f"alone/{trace.name}": runner.alone_baseline(trace)
                    for trace in runner.mix(workload.mix, 0).traces}
    assert {op: dataclasses.asdict(stats) for op, stats in measured.items()} \
        == {op: dataclasses.asdict(stats) for op, stats in expected.items()}


def test_untraced_run_emits_the_end_to_end_metrics():
    outcome = Outcome()
    metrics = measure(AloneBenign(0, "fast"), 1e-3, outcome)
    outcome.verify(golden_digests("alone_benign", 0, "fast"))

    assert outcome.correct, outcome.problems
    assert list(metrics) == list(layers.END_TO_END)
    assert all(value > 0 for value in metrics.values())


def test_traced_run_reproduces_untraced_outputs_and_counts():
    outcome = Outcome()
    metrics, tracers = measure_traced(AloneBenign(0, "fast"), 1e-3, outcome)
    outcome.verify(AloneBenign(0, "cycle").reference_digests())

    assert outcome.correct, outcome.problems
    assert (outcome.attempted, outcome.failed) == (8, 0)
    assert len(tracers) == 1
    assert list(metrics) == list(layers.PER_LAYER)
    # One controller and one core tick per system tick (single-core runs);
    # the fast engine asks for the next event after every tick but each
    # run's first.
    assert metrics["controller.tick_calls"] == metrics["sim.ticks"]
    assert metrics["cpu.core_tick_calls"] == metrics["sim.ticks"]
    assert metrics["sim.fastforward_calls"] == metrics["sim.ticks"] - 4
    assert 0 < metrics["sim.tick_ratio"] < 1
    assert metrics["core.hook_calls"] == 0
    assert metrics["trace.overhead_ratio"] > 1


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack_para"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
