"""Session streaming aggregation: bit-identical to an executor-free reference.

The contract pinned here (acceptance criterion of the repro.api redesign):
every figure computed through the futures/streaming surface
(:meth:`repro.api.Session.figure` / :meth:`figures`) is **bit-identical**
to folding the figure's per-seed frames with nothing submitted, so the
frame builders simulate every run on demand, serially — on the serial
executor and the ``jobs=2`` process pool, against a cold and a warm
on-disk run cache.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.aggregate import aggregate_figures, aggregate_headlines
from repro.api import ExperimentSpec, RunPoint, Session, iter_completed

#: Small enough for tier-1, big enough to exercise attack + benign grids,
#: baselines, and per-trace alone-IPC sharding.
SPEC = ExperimentSpec.tiny(mechanisms=("para", "rfm"))

#: The streamed-vs-reference equivalence matrix runs these figures: a per-mix
#: ratio figure (alone-IPC baselines), an energy sweep (no alone), and the
#: motivation figure (no-mitigation baseline runs).
FIGURE_IDS = ("fig6", "fig12", "fig2")

FIG2_KWARGS = dict(mechanisms=["para", "rfm"])


def legacy_figures() -> dict:
    """The executor-free reference: no plan is submitted or resolved.

    Each figure folds its frames over the plan's seeds straight away, so
    the frame builders simulate every run on demand, serially, with
    hermetic caches — independent of the dispatch path under test.
    """

    with Session(SPEC, jobs=1, cache_dir="") as session:
        runner = session.runner

        def fold(figure_id, **kwargs):
            plan = runner.figure_plan(figure_id, **kwargs)
            return aggregate_figures([runner.figure_frame(plan, seed)
                                      for seed in plan.seeds]).as_dict()

        headline = runner.figure_plan("headline")
        return {
            "fig6": fold("fig6"),
            "fig12": fold("fig12"),
            "fig2": fold("fig2", **FIG2_KWARGS),
            "headline": aggregate_headlines(
                [runner._headline_frame(headline, seed)
                 for seed in headline.seeds]),
        }


@pytest.fixture(scope="module")
def reference() -> dict:
    return legacy_figures()


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "jobs2"])
def test_streamed_figures_bit_identical_to_batch(jobs, reference):
    with Session(SPEC, jobs=jobs, cache_dir="") as session:
        assert session.jobs == jobs
        assert session.figure("fig6").as_dict() == reference["fig6"]
        assert session.figure("fig12").as_dict() == reference["fig12"]
        assert session.figure("fig2", **FIG2_KWARGS).as_dict() \
            == reference["fig2"]
        assert session.headline_numbers() == reference["headline"]


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "jobs2"])
def test_streamed_figures_cold_and_warm_cache(jobs, reference, tmp_path):
    cache_dir = str(tmp_path / "cache")
    # Cold cache: everything simulates, results land on disk.
    with Session(SPEC, jobs=jobs, cache_dir=cache_dir) as cold:
        cold_results = cold.figures(
            FIGURE_IDS, fig2=FIG2_KWARGS,
        )
        executed = cold.runs_executed
        assert executed > 0
    for figure_id in FIGURE_IDS:
        assert cold_results[figure_id].as_dict() == reference[figure_id]
    # Warm cache: a fresh session simulates nothing and still matches.
    with Session(SPEC, jobs=jobs, cache_dir=cache_dir) as warm:
        warm_results = warm.figures(FIGURE_IDS, fig2=FIG2_KWARGS)
        assert warm.runs_executed == 0
    for figure_id in FIGURE_IDS:
        assert warm_results[figure_id].as_dict() == reference[figure_id]


def test_overlapped_figures_match_individual(reference):
    """figures() (shared submission, early aggregation) changes nothing."""

    with Session(SPEC, jobs=2, cache_dir="") as session:
        combined = session.figures(FIGURE_IDS, fig2=FIG2_KWARGS)
    for figure_id in FIGURE_IDS:
        assert combined[figure_id].as_dict() == reference[figure_id]


class TestHandles:
    def test_submit_deduplicates_inflight_points(self):
        with Session(SPEC, jobs=1, cache_dir="") as session:
            first = session.submit("MMLA", "para", 64, True)
            second = session.submit("MMLA", "para", 64, True)
            assert first is second
            stats = first.result()
            assert session.runs_executed == 1
            # A fresh handle over the now-cached point is born completed.
            third = session.submit("MMLA", "para", 64, True)
            assert third.done()
            assert dataclasses.asdict(third.result()) \
                == dataclasses.asdict(stats)

    def test_submit_grid_one_handle_per_distinct_point(self):
        points = [
            RunPoint("MMLA", "para", 64, False),
            RunPoint("MMLA", "para", 64, False),   # duplicate
            RunPoint("MMLA", "rfm", 64, False),
        ]
        with Session(SPEC, jobs=1, cache_dir="") as session:
            handles = session.submit_grid(points)
            assert len(handles) == 2
            for handle in iter_completed(handles):
                handle.result()
            assert session.runs_executed == 2

    def test_alone_baselines_are_first_class_points(self):
        """Per-trace alone-IPC handles shard through the same pool."""

        with Session(SPEC, jobs=2, cache_dir="") as session:
            handles = session.submit_alone("MMLA")
            mix = session.runner.mix("MMLA")
            assert len(handles) == len(mix.traces)
            ipcs = {h.key: h.result().ipc for h in iter_completed(handles)}
            # The merged futures agree with the serial reference API.
            for trace in mix.traces:
                assert session.runner.alone_ipc(trace) \
                    == ipcs[(trace.name, len(trace))]

    def test_pool_and_serial_handles_agree(self):
        with Session(SPEC, jobs=1, cache_dir="") as serial, \
                Session(SPEC, jobs=2, cache_dir="") as pool:
            lhs = serial.run("MMLA", "rfm", 64, True)
            rhs = pool.run("MMLA", "rfm", 64, True)
            assert dataclasses.asdict(lhs) == dataclasses.asdict(rhs)

    def test_stream_callback_sees_every_handle(self):
        seen = []
        with Session(SPEC, jobs=1, cache_dir="") as session:
            figure = session.stream("fig6", on_result=seen.append)
        plan = None
        with Session(SPEC, jobs=1, cache_dir="") as session:
            plan = session.runner.figure_plan("fig6")
        alone_traces = 4  # MMLA: three benign + one attacker trace
        assert len(seen) == len(set(plan.runs)) + alone_traces
        assert figure.as_dict() == legacy_figures()["fig6"]


class TestTables:
    def test_tables_exposed(self):
        with Session(SPEC, jobs=1, cache_dir="") as session:
            assert len(session.table("table1")) > 0
            assert len(session.table("hw")) > 0
            with pytest.raises(ValueError):
                session.table("table99")

    def test_unknown_figure_rejected(self):
        with Session(SPEC, jobs=1, cache_dir="") as session:
            with pytest.raises(ValueError):
                session.figure("fig99")


class TestSessionStats:
    def test_local_backend_returns_useful_counters(self):
        with Session(ExperimentSpec.tiny(), cache_dir="") as session:
            session.run("MMLA", "para", 64)
            stats = session.stats()
        assert stats["jobs"] == 1
        assert stats["engine"] == session.engine
        assert stats["runs_executed"] == 1
        assert stats["fingerprint"] == session.fingerprint
        assert stats["cache"] is None  # disabled cache is explicit

    def test_cache_counters_nested(self, tmp_path):
        with Session(ExperimentSpec.tiny(),
                     cache_dir=str(tmp_path)) as session:
            session.run("MMLA", "para", 64)
            stats = session.stats()
        assert stats["cache"]["entries"] == 1
        assert stats["cache"]["writes"] == 1
