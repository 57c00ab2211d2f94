"""Cost-aware cluster scheduling, elasticity, and the fault-path bounds.

Contracts pinned here:

* the :class:`~repro.cluster.costs.CostModel` cold-start statics order
  work sensibly (cycle > fast, grid run > alone baseline), the EWMA
  folds observations as specified, and the learned table
  round-trips through its JSON persistence (corrupt files fall back to
  statics);
* the broker's cost queue dispatches longest-job-first and chunks cheap
  points, while ``fifo`` mode preserves submission order with no chunks;
* a deterministic *poison point* (a task that kills every worker that
  claims it) fails its future with a diagnostic naming the task and the
  killed workers after the requeue bound — and the sweep's other points
  still complete;
* a worker flooding >64KiB of stderr cannot deadlock a campaign against
  its own un-drained pipe;
* one cost-scheduled heterogeneous mini-sweep (grid runs + alone
  baselines, elastic two-worker fleet) is bit-identical to the serial
  path with the scheduling counters live (``sched_smoke``);
* ``_LazyFuture.result(timeout)`` honours the timeout after the fact
  (the thunk cannot be preempted) instead of silently ignoring it.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError

import pytest

from repro.analysis.executor import (
    TASK_ALONE,
    TASK_RUN,
    RunTask,
    _LazyFuture,
)
from repro.analysis.experiments import HarnessConfig
from repro.api import ExperimentSpec, Session
from repro.cluster import ClusterTaskError, CostModel, cluster_broker
from repro.cluster.broker import ClusterBroker, _CostQueue
from repro.cluster.worker import POISON_NRH_ENV, STDERR_FLOOD_ENV

SPEC = ExperimentSpec.tiny()

TIMEOUT = 120.0

TINY_CONFIG = dict(sim_cycles=1_500, entries_per_core=600,
                   attacker_entries=800, jobs=1, cache_dir="")


def tiny_config(**overrides) -> HarnessConfig:
    return HarnessConfig(**{**TINY_CONFIG, **overrides})


def run_task(nrh: int = 64, mechanism: str = "para",
             mix: str = "MMLA") -> RunTask:
    return RunTask(kind=TASK_RUN, mix_name=mix, mechanism=mechanism,
                   nrh=nrh)


# ---------------------------------------------------------------------- #
# Cost model units
# ---------------------------------------------------------------------- #
class TestCostModel:
    def test_cold_start_orders_engines_and_kinds(self):
        fast = CostModel(tiny_config(engine="fast"))
        cycle = CostModel(tiny_config(engine="cycle"))
        grid = run_task()
        alone = RunTask(kind=TASK_ALONE, mix_name="MMLA", trace_index=0)
        # The cycle engine steps every DRAM cycle; a four-core grid run
        # simulates more entries than a single alone trace.
        assert cycle.predict(grid) > fast.predict(grid)
        assert fast.predict(grid) > fast.predict(alone)
        assert cycle.predict(alone) > fast.predict(alone)

    def test_cold_start_nrh_pressure(self):
        model = CostModel(tiny_config())
        assert model.predict(run_task(nrh=64)) \
            > model.predict(run_task(nrh=4096))

    def test_ewma_update(self):
        model = CostModel(tiny_config(), alpha=0.5)
        task = run_task()
        model.observe(task, 1.0)
        assert model.predict(task) == pytest.approx(1.0)
        model.observe(task, 2.0)
        # 0.5 * 2.0 + 0.5 * 1.0
        assert model.predict(task) == pytest.approx(1.5)
        assert model.observations == 2
        # Non-durations are ignored, never folded in.
        model.observe(task, None)
        model.observe(task, -1.0)
        assert model.predict(task) == pytest.approx(1.5)

    def test_mechanism_class_shares_one_key(self):
        # The EWMA key groups by mechanism *class*: an observation of one
        # tracked mechanism warms the prediction of another.
        model = CostModel(tiny_config())
        model.observe(run_task(mechanism="para"), 3.0)
        assert model.predict(run_task(mechanism="graphene")) \
            == pytest.approx(3.0)
        # But not across classes: blockhammer (gating) stays static.
        static = CostModel(tiny_config()).predict(
            run_task(mechanism="blockhammer"))
        assert model.predict(run_task(mechanism="blockhammer")) \
            == pytest.approx(static)

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "costs.json"
        model = CostModel(tiny_config(), path=path)
        task = run_task()
        model.observe(task, 2.5)
        model.save()
        assert path.exists()
        warm = CostModel(tiny_config(), path=path)
        assert warm.predict(task) == pytest.approx(2.5)
        assert len(warm) == 1

    def test_corrupt_or_foreign_table_falls_back_to_static(self, tmp_path):
        path = tmp_path / "costs.json"
        static = CostModel(tiny_config()).predict(run_task())
        for garbage in ("not json at all", '{"version": 99}', '[1,2,3]'):
            path.write_text(garbage, encoding="utf-8")
            model = CostModel(tiny_config(), path=path)
            assert model.predict(run_task()) == pytest.approx(static)
            assert len(model) == 0


# ---------------------------------------------------------------------- #
# The cost queue: LJF order, chunking, fifo baseline
# ---------------------------------------------------------------------- #
class TestCostQueue:
    def test_longest_job_first(self):
        q = _CostQueue()
        q.put("cheap", cost=0.1)
        q.put("dear", cost=5.0)
        q.put("mid", cost=2.0)
        order = [q.claim(1, 0.75, timeout=0.1)[0] for _ in range(3)]
        assert order == ["dear", "mid", "cheap"]

    def test_cheap_points_chunk_and_expensive_dispatch_solo(self):
        q = _CostQueue()
        q.put("dear", cost=5.0)
        for name in ("a", "b", "c", "d", "e"):
            q.put(name, cost=0.1)
        assert q.claim(4, 0.75, timeout=0.1) == ["dear"]
        assert q.claim(4, 0.75, timeout=0.1) == ["a", "b", "c", "d"]
        assert q.claim(4, 0.75, timeout=0.1) == ["e"]

    def test_solo_requeues_never_rechunk(self):
        q = _CostQueue()
        q.put("requeued", cost=0.1, solo=True)
        q.put("fresh", cost=0.1)
        assert q.claim(4, 0.75, timeout=0.1) == ["requeued"]
        assert q.claim(4, 0.75, timeout=0.1) == ["fresh"]

    def test_fifo_mode_preserves_order_without_chunks(self):
        q = _CostQueue(fifo=True)
        q.put("first", cost=0.1)
        q.put("second", cost=9.0)
        q.put("third", cost=0.1)
        claims = [q.claim(4, 0.75, timeout=0.1) for _ in range(3)]
        assert claims == [["first"], ["second"], ["third"]]

    def test_empty_claim_times_out(self):
        assert _CostQueue().claim(4, 0.75, timeout=0.01) == []


# ---------------------------------------------------------------------- #
# Requeue bound (broker unit — no worker processes)
# ---------------------------------------------------------------------- #
class TestRequeueBound:
    def test_bound_fails_future_with_killers_named(self):
        broker = ClusterBroker(tiny_config(backend="local"))
        try:
            future = broker.submit(run_task())
            for worker in ("worker-1", "worker-2", "worker-3"):
                broker._requeue(run_task(), worker)
                assert not future.done()
            broker._requeue(run_task(), "worker-4")
            assert future.done()
            with pytest.raises(ClusterTaskError) as excinfo:
                future.result()
            message = str(excinfo.value)
            assert "requeue bound" in message
            assert "run[MMLA/para/nrh=64/seed=0]" in message
            for worker in ("worker-1", "worker-2", "worker-3", "worker-4"):
                assert worker in message
            assert broker.requeued_points == 4
        finally:
            broker.stop()

    def test_requeues_are_thread_safe_under_the_lock(self):
        # The counter and the entry mutate under one lock: hammering
        # _requeue from many threads loses no increments (the old code
        # mutated entry.requeues outside the lock).
        import threading

        broker = ClusterBroker(tiny_config(backend="local"),
                               max_requeues=10_000)
        try:
            broker.submit(run_task())
            threads = [
                threading.Thread(
                    target=lambda: [broker._requeue(run_task(), "w")
                                    for _ in range(100)])
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert broker.requeued_points == 800
            assert broker._entries[run_task()].requeues == 800
        finally:
            broker.stop()


# ---------------------------------------------------------------------- #
# Poison point and stderr flood (real worker processes)
# ---------------------------------------------------------------------- #
class TestPoisonPoint:
    def test_poison_fails_after_bound_and_other_points_complete(
            self, monkeypatch):
        # Every spawned worker inherits the poison hook: claiming the
        # nrh=64 grid point is instant death, every other point computes
        # normally.  The poisoned future must fail with the evidence
        # after the requeue bound while the good point still completes.
        monkeypatch.setenv(POISON_NRH_ENV, "64")
        with Session(SPEC, backend="cluster", workers=1,
                     cache_dir="") as session:
            good = session.submit("MMLA", "para", 1024, False)
            bad = session.submit("MMLA", "para", 64, False)
            with pytest.raises(ClusterTaskError,
                               match="requeue bound") as excinfo:
                bad.result(timeout=TIMEOUT)
            assert "worker-" in str(excinfo.value)
            stats = good.result(timeout=TIMEOUT)
            broker = cluster_broker(session)
            assert broker.requeued_points >= broker.max_requeues + 1
        with Session(SPEC, jobs=1, cache_dir="") as serial:
            expected = serial.run("MMLA", "para", 1024, False)
        assert dataclasses.asdict(stats) == dataclasses.asdict(expected)


class TestStderrFlood:
    def test_flooding_worker_cannot_stall_the_campaign(self, monkeypatch):
        # 256KiB of startup diagnostics — four times the OS pipe buffer.
        # Before the drain thread, the worker deadlocked mid-print and
        # the sweep hung forever.
        monkeypatch.setenv(STDERR_FLOOD_ENV, str(256 * 1024))
        with Session(SPEC, backend="cluster", workers=1,
                     cache_dir="") as session:
            stats = session.submit("MMLA", "para", 64, False) \
                .result(timeout=TIMEOUT)
        with Session(SPEC, jobs=1, cache_dir="") as serial:
            expected = serial.run("MMLA", "para", 64, False)
        assert dataclasses.asdict(stats) == dataclasses.asdict(expected)


# ---------------------------------------------------------------------- #
# Cost-scheduled heterogeneous mini-sweep (the sched_smoke tier)
# ---------------------------------------------------------------------- #
@pytest.mark.sched_smoke
class TestSchedulingSmoke:
    def test_heterogeneous_sweep_cost_scheduled_bit_identical(self):
        with Session(SPEC, jobs=1, cache_dir="") as serial:
            reference = serial.figure("fig6", nrh=64)
        with Session(SPEC, backend="cluster", workers=2,
                     cache_dir="") as session:
            # A figure sweep is naturally heterogeneous: multi-core grid
            # runs next to single-trace alone baselines.  All tasks are
            # queued before the elastic fleet finishes booting, so the
            # scheduler sees the whole backlog at once.
            figure = session.figure("fig6", nrh=64)
            stats = session.cluster_stats()
        assert figure.as_dict() == reference.as_dict()
        assert stats["scheduling"] == "cost"
        assert stats["scheduled_by_cost"] == stats["results_received"] > 0
        assert stats["chunked_claims"] >= 1
        assert stats["autoscale_events"] >= 1
        assert stats["cost_model"]["observations"] > 0

    def test_learned_costs_persist_next_to_the_run_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with Session(SPEC, backend="cluster", workers=1,
                     cache_dir=cache_dir) as session:
            session.submit("MMLA", "para", 64, False).result(timeout=TIMEOUT)
            broker = cluster_broker(session)
            costs_path = broker.cost_model.path
            assert costs_path is not None
        assert costs_path.exists()
        # A later campaign over the same cache starts warm: the broker's
        # model loads the learned table before any point runs.
        with Session(SPEC, backend="cluster", workers=0,
                     cache_dir=cache_dir) as warm:
            warm_model = cluster_broker(warm).cost_model
            assert len(warm_model) > 0


# ---------------------------------------------------------------------- #
# _LazyFuture.result(timeout) semantics
# ---------------------------------------------------------------------- #
class TestLazyFutureTimeout:
    def test_overrun_raises_after_the_fact_and_caches_the_outcome(self):
        calls = []

        def thunk():
            calls.append(1)
            time.sleep(0.05)
            return 42

        future = _LazyFuture(thunk)
        with pytest.raises(FuturesTimeoutError):
            future.result(timeout=0.001)
        # The thunk ran to completion exactly once; the outcome is
        # cached, so a retry returns it immediately.
        assert future.done()
        assert future.result() == 42
        assert future.result(timeout=0.001) == 42
        assert calls == [1]

    def test_fast_thunk_within_timeout_returns(self):
        assert _LazyFuture(lambda: "ok").result(timeout=30.0) == "ok"

    def test_error_beats_timeout(self):
        def thunk():
            time.sleep(0.05)
            raise ValueError("boom")

        future = _LazyFuture(thunk)
        with pytest.raises(ValueError, match="boom"):
            future.result(timeout=0.001)
