"""Cluster dispatch and the fault-path bounds.

Contracts pinned here:

* the broker hands out claims in submission order, and a claim waiting
  on an empty queue returns nothing once the broker stops, telling the
  worker to shut down;
* a deterministic *poison point* (a task that kills every worker that
  claims it) fails its future with a diagnostic naming the task and the
  killed workers after the requeue bound — and the sweep's other points
  still complete;
* a worker flooding >64KiB of stderr cannot deadlock a campaign against
  its own un-drained pipe;
* ``_LazyFuture.result(timeout)`` honours the timeout after the fact
  (the thunk cannot be preempted) instead of silently ignoring it.
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError

import pytest

from repro.analysis.executor import TASK_RUN, RunTask, _LazyFuture
from repro.api import ExecutionPlan, ExperimentSpec, Session
from repro.cluster import ClusterTaskError, cluster_broker, protocol
from repro.cluster.broker import ClusterBroker
from repro.cluster.worker import POISON_NRH_ENV, STDERR_FLOOD_ENV

SPEC = ExperimentSpec.tiny()

TIMEOUT = 120.0


def bare_broker(**kwargs) -> ClusterBroker:
    """A broker built without a Session (no executor, no workers)."""

    return ClusterBroker(SPEC.resolved("fast"), ExecutionPlan(engine="fast"),
                         **kwargs)


def run_task(nrh: int = 64, mechanism: str = "para",
             mix: str = "MMLA") -> RunTask:
    return RunTask(kind=TASK_RUN, mix_name=mix, mechanism=mechanism,
                   nrh=nrh)


# ---------------------------------------------------------------------- #
# The task queue: FIFO claims, one task each
# ---------------------------------------------------------------------- #
class TestTaskQueue:
    def test_claims_in_submission_order(self):
        broker = bare_broker()
        ours, theirs = socket.socketpair()
        try:
            tasks = [run_task(nrh=nrh) for nrh in (4096, 64, 1024)]
            for task in tasks:
                broker.submit(task)
            assert broker.queue_depth() == 3
            assert [broker._claim(ours) for _ in tasks] == tasks
            assert broker.queue_depth() == 0
        finally:
            ours.close()
            theirs.close()
            broker.stop()

    def test_empty_claim_times_out(self):
        # With nothing queued, a claim keeps waiting until the broker
        # stops; its next queue timeout then returns nothing and tells
        # the worker to shut down.
        broker = bare_broker()
        ours, theirs = socket.socketpair()
        stopper = threading.Timer(0.3, broker.stop)
        try:
            stopper.start()
            assert broker._claim(ours) is None
            assert broker._stop.is_set()
            kind, _payload = protocol.recv_message(theirs)
            assert kind == protocol.SHUTDOWN
        finally:
            stopper.join()
            ours.close()
            theirs.close()
            broker.stop()


# ---------------------------------------------------------------------- #
# Requeue bound (broker unit — no worker processes)
# ---------------------------------------------------------------------- #
class TestRequeueBound:
    def test_bound_fails_future_with_killers_named(self):
        broker = bare_broker()
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
        broker = bare_broker(max_requeues=10_000)
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
