"""``ClusterExecutor`` — the third :class:`SweepExecutor` backend.

Where :class:`~repro.analysis.executor.SerialSweepExecutor` runs tasks
in-process and :class:`~repro.analysis.executor.ProcessPoolSweepExecutor`
shards them across local worker processes, this backend hands them to a
:class:`~repro.cluster.broker.ClusterBroker` whose workers connect over
TCP/Unix sockets — the same host, or any number of remote ones.

``submit`` returns the broker's real :class:`concurrent.futures.Future`,
so the streaming figure path — ``iter_completed`` / ``RunHandle`` — works
unchanged.  Results are bit-identical to the serial path because workers
run the exact same deterministic simulations from the exact same pickled
spec and execution plan; the broker writes every result through the
shared persistent run cache as it arrives.

Construction is what ``Session(backend="cluster", broker=..., workers=N)``
(or ``REPRO_BACKEND=cluster``) resolves to.  ``workers=N`` is a fixed
fleet: N co-located worker processes spawn at construction, and a
monitor thread replaces the ones that die while points are pending.
When every worker keeps dying without making progress, the monitor fails
the pending futures with the workers' drained stderr instead of hanging
the sweep forever.
"""

from __future__ import annotations

import collections
import dataclasses
import sys
import threading
from concurrent.futures import Future
from typing import List, Optional

from repro.analysis.executor import ExecutionPlan, RunTask, SweepExecutor
from repro.analysis.runcache import RunCache
from repro.cluster.broker import ClusterBroker
from repro.cluster.protocol import Address, parse_address
from repro.cluster.worker import (
    reap_workers,
    spawn_local_workers,
    worker_stderr,
)

#: Fleet monitor poll period.
_POLL_SECONDS = 0.1


class ClusterExecutor(SweepExecutor):
    """Dispatches sweep tasks to socket-connected workers via a broker."""

    def __init__(self, spec, execution: ExecutionPlan,
                 cache: Optional[RunCache] = None) -> None:
        # Workers run strictly serially on the local backend with their
        # disk cache off: persistence has one owner (the broker), and no
        # worker recurses into hosting a broker of its own.
        worker_execution = dataclasses.replace(
            execution, jobs=1, backend="local", broker=None, workers=0,
            cache_dir=None,
        )
        address = (parse_address(execution.broker) if execution.broker
                   else Address(kind="tcp", host="127.0.0.1", port=0))
        self._broker = ClusterBroker(spec, worker_execution,
                                     address=address, cache=cache)
        self._broker.start()
        self._closing = threading.Event()
        self._workers = execution.workers
        self._proc_lock = threading.Lock()
        self._processes: List = []
        self._spawned_total = 0
        self._worker_deaths = 0
        self._deaths_at_progress = 0
        self._dead_stderr = collections.deque(maxlen=8)
        self._monitor: Optional[threading.Thread] = None
        if self._workers > 0:
            try:
                self._spawn(self._workers)
            except BaseException:
                self.close()
                raise
            self._monitor = threading.Thread(target=self._monitor_loop,
                                             name="repro-cluster-monitor",
                                             daemon=True)
            self._monitor.start()
        else:
            # No local fleet: the sweep blocks until workers attach, so
            # the operator must be able to see where to attach them.
            print(f"cluster broker listening on {self._broker.address}; "
                  "no local workers spawned — attach with: "
                  f"python -m repro.cluster worker "
                  f"--connect {self._broker.address}",
                  file=sys.stderr, flush=True)

    # ------------------------------------------------------------------ #
    @property
    def broker(self) -> ClusterBroker:
        return self._broker

    @property
    def address(self) -> Address:
        """The endpoint workers must connect to (ephemeral ports resolved)."""

        return self._broker.address

    @property
    def jobs(self) -> int:
        """The currently connected worker count (what ``Session.jobs`` shows)."""

        return max(1, self._broker.worker_count)

    # ------------------------------------------------------------------ #
    def submit(self, task: RunTask) -> Future:
        return self._broker.submit(task)

    # ------------------------------------------------------------------ #
    # The fleet
    # ------------------------------------------------------------------ #
    def _spawn(self, count: int) -> None:
        # One process at a time, so a failed spawn leaves every started
        # worker on the list close() reaps.
        for _ in range(count):
            spawned = spawn_local_workers(self._broker.address, 1)
            with self._proc_lock:
                self._processes.extend(spawned)
                self._spawned_total += 1

    def _prune_finished(self) -> int:
        """Drop exited processes from the fleet; returns the live count.

        Dead workers' drained stderr is kept (bounded) for the fleet-death
        diagnostic; clean exits (shutdown, a lost broker) are just removed.
        """

        with self._proc_lock:
            live = []
            for proc in self._processes:
                code = proc.poll()
                if code is None:
                    live.append(proc)
                    continue
                thread = getattr(proc, "_repro_stderr_thread", None)
                if thread is not None:
                    thread.join(timeout=0.2)
                if code != 0:
                    self._worker_deaths += 1
                    text = worker_stderr(proc)
                    self._dead_stderr.append(
                        text or f"worker pid {proc.pid} exited with "
                                f"code {code} and no stderr"
                    )
            self._processes = live
            return len(live)

    def _monitor_loop(self) -> None:
        last_results = -1
        while not self._closing.wait(_POLL_SECONDS):
            broker = self._broker
            live = self._prune_finished()
            if broker.results_received != last_results:
                # Any progress resets the death budget: a fleet that keeps
                # completing points is merely unlucky, not dead.
                last_results = broker.results_received
                with self._proc_lock:
                    self._deaths_at_progress = self._worker_deaths
            if live >= self._workers or broker.pending_count() == 0:
                continue
            with self._proc_lock:
                unproductive = self._worker_deaths - self._deaths_at_progress
            if (live == 0 and broker.worker_count == 0
                    and unproductive > self._workers + broker.max_requeues):
                # Every respawn in the budget died without a single
                # result: the fabric is dead, blocking futures must fail
                # with the workers' diagnostics instead of hanging.
                with self._proc_lock:
                    detail = "; ".join(text for text in self._dead_stderr
                                       if text) or "no diagnostics on stderr"
                    total = self._spawned_total
                broker.fail_pending(
                    f"all {total} spawned cluster workers exited without "
                    f"serving the sweep: {detail}"
                )
                return
            self._spawn(self._workers - live)

    def close(self) -> None:
        # The monitor is joined before the snapshot below, so no worker
        # it spawns can escape the reap.
        self._closing.set()
        if self._monitor is not None:
            self._monitor.join()
        self._broker.stop()
        with self._proc_lock:
            processes, self._processes = self._processes, []
        # With the broker gone no local worker has anything left to
        # serve, and one still starting up would retry the dead address
        # until reap_workers' timeout ran out.
        for proc in processes:
            proc.terminate()
        if processes:
            reap_workers(processes)
