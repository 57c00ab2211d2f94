"""The broker: owns a spec's work queue and a fleet of socket workers.

A :class:`ClusterBroker` listens on a TCP or Unix endpoint, hands each
connecting worker the :class:`~repro.api.ExperimentSpec` and
:class:`~repro.analysis.executor.ExecutionPlan` to build its runner from
(plus the spec fingerprint all work is addressed by), and then feeds it
grid points by *claims*.  Fault tolerance is structural:

* **worker death / disconnect** — the point that worker had in flight
  is requeued and handed to the next free worker; the sweep's result
  cannot change, only its wall-clock.  A point requeued more than
  ``max_requeues`` times (default 3 — every worker that claimed it died)
  is treated as poison: its future fails with a diagnostic naming the
  task and the workers it killed, instead of being requeued forever;
* **stale workers** — a worker announcing (or computing) a fingerprint
  other than the broker's is rejected at handshake, before any work is
  dispatched;
* **corrupt frames** — a truncated or bit-flipped frame fails the CRC
  check (:class:`~repro.cluster.protocol.FrameError`), the connection is
  dropped, and the in-flight point is requeued;
* **resumption** — every result is written through the broker's shared
  persistent :class:`~repro.analysis.runcache.RunCache` as it arrives, so
  a broker restarted over the same cache directory skips completed points
  (they come back as cache hits before ever reaching the queue).

Dispatch is FIFO, one point per ``work`` frame: a worker claims the
oldest pending point, and a requeued point goes to the back of the queue.
Each ``result`` frame carries the worker's observed ``elapsed`` seconds,
which feed the per-worker tallies of :meth:`ClusterBroker.stats`.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
from concurrent.futures import Future
from typing import Dict, List, Optional

from repro.analysis.executor import TASK_ALONE, ExecutionPlan, RunTask
from repro.analysis.runcache import RunCache
from repro.cluster import protocol
from repro.cluster.protocol import (
    Address,
    ConnectionClosed,
    FrameError,
    ProtocolError,
)

#: Worker connections a point may lose while in flight before it is
#: failed as poison instead of requeued again.
DEFAULT_MAX_REQUEUES = 3


def describe_task(task: RunTask) -> str:
    """A human-readable one-line name for diagnostics and errors."""

    if task.kind == TASK_ALONE:
        return (f"alone[{task.mix_name}#{task.trace_index} "
                f"seed={task.seed}]")
    return (f"run[{task.mix_name}/{task.mechanism}/nrh={task.nrh}"
            f"{'/bh' if task.breakhammer else ''}/seed={task.seed}]")


class ClusterTaskError(RuntimeError):
    """A worker reported a clean (deterministic) failure for one task."""


class _Entry:
    """Book-keeping of one submitted task."""

    __slots__ = ("task", "future", "requeues", "killed_by")

    def __init__(self, task) -> None:
        self.task = task
        self.future: Future = Future()
        self.requeues = 0
        self.killed_by: List[str] = []


class ClusterBroker:
    """Work queue + worker fleet for one resolved experiment spec.

    ``spec`` and ``execution`` are what every worker builds its runner
    from — the caller pins ``jobs=1``/``backend="local"`` and disables the
    worker disk cache (the broker owns persistence).  ``cache`` is the
    broker's shared :class:`RunCache` (or ``None``); results are written
    through it as they stream in.
    """

    def __init__(self, spec, execution: ExecutionPlan,
                 address: Optional[Address] = None,
                 cache: Optional[RunCache] = None,
                 max_requeues: int = DEFAULT_MAX_REQUEUES) -> None:
        self.spec = spec
        self.execution = execution
        self.fingerprint = spec.fingerprint(execution.workload_dir)
        self.cache = cache
        self.max_requeues = max(0, max_requeues)
        self._queue = queue.SimpleQueue()
        self._entries: Dict[object, _Entry] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._connections: List[socket.socket] = []
        self._worker_seq = 0
        self._listener, self.address = protocol.bind_listener(
            address or Address(kind="tcp", host="127.0.0.1", port=0)
        )
        # Observable state (written under _lock; unlocked reads are fine
        # for polling).
        self.workers_connected = 0
        self.fabric_error: Optional[str] = None
        self.workers_seen = 0
        self.workers_rejected = 0
        self.requeued_points = 0
        self.corrupt_frames = 0
        self.results_received = 0
        self.worker_stats: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ClusterBroker":
        accept = threading.Thread(target=self._accept_loop,
                                  name="repro-cluster-accept", daemon=True)
        accept.start()
        with self._lock:
            self._threads.append(accept)
        return self

    def stop(self) -> None:
        """Stop accepting, release workers, fail anything still pending."""

        if self._stop.is_set():
            return
        self._stop.set()
        # Closing a socket does not wake a thread blocked in accept() on
        # Linux; shutting it down first does, for TCP and Unix sockets.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self.address.kind == "unix":
            try:
                os.unlink(self.address.path)
            except OSError:
                pass
        with self._lock:
            pending = [entry for entry in self._entries.values()
                       if not entry.future.done()]
            connections = list(self._connections)
            threads = list(self._threads)
        for entry in pending:
            entry.future.set_exception(RuntimeError(
                "cluster broker stopped with the point still pending"
            ))
        # Unblock handler threads parked in recv; workers observe the
        # dropped connection (or an explicit shutdown frame) and exit.
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=5.0)

    @property
    def worker_count(self) -> int:
        """Workers that completed the handshake and are serving work."""

        return self.workers_connected

    # ------------------------------------------------------------------ #
    # Submission and introspection
    # ------------------------------------------------------------------ #
    def submit(self, task) -> Future:
        """Enqueue one task; duplicate submissions share one future."""

        if self._stop.is_set():
            raise RuntimeError("cannot submit to a stopped cluster broker")
        with self._lock:
            # Checked under the lock against fail_pending(): a task either
            # observes the dead fabric here, or is registered before the
            # pending snapshot is taken — it can never fall between.
            if self.fabric_error is not None:
                raise RuntimeError(self.fabric_error)
            entry = self._entries.get(task)
            if entry is None:
                entry = _Entry(task)
                self._entries[task] = entry
                self._queue.put(task)
        return entry.future

    def queue_depth(self) -> int:
        """Tasks enqueued but not yet claimed by any worker."""

        return self._queue.qsize()

    def pending_count(self) -> int:
        """Submitted tasks whose futures are not resolved yet."""

        with self._lock:
            return sum(1 for entry in self._entries.values()
                       if not entry.future.done())

    def stats(self) -> Dict[str, object]:
        """A snapshot of the dispatch counters (picklable)."""

        with self._lock:
            workers = {wid: dict(per) for wid, per in
                       self.worker_stats.items()}
            snapshot = {
                "results_received": self.results_received,
                "requeued_points": self.requeued_points,
                "corrupt_frames": self.corrupt_frames,
                "workers_seen": self.workers_seen,
                "workers_connected": self.workers_connected,
                "workers_rejected": self.workers_rejected,
                "workers": workers,
            }
        snapshot["queue_depth"] = self.queue_depth()
        snapshot["pending_points"] = self.pending_count()
        return snapshot

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            handler = threading.Thread(target=self._serve_worker,
                                       args=(sock,),
                                       name="repro-cluster-worker",
                                       daemon=True)
            with self._lock:
                self._connections.append(sock)
                self.workers_seen += 1
                # Long-lived brokers see many worker generations: prune
                # finished handler threads instead of accumulating them.
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(handler)
            handler.start()

    def _reject(self, sock: socket.socket, reason: str) -> None:
        with self._lock:
            self.workers_rejected += 1
        try:
            protocol.send_message(sock, protocol.REJECT, reason=reason)
        except OSError:
            pass

    def _handshake(self, sock: socket.socket) -> bool:
        """Run the hello/config/ready exchange; ``True`` when serviceable."""

        kind, payload = protocol.recv_message(sock)
        if kind != protocol.HELLO:
            raise FrameError(f"expected hello, got {kind!r}")
        if payload.get("version") != protocol.PROTOCOL_VERSION:
            self._reject(sock, (
                f"protocol version {payload.get('version')!r} != "
                f"{protocol.PROTOCOL_VERSION}"
            ))
            return False
        announced = payload.get("fingerprint")
        if announced is not None and announced != self.fingerprint:
            self._reject(sock, (
                f"stale spec: worker fingerprint {announced} != broker "
                f"fingerprint {self.fingerprint}"
            ))
            return False
        protocol.send_message(sock, protocol.CONFIG, spec=self.spec,
                              execution=self.execution,
                              fingerprint=self.fingerprint)
        kind, payload = protocol.recv_message(sock)
        if kind != protocol.READY:
            raise FrameError(f"expected ready, got {kind!r}")
        if payload.get("fingerprint") != self.fingerprint:
            # The worker rebuilt the spec into a different fingerprint —
            # an environment/version skew that would corrupt results.
            self._reject(sock, (
                f"fingerprint skew: worker built {payload.get('fingerprint')}"
                f" from a spec fingerprinting {self.fingerprint} here"
            ))
            return False
        return True

    def _serve_worker(self, sock: socket.socket) -> None:
        in_flight: Optional[RunTask] = None
        worker_id: Optional[str] = None
        try:
            if not self._handshake(sock):
                return
            with self._lock:
                self._worker_seq += 1
                worker_id = f"worker-{self._worker_seq}"
                self.workers_connected += 1
                self.worker_stats[worker_id] = {"served": 0, "elapsed": 0.0}
            while True:
                task = self._claim(sock)
                if task is None:
                    return  # shutdown sent
                in_flight = task
                protocol.send_message(sock, protocol.WORK, task=task,
                                      fingerprint=self.fingerprint)
                kind, payload = protocol.recv_message(sock)
                if kind == protocol.RESULT and payload.get("task") == task:
                    self._resolve(task, payload, worker_id)
                elif kind == protocol.ERROR and payload.get("task") == task:
                    self._fail(task, payload.get("message", "worker error"))
                else:
                    raise FrameError(
                        f"expected a result for {task!r}, got {kind!r}"
                    )
                in_flight = None
        except FrameError:
            with self._lock:
                self.corrupt_frames += 1
        except (ConnectionClosed, ProtocolError, OSError):
            pass
        finally:
            if worker_id is not None:
                with self._lock:
                    self.workers_connected -= 1
            if in_flight is not None:
                self._requeue(in_flight, worker_id)
            try:
                sock.close()
            except OSError:
                pass

    def _claim(self, sock: socket.socket) -> Optional[RunTask]:
        """Claim the oldest pending task for one worker, or send shutdown.

        Returns ``None`` once the broker stops; each check follows a 0.1 s
        wait on the queue.
        """

        while True:
            try:
                return self._queue.get(timeout=0.1)
            except queue.Empty:
                pass
            if self._stop.is_set():
                try:
                    protocol.send_message(sock, protocol.SHUTDOWN)
                except OSError:
                    pass
                return None

    # ------------------------------------------------------------------ #
    # Outcome plumbing
    # ------------------------------------------------------------------ #
    def _entry(self, task) -> Optional[_Entry]:
        with self._lock:
            return self._entries.get(task)

    def _resolve(self, task, payload: dict,
                 worker_id: Optional[str] = None) -> None:
        if self.cache is not None:
            for key, stats in payload.get("entries", ()):
                self.cache.put(key, stats)
        elapsed = payload.get("elapsed")
        with self._lock:
            self.results_received += 1
            per_worker = self.worker_stats.get(worker_id)
            if per_worker is not None:
                per_worker["served"] += 1
                if elapsed is not None and elapsed > 0.0:
                    per_worker["elapsed"] += float(elapsed)
        entry = self._entry(task)
        if entry is not None and not entry.future.done():
            entry.future.set_result(payload.get("outcome"))

    def fail_pending(self, message: str) -> None:
        """Fail every unresolved future (the fabric is known dead).

        Called by the executor's fleet monitor when every spawned worker
        process has exited without making progress: blocking on the queue
        would otherwise hang forever.  Later submissions fail fast too.
        """

        with self._lock:
            self.fabric_error = message
            pending = [entry for entry in self._entries.values()
                       if not entry.future.done()]
        for entry in pending:
            entry.future.set_exception(RuntimeError(message))

    def _fail(self, task, message: str) -> None:
        entry = self._entry(task)
        if entry is not None and not entry.future.done():
            entry.future.set_exception(ClusterTaskError(message))

    def _requeue(self, task, worker_id: Optional[str] = None) -> None:
        if self._stop.is_set():
            return
        with self._lock:
            entry = self._entries.get(task)
            if entry is None or entry.future.done():
                return
            entry.requeues += 1
            if worker_id is not None:
                entry.killed_by.append(worker_id)
            self.requeued_points += 1
            exceeded = entry.requeues > self.max_requeues
            killers = ", ".join(entry.killed_by) or "unknown"
            requeues = entry.requeues
        if exceeded:
            # Poison point: every worker that claimed it died.  Failing
            # the future (with the evidence) beats requeueing forever.
            entry.future.set_exception(ClusterTaskError(
                f"{describe_task(task)} exceeded the requeue bound: "
                f"{requeues} worker connection(s) were lost while it was "
                f"in flight (workers: {killers}; bound "
                f"max_requeues={self.max_requeues}) — the point looks "
                "poisonous and is failed instead of requeued again"
            ))
            return
        self._queue.put(task)
