"""Worker side of the cluster fabric: claim points, simulate, stream back.

A worker connects to a broker, receives the :class:`~repro.api.ExperimentSpec`
and :class:`~repro.analysis.executor.ExecutionPlan`, builds its own
:class:`~repro.analysis.experiments.ExperimentRunner` from them, and then
loops: receive a ``work`` frame carrying one
:class:`~repro.analysis.executor.RunTask`, execute it, and send back one
``result`` frame (``error`` if the task raised) — the outcome, the
``(run_key, RunStatistics)`` cache entries the broker writes through to
the shared persistent run cache, and the observed ``elapsed`` seconds for
the broker's per-worker tallies.  Like a serial runner, a worker reads
ingested traces from the workload catalog and regenerates every other
trace deterministically, once per worker and mix.

Fingerprint discipline: the worker echoes the fingerprint its runner
actually computes back to the broker (``ready``) and re-checks the
fingerprint stamped on every ``work`` frame — work for a spec this worker
was not built for is refused, never silently computed.

``spawn_local_workers`` is the programmatic way tests, benchmarks, and
:class:`~repro.cluster.executor.ClusterExecutor` start co-located worker
processes; the operator equivalent is::

    python -m repro.cluster worker --connect HOST:PORT --jobs N
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.executor import (
    TASK_ALONE,
    TASK_RUN,
    AloneResult,
    RunTask,
)
from repro.cluster import protocol
from repro.cluster.protocol import Address, ConnectionClosed, ProtocolError

#: Test hook: a worker that finds this variable set to N >= 1 crashes hard
#: (``os._exit``) upon starting its N-th claimed task, *before* computing
#: or replying — the deterministic way to exercise the broker's requeue
#: path.  ``0`` crashes at startup before ever connecting, which is how
#: the dead-fleet path ("every spawned worker exited without serving") is
#: exercised now that a crash *after* a claim counts against that task's
#: requeue bound instead.
CRASH_AFTER_ENV = "REPRO_CLUSTER_CRASH_AFTER"

#: Test hook: a worker that finds this variable set crashes hard upon
#: claiming a ``run`` task with that N_RH value — a deterministic *poison
#: point* that kills every worker that claims it while every other point
#: stays computable.  Exercises the broker's requeue bound.
POISON_NRH_ENV = "REPRO_CLUSTER_POISON_NRH"

#: Test hook: a worker that finds this variable set to N writes N bytes of
#: diagnostics to stderr at startup.  With an un-drained stderr pipe this
#: used to deadlock the worker (and the whole campaign) once the pipe
#: buffer filled; ``spawn_local_workers`` drains continuously now.
STDERR_FLOOD_ENV = "REPRO_CLUSTER_STDERR_FLOOD"


def execute_claimed_task(runner, task: RunTask):
    """Run one task; returns ``(outcome, cache_entries)``.

    ``cache_entries`` is the list of ``(run_key, RunStatistics)`` pairs the
    broker persists to the shared run cache — the worker itself runs with
    its disk cache disabled, so persistence has exactly one owner.
    """

    if task.kind == TASK_RUN:
        key = runner.run_key(task.mix_name, task.mechanism, task.nrh,
                             task.breakhammer, task.seed)
        stats = runner.run(task.mix_name, task.mechanism, task.nrh,
                           task.breakhammer, seed=task.seed)
        return stats, [(key, stats)]
    if task.kind == TASK_ALONE:
        mix = runner.mix(task.mix_name, task.seed)
        trace = mix.traces[task.trace_index]
        stats = runner.alone_baseline(trace)
        outcome = AloneResult(trace_name=trace.name,
                              trace_length=len(trace),
                              ipc=max(1e-6, stats.ipc_of(0)))
        return outcome, [(runner._alone_disk_key(trace), stats)]
    raise ValueError(f"unknown cluster task kind {task.kind!r}")


def _connect_with_retry(address: Address,
                        timeout: float = 30.0):
    """Dial the broker, retrying briefly (workers may start first)."""

    deadline = time.monotonic() + timeout
    while True:
        try:
            return protocol.connect(address, timeout=10.0)
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.2)


def _apply_startup_hooks(crash_after: Optional[int]) -> None:
    """Honour the startup-time test hooks (fleet death, stderr flood)."""

    if crash_after is not None and crash_after <= 0:
        print("worker crash hook: exiting at startup before serving",
              file=sys.stderr, flush=True)
        os._exit(17)
    flood_raw = os.environ.get(STDERR_FLOOD_ENV, "").strip()
    if flood_raw:
        try:
            flood = int(flood_raw)
        except ValueError:
            flood = 0
        line = "worker diagnostic flood: " + "x" * 100 + "\n"
        written = 0
        while written < flood:
            sys.stderr.write(line)
            written += len(line)
        sys.stderr.flush()


def _poison_nrh() -> Optional[int]:
    raw = os.environ.get(POISON_NRH_ENV, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def worker_loop(address: Address,
                spec_fingerprint: Optional[str] = None,
                crash_after: Optional[int] = None) -> int:
    """Serve one broker connection until shutdown; returns an exit code.

    ``spec_fingerprint`` pins the spec this worker is willing to serve
    (``--spec``): the broker rejects the connection when it does not match,
    which is how stale workers fail fast instead of computing garbage.
    """

    from repro.analysis.experiments import ExperimentRunner

    _apply_startup_hooks(crash_after)
    poison_nrh = _poison_nrh()
    try:
        sock = _connect_with_retry(address)
    except OSError as exc:
        print(f"worker could not reach broker at {address}: {exc}",
              file=sys.stderr)
        return 4
    try:
        protocol.send_message(sock, protocol.HELLO,
                              version=protocol.PROTOCOL_VERSION,
                              fingerprint=spec_fingerprint)
        kind, payload = protocol.recv_message(sock)
        if kind == protocol.REJECT:
            print(f"worker rejected: {payload.get('reason')}",
                  file=sys.stderr)
            return 2
        if kind != protocol.CONFIG:
            print(f"worker expected config, got {kind!r}", file=sys.stderr)
            return 3
        runner = ExperimentRunner(payload["spec"], payload["execution"])
        protocol.send_message(sock, protocol.READY,
                              fingerprint=runner.fingerprint)
        served = 0
        while True:
            try:
                kind, payload = protocol.recv_message(sock)
            except ConnectionClosed:
                return 0  # broker went away; nothing of ours is lost
            if kind == protocol.SHUTDOWN:
                return 0
            if kind == protocol.REJECT:
                print(f"worker rejected: {payload.get('reason')}",
                      file=sys.stderr)
                return 2
            if kind != protocol.WORK:
                print(f"worker expected work, got {kind!r}", file=sys.stderr)
                return 3
            task: RunTask = payload["task"]
            if payload.get("fingerprint") != runner.fingerprint:
                protocol.send_message(
                    sock, protocol.ERROR, task=task,
                    message=(
                        f"work addressed to {payload.get('fingerprint')}"
                        f" but this worker serves {runner.fingerprint}"
                    ),
                )
                return 2
            served += 1
            if crash_after is not None and served >= crash_after:
                os._exit(17)  # simulate sudden worker death mid-point
            if (poison_nrh is not None and task.kind == TASK_RUN
                    and task.nrh == poison_nrh):
                os._exit(17)  # deterministic poison point
            started = time.perf_counter()
            try:
                outcome, entries = execute_claimed_task(runner, task)
            except Exception as exc:  # noqa: BLE001 - sent to broker
                protocol.send_message(sock, protocol.ERROR, task=task,
                                      message=repr(exc))
                continue
            protocol.send_message(
                sock, protocol.RESULT, task=task, outcome=outcome,
                entries=entries,
                elapsed=time.perf_counter() - started,
            )
    except (ProtocolError, OSError) as exc:
        # A dead broker (or a frame torn on the wire) ends this worker;
        # whatever it had in flight is the broker's to requeue.
        print(f"worker connection failed: {exc}", file=sys.stderr)
        return 4
    finally:
        try:
            sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------- #
# Local worker processes
# ---------------------------------------------------------------------- #
def _worker_environment(extra_env: Optional[dict] = None) -> dict:
    """The child environment: inherit, but guarantee ``repro`` is importable."""

    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (src_root + os.pathsep + existing
                             if existing else src_root)
    if extra_env:
        env.update(extra_env)
    return env


def _start_stderr_drain(proc: subprocess.Popen) -> None:
    """Continuously drain ``proc.stderr`` into an in-memory buffer.

    A piped-but-unread stderr deadlocks the child once the OS pipe buffer
    (~64KiB) fills — a chatty worker would block mid-``print`` and the
    whole campaign would stall.  The drain thread keeps the pipe empty
    while preserving every byte for ``reap_workers``' diagnostics.
    """

    if proc.stderr is None:
        return
    buffer = bytearray()

    def pump(stream=proc.stderr, sink=buffer) -> None:
        try:
            while True:
                chunk = stream.read(65536)
                if not chunk:
                    break
                sink.extend(chunk)
        except (OSError, ValueError):
            pass
        finally:
            try:
                stream.close()
            except OSError:
                pass

    thread = threading.Thread(target=pump, name="repro-worker-stderr",
                              daemon=True)
    thread.start()
    proc._repro_stderr_buffer = buffer       # type: ignore[attr-defined]
    proc._repro_stderr_thread = thread       # type: ignore[attr-defined]


def worker_stderr(proc: subprocess.Popen) -> str:
    """The stderr a drained worker produced so far (decoded, stripped)."""

    buffer = getattr(proc, "_repro_stderr_buffer", None)
    if buffer is None:
        return ""
    return bytes(buffer).decode("utf-8", "replace").strip()


def spawn_local_workers(address: Address, count: int,
                        spec_path: Optional[str] = None,
                        extra_env: Optional[dict] = None
                        ) -> List[subprocess.Popen]:
    """Start ``count`` worker processes pointed at ``address``.

    Each child is a fresh interpreter running
    ``python -m repro.cluster worker --connect <address>`` — the same entry
    point an operator uses on a remote host — so what the tests exercise is
    byte-for-byte the production worker path.  stderr is piped *and
    continuously drained* (a flooding worker must not deadlock against its
    own pipe) so a failed worker's diagnostics can be surfaced — see
    ``reap_workers`` / ``worker_stderr``.
    """

    command = [sys.executable, "-m", "repro.cluster", "worker",
               "--connect", str(parse_or_format(address))]
    if spec_path is not None:
        command += ["--spec", spec_path]
    env = _worker_environment(extra_env)
    processes = [
        subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE)
        for _ in range(count)
    ]
    for proc in processes:
        _start_stderr_drain(proc)
    return processes


def parse_or_format(address) -> str:
    """The CLI string form of an address (accepts strings verbatim)."""

    if isinstance(address, Address):
        return str(address)
    return str(protocol.parse_address(address))


def reap_workers(processes: Sequence[subprocess.Popen],
                 timeout: float = 10.0) -> List[str]:
    """Wait for worker processes, escalating to kill; returns stderr texts."""

    diagnostics: List[str] = []
    for proc in processes:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
        thread = getattr(proc, "_repro_stderr_thread", None)
        if thread is not None:
            thread.join(timeout=5.0)
            err = worker_stderr(proc)
        else:
            # Foreign Popen without a drain thread: fall back to a
            # one-shot read now that the process has exited.
            try:
                _out, raw = proc.communicate(timeout=5.0)
            except (subprocess.TimeoutExpired, ValueError):
                raw = b""
            err = (raw or b"").decode("utf-8", "replace").strip()
        if err:
            diagnostics.append(err)
    return diagnostics
