"""The distributed sweep backend: correctness and failure modes.

Contracts pinned here:

* a figure sweep executed through ``Session(backend="cluster")`` with two
  real worker processes over a Unix domain socket is bit-identical to the
  serial path — cold cache and warm cache (the warm broker recomputes
  nothing at all);
* ``workers=N`` is a fixed fleet: all N workers connect before anything
  is submitted, and closing the session ends every one of them at once,
  also those that have not connected yet;
* a cluster session whose broker cannot bind fails in ``__init__`` and
  leaves no worker process and no broker thread behind;
* a worker killed mid-point (it dies after claiming work, before
  replying) has its point requeued and the figure still aggregates
  bit-identically;
* a worker pinned to a stale spec, or speaking an older protocol
  version, is rejected at handshake, and the broker keeps serving
  correct workers afterwards; a worker pinned to the session's own spec
  is accepted;
* a truncated/corrupt wire frame is detected by the CRC framing (never
  mis-decoded), the connection is dropped, and the point is recomputed —
  mirroring the injection style of ``test_runcache_corruption.py``;
* the serial-vs-cluster differential over the fixed cluster corpus is
  clean (the fuzzer replays the same corpus in campaigns);
* stopping a broker wakes its accept thread at once, so closing a
  cluster session does not wait out a join timeout.
"""

from __future__ import annotations

import dataclasses
import socket
import struct
import threading
import time

import pytest

from repro.api import ExecutionPlan, ExperimentSpec, Session
from repro.cluster import (
    ClusterBroker,
    cluster_broker,
    parse_address,
    spawn_local_workers,
)
from repro.cluster import executor as cluster_executor
from repro.cluster import protocol
from repro.cluster.worker import CRASH_AFTER_ENV, reap_workers
from repro.testing.fuzz import executor_differential
from repro.testing.scenarios import cluster_corpus

SPEC = ExperimentSpec.tiny()

#: Generous bound on broker/worker state transitions (worker start-up is
#: an interpreter launch; the simulations themselves are sub-second).
TIMEOUT = 120.0


def bare_broker(**kwargs) -> ClusterBroker:
    """A broker built without a Session (no executor, no workers)."""

    return ClusterBroker(SPEC.resolved("fast"), ExecutionPlan(engine="fast"),
                         **kwargs)


def serial_reference():
    with Session(SPEC, jobs=1, cache_dir="") as session:
        return session.figure("fig6", nrh=64)


@pytest.fixture(scope="module")
def reference():
    return serial_reference()


def poll(predicate, what: str, timeout: float = TIMEOUT) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(0.02)


# ---------------------------------------------------------------------- #
# Wire protocol units
# ---------------------------------------------------------------------- #
class TestProtocol:
    def roundtrip(self, kind, **payload):
        lhs, rhs = socket.socketpair()
        try:
            protocol.send_message(lhs, kind, **payload)
            return protocol.recv_message(rhs)
        finally:
            lhs.close()
            rhs.close()

    def test_message_round_trip(self):
        kind, payload = self.roundtrip(protocol.WORK, task=("t",), n=3)
        assert kind == protocol.WORK
        assert payload == {"task": ("t",), "n": 3}

    def test_clean_eof_is_connection_closed(self):
        lhs, rhs = socket.socketpair()
        lhs.close()
        with pytest.raises(protocol.ConnectionClosed):
            protocol.recv_message(rhs)
        rhs.close()

    def test_mid_frame_eof_is_frame_error(self):
        lhs, rhs = socket.socketpair()
        lhs.sendall(b"RCLU\x00\x00")  # half a header, then silence
        lhs.close()
        with pytest.raises(protocol.FrameError):
            protocol.recv_message(rhs)
        rhs.close()

    def test_bad_magic_rejected(self):
        lhs, rhs = socket.socketpair()
        lhs.sendall(struct.pack("<4sIQ", b"NOPE", 0, 0))
        with pytest.raises(protocol.FrameError, match="magic"):
            protocol.recv_message(rhs)
        lhs.close()
        rhs.close()

    def test_crc_catches_flipped_payload_bit(self):
        lhs, rhs = socket.socketpair()
        import pickle
        import zlib

        body = bytearray(pickle.dumps(("result", {"x": 1})))
        crc = zlib.crc32(bytes(body))
        body[-1] ^= 0x01
        lhs.sendall(struct.pack("<4sIQ", b"RCLU", crc, len(body)) + body)
        with pytest.raises(protocol.FrameError, match="CRC"):
            protocol.recv_message(rhs)
        lhs.close()
        rhs.close()

    def test_absurd_length_rejected_before_allocation(self):
        lhs, rhs = socket.socketpair()
        lhs.sendall(struct.pack("<4sIQ", b"RCLU", 0, 1 << 62))
        with pytest.raises(protocol.FrameError, match="length"):
            protocol.recv_message(rhs)
        lhs.close()
        rhs.close()

    def test_stale_unix_socket_path_is_reclaimed(self, tmp_path):
        path = tmp_path / "crashed.sock"
        listener, bound = protocol.bind_listener(parse_address(f"unix:{path}"))
        listener.close()  # a crashed broker: socket file left behind
        assert path.exists()
        relisten, _ = protocol.bind_listener(parse_address(f"unix:{path}"))
        relisten.close()

    def test_live_unix_socket_path_is_not_stolen(self, tmp_path):
        path = tmp_path / "live.sock"
        listener, _ = protocol.bind_listener(parse_address(f"unix:{path}"))
        try:
            with pytest.raises(OSError):
                protocol.bind_listener(parse_address(f"unix:{path}"))
        finally:
            listener.close()

    def test_parse_address_forms(self):
        tcp = parse_address("example.org:7777")
        assert (tcp.kind, tcp.host, tcp.port) == ("tcp", "example.org", 7777)
        assert parse_address(":0").host == "127.0.0.1"
        unix = parse_address("unix:/tmp/b.sock")
        assert (unix.kind, unix.path) == ("unix", "/tmp/b.sock")
        assert str(unix) == "unix:/tmp/b.sock"
        with pytest.raises(ValueError):
            parse_address("unix:")
        with pytest.raises(ValueError):
            parse_address("no-port-here")


# ---------------------------------------------------------------------- #
# The acceptance contract: cluster == serial, cold and warm
# ---------------------------------------------------------------------- #
@pytest.mark.cluster_smoke
class TestClusterSmoke:
    def test_unix_socket_two_workers_bit_identical(self, reference, tmp_path):
        broker_path = tmp_path / "broker.sock"
        with Session(SPEC, backend="cluster", broker=f"unix:{broker_path}",
                     workers=2, cache_dir="") as session:
            assert session.backend == "cluster"
            figure = session.figure("fig6", nrh=64)
            broker = cluster_broker(session)
            assert broker.results_received > 0
            # The sweep really ran remotely: merged results counted here.
            assert session.runs_executed > 0
            stats = session.cluster_stats()
            assert sum(per["served"] for per in stats["workers"].values()) \
                == broker.results_received
        assert figure.as_dict() == reference.as_dict()

    def test_cold_then_warm_cache_bit_identical(self, reference, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with Session(SPEC, backend="cluster", workers=2,
                     cache_dir=cache_dir) as cold:
            cold_figure = cold.figure("fig6", nrh=64)
            assert cold.cache is not None and cold.cache.writes > 0
        assert cold_figure.as_dict() == reference.as_dict()

        # A resumed broker over the same cache skips every completed
        # point: zero workers are needed and nothing is recomputed.
        with Session(SPEC, backend="cluster", workers=0,
                     cache_dir=cache_dir) as warm:
            warm_figure = warm.figure("fig6", nrh=64)
            assert warm.runs_executed == 0
        assert warm_figure.as_dict() == reference.as_dict()


# ---------------------------------------------------------------------- #
# The fleet's lifecycle
# ---------------------------------------------------------------------- #
class TestFleet:
    @pytest.fixture()
    def spawned(self, monkeypatch):
        """Every worker process the cluster executor spawns."""

        processes = []

        def spawn(address, count, **kwargs):
            started = spawn_local_workers(address, count, **kwargs)
            processes.extend(started)
            return started

        monkeypatch.setattr(cluster_executor, "spawn_local_workers", spawn)
        yield processes
        reap_workers(processes)

    def test_fixed_fleet_connects_before_any_submission(self, spawned):
        with Session(SPEC, backend="cluster", workers=2,
                     cache_dir="") as session:
            broker = cluster_broker(session)
            poll(lambda: broker.worker_count == 2, "two connected workers")
            assert broker.pending_count() == 0
            assert broker.results_received == 0
            monitor = session.runner._executor._monitor
        assert not monitor.is_alive()
        assert len(spawned) == 2
        assert all(proc.poll() is not None for proc in spawned)

    def test_close_before_the_fleet_connects_is_prompt(self, spawned):
        # Workers still starting up when the session closes would retry
        # the stopped broker's address; close must not wait them out.
        session = Session(SPEC, backend="cluster", workers=2, cache_dir="")
        started = time.monotonic()
        session.close()
        assert time.monotonic() - started < 5.0
        assert len(spawned) == 2
        assert all(proc.poll() is not None for proc in spawned)

    def test_failed_bind_leaves_no_worker_or_broker_thread(self, spawned):
        before = set(threading.enumerate())
        holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            with pytest.raises(OSError):
                Session(SPEC, backend="cluster", broker=f"127.0.0.1:{port}",
                        workers=1, cache_dir="")
        finally:
            holder.close()
        assert spawned == []
        leaked = [thread.name for thread in threading.enumerate()
                  if thread not in before and thread.is_alive()]
        assert leaked == []


# ---------------------------------------------------------------------- #
# Failure modes
# ---------------------------------------------------------------------- #
class TestWorkerDeath:
    def test_killed_worker_requeues_and_figure_is_identical(self, reference):
        with Session(SPEC, backend="cluster", cache_dir="") as session:
            broker = cluster_broker(session)
            plan = session.runner.figure_plan("fig6", nrh=64)
            session.runner.submit_plan(plan)  # queue the grid up front
            # First worker claims a point and dies before replying
            # (os._exit on its first work frame) -> the broker must
            # requeue that exact in-flight point.
            crasher = spawn_local_workers(
                broker.address, 1, extra_env={CRASH_AFTER_ENV: "1"}
            )
            poll(lambda: broker.requeued_points >= 1, "the requeue")
            survivor = spawn_local_workers(broker.address, 1)
            figure = session.figure("fig6", nrh=64)
            assert broker.requeued_points >= 1
            reap_workers(crasher)
        assert figure.as_dict() == reference.as_dict()
        reap_workers(survivor)


class TestDeadFleet:
    def test_whole_fleet_dying_fails_futures_instead_of_hanging(
            self, monkeypatch):
        # Every spawned worker inherits the startup crash hook ("0"):
        # each dies before ever connecting, so the fleet (including the
        # monitor's respawn budget) annihilates itself without serving
        # a single point and the monitor must fail the pending futures
        # (with a reason), never hang the sweep.  A worker crashing
        # *after* claiming work is the poison-point path instead — see
        # tests/test_cluster_scheduling.py.
        monkeypatch.setenv(CRASH_AFTER_ENV, "0")
        with Session(SPEC, backend="cluster", workers=1,
                     cache_dir="") as session:
            handle = session.submit("MMLA", "para", 64, False)
            with pytest.raises(RuntimeError,
                               match="exited without serving"):
                handle.result(timeout=TIMEOUT)
            broker = cluster_broker(session)
            assert broker.fabric_error is not None
            # Later submissions fail fast on the dead fabric too.
            with pytest.raises(RuntimeError):
                session.submit("MMLA", "para", 64, True)


class TestStaleWorker:
    def test_stale_spec_rejected_then_good_worker_serves(self, tmp_path):
        stale_spec = tmp_path / "stale.json"
        ExperimentSpec.tiny(sim_cycles=2_000).dump_json(stale_spec)
        with Session(SPEC, backend="cluster", cache_dir="") as session:
            broker = cluster_broker(session)
            stale = spawn_local_workers(broker.address, 1,
                                        spec_path=str(stale_spec))
            poll(lambda: broker.workers_rejected >= 1, "the rejection")
            # The stale worker exited with the 'rejected' status and never
            # served a point.
            assert stale[0].wait(timeout=TIMEOUT) == 2
            diagnostics = reap_workers(stale)
            assert any("stale spec" in text for text in diagnostics)
            assert broker.worker_count == 0

            good = spawn_local_workers(broker.address, 1)
            handle = session.submit("MMLA", "para", 64, False)
            stats = handle.result(timeout=TIMEOUT)
        with Session(SPEC, jobs=1, cache_dir="") as serial:
            expected = serial.run("MMLA", "para", 64, False)
        assert dataclasses.asdict(stats) == dataclasses.asdict(expected)
        reap_workers(good)

    def test_worker_pinned_to_the_session_spec_serves(self, tmp_path):
        # The pin is recomputed from the file on the worker side; it must
        # equal the broker's fingerprint, or every pinned worker would be
        # turned away.
        own_spec = tmp_path / "own.json"
        SPEC.dump_json(own_spec)
        with Session(SPEC, backend="cluster", cache_dir="") as session:
            broker = cluster_broker(session)
            pinned = spawn_local_workers(broker.address, 1,
                                         spec_path=str(own_spec))
            poll(lambda: broker.worker_count + broker.workers_rejected,
                 "the handshake")
            assert broker.workers_rejected == 0
            stats = session.submit("MMLA", "para", 64, False) \
                .result(timeout=TIMEOUT)
        with Session(SPEC, jobs=1, cache_dir="") as serial:
            expected = serial.run("MMLA", "para", 64, False)
        assert dataclasses.asdict(stats) == dataclasses.asdict(expected)
        reap_workers(pinned)

    def test_older_protocol_version_rejected(self):
        broker = bare_broker().start()
        try:
            sock = protocol.connect(broker.address, timeout=30.0)
            try:
                stale = protocol.PROTOCOL_VERSION - 1
                protocol.send_message(sock, protocol.HELLO, version=stale,
                                      fingerprint=None)
                kind, payload = protocol.recv_message(sock)
            finally:
                sock.close()
            assert kind == protocol.REJECT
            assert "protocol version" in payload["reason"]
            assert str(stale) in payload["reason"]
            assert str(protocol.PROTOCOL_VERSION) in payload["reason"]
            assert broker.workers_rejected == 1
            assert broker.worker_count == 0
        finally:
            broker.stop()


class TestCorruptFrame:
    def _handshake(self, broker) -> socket.socket:
        sock = protocol.connect(broker.address, timeout=30.0)
        protocol.send_message(sock, protocol.HELLO,
                              version=protocol.PROTOCOL_VERSION,
                              fingerprint=None)
        kind, payload = protocol.recv_message(sock)
        assert kind == protocol.CONFIG
        assert payload["fingerprint"] == broker.fingerprint
        protocol.send_message(sock, protocol.READY,
                              fingerprint=payload["fingerprint"])
        return sock

    def test_truncated_result_frame_is_detected_and_recomputed(self):
        with Session(SPEC, backend="cluster", cache_dir="") as session:
            broker = cluster_broker(session)
            handle = session.submit("MMLA", "para", 64, True)
            # A "worker" that claims the point, then emits half a frame —
            # a torn write on the wire, as a crashing sender leaves it.
            saboteur = self._handshake(broker)
            kind, payload = protocol.recv_message(saboteur)
            assert kind == protocol.WORK
            assert payload["fingerprint"] == broker.fingerprint
            saboteur.sendall(b"RCLU\x07garbage-that-is-not-a-frame")
            saboteur.close()
            poll(lambda: broker.corrupt_frames >= 1, "corruption detection")
            assert broker.requeued_points >= 1
            # A real worker recomputes the requeued point.
            workers = spawn_local_workers(broker.address, 1)
            stats = handle.result(timeout=TIMEOUT)
        with Session(SPEC, jobs=1, cache_dir="") as serial:
            expected = serial.run("MMLA", "para", 64, True)
        assert dataclasses.asdict(stats) == dataclasses.asdict(expected)
        reap_workers(workers)


class TestBrokerStop:
    @pytest.mark.parametrize("kind", ["tcp", "unix"])
    def test_stop_wakes_the_blocked_accept_thread(self, kind, tmp_path):
        address = (parse_address(f"unix:{tmp_path / 'broker.sock'}")
                   if kind == "unix" else None)
        broker = bare_broker(address=address).start()
        time.sleep(0.2)  # the accept thread is now blocked in accept()
        threads = list(broker._threads)
        started = time.monotonic()
        broker.stop()
        assert time.monotonic() - started < 1.0
        assert threads and not any(t.is_alive() for t in threads)


# ---------------------------------------------------------------------- #
# Differential: serial vs cluster over the fixed corpus
# ---------------------------------------------------------------------- #
def test_serial_vs_cluster_differential_clean():
    # Tier-1 replays a representative subset — one plain point, one
    # non-default mechanism, and the widest multi-seed point (which the
    # broker fans out across its grid).  The full corpus runs through
    # ``python -m repro.testing.fuzz --jobs N`` campaigns, and the fabric
    # itself is pinned by TestClusterSmoke above.
    scenarios = cluster_corpus()
    assert len(scenarios) >= 5
    assert all(s.harness_shaped() for s in scenarios)
    subset = [scenarios[0], scenarios[3], scenarios[-1]]
    assert any(s.extra_seeds for s in subset)
    mismatches = executor_differential(subset, jobs=2, backend="cluster")
    assert mismatches == []

