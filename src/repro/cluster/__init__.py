"""repro.cluster — the distributed sweep backend.

A broker/worker fabric over TCP or Unix sockets that scales the
embarrassingly parallel figure grids past one machine's process pool:

* :class:`ClusterBroker` owns a spec's work queue, hands connecting
  workers the spec and execution plan, addresses every unit of work by
  (spec fingerprint, run key), requeues the in-flight points of dead or
  corrupt-stream workers (bounded — a poison point that keeps killing
  workers fails its future with a diagnostic instead of looping forever),
  and writes results through the shared persistent run cache so a resumed
  broker skips completed points.  Dispatch is FIFO, one point per claim;
* :class:`ClusterExecutor` plugs that broker in as the third
  :class:`~repro.analysis.executor.SweepExecutor` backend — selected by
  ``Session(backend="cluster", broker=..., workers=N)`` or
  ``REPRO_BACKEND=cluster`` — implementing the futures ``submit()``
  path, so streamed figure aggregation works unchanged on top of it.
  ``workers=N`` is a fixed fleet of N co-located workers, spawned at
  construction and replaced when they die while points are pending
  (``Session.cluster_stats()`` exposes the broker's counters);
* the broker side runs from the sweep CLI, and workers attach from any
  host that can reach it::

      python -m repro.api run spec.toml --backend cluster \
          --broker 0.0.0.0:7777
      python -m repro.cluster worker --connect HOST:7777 --jobs 4

Results are bit-identical to the serial path (``tests/test_cluster.py``
pins this including worker-death, stale-spec, and corrupt-frame modes).
Each worker builds its traces itself, from the ingested-workload catalog
or else the deterministic generators, exactly as a serial runner does.
"""

from repro.cluster.broker import ClusterBroker, ClusterTaskError
from repro.cluster.executor import ClusterExecutor
from repro.cluster.protocol import (
    Address,
    ConnectionClosed,
    FrameError,
    PROTOCOL_VERSION,
    ProtocolError,
    parse_address,
)
from repro.cluster.worker import (
    execute_claimed_task,
    reap_workers,
    spawn_local_workers,
    worker_loop,
    worker_stderr,
)

__all__ = [
    "Address",
    "ClusterBroker",
    "ClusterExecutor",
    "ClusterTaskError",
    "ConnectionClosed",
    "FrameError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "cluster_broker",
    "execute_claimed_task",
    "parse_address",
    "reap_workers",
    "spawn_local_workers",
    "worker_loop",
    "worker_stderr",
]


def cluster_broker(session) -> ClusterBroker:
    """The broker behind a ``Session(backend="cluster")`` (introspection)."""

    executor = session.runner._executor
    if not isinstance(executor, ClusterExecutor):
        raise TypeError(
            f"session runs on {type(executor).__name__}, not the cluster "
            "backend"
        )
    return executor.broker
