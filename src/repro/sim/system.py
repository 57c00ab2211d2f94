"""System wiring: cores → LLC → MSHRs → memory controller → DRAM.

:class:`System` builds every substrate from a :class:`SystemConfig`, connects
them, and exposes the per-cycle :meth:`tick` the simulator drives:

* each core replays its trace and sends memory accesses to the LLC;
* LLC misses allocate MSHRs — gated by BreakHammer's per-thread quotas —
  and become :class:`MemoryRequest` objects for the controller;
* the controller schedules DRAM commands, runs the mitigation mechanism's
  trigger algorithm, and performs its preventive actions;
* BreakHammer observes activations and preventive actions from the
  controller and adjusts MSHR quotas.

The wiring holds no reference back to the system: :meth:`System.tick`
hands every core the send function (:meth:`System._send`) and the
controller the response function (:meth:`System._on_memory_response`,
called for each read as it completes, inside the controller's tick).  A
finished system is thus an acyclic object graph, freed by reference
counting as soon as its result is dropped.

For the fast-forward engine the system also answers :meth:`next_event_cycle`
— the earliest future cycle at which *anything* observable can happen (a
DRAM command clearing its timing constraints, an in-flight request
completing, a pending LLC hit returning, a core reaching its next memory
access, a refresh or throttling-window deadline).  ``Simulator`` with
``engine="fast"`` jumps straight between those cycles; every jumped-over
cycle is provably inert, so both engines produce identical statistics.
Within the cycles it does simulate, the fast engine also skips the ticks
of cores whose last memory access was refused, until the MSHR file or the
full request queue that refused it changes (:meth:`System.tick`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.controller.controller import MemoryController
from repro.controller.queues import RequestQueue
from repro.controller.request import MemoryRequest, RequestType
from repro.core.breakhammer import BreakHammer
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.core_model import Core
from repro.cpu.mshr import MshrFile
from repro.cpu.trace import FLAG_BYPASS, FLAG_WRITE, Trace
from repro.dram.address import AddressMapper
from repro.dram.config import DeviceConfig
from repro.mitigations.base import MitigationMechanism
from repro.mitigations.registry import create_mechanism
from repro.mitigations.rega import Rega
from repro.sim.config import SystemConfig

#: Due cycle of an empty event list.
_NEVER = 1 << 62


class System:
    """A complete simulated machine."""

    def __init__(self, config: SystemConfig, traces: Sequence[Trace]) -> None:
        if len(traces) != config.num_cores:
            raise ValueError(
                f"expected {config.num_cores} traces, got {len(traces)}"
            )
        self.config = config

        # --- mitigation (may adjust DRAM timings: REGA) ----------------- #
        self.mitigation: MitigationMechanism = create_mechanism(
            config.mitigation, config.device, config.nrh,
            **config.mitigation_kwargs,
        )
        device = config.device
        if isinstance(self.mitigation, Rega):
            device = device.scaled(timings=self.mitigation.adjusted_timings())
            # The mechanism keeps a reference to the adjusted device too.
            self.mitigation.config = device
        self.device: DeviceConfig = device

        # --- memory controller ------------------------------------------ #
        self.mapper = AddressMapper(device, config.mapping)
        self.controller = MemoryController(
            device,
            mitigation=self.mitigation,
            mapper=self.mapper,
            read_queue_size=config.read_queue_size,
            write_queue_size=config.write_queue_size,
        )

        # --- cache hierarchy --------------------------------------------- #
        self.llc = SetAssociativeCache(config.llc)
        self.mshrs = MshrFile(config.mshr_entries, num_threads=config.num_cores)

        # --- BreakHammer -------------------------------------------------- #
        self.breakhammer: Optional[BreakHammer] = None
        if config.breakhammer_enabled:
            self.breakhammer = BreakHammer(
                num_threads=config.num_cores,
                config=config.breakhammer,
                device_config=device,
                full_quota=config.mshr_entries,
                apply_quota=self.mshrs.set_quota,
            )
            self.controller.register_observer(self.breakhammer)

        # --- cores -------------------------------------------------------- #
        self.cores: List[Core] = [
            Core(core_id=i, trace=trace, config=config.core)
            for i, trace in enumerate(traces)
        ]

        # Precomputed per-start-index core orderings for the tick rotation.
        count = len(self.cores)
        self._rotations: List[Tuple[Core, ...]] = [
            tuple(self.cores[(start + offset) % count]
                  for offset in range(count))
            for start in range(count)
        ]

        # LLC hits waiting to return data: (ready_cycle, core), and the
        # earliest ready cycle among them.
        self._pending_hits: List[Tuple[int, Core]] = []
        self._next_hit_cycle = _NEVER
        # Set by the fast engine: skip the ticks of cores whose refused
        # access would be refused again (see tick()).
        self.skip_refused_cores = False
        # Per core: what its last refused access waits on, as
        # ``(MSHR version, full queue or None, that queue's version)``;
        # None once a tick of the core is not refused.
        self._refusals: List[Optional[Tuple[int, Optional[RequestQueue],
                                            int]]] = [None] * count
        self.cycle = 0
        # Whether any core enqueued a memory request during the last tick.
        # Enqueues mutate controller state *after* the controller's phase of
        # the tick, so the controller must be ticked again on the very next
        # cycle; consumed by next_event_cycle().  LLC-hit sends and MSHR
        # merges do not touch the controller and so do not set this — their
        # observable futures (data returns, fills) are tracked as events.
        self._enqueued_this_tick = True

    # ------------------------------------------------------------------ #
    # Core → memory path
    # ------------------------------------------------------------------ #
    def _send(self, core: Core, address: int, flags: int) -> bool:
        """Handle one memory access from ``core``; return False to stall it.

        ``flags`` is the access's trace flag byte (``FLAG_WRITE``,
        ``FLAG_BYPASS``).
        """

        is_write = (flags & FLAG_WRITE) != 0
        thread_id = core.thread_id
        if flags & FLAG_BYPASS:
            return self._send_uncached(core, address, is_write, thread_id)
        result = self.llc.access_if_resident(address, is_write=is_write,
                                             thread_id=thread_id)
        if result is not None:
            if not is_write:
                ready = self.cycle + result.latency
                self._pending_hits.append((ready, core))
                if ready < self._next_hit_cycle:
                    self._next_hit_cycle = ready
            return True

        line_address = self.llc.line_address(address)
        existing = self.mshrs.lookup(line_address)
        if existing is not None:
            # Secondary miss: merge and (for loads) wait on the same fill.
            self.llc.access(address, is_write=is_write, thread_id=thread_id)
            self.mshrs.allocate(line_address, thread_id, self.cycle, is_write)
            if not is_write:
                existing.waiters.append(core)
            return True

        if is_write:
            # Store misses are posted to the controller's write queue without
            # holding an MSHR (a write buffer in a real hierarchy); the store
            # already retired at the core.
            if not self.controller.can_accept(RequestType.WRITE):
                return self._refuse(core, self.controller.write_queue)
            self.llc.access(address, is_write=True, thread_id=thread_id)
            request = MemoryRequest(
                address=line_address,
                kind=RequestType.WRITE,
                thread_id=thread_id,
                arrival_cycle=self.cycle,
            )
            self._enqueued_this_tick = True
            return self.controller.enqueue(request)

        # Primary load miss: needs an MSHR (gated by BreakHammer's per-thread
        # quota) plus a controller queue slot.  The checks run before the
        # access is recorded so that a stalled-and-retried access does not
        # inflate the miss statistics.
        if not self.mshrs.can_allocate(thread_id):
            return self._refuse(core, None)
        if not self.controller.can_accept(RequestType.READ):
            return self._refuse(core, self.controller.read_queue)
        self.llc.access(address, is_write=False, thread_id=thread_id)
        entry = self.mshrs.allocate(line_address, thread_id, self.cycle, False)
        assert entry is not None
        entry.waiters.append(core)
        request = MemoryRequest(
            address=line_address,
            kind=RequestType.READ,
            thread_id=thread_id,
            arrival_cycle=self.cycle,
        )
        accepted = self.controller.enqueue(request)
        if not accepted:  # pragma: no cover - guarded by can_accept above
            self.mshrs.release(line_address)
            return False
        self._enqueued_this_tick = True
        return True

    def _send_uncached(self, core: Core, address: int, is_write: bool,
                       thread_id: int) -> bool:
        """Non-cacheable access: skips the LLC; a read still needs an MSHR.

        Models the ``clflush``-style accesses a hammering attacker performs;
        the MSHR requirement is what lets BreakHammer throttle such a
        thread's reads even though they never hit the cache.  A write
        enters the write queue without an MSHR, so no quota gates it.
        """

        line_address = self.llc.line_address(address)
        if is_write:
            if not self.controller.can_accept(RequestType.WRITE):
                return self._refuse(core, self.controller.write_queue)
            self._enqueued_this_tick = True
            return self.controller.enqueue(MemoryRequest(
                address=line_address,
                kind=RequestType.WRITE,
                thread_id=thread_id,
                arrival_cycle=self.cycle,
            ))
        existing = self.mshrs.lookup(line_address)
        if existing is not None:
            self.mshrs.allocate(line_address, thread_id, self.cycle, False,
                                uncached=True)
            existing.waiters.append(core)
            return True
        if not self.mshrs.can_allocate(thread_id):
            return self._refuse(core, None)
        if not self.controller.can_accept(RequestType.READ):
            return self._refuse(core, self.controller.read_queue)
        entry = self.mshrs.allocate(line_address, thread_id, self.cycle, False,
                                    uncached=True)
        assert entry is not None
        entry.waiters.append(core)
        request = MemoryRequest(
            address=line_address,
            kind=RequestType.READ,
            thread_id=thread_id,
            arrival_cycle=self.cycle,
        )
        accepted = self.controller.enqueue(request)
        if not accepted:  # pragma: no cover - guarded by can_accept above
            self.mshrs.release(line_address)
            return False
        self._enqueued_this_tick = True
        return True

    def _refuse(self, core: Core, queue: Optional[RequestQueue]) -> bool:
        """Refuse ``core``'s access, recording what it waits on.

        ``queue`` is the full request queue that refused it, or ``None``
        when the MSHR file did.  Until the MSHR file's version (and that
        queue's) moves, re-sending the access is refused the same way: the
        line stays out of the LLC (only a fill after a release brings it
        in) and out of the MSHR file (a primary allocation), the thread's
        capacity and quota stay put (allocations, releases, quota
        changes), and so does the queue's occupancy (its pushes and
        removes).
        """

        self._refusals[core.core_id] = (
            self.mshrs.version, queue, 0 if queue is None else queue.version
        )
        return False

    def _on_memory_response(self, request: MemoryRequest, cycle: int) -> None:
        """Release the read's MSHR, fill the LLC, and wake waiting cores.

        The controller calls this for each completed read in the middle of
        its tick (``MemoryController.tick``'s ``respond``), so a dirty
        victim's writeback is already queued when that tick schedules.
        Every read the system creates holds its line's MSHR entry until it
        completes; a read without one is a bookkeeping fault.
        """

        entry = self.mshrs.release(request.address)
        if entry is None:
            raise RuntimeError(
                f"read of line 0x{request.address:x} completed without an "
                "MSHR entry"
            )
        # The entry's flag decides whether to install the line: a
        # cacheable load that merged into an uncached fetch clears the
        # flag, so its data does land in the LLC.
        if not entry.uncached:
            writeback = self.llc.fill(
                request.address,
                is_write=request.is_write,
                thread_id=request.thread_id,
            )
            if writeback is not None:
                # Dirty victim: issue a best-effort writeback (dropped if
                # the write queue is full; data loss is irrelevant to a
                # tag-only model).
                self.controller.enqueue(MemoryRequest(
                    address=writeback,
                    kind=RequestType.WRITE,
                    thread_id=request.thread_id,
                    arrival_cycle=cycle,
                ))
        for core in entry.waiters:
            core.on_data_returned(cycle)

    # ------------------------------------------------------------------ #
    # Cycle loop body
    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        """Simulate ``cycle``: BreakHammer's clock, the controller, LLC-hit
        returns, then every core in the cycle's rotation.

        With :attr:`skip_refused_cores` (the fast engine), a core whose
        last access was refused is not ticked while the MSHR file's
        version, and the version of the full queue that refused it, are
        those recorded at the refusal (:meth:`_refuse`): its tick would
        re-send the access and be refused again, which changes nothing but
        its stall count, and ``Core.tick``'s catch-up counts the skipped
        cycles at its next tick.  The key is re-read per core inside the
        rotation, because a core ticked earlier in the same cycle may
        allocate the MSHR or take the queue slot a later core waits on.
        """

        self.cycle = cycle
        self._enqueued_this_tick = False
        if self.breakhammer is not None:
            self.breakhammer.tick(cycle)
        self.controller.tick(cycle, self._on_memory_response)
        self._return_llc_hits(cycle)
        # The start index rotates with the cycle number so no core gets
        # structural priority over shared resources (MSHRs, queue slots)
        # just by tick order.  Deriving it from the cycle — rather than from
        # a tick counter — keeps the cycle and fast-forward engines on the
        # same arbitration sequence.
        rotation = self._rotations[(cycle - 1) % len(self.cores)]
        send = self._send
        if not self.skip_refused_cores:
            for core in rotation:
                core.tick(cycle, send)
            return
        refusals = self._refusals
        mshrs = self.mshrs
        for core in rotation:
            index = core.core_id
            refusal = refusals[index]
            if refusal is not None:
                queue = refusal[1]
                if refusal[0] == mshrs.version and (
                        queue is None or refusal[2] == queue.version):
                    continue
                refusals[index] = None
            core.tick(cycle, send)

    def _return_llc_hits(self, cycle: int) -> None:
        if cycle < self._next_hit_cycle:
            return
        still_pending: List[Tuple[int, Core]] = []
        next_hit = _NEVER
        for ready_cycle, core in self._pending_hits:
            if ready_cycle <= cycle:
                core.on_data_returned(cycle)
            else:
                still_pending.append((ready_cycle, core))
                if ready_cycle < next_hit:
                    next_hit = ready_cycle
        self._pending_hits = still_pending
        self._next_hit_cycle = next_hit

    # ------------------------------------------------------------------ #
    # Fast-forward support
    # ------------------------------------------------------------------ #
    def next_event_cycle(self) -> int:
        """The next cycle :meth:`tick` must simulate to stay cycle-accurate.

        Returns ``cycle + 1`` whenever a core enqueued a memory request
        during the last tick (the controller must react next cycle);
        otherwise the
        earliest of the controller's next event, each core's next
        self-driven tick (bubble runs are batched), the next pending
        LLC-hit data return, and BreakHammer's next window boundary.  The
        engine may safely jump straight to the returned cycle: nothing
        observable can happen in between.
        """

        cycle = self.cycle
        next_cycle = cycle + 1
        if self._enqueued_this_tick:
            return next_cycle
        earliest: Optional[int] = None
        controller_event = self.controller.next_event_cycle()
        if controller_event is not None:
            if controller_event <= next_cycle:
                return next_cycle
            earliest = controller_event
        for core in self.cores:
            core_event = core.next_event_cycle(cycle)
            if core_event is not None:
                if core_event <= next_cycle:
                    return next_cycle
                if earliest is None or core_event < earliest:
                    earliest = core_event
        if self._pending_hits:
            hit_event = self._next_hit_cycle
            if hit_event <= next_cycle:
                return next_cycle
            if earliest is None or hit_event < earliest:
                earliest = hit_event
        if self.breakhammer is not None:
            window_event = self.breakhammer.next_event_cycle()
            if earliest is None or window_event < earliest:
                earliest = window_event
        if earliest is None or earliest < next_cycle:
            return next_cycle
        return earliest

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def core(self, index: int) -> Core:
        return self.cores[index]

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def outstanding_work(self) -> int:
        return (
            self.controller.pending_requests
            + len(self._pending_hits)
            + len(self.mshrs)
        )

    def snapshot(self) -> Dict[str, object]:
        return {
            "cycle": self.cycle,
            "cores": [core.snapshot() for core in self.cores],
            "llc": {
                "hits": self.llc.stats.hits,
                "misses": self.llc.stats.misses,
                "miss_rate": self.llc.stats.miss_rate,
            },
            "mshrs": self.mshrs.snapshot(),
            "controller": self.controller.snapshot(),
            "breakhammer": (
                self.breakhammer.snapshot() if self.breakhammer else None
            ),
        }
