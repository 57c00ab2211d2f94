"""The memory controller.

One :class:`MemoryController` instance drives one DRAM channel.  Per cycle it
issues at most one DRAM command, chosen with the following priority order
(highest first):

1. an overdue periodic refresh that can no longer be postponed,
2. pending RowHammer-preventive maintenance demanded by the attached
   mitigation mechanism (victim refreshes, RFM windows, row migrations),
3. a periodic refresh that is pending and whose rank has no ready work,
4. a command on behalf of a queued read (or write, during write drain),
   selected by the FR-FCFS+Cap scheduler.

Every issued ACT and every completed preventive action is reported to the
registered observers; BreakHammer registers itself as such an observer.

For the fast-forward engine the controller reports, after each tick,
whether the tick did anything observable and — when it did not — the
earliest future cycle it possibly can (:meth:`MemoryController.
next_event_cycle`), derived from the timing bounds of the commands it
tried but failed to issue (recorded as they fail, a mitigation's veto
included), in-flight completion times, refresh deadlines, and the
mitigation mechanism's own clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.controller.queues import RequestQueue
from repro.controller.request import MemoryRequest, RequestType
from repro.controller.scheduler import (
    BaseScheduler,
    FrFcfsCapScheduler,
    SchedulerDecision,
)
from repro.dram.address import AddressMapper, DramAddress, MappingScheme
from repro.dram.commands import Command, CommandType
from repro.dram.config import DeviceConfig
from repro.dram.device import Channel
from repro.dram.energy import EnergyModel
from repro.dram.refresh import RefreshManager
from repro.mitigations.base import (
    ActionObserver,
    MitigationMechanism,
    NoMitigation,
    PreventiveAction,
)


@dataclass
class ControllerStats:
    """Aggregate statistics collected by the controller."""

    reads_completed: int = 0
    writes_completed: int = 0
    activations: int = 0
    precharges: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    refreshes: int = 0
    preventive_actions: int = 0
    preventive_commands: int = 0
    blocked_activations: int = 0
    read_latencies: List[int] = field(default_factory=list)
    latency_by_thread: Dict[int, List[int]] = field(default_factory=dict)
    activations_by_thread: Dict[int, int] = field(default_factory=dict)

    def record_read_latency(self, thread_id: Optional[int], latency: int) -> None:
        self.read_latencies.append(latency)
        if thread_id is not None:
            self.latency_by_thread.setdefault(thread_id, []).append(latency)

    def record_activation(self, thread_id: Optional[int]) -> None:
        self.activations += 1
        if thread_id is not None:
            self.activations_by_thread[thread_id] = (
                self.activations_by_thread.get(thread_id, 0) + 1
            )


class MemoryController:
    """Cycle-driven memory controller for one DRAM channel."""

    def __init__(
        self,
        config: DeviceConfig,
        mitigation: Optional[MitigationMechanism] = None,
        scheduler: Optional[BaseScheduler] = None,
        mapper: Optional[AddressMapper] = None,
        channel_index: int = 0,
        read_queue_size: int = 64,
        write_queue_size: int = 64,
        write_drain_high: float = 0.75,
        write_drain_low: float = 0.25,
    ) -> None:
        self.config = config
        self.channel_index = channel_index
        self.channel = Channel(config, channel_index)
        self.timing = config.timing_cycles()
        self.mitigation = mitigation or NoMitigation(config)
        self.scheduler = scheduler or FrFcfsCapScheduler(cap=4)
        self.mapper = mapper or AddressMapper(config, MappingScheme.MOP)
        self.refresh_manager = RefreshManager(config, channel=channel_index)
        self.energy = EnergyModel(config)

        self.read_queue = RequestQueue(read_queue_size, name="read")
        self.write_queue = RequestQueue(write_queue_size, name="write")
        self._write_drain = False
        self._write_drain_high = write_drain_high
        self._write_drain_low = write_drain_low

        # Preventive work waiting to be issued, in FIFO order.
        self._pending_actions: List[PreventiveAction] = []
        # Requests whose column command has issued; completed when due.
        self._in_flight: List[Tuple[int, MemoryRequest]] = []

        self.observers: List[ActionObserver] = []
        self.stats = ControllerStats()
        self.cycle = 0
        self._next_refresh_window = self.timing.refresh_window

        # Fast-forward bookkeeping, refreshed by every tick(): whether the
        # tick had any observable effect, and the earliest timing bound of
        # the commands it tried but failed to issue (each failed attempt
        # records the bound it was tested against).
        self._progress = True
        self._stall_bound = self._NO_TIMING_BOUND
        # Activation attempts the last tick's fully-failed request scan
        # vetoed.  The cycle engine re-runs that scan, and re-counts its
        # vetoes, in every cycle the fast engines skip after it.
        self._scan_vetoes = 0

        # Whether the mitigation can veto activations (BlockHammer-style).
        # A veto can end before the floor it recorded: at the mechanism's
        # counter-window switch or at the refresh-window clear.  Neither
        # changes the failed-scan memo's key, so the memo below could
        # replay a failure that no longer holds; it stays off, as does the
        # batch kernel's scan prediction (see repro.sim.batch.kernel).
        self._gating_mitigation = (
            type(self.mitigation).activation_floor
            is not MitigationMechanism.activation_floor
        )
        # Failed-scan memo: after a request scan in which every tried
        # decision failed, the decision sequence and its failure are fully
        # determined by (channel issue serial, queue versions) until the
        # earliest timing bound of the stalled commands.  Until either
        # changes, the scan can be replayed without running it.
        # ``None`` or ``(key, earliest_timing_bound)``.
        self._scan_memo: Optional[Tuple] = None
        # One-shot scan prediction installed by the batch engine's
        # vectorised kernel: ``(cycle, issue_serial, read_version,
        # write_version, winner_request_or_None, is_row_hit,
        # stall_bound)``.  Consumed (and validated) by
        # _issue_request_command; a stale or wrong prediction falls back to
        # the ordinary scan, so predictions can never change behaviour —
        # only skip provably-identical work.
        self._scan_prediction: Optional[Tuple] = None
        self.scan_predictions_used = 0
        self.scan_mispredictions = 0
        self.scan_memo_hits = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def register_observer(self, observer: ActionObserver) -> None:
        """Attach an observer (e.g. BreakHammer) for activation/action events."""

        self.observers.append(observer)

    def enqueue(self, request: MemoryRequest) -> bool:
        """Accept a memory request; returns ``False`` when the queue is full."""

        queue = self.write_queue if request.is_write else self.read_queue
        if queue.is_full:
            return False
        request.arrival_cycle = self.cycle
        request.coordinate = self.mapper.map(request.address)
        queue.push(request)
        return True

    def can_accept(self, kind: RequestType) -> bool:
        queue = self.write_queue if kind.is_write else self.read_queue
        return not queue.is_full

    @property
    def pending_requests(self) -> int:
        return len(self.read_queue) + len(self.write_queue) + len(self._in_flight)

    @property
    def pending_preventive_actions(self) -> int:
        return len(self._pending_actions)

    def tick(self, cycle: int) -> List[MemoryRequest]:
        """Advance one cycle; return the requests that completed this cycle."""

        if self._scan_vetoes:
            # Any cycles since the last tick were skipped as inert, and
            # next_event_cycle() ended the jump by the earliest veto's
            # end: in each, the same failed scan vetoed the same attempts.
            self._count_vetoes(self._scan_vetoes * (cycle - self.cycle - 1))
            self._scan_vetoes = 0
        self.cycle = cycle
        self._progress = False
        self._stall_bound = self._NO_TIMING_BOUND
        self.refresh_manager.tick(cycle)
        self._tick_refresh_window(cycle)
        self._collect_mitigation_ticks(cycle)
        completed = self._drain_completed(cycle)
        if completed:
            self._progress = True
        self._update_write_drain()
        self._issue_one_command(cycle)
        return completed

    def next_event_cycle(self) -> Optional[int]:
        """Earliest future cycle at which this controller can act.

        Only meaningful immediately after :meth:`tick`.  Returns
        ``cycle + 1`` whenever the last tick issued a command, completed a
        request, or mutated any statistic other than the vetoed-activation
        counts, so the fast engine stays cycle-accurate through busy
        periods.  When the last tick was provably idle, the result is the
        minimum of the collected command-timing bounds (a vetoed
        activation's bound is the end of its veto), in-flight completion
        times, refresh deadlines, and the mitigation mechanism's own
        deadlines.  The vetoes the cycle engine would re-count in every
        cycle up to that point are credited by the next :meth:`tick`.
        ``None`` means the controller has no future work at all.
        """

        cycle = self.cycle
        if self._progress:
            return cycle + 1
        earliest = self._next_refresh_window
        if self._stall_bound <= cycle:
            # A nominally-ready command did not issue: a non-timing
            # condition intervened.  Fall back to per-cycle stepping.
            return cycle + 1
        if self._stall_bound < earliest:
            earliest = self._stall_bound
        if self._in_flight:
            done_event = min(done for done, _ in self._in_flight)
            if done_event < earliest:
                earliest = done_event
        urgent_delay = int(self.REFRESH_PRIORITY_URGENCY * self.timing.trefi)
        for state in self.refresh_manager.states:
            if state.pending:
                # A pending REF changes scheduling priority once it becomes
                # urgent; make sure that crossing is simulated.
                event = state.next_refresh_cycle + urgent_delay
                if event <= cycle:
                    continue
            else:
                event = state.next_refresh_cycle
            if event < earliest:
                earliest = event
        mitigation_event = self.mitigation.next_event_cycle(cycle)
        if mitigation_event is not None and \
                cycle < mitigation_event < earliest:
            earliest = mitigation_event
        if earliest <= cycle:
            return cycle + 1
        return earliest

    # ------------------------------------------------------------------ #
    # Internal: housekeeping
    # ------------------------------------------------------------------ #
    def _tick_refresh_window(self, cycle: int) -> None:
        while cycle >= self._next_refresh_window:
            self.mitigation.on_refresh_window(cycle)
            self._next_refresh_window += self.timing.refresh_window
            self._progress = True

    def _collect_mitigation_ticks(self, cycle: int) -> None:
        for action in self.mitigation.tick(cycle):
            self._pending_actions.append(action)
            self._progress = True

    def _drain_completed(self, cycle: int) -> List[MemoryRequest]:
        if not self._in_flight:
            return []
        done: List[MemoryRequest] = []
        remaining: List[Tuple[int, MemoryRequest]] = []
        for done_cycle, request in self._in_flight:
            if done_cycle <= cycle:
                request.complete(cycle)
                done.append(request)
                if request.is_write:
                    self.stats.writes_completed += 1
                else:
                    self.stats.reads_completed += 1
                    if request.latency is not None:
                        self.stats.record_read_latency(
                            request.thread_id, request.latency
                        )
            else:
                remaining.append((done_cycle, request))
        self._in_flight = remaining
        return done

    def _update_write_drain(self) -> None:
        occupancy = self.write_queue.occupancy
        if not self._write_drain and occupancy >= self._write_drain_high:
            self._write_drain = True
        elif self._write_drain and occupancy <= self._write_drain_low:
            self._write_drain = False
        # Always drain writes if there is nothing else to do.
        if not self.read_queue and self.write_queue:
            self._write_drain = True

    # ------------------------------------------------------------------ #
    # Internal: command issue
    # ------------------------------------------------------------------ #
    def _issue_one_command(self, cycle: int) -> None:
        if self._issue_urgent_refresh(cycle):
            return
        if self._issue_preventive(cycle):
            return
        if self._issue_request_command(cycle):
            return
        self._issue_opportunistic_refresh(cycle)

    # -- refresh -------------------------------------------------------- #
    #: A pending refresh overdue by more than this fraction of tREFI takes
    #: priority over regular requests (JEDEC allows postponing refreshes,
    #: but they must not starve behind a saturated request stream).
    REFRESH_PRIORITY_URGENCY = 0.5

    def _issue_urgent_refresh(self, cycle: int) -> bool:
        for state in self.refresh_manager.states:
            urgency = self.refresh_manager.urgency(state.rank, cycle)
            if urgency < self.REFRESH_PRIORITY_URGENCY:
                continue
            if self._try_refresh_rank(state.rank, cycle):
                return True
        return False

    def _issue_opportunistic_refresh(self, cycle: int) -> bool:
        command = self.refresh_manager.pending_refresh(cycle)
        if command is None:
            return False
        return self._try_refresh_rank(command.rank, cycle)

    def _try_refresh_rank(self, rank: int, cycle: int) -> bool:
        ref = Command(CommandType.REF, channel=self.channel_index, rank=rank)
        if self.channel.ready(ref, cycle):
            self.channel.issue(ref, cycle)
            self.energy.record(CommandType.REF)
            self.refresh_manager.refresh_issued(rank, cycle)
            self.stats.refreshes += 1
            self._progress = True
            return True
        # Close an open bank in this rank so the refresh can go out soon.
        any_open = False
        for bank in self.channel.rank(rank).iter_banks():
            if bank.is_open():
                any_open = True
                if self._try_precharge(rank, bank.bank_group, bank.bank,
                                       cycle):
                    return True
        if not any_open:
            self._stall(CommandType.REF, rank, 0, 0, cycle)
        return False

    def _try_precharge(self, rank: int, bank_group: int, bank: int,
                       cycle: int) -> bool:
        """Close an open bank if PRE timing allows, else record its bound."""

        bound = self.channel.kind_earliest_ready_cycle(
            CommandType.PRE, rank, bank_group, bank, cycle
        )
        if bound > cycle:
            if bound < self._stall_bound:
                self._stall_bound = bound
            return False
        self._precharge(rank, bank_group, bank, cycle)
        return True

    def _precharge(self, rank: int, bank_group: int, bank: int,
                   cycle: int) -> None:
        pre = Command(CommandType.PRE, channel=self.channel_index, rank=rank,
                      bank_group=bank_group, bank=bank)
        self.channel.issue(pre, cycle)
        self.energy.record(CommandType.PRE)
        self.stats.precharges += 1
        self._progress = True

    def _stall(self, kind: CommandType, rank: int, bank_group: int,
               bank: int, cycle: int) -> None:
        """Record the timing bound of a command that could not issue."""

        bound = self.channel.kind_earliest_ready_cycle(kind, rank, bank_group,
                                                       bank, cycle)
        if bound < self._stall_bound:
            self._stall_bound = bound

    # -- preventive maintenance ------------------------------------------ #
    def _issue_preventive(self, cycle: int) -> bool:
        if not self._pending_actions:
            return False
        action = self._pending_actions[0]
        if not action.commands:
            self._finish_action(action, cycle)
            return False
        command = action.commands[0]
        if self.channel.ready(command, cycle):
            self.channel.issue(command, cycle)
            self.energy.record(command.kind)
            self.stats.preventive_commands += 1
            self._progress = True
            action.commands.pop(0)
            if not action.commands:
                self._finish_action(action, cycle)
            return True
        # The target bank may hold an open row: close it so the
        # maintenance command can issue.
        bank = self.channel.bank(command.rank, command.bank_group, command.bank)
        if bank.is_open():
            return self._try_precharge(command.rank, command.bank_group,
                                       command.bank, cycle)
        self._stall(command.kind, command.rank, command.bank_group,
                    command.bank, cycle)
        return False

    def _finish_action(self, action: PreventiveAction, cycle: int) -> None:
        action.completed_cycle = cycle
        self._pending_actions.remove(action)
        self.stats.preventive_actions += 1
        self._progress = True
        for observer in self.observers:
            observer.on_preventive_action(action, cycle)

    # -- regular requests ------------------------------------------------ #
    def _request_queue(self) -> RequestQueue:
        """The queue served this cycle: writes while draining, else reads,
        or writes when no read is waiting."""

        if self._write_drain or not self.read_queue:
            return self.write_queue
        return self.read_queue

    #: Number of top-priority candidates the controller will try per cycle
    #: before giving up; bounds the per-cycle scheduling work while still
    #: preserving bank-level parallelism.
    MAX_SCHEDULE_ATTEMPTS = 16

    #: Sentinel bound for a failed scan that only queue or channel
    #: mutations (never bare time) can unblock.
    _NO_TIMING_BOUND = 1 << 62

    def _scan_key(self) -> Tuple[int, int, int]:
        """Versions that pin the request scan's inputs.

        The decision sequence and every per-decision outcome apart from
        pure timing readiness are functions of the queues' contents, the
        channel state (open rows, timing floors, refresh/cap state — all
        mutated only by command issues), and the write-drain flag (itself
        determined by the queue occupancies).  So (issue serial, read
        version, write version) unchanged ⟹ same decisions, same
        priority sequence, same non-timing gates.
        """

        return (self.channel.issue_serial, self.read_queue.version,
                self.write_queue.version)

    def _issue_request_command(self, cycle: int) -> bool:
        prediction = self._scan_prediction
        if prediction is not None:
            self._scan_prediction = None
            if (prediction[0] == cycle
                    and prediction[1] == self.channel.issue_serial
                    and prediction[2] == self.read_queue.version
                    and prediction[3] == self.write_queue.version):
                request = prediction[4]
                if request is None:
                    # Predicted full failure: record the bound the scan
                    # would have (it feeds next_event_cycle) and skip it.
                    if prediction[6] < self._stall_bound:
                        self._stall_bound = prediction[6]
                    self.scan_predictions_used += 1
                    return False
                is_row_hit = prediction[5]
                decision = SchedulerDecision(
                    request, is_row_hit,
                    "row-hit" if is_row_hit else "oldest-miss",
                )
                if self._serve_first((decision,), cycle)[0]:
                    self.scan_predictions_used += 1
                    return True
                # Wrong prediction: the failed attempt only lowered the
                # stall bound to one the scan also records, so falling
                # through to the full scan stays exact.
                self.scan_mispredictions += 1

        memo = self._scan_memo
        if memo is not None:
            if memo[0] == self._scan_key():
                if cycle < memo[1]:
                    # Nothing the scan depends on changed and no tried
                    # command can have become timing-ready: the scan would
                    # fail exactly as before.
                    if memo[1] < self._stall_bound:
                        self._stall_bound = memo[1]
                    self.scan_memo_hits += 1
                    return False
            else:
                self._scan_memo = None

        queue = self._request_queue()
        if not queue:
            self._scan_memo = (self._scan_key(), self._NO_TIMING_BOUND)
            return False
        served, attempts, bound = self._serve_first(
            self.scheduler.iter_prioritized(queue, self.channel, cycle), cycle
        )
        if served:
            return True
        # Memoize a fully-failed scan, unless the attempt budget truncated
        # it or the mitigation can veto activations (see
        # ``_gating_mitigation``).  Decisions that failed the refresh-urgency
        # gate recorded no bound; they stay blocked until a REF issues,
        # which bumps the channel serial and invalidates the memo.
        if attempts < self.MAX_SCHEDULE_ATTEMPTS \
                and not self._gating_mitigation:
            self._scan_memo = (self._scan_key(), bound)
        return False

    def _serve_first(self, decisions: Iterable[SchedulerDecision],
                     cycle: int) -> Tuple[bool, int, int]:
        """Issue one command for the first decision its bank can take.

        Each decision is tested against the DRAM timing floors themselves,
        the values :meth:`Channel.timing_floor` composes: the bank's
        ``_next_rdwr`` and the data-bus floor for a row hit, ``_next_pre``
        for a row conflict, ``_next_act`` and the rank's ACT floor for a
        closed bank.  A closed bank's ACT must first pass the refresh
        priority gate and then the mitigation's veto, whose end is one
        more floor.  Returns ``(served, attempts, bound)``: ``bound`` is
        the earliest floor among the failed attempts, which also lowers
        the tick's stall bound.
        """

        channel = self.channel
        ranks = channel.ranks
        bus_floor = channel._data_bus_free_at
        urgency = self.refresh_manager.urgency
        urgent = self.REFRESH_PRIORITY_URGENCY
        gate = (self.mitigation.activation_floor
                if self._gating_mitigation else None)
        budget = self.MAX_SCHEDULE_ATTEMPTS
        no_bound = self._NO_TIMING_BOUND
        attempts = 0
        vetoes = 0
        bound = no_bound
        served = False
        for decision in decisions:
            coord = decision.request.coordinate
            rank = ranks[coord.rank]
            bank = rank.banks[coord.bank_group][coord.bank]
            open_row = bank.open_row
            if open_row == coord.row:
                floor = bank._next_rdwr
                if bus_floor > floor:
                    floor = bus_floor
                if floor <= cycle:
                    self._serve_row_hit(decision, cycle)
                    served = True
                    break
            elif open_row is not None:
                floor = bank._next_pre
                if floor <= cycle:
                    # Row conflict: close the open row first.
                    self._precharge(coord.rank, coord.bank_group, coord.bank,
                                    cycle)
                    self.stats.row_conflicts += 1
                    bank.record_conflict()
                    served = True
                    break
            # Closed bank: activate the row, subject to refresh priority
            # (new activations would starve an overdue REF).  That is not a
            # timing condition, so it records no bound: the REF is an event
            # of its own.
            elif urgency(coord.rank, cycle) >= urgent:
                floor = no_bound
            else:
                floor = gate(coord) if gate is not None else 0
                if floor > cycle:
                    # Vetoed until ``floor``.  Bounding the attempt by the
                    # veto's end alone keeps it vetoed in every cycle the
                    # fast engines skip, so the next tick can credit them.
                    vetoes += 1
                else:
                    floor = bank._next_act
                    rank_floor = rank.act_floors[coord.bank_group]
                    if rank_floor > floor:
                        floor = rank_floor
                    if floor <= cycle:
                        self._activate(decision.request, cycle)
                        served = True
                        break
            if floor < bound:
                bound = floor
            attempts += 1
            if attempts >= budget:
                break
        if vetoes:
            self._count_vetoes(vetoes)
        if served:
            return True, attempts, bound
        self._scan_vetoes = vetoes
        if bound < self._stall_bound:
            self._stall_bound = bound
        return False, attempts, bound

    def _count_vetoes(self, count: int) -> None:
        """Count ``count`` vetoed activation attempts, here and in the
        mitigation (the only site that counts either)."""

        self.stats.blocked_activations += count
        self.mitigation.delayed_activations += count

    def _serve_row_hit(self, decision: SchedulerDecision, cycle: int) -> None:
        request = decision.request
        coord = request.coordinate
        kind = CommandType.WR if request.is_write else CommandType.RD
        command = Command(
            kind,
            channel=self.channel_index,
            rank=coord.rank,
            bank_group=coord.bank_group,
            bank=coord.bank,
            row=coord.row,
            column=coord.column,
            source_thread=request.thread_id,
        )
        done = self.channel.issue(command, cycle)
        self.energy.record(kind)
        self.stats.row_hits += 1
        self._progress = True
        if request.first_command_cycle is None:
            request.first_command_cycle = cycle
        self._remove_from_queue(request)
        self._in_flight.append((done, request))
        self.scheduler.notify_served(decision)

    def _activate(self, request: MemoryRequest, cycle: int) -> None:
        coord = request.coordinate
        act = Command(
            CommandType.ACT,
            channel=self.channel_index,
            rank=coord.rank,
            bank_group=coord.bank_group,
            bank=coord.bank,
            row=coord.row,
            source_thread=request.thread_id,
        )
        self.channel.issue(act, cycle)
        self.energy.record(CommandType.ACT)
        self.energy.record(CommandType.PRE)  # every ACT implies a later PRE pair
        self.stats.record_activation(request.thread_id)
        self.stats.row_misses += 1
        self._progress = True
        if request.first_command_cycle is None:
            request.first_command_cycle = cycle
        self._notify_activation(coord, request.thread_id, cycle)

    def _remove_from_queue(self, request: MemoryRequest) -> None:
        queue = self.write_queue if request.is_write else self.read_queue
        queue.remove(request)

    def _notify_activation(self, coord: DramAddress, thread_id: Optional[int],
                           cycle: int) -> None:
        for observer in self.observers:
            observer.on_activation(coord, thread_id, cycle)
        for action in self.mitigation.on_activation(coord, thread_id, cycle):
            self._pending_actions.append(action)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run the controller until all queued work completes.

        Returns the cycle at which the controller went idle.  Used by tests
        and by the end-of-simulation flush.
        """

        cycle = self.cycle
        while (self.pending_requests or self._pending_actions) and max_cycles > 0:
            cycle += 1
            max_cycles -= 1
            self.tick(cycle)
        return cycle

    def snapshot(self) -> Dict[str, object]:
        """A summary dictionary used by the stats collector."""

        return {
            "reads_completed": self.stats.reads_completed,
            "writes_completed": self.stats.writes_completed,
            "activations": self.stats.activations,
            "row_hits": self.stats.row_hits,
            "row_misses": self.stats.row_misses,
            "row_conflicts": self.stats.row_conflicts,
            "refreshes": self.stats.refreshes,
            "preventive_actions": self.stats.preventive_actions,
            "preventive_commands": self.stats.preventive_commands,
            "blocked_activations": self.stats.blocked_activations,
            "mitigation": self.mitigation.stats(),
            "channel": self.channel.stats(),
        }
