"""Trace-driven core model.

Each :class:`Core` replays one memory-access trace.  The model follows the
style used by Ramulator-class simulators: a core issues up to ``issue_width``
instructions per cycle; non-memory instructions retire immediately, memory
instructions are sent to the cache hierarchy and occupy the instruction
window until their data returns (reads) or immediately retire (writes).

The core stalls when

* its instruction window is full of outstanding loads, or
* the memory hierarchy refuses the access — e.g. because the thread's MSHR
  quota is exhausted (this is precisely how BreakHammer slows a suspect
  thread down), or the controller's request queue is full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.cpu.trace import FLAG_WRITE, Trace, TraceCursor

# The system passes every tick a send function: (core, address, flags) ->
# bool, ``flags`` being the trace's FLAG_WRITE/FLAG_BYPASS byte.  Returning
# False means the hierarchy cannot accept the access this cycle (e.g. the
# thread's MSHR quota is exhausted) and the core must retry.
SendFunction = Callable[["Core", int, int], bool]

# Why the last tick stalled; lets the fast-forward catch-up replay the
# per-cycle stall accounting the cycle engine would have performed.
_STALL_WINDOW = "window"
_STALL_REJECT = "reject"


@dataclass(frozen=True)
class CoreConfig:
    """Microarchitectural parameters of a core (paper Table 1)."""

    issue_width: int = 4
    instruction_window: int = 128
    frequency_ghz: float = 4.2

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ValueError("issue width must be positive")
        if self.instruction_window <= 0:
            raise ValueError("instruction window must be positive")


@dataclass
class CoreStats:
    """Progress counters for one core."""

    retired_instructions: int = 0
    retired_memory_accesses: int = 0
    issued_loads: int = 0
    issued_stores: int = 0
    stall_cycles_window: int = 0
    stall_cycles_reject: int = 0
    active_cycles: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class Core:
    """A trace-driven, in-order-issue core with out-of-order completion."""

    def __init__(self, core_id: int, trace: Trace,
                 config: Optional[CoreConfig] = None) -> None:
        self.core_id = core_id
        self.trace = trace
        self.config = config or CoreConfig()
        self.cursor: TraceCursor = trace.cursor()
        self._bubble_column, self._address_column, self._flag_column = \
            trace.columns
        self.stats = CoreStats()

        # Bubbles remaining before the current memory access can issue.
        self._bubbles_left: Optional[int] = None
        # Column index of the entry being executed (None between entries).
        self._pending: Optional[int] = None
        # Loads in flight (window occupancy).
        self.outstanding_loads = 0
        self.finished = False
        self.finish_cycle: Optional[int] = None
        # True when the last tick ended in a stall (full window or a
        # refused access).  While stalled the core cannot make progress on
        # its own, so it does not force per-cycle ticking.  A data return
        # ends a window stall.  A refused access waits for the memory
        # hierarchy to change (an MSHR allocation, release or quota change,
        # or a free queue slot), which a data return alone does not do, so
        # the core stays stalled until a tick re-sends the access; the fast
        # engine skips even those ticks until the state that refused it
        # changes (``System.tick``).
        self.stalled = False
        # What kind of stall ended the last tick (None when it didn't);
        # unlike ``stalled`` this is not cleared by data returns, so the
        # next tick's catch-up can still attribute the skipped cycles.
        self._stall_kind: Optional[str] = None
        # Cycle of the last tick, used to replay skipped cycles (bubble
        # retirement or stall re-attempts) exactly when the fast-forward
        # engine jumps ahead.
        self._last_tick_cycle = 0

    # ------------------------------------------------------------------ #
    @property
    def thread_id(self) -> int:
        """Hardware-thread identity used for activation attribution."""

        return self.core_id

    @property
    def retired_instructions(self) -> int:
        return self.stats.retired_instructions

    # ------------------------------------------------------------------ #
    def tick(self, cycle: int, send: SendFunction) -> int:
        """Issue up to ``issue_width`` instructions, sending memory accesses
        through ``send``; return how many issued."""

        if self.finished:
            return 0
        elapsed = cycle - self._last_tick_cycle
        self._last_tick_cycle = cycle
        if elapsed > 1:
            # The fast-forward engine jumped over cycles it proved inert
            # for the rest of the system; replay what this core did in each
            # of them so its statistics match the cycle engine exactly.
            skipped = elapsed - 1
            if self._stall_kind is _STALL_WINDOW:
                # Re-checked the full window and re-stalled every cycle
                # (nothing that could unstall it happens between events).
                self.stats.stall_cycles_window += skipped
            elif self._stall_kind is _STALL_REJECT:
                # Re-sent the access and was re-rejected every cycle.
                self.stats.stall_cycles_reject += skipped
            elif self._bubbles_left:
                # Retired ``issue_width`` bubbles per skipped cycle
                # (next_event_cycle() bounds the jump so that is always
                # exactly what the cycle engine would have done).
                catch_up = min(self._bubbles_left,
                               skipped * self.config.issue_width)
                self._bubbles_left -= catch_up
                self.stats.retired_instructions += catch_up
                self.stats.active_cycles += skipped
        issued = 0
        stalled = False
        stall_kind = None
        stats = self.stats
        width = self.config.issue_width
        window = self.config.instruction_window
        while issued < width and not stalled:
            if self._pending is None:
                index = self.cursor.advance()
                if index is None:
                    # Trace exhausted (non-looping trace).
                    self.finished = True
                    self.finish_cycle = cycle
                    break
                self._pending = index
                self._bubbles_left = self._bubble_column[index]
            bubbles = self._bubbles_left

            if bubbles:
                # Retire as many non-memory instructions as the width allows.
                retire = bubbles if bubbles < width - issued \
                    else width - issued
                self._bubbles_left = bubbles - retire
                stats.retired_instructions += retire
                issued += retire
                continue

            # The memory access at the head of the window.
            if self.outstanding_loads >= window:
                stats.stall_cycles_window += 1
                stalled = True
                stall_kind = _STALL_WINDOW
                break
            index = self._pending
            flags = self._flag_column[index]
            if not send(self, self._address_column[index], flags):
                stats.stall_cycles_reject += 1
                stalled = True
                stall_kind = _STALL_REJECT
                break
            issued += 1
            if flags & FLAG_WRITE:
                # Stores retire immediately (write buffer assumed).
                stats.issued_stores += 1
                stats.retired_instructions += 1
                stats.retired_memory_accesses += 1
            else:
                stats.issued_loads += 1
                self.outstanding_loads += 1
            self._pending = None
            self._bubbles_left = None
        self.stalled = stalled
        self._stall_kind = stall_kind
        if issued:
            self.stats.active_cycles += 1
        return issued

    # ------------------------------------------------------------------ #
    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Next cycle this core must be ticked, or ``None`` when waiting.

        A stalled or finished core has no self-driven events.  A core in the
        middle of a bubble (non-memory) run retires exactly ``issue_width``
        instructions per cycle, so the next cycle at which it can interact
        with the rest of the system — the tick that reaches its next memory
        access — is computable, and the cycles before it may be skipped and
        replayed in batch by :meth:`tick`.
        """

        if self.finished or self.stalled:
            return None
        bubbles = self._bubbles_left
        if not bubbles:
            return cycle + 1
        return cycle + 1 + bubbles // self.config.issue_width

    # ------------------------------------------------------------------ #
    def on_data_returned(self, cycle: int) -> None:
        """Callback from the memory hierarchy when a load completes."""

        if self.outstanding_loads <= 0:
            raise RuntimeError("data returned with no outstanding load")
        self.outstanding_loads -= 1
        self.stats.retired_instructions += 1
        self.stats.retired_memory_accesses += 1
        # A completed load frees window space.
        if self._stall_kind is _STALL_WINDOW:
            self.stalled = False

    def flush_stall_accounting(self, cycle: int) -> None:
        """Count the refused re-sends of the cycles up to ``cycle``.

        The fast engine stops ticking a core whose access was refused until
        the state that refused it changes; :meth:`tick`'s catch-up counts
        the skipped cycles at the next tick.  A run that stops while the
        core sleeps never reaches that tick, so the simulator calls this at
        the stop cycle: the same per-cycle increments the cycle engine
        performed, nothing else.
        """

        if self._stall_kind is _STALL_REJECT and cycle > self._last_tick_cycle:
            self.stats.stall_cycles_reject += cycle - self._last_tick_cycle
            self._last_tick_cycle = cycle

    # ------------------------------------------------------------------ #
    def ipc(self, cycles: int) -> float:
        if cycles <= 0:
            return 0.0
        return self.stats.retired_instructions / cycles

    def snapshot(self) -> Dict[str, object]:
        data = self.stats.as_dict()
        data.update(
            core_id=self.core_id,
            trace=self.trace.name,
            outstanding_loads=self.outstanding_loads,
            finished=self.finished,
        )
        return data
