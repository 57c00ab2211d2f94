"""BlockHammer — throttling-based RowHammer prevention (Yağlıkçı et al., HPCA 2021).

BlockHammer is the paper's state-of-the-art throttling *mitigation* (not an
add-on like BreakHammer): it blacklists rows that are being activated at a
rate that could reach the RowHammer threshold within a refresh window, and
delays further activations of blacklisted rows so the threshold can never be
reached before the periodic refresh restores the victims.

Two properties matter for the comparison in the paper's Fig. 18:

* BlockHammer never performs preventive refreshes — it only delays ACTs —
  so its cost is entirely the blocking delay;
* as ``N_RH`` decreases, the blacklist threshold falls and the required
  inter-activation delay grows, so even benign applications (which activate
  some rows hundreds of times per window, Table 3) become blocked and
  performance collapses.

The implementation uses exact per-row counters inside two time-interleaved
observation windows (the original uses counting Bloom filters; exactness only
makes our version stricter, never less safe).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dram.address import DramAddress
from repro.dram.config import DeviceConfig
from repro.mitigations.base import MitigationMechanism, PreventiveAction


class BlockHammer(MitigationMechanism):
    """Blacklist rapidly-activated rows and delay their future activations."""

    name = "blockhammer"

    def __init__(self, config: DeviceConfig, nrh: int,
                 blacklist_fraction: float = 0.25) -> None:
        super().__init__(config, nrh)
        timing = config.timing_cycles()
        self.window_cycles = timing.refresh_window
        # A row becomes blacklisted after this many activations in a window.
        self.blacklist_threshold = max(2, int(nrh * blacklist_fraction))
        # Once blacklisted, successive activations of the row must be spaced
        # far enough apart that the row cannot reach N_RH activations within
        # the refresh window.
        self.min_activation_interval = max(
            1, self.window_cycles // max(1, nrh)
        )

        # Two interleaved observation windows of per-row activation counts.
        self._counts_active: Dict[tuple, int] = {}
        self._counts_shadow: Dict[tuple, int] = {}
        self._last_activation_cycle: Dict[tuple, int] = {}
        self._next_window_switch = self.window_cycles // 2

        self.observed_activations = 0
        self.blacklisted_rows = 0

    # ------------------------------------------------------------------ #
    def _row_count(self, row_key: tuple) -> int:
        return max(
            self._counts_active.get(row_key, 0),
            self._counts_shadow.get(row_key, 0),
        )

    def is_blacklisted(self, coordinate: DramAddress) -> bool:
        return self._row_count(coordinate.row_key) >= self.blacklist_threshold

    def activation_floor(self, coordinate: DramAddress) -> int:
        # A blacklisted row waits out the interval since its last
        # activation; the window switch that un-blacklists it and the
        # refresh-window clear both lower the floor to 0.
        key = coordinate.row_key
        last = self._last_activation_cycle.get(key)
        if last is None or self._row_count(key) < self.blacklist_threshold:
            return 0
        return last + self.min_activation_interval

    def on_activation(self, coordinate: DramAddress,
                      thread_id: Optional[int],
                      cycle: int) -> List[PreventiveAction]:
        self.observed_activations += 1
        key = coordinate.row_key
        before = self._row_count(key)
        self._counts_active[key] = self._counts_active.get(key, 0) + 1
        self._counts_shadow[key] = self._counts_shadow.get(key, 0) + 1
        self._last_activation_cycle[key] = cycle
        if before < self.blacklist_threshold <= self._row_count(key):
            self.blacklisted_rows += 1
        return []

    def tick(self, cycle: int) -> List[PreventiveAction]:
        while cycle >= self._next_window_switch:
            self._next_window_switch += self.window_cycles // 2
            # The older window's counters expire; the shadow becomes active.
            self._counts_active = self._counts_shadow
            self._counts_shadow = {}
        return []

    def next_event_cycle(self, cycle: int) -> int:
        return self._next_window_switch

    def on_refresh_window(self, cycle: int) -> None:
        # Periodic refresh clears the last-activation history (victims are
        # now safe), but the interleaved counters expire on their own cadence.
        self._last_activation_cycle.clear()

    # ------------------------------------------------------------------ #
    def history_buffer_bytes(self) -> int:
        """Approximate SRAM cost of BlockHammer's row-tracking structures.

        The original design sizes its counting Bloom filters proportionally
        to the number of activations a refresh window can contain divided by
        the blacklist threshold; the cost therefore grows as N_RH decreases.
        Used by the Fig. 18 comparison's area commentary.
        """

        timing = self.config.timing_cycles()
        acts_per_window = timing.refresh_window // max(1, timing.trc)
        entries = max(1024, 8 * acts_per_window // max(1, self.blacklist_threshold))
        bytes_per_entry = 4
        return entries * bytes_per_entry * self.config.total_banks // 16

    def stats(self) -> dict:
        data = super().stats()
        data.update(
            blacklist_threshold=self.blacklist_threshold,
            min_activation_interval=self.min_activation_interval,
            blacklisted_rows=self.blacklisted_rows,
            delayed_activations=self.delayed_activations,
            observed_activations=self.observed_activations,
            history_buffer_bytes=self.history_buffer_bytes(),
        )
        return data
