"""BreakHammer: observe, identify, throttle.

:class:`BreakHammer` ties the three sub-mechanisms together and plugs into
the rest of the system through two narrow interfaces:

* it is registered as an :class:`repro.mitigations.base.ActionObserver` on
  the memory controller, so it sees every row activation (with its thread
  tag) and every completed RowHammer-preventive action;
* it drives per-thread MSHR quotas through a callback supplied by the system
  builder (usually :meth:`repro.cpu.mshr.MshrFile.set_quota`).

Per throttling window (``TH_window``, default 64 ms) it:

1. attributes each preventive action's weight to threads proportionally to
   their share of row activations since the previous action (§4.1),
2. runs Algorithm 1 on the active score counter set to find suspects (§4.2),
3. reduces suspects' quotas per Expression 1 and restores quotas of threads
   that stayed clean for a full window (§4.3),
4. rotates the two score counter sets (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.scores import DualCounterSet
from repro.core.suspect import SuspectDecision, SuspectDetector
from repro.core.throttler import QuotaPolicy, Throttler
from repro.dram.address import DramAddress
from repro.dram.config import DeviceConfig
from repro.mitigations.base import PreventiveAction


@dataclass(frozen=True)
class BreakHammerConfig:
    """BreakHammer's tunable parameters (paper Table 2)."""

    window_ms: float = 64.0  # TH_window
    threat_threshold: float = 32.0  # TH_threat
    outlier_threshold: float = 0.65  # TH_outlier
    p_oldsuspect: int = 1
    p_newsuspect: int = 10

    def as_dict(self) -> Dict[str, float]:
        return {
            "TH_window_ms": self.window_ms,
            "TH_threat": self.threat_threshold,
            "TH_outlier": self.outlier_threshold,
            "P_oldsuspect": self.p_oldsuspect,
            "P_newsuspect": self.p_newsuspect,
        }


@dataclass
class BreakHammerStats:
    """Counters BreakHammer maintains for reporting."""

    activations_observed: int = 0
    actions_observed: int = 0
    score_attributed: float = 0.0
    suspect_detections: int = 0
    windows_elapsed: int = 0
    suspects_by_thread: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "activations_observed": self.activations_observed,
            "actions_observed": self.actions_observed,
            "score_attributed": round(self.score_attributed, 3),
            "suspect_detections": self.suspect_detections,
            "windows_elapsed": self.windows_elapsed,
            "suspects_by_thread": dict(self.suspects_by_thread),
        }


class BreakHammer:
    """The BreakHammer mechanism (paper §4)."""

    def __init__(
        self,
        num_threads: int,
        config: Optional[BreakHammerConfig] = None,
        device_config: Optional[DeviceConfig] = None,
        full_quota: int = 64,
        apply_quota: Optional[Callable[[int, int], None]] = None,
        cycle_time_ns: Optional[float] = None,
    ) -> None:
        if num_threads <= 0:
            raise ValueError("BreakHammer needs at least one hardware thread")
        self.num_threads = num_threads
        self.config = config or BreakHammerConfig()
        if cycle_time_ns is None:
            cycle_time_ns = (
                device_config.timings.tck if device_config is not None else 0.416
            )
        self.cycle_time_ns = cycle_time_ns
        self.window_cycles = max(
            1, int(self.config.window_ms * 1e6 / cycle_time_ns)
        )

        self.scores = DualCounterSet(num_threads)
        self.detector = SuspectDetector(
            threat_threshold=self.config.threat_threshold,
            outlier_threshold=self.config.outlier_threshold,
        )
        self.throttler = Throttler(
            num_threads=num_threads,
            full_quota=full_quota,
            policy=QuotaPolicy(
                p_oldsuspect=self.config.p_oldsuspect,
                p_newsuspect=self.config.p_newsuspect,
            ),
            apply_quota=apply_quota,
        )

        # Row activations per thread since the last preventive action (§4.1).
        self._activations_since_action = [0] * num_threads
        self._next_window_end = self.window_cycles
        self.stats = BreakHammerStats()
        self.last_decision: Optional[SuspectDecision] = None

    # ------------------------------------------------------------------ #
    # ActionObserver interface (called by the memory controller)
    # ------------------------------------------------------------------ #
    def on_activation(self, coordinate: DramAddress,
                      thread_id: Optional[int], cycle: int) -> None:
        """Record one row activation for its responsible thread."""

        self.stats.activations_observed += 1
        if thread_id is not None and 0 <= thread_id < self.num_threads:
            self._activations_since_action[thread_id] += 1

    def on_preventive_action(self, action: PreventiveAction, cycle: int) -> None:
        """Attribute a completed preventive action and re-run Algorithm 1."""

        self.stats.actions_observed += 1
        self._attribute_scores(action.weight)
        decision = self.detector.evaluate(self.scores.scores())
        self.last_decision = decision
        for thread_id in decision.suspects:
            self.stats.suspect_detections += 1
            self.stats.suspects_by_thread[thread_id] = (
                self.stats.suspects_by_thread.get(thread_id, 0) + 1
            )
            self.throttler.mark_suspect(thread_id)

    # ------------------------------------------------------------------ #
    # Periodic work
    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> int:
        """Advance the throttling-window clock; return windows ended.

        The loop (rather than a single ``if``) lets the clock catch up when
        the fast-forward engine jumps the simulation over several window
        boundaries at once.
        """

        windows_ended = 0
        while cycle >= self._next_window_end:
            self._end_window()
            self._next_window_end += self.window_cycles
            windows_ended += 1
        return windows_ended

    def next_event_cycle(self) -> int:
        """The next cycle at which :meth:`tick` will do work (window end)."""

        return self._next_window_end

    def _end_window(self) -> None:
        self.stats.windows_elapsed += 1
        self.throttler.end_window()
        self.scores.rotate()

    # ------------------------------------------------------------------ #
    # Score attribution (§4.1)
    # ------------------------------------------------------------------ #
    def _attribute_scores(self, weight: float) -> None:
        total = sum(self._activations_since_action)
        if total <= 0 or weight <= 0:
            return
        for thread_id, count in enumerate(self._activations_since_action):
            if count:
                share = weight * count / total
                self.scores.add(thread_id, share)
                self.stats.score_attributed += share
        # Activation tracking resets after every preventive action.
        self._activations_since_action = [0] * self.num_threads

    # ------------------------------------------------------------------ #
    # Introspection (the optional system-software interface of §4)
    # ------------------------------------------------------------------ #
    def score_of(self, thread_id: int) -> float:
        return self.scores.score_of(thread_id)

    def quota_of(self, thread_id: int) -> int:
        return self.throttler.quota_of(thread_id)

    def is_throttled(self, thread_id: int) -> bool:
        return self.throttler.is_throttled(thread_id)

    def suspects(self) -> List[int]:
        if self.last_decision is None:
            return []
        return list(self.last_decision.suspects)

    def snapshot(self) -> Dict[str, object]:
        return {
            "config": self.config.as_dict(),
            "window_cycles": self.window_cycles,
            "stats": self.stats.as_dict(),
            "scores": self.scores.snapshot(),
            "throttler": self.throttler.snapshot(),
        }
