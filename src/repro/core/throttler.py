"""Throttling suspect threads — Expression 1 of the paper.

Each hardware thread ``i`` has a dynamic request quota ``Q_i`` — the number
of LLC cache-miss buffers (MSHRs) it may hold simultaneously — and a
``recent_suspect_i`` flag saying whether it was identified as a suspect in
the *previous* throttling window.

When thread ``i`` is (re-)identified as a suspect:

* if it was already a suspect in the previous window, its quota shrinks
  additively: ``Q_i = max(Q_i - P_oldsuspect, 0)``;
* otherwise the quota shrinks multiplicatively: ``Q_i = Q_i / P_newsuspect``.

If a thread goes one full throttling window without being identified as a
suspect, its quota is restored to the full MSHR pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class QuotaPolicy:
    """The constants of Expression 1 (paper Table 2)."""

    p_oldsuspect: int = 1
    p_newsuspect: int = 10

    def __post_init__(self) -> None:
        if self.p_oldsuspect < 0:
            raise ValueError("P_oldsuspect must be non-negative")
        if self.p_newsuspect < 1:
            raise ValueError("P_newsuspect must be at least 1")


@dataclass
class ThreadQuotaState:
    """Per-thread throttling state."""

    thread_id: int
    quota: int
    recent_suspect: bool = False
    suspect_this_window: bool = False
    windows_as_suspect: int = 0
    times_throttled: int = 0


class Throttler:
    """Maintains per-thread MSHR quotas according to Expression 1.

    The throttler does not touch the MSHR file directly; instead it calls the
    ``apply_quota`` callback (wired to :meth:`repro.cpu.mshr.MshrFile.set_quota`
    by the system builder) whenever a quota changes, so the same logic can be
    unit-tested in isolation.
    """

    def __init__(self, num_threads: int, full_quota: int,
                 policy: Optional[QuotaPolicy] = None,
                 apply_quota: Optional[Callable[[int, int], None]] = None) -> None:
        if num_threads <= 0:
            raise ValueError("need at least one thread")
        if full_quota <= 0:
            raise ValueError("full quota must be positive")
        self.num_threads = num_threads
        self.full_quota = full_quota
        self.policy = policy or QuotaPolicy()
        self.apply_quota = apply_quota
        self.threads: List[ThreadQuotaState] = [
            ThreadQuotaState(thread_id=i, quota=full_quota)
            for i in range(num_threads)
        ]
        self.quota_reductions = 0
        self.quota_restorations = 0

    # ------------------------------------------------------------------ #
    def _apply(self, state: ThreadQuotaState) -> None:
        if self.apply_quota is not None:
            self.apply_quota(state.thread_id, state.quota)

    def quota_of(self, thread_id: int) -> int:
        return self.threads[thread_id].quota

    def is_throttled(self, thread_id: int) -> bool:
        return self.threads[thread_id].quota < self.full_quota

    # ------------------------------------------------------------------ #
    def mark_suspect(self, thread_id: int) -> int:
        """Reduce ``thread_id``'s quota per Expression 1; return the new quota."""

        state = self.threads[thread_id]
        if not state.suspect_this_window:
            # Apply the quota reduction at most once per window per thread;
            # repeated suspect hits within a window keep the same quota.
            if state.recent_suspect:
                new_quota = max(state.quota - self.policy.p_oldsuspect, 0)
            else:
                new_quota = max(1, state.quota // self.policy.p_newsuspect)
            if new_quota != state.quota:
                state.quota = new_quota
                self.quota_reductions += 1
                self._apply(state)
            state.suspect_this_window = True
            state.times_throttled += 1
        return state.quota

    def end_window(self) -> None:
        """Advance to the next throttling window.

        Threads flagged this window become ``recent_suspect`` for the next
        one; threads that stayed clean for the whole window get their full
        quota back.
        """

        for state in self.threads:
            if state.suspect_this_window:
                state.recent_suspect = True
                state.windows_as_suspect += 1
            else:
                if state.recent_suspect or state.quota < self.full_quota:
                    state.quota = self.full_quota
                    self.quota_restorations += 1
                    self._apply(state)
                state.recent_suspect = False
            state.suspect_this_window = False

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        return {
            "full_quota": self.full_quota,
            "policy": {
                "p_oldsuspect": self.policy.p_oldsuspect,
                "p_newsuspect": self.policy.p_newsuspect,
            },
            "quota_reductions": self.quota_reductions,
            "quota_restorations": self.quota_restorations,
            "threads": [
                {
                    "thread_id": s.thread_id,
                    "quota": s.quota,
                    "recent_suspect": s.recent_suspect,
                    "windows_as_suspect": s.windows_as_suspect,
                    "times_throttled": s.times_throttled,
                }
                for s in self.threads
            ],
        }
