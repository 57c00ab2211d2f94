"""RowHammer-preventive score counters with two-set time interleaving.

Each hardware thread owns a *RowHammer-preventive score*: the (fractional)
number of preventive actions attributed to it.  Indefinitely accumulating
scores would eventually punish long-running benign threads, so BreakHammer
(paper §4.2, Fig. 4) keeps **two** counter sets:

* both sets are *trained* (incremented) during every throttling window;
* only the *active* set answers suspect-identification queries;
* at the end of each window the active set is reset and the other set —
  which has been training for one full window already — becomes active.

This way the active set always reflects roughly one window's worth of
history, and monitoring never has a blind spot right after a reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ScoreCounterSet:
    """One set of per-thread RowHammer-preventive score counters."""

    num_threads: int
    scores: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_threads <= 0:
            raise ValueError("need at least one hardware thread")
        if not self.scores:
            self.scores = [0.0] * self.num_threads
        elif len(self.scores) != self.num_threads:
            raise ValueError("scores length must equal num_threads")

    def add(self, thread_id: int, amount: float) -> None:
        self.scores[thread_id] += amount

    def get(self, thread_id: int) -> float:
        return self.scores[thread_id]

    def mean(self) -> float:
        return sum(self.scores) / len(self.scores)

    def total(self) -> float:
        return sum(self.scores)

    def reset(self) -> None:
        for i in range(len(self.scores)):
            self.scores[i] = 0.0

    def as_dict(self) -> Dict[int, float]:
        return {i: score for i, score in enumerate(self.scores)}


class DualCounterSet:
    """The two time-interleaved score counter sets of Fig. 4.

    ``add`` trains both sets; queries (``score_of``, ``mean``) read only the
    active set; ``rotate`` resets the active set and makes the other set
    active — exactly the behaviour at the end of each throttling window.
    """

    def __init__(self, num_threads: int) -> None:
        self.num_threads = num_threads
        self._sets = [ScoreCounterSet(num_threads), ScoreCounterSet(num_threads)]
        self._active_index = 0
        self.rotations = 0

    # ------------------------------------------------------------------ #
    @property
    def active(self) -> ScoreCounterSet:
        return self._sets[self._active_index]

    @property
    def training(self) -> ScoreCounterSet:
        """The set that is training but not yet answering queries."""

        return self._sets[1 - self._active_index]

    # ------------------------------------------------------------------ #
    def add(self, thread_id: int, amount: float) -> None:
        """Attribute ``amount`` of score to ``thread_id`` in both sets."""

        if not 0 <= thread_id < self.num_threads:
            raise IndexError(f"thread {thread_id} out of range")
        if amount < 0:
            raise ValueError("score increments must be non-negative")
        for counter_set in self._sets:
            counter_set.add(thread_id, amount)

    def score_of(self, thread_id: int) -> float:
        return self.active.get(thread_id)

    def scores(self) -> List[float]:
        return list(self.active.scores)

    def mean(self) -> float:
        return self.active.mean()

    def rotate(self) -> None:
        """End-of-window: reset the active set and swap roles."""

        self.active.reset()
        self._active_index = 1 - self._active_index
        self.rotations += 1

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        return {
            "active_index": self._active_index,
            "rotations": self.rotations,
            "active_scores": self.active.as_dict(),
            "training_scores": self.training.as_dict(),
        }
