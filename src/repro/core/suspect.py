"""Suspect-thread identification — Algorithm 1 of the paper.

BreakHammer marks a hardware thread as *suspect* when, at the moment a
RowHammer-preventive action is attributed, the thread's score

1. exceeds the *threat threshold* ``TH_threat`` (so threads that have caused
   only a handful of actions are never punished), and
2. exceeds the mean score across all threads by more than a factor of
   ``TH_outlier`` — i.e. ``score > (1 + TH_outlier) * mean(scores)``.

The detector is stateless apart from its two thresholds; the caller provides
the score vector (the active counter set) and receives the set of suspects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class SuspectDecision:
    """The outcome of one outlier-analysis pass."""

    suspects: tuple
    mean_score: float
    max_allowed_deviation: float
    scores: tuple

    def is_suspect(self, thread_id: int) -> bool:
        return thread_id in self.suspects


class SuspectDetector:
    """Thresholded deviation-from-the-mean outlier analysis (Alg. 1)."""

    def __init__(self, threat_threshold: float = 32.0,
                 outlier_threshold: float = 0.65) -> None:
        if threat_threshold < 0:
            raise ValueError("TH_threat must be non-negative")
        if outlier_threshold < 0:
            raise ValueError("TH_outlier must be non-negative")
        self.threat_threshold = threat_threshold
        self.outlier_threshold = outlier_threshold
        self.evaluations = 0

    def evaluate(self, scores: Sequence[float]) -> SuspectDecision:
        """Apply Algorithm 1's checks to ``scores`` (one entry per thread)."""

        if not scores:
            raise ValueError("scores must contain at least one thread")
        self.evaluations += 1
        mean_score = sum(scores) / len(scores)
        max_allowed = (1.0 + self.outlier_threshold) * mean_score
        suspects: List[int] = []
        for thread_id, score in enumerate(scores):
            # Avoid marking threads with low scores (line 11).
            if score < self.threat_threshold:
                continue
            # Mark threads that exceed the mean by a factor of TH_outlier
            # (line 15).
            if score > max_allowed:
                suspects.append(thread_id)
        return SuspectDecision(
            suspects=tuple(suspects),
            mean_score=mean_score,
            max_allowed_deviation=max_allowed,
            scores=tuple(scores),
        )

    # ------------------------------------------------------------------ #
    def minimum_detectable_score(self, scores: Sequence[float]) -> float:
        """The smallest score a thread would need to be marked suspect.

        Useful for tests and for the security analysis: it is the maximum of
        ``TH_threat`` and ``(1 + TH_outlier) * mean(scores)``.
        """

        if not scores:
            raise ValueError("scores must contain at least one thread")
        mean_score = sum(scores) / len(scores)
        return max(self.threat_threshold,
                   (1.0 + self.outlier_threshold) * mean_score)
