"""Seed-axis aggregation: every figure value becomes a statistic.

One simulation run is a point estimate; a spec with several ``seeds``
produces one *sample* per seed for every figure cell (series label ×
x value).  This module owns the reduction from per-seed figure frames to
the statistics the figures, reports, and the CLI expose:

* :class:`SeriesStats` — the value object behind one figure cell: sample
  count, mean, sample standard deviation, and the 95% confidence-interval
  half-width.  A single-sample cell degrades exactly (mean == the sample,
  std == ci95 == 0.0), which is what keeps single-seed sweeps bit-identical
  to the pre-statistics pipeline.
* :func:`aggregate_figures` — fold the per-seed
  :class:`~repro.analysis.figures.FigureData` frames of one figure into
  one figure whose series values are means and whose cells carry
  :class:`SeriesStats` (only when there is more than one seed: a
  single-frame fold is the identity, so ``seeds=(0,)`` output is the
  legacy output, byte for byte).
* :func:`aggregate_headlines` — the same fold for the headline-number
  dictionaries (key-wise means, keys preserved).

The fold is order-deterministic: frames arrive in ``plan.seeds`` order and
means are computed by a plain left-to-right sum, so serial and
process-pool executions of the same spec aggregate bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.analysis.figures import FigureData

#: Two-sided 95% normal quantile used for the CI half-width.  The z
#: approximation (rather than Student's t) keeps the reduction dependency-
#: free and monotone in n; adaptive campaigns only compare widths against
#: a target, so the constant choice is a calibration, not a correctness,
#: decision.
Z_95 = 1.96


@dataclass(frozen=True)
class SeriesStats:
    """Statistics of one figure cell across the seed axis.

    ``n`` samples, their ``mean``, the sample standard deviation ``std``
    (ddof=1; 0.0 when n == 1), and ``ci95`` — the half-width of the 95%
    confidence interval of the mean (``Z_95 * std / sqrt(n)``; 0.0 when
    n == 1).  The interval is ``mean ± ci95``.
    """

    n: int
    mean: float
    std: float
    ci95: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "SeriesStats":
        if not samples:
            raise ValueError("SeriesStats needs at least one sample")
        n = len(samples)
        mean = sum(samples) / n
        if n == 1:
            return cls(n=1, mean=mean, std=0.0, ci95=0.0)
        variance = sum((value - mean) ** 2 for value in samples) / (n - 1)
        std = math.sqrt(variance)
        return cls(n=n, mean=mean, std=std, ci95=Z_95 * std / math.sqrt(n))

    def as_dict(self) -> Dict[str, float]:
        return {"n": self.n, "mean": self.mean, "std": self.std,
                "ci95": self.ci95}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "SeriesStats":
        return cls(n=int(data["n"]), mean=float(data["mean"]),
                   std=float(data["std"]), ci95=float(data["ci95"]))


def aggregate_figures(frames: Sequence[FigureData]) -> FigureData:
    """Fold per-seed figure frames into one mean ± CI figure.

    A single frame returns unchanged — the identity fold is what keeps
    ``seeds=(0,)`` sweeps bit-identical to the legacy scalar pipeline.
    Several frames must share structure (x values and series labels, which
    they do by construction: every frame reads the same sweep plan); the
    result's series values are per-cell means and every series carries a
    per-cell :class:`SeriesStats` list.
    """

    if not frames:
        raise ValueError("aggregate_figures needs at least one frame")
    first = frames[0]
    if len(frames) == 1:
        return first
    for frame in frames[1:]:
        if frame.x_values != first.x_values \
                or list(frame.series) != list(first.series):
            raise ValueError(
                f"per-seed frames of {first.figure_id} disagree on "
                "structure; frames must come from one sweep plan"
            )
    result = FigureData(
        figure_id=first.figure_id,
        title=first.title,
        x_label=first.x_label,
        y_label=first.y_label,
        x_values=list(first.x_values),
        notes=first.notes,
    )
    for label in first.series:
        stats = [
            SeriesStats.from_samples(
                [frame.series[label].values[index] for frame in frames]
            )
            for index in range(len(first.x_values))
        ]
        result.add_series(label, [cell.mean for cell in stats], stats=stats)
    return result


def aggregate_headlines(samples: Sequence[Dict[str, float]]
                        ) -> Dict[str, float]:
    """Key-wise mean of per-seed headline-number dictionaries.

    Keys (and their order) come from the first sample, so the multi-seed
    headline dictionary is shaped exactly like the single-seed one; a
    single sample returns unchanged.
    """

    if not samples:
        raise ValueError("aggregate_headlines needs at least one sample")
    first = samples[0]
    if len(samples) == 1:
        return first
    return {
        key: sum(sample[key] for sample in samples) / len(samples)
        for key in first
    }
