"""Small containers for reproduced figures and tables.

Every experiment in :mod:`repro.analysis.experiments` returns one of these,
so benchmarks, examples, and tests can consume results uniformly and the
report module can render them as text tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class FigureSeries:
    """One line/bar group of a figure: a label and y-values over x-values.

    ``stats`` is the optional seed-axis view: one
    :class:`~repro.analysis.aggregate.SeriesStats` per x point when the
    figure aggregated more than one seed (``values`` then holds the
    per-point means), ``None`` for single-seed (scalar) figures.
    """

    label: str
    values: List[float]
    stats: Optional[List[object]] = None

    def __post_init__(self) -> None:
        self.values = [float(v) for v in self.values]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0


@dataclass
class FigureData:
    """A reproduced figure: x-axis, named series, and metadata."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    x_values: List[object]
    series: Dict[str, FigureSeries] = field(default_factory=dict)
    notes: str = ""

    def add_series(self, label: str, values: Sequence[float],
                   stats: Optional[Sequence[object]] = None) -> FigureSeries:
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {label!r} has {len(values)} values but the figure "
                f"has {len(self.x_values)} x points"
            )
        if stats is not None and len(stats) != len(self.x_values):
            raise ValueError(
                f"series {label!r} has {len(stats)} stats cells but the "
                f"figure has {len(self.x_values)} x points"
            )
        series = FigureSeries(label=label, values=list(values),
                              stats=list(stats) if stats is not None else None)
        self.series[label] = series
        return series

    def get(self, label: str) -> FigureSeries:
        return self.series[label]

    def labels(self) -> List[str]:
        return list(self.series)

    def as_rows(self) -> List[Dict[str, object]]:
        """Row-per-x representation (handy for CSV-ish dumps and tests)."""

        rows = []
        for idx, x in enumerate(self.x_values):
            row: Dict[str, object] = {self.x_label: x}
            for label, series in self.series.items():
                row[label] = series.values[idx]
            rows.append(row)
        return rows

    def as_dict(self) -> Dict[str, object]:
        """A plain-data snapshot of the whole figure.

        Used to persist figure aggregates and to compare two
        independently computed figures (e.g. a parallel sweep against the
        serial reference) value-for-value.
        """

        data = {
            "figure_id": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "x_values": list(self.x_values),
            "series": {
                label: list(series.values)
                for label, series in self.series.items()
            },
            "notes": self.notes,
        }
        # The seed-axis statistics appear only when a series carries them
        # (multi-seed aggregation): single-seed snapshots stay bit-identical
        # to the pre-statistics schema.
        series_stats = {
            label: [cell.as_dict() for cell in series.stats]
            for label, series in self.series.items()
            if series.stats
        }
        if series_stats:
            data["series_stats"] = series_stats
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FigureData":
        """Rebuild a figure from :meth:`as_dict` output (CLI JSON dumps)."""

        figure = cls(
            figure_id=data["figure_id"],
            title=data["title"],
            x_label=data["x_label"],
            y_label=data["y_label"],
            x_values=list(data["x_values"]),
            notes=data.get("notes", ""),
        )
        series_stats = data.get("series_stats", {})
        for label, values in data.get("series", {}).items():
            stats = None
            if label in series_stats:
                from repro.analysis.aggregate import SeriesStats

                stats = [SeriesStats.from_dict(cell)
                         for cell in series_stats[label]]
            figure.add_series(label, values, stats=stats)
        return figure


@dataclass
class TableData:
    """A reproduced table: ordered column names and row dictionaries."""

    table_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, row: Dict[str, object]) -> None:
        missing = [c for c in self.columns if c not in row]
        if missing:
            raise ValueError(f"row is missing columns: {missing}")
        self.rows.append(row)

    def column(self, name: str) -> List[object]:
        return [row[name] for row in self.rows]

    def as_dict(self) -> Dict[str, object]:
        """A plain-data snapshot of the whole table (see FigureData)."""

        return {
            "table_id": self.table_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TableData":
        """Rebuild a table from :meth:`as_dict` output."""

        table = cls(
            table_id=data["table_id"],
            title=data["title"],
            columns=list(data["columns"]),
            notes=data.get("notes", ""),
        )
        for row in data.get("rows", ()):
            table.add_row(dict(row))
        return table

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class ComparisonEntry:
    """One paper-vs-measured record (see ``report.render_comparisons``)."""

    experiment: str
    quantity: str
    paper_value: str
    measured_value: str
    matches_trend: bool
    comment: str = ""
