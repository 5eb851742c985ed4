"""Reporting: normalised-execution-time tables in text, markdown and CSV.

The paper's figures all share one shape — benchmarks on the x-axis, one
series per protection scheme, a geometric-mean summary — so reporting is a
single :class:`Report` built either from a campaign result or from raw
series dictionaries (which is how the figure reproductions use it).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.harness.campaign import (
    CampaignResult,
    ExecutionStats,
    series_geomeans,
)

GEOMEAN_ROW = "geomean"

#: The annotation rendered in place of a value whose cell was quarantined.
FAILED_CELL = "FAILED"

#: The geomean footer of a series with no completed (positive) values —
#: e.g. every cell quarantined.  The aggregate is undefined there; the
#: historical ``0.000`` read as "this scheme is infinitely fast".
NO_GEOMEAN_CELL = "n/a"


@dataclass
class Report:
    """A benchmark × series table with geometric-mean footer."""

    benchmarks: List[str]
    #: series label -> {benchmark -> value (normalised time or rate)}
    series: Dict[str, Dict[str, float]]
    geomeans: Dict[str, float] = field(default_factory=dict)
    title: str = ""
    precision: int = 3
    #: Optional execution accounting; rendered as a footnote when present.
    stats: Optional[ExecutionStats] = None
    #: ``(benchmark, label)`` pairs whose cells were quarantined by the
    #: executor layer; rendered as ``FAILED`` instead of a value.  The
    #: geomean footer always covers the completed cells only (missing
    #: values never contribute).
    failed: Set[Tuple[str, str]] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.geomeans:
            self.geomeans = series_geomeans(self.series)

    @classmethod
    def from_campaign(cls, result: CampaignResult, title: str = "",
                      precision: int = 3,
                      include_stats: bool = False) -> "Report":
        # Geomeans are derived from the series by __post_init__.
        return cls(benchmarks=list(result.benchmarks),
                   series=result.normalised(),
                   title=title, precision=precision,
                   stats=result.stats if include_stats else None,
                   failed=result.failed_series())

    @classmethod
    def from_campaign_constituents(cls, result: CampaignResult,
                                   title: str = "",
                                   precision: int = 3) -> "Report":
        """Mix-aware table: one row per co-run constituent (``mix:member``).

        Rows follow the campaign's benchmark order, with each mix's
        members in their per-core placement order (the order
        ``core_benchmarks`` records), so the table is invariant to how
        result dictionaries happen to iterate.
        """
        series = result.per_constituent_normalised()
        rows: List[str] = []
        seen = set()
        for values in series.values():
            for row in values:
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
        # Stable overall order: campaign benchmark order first, then the
        # insertion (placement) order of each benchmark's member rows.
        rows.sort(key=lambda row: (
            result.benchmarks.index(row.split(":", 1)[0])
            if row.split(":", 1)[0] in result.benchmarks else len(
                result.benchmarks)))
        return cls(benchmarks=rows, series=series, title=title,
                   precision=precision, failed=result.failed_series())

    # -- table construction ---------------------------------------------------
    @property
    def labels(self) -> List[str]:
        return list(self.series)

    def _cell(self, benchmark: str, label: str, fmt: str) -> str:
        value = self.series[label].get(benchmark)
        if value is not None:
            return fmt.format(value)
        # Missing value: a quarantined cell renders as FAILED (mix rows
        # check their parent mix's quarantine record); anything else keeps
        # the historical zero so sparse hand-built series still render.
        base = benchmark.split(":", 1)[0]
        if (benchmark, label) in self.failed or (base, label) in self.failed:
            return FAILED_CELL
        return fmt.format(0.0)

    def _geomean_cell(self, label: str, fmt: str) -> str:
        """The footer cell for one series: a value, or ``n/a``.

        A series with no completed positive values — every cell
        quarantined, or an empty hand-built series — has no geometric
        mean; rendering the empty-input fallback of 0.0 would claim a
        measured (and absurdly good) aggregate for a scheme that produced
        no data at all.
        """
        geomean = self.geomeans.get(label)
        if geomean:
            return fmt.format(geomean)
        if any(value > 0
               for value in self.series.get(label, {}).values()):
            return fmt.format(geomean or 0.0)
        return NO_GEOMEAN_CELL

    def rows(self) -> List[List[str]]:
        """Header row, one row per benchmark, geomean footer.

        Quarantined cells render as ``FAILED``; the geomean footer is
        computed over the completed cells only, and reads ``n/a`` for a
        series with no completed cells at all.  Every renderer (text,
        markdown, CSV) goes through here, so they agree on the
        annotation.
        """
        fmt = f"{{:.{self.precision}f}}"
        header = ["benchmark"] + self.labels
        body = [[benchmark] + [self._cell(benchmark, label, fmt)
                               for label in self.labels]
                for benchmark in self.benchmarks]
        footer = [GEOMEAN_ROW] + [self._geomean_cell(label, fmt)
                                  for label in self.labels]
        return [header] + body + [footer]

    # -- renderers ------------------------------------------------------------
    def to_text(self, column_width: int = 18) -> str:
        """Fixed-width table (the historical ``format_table`` layout).

        The label column widens to the longest row name so per-constituent
        rows (``mix-pointer-stream:libquantum``) stay aligned.
        """
        rows = self.rows()
        label_width = max(column_width,
                          max(len(row[0]) for row in rows))
        text = "\n".join(
            "  ".join(f"{cell:>{label_width if index == 0 else column_width}s}"
                      for index, cell in enumerate(row))
            for row in rows)
        if self.stats is not None:
            text += f"\n\ncells: {self.stats.summary()}"
        return text

    def to_markdown(self) -> str:
        rows = self.rows()
        lines = []
        if self.title:
            lines.append(f"### {self.title}")
            lines.append("")
        lines.append("| " + " | ".join(rows[0]) + " |")
        lines.append("|" + "|".join([" --- "] + [" ---: "] * (
            len(rows[0]) - 1)) + "|")
        for row in rows[1:]:
            lines.append("| " + " | ".join(row) + " |")
        if self.stats is not None:
            lines.append("")
            lines.append(f"_cells: {self.stats.summary()}_")
        return "\n".join(lines)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(self.rows())
        return buffer.getvalue()

    def render(self, fmt: str = "text") -> str:
        renderers = {"text": self.to_text, "markdown": self.to_markdown,
                     "csv": self.to_csv}
        if fmt not in renderers:
            raise ValueError(f"unknown report format: {fmt!r} "
                             f"(choose from {sorted(renderers)})")
        return renderers[fmt]()
