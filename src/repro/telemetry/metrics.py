"""Time-series metrics: periodic snapshots of the statistics tree.

The end-of-run :class:`~repro.common.statistics.StatGroup` totals say *how
much* happened; the time series says *when*.  A :class:`TimeSeries` is a
sequence of full snapshots of one statistics tree, each labelled with the
simulated cycle it was taken at, plus optional *gauges* — callables sampled
alongside the counters for instantaneous state such as filter-cache
occupancy.  Per-interval deltas (:meth:`TimeSeries.delta`) and ratios of
deltas (:meth:`TimeSeries.rate`) turn the cumulative counters into the
plottable quantities the paper's analysis needs: MPKI over time, squash
rate over time, occupancy over time, per core.

:class:`MetricsSampler` drives the sampling: constructed with a cycle
period, bound to a simulated system, and pumped by the simulator at
instruction-interleave boundaries (``api.simulate(metrics_every=N)`` wires
the whole thing up).  Sampling granularity is therefore the interleave
chunk (64 instructions per core), not exactly N cycles — snapshots land at
the first boundary at or after each N-cycle mark.
"""

from __future__ import annotations

import io
from typing import Any, Callable, Dict, List, Optional, Sequence, Union


class TimeSeries:
    """Cycle-stamped snapshots of a statistics tree (plus gauges).

    Column names are the dotted counter paths of
    :meth:`~repro.common.statistics.StatGroup.as_dict` (gauges keep the
    names they were registered under); rows are snapshots in cycle order.
    Counters are cumulative: use :meth:`delta`/:meth:`rate` for
    per-interval views.
    """

    def __init__(self, group: Any) -> None:
        self._group = group
        self._gauges: List[tuple] = []          # (name, callable)
        self._stat_columns: Optional[List[str]] = None
        self._columns: Optional[List[str]] = None
        self.cycles: List[int] = []
        self._rows: List[List[Union[int, float]]] = []

    # -- construction -----------------------------------------------------------
    def add_gauge(self, name: str, read: Callable[[], Union[int, float]]
                  ) -> None:
        """Register an instantaneous value sampled with every snapshot."""
        if self._columns is not None:
            raise RuntimeError("gauges must be added before the first sample")
        self._gauges.append((name, read))

    def sample(self, cycle: int) -> None:
        """Take one snapshot, labelled with ``cycle``."""
        values = self._group.as_dict()
        if self._columns is None:
            self._gauges.sort(key=lambda pair: pair[0])
            self._stat_columns = sorted(values)
            self._columns = (self._stat_columns
                             + [name for name, _ in self._gauges])
        row: List[Union[int, float]] = [values.get(column, 0)
                                        for column in self._stat_columns]
        row.extend(read() for _, read in self._gauges)
        self.cycles.append(cycle)
        self._rows.append(row)

    # -- access ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def columns(self) -> List[str]:
        """Column names, ``cycle`` first."""
        return ["cycle"] + list(self._columns or [])

    def rows(self) -> List[List[Union[int, float]]]:
        """Snapshot rows, each led by its cycle."""
        return [[cycle] + row for cycle, row in zip(self.cycles, self._rows)]

    def series(self, column: str) -> List[Union[int, float]]:
        """One column's values over time."""
        if column == "cycle":
            return list(self.cycles)
        if self._columns is None or column not in self._columns:
            raise KeyError(column)
        index = self._columns.index(column)
        return [row[index] for row in self._rows]

    def delta(self, column: str) -> List[Union[int, float]]:
        """Per-interval increments of a cumulative column.

        The first entry is measured from zero, so the deltas sum to the
        final cumulative value.
        """
        values = self.series(column)
        previous: Union[int, float] = 0
        deltas: List[Union[int, float]] = []
        for value in values:
            deltas.append(value - previous)
            previous = value
        return deltas

    def rate(self, numerator: str, denominator: str,
             scale: float = 1.0) -> List[float]:
        """Per-interval ``scale * d(numerator) / d(denominator)``.

        With ``numerator`` a miss counter, ``denominator`` the committed-
        instruction counter and ``scale=1000`` this is MPKI over time;
        intervals where the denominator did not move yield 0.0.
        """
        tops = self.delta(numerator)
        bottoms = self.delta(denominator)
        return [scale * top / bottom if bottom else 0.0
                for top, bottom in zip(tops, bottoms)]

    # -- export ------------------------------------------------------------------
    def to_csv(self, destination: Optional[Any] = None) -> str:
        """Render as CSV (header row of column names, one row per sample).

        ``destination`` may be a path or a writable text file; the rendered
        text is returned either way.
        """
        buffer = io.StringIO()
        buffer.write(",".join(self.columns) + "\n")
        for row in self.rows():
            buffer.write(",".join(str(value) for value in row) + "\n")
        text = buffer.getvalue()
        if destination is None:
            return text
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text


class MetricsSampler:
    """Snapshots a system's statistics tree every N simulated cycles.

    The simulator pumps :meth:`on_cycle` at interleave boundaries; the
    sampler takes a snapshot whenever the clock has crossed the next
    N-cycle mark, and :meth:`finish` records the final state so the last
    row always equals the end-of-run totals.
    """

    def __init__(self, every: int,
                 timeseries: Optional[TimeSeries] = None) -> None:
        if every < 1:
            raise ValueError("metrics_every must be a positive cycle count")
        self.every = every
        self.timeseries = timeseries
        self._next = every
        self._last_sampled: Optional[int] = None

    def bind(self, system: Any) -> None:
        """Point the sampler at a built system's statistics tree.

        Also registers an occupancy gauge for every L0 cache of every
        core's scheme frontend, so occupancy over time comes with the
        counters.
        """
        if self.timeseries is None:
            self.timeseries = system.stats.to_timeseries()
        for core_id, state in system.core_states():
            for unit in (state.data_filter, state.inst_filter):
                if unit is not None:
                    self.timeseries.add_gauge(
                        f"core{core_id}.{unit.name}.occupancy",
                        unit.occupancy)

    def on_cycle(self, cycle: int) -> None:
        """Sample if the clock crossed the next N-cycle mark."""
        if cycle >= self._next:
            self.timeseries.sample(cycle)
            self._last_sampled = cycle
            self._next = cycle - (cycle % self.every) + self.every

    def finish(self, cycle: int) -> None:
        """Record the end-of-run snapshot (idempotent per cycle)."""
        if self.timeseries is not None and cycle != self._last_sampled:
            self.timeseries.sample(cycle)
            self._last_sampled = cycle
