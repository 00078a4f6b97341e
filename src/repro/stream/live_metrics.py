"""Windowed and exponentially-decayed live metrics for service mode.

Batch trials report one end-of-run aggregate
(:class:`repro.metrics.collector.TrialMetrics`).  An always-on service
needs the *time course*: completion/drop/deadline-miss rates per tumbling
window, queue depths, and smoothed (EWMA) views that damp window-to-window
noise.  :class:`LiveMetrics` is a :class:`repro.sim.trace.Trace` sink -- it
observes the same event stream the tracing subsystem already emits, so the
simulation core needed no changes -- and folds every record into the
tumbling window containing its timestamp.  Closed windows accumulate into a
:class:`MetricsTimeline` that renders through
:func:`repro.viz.ascii_charts.line_chart` for the CLI dashboard.

Windows are aligned at multiples of the window length, so a window's
contents depend only on the trace records inside its time span -- never on
*when* the caller advanced the simulation.  That alignment is what lets the
snapshot/resume pin compare timelines bit-for-bit across different
``run_until`` chunkings (per-window perf counter deltas are the one
chunking-dependent field, and they are excluded from comparison exactly
like ``TrialMetrics.perf``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..records import Record
from ..sim.trace import TraceRecord
from ..viz.ascii_charts import line_chart

__all__ = ["WindowStats", "MetricsTimeline", "LiveState", "LiveMetrics"]

#: Metric keys tracked by the EWMA (exponentially-decayed) view.
EWMA_KEYS = ("completion_rate", "drop_rate", "miss_rate")


@dataclass
class WindowStats(Record):
    """Counters of one tumbling window ``[start, end)``.

    Rates are over *resolved* tasks (completed or dropped inside the
    window); throughput is per time unit.  The ``ewma_*`` fields hold the
    exponentially-decayed view as of this window's close.  ``perf`` holds
    the score-plane perf-counter deltas attributed to the window and is
    excluded from equality: the attribution depends on when the caller
    advanced the clock, which the bit-identity pin deliberately ignores.
    """

    index: int
    start: int
    end: int
    arrivals: int = 0
    completions: int = 0
    on_time: int = 0
    late: int = 0
    drops_reactive: int = 0
    drops_proactive: int = 0
    drops_expired: int = 0
    mapped: int = 0
    started: int = 0
    mapping_events: int = 0
    batch_depth_end: int = 0
    backlog_end: int = 0
    ewma_completion_rate: float = 0.0
    ewma_drop_rate: float = 0.0
    ewma_miss_rate: float = 0.0
    perf: Optional[Dict[str, float]] = field(default=None, compare=False)

    # ------------------------------------------------------------------
    @property
    def drops(self) -> int:
        """Tasks dropped in this window, all drop paths combined."""
        return self.drops_reactive + self.drops_proactive + self.drops_expired

    @property
    def resolved(self) -> int:
        """Tasks that reached a terminal state in this window."""
        return self.completions + self.drops

    @property
    def completion_rate(self) -> float:
        """On-time completions as a fraction of resolved tasks."""
        return self.on_time / self.resolved if self.resolved else 0.0

    @property
    def drop_rate(self) -> float:
        """Drops as a fraction of resolved tasks."""
        return self.drops / self.resolved if self.resolved else 0.0

    @property
    def miss_rate(self) -> float:
        """Deadline misses (late completions + drops) over resolved tasks."""
        return (self.late + self.drops) / self.resolved if self.resolved else 0.0

    @property
    def throughput(self) -> float:
        """Completions per time unit."""
        span = self.end - self.start
        return self.completions / span if span else 0.0


@dataclass
class MetricsTimeline(Record):
    """Sequence of closed tumbling windows plus the EWMA configuration.

    Equality compares the window list (minus perf deltas, which are
    ``compare=False`` on :class:`WindowStats`) -- the object the
    snapshot/resume pin asserts on.
    """

    window: int
    decay: float
    windows: List[WindowStats] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.windows)

    # ------------------------------------------------------------------
    def series(self, keys: Sequence[str] = ("completion_rate", "drop_rate"),
               ) -> Dict[str, List[float]]:
        """Per-window values of the requested metrics, keyed by metric."""
        return {key: [float(getattr(w, key)) for w in self.windows]
                for key in keys}

    def x_values(self) -> List[int]:
        """Window end times (the x axis of the timeline)."""
        return [w.end for w in self.windows]

    def steady_state(self, warmup: int) -> "MetricsTimeline":
        """Copy without the windows that start before ``warmup``.

        Warm-up trimming is presentational: the empty-system transient at
        service start depresses completion rates for the first few
        windows, so steady-state reporting drops them.  The underlying
        accumulators (and therefore snapshots) are untouched -- trimming
        the same timeline twice, or after a snapshot/restore round-trip,
        yields identical windows.
        """
        if warmup < 0:
            raise ValueError("warmup cannot be negative")
        return MetricsTimeline(
            window=self.window, decay=self.decay,
            windows=[w for w in self.windows if w.start >= warmup])

    def chart(self, keys: Sequence[str] = ("completion_rate", "drop_rate"),
              height: int = 10, width: int = 60, title: str = "") -> str:
        """ASCII line chart of the requested metrics over time."""
        if not self.windows:
            return title or "(no closed windows yet)"
        return line_chart(self.series(keys), self.x_values(), height=height,
                          width=width, title=title or "service timeline")


@dataclass
class LiveState(Record):
    """The accumulator state of a :class:`LiveMetrics` (closed and open
    windows, bookkeeping, EWMA and perf baselines) as snapshots carry it."""

    window: int
    decay: float
    closed: List[WindowStats]
    current: Optional[WindowStats]
    next_index: int
    batch_depth: int
    backlog: int
    ewma: Dict[str, float]
    last_perf: Dict[str, float] = field(compare=False)


class LiveMetrics:
    """Trace sink folding simulation events into tumbling windows.

    Parameters
    ----------
    window:
        Tumbling-window length in simulation time units; windows are aligned
        at multiples of it.
    decay:
        EWMA smoothing factor ``alpha`` in (0, 1]; the decayed view updates
        as ``alpha * window_rate + (1 - alpha) * previous`` each time a
        window closes (seeded with the first closed window's rate).
    perf_source:
        Optional zero-argument callable returning the system's *cumulative*
        perf counters as a dict; when given, each closed window records the
        delta since the previous close.
    on_window:
        Optional callback invoked with each :class:`WindowStats` as it
        closes (the CLI's live dashboard line).

    Windows close when a trace record lands past their boundary or when
    :meth:`advance_to` closes them explicitly; empty gap windows are
    emitted in between so the timeline stays evenly spaced in time.
    """

    #: Trace protocol: record() calls are live.
    enabled = True

    def __init__(self, window: int = 500, decay: float = 0.2,
                 perf_source: Optional[Callable[[], Dict[str, float]]] = None,
                 on_window: Optional[Callable[[WindowStats], None]] = None):
        if window < 1:
            raise ValueError("window length must be positive")
        if not 0 < decay <= 1:
            raise ValueError("decay must be within (0, 1]")
        self.window = int(window)
        self.decay = float(decay)
        self.perf_source = perf_source
        self.on_window = on_window
        self._closed: List[WindowStats] = []
        self._current: Optional[WindowStats] = None
        self._next_index = 0       # index of the first unclosed window
        self._batch_depth = 0      # tasks waiting in the batch queue
        self._backlog = 0          # tasks on machines (queued or running)
        self._ewma: Dict[str, float] = {}
        self._last_perf: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Trace protocol
    # ------------------------------------------------------------------
    def record(self, rec: TraceRecord) -> None:
        """Fold one trace record into the window containing its time."""
        index = rec.time // self.window
        if index < self._next_index:
            raise ValueError(
                f"trace record at t={rec.time} lies in an already-closed "
                f"window (next open index {self._next_index})")
        self._roll_to(index)
        stats = self._current_window()
        kind = rec.kind
        if kind == "arrival":
            stats.arrivals += 1
            self._batch_depth += 1
        elif kind == "mapped":
            stats.mapped += 1
            self._batch_depth -= 1
            self._backlog += 1
        elif kind == "started":
            stats.started += 1
        elif kind == "completed":
            stats.completions += 1
            self._backlog -= 1
            if rec.detail == "on_time=True":
                stats.on_time += 1
            else:
                stats.late += 1
        elif kind == "dropped_reactive":
            stats.drops_reactive += 1
            self._backlog -= 1
        elif kind == "dropped_proactive":
            stats.drops_proactive += 1
            self._backlog -= 1
        elif kind == "expired_batch":
            stats.drops_expired += 1
            self._batch_depth -= 1
        elif kind == "mapping_event":
            stats.mapping_events += 1
        # Unknown kinds (future trace extensions) fall through untouched.

    # ------------------------------------------------------------------
    # Window management
    # ------------------------------------------------------------------
    def advance_to(self, t: int) -> None:
        """Close every window whose span ends at or before ``t``.

        Call this at caller-defined horizons (``run_until`` targets), never
        at internal chunk boundaries: closing only finalises windows whose
        span has fully passed, so the timeline is unaffected by *when* it
        happens -- except for perf-delta attribution, which is
        compare-excluded for exactly that reason.
        """
        self._roll_to(t // self.window)

    def _current_window(self) -> WindowStats:
        if self._current is None:
            start = self._next_index * self.window
            self._current = WindowStats(index=self._next_index, start=start,
                                        end=start + self.window)
        return self._current

    def _roll_to(self, index: int) -> None:
        while self._next_index < index:
            self._close(self._current_window())
            self._current = None
            self._next_index += 1

    def _close(self, stats: WindowStats) -> None:
        stats.batch_depth_end = self._batch_depth
        stats.backlog_end = self._backlog
        for key in EWMA_KEYS:
            rate = float(getattr(stats, key))
            prev = self._ewma.get(key)
            value = rate if prev is None else (self.decay * rate
                                               + (1 - self.decay) * prev)
            self._ewma[key] = value
            setattr(stats, f"ewma_{key}", value)
        if self.perf_source is not None:
            cumulative = {k: float(v) for k, v in self.perf_source().items()}
            stats.perf = {k: v - self._last_perf.get(k, 0.0)
                          for k, v in cumulative.items()}
            self._last_perf = cumulative
        self._closed.append(stats)
        if self.on_window is not None:
            self.on_window(stats)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def timeline(self) -> MetricsTimeline:
        """Timeline of all closed windows (a snapshot; safe to keep)."""
        return MetricsTimeline(window=self.window, decay=self.decay,
                               windows=[replace(w) for w in self._closed])

    @property
    def batch_depth(self) -> int:
        """Tasks currently waiting in the batch queue."""
        return self._batch_depth

    @property
    def backlog(self) -> int:
        """Tasks currently on machines (queued or running)."""
        return self._backlog

    def format_window(self, stats: WindowStats) -> str:
        """One dashboard line for a closed window."""
        return (f"[t={stats.end:>8}] ok={stats.completion_rate:6.1%} "
                f"drop={stats.drop_rate:6.1%} miss={stats.miss_rate:6.1%} "
                f"ewma_drop={stats.ewma_drop_rate:6.1%} "
                f"batch={stats.batch_depth_end:>4} "
                f"backlog={stats.backlog_end:>3}")

    # ------------------------------------------------------------------
    # Snapshot hooks
    # ------------------------------------------------------------------
    def state(self) -> LiveState:
        """Full accumulator state (shared, not copied: encode it at once)."""
        return LiveState(
            window=self.window, decay=self.decay, closed=self._closed,
            current=self._current, next_index=self._next_index,
            batch_depth=self._batch_depth, backlog=self._backlog,
            ewma=self._ewma, last_perf=self._last_perf)

    def state_dict(self) -> Dict[str, object]:
        """Full accumulator state for the streaming snapshot artifact."""
        return self.state().to_dict()

    def load_state(self, state: Union[Mapping[str, object], LiveState]
                   ) -> None:
        """Restore accumulator state saved by :meth:`state_dict` (or
        already decoded as a :class:`LiveState`)."""
        if not isinstance(state, LiveState):
            state = LiveState.from_dict(state, "live state")
        if state.window != self.window or state.decay != self.decay:
            raise ValueError(f"windowing configuration (window="
                             f"{state.window}, decay={state.decay}) does "
                             f"not match this LiveMetrics (window="
                             f"{self.window}, decay={self.decay})")
        self._closed = list(state.closed)
        self._current = state.current
        self._next_index = state.next_index
        self._batch_depth = state.batch_depth
        self._backlog = state.backlog
        self._ewma = dict(state.ewma)
        self._last_perf = dict(state.last_perf)
