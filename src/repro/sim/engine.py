"""Minimal discrete-event simulation engine.

The repository does not depend on any external simulation framework; this
heap-based engine provides everything the HC-system simulator needs:

* scheduling events at arbitrary future times,
* deterministic tie-breaking (by event priority, then insertion order),
* a monotonically advancing integer clock, and
* a run loop that dispatches events to a handler until the event queue
  drains or a step/time limit is reached.

Clock semantics, pinned by ``tests/sim/test_engine_clock.py`` (the
streaming driver performs many back-to-back ``run(until=...)`` calls and
depends on them exactly):

* :meth:`SimulationEngine.schedule` rejects events strictly before ``now``
  but accepts events *at* ``now`` -- a handler may schedule more work at
  the current instant.
* ``run(until=t)`` leaves the clock exactly at ``t`` even when the last
  event fired earlier (or no event fired at all), so repeated horizons
  observe the full span they asked for.
* An early ``stop_when`` exit intentionally leaves the clock at the last
  *dispatched* event, not at ``until``: the remaining span was never
  simulated, and pretending otherwise would let callers schedule "past"
  events into it.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Protocol, Tuple

from .events import Event

__all__ = ["EventHandler", "SimulationEngine", "SimulationLimitError"]


class SimulationLimitError(RuntimeError):
    """Raised when the run loop exceeds its configured step limit."""


class EventHandler(Protocol):
    """Anything able to consume simulation events."""

    def handle(self, event: Event, engine: "SimulationEngine") -> None:
        """Process ``event``; may schedule further events on ``engine``."""
        ...  # pragma: no cover - protocol definition


class SimulationEngine:
    """Heap-backed event loop with an integer clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock.
    max_steps:
        Hard bound on the number of dispatched events; exceeding it raises
        :class:`SimulationLimitError`.  This is a guard against accidental
        infinite event loops, not a normal termination mechanism.
    """

    def __init__(self, start_time: int = 0, max_steps: int = 50_000_000):
        self._now = int(start_time)
        self._heap: List[Tuple[int, int, int, Event]] = []
        self._sequence = 0
        self._dispatched = 0
        self._max_steps = int(max_steps)

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events still waiting to be dispatched."""
        return len(self._heap)

    @property
    def dispatched_events(self) -> int:
        """Number of events dispatched so far."""
        return self._dispatched

    # ------------------------------------------------------------------
    def schedule(self, event: Event) -> None:
        """Enqueue ``event``; it must not be in the past."""
        if event.time < self._now:
            raise ValueError(
                f"cannot schedule an event at {event.time} before now={self._now}")
        heapq.heappush(self._heap, (event.time, event.priority, self._sequence, event))
        self._sequence += 1

    # ------------------------------------------------------------------
    def pending_snapshot(self) -> List[Event]:
        """Pending events in dispatch order (time, priority, insertion).

        The returned list is decoupled from the heap; together with
        :meth:`load_state` it lets a snapshot serialise and later rebuild
        the queue with the dispatch order exactly preserved.
        """
        return [entry[3] for entry in sorted(self._heap, key=lambda e: e[:3])]

    def load_state(self, now: int, dispatched: int,
                   events: List[Event]) -> None:
        """Reset the engine to a snapshotted state.

        ``events`` must be in dispatch order (as produced by
        :meth:`pending_snapshot`): re-scheduling them in that order assigns
        fresh insertion sequence numbers that reproduce the original
        tie-breaking.  Only valid on a fresh engine -- nothing may have
        been scheduled or dispatched yet.
        """
        if self._heap or self._dispatched or self._sequence:
            raise RuntimeError("load_state requires a fresh engine")
        self._now = int(now)
        self._dispatched = int(dispatched)
        for event in events:
            self.schedule(event)

    def step(self, handler: EventHandler) -> Optional[Event]:
        """Dispatch the next event (if any) and return it."""
        if not self._heap:
            return None
        time, _prio, _seq, event = heapq.heappop(self._heap)
        self._now = time
        self._dispatched += 1
        if self._dispatched > self._max_steps:
            raise SimulationLimitError(
                f"simulation exceeded {self._max_steps} events; "
                "likely an unbounded event loop")
        handler.handle(event, self)
        return event

    def run(self, handler: EventHandler, until: Optional[int] = None,
            stop_when: Optional[Callable[[], bool]] = None) -> int:
        """Dispatch events until the queue drains (or a limit is hit).

        Parameters
        ----------
        handler:
            Receiver of every dispatched event.
        until:
            Optional inclusive time horizon; events scheduled after it are
            left in the queue.  After the loop the clock stands *at* the
            horizon (never past the next pending event's time, which by
            construction is later than ``until``), so callers observe the
            full span they asked to simulate even when the last event fired
            earlier.  An early ``stop_when`` exit leaves the clock at the
            last dispatched event instead.
        stop_when:
            Optional predicate evaluated after each event; the loop stops as
            soon as it returns ``True``.

        Returns
        -------
        int
            Number of events dispatched by this call.
        """
        dispatched_before = self._dispatched
        stopped_early = False
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            self.step(handler)
            if stop_when is not None and stop_when():
                stopped_early = True
                break
        if until is not None and not stopped_early and self._now < until:
            # The horizon was simulated to its end: no event at or before
            # ``until`` remains, so time has provably advanced there.
            self._now = int(until)
        return self._dispatched - dispatched_before

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SimulationEngine(now={self._now}, pending={self.pending_events}, "
                f"dispatched={self._dispatched})")
