"""Lightweight performance counters for the simulation core.

The simulator increments a handful of integer counters on its hot paths --
cheap enough to stay on permanently, unlike tracing -- so every run reports
how much work the event loop actually did and how effective the incremental
completion-PMF caches were.  The counters ride along on
:class:`~repro.sim.system.SimulationResult`, are carried through
:class:`~repro.metrics.collector.TrialMetrics` (excluded from equality, so
two runs with identical outcomes but different cache behaviour still compare
equal) and aggregate across trials on
:class:`~repro.api.results.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, Optional

from ..records import Record

__all__ = ["PerfStats"]


@dataclass
class PerfStats(Record):
    """Counters describing the computational work of one simulation run.

    Attributes
    ----------
    events_dispatched:
        Events the engine dispatched (arrivals + completions).
    mapping_events:
        Mapping events triggered by those events.
    pmf_folds:
        ``completion_pmf`` evaluations performed while building machine-tail
        completion chains (the simulator's dominant cost).
    tail_cache_hits / tail_cache_extends / tail_cache_rebuilds:
        Outcomes of the incremental tail-PMF cache: full reuse, reuse of a
        prefix extended with new folds, or a rebuild from scratch.
    drop_cache_hits / drop_evaluations:
        Reuses versus fresh evaluations of proactive drop decisions.
    batch_expired:
        Tasks discarded through the deadline-indexed batch-queue expiry.
    fold_memo_hits:
        Eq. 1 folds answered by the :class:`~repro.core.completion.ChainFolder`
        identity memo without touching NumPy.  The memo lives for one
        mapping event, so these are repeats within an event (same-type
        score columns, tail extensions over the mapper's appended folds),
        never hits across events.
    interned / intern_hits / scratch_reuses:
        Retired: PMFs are no longer hash-consed and the fold kernel has no
        scratch buffer, so these always read 0 (as does the derived
        ``intern_hit_rate``).  They stay so that payloads written by older
        versions, which carry the keys, still load under the strict
        ``from_dict``, and so that readers of the keys keep working.
    plane_evals / plane_rounds:
        Work done by the two-phase score-plane backends
        (:mod:`repro.mapping.kernel`): per-pair score evaluations issued
        and selection rounds executed.  The loop backend re-issues every
        (task, machine) score each round; the vector backend only refills
        the columns of machines whose provisional tail moved, so the
        ``plane_evals`` gap between the two backends is the work the
        vectorised engine avoids.
    wall_time_s:
        Wall-clock time spent inside :meth:`HCSystem.run`.
    """

    events_dispatched: int = 0
    mapping_events: int = 0
    pmf_folds: int = 0
    tail_cache_hits: int = 0
    tail_cache_extends: int = 0
    tail_cache_rebuilds: int = 0
    drop_cache_hits: int = 0
    drop_evaluations: int = 0
    batch_expired: int = 0
    interned: int = 0
    intern_hits: int = 0
    fold_memo_hits: int = 0
    scratch_reuses: int = 0
    plane_evals: int = 0
    plane_rounds: int = 0
    wall_time_s: float = 0.0

    # ------------------------------------------------------------------
    @property
    def tail_cache_requests(self) -> int:
        """Total tail-PMF lookups served by the cache layer."""
        return (self.tail_cache_hits + self.tail_cache_extends
                + self.tail_cache_rebuilds)

    @property
    def tail_cache_hit_rate(self) -> float:
        """Fraction of tail lookups answered without a full rebuild."""
        requests = self.tail_cache_requests
        if requests == 0:
            return 0.0
        return (self.tail_cache_hits + self.tail_cache_extends) / requests

    @property
    def intern_hit_rate(self) -> float:
        """Retired intern-table hit rate; always 0.0 for new runs."""
        total = self.interned + self.intern_hits
        if total == 0:
            return 0.0
        return self.intern_hits / total

    # ------------------------------------------------------------------
    def merge(self, other: "PerfStats") -> "PerfStats":
        """Add ``other``'s counters into this instance (returns ``self``)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @classmethod
    def merged(cls, stats: Iterable[Optional["PerfStats"]]) -> Optional["PerfStats"]:
        """Sum of several runs' counters; ``None`` when nothing to merge."""
        total: Optional[PerfStats] = None
        for item in stats:
            if item is None:
                continue
            if total is None:
                total = cls()
            total.merge(item)
        return total

    #: The derived rates :meth:`to_dict` adds; read back and discarded.
    DROPPED_KEYS = ("tail_cache_hit_rate", "intern_hit_rate")

    def to_dict(self) -> Dict[str, Any]:  # repro: allow[serialization-symmetry] Record.from_dict reads it; the rates are DROPPED_KEYS
        """The counters plus the derived rates (nested, the counters only)."""
        payload = super().to_dict()
        payload["tail_cache_hit_rate"] = self.tail_cache_hit_rate
        payload["intern_hit_rate"] = self.intern_hit_rate
        return payload
