"""Span tracer for the traced benchmark child.

The tracer times calls into the simulator's public functions from outside:
:meth:`Tracer.patch` replaces a method or function with a wrapper that
records one span per call (id, parent, name, start, end) in memory.  Spans
are written as JSONL only when a trace file is asked for.  Nothing under
``src/`` changes; untraced children never import this module.

A layer's *self time* is its spans' duration minus the part covered by
child spans.  Calls are single-threaded and properly nested, so children
never overlap and the self times of a subtree sum to its root's duration.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (id, parent id or -1, name, start, end); times are ``perf_counter`` s.
Span = Tuple[int, int, str, float, float]
#: Updates per-call tallies from (tallies, call args, call result).
Tally = Callable[[Dict[str, int], tuple, Any], None]

#: Span names timed inside ``HCSystem.run``; their self times add up to the
#: duration of the ``sim.run`` spans.
RUN_LAYERS = ("sim.run", "sim.handle", "mapping.map_tasks",
              "core.dropping.evaluate_queue", "core.completion.fold",
              "core.completion.fold_batch", "core.completion.append_chance",
              "core.completion.append_mean", "stream.live.record")


class Tracer:
    """In-memory span recorder and the patches that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        #: Counts read off call arguments and results by ``Tally`` hooks.
        self.tally: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._stack = [-1]
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def wrap(self, name: str, fn: Callable, tally: Optional[Tally] = None
             ) -> Callable:
        """``fn`` with one span recorded per call."""
        spans, stack, ids = self.spans, self._stack, self._ids
        counts = self.tally
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if tally is not None:
                tally(counts, args, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str,
              tally: Optional[Tally] = None) -> None:
        """Trace ``owner.attr``: a class or module attribute, or one
        instance's bound method (tally args then exclude ``self``)."""
        if isinstance(owner, (type, types.ModuleType)):
            raw = inspect.getattr_static(owner, attr)
            own = attr in vars(owner)
            if isinstance(raw, classmethod):
                new: Any = classmethod(self.wrap(name, raw.__func__, tally))
            else:
                new = self.wrap(name, raw, tally)
        else:
            raw, own = None, False
            new = self.wrap(name, getattr(owner, attr), tally)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw, own))

    def unpatch(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, raw, own = self._undo.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def write(self, path: str) -> None:
        """Append the spans to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as handle:
            for sid, parent, name, start, end in sorted(self.spans):
                handle.write(json.dumps(
                    {"run": self.run_id, "id": sid, "parent": parent,
                     "name": name, "start": start, "end": end}) + "\n")


# ----------------------------------------------------------------------
# What is traced
# ----------------------------------------------------------------------
def _fold_ops(counts: Dict[str, int], args: tuple, result: Any) -> None:
    # Class-level patch: args = (folder, prev, exec_pmf, deadline).
    counts["fold_ops"] += args[1].probs.size * args[2].probs.size


def _mapping(counts: Dict[str, int], args: tuple, result: Any) -> None:
    counts["tasks_offered"] += len(args[0])
    counts["tasks_assigned"] += len(result)


def _dropping(counts: Dict[str, int], args: tuple, result: Any) -> None:
    counts["drop_evaluations_dropping"] += bool(result.drop_indices)


def install(tracer: Tracer) -> None:
    """Patch the class- and module-level calls; run before building."""
    from repro.api import plan as plan_module
    from repro.api.sinks import JsonlSpoolSink
    from repro.core.completion import ChainFolder
    from repro.experiments import runner
    from repro.metrics import collector
    from repro.stream import service
    from repro.stream.live_metrics import LiveMetrics
    from repro.workload import scenario

    patch = tracer.patch
    patch(ChainFolder, "fold", "core.completion.fold", _fold_ops)
    patch(ChainFolder, "fold_batch", "core.completion.fold_batch")
    patch(ChainFolder, "append_chance", "core.completion.append_chance")
    patch(ChainFolder, "append_mean", "core.completion.append_mean")
    patch(LiveMetrics, "record", "stream.live.record")
    patch(service.StreamingSimulation, "snapshot", "stream.snapshot")
    patch(service.StreamingSimulation, "restore", "stream.restore")
    patch(service.StreamingSimulation, "run_for", "stream.run_for")
    patch(JsonlSpoolSink, "cell", "api.sinks.cell")
    patch(plan_module.ExperimentPlan, "run_spooled", "api.plan.run_spooled")
    # Both functions are imported by name into their callers' modules.
    for module in (scenario, runner, service):
        patch(module, "build_scenario", "workload.build_scenario")
    for module in (collector, runner, service):
        patch(module, "collect_trial_metrics", "metrics.collect")


def instrument(tracer: Tracer, system: Any) -> None:
    """Patch one built ``HCSystem`` and its mapper and dropper."""
    tracer.patch(system, "run", "sim.run")
    tracer.patch(system, "handle", "sim.handle")
    tracer.patch(system.mapper, "map_tasks", "mapping.map_tasks", _mapping)
    tracer.patch(system.dropper, "evaluate_queue",
                 "core.dropping.evaluate_queue", _dropping)


# ----------------------------------------------------------------------
# From spans to per-layer metrics
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> Dict[str, Tuple[int, float, float]]:
    """Per span name: (calls, total seconds, self seconds)."""
    covered: Dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, Tuple[int, float, float]] = {}
    for sid, _, name, start, end in spans:
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + end - start,
                     own + end - start - covered.get(sid, 0.0))
    return out


def run_coverage(agg: Dict[str, Tuple[int, float, float]]
                 ) -> Tuple[float, float]:
    """(duration of the ``sim.run`` spans, sum of ``RUN_LAYERS`` self
    times) from :func:`self_times`.  The two agree when every run-layer
    call happens inside ``HCSystem.run``."""
    return (agg.get("sim.run", (0, 0.0, 0.0))[1],
            sum(agg.get(name, (0, 0.0, 0.0))[2] for name in RUN_LAYERS))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, agg: Dict[str, Tuple[int, float, float]],
                  counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced unit (README.md defines each).

    ``agg`` is :func:`self_times` of the tracer's spans; ``counters``
    holds the workload's ``PerfStats`` fields and result counts.
    """

    def calls(name: str) -> int:
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return agg.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return agg.get(name, (0, 0.0, 0.0))[2]

    c = counters
    tally = tracer.tally
    first_cell = min((start for _, _, name, start, _ in tracer.spans
                      if name == "api.sinks.cell"), default=None)
    spooled = min((start for _, _, name, start, _ in tracer.spans
                   if name == "api.plan.run_spooled"), default=None)
    append = ("core.completion.append_chance", "core.completion.append_mean")
    return {
        "workload.build_scenario_s": total("workload.build_scenario"),
        "sim.run_s": total("sim.run"),
        "sim.engine.events": c["events_dispatched"],
        "sim.engine.self_s": own("sim.run"),
        "sim.system.self_s": own("sim.handle"),
        "sim.system.mapping_events": c["mapping_events"],
        "sim.system.tail_cache_hit_ratio": _ratio(
            c["tail_cache_hits"], c["tail_cache_hits"]
            + c["tail_cache_extends"] + c["tail_cache_rebuilds"]),
        "sim.system.drop_memo_hit_ratio": _ratio(
            c["drop_cache_hits"], c["drop_cache_hits"]
            + c["drop_evaluations"]),
        "core.dropping.calls": calls("core.dropping.evaluate_queue"),
        "core.dropping.self_s": own("core.dropping.evaluate_queue"),
        "core.dropping.drops": c["proactive_drops"],
        "core.dropping.drop_ratio": _ratio(
            tally["drop_evaluations_dropping"],
            calls("core.dropping.evaluate_queue")),
        "mapping.calls": calls("mapping.map_tasks"),
        "mapping.self_s": own("mapping.map_tasks"),
        "mapping.tasks_offered": tally["tasks_offered"],
        "mapping.tasks_assigned": tally["tasks_assigned"],
        "mapping.assign_ratio": _ratio(tally["tasks_assigned"],
                                       tally["tasks_offered"]),
        "mapping.plane_evals": c["plane_evals"],
        "mapping.plane_rounds": c["plane_rounds"],
        "core.completion.fold_calls": calls("core.completion.fold"),
        "core.completion.fold_s": own("core.completion.fold"),
        "core.completion.fold_memo_hit_ratio": _ratio(
            c["fold_memo_hits"], calls("core.completion.fold")),
        "core.completion.fold_batch_s": own("core.completion.fold_batch"),
        "core.completion.append_calls": sum(calls(n) for n in append),
        "core.completion.append_s": sum(own(n) for n in append),
        "core.completion.fold_ops": tally["fold_ops"],
        "core.pmf.interned": c["interned"],
        "core.pmf.intern_hit_ratio": _ratio(
            c["intern_hits"], c["interned"] + c["intern_hits"]),
        "platform.transfers": c["transfers"],
        "platform.transfer_wait": c["transfer_wait"],
        "sim.faults.crashes": c["crashes"],
        "sim.faults.requeued": c["requeued"],
        "stream.run_for_s": total("stream.run_for"),
        "stream.live.record_calls": calls("stream.live.record"),
        "stream.live.record_s": own("stream.live.record"),
        "stream.snapshot_s": total("stream.snapshot"),
        "stream.snapshot_bytes": c["snapshot_bytes"],
        "stream.restore_s": total("stream.restore"),
        "api.plan.pool_start_s": (first_cell - spooled
                                  if first_cell is not None
                                  and spooled is not None else 0.0),
        "api.plan.cell_p50_s": c["cell_p50_s"],
        "api.sinks.spool_write_s": total("api.sinks.cell"),
        "metrics.collect_s": total("metrics.collect"),
    }
