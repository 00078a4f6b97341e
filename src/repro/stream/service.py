"""The streaming driver: an always-on HC system fed by live traffic.

:class:`StreamingSimulation` is the service-mode counterpart of the batch
trial runner.  Instead of generating all ``n_tasks`` arrivals up front and
running the event loop to drain, it wraps one long-lived
:class:`~repro.sim.system.HCSystem` and pumps an *infinite* traffic stream
(:mod:`repro.stream.traffic`) into it in bounded chunks, so the event heap
never holds more than a small slice of the future.  Callers advance the
service through explicit horizons (:meth:`StreamingSimulation.run_until` /
:meth:`run_for`); between horizons a :class:`~repro.stream.live_metrics.
LiveMetrics` observer folds the trace into tumbling windows.

Chunking is invisible: arrivals are submitted in stream order, completions
always fire at least one time unit after they are scheduled, and
simultaneous events dispatch in a fixed (priority, sequence) order -- so
any sequence of ``run_until`` horizons and any chunk size produce the same
event dispatch sequence, the same :class:`~repro.metrics.collector.
TrialMetrics` and the same metrics timeline.  The snapshot/resume pin
(:mod:`repro.stream.snapshot`) is built on exactly this property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..metrics.collector import TrialMetrics, collect_trial_metrics
from ..records import Params, Record
from ..sim.fault_events import EXECUTION_SEED_OFFSET, FAULT_SEED_OFFSET
from ..sim.perf import PerfStats
from ..sim.system import SystemConfig
from ..sim.task import Task
from ..workload.arrivals import rate_for_oversubscription
from ..workload.deadlines import PaperDeadlinePolicy, check_gamma
from ..workload.scenario import build_scenario
from .live_metrics import LiveMetrics, MetricsTimeline, WindowStats

__all__ = ["StreamSpec", "StreamingSimulation"]

#: Seed offset of the traffic-generation stream.  Decoupled from workload
#: generation (seed) and execution sampling (seed + EXECUTION_SEED_OFFSET)
#: so the three streams never alias.
TRAFFIC_SEED_OFFSET = 7_919


@dataclass(frozen=True)
class StreamSpec(Record):
    """Fully serialisable description of one streaming service.

    The streaming analogue of :class:`repro.experiments.runner.TrialSpec`:
    everything needed to (re)build the service -- platform, traffic shape,
    policies, seeds, metric windowing -- as plain data, so snapshots and
    stream plans can embed it.

    Attributes
    ----------
    scenario_name:
        Scenario family providing the platform and PET ("spec",
        "homogeneous", "transcoding"); its finite task stream is ignored.
    traffic_name:
        Name in the :data:`repro.api.registries.TRAFFIC` registry.
    oversubscription:
        Mean arrival rate as a multiple of the platform's processing
        capacity (1.0 = arrivals match capacity; the paper's levels are
        1.05/1.55/2.05).
    traffic_params:
        Extra traffic-factory parameters beyond ``rate`` (which is derived
        from ``oversubscription``), e.g. ``burst_multiplier``.
    mapper_name / mapper_params / dropper_name / dropper_params:
        Mapping heuristic and dropping policy, by registry name.
    metrics_window / metrics_decay:
        Tumbling-window length and EWMA factor of the live metrics.
    gamma / queue_capacity / batch_window / seed / scenario_params and
    the optional axes (numerics / uncertainty_name / uncertainty_params /
    faults_name / fault_params / topology_name / topology_params):
        As in :class:`~repro.experiments.runner.TrialSpec`.  Faults draw
        from a dedicated seeded stream (``seed + FAULT_SEED_OFFSET``) and
        transfer schedules are RNG-free, so enabling either never perturbs
        traffic or execution sampling.  Snapshots written before an axis
        existed restore with its disabling default, preserving their
        replay.  A service runs the default engine: the engine switches
        are ``TrialSpec``-only.
    """

    scenario_name: str = "spec"
    traffic_name: str = "steady"
    oversubscription: float = 1.55
    gamma: float = 1.0
    queue_capacity: int = 6
    batch_window: int = 32
    seed: int = 0
    mapper_name: str = "PAM"
    dropper_name: str = "heuristic"
    mapper_params: Params = ()
    dropper_params: Params = ()
    traffic_params: Params = ()
    scenario_params: Params = ()
    uncertainty_name: str = "none"
    uncertainty_params: Params = ()
    faults_name: str = "none"
    fault_params: Params = ()
    topology_name: str = "uniform"
    topology_params: Params = ()
    numerics: str = "exact"
    metrics_window: int = 500
    metrics_decay: float = 0.2

    #: Engine switches older snapshots and stream plans carried; they
    #: never changed results, so they are read and dropped.
    DROPPED_KEYS = ("incremental", "scoring")

    def __post_init__(self) -> None:
        # Freeze dict params (dropper_params={"beta": 1.0} just works) and
        # type-check scalars (queue_capacity = 6.5 fails, not truncates).
        self._check_fields()
        if self.oversubscription <= 0:
            raise ValueError("oversubscription must be positive")
        check_gamma(self.gamma)
        if self.metrics_window < 1:
            raise ValueError("metrics window must be positive")
        if not 0 < self.metrics_decay <= 1:
            raise ValueError("metrics decay must be within (0, 1]")
        SystemConfig(queue_capacity=self.queue_capacity,
                     batch_window=self.batch_window, numerics=self.numerics)

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Short configuration label, e.g. ``"steady/PAM+heuristic"``."""
        return f"{self.traffic_name}/{self.mapper_name}+{self.dropper_name}"


class StreamingSimulation:
    """An always-on HC system pumped by an open-ended traffic process.

    Parameters
    ----------
    spec:
        Full service description (platform, traffic, policies, seeds).
    on_window:
        Optional callback invoked with each
        :class:`~repro.stream.live_metrics.WindowStats` as its tumbling
        window closes -- the CLI's live dashboard hook.
    chunk_tasks:
        Number of tasks submitted to the event heap per pump iteration.
        Any positive value yields bit-identical results (see the module
        docstring); it only bounds heap memory.

    Usage::

        service = StreamingSimulation(StreamSpec(traffic_name="burst"))
        service.run_until(50_000)     # or run_for(dt), repeatedly
        print(service.live.timeline().chart())
        state = service.snapshot()    # JSON-serialisable dict
    """

    def __init__(self, spec: StreamSpec,
                 on_window: Optional[Callable[[WindowStats], None]] = None,
                 chunk_tasks: int = 512):
        # The registries live in repro.api, which imports this package for
        # its TRAFFIC entries; import lazily to keep the module graph
        # acyclic (the same idiom the workload layer uses for ARRIVALS).
        from ..api.axes import build_system
        from ..api.registries import TRAFFIC

        if chunk_tasks < 1:
            raise ValueError("chunk_tasks must be positive")
        self.spec = spec
        self.chunk_tasks = int(chunk_tasks)

        # The scenario preset supplies the platform and PET; its finite
        # task stream is discarded (traffic replaces it).  PET sampling is
        # independent of level/scale, so the tiny scale only shrinks the
        # throwaway stream.
        scenario = build_scenario(spec.scenario_name, level="20k", scale=0.001,
                                  gamma=spec.gamma, seed=spec.seed,
                                  queue_capacity=spec.queue_capacity,
                                  **dict(spec.scenario_params))
        self.platform = scenario.platform
        self.pet = scenario.pet
        self.task_types = tuple(scenario.task_types)
        #: Mean arrivals per time unit implied by the oversubscription
        #: factor (scenario presets may correct the capacity estimate via
        #: their ``rate_multiplier``, which is honoured here too).
        self.arrival_rate = rate_for_oversubscription(
            self.pet, self.platform.num_machines,
            spec.oversubscription * scenario.spec.rate_multiplier)

        self.traffic = TRAFFIC.create(spec.traffic_name,
                                      rate=self.arrival_rate,
                                      **dict(spec.traffic_params))
        self.live = LiveMetrics(window=spec.metrics_window,
                                decay=spec.metrics_decay,
                                perf_source=self._perf_counters,
                                on_window=on_window)
        self.system = build_system(
            scenario, spec,
            np.random.default_rng(spec.seed + EXECUTION_SEED_OFFSET),
            fault_rng=np.random.default_rng(spec.seed + FAULT_SEED_OFFSET),
            trace=self.live)

        self._deadline_policy = PaperDeadlinePolicy(gamma=spec.gamma)
        self._events: Iterator[Tuple[int, int]] = self.traffic.events(
            len(self.task_types),
            np.random.default_rng(spec.seed + TRAFFIC_SEED_OFFSET))
        #: Accepted traffic events handed to the system so far.  The
        #: lookahead-buffered event is *not* counted: a restored service
        #: regenerates it from the traffic stream.
        self._consumed = 0
        self._buffered: Optional[Tuple[int, int]] = None
        self._next_task_id = 0
        self._horizon = 0

    # ------------------------------------------------------------------
    # Advancing the service
    # ------------------------------------------------------------------
    @property
    def horizon(self) -> int:
        """Simulation time the service has been advanced to."""
        return self._horizon

    @property
    def now(self) -> int:
        """Current engine clock (equals :attr:`horizon` between calls)."""
        return self.system.engine.now

    def run_until(self, t: int) -> "StreamingSimulation":
        """Advance the service to absolute time ``t`` (inclusive).

        All traffic with arrival time <= ``t`` is generated, submitted in
        bounded chunks and simulated; tumbling windows ending at or before
        ``t`` are closed.  Returns ``self`` for chaining.
        """
        t = int(t)
        if t < self._horizon:
            raise ValueError(f"cannot run backwards: horizon is already "
                             f"{self._horizon}, got until={t}")
        while True:
            batch = self._pull_tasks(t, self.chunk_tasks)
            if len(batch) == self.chunk_tasks:
                # Full chunk: more traffic may lie before t.  Drain the
                # heap only up to the last submitted arrival -- everything
                # earlier can no longer be affected by future submissions.
                self.system.submit(batch)
                self.system.run(until=batch[-1].arrival)
            else:
                if batch:
                    self.system.submit(batch)
                self.system.run(until=t)
                break
        self._horizon = t
        self.live.advance_to(t)
        return self

    def run_for(self, dt: int) -> "StreamingSimulation":
        """Advance the service by ``dt`` time units past the current horizon."""
        if dt < 0:
            raise ValueError("dt cannot be negative")
        return self.run_until(self._horizon + dt)

    def _pull_tasks(self, horizon: int, limit: int) -> List[Task]:
        """Materialise up to ``limit`` traffic events arriving at or before
        ``horizon`` as submission-ready tasks (deadlines per the paper's
        formula)."""
        tasks: List[Task] = []
        while len(tasks) < limit:
            if self._buffered is None:
                self._buffered = next(self._events)
            arrival, type_id = self._buffered
            if arrival > horizon:
                break
            self._buffered = None
            self._consumed += 1
            deadline = self._deadline_policy.deadline(arrival, type_id,
                                                      self.pet)
            tasks.append(Task(id=self._next_task_id, type_id=type_id,
                              arrival=arrival, deadline=deadline))
            self._next_task_id += 1
        return tasks

    def _fast_forward_traffic(self, consumed: int) -> None:
        """Discard ``consumed`` accepted events from a fresh traffic stream
        (restore path; the stream is a pure function of the seed)."""
        if self._consumed:
            raise RuntimeError("traffic stream was already consumed")
        for _ in range(consumed):
            next(self._events)
        self._consumed = consumed

    def _perf_counters(self) -> Dict[str, float]:
        """Cumulative perf counters for per-window delta attribution.

        The derived rates (``PerfStats.DROPPED_KEYS``) are left out: the
        difference of two cumulative ratios is not a rate of anything.
        """
        return {k: float(v) for k, v in self.system.perf.to_dict().items()
                if isinstance(v, (int, float))
                and k not in PerfStats.DROPPED_KEYS}

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def metrics(self) -> TrialMetrics:
        """Aggregate metrics over everything simulated so far.

        No warm-up/cool-down exclusion is applied (the batch default): a
        service measures steady-state behaviour through its windowed
        timeline instead, and in-flight tasks simply have no terminal
        status yet.
        """
        return collect_trial_metrics(self.system.result(), warmup=0,
                                     cooldown=0)

    def timeline(self) -> MetricsTimeline:
        """Timeline of all closed tumbling windows so far."""
        return self.live.timeline()

    def describe(self) -> str:
        """One-line human-readable description of the service."""
        return (f"StreamingSimulation({self.spec.label}, "
                f"rate={self.arrival_rate:.4f}/u "
                f"({self.spec.oversubscription:.2f}x capacity), "
                f"horizon={self._horizon}, tasks={self._next_task_id})")

    # ------------------------------------------------------------------
    # Snapshot / resume
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Full live state as a JSON-serialisable dict (see
        :mod:`repro.stream.snapshot`)."""
        from .snapshot import snapshot_state
        return snapshot_state(self)

    @classmethod
    def restore(cls, payload: Mapping[str, object],
                on_window: Optional[Callable[[WindowStats], None]] = None,
                chunk_tasks: int = 512) -> "StreamingSimulation":
        """Rebuild a service from :meth:`snapshot` output.

        The restored service continues bit-identically: running it to any
        later horizon produces the same metrics and timeline as a service
        that never snapshotted (perf counters excepted).
        """
        from .snapshot import restore_state
        return restore_state(payload, on_window=on_window,
                             chunk_tasks=chunk_tasks)
