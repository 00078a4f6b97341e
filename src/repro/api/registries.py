"""The package's built-in registries: mappers, droppers, scenarios, arrivals.

This module is the single source of truth for "what can I ask for by name?".
The legacy entry points (:func:`repro.mapping.make_heuristic`,
:func:`repro.workload.scenario.build_scenario`) delegate here, so anything a
user registers -- ::

    from repro.api import MAPPERS

    @MAPPERS.register("greedy", summary="Always maps to machine 0.")
    class Greedy(MappingHeuristic):
        ...

-- is immediately usable everywhere a built-in name is: the fluent
:class:`~repro.api.builder.Simulation` builder, ``quick_run``, the figure
harness and the ``python -m repro run --mapper greedy`` CLI.
"""

from __future__ import annotations

from typing import Sequence

from ..core.dropping import (AdaptiveThresholdDropping, DroppingPolicy,
                             NoProactiveDropping, OptimalProactiveDropping,
                             ProactiveHeuristicDropping, ThresholdDropping)
from ..mapping import EDF, FCFS, MSD, PAM, SJF, MinMin
from ..platform.topology import (CustomTopology, StarUplinkTopology,
                                 TieredEdgeCloudTopology, UniformTopology)
from ..sim.fault_events import (CrashRestartProcess, NoFaults,
                                PartitionProcess, SlowdownProcess)
from ..sim.faults import (ComposedUncertainty, MachineStallModel,
                          NetworkLatencyModel, NoUncertainty,
                          UncertaintyModel)
from ..stream.traffic import (BurstTraffic, DiurnalTraffic, MixedTraffic,
                              SteadyTraffic)
from ..workload.arrivals import PoissonArrivals, UniformArrivals
from ..workload.scenario import (homogeneous_scenario, spec_scenario,
                                 transcoding_scenario)
from .registry import Registry

__all__ = ["MAPPERS", "DROPPERS", "SCENARIOS", "ARRIVALS", "TRAFFIC",
           "UNCERTAINTY", "FAULTS", "TOPOLOGIES"]


# ----------------------------------------------------------------------
# Mapping heuristics
# ----------------------------------------------------------------------
MAPPERS: Registry = Registry("mapping heuristic")
MAPPERS.add("MM", MinMin, aliases=("MinMin",), params=(),
            summary="Min-Min: two-phase minimum expected completion time.")
MAPPERS.add("MSD", MSD, params=(),
            summary="Minimum Standard Deviation two-phase heuristic.")
MAPPERS.add("PAM", PAM, params=(),
            summary="Pruning-Aware Mapping (chance-of-success driven).")
MAPPERS.add("FCFS", FCFS, params=(),
            summary="First-come-first-served ordered heuristic.")
MAPPERS.add("SJF", SJF, params=(),
            summary="Shortest-job-first ordered heuristic.")
MAPPERS.add("EDF", EDF, params=(),
            summary="Earliest-deadline-first ordered heuristic.")


# ----------------------------------------------------------------------
# Dropping policies
# ----------------------------------------------------------------------
DROPPERS: Registry = Registry("dropping policy")


@DROPPERS.register("react", aliases=("none",), params=(),
                   summary="Reactive dropping only (the paper's baseline).")
def _make_react_only() -> DroppingPolicy:
    return NoProactiveDropping()


@DROPPERS.register("heuristic", params=("beta", "eta"),
                   summary="Autonomous proactive dropping heuristic "
                           "(the paper's mechanism).")
def _make_heuristic_dropper(beta: float = 1.0, eta: int = 2) -> DroppingPolicy:
    return ProactiveHeuristicDropping(beta=beta, eta=eta)


@DROPPERS.register("optimal", params=("improvement_factor",),
                   summary="Exhaustive-search proactive dropping upper bound.")
def _make_optimal_dropper(improvement_factor: float = 1.0) -> DroppingPolicy:
    return OptimalProactiveDropping(improvement_factor=improvement_factor)


@DROPPERS.register("threshold", params=("threshold",),
                   summary="Fixed chance-of-success threshold dropping.")
def _make_threshold_dropper(threshold: float = 0.2) -> DroppingPolicy:
    return ThresholdDropping(threshold=threshold)


@DROPPERS.register("threshold-adaptive",
                   params=("base_threshold", "max_threshold"),
                   summary="Oversubscription-adaptive threshold dropping.")
def _make_adaptive_threshold_dropper(base_threshold: float = 0.15,
                                     max_threshold: float = 0.6) -> DroppingPolicy:
    return AdaptiveThresholdDropping(base_threshold=base_threshold,
                                     max_threshold=max_threshold)


# ----------------------------------------------------------------------
# Scenario presets
# ----------------------------------------------------------------------
SCENARIOS: Registry = Registry("scenario")
SCENARIOS.add("spec", spec_scenario,
              params=("level", "scale", "gamma", "seed", "queue_capacity",
                      "arrival"),
              summary="12 SPEC task types on 8 heterogeneous machines "
                      "(the paper's primary setup).")
SCENARIOS.add("homogeneous", homogeneous_scenario,
              params=("level", "scale", "gamma", "seed", "queue_capacity",
                      "num_machines", "arrival"),
              summary="SPEC task types on identical machines (Fig. 7b).")
SCENARIOS.add("transcoding", transcoding_scenario,
              params=("level", "scale", "gamma", "seed", "queue_capacity",
                      "machines_per_type", "rate_multiplier", "arrival"),
              summary="Video-transcoding validation workload (Fig. 10).")


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
ARRIVALS: Registry = Registry("arrival process")
ARRIVALS.add("poisson", PoissonArrivals, params=("rate", "start_time"),
             summary="Homogeneous Poisson process (the paper's arrivals).")
ARRIVALS.add("uniform", UniformArrivals, params=("rate", "start_time"),
             summary="Deterministic evenly-spaced arrivals.")


# ----------------------------------------------------------------------
# Streaming traffic processes (the open-ended counterpart of ARRIVALS)
# ----------------------------------------------------------------------
TRAFFIC: Registry = Registry("traffic process")
TRAFFIC.add("steady", SteadyTraffic, params=("rate", "start_time"),
            summary="Constant-rate open-ended traffic.")
TRAFFIC.add("burst", BurstTraffic,
            params=("rate", "burst_multiplier", "burst_period",
                    "burst_length", "start_time"),
            summary="Base rate with periodic burst windows at a multiplier.")
TRAFFIC.add("diurnal", DiurnalTraffic,
            params=("rate", "amplitude", "period", "start_time"),
            summary="Sinusoidally modulated day/night traffic.")


@TRAFFIC.register("mixed",
                  params=("rate", "steady_weight", "burst_weight",
                          "diurnal_weight", "burst_multiplier",
                          "burst_period", "burst_length", "amplitude",
                          "period", "start_time"),
                  summary="Weighted mixture of steady + burst + diurnal "
                          "traffic at a shared mean rate.")
def _make_mixed_traffic(rate: float, steady_weight: float = 1.0,
                        burst_weight: float = 1.0,
                        diurnal_weight: float = 0.0,
                        burst_multiplier: float = 4.0,
                        burst_period: int = 2_000, burst_length: int = 400,
                        amplitude: float = 0.5, period: int = 10_000,
                        start_time: int = 0) -> MixedTraffic:
    """Standard three-way mixture; weights are normalised so the mixture's
    *base* rate stays ``rate`` regardless of the weight split."""
    total = steady_weight + burst_weight + diurnal_weight
    if total <= 0:
        raise ValueError("at least one mixture weight must be positive")
    components = [
        (steady_weight / total, SteadyTraffic(rate=rate,
                                              start_time=start_time)),
        (burst_weight / total, BurstTraffic(rate=rate,
                                            burst_multiplier=burst_multiplier,
                                            burst_period=burst_period,
                                            burst_length=burst_length,
                                            start_time=start_time)),
        (diurnal_weight / total, DiurnalTraffic(rate=rate,
                                                amplitude=amplitude,
                                                period=period,
                                                start_time=start_time)),
    ]
    return MixedTraffic([(w, p) for w, p in components if w > 0],
                        start_time=start_time)


# ----------------------------------------------------------------------
# Uncertainty (unmodelled-delay) injectors
# ----------------------------------------------------------------------
UNCERTAINTY: Registry = Registry("uncertainty model")
UNCERTAINTY.add("none", NoUncertainty, params=(),
                summary="No unmodelled delay (PET samples used as drawn).")
UNCERTAINTY.add("network_latency", NetworkLatencyModel,
                params=("mean_latency", "jitter_probability", "jitter_scale"),
                summary="Additive network latency with occasional jitter "
                        "spikes.")
UNCERTAINTY.add("machine_stall", MachineStallModel,
                params=("stall_probability", "min_stall", "max_stall"),
                summary="Rare long machine stalls (GC pauses, contention).")


@UNCERTAINTY.register("composed", params=("models",),
                      summary="Composition of named uncertainty models, "
                              "applied in order.")
def _make_composed_uncertainty(
        models: Sequence[object] = ("network_latency", "machine_stall"),
) -> UncertaintyModel:
    """Compose registered models by name; each name may also be a
    ``(name, params_dict)`` pair for per-component parameters.  A bare
    string is one model name (``--uncertainty-param models=NAME``)."""
    if isinstance(models, str):
        models = (models,)
    built = []
    for entry in models:
        if isinstance(entry, str):
            name, params = entry, {}
        else:
            name, params = entry
        if name == "composed":
            raise ValueError("composed uncertainty cannot nest itself")
        built.append(UNCERTAINTY.create(name, **dict(params)))
    return ComposedUncertainty(built)


# ----------------------------------------------------------------------
# Timeline fault processes (environment faults as first-class events)
# ----------------------------------------------------------------------
FAULTS: Registry = Registry("fault process")
FAULTS.add("none", NoFaults, params=(),
           summary="No environment faults (the clean-room default).")
FAULTS.add("crash-restart", CrashRestartProcess,
           params=("mtbf", "repair_mean", "policy", "start_time"),
           summary="Machine crash/restart churn: capacity lost, in-flight "
                   "tasks requeued or lost, repair after a delay.")
FAULTS.add("slowdown", SlowdownProcess,
           params=("mean_interval", "duration_mean", "factor", "scope",
                   "start_time"),
           summary="Interval-scoped slowdown windows inflating execution "
                   "times on affected machines.")
FAULTS.add("partition", PartitionProcess,
           params=("mean_interval", "duration_mean", "group_fraction",
                   "start_time"),
           summary="Network partitions: a machine group unreachable for "
                   "mapping for a window.")


# ----------------------------------------------------------------------
# Platform topologies (data movement as a first-class cost)
# ----------------------------------------------------------------------
TOPOLOGIES: Registry = Registry("topology")
TOPOLOGIES.add("uniform", UniformTopology, params=(),
               summary="All machines equally reachable at zero cost "
                       "(the paper's implicit platform; the default).")
TOPOLOGIES.add("star-uplink", StarUplinkTopology,
               params=("bandwidth", "latency", "task_bytes"),
               summary="Every machine behind one shared uplink; transfers "
                       "contend on a single channel.")
TOPOLOGIES.add("tiered-edge-cloud", TieredEdgeCloudTopology,
               params=("bandwidth", "latency", "task_bytes", "cloud_types"),
               summary="Fast 'cloud' machines behind a shared uplink, "
                       "'edge' machines local at zero cost.")
TOPOLOGIES.add("custom", CustomTopology,
               params=("links", "task_bytes"),
               summary="Explicit per-machine link specs (bandwidth, "
                       "latency, shared group).")
