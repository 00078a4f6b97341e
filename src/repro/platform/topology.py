"""Topology-aware platform model: data movement as a first-class cost.

The paper's HC model prices a mapping decision purely by execution-time
PMFs.  Real heterogeneous deployments (edge vs. cloud tiers, oversubscribed
uplinks) pay a data-movement cost that can dominate the compute gap between
machine types: a slower local machine beats a faster remote one once the
transfer delay is folded into the completion-time PMF.

This module models machines as nodes on a bandwidth/latency graph.  Each
machine reaches the task source (the batch queue's ingress point) over one
:class:`LinkSpec`; task types carry input/output byte annotations
(:class:`repro.sim.task.TaskType`, defaulting to 0 so every pre-existing
scenario is unchanged).  A dispatched task first moves its payload over the
machine's link, then executes, so its completion-time PMF is

    ``transfer_pmf(source -> machine)  (*)  execution_pmf``

Because the transfer time of a fixed payload over a fixed link is
deterministic, the transfer PMF is a delta impulse and the convolution
reduces *exactly* to an origin shift of the execution PMF.
:class:`EffectiveExecution` precomputes that composition once per
(task type, machine), so effective PMFs are built once per run and
identity-stable exactly like raw PET entries -- the
:class:`~repro.core.completion.ChainFolder`
memos, tail caches and drop-decision memos key on them unchanged, and
both the exact and the fast (closed-form) numerics profiles consume them
transparently.
Zero transfer time stores the *identical* PET entry object, which is what
keeps zero-size workloads bit-identical to pre-topology runs.

Shared links (``LinkSpec.group``) additionally model uplink *contention* as
a deterministic, seed-pure queueing delay: each named group carries one
busy-until clock, transfers serialize on it in dispatch order (machines are
always iterated in fixed id order, events in deterministic heap order), and
no RNG is ever drawn -- so the fault/sampling streams stay aligned and the
snapshot/resume and incremental==naive pins survive (see
``docs/INVARIANTS.md``).  Contention is a *runtime* effect only; the
scheduler's effective PMFs use the uncontended transfer time, mirroring how
the paper's scheduler views never see unmodelled delays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.pet import PETMatrix
from ..core.pmf import PMF
from ..records import Record

__all__ = ["LinkSpec", "Topology", "BoundTopology", "EffectiveExecution",
           "TransferCounters", "UniformTopology", "StarUplinkTopology",
           "TieredEdgeCloudTopology", "CustomTopology", "LOCAL_LINK"]


@dataclass(frozen=True)
class LinkSpec:
    """One machine's link to the task source.

    Attributes
    ----------
    bandwidth:
        Link throughput in bytes per time unit; ``math.inf`` (the default)
        models a local/zero-cost attachment.
    latency:
        Fixed per-transfer setup time in time units, paid once per
        non-empty transfer.
    group:
        Optional shared-channel name.  Transfers over links that carry the
        same group name serialize on one busy-until clock (uplink
        contention); ``None`` means a dedicated link.
    """

    bandwidth: float = math.inf
    latency: int = 0
    group: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.bandwidth > 0:
            raise ValueError("link bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("link latency cannot be negative")
        if self.group is not None and not self.group:
            raise ValueError("link group name cannot be empty")

    @property
    def trivial(self) -> bool:
        """True when any payload crosses this link in zero time."""
        return math.isinf(self.bandwidth) and self.latency == 0

    def transfer_time(self, nbytes: int) -> int:
        """Uncontended time to move ``nbytes`` over this link.

        An empty payload never touches the link: it costs neither latency
        nor occupancy, which is the invariant that keeps zero-size tasks on
        any topology byte-identical to pre-topology runs.
        """
        if nbytes <= 0:
            return 0
        ticks = 0 if math.isinf(self.bandwidth) \
            else int(math.ceil(nbytes / self.bandwidth))
        return self.latency + ticks


#: The zero-cost link every machine gets unless a topology says otherwise.
LOCAL_LINK = LinkSpec()


@dataclass(frozen=True)
class TransferCounters(Record):
    """Data-movement totals of one run (attached to trial metrics only when
    a non-trivial topology was active, keeping older spools byte-identical).

    ``wait`` is contention-induced queueing on shared link groups;
    ``busy`` is raw (uncontended) transfer occupancy.
    """

    transfers: int = 0
    busy: int = 0
    wait: int = 0


class BoundTopology:
    """A topology resolved against one concrete platform.

    Holds the per-machine link table, the task-payload resolution rule and
    the deterministic shared-link scheduling primitive.  Built by
    :meth:`Topology.bind`; consumed by :class:`repro.sim.system.HCSystem`.
    """

    def __init__(self, name: str, links: Mapping[int, LinkSpec],
                 task_types: Sequence["TaskType"], task_bytes: int = 0):
        self.name = name
        self.links: Dict[int, LinkSpec] = dict(links)
        self.task_bytes = int(task_bytes)
        if self.task_bytes < 0:
            raise ValueError("task_bytes cannot be negative")
        #: Resolved payload per task type id: explicit TaskType annotations
        #: win; types annotated 0/0 fall back to the topology's uniform
        #: ``task_bytes`` payload (so studies can size data via topology
        #: parameters without touching scenario presets).
        self.payloads: Dict[int, int] = {}
        for ttype in task_types:
            annotated = ttype.input_bytes + ttype.output_bytes
            self.payloads[ttype.id] = annotated if annotated else self.task_bytes

    # ------------------------------------------------------------------
    def payload_bytes(self, type_id: int) -> int:
        """Bytes moved to run one task of ``type_id`` (input + output)."""
        return self.payloads[type_id]

    def transfer_time(self, machine_id: int, type_id: int) -> int:
        """Uncontended transfer time of one task onto one machine."""
        return self.links[machine_id].transfer_time(self.payloads[type_id])

    def transfer_pmf(self, machine_id: int, type_id: int) -> PMF:
        """The transfer-delay PMF (a delta impulse)."""
        return PMF.delta(self.transfer_time(machine_id, type_id))

    @property
    def trivial(self) -> bool:
        """True when no (task type, machine) pair pays any transfer time.

        A trivial binding is treated exactly like no topology at all: no
        effective-PMF table, no counters, no serialized state -- which is
        how zero-size workloads stay byte-identical to pre-topology runs.
        """
        if all(payload == 0 for payload in self.payloads.values()):
            return True
        return all(spec.trivial for spec in self.links.values())

    # ------------------------------------------------------------------
    def acquire(self, machine_id: int, transfer: int, now: int,
                busy_until: Dict[str, int]) -> int:
        """Occupy the machine's link for ``transfer`` units starting ``now``.

        Returns the contention wait (time spent queued behind earlier
        transfers on the same shared group).  Deterministic and RNG-free:
        the wait is a pure function of the group's busy-until clock, which
        itself advances only through this method in dispatch order.
        Dedicated links (``group is None``) never queue.
        """
        spec = self.links[machine_id]
        if transfer <= 0 or spec.group is None:
            return 0
        start = max(now, busy_until.get(spec.group, 0))
        busy_until[spec.group] = start + transfer
        return start - now


class EffectiveExecution:
    """Transfer-composed execution views, one per (task type, machine).

    The composition ``transfer (*) execution`` is exact: the transfer PMF is
    a delta at the uncontended transfer time ``t``, so the convolution is an
    origin shift.  Shifted PMFs are built once here and handed out as the
    same objects, so the fold/tail/drop memos key on them exactly like raw
    PET entries; a zero ``t`` stores the *identical* PET entry object.
    """

    def __init__(self, bound: BoundTopology, machines: Sequence["Machine"],
                 task_types: Sequence["TaskType"], pet: PETMatrix):
        self.bound = bound
        self._pmfs: Dict[Tuple[int, int], PMF] = {}
        self._means: Dict[Tuple[int, int], float] = {}
        self._transfers: Dict[Tuple[int, int], int] = {}
        for machine in machines:
            for ttype in task_types:
                key = (ttype.id, machine.id)
                t = bound.transfer_time(machine.id, ttype.id)
                base = pet.pmf(ttype.id, machine.type_id)
                self._transfers[key] = t
                self._pmfs[key] = base if t == 0 \
                    else PMF(base.origin + t, base.probs)
                self._means[key] = \
                    pet.mean_execution(ttype.id, machine.type_id) + t

    def pmf(self, type_id: int, machine_id: int) -> PMF:
        """Effective (transfer-shifted) execution PMF."""
        return self._pmfs[(type_id, machine_id)]

    def mean(self, type_id: int, machine_id: int) -> float:
        """Expected effective execution time (PET mean + transfer)."""
        return self._means[(type_id, machine_id)]

    def transfer(self, type_id: int, machine_id: int) -> int:
        """Uncontended transfer time of the pair."""
        return self._transfers[(type_id, machine_id)]


# ----------------------------------------------------------------------
# Topology specs (unbound; what the TOPOLOGIES registry hands out)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Topology:
    """Base class of unbound topology specs.

    A spec is platform-agnostic; :meth:`bind` resolves it against concrete
    machines/task types (and the PET, which tier-aware topologies consult)
    into a :class:`BoundTopology`.
    """

    name: str = "uniform"

    def bind(self, machines: Sequence["Machine"],
             task_types: Sequence["TaskType"],
             pet: PETMatrix) -> BoundTopology:
        """Resolve the spec against one platform."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformTopology(Topology):
    """All machines equally reachable at zero cost (the identity model)."""

    name: str = "uniform"

    def bind(self, machines, task_types, pet) -> BoundTopology:
        return BoundTopology(self.name,
                             {m.id: LOCAL_LINK for m in machines},
                             task_types)


@dataclass(frozen=True)
class StarUplinkTopology(Topology):
    """Every machine behind one shared uplink (oversubscribed star).

    All transfers serialize on the single ``uplink`` channel, so link
    contention -- not just transfer time -- becomes part of the cost of
    concentrating work.
    """

    name: str = "star-uplink"
    bandwidth: float = 64.0
    latency: int = 1
    task_bytes: int = 0

    def bind(self, machines, task_types, pet) -> BoundTopology:
        spec = LinkSpec(bandwidth=self.bandwidth, latency=self.latency,
                        group="uplink")
        return BoundTopology(self.name, {m.id: spec for m in machines},
                             task_types, task_bytes=self.task_bytes)


@dataclass(frozen=True)
class TieredEdgeCloudTopology(Topology):
    """Fast 'cloud' machines behind a shared uplink, free 'edge' locally.

    The cloud tier defaults to the machine type with the lowest overall
    mean execution time (resolved deterministically from the PET at bind
    time), so the compute-vs-locality trade-off is guaranteed: the fastest
    machines are exactly the ones that charge for data movement.  Pass
    ``cloud_types`` to pin the tier explicitly.
    """

    name: str = "tiered-edge-cloud"
    bandwidth: float = 64.0
    latency: int = 2
    task_bytes: int = 0
    cloud_types: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.cloud_types is not None:
            # Normalise list/tuple input from plan files and CLI params.
            object.__setattr__(self, "cloud_types",
                               tuple(int(t) for t in self.cloud_types))

    def _resolve_cloud_types(self, pet: PETMatrix) -> Tuple[int, ...]:
        if self.cloud_types is not None:
            return self.cloud_types
        means = pet.mean_matrix().mean(axis=0)
        return (int(means.argmin()),)

    def bind(self, machines, task_types, pet) -> BoundTopology:
        cloud = set(self._resolve_cloud_types(pet))
        uplink = LinkSpec(bandwidth=self.bandwidth, latency=self.latency,
                          group="uplink")
        links = {m.id: (uplink if m.type_id in cloud else LOCAL_LINK)
                 for m in machines}
        return BoundTopology(self.name, links, task_types,
                             task_bytes=self.task_bytes)


@dataclass(frozen=True)
class CustomTopology(Topology):
    """Explicit per-machine link specs.

    ``links`` is a sequence of entries, each selecting machines either by
    id (``machines = [0, 1]``) or by machine type (``machine_types = [2]``)
    and giving the link parameters (``bandwidth``, ``latency``, ``group``).
    Unselected machines get the zero-cost local link.  Entries are applied
    in order; later entries override earlier ones.
    """

    name: str = "custom"
    links: Tuple[object, ...] = ()
    task_bytes: int = 0

    def bind(self, machines, task_types, pet) -> BoundTopology:
        resolved = {m.id: LOCAL_LINK for m in machines}
        by_type: Dict[int, List[int]] = {}
        for machine in machines:
            by_type.setdefault(machine.type_id, []).append(machine.id)
        for raw in self.links:
            entry = dict(raw) if isinstance(raw, Mapping) else dict(raw)
            spec = LinkSpec(
                bandwidth=float(entry.get("bandwidth", math.inf)),
                latency=int(entry.get("latency", 0)),
                group=entry.get("group"))
            targets: List[int] = []
            if "machines" in entry:
                targets.extend(int(i) for i in entry["machines"])
            if "machine_types" in entry:
                for type_id in entry["machine_types"]:
                    targets.extend(by_type.get(int(type_id), []))
            if not targets:
                raise ValueError("custom topology link entry selects no "
                                 "machines (use 'machines' or "
                                 "'machine_types')")
            unknown = sorted(set(targets) - set(resolved))
            if unknown:
                raise ValueError(f"custom topology link entry references "
                                 f"unknown machine id(s) {unknown}")
            for machine_id in targets:
                resolved[machine_id] = spec
        return BoundTopology(self.name, resolved, task_types,
                             task_bytes=self.task_bytes)
