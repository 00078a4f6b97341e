"""Declarative stream plans: service-mode experiments as data.

The batch side declares experiments as :class:`repro.api.plan.
ExperimentPlan` files; a :class:`StreamPlan` is the service-mode analogue.
It bundles one :class:`~repro.stream.service.StreamSpec` with the run
schedule -- the horizon to simulate to and how often to snapshot -- so a
service run is reproducible from one ``.toml``/``.json`` artifact::

    [stream]
    traffic_name = "burst"
    oversubscription = 1.55

    horizon = 50000
    snapshot_every = 10000

``repro serve --plan service.toml`` executes it; :meth:`StreamPlan.run`
does the same programmatically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional

from ..records import check_keys, check_scalar, require_mapping
from .live_metrics import WindowStats
from .service import StreamSpec, StreamingSimulation

__all__ = ["StreamPlan"]

_PLAN_KEYS = ("name", "stream", "horizon", "snapshot_every", "warmup")


@dataclass(frozen=True)
class StreamPlan:
    """One serialisable service-mode run: spec + horizon + snapshot cadence.

    Attributes
    ----------
    name:
        Plan label (used in artifact names and descriptions).
    stream:
        The full service description.
    horizon:
        Simulation time to advance the service to.
    snapshot_every:
        Snapshot interval in simulation time units (0 disables periodic
        snapshots; the run then advances in one ``run_until`` call).
    warmup:
        Warm-up horizon in simulation time units: metrics windows that
        *start* before this time are trimmed from reported timelines, so
        steady-state rates are not polluted by the empty-system transient.
        Purely presentational -- the simulation itself is unaffected (0
        disables trimming).
    """

    name: str = "service"
    stream: StreamSpec = StreamSpec()
    horizon: int = 50_000
    snapshot_every: int = 0
    warmup: int = 0

    def __post_init__(self) -> None:
        for key in ("horizon", "snapshot_every", "warmup"):
            object.__setattr__(self, key,
                               check_scalar(getattr(self, key), "int", key))
        if not self.name:
            raise ValueError("stream plan needs a name")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every cannot be negative")
        if self.warmup < 0:
            raise ValueError("warmup cannot be negative")
        if self.warmup >= self.horizon:
            raise ValueError("warmup must be below the horizon "
                             "(it would trim every window)")

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain JSON/TOML-serialisable representation.

        ``warmup`` is a conditional key (written only when non-zero), so
        every plan written before the field existed keeps its fingerprint.
        """
        payload: Dict[str, object] = {
            "name": self.name, "stream": self.stream.to_dict(),
            "horizon": self.horizon,
            "snapshot_every": self.snapshot_every}
        if self.warmup:
            payload["warmup"] = self.warmup
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "StreamPlan":
        """Rebuild a plan from :meth:`to_dict` output (strict keys)."""
        require_mapping(payload, "stream plan payload")
        check_keys(payload, _PLAN_KEYS, "StreamPlan")
        kwargs = dict(payload)
        if "stream" in kwargs:
            kwargs["stream"] = StreamSpec.from_dict(kwargs["stream"])
        return cls(**kwargs)

    def to_file(self, path: str) -> None:
        """Write the plan to ``path`` (format chosen by extension)."""
        from ..api.plan import _dumps_toml
        if str(path).endswith(".toml"):
            text = _dumps_toml(self.to_dict())
        else:
            text = json.dumps(self.to_dict(), indent=2) + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)

    @classmethod
    def from_file(cls, path: str) -> "StreamPlan":
        """Load a plan from a ``.json`` or ``.toml`` file."""
        from ..api.plan import _load_file
        return cls.from_dict(_load_file(path))

    def fingerprint(self) -> str:
        """Stable identity of the service run the plan describes."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Introspection / execution
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable one-paragraph summary."""
        spec = self.stream
        snap = (f"snapshot every {self.snapshot_every}u"
                if self.snapshot_every else "no periodic snapshots")
        warm = f", warm-up {self.warmup}u" if self.warmup else ""
        return (f"stream plan {self.name!r} (fingerprint "
                f"{self.fingerprint()})\n"
                f"  {spec.label} on {spec.scenario_name}, "
                f"{spec.oversubscription:.2f}x capacity, seed {spec.seed}\n"
                f"  horizon {self.horizon}u, metrics window "
                f"{spec.metrics_window}u (decay {spec.metrics_decay}), "
                f"{snap}{warm}")

    def checkpoints(self) -> List[int]:
        """The ``run_until`` horizons of this plan, snapshot points included."""
        if not self.snapshot_every:
            return [self.horizon]
        points = list(range(self.snapshot_every, self.horizon,
                            self.snapshot_every))
        points.append(self.horizon)
        return points

    def run(self, on_window: Optional[Callable[[WindowStats], None]] = None,
            on_snapshot: Optional[Callable[[int, Dict[str, object]], None]]
            = None) -> StreamingSimulation:
        """Execute the plan and return the advanced service.

        ``on_snapshot(t, payload)`` is invoked with the snapshot dict at
        every periodic checkpoint (not at the final horizon).
        """
        service = StreamingSimulation(self.stream, on_window=on_window)
        for point in self.checkpoints():
            service.run_until(point)
            if on_snapshot is not None and point < self.horizon:
                on_snapshot(point, service.snapshot())
        return service

    def with_stream(self, **changes: object) -> "StreamPlan":
        """Copy of the plan with fields of the stream spec replaced."""
        return replace(self, stream=replace(self.stream, **changes))

    def with_warmup(self, warmup: int) -> "StreamPlan":
        """Copy of the plan with the warm-up horizon replaced."""
        return replace(self, warmup=warmup)
