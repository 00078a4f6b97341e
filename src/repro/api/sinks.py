"""Pluggable result sinks for :meth:`repro.api.plan.ExperimentPlan.execute`.

A sink observes a plan's execution cell by cell: ``open(plan)`` before the
first trial runs, ``cell(cell, run, restored=...)`` as each grid cell's
:class:`~repro.api.results.RunResult` becomes available (restored cells of a
resumed run included), and ``close(result)`` with the final
:class:`~repro.api.results.SweepResult`.  Three implementations ship:

* :class:`MemorySink` -- collects every run in memory (useful in tests and
  notebooks);
* :class:`CallbackSink` -- invokes a callable per completed cell, which is
  how ``Simulation.sweep(on_result=...)`` streams progress through the plan
  funnel;
* :class:`JsonlSpoolSink` -- appends one JSON line per completed cell to a
  *spool* file.  The spool is the persistence layer of resumable sweeps: a
  header line pins the plan (full spec + fingerprint) and every cell line
  carries the lossless :func:`~repro.metrics.collector.trial_metrics_to_dict`
  payload of its trials, so ``ExperimentPlan.resume(spool)`` can skip
  completed cells and still hand back bit-identical metrics.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..metrics.collector import TrialMetrics, trial_metrics_to_dict

__all__ = ["ResultSink", "MemorySink", "CallbackSink", "JsonlSpoolSink",
           "SpoolError", "read_spool", "SPOOL_KIND", "SPOOL_VERSION"]

#: Marker of the spool header line (first line of every spool file).
SPOOL_KIND = "repro-plan-spool"

#: Format version written to (and required of) spool headers.
SPOOL_VERSION = 1


class SpoolError(ValueError):
    """Raised when a spool file is missing, malformed or mismatched."""


class ResultSink:
    """Observer interface of a plan execution (no-op base class)."""

    def open(self, plan: Any) -> None:
        """Called once before any cell executes."""

    def cell(self, cell: Any, run: Any, restored: bool = False) -> None:
        """Called as each cell's :class:`RunResult` becomes available.

        ``restored`` is True for cells replayed from a spool by
        ``ExperimentPlan.resume`` rather than freshly executed.
        """

    def close(self, result: Any) -> None:
        """Called once with the final :class:`SweepResult`."""


class MemorySink(ResultSink):
    """Collects every completed cell's run in memory, in completion order."""

    def __init__(self) -> None:
        self.runs: List[Any] = []
        self.restored: List[bool] = []
        self.result: Optional[Any] = None

    def cell(self, cell: Any, run: Any, restored: bool = False) -> None:
        self.runs.append(run)
        self.restored.append(restored)

    def close(self, result: Any) -> None:
        self.result = result


class CallbackSink(ResultSink):
    """Adapts a plain ``callable(run)`` into a sink (streaming progress)."""

    def __init__(self, callback: Callable[[Any], None],
                 include_restored: bool = True) -> None:
        self._callback = callback
        self._include_restored = include_restored

    def cell(self, cell: Any, run: Any, restored: bool = False) -> None:
        if restored and not self._include_restored:
            return
        self._callback(run)


class JsonlSpoolSink(ResultSink):
    """Appends one JSON line per completed cell to a resumable spool file.

    The first line of a spool is a header pinning the plan (its full
    ``to_dict`` payload plus fingerprint); each subsequent line records one
    completed cell with the lossless per-trial metric payloads.  Opening the
    sink against an existing spool checks its header against the executing
    plan (:meth:`~repro.api.plan.ExperimentPlan.verify_spool_header`) and
    then *appends*, skipping cells the spool already
    holds -- so interrupting and resuming a sweep grows one file that always
    contains each completed cell exactly once.
    """

    def __init__(self, path: str,
                 preparsed: Optional[Tuple[Dict[str, Any],
                                           Dict[int, List[Dict[str, Any]]]]]
                 = None) -> None:
        self.path = str(path)
        self._preparsed = preparsed
        self._done: set = set()
        self._handle = None

    def open(self, plan: Any) -> None:
        fresh = not (os.path.exists(self.path)
                     and os.path.getsize(self.path) > 0)
        if not fresh:
            header, cells = (self._preparsed if self._preparsed is not None
                             else read_spool(self.path))
            plan.verify_spool_header(self.path, header)
            # Only *complete* cells count as done: a short cell (fewer
            # trials than the plan demands) is re-executed by the resume
            # path, and its fresh result must overwrite the stale record
            # rather than be dropped -- otherwise the spool never converges.
            expected = getattr(plan, "trials", None)
            self._done = {index for index, trials in cells.items()
                          if expected is None or len(trials) == expected}
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            header_line = {"kind": SPOOL_KIND, "version": SPOOL_VERSION,
                           "fingerprint": plan.fingerprint(),
                           "plan": plan.to_dict()}
            self._write(header_line)

    def cell(self, cell: Any, run: Any, restored: bool = False) -> None:
        if cell.index in self._done:
            return
        self._write({
            "kind": "cell",
            "index": cell.index,
            "label": run.label,
            "trials": [trial_metrics_to_dict(t) for t in run.trials],
        })
        self._done.add(cell.index)

    def close(self, result: Any) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    def _write(self, payload: Dict[str, Any]) -> None:
        if self._handle is None:
            raise SpoolError("spool sink used before open()")
        # One line per record, flushed immediately: an interrupt can lose at
        # most the cell in flight, never corrupt completed ones.
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()


def _spool_field(record: Dict[str, Any], key: str, kind: type, noun: str,
                 where: str) -> Any:
    """``record[key]`` if it is a ``kind`` (bools are not ints), else raise."""
    if key not in record:
        raise SpoolError(f"{where} has no {key!r}")
    value = record[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SpoolError(f"{where}: {key!r} must be {noun}, got "
                         f"{type(value).__name__}")
    return value


def read_spool(path: str) -> Tuple[Dict[str, Any],
                                   Dict[int, List[Dict[str, Any]]]]:
    """Parse a spool file into (header, {cell index -> trial payloads}).

    Truncated trailing lines (an interrupt mid-write) are ignored; duplicate
    cell indices keep the last record.  Any other malformed line (an
    ill-typed trial value too) raises :class:`SpoolError` naming the line.
    """
    if not os.path.exists(path):
        raise SpoolError(f"spool file {path!r} does not exist")
    header: Optional[Dict[str, Any]] = None
    cells: Dict[int, List[Dict[str, Any]]] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if header is None:
                    raise SpoolError(
                        f"{path!r} is not a plan spool (line {lineno} is "
                        f"not JSON)") from None
                continue  # truncated trailing line from an interrupt
            where = f"spool {path!r} line {lineno}"
            if not isinstance(record, dict):
                raise SpoolError(f"{where} is a JSON "
                                 f"{type(record).__name__}, not an object")
            if header is None:
                if record.get("kind") != SPOOL_KIND:
                    raise SpoolError(
                        f"{path!r} is not a plan spool (header kind "
                        f"{record.get('kind')!r})")
                if record.get("version") != SPOOL_VERSION:
                    raise SpoolError(
                        f"spool {path!r} has version "
                        f"{record.get('version')!r}; this build reads "
                        f"version {SPOOL_VERSION}")
                _spool_field(record, "fingerprint", str, "a string", where)
                _spool_field(record, "plan", dict, "a table", where)
                header = record
            elif record.get("kind") == "cell":
                index = _spool_field(record, "index", int, "an integer",
                                     where)
                trials = _spool_field(record, "trials", list,
                                      "a list of trial objects", where)
                for i, trial in enumerate(trials):
                    if not isinstance(trial, dict):
                        raise SpoolError(
                            f"{where}: 'trials' must be a list of trial "
                            f"objects, one is {type(trial).__name__}")
                    try:
                        TrialMetrics.from_dict(trial, f"trials[{i}]")
                    except ValueError as exc:
                        raise SpoolError(f"{where}: {exc}") from None
                cells[index] = trials
    if header is None:
        raise SpoolError(f"spool {path!r} is empty")
    return header, cells
