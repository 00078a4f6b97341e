"""Completion-time propagation along a machine queue.

These functions implement Equations 1, 4 and 5 of the paper: the completion
time PMF of a pending task is obtained by convolving its execution time PMF
with the completion time PMF of the task ahead of it, *truncated at the
task's own deadline*.  The truncation encodes reactive dropping inside the
probabilistic model: in the branch where the previous task finishes after the
pending task's deadline, the pending task is (will be) reactively dropped, so
its "execution time" is zero and the completion time of the queue position
equals the completion time of the previous task.

Batched fold kernel
-------------------
:class:`ChainFolder` is the hot-loop variant of :func:`completion_pmf`: it
serves Eq. 1 folds through an **identity-keyed fold memo**, so a
``(prev, exec, deadline)`` triple seen before in the same mapping event --
the same chain tail and the same PET entry -- is answered with the
previously computed result without touching NumPy.  A memo miss performs
bit-for-bit the arithmetic of :func:`completion_pmf` (same operands, same
order), so folded chains are exactly reproducible by the naive composed
form -- the property pinned by the simulator's equivalence tests.  A
folder can be installed process-wide with :func:`active_folder`; while
installed, plain :func:`completion_pmf` calls (e.g. from dropping
policies) are routed through it.

Every fold -- mapping, tail chains and dropping alike -- prunes impulses
below one threshold, :data:`repro.core.pmf.DEFAULT_PRUNE_EPS`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .pmf import DEFAULT_PRUNE_EPS, PMF, _convolve_full

__all__ = [
    "QueueEntry",
    "ChainFolder",
    "active_folder",
    "completion_pmf",
    "batched_append_scores",
    "queue_completion_pmfs",
    "queue_completion_with_drops",
    "chance_of_success",
    "chance_upper_bound",
    "certified_mean",
    "NUMERICS_PROFILES",
    "FAST_FOLD_SUP_NORM_TOL",
]

#: Recognised numerics profiles.  ``exact`` reproduces the naive arithmetic
#: bit-for-bit; it reads the closed-form chance (:func:`chance_upper_bound`)
#: only as a certified upper bound and the closed-form mean
#: (:func:`certified_mean`) only as a certified ordering, both to skip folds
#: which cannot change a decision.  ``fast`` trades float ordering for
#: closed-form chance and mean *scores* (the batched FFT fold,
#: :meth:`ChainFolder.fold_batch`, has no caller on the simulator's paths
#: yet).
NUMERICS_PROFILES = ("exact", "fast")

#: Documented per-PMF sup-norm bound of the ``fast`` profile against
#: ``exact``: every probability of an FFT-batched fold result (and every
#: closed-form chance score) differs from the exact value by at most this
#: much.  Real-valued FFT round-trips of sub-probability operands are
#: accurate to ~1e-15 absolute per bin and the batched kernel renormalises
#: each row to the exact product mass, so the bound leaves several orders
#: of magnitude of headroom for long chains; it is pinned by the fast
#: equivalence grid in ``tests/core`` and ``tests/sim``.
FAST_FOLD_SUP_NORM_TOL = 1e-9


@dataclass(frozen=True)
class QueueEntry:
    """Scheduler view of one pending task in a machine queue.

    Attributes
    ----------
    task_id:
        Identifier of the task (opaque to the probabilistic core).
    exec_pmf:
        Execution-time PMF of the task on the machine owning the queue
        (a PET matrix entry).
    deadline:
        Absolute hard deadline of the task, in time units.
    """

    task_id: int
    exec_pmf: PMF
    deadline: int

    def __post_init__(self):
        if self.exec_pmf.is_empty:
            raise ValueError("queue entry requires a non-empty execution PMF")


def _fold(prev_completion: PMF, exec_pmf: PMF, deadline: int) -> PMF:
    """One Eq. 1 fold; the single implementation behind both public paths.

    Operand trimming, convolution, mixture addition and pruning at
    :data:`~repro.core.pmf.DEFAULT_PRUNE_EPS`; the folder memo and the
    plain :func:`completion_pmf` call both land here, so their results are
    bit-for-bit the same.
    """
    pp = prev_completion.probs
    po = prev_completion.origin
    k = int(deadline) - po
    if prev_completion.is_empty or k <= 0:
        # The predecessor can never finish before the deadline: the task is
        # certain to be reactively dropped and the chain passes through
        # unchanged.
        return prev_completion.pruned()
    if exec_pmf.is_empty:
        return prev_completion.split_at(deadline)[1].pruned()
    ep = exec_pmf.probs
    eo = exec_pmf.origin
    if k >= pp.size:
        # Everything starts on time: a plain convolution.
        conv = _convolve_full(pp, ep)
    else:
        # ``pp[:k]`` starts on time; its tail may hold interior zeros that a
        # split would have trimmed, and the convolution operand must match
        # that trimmed array exactly for bitwise reproducibility.  (``pp[0]``
        # is always nonzero -- PMFs are stored trimmed -- so the slice is
        # never all-zero.)
        on_time = pp[:k]
        if on_time[k - 1] == 0.0:
            nz = on_time.nonzero()[0]
            on_time = on_time[:int(nz[-1]) + 1]
        conv = _convolve_full(on_time, ep)
    return _mix(conv, prev_completion, eo, k)


def _mix(conv: np.ndarray, prev: PMF, exec_origin: int, k: int) -> PMF:
    """Mixture/prune stage of one Eq. 1 fold.

    ``conv`` is the *owned* on-time convolution array (``prev[:k]`` with
    the execution PMF); the reactive-drop branch ``prev[k:]`` is added at
    its own origin, mass below :data:`~repro.core.pmf.DEFAULT_PRUNE_EPS`
    is zeroed, and the result is returned as a trimmed PMF.
    """
    pp = prev.probs
    po = prev.origin
    conv_origin = po + exec_origin
    if k >= pp.size:
        out = conv
        lo = conv_origin
    else:
        drop_origin = po + k
        lo = min(conv_origin, drop_origin)
        hi = max(conv_origin + conv.size, po + pp.size)
        out = np.zeros(hi - lo, dtype=np.float64)
        out[conv_origin - lo:conv_origin - lo + conv.size] += conv
        out[drop_origin - lo:drop_origin - lo + pp.size - k] += pp[k:]
    out[out < DEFAULT_PRUNE_EPS] = 0.0
    return PMF._trusted(lo, out)


def _exec_cdf(exec_pmf: PMF) -> np.ndarray:
    """Prefix-sum CDF of ``exec_pmf``: ``cdf[j] = P(exec < origin + j)``.

    Length ``m + 1`` with ``cdf[0] == 0`` and ``cdf[m]`` the total mass.
    """
    ep = exec_pmf.probs
    cdf = np.empty(ep.size + 1, dtype=np.float64)
    cdf[0] = 0.0
    np.cumsum(ep, out=cdf[1:])
    cdf.setflags(write=False)
    return cdf


def _exec_moments(exec_pmf: PMF) -> Tuple[float, float]:
    """``(total mass, first moment)`` of ``exec_pmf`` (absolute times)."""
    ep = exec_pmf.probs
    mass = float(ep.sum())
    moment = float(exec_pmf.origin * mass
                   + np.dot(np.arange(ep.size, dtype=np.float64), ep))
    return mass, moment


def _chance_bound(prev: PMF, exec_pmf: PMF, deadline: int,
                  exec_cdf: Callable[[PMF], np.ndarray]) -> float:
    """:func:`chance_upper_bound` with the execution CDF from ``exec_cdf``."""
    if prev.is_empty or exec_pmf.is_empty:
        return 0.0
    po = prev.origin
    k = deadline - po
    if k <= 0:
        return 0.0
    pp = prev.probs
    if k > pp.size:
        k = pp.size
    cdf = exec_cdf(exec_pmf)
    idx = (deadline - po - exec_pmf.origin) - np.arange(k)
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, cdf.size - 1, out=idx)
    return float(np.dot(pp[:k], cdf[idx]))


def _memo_deadline(prev: PMF, deadline: int) -> int:
    """Memo key deadline of a fold onto ``prev``.

    The fold only reads the deadline through ``k = deadline - origin``
    clamped to the predecessor's support: every deadline at or beyond the
    support end produces the *same* plain convolution, and every deadline
    at or before the origin the same pass-through.  Clamping the memo key
    unifies those entries, so e.g. same-type candidates whose (distinct)
    deadlines all clear the queue tail share one memoised fold.
    """
    if prev.is_empty:
        return 0
    origin = prev.origin
    if deadline <= origin:
        return origin
    return min(deadline, origin + prev.probs.size)


class ChainFolder:
    """Batched Eq. 1 fold kernel with identity memos scoped to one event.

    One folder serves one simulation run.  The memo maps ``(id(prev),
    id(exec), deadline)`` to the fold result; entries keep strong
    references to their key PMFs so the ids stay valid, and the ``is``
    re-check on every hit makes a stale-id collision impossible.
    Within a mapping event the simulator's caches hand the same tail PMF
    objects back and PET entries are shared objects, so repeated folds --
    machines of the same type evaluating the same candidate task, score
    columns whose deadlines clamp to one key -- collapse into dictionary
    hits.

    The memos live for one mapping event: :meth:`start_event` empties every
    table that holds chain PMFs, so no PMF outlives its event through the
    folder.  Reuse across events is the per-machine tail cache's job (one
    Eq. 1 chain per machine, shared with the dropping policy).  Only the
    tables keyed on PET entries (execution CDFs, moments and rFFT images)
    persist; they are bounded by the PET's size.

    ``numerics`` selects the score-plane arithmetic profile.  Under the
    default ``"exact"`` every fold is bit-identical to the naive composed
    form.  Under ``"fast"`` the scoring entry points gain two
    float-order-breaking backends -- :meth:`append_chance` (the closed-form
    :func:`chance_upper_bound`, used as the score itself rather than as a
    bound) and :meth:`fold_batch` (same-plan Eq. 1 folds through one
    batched real FFT) -- both bounded against exact by
    :data:`FAST_FOLD_SUP_NORM_TOL`.  :meth:`fold` itself always stays
    exact, so committed queue tails are unchanged; only scores consumed by
    mapping selection use the fast paths.
    """

    __slots__ = ("memo_hits", "numerics",
                 "_memo", "_chance_memo", "_mean_memo",
                 "_cdf", "_rfft", "_append_chance_memo", "_fft_memo",
                 "_moments", "_prev_cums", "_append_mean_memo")

    def __init__(self, *, numerics: str = "exact"):
        if numerics not in NUMERICS_PROFILES:
            raise ValueError(f"unknown numerics profile {numerics!r}; "
                             f"expected one of {NUMERICS_PROFILES}")
        self.numerics = numerics
        self.memo_hits = 0
        self._memo: Dict[Tuple[int, int, int], Tuple[PMF, PMF, PMF]] = {}
        #: (id(pmf), deadline) -> (pmf, mass_before(deadline)); chain PMFs
        #: come back from the fold memo as the same objects, so a chain
        #: read by several callers within one event asks for the same
        #: chances again.
        self._chance_memo: Dict[Tuple[int, int], Tuple[PMF, float]] = {}
        #: id(pmf) -> (pmf, mean); the mapping score plane asks for the
        #: expected completion of the same (memoised, identity-stable)
        #: appended PMFs over and over across machines and rounds.
        self._mean_memo: Dict[int, Tuple[PMF, float]] = {}
        #: id(exec_pmf) -> (exec_pmf, prefix-sum CDF); ``cdf[j]`` is the mass
        #: of ``exec_pmf`` strictly below ``origin + j`` (length m+1, with
        #: ``cdf[0] == 0``).  Execution PMFs are shared PET entries, so one
        #: prefix sum per (task type, machine type) pair serves every
        #: closed-form chance query of the run.
        self._cdf: Dict[int, Tuple[PMF, np.ndarray]] = {}
        #: (id(exec_pmf), plan length) -> (exec_pmf, rfft); the frequency-
        #: domain image of an execution PMF under a given padded FFT plan.
        self._rfft: Dict[Tuple[int, int], Tuple[PMF, np.ndarray]] = {}
        #: (id(prev), id(exec), deadline) -> (prev, exec, chance); the
        #: closed-form counterpart of ``_chance_memo`` for appended scores.
        self._append_chance_memo: Dict[Tuple[int, int, int],
                                       Tuple[PMF, PMF, float]] = {}
        #: FFT-batched fold results, keyed like ``_memo`` but kept separate
        #: so the exact fold memo never serves FFT-rounded values (the
        #: commit path must stay bit-identical to naive even under the
        #: ``fast`` profile).
        self._fft_memo: Dict[Tuple[int, int, int], Tuple[PMF, PMF, PMF]] = {}
        #: id(exec_pmf) -> (exec_pmf, total mass, first moment); per-exec
        #: scalars of the closed-form mean.
        self._moments: Dict[int, Tuple[PMF, float, float]] = {}
        #: id(prev) -> (prev, prefix masses, prefix first moments); both
        #: arrays length n+1, so a deadline split of ``prev`` costs one
        #: index each.
        self._prev_cums: Dict[int, Tuple[PMF, np.ndarray, np.ndarray]] = {}
        #: (id(prev), id(exec), deadline) -> (prev, exec, mean); the
        #: closed-form counterpart of ``_mean_memo`` for appended scores.
        self._append_mean_memo: Dict[Tuple[int, int, int],
                                     Tuple[PMF, PMF, float]] = {}

    # ------------------------------------------------------------------
    def start_event(self) -> None:
        """Forget every chain PMF: a new mapping event begins.

        Empties the tables that hold chain or appended PMFs (the fold,
        chance and mean memos, their closed-form and FFT counterparts and
        the per-tail prefix sums).  The tables keyed on PET entries stay.
        Results never depend on the memos, only the number of real folds.
        """
        self._memo.clear()
        self._chance_memo.clear()
        self._mean_memo.clear()
        self._append_chance_memo.clear()
        self._append_mean_memo.clear()
        self._prev_cums.clear()
        self._fft_memo.clear()

    def fold(self, prev: PMF, exec_pmf: PMF, deadline: int) -> PMF:
        """Memoised equivalent of :func:`completion_pmf`."""
        deadline = int(deadline)
        key = (id(prev), id(exec_pmf), _memo_deadline(prev, deadline))  # repro: allow[id-keyed-state] hit re-checks identity, so address reuse misses
        hit = self._memo.get(key)
        if hit is not None and hit[0] is prev and hit[1] is exec_pmf:
            self.memo_hits += 1
            return hit[2]
        result = _fold(prev, exec_pmf, deadline)
        self._memo[key] = (prev, exec_pmf, result)
        return result

    def chance(self, pmf: PMF, deadline: int) -> float:
        """Memoised ``pmf.mass_before(deadline)`` (Eq. 2) for stable PMFs."""
        key = (id(pmf), deadline)  # repro: allow[id-keyed-state] hit re-checks identity, so address reuse misses
        hit = self._chance_memo.get(key)
        if hit is not None and hit[0] is pmf:
            return hit[1]
        value = pmf.mass_before(deadline)
        self._chance_memo[key] = (pmf, value)
        return value

    def mean(self, pmf: PMF) -> float:
        """Memoised ``pmf.mean()`` for identity-stable chain PMFs."""
        key = id(pmf)  # repro: allow[id-keyed-state] hit re-checks identity, so address reuse misses
        hit = self._mean_memo.get(key)
        if hit is not None and hit[0] is pmf:
            return hit[1]
        value = pmf.mean()
        self._mean_memo[key] = (pmf, value)
        return value

    # ------------------------------------------------------------------
    # Fast-numerics backend (``numerics="fast"``)
    # ------------------------------------------------------------------
    def _exec_cdf(self, exec_pmf: PMF) -> np.ndarray:
        """Prefix-sum CDF of ``exec_pmf``: ``cdf[j] = P(exec < origin + j)``.

        Length ``m + 1`` with ``cdf[0] == 0`` and ``cdf[m]`` the total mass;
        cached by identity -- execution PMFs are shared PET entries, so one
        prefix sum per (task type, machine type) pair serves every
        closed-form chance query of the run.
        """
        key = id(exec_pmf)  # repro: allow[id-keyed-state] hit re-checks identity, so address reuse misses
        hit = self._cdf.get(key)
        if hit is not None and hit[0] is exec_pmf:
            return hit[1]
        cdf = _exec_cdf(exec_pmf)
        self._cdf[key] = (exec_pmf, cdf)
        return cdf

    def append_chance(self, prev: PMF, exec_pmf: PMF, deadline: int) -> float:
        """Memoised :func:`chance_upper_bound` (the fast profile's chance).

        The closed form equals ``fold(prev, exec, d).mass_before(d)`` up to
        the pruning it skips and the float summation order, within
        :data:`FAST_FOLD_SUP_NORM_TOL`, so the ``fast`` profile scores
        mapping with it directly.  The execution CDF comes from this
        folder's cache.
        """
        deadline = int(deadline)
        key = (id(prev), id(exec_pmf), deadline)  # repro: allow[id-keyed-state] hit re-checks identity, so address reuse misses
        hit = self._append_chance_memo.get(key)
        if hit is not None and hit[0] is prev and hit[1] is exec_pmf:
            return hit[2]
        value = _chance_bound(prev, exec_pmf, deadline, self._exec_cdf)
        self._append_chance_memo[key] = (prev, exec_pmf, value)
        return value

    def _exec_moments(self, exec_pmf: PMF) -> Tuple[float, float]:
        """``(total mass, first moment)`` of ``exec_pmf``, cached by identity."""
        key = id(exec_pmf)  # repro: allow[id-keyed-state] hit re-checks identity, so address reuse misses
        hit = self._moments.get(key)
        if hit is not None and hit[0] is exec_pmf:
            return hit[1], hit[2]
        mass, moment = _exec_moments(exec_pmf)
        self._moments[key] = (exec_pmf, mass, moment)
        return mass, moment

    def _prev_prefix(self, prev: PMF) -> Tuple[np.ndarray, np.ndarray]:
        """Prefix masses and first moments of ``prev``, cached by identity.

        ``masses[k]`` is the mass of ``prev.probs[:k]``; ``moments[k]`` the
        first moment (absolute times) of that slice.  One pair of cumsums
        per tail PMF turns every deadline split of the closed-form mean
        into two index reads.
        """
        key = id(prev)  # repro: allow[id-keyed-state] hit re-checks identity, so address reuse misses
        hit = self._prev_cums.get(key)
        if hit is not None and hit[0] is prev:
            return hit[1], hit[2]
        pp = prev.probs
        masses = np.empty(pp.size + 1, dtype=np.float64)
        masses[0] = 0.0
        np.cumsum(pp, out=masses[1:])
        times = prev.origin + np.arange(pp.size, dtype=np.float64)
        moments = np.empty(pp.size + 1, dtype=np.float64)
        moments[0] = 0.0
        np.cumsum(times * pp, out=moments[1:])
        masses.setflags(write=False)
        moments.setflags(write=False)
        self._prev_cums[key] = (prev, masses, moments)
        return masses, moments

    def append_mean(self, prev: PMF, exec_pmf: PMF, deadline: int) -> float:
        """Closed-form expected completion of one Eq. 1 append (fast profile).

        Equals ``fold(prev, exec, d).mean()`` without materialising the
        convolution: the first moment of a convolution is
        ``S_a * M_e + M_a * S_e`` (mass/moment of the on-time slice times
        mass/moment of the execution PMF), and the reactive-drop branch
        keeps its original times, so its moment is the complementary
        prefix-sum tail.  Differs from the exact value only by the skipped
        pruning and float summation order, within
        :data:`FAST_FOLD_SUP_NORM_TOL` per bin.

        Raises ``ValueError`` on an empty result, exactly like
        :meth:`PMF.mean` on the exact fold.
        """
        deadline = int(deadline)
        key = (id(prev), id(exec_pmf), deadline)  # repro: allow[id-keyed-state] hit re-checks identity, so address reuse misses
        hit = self._append_mean_memo.get(key)
        if hit is not None and hit[0] is prev and hit[1] is exec_pmf:
            return hit[2]
        if prev.is_empty:
            raise ValueError("mean of an empty PMF is undefined")
        pp = prev.probs
        k = deadline - prev.origin
        if k <= 0:
            # Nothing fits before the deadline: the fold degenerates to
            # ``prev`` itself (everything re-queues behind the drop branch).
            return self.mean(prev)
        if k > pp.size:
            k = pp.size
        masses, moments = self._prev_prefix(prev)
        on_mass = float(masses[k])
        on_moment = float(moments[k])
        drop_mass = float(masses[-1]) - on_mass
        drop_moment = float(moments[-1]) - on_moment
        if exec_pmf.is_empty:
            total_mass = drop_mass
            total_moment = drop_moment
        else:
            e_mass, e_moment = self._exec_moments(exec_pmf)
            total_mass = on_mass * e_mass + drop_mass
            total_moment = (on_moment * e_mass + on_mass * e_moment
                            + drop_moment)
        if total_mass <= 0.0:
            raise ValueError("mean of an empty PMF is undefined")
        value = total_moment / total_mass
        self._append_mean_memo[key] = (prev, exec_pmf, value)
        return value

    def _exec_rfft(self, exec_pmf: PMF, plan: int) -> np.ndarray:
        """``rfft`` of ``exec_pmf`` zero-padded to ``plan``, cached by identity."""
        key = (id(exec_pmf), plan)  # repro: allow[id-keyed-state] hit re-checks identity, so address reuse misses
        hit = self._rfft.get(key)
        if hit is not None and hit[0] is exec_pmf:
            return hit[1]
        spec = np.fft.rfft(exec_pmf.probs, n=plan)
        self._rfft[key] = (exec_pmf, spec)
        return spec

    def fold_batch(self, prev: PMF, exec_pmfs: Sequence[PMF],
                   deadlines: Sequence[int]) -> List[PMF]:
        """Fold a stack of candidates onto one tail through one FFT plan.

        The ``fast`` counterpart of calling :meth:`fold` per candidate:
        memo hits and degenerate folds (pass-throughs, empty or single-bin
        operands) are answered exactly, and the remaining Eq. 1
        convolutions are grouped into one batched real FFT -- every
        on-time slice zero-padded to a shared power-of-two plan, multiplied
        by the cached frequency-domain image of its execution PMF, and
        inverted in a single ``irfft``.  Each row is then clamped
        non-negative, renormalised to the exact product mass of its
        operands, mixed with its reactive-drop branch and pruned, mirroring
        the exact kernel's mixture stage.  Results differ from :meth:`fold`
        by at most :data:`FAST_FOLD_SUP_NORM_TOL` per probability and are
        memoised separately (``_fft_memo``) so the exact fold memo never
        serves FFT-rounded values.
        """
        n = len(exec_pmfs)
        results: List[PMF] = [None] * n  # type: ignore[list-item]
        pp = prev.probs
        po = prev.origin
        pending: List[Tuple[int, Tuple[int, int, int], PMF, int]] = []
        for i in range(n):
            deadline = int(deadlines[i])
            ep_pmf = exec_pmfs[i]
            key = (id(prev), id(ep_pmf), _memo_deadline(prev, deadline))  # repro: allow[id-keyed-state] hit re-checks identity, so address reuse misses
            hit = self._fft_memo.get(key)
            if hit is not None and hit[0] is prev and hit[1] is ep_pmf:
                self.memo_hits += 1
                results[i] = hit[2]
                continue
            pending.append((i, key, ep_pmf, deadline))
        if not pending:
            return results
        batch: List[Tuple[int, Tuple[int, int, int], PMF, int,
                          np.ndarray, int]] = []
        plan_len = 0
        for i, key, ep_pmf, deadline in pending:
            k = deadline - po
            if prev.is_empty or k <= 0:
                result = prev.pruned()
            elif ep_pmf.is_empty:
                result = prev.split_at(deadline)[1].pruned()
            else:
                on_time = pp[:k] if k < pp.size else pp
                if on_time[-1] == 0.0:
                    nz = on_time.nonzero()[0]
                    on_time = on_time[:int(nz[-1]) + 1]
                ep = ep_pmf.probs
                if ep.size == 1 or on_time.size == 1:
                    # Degenerate single-bin operand: the convolution is a
                    # scaled copy, computed exactly (bit-identical to the
                    # exact kernel's elementwise multiply).
                    conv = on_time * ep[0] if ep.size == 1 else ep * on_time[0]
                    result = _mix(conv, prev, ep_pmf.origin, k)
                else:
                    conv_len = on_time.size + ep.size - 1
                    if conv_len > plan_len:
                        plan_len = conv_len
                    batch.append((i, key, ep_pmf, k, on_time, conv_len))
                    continue
            results[i] = result
            self._fft_memo[key] = (prev, ep_pmf, result)
        if batch:
            plan = 1 << (plan_len - 1).bit_length()
            rows = np.zeros((len(batch), plan), dtype=np.float64)
            e_masses = np.empty(len(batch), dtype=np.float64)
            for r, (_, _, ep_pmf, _, on_time, _) in enumerate(batch):
                rows[r, :on_time.size] = on_time
                e_masses[r] = ep_pmf.total_mass
            on_masses = rows.sum(axis=1)
            freq = np.fft.rfft(rows, axis=1)
            for r, (_, _, ep_pmf, _, _, _) in enumerate(batch):
                freq[r] *= self._exec_rfft(ep_pmf, plan)
            time_rows = np.fft.irfft(freq, n=plan, axis=1)
            # Clamp, measure and renormalise the whole batch in matrix ops;
            # the padded region past each row's ``conv_len`` holds only
            # clamped round-trip ringing (~1e-17 per bin), so including it
            # in the row mass stays well inside the documented tolerance.
            np.maximum(time_rows, 0.0, out=time_rows)
            masses = time_rows.sum(axis=1)
            targets = on_masses * e_masses
            scales = np.ones(len(batch), dtype=np.float64)
            ok = (masses > 0.0) & (targets > 0.0)
            scales[ok] = targets[ok] / masses[ok]
            time_rows *= scales[:, None]
            for r, (i, key, ep_pmf, k, on_time, conv_len) in enumerate(batch):
                conv = time_rows[r, :conv_len].copy()
                result = _mix(conv, prev, ep_pmf.origin, k)
                results[i] = result
                self._fft_memo[key] = (prev, ep_pmf, result)
        return results


#: Folder that plain ``completion_pmf`` calls are currently routed through.
_ACTIVE_FOLDER: Optional[ChainFolder] = None


@contextmanager
def active_folder(folder: Optional[ChainFolder]):
    """Route :func:`completion_pmf` through ``folder`` inside the block.

    The simulator installs its per-run folder around the event loop so that
    fold calls made by code that only sees the public function -- dropping
    policies in particular -- share the run's fold memo.  Passing ``None``
    explicitly shields the block from any outer folder (used by the naive
    benchmarking path).
    """
    global _ACTIVE_FOLDER
    outer = _ACTIVE_FOLDER
    _ACTIVE_FOLDER = folder
    try:
        yield folder
    finally:
        _ACTIVE_FOLDER = outer


def completion_pmf(prev_completion: PMF, exec_pmf: PMF, deadline: int) -> PMF:
    """Completion-time PMF of a task queued behind ``prev_completion``.

    Implements Eq. 1 (and its provisional-dropping variants Eq. 4/5): the
    portion of ``prev_completion`` that falls strictly before ``deadline``
    lets the task start, so it is convolved with ``exec_pmf``; the portion at
    or after ``deadline`` corresponds to the task being reactively dropped,
    so it is passed through unchanged.

    Parameters
    ----------
    prev_completion:
        Completion-time PMF of the task (or machine availability) directly
        ahead in the queue.  May be a sub-probability PMF.
    exec_pmf:
        Execution-time PMF of the task being evaluated.
    deadline:
        Absolute deadline ``δ_i`` of the task being evaluated.

    Notes
    -----
    This is the innermost loop of the whole simulator (it runs once per
    pending task per scheduler view), so the split/convolve/mixture/prune
    pipeline is fused into a single output buffer instead of chaining the
    four equivalent :class:`PMF` operations.  Impulses below
    :data:`~repro.core.pmf.DEFAULT_PRUNE_EPS` are discarded to bound the
    support growth of chained convolutions.  When a :class:`ChainFolder` is
    installed via :func:`active_folder`, the call is served through its
    fold memo; either way the result is bit-identical to the composed form.
    """
    folder = _ACTIVE_FOLDER
    if folder is not None:
        return folder.fold(prev_completion, exec_pmf, deadline)
    return _fold(prev_completion, exec_pmf, int(deadline))


def batched_append_scores(prev: PMF, exec_pmfs: Sequence[PMF],
                          deadlines: Sequence[int],
                          folder: Optional[ChainFolder] = None,
                          want_mean: bool = True,
                          want_chance: bool = False,
                          want_pmfs: bool = False,
                          ) -> Tuple[List[PMF], Optional[np.ndarray],
                                     Optional[np.ndarray]]:
    """Fold a *stack* of candidates onto one tail and score each of them.

    This is the score-plane kernel behind the vectorised mapping backend
    (:mod:`repro.mapping.kernel`): one call evaluates a whole column of the
    (task x machine) plane -- every candidate task appended to the same
    machine tail -- and writes the requested scalar scores straight into
    NumPy arrays, with none of the per-pair tuple/closure overhead of the
    per-call path.

    Each element performs exactly the arithmetic of
    :func:`completion_pmf` followed by :meth:`PMF.mean` /
    :meth:`PMF.mass_before`, in the same order, so every returned score is
    bit-identical to what the scalar path computes for the same pair.  With
    ``folder`` the folds share the run's fold memo.

    Returns ``(pmfs, means, chances)``; ``means`` / ``chances`` are ``None``
    unless requested.

    Under a ``numerics="fast"`` folder the column is served by the fast
    backend instead: chances come from the closed-form
    :meth:`ChainFolder.append_chance` dot product and means from the
    closed-form :meth:`ChainFolder.append_mean` moment algebra -- no
    convolution at all.  Callers that need the appended *distributions*
    (not just scalar scores) pass ``want_pmfs=True`` and receive the
    column through the batched FFT kernel :meth:`ChainFolder.fold_batch`;
    otherwise the returned list holds ``None`` entries.  Callers that need
    the committed PMF go through the exact fold instead (see
    :meth:`repro.mapping.base.MappingContext.completion_if_appended`), so
    fast scores never leak into the simulated trajectory.  ``want_pmfs``
    has no effect on the exact path, which always folds (and returns) the
    column.
    """
    n = len(exec_pmfs)
    if folder is not None and folder.numerics == "fast":
        chances = None
        if want_chance:
            chances = np.empty(n, dtype=np.float64)
            for i in range(n):
                chances[i] = folder.append_chance(prev, exec_pmfs[i],
                                                  int(deadlines[i]))
        means = None
        if want_mean:
            means = np.empty(n, dtype=np.float64)
            for i in range(n):
                means[i] = folder.append_mean(prev, exec_pmfs[i],
                                              int(deadlines[i]))
        if want_pmfs:
            return folder.fold_batch(prev, exec_pmfs, deadlines), \
                means, chances
        return [None] * n, means, chances  # type: ignore[list-item]
    pmfs: List[PMF] = [None] * n  # type: ignore[list-item]
    means = np.empty(n, dtype=np.float64) if want_mean else None
    chances = np.empty(n, dtype=np.float64) if want_chance else None
    for i in range(n):
        deadline = int(deadlines[i])
        if folder is not None:
            pmf = folder.fold(prev, exec_pmfs[i], deadline)
        else:
            pmf = _fold(prev, exec_pmfs[i], deadline)
        pmfs[i] = pmf
        if means is not None:
            means[i] = (folder.mean(pmf) if folder is not None
                        else pmf.mean())
        if chances is not None:
            chances[i] = (folder.chance(pmf, deadline) if folder is not None
                          else pmf.mass_before(deadline))
    return pmfs, means, chances


def chance_upper_bound(prev: PMF, exec_pmf: PMF, deadline: int) -> float:
    """Closed-form ``P(prev + E < deadline)``: Eq. 2 of one Eq. 1 append.

    The reactive-drop branch of Eq. 1 lies at or after the deadline, so
    only the on-time part of ``prev`` can finish in time; its mass strictly
    before ``d`` is the dot product of the on-time slice of ``prev`` with
    the execution CDF at ``d - t`` (an index gather into the prefix sum,
    clamped at the support ends).  No convolution is materialised.

    It bounds chances of success from above.  Mathematically it equals
    ``fold(prev, exec, d).mass_before(d)`` before pruning; pruning only
    removes mass, and summation order moves the two by far less than
    :data:`FAST_FOLD_SUP_NORM_TOL`.  A chain folded onto any PMF whose mass
    lies at or after ``prev``'s (every later queue position behind
    ``prev``) has an even smaller chance, because each fold moves mass
    later or leaves it in place.  ``docs/INVARIANTS.md`` gives the proof;
    the dropping heuristic and PAM's phase 1 skip folds with it.

    The execution CDF is read from the installed folder's cache when one
    is active and computed on the spot otherwise; the value is the same.
    """
    folder = _ACTIVE_FOLDER
    return _chance_bound(prev, exec_pmf, int(deadline),
                         _exec_cdf if folder is None else folder._exec_cdf)


#: Machine epsilon and smallest normal float64, the float terms of
#: :func:`certified_mean`'s slack.
_ULP = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


#: Rows ``1`` and ``t`` for ``t = 0, 1, ...``: one dot product with a
#: slice of it gives the slice's mass and first moment.  Longer tails
#: build their own.
_WEIGHTS = np.stack([np.ones(1024), np.arange(1024, dtype=np.float64)])
_WEIGHTS.setflags(write=False)


def certified_mean(prev: PMF, exec_pmf: PMF,
                   deadline: int) -> Tuple[float, float]:
    """Closed-form expected completion of one Eq. 1 append, with its slack.

    Returns ``(closed, slack)`` such that the exact
    ``fold(prev, exec, d).mean()`` lies within ``slack`` of ``closed``.
    ``closed`` is the moment algebra of :meth:`ChainFolder.append_mean`
    (the on-time slice's mass and moment combined with the execution
    PMF's, plus the drop branch's), computed from slice reductions.  The
    slack covers the pruning the closed form skips (at most ``nbins *
    DEFAULT_PRUNE_EPS`` of mass, which moves the mean by at most that
    mass times the support span over the remaining mass) and float
    rounding (support length times ulp times the latest time).  It is
    ``inf`` when the remaining mass does not clearly exceed the pruned
    mass bound, which covers every fold whose exact mean raises
    ``ValueError``.  ``docs/INVARIANTS.md`` gives the derivation; the
    loop backend's expected-completion machine choice (MM, MSD and the
    ordered heuristics) skips folds with it.

    The execution moments are read from the installed folder's cache when
    one is active and computed on the spot otherwise; the value is the
    same.
    """
    if prev.is_empty:
        return 0.0, float("inf")
    pp = prev.probs
    po = prev.origin
    n = pp.size
    k = min(max(int(deadline) - po, 0), n)
    # Mass and moment (times relative to ``po``) of each slice in one
    # reduction; no prefix sum is built per tail.
    weights = (_WEIGHTS[:, :n] if n <= _WEIGHTS.shape[1]
               else np.stack([np.ones(n), np.arange(n, dtype=np.float64)]))
    mass, moment = np.dot(weights[:, k:], pp[k:]).tolist()
    lo, hi = po + k, po + n - 1
    m = 0
    if k > 0 and not exec_pmf.is_empty:
        on_mass, on_moment = np.dot(weights[:, :k], pp[:k]).tolist()
        folder = _ACTIVE_FOLDER
        e_mass, e_moment = (_exec_moments(exec_pmf) if folder is None
                            else folder._exec_moments(exec_pmf))
        mass += on_mass * e_mass
        moment += on_moment * e_mass + on_mass * e_moment
        eo = exec_pmf.origin
        m = exec_pmf.probs.size
        conv_hi = po + k - 1 + eo + m - 1
        lo, hi = ((po + eo, conv_hi) if k == n
                  else (min(lo, po + eo), max(hi, conv_hi)))
    if not mass > 0.0:
        return 0.0, float("inf")
    closed = po + moment / mass
    nbins = hi - lo + 1
    removed = nbins * DEFAULT_PRUNE_EPS
    terms = nbins + n + m
    remaining = mass * (1.0 - terms * _ULP) - removed
    if not remaining > removed:
        return closed, float("inf")
    latest = max(abs(lo), abs(hi), 1)
    slack = (removed * (hi - lo) / remaining
             + 16.0 * terms * latest * (_ULP + _TINY / remaining))
    return closed, slack


def chance_of_success(completion: PMF, deadline: int) -> float:
    """Probability that a task completes strictly before its deadline (Eq. 2).

    Served from the installed :class:`ChainFolder`'s memo when one is
    active: chain PMFs are identity-stable (memoised folds and the shared
    tail chain return the same objects), so the repeated queries issued
    for one queue within a mapping event collapse into dictionary hits.
    """
    folder = _ACTIVE_FOLDER
    if folder is not None:
        return folder.chance(completion, int(deadline))
    return completion.mass_before(deadline)


def queue_completion_pmfs(base: PMF, entries: Sequence[QueueEntry]) -> List[PMF]:
    """Completion-time PMFs of every pending task in a machine queue.

    Parameters
    ----------
    base:
        Completion-time PMF of whatever is ahead of the first pending task:
        the currently running task's (conditioned) completion PMF, or a delta
        at the current time for an idle machine.
    entries:
        Pending tasks in queue order (head first).

    Returns
    -------
    list of PMF
        ``result[k]`` is the completion-time PMF of ``entries[k]``.
    """
    result: List[PMF] = []
    prev = base
    for entry in entries:
        prev = completion_pmf(prev, entry.exec_pmf, entry.deadline)
        result.append(prev)
    return result


def queue_completion_with_drops(base: PMF, entries: Sequence[QueueEntry],
                                dropped: Sequence[int]) -> List[Optional[PMF]]:
    """Completion PMFs when a subset of queue positions is provisionally dropped.

    Dropped positions contribute nothing to the chain (their execution time
    vanishes entirely, Eq. 4) and their slot in the returned list is ``None``.

    Parameters
    ----------
    base:
        Completion-time PMF ahead of the first pending task.
    entries:
        Pending tasks in queue order.
    dropped:
        Indices (into ``entries``) of tasks that are provisionally dropped.
    """
    dropped_set = set(int(i) for i in dropped)
    for i in sorted(dropped_set):
        if i < 0 or i >= len(entries):
            raise IndexError(f"drop index {i} out of range for queue of "
                             f"length {len(entries)}")
    result: List[Optional[PMF]] = []
    prev = base
    for idx, entry in enumerate(entries):
        if idx in dropped_set:
            result.append(None)
            continue
        prev = completion_pmf(prev, entry.exec_pmf, entry.deadline)
        result.append(prev)
    return result
