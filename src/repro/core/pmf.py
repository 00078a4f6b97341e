"""Discrete probability mass functions over integer time.

The paper models the execution time of each task type on each machine type as
a discrete random variable whose distribution is a Probability Mass Function
(PMF).  All of the probabilistic machinery of the dropping mechanism --
completion-time chaining (Eq. 1), chance of success (Eq. 2), instantaneous
robustness (Eq. 3) -- is built on a handful of PMF operations:

* convolution (sum of independent random variables),
* splitting a PMF at a deadline (the branch where a task starts on time
  versus the branch where it is reactively dropped),
* mixture addition (recombining those branches),
* mass queries (``P(X < t)``), and
* conditioning (the scheduler's view of a task that is already running).

This module implements a small, NumPy-backed PMF type optimised for those
operations.  Time is an integer number of *time units* (milliseconds
throughout the repository).  A :class:`PMF` may carry total mass below one;
such *sub-probability* PMFs arise naturally when a distribution is split at a
deadline and are recombined with :meth:`PMF.add`.

The representation is dense: ``probs[k]`` is the probability of the value
``origin + k``.  Dense storage makes convolution a single call into numpy's
correlate kernel (``_convolve_full``, bit-identical to ``np.convolve`` minus
the Python wrapper), which is the hot path of the whole simulator.

Identity and equality
---------------------
Instances are immutable, so the simulator's incremental caches can reuse a
PMF by reference.  :meth:`PMF.identical` is the exact gate those caches use:
a pointer comparison when the same instance comes back (the common case --
cached chain tails are handed out again as-is), and a bitwise array
comparison otherwise.  Identity-keyed memos (the fold kernel in
:mod:`repro.core.completion`) hold strong references to their key PMFs and
re-check identity on every hit, so an ``id`` is never reused while its entry
lives.  The zero-mass PMF is a unique singleton, :data:`EMPTY_PMF`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["PMF", "EMPTY_PMF"]

try:  # pragma: no cover - import resolution depends on the numpy major
    from numpy._core.multiarray import correlate as _correlate  # numpy >= 2
except ImportError:  # pragma: no cover
    try:
        from numpy.core.multiarray import correlate as _correlate  # numpy 1.x
    except ImportError:
        _correlate = None

#: ``multiarray.correlate`` integer code for the 'full' convolution mode.
_FULL_MODE = 2


def _convolve_full(a: np.ndarray, ep: np.ndarray) -> np.ndarray:
    """Exactly ``np.convolve(a, ep)`` minus the Python wrapper overhead.

    ``np.convolve`` swaps its operands so the longer one comes first, then
    calls ``multiarray.correlate(long, short[::-1], 'full')``; this helper
    makes the same call, bit-for-bit, without the wrapper's argument
    checks.
    """
    if _correlate is None:  # pragma: no cover - ancient numpy fallback
        return np.convolve(a, ep)
    if ep.size > a.size:
        return _correlate(ep, a[::-1], _FULL_MODE)
    return _correlate(a, ep[::-1], _FULL_MODE)

#: Probability mass below this value is discarded by :meth:`PMF.pruned` and
#: by every Eq. 1 fold (:mod:`repro.core.completion`).
DEFAULT_PRUNE_EPS = 1e-12

#: Shared storage of every zero-mass PMF built through the fast path.
_EMPTY_PROBS = np.empty(0, dtype=np.float64)
_EMPTY_PROBS.setflags(write=False)

#: Tolerance used when checking that a PMF is (sub-)normalised.
MASS_TOLERANCE = 1e-6

#: The unique zero-mass PMF; created lazily by the first empty construction
#: and exposed as :data:`EMPTY_PMF` at the bottom of the module.
_EMPTY: Optional["PMF"] = None


class PMF:
    """A (sub-)probability mass function over the integers.

    Parameters
    ----------
    origin:
        Integer time value of the first entry of ``probs``.
    probs:
        Non-negative probabilities; ``probs[k]`` is the probability of the
        value ``origin + k``.  The array is copied, trimmed of leading and
        trailing zeros and validated.

    Notes
    -----
    Instances are immutable, so operations may share storage and return
    an operand unchanged.  Every zero-mass result is the unique
    :data:`EMPTY_PMF` singleton, which behaves as the additive identity of
    :meth:`add`.
    """

    __slots__ = ("_origin", "_probs")

    def __new__(cls, origin: int = 0, probs: Iterable[float] = ()):
        if isinstance(probs, np.ndarray) or isinstance(probs, (list, tuple)):
            arr = np.asarray(probs, dtype=np.float64)
        else:
            # Generic iterables (generators, maps) stream straight into a
            # float64 buffer instead of round-tripping through a list.
            arr = np.fromiter(probs, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("probs must be one-dimensional")
        if arr.size and np.any(arr < -1e-15):
            raise ValueError("probabilities must be non-negative")
        arr = np.clip(arr, 0.0, None)
        total = float(arr.sum())
        if total > 1.0 + MASS_TOLERANCE:
            raise ValueError(f"total probability mass {total} exceeds 1")
        origin = int(origin)
        # Trim leading/trailing zeros so origin/support are canonical.
        nz = arr.nonzero()[0]
        if nz.size == 0:
            return cls._build(0, _EMPTY_PROBS)
        lo, hi = int(nz[0]), int(nz[-1]) + 1
        trimmed = arr[lo:hi].copy()
        trimmed.setflags(write=False)
        return cls._build(origin + lo, trimmed)

    def __init__(self, origin: int = 0, probs: Iterable[float] = ()):
        # Construction happens entirely in __new__ (which may return the
        # empty singleton); nothing to initialise here.
        pass

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _build(cls, origin: int, arr: np.ndarray) -> "PMF":
        """Constructor for trimmed, read-only, canonical arrays.

        ``arr`` must already be trimmed (non-zero first and last entries) and
        non-writeable.  All construction paths funnel zero-mass results
        through here, so the empty PMF is a process-wide singleton.
        """
        global _EMPTY
        if arr.size == 0:
            if _EMPTY is None:
                _EMPTY = cls._fresh(0, _EMPTY_PROBS)
            return _EMPTY
        return cls._fresh(origin, arr)

    @classmethod
    def _fresh(cls, origin: int, arr: np.ndarray) -> "PMF":
        """Allocate an instance around ``arr`` (no checks at all)."""
        self = object.__new__(cls)
        self._origin = origin
        self._probs = arr
        return self

    @classmethod
    def _trusted(cls, origin: int, arr: np.ndarray) -> "PMF":
        """Internal fast constructor for already-validated probability arrays.

        ``arr`` must be a one-dimensional non-negative float64 array whose
        total mass is known to be at most one (the result of an operation on
        existing PMFs).  Only the leading/trailing-zero trim of the public
        constructor is performed; validation and the defensive copy are
        skipped.  The array may be a view into another PMF's storage --
        instances are immutable, so sharing is safe.
        """
        if arr.size and arr[0] != 0.0 and arr[-1] != 0.0:
            # Already trimmed (the overwhelmingly common case): skip the
            # nonzero scan entirely.
            lo = 0
        else:
            nz = arr.nonzero()[0]
            if nz.size == 0:
                return cls._build(0, _EMPTY_PROBS)
            lo, hi = int(nz[0]), int(nz[-1]) + 1
            if lo != 0 or hi != arr.size:
                arr = arr[lo:hi]
        if arr.flags.writeable:
            arr.setflags(write=False)
        return cls._fresh(int(origin) + lo, arr)

    @classmethod
    def _from_trimmed(cls, origin: int, arr: np.ndarray) -> "PMF":
        """Trusted constructor for arrays that are *already* trimmed.

        The fastest construction path: no validation, no trim scan, no copy.
        ``arr`` must be a one-dimensional float64 array whose first and last
        entries are non-zero (or an empty array) and which the caller
        guarantees will never be mutated -- kernel-internal code that just
        produced a canonical array hands it over here.
        """
        if arr.flags.writeable:
            arr.setflags(write=False)
        return cls._build(int(origin), arr)

    @classmethod
    def delta(cls, t: int) -> "PMF":
        """Degenerate PMF with all mass at time ``t``."""
        return cls(int(t), np.array([1.0]))

    @classmethod
    def empty(cls) -> "PMF":
        """PMF with zero total mass (additive identity); a unique singleton."""
        return cls._build(0, _EMPTY_PROBS)

    @classmethod
    def from_impulses(cls, times: Sequence[int], probs: Sequence[float]) -> "PMF":
        """Build a PMF from sparse ``(time, probability)`` impulses.

        Duplicate times are accumulated.  This is the constructor used when
        converting histogram bins (the paper's discretisation of sampled
        execution times) into a PMF.
        """
        times_arr = np.asarray(times, dtype=np.int64)
        probs_arr = np.asarray(probs, dtype=np.float64)
        if times_arr.shape != probs_arr.shape:
            raise ValueError("times and probs must have the same length")
        if times_arr.size == 0:
            return cls.empty()
        lo = int(times_arr.min())
        hi = int(times_arr.max())
        dense = np.zeros(hi - lo + 1, dtype=np.float64)
        np.add.at(dense, times_arr - lo, probs_arr)
        return cls(lo, dense)

    @classmethod
    def from_samples(cls, samples: Sequence[float], max_impulses: int = 32,
                     min_value: int = 1) -> "PMF":
        """Discretise empirical samples into a PMF with bounded support size.

        The paper generates 500 Gamma-distributed execution-time samples per
        (task type, machine type) pair and "applies a histogram to discretise
        the result and produce PMFs".  This helper reproduces that step:
        samples are rounded to integer time units, clipped below at
        ``min_value`` and, if the number of distinct values exceeds
        ``max_impulses``, re-binned into ``max_impulses`` equal-width bins
        whose probability mass is placed at the (rounded) bin centres.
        """
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("cannot build a PMF from zero samples")
        if np.any(~np.isfinite(arr)):
            raise ValueError("samples must be finite")
        values = np.maximum(np.rint(arr).astype(np.int64), int(min_value))
        uniq, counts = np.unique(values, return_counts=True)
        if uniq.size > max_impulses:
            lo, hi = float(values.min()), float(values.max())
            edges = np.linspace(lo, hi + 1e-9, max_impulses + 1)
            idx = np.clip(np.searchsorted(edges, values, side="right") - 1,
                          0, max_impulses - 1)
            centres = np.rint((edges[:-1] + edges[1:]) / 2.0).astype(np.int64)
            centres = np.maximum(centres, int(min_value))
            mass = np.bincount(idx, minlength=max_impulses).astype(np.float64)
            keep = mass > 0
            uniq, counts = centres[keep], mass[keep]
        probs = counts / counts.sum()
        return cls.from_impulses(uniq, probs)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def origin(self) -> int:
        """Smallest time value with non-zero probability (0 if empty)."""
        return self._origin

    @property
    def probs(self) -> np.ndarray:
        """Read-only dense probability array starting at :attr:`origin`."""
        return self._probs

    @property
    def is_empty(self) -> bool:
        """True when the PMF carries zero probability mass."""
        return self._probs.size == 0

    @property
    def total_mass(self) -> float:
        """Total probability mass (1.0 for a proper PMF)."""
        return float(self._probs.sum()) if self._probs.size else 0.0

    @property
    def min_time(self) -> int:
        """Smallest value in the support (0 for the empty PMF)."""
        return self._origin

    @property
    def max_time(self) -> int:
        """Largest value in the support (0 for the empty PMF)."""
        if self.is_empty:
            return 0
        return self._origin + self._probs.size - 1

    @property
    def support_size(self) -> int:
        """Number of values with non-zero probability."""
        return int(np.count_nonzero(self._probs))

    def impulses(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the sparse ``(times, probabilities)`` representation."""
        if self.is_empty:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        idx = np.nonzero(self._probs)[0]
        return idx + self._origin, self._probs[idx].copy()

    def prob_at(self, t: int) -> float:
        """Probability of exactly the value ``t``."""
        k = int(t) - self._origin
        if k < 0 or k >= self._probs.size:
            return 0.0
        return float(self._probs[k])

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Expected value; raises on an empty PMF."""
        if self.is_empty:
            raise ValueError("mean of an empty PMF is undefined")
        times = self._origin + np.arange(self._probs.size)
        return float(np.dot(times, self._probs) / self.total_mass)

    # ------------------------------------------------------------------
    # Mass queries
    # ------------------------------------------------------------------
    def mass_before(self, t: int) -> float:
        """Probability mass strictly before ``t`` (``P(X < t)``).

        This is the paper's *chance of success* query (Eq. 2) when ``t`` is a
        task deadline.
        """
        k = int(t) - self._origin
        if k <= 0:
            return 0.0
        if k >= self._probs.size:
            return self.total_mass
        return float(self._probs[:k].sum())

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def split_at(self, t: int) -> Tuple["PMF", "PMF"]:
        """Split into ``(mass with X < t, mass with X >= t)``.

        Both halves keep their original time values; their total masses sum
        to :attr:`total_mass`.  This mirrors the two branches of Eq. 1: the
        branch in which the next task can start before its deadline and the
        branch in which it is reactively dropped.
        """
        if self.is_empty:
            return PMF.empty(), PMF.empty()
        k = int(t) - self._origin
        if k <= 0:
            return PMF.empty(), self
        if k >= self._probs.size:
            return self, PMF.empty()
        return (PMF._trusted(self._origin, self._probs[:k]),
                PMF._trusted(self._origin + k, self._probs[k:]))

    def shift(self, dt: int) -> "PMF":
        """Translate the distribution by ``dt`` time units."""
        if self.is_empty or dt == 0:
            return self
        # The storage is already trimmed and read-only, so it is shared as-is.
        return PMF._fresh(self._origin + int(dt), self._probs)

    def scaled(self, factor: float) -> "PMF":
        """Multiply all probabilities by ``factor`` in ``[0, 1]``."""
        if factor < 0 or factor > 1.0 + MASS_TOLERANCE:
            raise ValueError("scale factor must be within [0, 1]")
        if self.is_empty or factor == 1.0:
            return self
        return PMF._trusted(self._origin, self._probs * factor)

    def add(self, other: "PMF") -> "PMF":
        """Pointwise mixture sum of two sub-probability PMFs.

        The combined mass must not exceed one.  Used to recombine the
        "started on time" and "reactively dropped" branches of Eq. 1.
        """
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        combined = self.total_mass + other.total_mass
        if combined > 1.0 + MASS_TOLERANCE:
            raise ValueError(f"total probability mass {combined} exceeds 1")
        lo = min(self._origin, other._origin)
        hi = max(self.max_time, other.max_time)
        dense = np.zeros(hi - lo + 1, dtype=np.float64)
        dense[self._origin - lo:self._origin - lo + self._probs.size] += self._probs
        dense[other._origin - lo:other._origin - lo + other._probs.size] += other._probs
        return PMF._trusted(lo, dense)

    def convolve(self, other: "PMF") -> "PMF":
        """Distribution of the sum of two independent random variables.

        The total mass of the result is the product of the operand masses,
        so convolving with a sub-probability PMF keeps mass bookkeeping
        consistent.
        """
        if self.is_empty or other.is_empty:
            return PMF.empty()
        probs = _convolve_full(self._probs, other._probs)
        return PMF._trusted(self._origin + other._origin, probs)

    def conditional_at_least(self, t: int) -> "PMF":
        """Condition on ``X >= t`` and renormalise to the original mass.

        This is the scheduler's estimate of the remaining completion time of
        a task that started in the past and has not finished by time ``t``.
        """
        before, after = self.split_at(t)
        if after.is_empty:
            # All mass is in the past: the task should have finished already.
            # The best available estimate is "immediately", i.e. at time t.
            return PMF.delta(t).scaled(min(self.total_mass, 1.0))
        if before.is_empty:
            # No mass lies before ``t``: conditioning changes nothing (the
            # renormalisation factor is exactly 1.0), so the same immutable
            # instance can be returned.
            return self
        return PMF._trusted(after._origin,
                            after._probs * (self.total_mass / after.total_mass))

    def pruned(self, eps: float = DEFAULT_PRUNE_EPS) -> "PMF":
        """Drop impulses with probability below ``eps``.

        The paper notes that, in practice, the number of impulses produced by
        chained convolutions stays small; pruning negligible mass keeps the
        dense representation compact without materially changing any chance
        of success.
        """
        if self.is_empty:
            return self
        mask = self._probs >= eps
        if mask.all():
            # Nothing to prune: keep the same immutable instance, so
            # identity-based cache checks upstream keep hitting.
            return self
        return PMF._trusted(self._origin, np.where(mask, self._probs, 0.0))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw integer samples from the (normalised) distribution."""
        if self.is_empty:
            raise ValueError("cannot sample from an empty PMF")
        times = self._origin + np.arange(self._probs.size)
        p = self._probs / self.total_mass
        out = rng.choice(times, size=size, p=p)
        if size is None:
            return int(out)
        return out.astype(np.int64)

    # ------------------------------------------------------------------
    # Comparison / representation
    # ------------------------------------------------------------------
    def identical(self, other: "PMF") -> bool:
        """True when both PMFs carry bitwise-identical mass at every value.

        Unlike :meth:`approx_equal` this is an exact comparison (no
        tolerance); it is the gate used by the simulator's incremental
        completion-PMF caches, where reuse is only allowed when it provably
        cannot change any downstream result.  A cache handing back the same
        instance resolves it with the ``self is other`` pointer check; the
        array comparison only runs for distinct instances.
        """
        if self is other:
            return True
        return (self._origin == other._origin
                and self._probs.size == other._probs.size
                and bool(np.array_equal(self._probs, other._probs)))

    def approx_equal(self, other: "PMF", tol: float = 1e-9) -> bool:
        """True when both PMFs assign (almost) identical mass to every value."""
        if self.is_empty and other.is_empty:
            return True
        lo = min(self.min_time, other.min_time)
        hi = max(self.max_time, other.max_time)
        for t in range(lo, hi + 1):
            if abs(self.prob_at(t) - other.prob_at(t)) > tol:
                return False
        return True

    def __eq__(self, other: object) -> bool:  # pragma: no cover - trivial
        if not isinstance(other, PMF):
            return NotImplemented
        return self.identical(other)

    def __hash__(self):  # pragma: no cover - PMFs are not meant to be hashed
        return hash((self._origin, self._probs.tobytes()))

    def __reduce__(self):
        """Pickle as ``(origin, raw bytes)``; unpickling rebuilds the value.

        Pickle's own memo keeps shared references shared, so an unpickled
        scenario still holds one object per PET entry and identity-keyed
        caches (the folder memos) hit on it too.
        """
        return (_restore_pmf, (self._origin, self._probs.tobytes()))

    def __repr__(self) -> str:
        if self.is_empty:
            return "PMF(empty)"
        return (f"PMF(origin={self._origin}, support={self.support_size}, "
                f"mass={self.total_mass:.6f}, mean={self.mean():.2f})")


def _restore_pmf(origin: int, data: bytes) -> PMF:
    """Unpickling factory: rebuild a PMF from its raw bytes."""
    return PMF._from_trimmed(origin, np.frombuffer(data, dtype=np.float64))


#: Shared immutable empty PMF instance (the unique zero-mass PMF).
EMPTY_PMF = PMF.empty()
