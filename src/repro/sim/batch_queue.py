"""The batch queue of unmapped tasks.

Arriving tasks wait in a single FIFO batch queue until the mapper assigns
them to a machine queue (Fig. 1).  In an oversubscribed system the batch
queue can grow arbitrarily; the mapper therefore only examines a bounded
window of it per mapping event, and tasks whose deadlines expire while they
are still unmapped can be discarded.

Because every arrival and completion triggers a mapping event that consults
the queue, the container must stay cheap at scale: membership, insertion and
removal are all O(1) (an insertion-ordered dict doubles as the FIFO), and
expired tasks are found through a deadline-indexed min-heap so a mapping
event only ever touches tasks that actually expired -- not the whole
backlog.  Heap entries of tasks that left the queue are discarded lazily
when they surface at the top.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List, Optional, Tuple

__all__ = ["BatchQueue"]


class BatchQueue:
    """FIFO queue of unmapped task identifiers with O(1) core operations."""

    def __init__(self) -> None:
        #: task_id -> deadline (or None when the task cannot expire).  Python
        #: dicts preserve insertion order, which *is* the FIFO order.
        self._tasks: dict[int, Optional[int]] = {}
        #: Min-heap of ``(deadline, sequence, task_id)``; may contain stale
        #: entries for tasks that were already mapped or removed.
        self._deadline_heap: List[Tuple[int, int, int]] = []
        self._sequence = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: int) -> bool:
        return int(task_id) in self._tasks

    def __iter__(self) -> Iterator[int]:
        return iter(self._tasks)

    @property
    def is_empty(self) -> bool:
        """True when no unmapped task is waiting."""
        return not self._tasks

    # ------------------------------------------------------------------
    def push(self, task_id: int, deadline: Optional[int] = None) -> None:
        """Append a newly arrived task.

        ``deadline`` feeds the expiry index consulted by
        :meth:`pop_expired`; tasks pushed without one are kept out of the
        index and never reported as expired.
        """
        task_id = int(task_id)
        if task_id in self._tasks:
            raise ValueError(f"task {task_id} is already in the batch queue")
        self._tasks[task_id] = deadline
        if deadline is not None:
            heapq.heappush(self._deadline_heap,
                           (int(deadline), self._sequence, task_id))
            self._sequence += 1

    def remove(self, task_id: int) -> None:
        """Remove a task (mapped or expired); O(1), heap entries decay lazily."""
        try:
            del self._tasks[int(task_id)]
        except KeyError as exc:
            raise ValueError(f"task {task_id} is not in the batch queue") from exc

    def pop_expired(self, now: int) -> List[int]:
        """Remove and return every queued task whose deadline is ``<= now``.

        Results are in deadline order (ties by arrival).  Only tasks that
        actually expired are examined, so a mapping event over a long backlog
        costs O(expired · log n) rather than O(n).
        """
        expired: List[int] = []
        heap = self._deadline_heap
        while heap and heap[0][0] <= now:
            _, _, task_id = heapq.heappop(heap)
            if task_id in self._tasks:  # skip stale entries of removed tasks
                del self._tasks[task_id]
                expired.append(task_id)
        return expired

    def window(self, size: int) -> List[int]:
        """First ``size`` task ids in arrival order (the mapper's view)."""
        if size < 0:
            raise ValueError("window size cannot be negative")
        return list(itertools.islice(self._tasks, size))

    def snapshot(self) -> List[int]:
        """Copy of the full queue contents in arrival order."""
        return list(self._tasks)
