"""Per-worker task queues and hierarchical work stealing.

Each worker owns a local double-ended queue modelled after the lock-free
queues of section 4.4: the owner pushes/pops at the tail (LIFO, hot in
cache), thieves steal from the head (FIFO, coldest).  Steal-victim order
is a strategy decision; CHARM steals chiplet-first, then same socket, then
anywhere — preserving cache locality (section 4.4).

Victim tiers depend only on where the workers sit, so a runtime keeps one
:class:`StealPlan` per worker and rebuilds it only after a migration.  All
of a runtime's queues share one :class:`StealableCount`: while it reads 0
no probe can succeed, and an idle worker charges its probe round without
visiting the deques.
"""

from collections import deque
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.runtime.task import Task


class StealableCount:
    """Runtime-wide number of queued unpinned (stealable) tasks."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


class LocalQueue:
    """One worker's task deque."""

    __slots__ = ("pushes", "pops", "steals_suffered", "_dq", "_stealable")

    def __init__(self, stealable: Optional[StealableCount] = None) -> None:
        self._dq: "deque[Task]" = deque()
        self._stealable = stealable if stealable is not None else StealableCount()
        self.pushes = 0
        self.pops = 0
        self.steals_suffered = 0

    def __len__(self) -> int:
        return len(self._dq)

    def __iter__(self):
        """Queued tasks, head (next local pop) to tail."""
        return iter(self._dq)

    def push(self, task: Task) -> None:
        self._dq.append(task)
        self.pushes += 1
        if not task.pinned:
            self._stealable.n += 1

    def pop_local(self) -> Optional[Task]:
        """Owner-side pop: oldest first (program order for pinned chains)."""
        if self._dq:
            self.pops += 1
            task = self._dq.popleft()
            if not task.pinned:
                self._stealable.n -= 1
            return task
        return None

    def steal(self, allow_pinned: bool = False) -> Optional[Task]:
        """Thief-side pop from the tail; pinned tasks are not stealable."""
        if not self._dq:
            return None
        if allow_pinned or not self._dq[-1].pinned:
            self.steals_suffered += 1
            task = self._dq.pop()
            if not task.pinned:
                self._stealable.n -= 1
            return task
        # Pinned task at the tail: scan for the last stealable task.
        for i in range(len(self._dq) - 1, -1, -1):
            if not self._dq[i].pinned:
                t = self._dq[i]
                del self._dq[i]
                self.steals_suffered += 1
                self._stealable.n -= 1
                return t
        return None

    def remove(self, task: Task) -> bool:
        try:
            self._dq.remove(task)
        except ValueError:
            return False
        if not task.pinned:
            self._stealable.n -= 1
        return True


class StealPlan:
    """One worker's victim tiers and the RNG draws a probe round consumes.

    ``tiers`` lists worker ids in worker-id order, nearest tier first.  A
    round shuffles each tier with the Fisher-Yates loop of
    :meth:`random.Random.shuffle` written out over ``getrandbits`` (draw
    ``k = n.bit_length()`` bits, reject values ``>= n``), which yields the
    same permutation and leaves the generator in the same state.
    """

    __slots__ = ("tiers", "n_victims")

    def __init__(self, tiers: Sequence[Sequence[int]]) -> None:
        self.tiers = tuple(tuple(t) for t in tiers)
        self.n_victims = sum(len(t) for t in self.tiers)

    def order(self, getrandbits) -> List[int]:
        """This round's victim order: every tier shuffled, nearest first."""
        order: List[int] = []
        for tier in self.tiers:
            x = list(tier)
            for i in range(len(x) - 1, 0, -1):
                n = i + 1
                k = n.bit_length()
                j = getrandbits(k)
                while j >= n:
                    j = getrandbits(k)
                x[i], x[j] = x[j], x[i]
            order += x
        return order

    def skip(self, getrandbits) -> None:
        """Consume exactly the draws of :meth:`order` without building it."""
        for tier in self.tiers:
            for n, k in _draw_bounds(len(tier)):
                while getrandbits(k) >= n:
                    pass


@lru_cache(maxsize=None)
def _draw_bounds(m: int) -> Tuple[Tuple[int, int], ...]:
    """``(n, n.bit_length())`` of the draws that shuffle ``m`` items."""
    return tuple((n, n.bit_length()) for n in range(m, 1, -1))
