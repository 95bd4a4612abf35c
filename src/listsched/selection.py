"""Node selection: the placement engine and the compare kinds.

This module is the only place that answers "when can task t start on
node v": append-only placement goes after the node's last entry, and
insertion placement takes the earliest idle gap that fits, as
:func:`_insertion_start` finds it.

A compare kind scores a window (EFT: its end, EST: its start, Quickest:
its length); the lower score is the better window.  The engine computes
the score inline, and the test suite's ``reference.py`` states each
kind's score function for its spec-level scheduler.

:class:`_PlacementState` is the one implementation of all of this, and
the scheduler places tasks through it.  Each placement appends its
:class:`ScheduleEntry` to the engine's result, so the schedule is built
as tasks are placed, with no second pass.  The engine reads the task
graph's compiled form, :class:`~listsched.priority._Compiled`, which the
scheduler builds once per call, so tasks are positions and nodes are
indices; its docstring, ``best``'s and :func:`_no_fit_threshold`'s give
its index form, its pruning rules and why they are exact.

:func:`compare`, :func:`open_window_append_only` and
:func:`open_window_insertion` each answer one question about one pair of
windows or one (task, node) pair; the window queries compile the
instance and a fresh engine from a whole :class:`Schedule` on every
call.  They and :class:`Window` remain only because the benchmark times
this layer through them; ``__all__`` leaves them out, so the package
does not re-export them.  The plain spec-level versions of the window
functions, written without the engine, live in the test suite's
``reference.py``.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain
from operator import sub
from typing import NamedTuple, Sequence

from .model import NodeId, ProblemInstance, Schedule, ScheduleEntry, TaskId
from .priority import _Compiled

__all__ = ["CompareKind"]


class Window(NamedTuple):
    start: float
    end: float


class CompareKind(enum.Enum):
    EFT = "EFT"  # earliest finish time
    EST = "EST"  # earliest start time
    QUICKEST = "Quickest"  # shortest execution time


def compare(kind: CompareKind, a: Window, b: Window) -> float:
    """Signed comparison of two candidate windows; negative iff ``a`` is better."""
    if kind is CompareKind.EFT:
        return a[1] - b[1]
    if kind is CompareKind.EST:
        return a[0] - b[0]
    return (a[1] - a[0]) - (b[1] - b[0])


def _insertion_start(
    starts: Sequence[float], ends: Sequence[float], ready: float, duration: float
) -> float:
    """Earliest fitting start on a node whose entries are sorted by (start, end).

    ``starts`` and ``ends`` are the entries' parallel start and end times.
    Gap fitting is closed-start/open-end: a window may end exactly where
    the next entry starts.  The gap before the first entry counts.  Every
    entry before the last one that ends before ``ready`` also starts
    before ``ready``, so no gap ahead of that entry can fit and the scan
    begins there; every later entry ends at or after ``ready``, so a gap
    after it opens at its end.
    """
    if not starts or ready + duration <= starts[0]:
        return ready
    i = max(bisect_left(ends, ready) - 1, 0)
    start = ends[i] if ends[i] > ready else ready
    last = len(starts) - 1
    while i < last and start + duration > starts[i + 1]:
        i += 1
        start = ends[i]
    return start


def _no_fit_threshold(starts: Sequence[float], ends: Sequence[float]) -> float:
    """A duration above this fits no idle gap of a non-empty node.

    The gaps are ``[0, starts[0])`` and every ``[ends[j], starts[j + 1])``;
    the threshold is the largest computed gap plus ``2 * ulp(last end)``.
    Every entry bound ``a`` and ``b`` is at most the last end ``L``, so a
    computed gap ``fl(b - a)`` is within ``ulp(L) / 2`` of the true one,
    and adding the margin rounds by at most ``ulp(L)``.  A duration ``d``
    above the threshold thus has ``a + d > b + ulp(L) / 2`` exactly, which
    rounds to a float above ``b``: every comparison of
    :func:`_insertion_start` fails to fit, and it returns the last end.
    """
    return max(map(sub, starts, chain((0.0,), ends))) + 2 * math.ulp(ends[-1])


class _PlacementState:
    """Incremental partial schedule on an instance compiled to index form.

    Tasks are the positions of the task graph's compiled form
    (:class:`~listsched.priority._Compiled`), whose ``order``, ``cost``
    and ``preds`` the engine reads; ``where[i]`` is task i's
    ``(node, start, end)``, ``None`` until it is placed, and ``entries``
    holds the :class:`ScheduleEntry` of each placement, in placement
    order, so an entry the model rejects raises at its placement.  Nodes
    are the indices of ``instance.network.node_order()``.  Node v's
    timeline is the parallel lists ``starts[v]`` and ``ends[v]``, sorted
    by (start, end).  The strength matrix holds ``inf`` on its diagonal,
    so data already on the node arrives after ``size / inf == 0.0``, and
    ``end + 0.0`` is exactly ``end``.

    ``lasts[v]`` is node v's last end, 0.0 while it is empty.  ``fit[v]``
    is its :func:`_no_fit_threshold`, or ``None`` when unknown; ``best``
    computes an unknown one when it first needs it.  An append keeps a
    known threshold in O(1): it adds one gap, ``start - lasts[v]``, and
    since rounding is monotone, ``max(old, fl(gap + 2 * ulp))`` is the
    fresh threshold bit for bit as long as the ulp of the last end stays
    the same.  An append that changes that ulp and a middle insertion
    (which splits a gap) make the threshold unknown.
    """

    __slots__ = (
        "nodes", "all_nodes", "speed", "strength", "order", "cost", "preds", "starts", "ends",
        "where", "entries", "lasts", "fit",
    )

    def __init__(self, instance: ProblemInstance, form: _Compiled):
        network = instance.network
        self.nodes = network.node_order()
        self.all_nodes = tuple(range(len(self.nodes)))
        self.speed = [network.speed[v] for v in self.nodes]
        index = {v: i for i, v in enumerate(self.nodes)}
        self.strength = [[math.inf] * len(self.nodes) for _ in self.nodes]
        for (u, v), x in network.strength.items():
            self.strength[index[u]][index[v]] = self.strength[index[v]][index[u]] = x
        self.order, self.cost, self.preds = form.order, form.cost, form.preds
        self.starts: list[list[float]] = [[] for _ in self.nodes]
        self.ends: list[list[float]] = [[] for _ in self.nodes]
        self.lasts = [0.0] * len(self.nodes)
        self.fit: list[float | None] = [None] * len(self.nodes)
        self.where: list[tuple[int, float, float] | None] = [None] * len(self.order)
        self.entries: list[ScheduleEntry] = []

    def _ready_times(self, task: int) -> list[float]:
        """Data-ready time of task position ``task`` on every node, in node order.

        Each predecessor's arrivals are read off its strength row.  The
        first one's are the running maximum; a later one's arrival ``a``
        replaces the running ``r`` only if ``a > r``, as ``max(r, a)`` does,
        so the row is bit-identical to a ``max`` merge.  Arrivals are never
        negative or NaN, so the order of ``preds`` does not matter.
        """
        where, strength = self.where, self.strength
        ready = None
        for p, size in self.preds[task]:
            p_node, _, p_end = where[p]
            row = strength[p_node]
            if ready is None:
                ready = [p_end + size / x for x in row]
            else:
                ready = [a if (a := p_end + size / x) > r else r for r, x in zip(ready, row)]
        return [0.0] * len(self.nodes) if ready is None else ready

    def best(
        self, task: int, candidates: Sequence[int], append_only: bool, compare: CompareKind
    ) -> tuple[int, tuple[float, float], float, int | None]:
        """Task position ``task``'s best node, its window, the sufferage value and the runner-up.

        The window is a plain ``(start, end)`` tuple.  The lower key wins,
        ties go to the earlier candidate, and the sufferage value is the
        runner-up's key minus the best key (0.0 and runner-up ``None`` for
        a single candidate).

        A node whose timeline is empty or ends by the data-ready time ``r``
        starts the task at ``max(last end, r)`` under both schemes, so the
        insertion scan runs only on a node with an entry ending after ``r``.
        There, a duration ``d`` above the node's no-fit threshold fits no
        gap (see :func:`_no_fit_threshold`), so the task starts at the last
        end, as the scan would return.  Under EFT and EST the scan is also
        skipped once a runner-up exists and the node's lower bound (``r + d``
        for EFT, ``r`` for EST) is ``>= second_key``.  This is exact:
        ``s >= r`` and float addition rounds monotonically, so the node's
        key is at least its bound, and a later candidate whose key equals
        ``second_key`` displaces neither the best nor the runner-up.  No
        rule depends on sufferage, so all four return values are those of
        an unpruned pass.  A Quickest key, ``(s + d) - s``, has no such
        bound and is never pruned, but the threshold skip applies to it.
        The bound check comes first because it needs no threshold.
        """
        cost, speed, lasts, fit = self.cost[task], self.speed, self.lasts, self.fit
        by_end, by_start = compare is CompareKind.EFT, compare is CompareKind.EST
        bounded = by_end or by_start
        best = second = None
        best_key = second_key = math.inf
        ready = self._ready_times(task)
        for v in candidates:
            r, d, last = ready[v], cost / speed[v], lasts[v]
            if append_only or r >= last:
                s = r if r > last else last  # max(last, r)
            elif bounded and second is not None and (r + d if by_end else r) >= second_key:
                continue
            else:
                no_fit = fit[v]
                if no_fit is None:
                    no_fit = fit[v] = _no_fit_threshold(self.starts[v], self.ends[v])
                s = last if d > no_fit else _insertion_start(self.starts[v], self.ends[v], r, d)
            f = s + d
            k = f if by_end else s if by_start else f - s
            if k < best_key or best is None:
                best, best_key, second, second_key, window = v, k, best, best_key, (s, f)
            elif k < second_key or second is None:
                second, second_key = v, k
        suffer = 0.0 if second is None else second_key - best_key
        return best, window, suffer, second

    def place(self, task: int, node: int, window: tuple[float, float]) -> None:
        start, end = window
        self.entries.append(ScheduleEntry(self.order[task], self.nodes[node], start, end))
        starts = self.starts[node]
        # only a zero-length entry can share its start with another entry;
        # it goes first, so entries stay sorted by (start, end)
        i = bisect_left(starts, start) if end == start else bisect_right(starts, start)
        starts.insert(i, start)
        self.ends[node].insert(i, end)
        self.where[task] = (node, start, end)
        if i < len(starts) - 1:  # a middle insertion splits a gap
            self.fit[node] = None
            return
        last, self.lasts[node] = self.lasts[node], end
        no_fit = self.fit[node]
        if no_fit is not None:
            ulp = math.ulp(end)
            if ulp != math.ulp(last):
                self.fit[node] = None
            elif (threshold := start - last + 2 * ulp) > no_fit:
                self.fit[node] = threshold

    def to_schedule(self) -> Schedule:
        """The placed entries, in placement order."""
        return Schedule(entries=tuple(self.entries))


def _query_state(
    instance: ProblemInstance, partial: Schedule, node: NodeId, task: TaskId
) -> tuple[_PlacementState, int, int]:
    """An engine holding ``partial``'s entries, ``task``'s position and ``node``'s index in it.

    Every predecessor of ``task`` must appear exactly once in ``partial``;
    an entry with a task or on a node the instance lacks raises ``KeyError``.
    """
    counts = Counter(e.task for e in partial.entries)
    for p in instance.task_graph.predecessors(task):
        if counts[p] != 1:
            raise ValueError(
                f"predecessor {p!r} of {task!r} scheduled {counts[p]} times, expected once"
            )
    form = _Compiled(instance)
    state = _PlacementState(instance, form)
    pos = {t: i for i, t in enumerate(form.order)}
    index = {v: i for i, v in enumerate(state.nodes)}
    for e in partial.entries:
        state.place(pos[e.task], index[e.node], (e.start, e.end))
    return state, pos[task], index[node]


def open_window_append_only(
    instance: ProblemInstance, partial: Schedule, node: NodeId, task: TaskId
) -> Window:
    """Window starting after the last entry on ``node`` (and data arrival)."""
    state, i, v = _query_state(instance, partial, node, task)
    return Window(*state.best(i, (v,), True, CompareKind.EFT)[1])


def open_window_insertion(
    instance: ProblemInstance, partial: Schedule, node: NodeId, task: TaskId
) -> Window:
    """Earliest idle window on ``node`` large enough for ``task``."""
    state, i, v = _query_state(instance, partial, node, task)
    return Window(*state.best(i, (v,), False, CompareKind.EFT)[1])
