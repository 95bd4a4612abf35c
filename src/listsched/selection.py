"""Node selection: the placement engine, window finders and comparisons.

This module is the only place that answers "when can task t start on
node v".  The data-ready time is the latest arrival of any predecessor's
output on v.  A window is a candidate (start, end) interval for running
one task on one node given a partial schedule.  The append-only finder
only looks past the last entry on the node; the insertion finder scans
the idle gap before the first entry, the gaps between consecutive
entries, and the tail, returning the earliest window that fits.
Comparison functions reduce two windows to a signed number, negative iff
the first window is better.

:class:`_PlacementState` is the incremental engine that the scheduler and
the brute-force oracle place tasks through.  The public
``data_available_time`` and ``open_window_*`` functions recompute the same
quantities from a whole :class:`Schedule` on every call and serve as
spec-level references for it.
"""

from __future__ import annotations

import enum
from bisect import insort
from collections import Counter
from typing import Mapping, NamedTuple, Sequence

from .model import (
    NodeId,
    ProblemInstance,
    Schedule,
    ScheduleEntry,
    TaskId,
    exec_time,
)


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
        return a.end - b.end
    if kind is CompareKind.EST:
        return a.start - b.start
    if kind is CompareKind.QUICKEST:
        return (a.end - a.start) - (b.end - b.start)
    raise ValueError(f"unknown compare kind {kind!r}")


def _data_ready(
    instance: ProblemInstance,
    task: TaskId,
    node: NodeId,
    finish: Mapping[TaskId, tuple[NodeId, float]],
) -> float:
    """Data-ready time of ``task`` on ``node`` against a task -> (node, end) map."""
    network = instance.network
    sizes = instance.task_graph.data_size
    ready = 0.0
    for p in instance.task_graph.predecessors(task):
        p_node, p_end = finish[p]
        if p_node == node:
            t = p_end
        else:
            t = p_end + sizes[(p, task)] / network.link_strength(p_node, node)
        if t > ready:
            ready = t
    return ready


def data_available_time(
    instance: ProblemInstance,
    partial: Schedule,
    task: TaskId,
    node: NodeId,
) -> float:
    """Earliest time all of ``task``'s dependency data can be on ``node``.

    Every predecessor of ``task`` must appear exactly once in ``partial``.
    """
    counts = Counter(e.task for e in partial.entries)
    for p in instance.task_graph.predecessors(task):
        if counts[p] != 1:
            raise ValueError(
                f"predecessor {p!r} of {task!r} scheduled {counts[p]} times, expected once"
            )
    finish = {e.task: (e.node, e.end) for e in partial.entries}
    return _data_ready(instance, task, node, finish)


def _append_window(last_end: float, ready: float, duration: float) -> Window:
    start = max(last_end, ready)
    return Window(start, start + duration)


def _insertion_window(
    entries: list[ScheduleEntry], ready: float, duration: float
) -> Window:
    """Earliest fitting window given the node's entries sorted by start.

    Gap fitting is closed-start/open-end: a window may end exactly where
    the next entry starts.  The gap before the first entry counts.
    """
    if not entries:
        return Window(ready, ready + duration)
    if ready + duration <= entries[0].start:
        return Window(ready, ready + duration)
    last = len(entries) - 1
    for i, e in enumerate(entries):
        start = e.end if e.end > ready else ready
        end = start + duration
        if i == last or end <= entries[i + 1].start:
            return Window(start, end)
    raise AssertionError("unreachable: tail gap always fits")


def _entries_on_node(partial: Schedule, node: NodeId) -> list[ScheduleEntry]:
    return sorted(
        (e for e in partial.entries if e.node == node), key=lambda e: e.start
    )


def open_window_append_only(
    instance: ProblemInstance, partial: Schedule, node: NodeId, task: TaskId
) -> Window:
    """Window starting after the last entry on ``node`` (and data arrival)."""
    last_end = max((e.end for e in partial.entries if e.node == node), default=0.0)
    ready = data_available_time(instance, partial, task, node)
    return _append_window(last_end, ready, exec_time(instance, task, node))


def open_window_insertion(
    instance: ProblemInstance, partial: Schedule, node: NodeId, task: TaskId
) -> Window:
    """Earliest idle window on ``node`` large enough for ``task``."""
    ready = data_available_time(instance, partial, task, node)
    return _insertion_window(
        _entries_on_node(partial, node), ready, exec_time(instance, task, node)
    )


class _PlacementState:
    """Incremental partial schedule: per-node entries sorted by start."""

    __slots__ = ("instance", "node_entries", "finish", "entries")

    def __init__(self, instance: ProblemInstance, nodes: Sequence[NodeId]):
        self.instance = instance
        self.node_entries: dict[NodeId, list[ScheduleEntry]] = {v: [] for v in nodes}
        self.finish: dict[TaskId, tuple[NodeId, float]] = {}
        self.entries: list[ScheduleEntry] = []

    def window(self, task: TaskId, node: NodeId, append_only: bool) -> Window:
        duration = self.instance.task_graph.compute_cost[task] / self.instance.network.speed[node]
        ready = _data_ready(self.instance, task, node, self.finish)
        entries = self.node_entries[node]
        if append_only:
            last_end = entries[-1].end if entries else 0.0
            return _append_window(last_end, ready, duration)
        return _insertion_window(entries, ready, duration)

    def place(self, task: TaskId, node: NodeId, window: Window) -> None:
        entry = ScheduleEntry(task=task, node=node, start=window.start, end=window.end)
        insort(self.node_entries[node], entry, key=lambda e: e.start)
        self.finish[task] = (node, window.end)
        self.entries.append(entry)
