"""The spec-level placement functions and the paper's list scheduler built on them.

The window functions here recompute everything from a whole
:class:`Schedule` on every call, straight from the definitions, and share
no code with the placement engine in ``listsched.selection``: the
insertion finder tries every candidate start time instead of bisecting
sorted timelines.  ``reference_schedule`` rebuilds the partial schedule
before every node choice, recomputes the ready set from scratch at every
step, and picks nodes through ``best_two_nodes`` with these finders.  So
``schedule()`` agreeing with it entry for entry is a differential check
of the engine and of every shortcut the scheduler takes.
"""

from collections import Counter
from typing import Callable, Sequence

from listsched import (
    CompareKind,
    Schedule,
    ScheduleEntry,
    Window,
    comm_time,
    compare,
    critical_path_tasks,
    exec_time,
    priority_map,
)
from listsched.model import NodeId, ProblemInstance, TaskId, topological_order
from listsched.selection import COMPARE_KEYS

WindowFinder = Callable[[ProblemInstance, Schedule, NodeId, TaskId], Window]


def data_available_time(instance, partial, task, node):
    """Earliest time all of ``task``'s dependency data can be on ``node``.

    Every predecessor of ``task`` must appear exactly once in ``partial``.
    """
    counts = Counter(e.task for e in partial.entries)
    for p in instance.task_graph.predecessors(task):
        if counts[p] != 1:
            raise ValueError(
                f"predecessor {p!r} of {task!r} scheduled {counts[p]} times, expected once"
            )
    finish = {e.task: e for e in partial.entries}
    return max(
        (
            finish[p].end + comm_time(instance, (p, task), finish[p].node, node)
            for p in instance.task_graph.predecessors(task)
        ),
        default=0.0,
    )


def earliest_fit(intervals, ready, duration):
    """Earliest start at or after ``ready`` that overlaps none of ``intervals``.

    Tries every candidate start time: ``ready`` and each busy end after it.
    A window may end exactly where a busy interval starts.
    """
    candidates = sorted({ready} | {end for _, end in intervals if end > ready})
    for start in candidates:
        end = start + duration
        if all(end <= a or start >= b for a, b in intervals):
            return start
    raise AssertionError("no fit found")


def open_window_append_only(instance, partial, node, task):
    """Window starting after the last entry on ``node`` (and data arrival)."""
    last_end = max((e.end for e in partial.entries if e.node == node), default=0.0)
    start = max(last_end, data_available_time(instance, partial, task, node))
    return Window(start, start + exec_time(instance, task, node))


def open_window_insertion(instance, partial, node, task):
    """Earliest idle window on ``node`` large enough for ``task``."""
    ready = data_available_time(instance, partial, task, node)
    duration = exec_time(instance, task, node)
    busy = [(e.start, e.end) for e in partial.entries if e.node == node]
    start = earliest_fit(busy, ready, duration)
    return Window(start, start + duration)


def best_two_nodes(
    instance: ProblemInstance,
    partial: Schedule,
    task: TaskId,
    candidates: Sequence[NodeId],
    compare_kind: CompareKind,
    window_finder: WindowFinder,
) -> tuple[NodeId, Window, NodeId | None, Window | None]:
    """Best and second-best node for ``task`` against a partial schedule."""
    if not candidates:
        raise ValueError("candidate node list is empty")
    windows = [window_finder(instance, partial, node, task) for node in candidates]
    key = COMPARE_KEYS[compare_kind]
    # a stable sort: ties go to the earlier candidate
    best, *rest = sorted(range(len(windows)), key=lambda i: key(windows[i]))
    if not rest:
        return candidates[best], windows[best], None, None
    return candidates[best], windows[best], candidates[rest[0]], windows[rest[0]]


def reference_schedule(instance, config):
    tg, speed = instance.task_graph, instance.network.speed
    nodes = list(instance.network.node_order())
    priorities = priority_map(instance, config.initial_priority)
    topo_pos = {t: i for i, t in enumerate(topological_order(tg))}
    finder = open_window_append_only if config.append_only else open_window_insertion
    cp_tasks = set(critical_path_tasks(instance)) if config.critical_path else set()
    fastest = [min(nodes, key=lambda v: (-speed[v], v))]
    entries = []

    def choose(task):
        """Best node, its window and the sufferage value of ``task``."""
        candidates = fastest if task in cp_tasks else nodes
        best, best_w, second, second_w = best_two_nodes(
            instance, Schedule(tuple(entries)), task, candidates, config.compare, finder
        )
        return best, best_w, 0.0 if second is None else compare(config.compare, second_w, best_w)

    placed = set()
    while len(placed) < len(tg.tasks):
        ready = sorted(
            (-priorities[t], topo_pos[t], t)
            for t in tg.tasks
            if t not in placed and all(p in placed for p in tg.predecessors(t))
        )
        task = ready[0][2]
        node, window, suffer = choose(task)
        if (
            config.sufferage
            and len(ready) > 1
            and task not in cp_tasks
            and ready[1][2] not in cp_tasks
        ):
            rival = ready[1][2]
            r_node, r_window, r_suffer = choose(rival)
            if r_suffer > suffer:
                task, node, window = rival, r_node, r_window
        entries.append(ScheduleEntry(task=task, node=node, start=window.start, end=window.end))
        placed.add(task)
    return Schedule(entries=tuple(entries))
