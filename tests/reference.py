"""The paper's list scheduler written plainly from the spec-level functions.

``reference_schedule`` rebuilds the partial :class:`Schedule` before every
node choice, recomputes the ready set from scratch at every step, and
picks nodes through ``best_two_nodes`` with the spec-level window
finders.  It shares no state and no fast path with ``schedule()``, so
the two agreeing entry for entry is a differential check of the
placement engine and of every shortcut the scheduler takes.
"""

from listsched import (
    Schedule,
    ScheduleEntry,
    best_two_nodes,
    compare,
    critical_path_tasks,
    open_window_append_only,
    open_window_insertion,
    priority_map,
)
from listsched.model import topological_order


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
