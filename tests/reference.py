"""Slow reference versions of fast paths, for differential tests.

The spec-level ranks: ``reference_priority_map`` and
``reference_critical_path`` compute the upward, downward and CPoP ranks
straight from the formulas in the ``listsched.priority`` docstrings,
over dicts keyed by task id, and share no code with the package's
compiled rank passes.  Each rank is the same float expression, in the
same order, as the package's, so the two agree bit for bit.

The spec-level placement functions and the paper's list scheduler built
on them: the window functions here recompute everything from a whole
:class:`Schedule` on every call, straight from the definitions, and share
no code with the placement engine in ``listsched.selection``: the
insertion finder tries every candidate start time instead of bisecting
sorted timelines.  ``reference_schedule`` takes its priorities and
critical path from the spec-level ranks, rebuilds the partial schedule
before every node choice, recomputes the ready set from scratch at every
step, and picks nodes through ``best_two_nodes`` with these finders.  So
``schedule()`` agreeing with it entry for entry is a differential check
of the ranks, of the engine and of every shortcut the scheduler takes.
``COMPARE_KEYS`` states each compare kind's window score: ``best_two_nodes``
ranks windows by it, and ``reference_schedule`` takes its sufferage value
from it.

The brute-force oracle ``brute_force_min_makespan`` is the exhaustive
list-scheduling optimum of a tiny instance.  It places every task with
the spec-level insertion finder, so it too shares no code with the
engine, and it bounds from below what any of the 72 configurations
reaches.

The results-table reader and writer: ``reference_read_results_csv``
reads by column name through ``csv.DictReader``, and
``reference_write_table_csv`` writes ``dataclasses.astuple`` rows.

The file layouts: ``instance_to_dict`` and ``schedule_to_dict`` are the
instance and schedule files as dicts.  The package writes each file from
a template, and its bytes must equal ``json.dumps(layout, indent=2)`` and
a newline.

The file loaders: ``reference_instance_from_dict`` and
``reference_schedule_from_dict`` parse every leaf through the package's
leaf parsers, one call per leaf, and find a repeated key with a set in a
loop.  The package's loaders check most leaves inline instead, and must
return an equal result or raise the same ``ValueError`` text.
"""

import csv
import dataclasses
import math
from collections import Counter
from operator import itemgetter
from typing import Callable, Sequence

from listsched import (
    BenchmarkRecord,
    CompareKind,
    Network,
    PriorityKind,
    Schedule,
    ScheduleEntry,
    TaskGraph,
    comm_time,
    exec_time,
)
from listsched.model import (
    NodeId, ProblemInstance, TaskId, _id, _json_shape, _number, topological_order,
)

#: A window: its start and end time.
Window = tuple[float, float]
WindowFinder = Callable[[ProblemInstance, Schedule, NodeId, TaskId], Window]

#: A window's score under each compare kind; the lower score is better.
COMPARE_KEYS: dict[CompareKind, Callable[[Window], float]] = {
    CompareKind.EFT: itemgetter(1),
    CompareKind.EST: itemgetter(0),
    CompareKind.QUICKEST: lambda w: w[1] - w[0],
}


def mean_reciprocal(weights):
    """Mean of 1 / weight over a network's speeds or link strengths; 0.0 over none."""
    return sum(1.0 / x for x in weights.values()) / len(weights) if weights else 0.0


def reference_upward_rank(instance):
    """rank(t) = avg_exec(t) + max over successors s of (avg_comm(t, s) + rank(s)), 0 over none."""
    tg, net = instance.task_graph, instance.network
    w, c = mean_reciprocal(net.speed), mean_reciprocal(net.strength)
    rank = {}
    for t in reversed(topological_order(tg)):
        tail = max((tg.data_size[(t, s)] * c + rank[s] for s in tg.successors(t)), default=0.0)
        rank[t] = tg.compute_cost[t] * w + tail
    return rank


def reference_downward_rank(instance):
    """rank(t) = max over predecessors p of (rank(p) + avg_exec(p) + avg_comm(p, t)); 0 if none."""
    tg, net = instance.task_graph, instance.network
    w, c = mean_reciprocal(net.speed), mean_reciprocal(net.strength)
    rank = {}
    for t in topological_order(tg):
        rank[t] = max(
            (rank[p] + tg.compute_cost[p] * w + tg.data_size[(p, t)] * c
             for p in tg.predecessors(t)),
            default=0.0,
        )
    return rank


def reference_priority_map(instance, kind):
    """Upward rank, upward plus downward rank (CPoP), or |T| - i at topological position i."""
    if kind is PriorityKind.UPWARD_RANKING:
        return reference_upward_rank(instance)
    if kind is PriorityKind.CPOP_RANKING:
        up, down = reference_upward_rank(instance), reference_downward_rank(instance)
        return {t: up[t] + down[t] for t in up}
    order = topological_order(instance.task_graph)
    return {t: float(len(order) - i) for i, t in enumerate(order)}


def reference_critical_path(instance):
    """Tasks whose CPoP priority is within a relative 1e-9 of the maximum, in topological order."""
    total = reference_priority_map(instance, PriorityKind.CPOP_RANKING)
    top = max(total.values(), default=0.0)
    return [
        t for t in topological_order(instance.task_graph)
        if math.isclose(total[t], top, rel_tol=1e-9)
    ]


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
    return start, start + exec_time(instance, task, node)


def open_window_insertion(instance, partial, node, task):
    """Earliest idle window on ``node`` large enough for ``task``."""
    ready = data_available_time(instance, partial, task, node)
    duration = exec_time(instance, task, node)
    busy = [(e.start, e.end) for e in partial.entries if e.node == node]
    start = earliest_fit(busy, ready, duration)
    return start, start + duration


MAX_ORACLE_TASKS = 8
MAX_ORACLE_NODES = 3


def brute_force_min_makespan(instance):
    """Exhaustive minimum makespan over the list-schedule family.

    Enumerates every topological order crossed with every task-to-node
    assignment, placing each task in its earliest insertion window on its
    node.  The search runs depth first on one list of entries: schedules
    that share a prefix share its entries, the last entry is popped as the
    search backtracks, and a branch is cut once its partial makespan
    reaches the best complete one.  Guarded to at most 8 tasks and 3 nodes.
    """
    tg = instance.task_graph
    nodes = instance.network.node_order()
    if len(tg.tasks) > MAX_ORACLE_TASKS or len(nodes) > MAX_ORACLE_NODES:
        raise ValueError(
            f"instance too large for brute force: {len(tg.tasks)} tasks, {len(nodes)} nodes"
        )
    if not tg.tasks:
        return 0.0
    entries = []
    best = math.inf

    def extend(indeg, peak):
        nonlocal best
        if not indeg:
            best = peak
            return
        for t in sorted(t for t, d in indeg.items() if d == 0):
            rest = dict(indeg)
            del rest[t]
            for s in tg.successors(t):
                rest[s] -= 1
            partial = Schedule(tuple(entries))
            for v in nodes:
                window = open_window_insertion(instance, partial, v, t)
                end = max(peak, window[1])
                if end < best:
                    entries.append(ScheduleEntry(t, v, *window))
                    extend(rest, end)
                    entries.pop()

    extend({t: len(tg.predecessors(t)) for t in tg.tasks}, 0.0)
    return best


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
    priorities = reference_priority_map(instance, config.initial_priority)
    topo_pos = {t: i for i, t in enumerate(topological_order(tg))}
    finder = open_window_append_only if config.append_only else open_window_insertion
    cp_tasks = set(reference_critical_path(instance)) if config.critical_path else set()
    fastest = [min(nodes, key=lambda v: (-speed[v], v))]
    key = COMPARE_KEYS[config.compare]
    entries = []

    def choose(task):
        """Best node, its window and the sufferage value of ``task``."""
        candidates = fastest if task in cp_tasks else nodes
        best, best_w, second, second_w = best_two_nodes(
            instance, Schedule(tuple(entries)), task, candidates, config.compare, finder
        )
        return best, best_w, 0.0 if second is None else key(second_w) - key(best_w)

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
        entries.append(ScheduleEntry(task, node, *window))
        placed.add(task)
    return Schedule(entries=tuple(entries))


def reference_read_results_csv(path):
    """Records of a results CSV, read by column name; rows must have the header's length."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = ("dataset", "instance", "scheduler", "makespan", "runtime_seconds")
        try:
            missing = [c for c in required if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"missing column(s): {', '.join(missing)}")
            for row in reader:
                error = row.get("error") or None
                try:
                    index = int(row["instance"])
                    span = float(row["makespan"]) if row["makespan"] else math.nan
                    runtime = float(row["runtime_seconds"]) if row["runtime_seconds"] else math.nan
                    instance, cells = row["instance"], (row["makespan"], row["runtime_seconds"])
                    if not (instance.isascii() and instance.isdigit()) or any(
                        not cell.isascii() or "_" in cell for cell in cells
                    ):
                        raise ValueError(
                            f"instance {instance!r} must be ASCII digits, makespan {cells[0]!r} "
                            f"and runtime {cells[1]!r} ASCII without '_'"
                        )
                except ValueError as exc:
                    raise ValueError(f"line {reader.line_num}: {exc}") from None
                if error is None and not (0 <= span < math.inf and 0 <= runtime < math.inf):
                    raise ValueError(
                        f"line {reader.line_num} ({row['dataset']}, {row['instance']}, "
                        f"{row['scheduler']}) has no error but makespan {row['makespan']!r} "
                        f"and runtime {row['runtime_seconds']!r}; both must be finite and >= 0"
                    )
                records.append(
                    BenchmarkRecord(
                        dataset=row["dataset"],
                        instance_index=index,
                        scheduler=row["scheduler"],
                        makespan=span,
                        runtime_seconds=runtime,
                        error=error,
                    )
                )
        except csv.Error as exc:  # the DictReader's line_num counts returned rows only
            raise ValueError(f"line {reader.reader.line_num}: {exc}") from None
    return records


def reference_write_table_csv(path, row_type, rows):
    """An analysis table written from ``dataclasses.astuple`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(field.name for field in dataclasses.fields(row_type))
        writer.writerows(dataclasses.astuple(row) for row in rows)


def instance_to_dict(instance):
    """The instance file's layout: nodes, links, tasks and deps sorted by id."""
    net = instance.network
    tg = instance.task_graph
    return {
        "network": {
            "nodes": [{"id": n, "speed": net.speed[n]} for n in net.node_order()],
            "links": [
                {"u": u, "v": v, "strength": net.strength[(u, v)]}
                for (u, v) in sorted(net.strength)
            ],
        },
        "task_graph": {
            "tasks": [{"id": t, "cost": tg.compute_cost[t]} for t in sorted(tg.tasks)],
            "deps": [
                {"src": s, "dst": d, "size": tg.data_size[(s, d)]}
                for (s, d) in sorted(tg.deps)
            ],
        },
    }


def schedule_to_dict(schedule):
    """The schedule file's layout: entries in schedule order."""
    return {
        "entries": [
            {"task": e.task, "node": e.node, "start": e.start, "end": e.end}
            for e in schedule.entries
        ]
    }


def _unique(label, keys):
    seen = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"duplicate {label} {key!r}")
        seen.add(key)
    return keys


def reference_instance_from_dict(data):
    """An instance parsed leaf by leaf, in the loader's order.

    Node ids, node dedupe, link ends, link dedupe, speeds and strengths, then
    task ids, task dedupe, dep ends, dep dedupe, costs and sizes.
    """
    with _json_shape("instance"):
        net, tg = data["network"], data["task_graph"]
    with _json_shape("network"):
        nodes = _unique("node", [_id(n["id"]) for n in net["nodes"]])
        ends = [(_id(l["u"]), _id(l["v"])) for l in net["links"]]
        links = _unique("link", [(min(u, v), max(u, v)) for u, v in ends])
        speed = {n: _number(x["speed"]) for n, x in zip(nodes, net["nodes"])}
        strength = {pair: _number(l["strength"]) for pair, l in zip(links, net["links"])}
    with _json_shape("task_graph"):
        tasks = _unique("task", [_id(t["id"]) for t in tg["tasks"]])
        deps = _unique("dep", [(_id(d["src"]), _id(d["dst"])) for d in tg["deps"]])
        compute_cost = {t: _number(x["cost"]) for t, x in zip(tasks, tg["tasks"])}
        data_size = {dep: _number(x["size"]) for dep, x in zip(deps, tg["deps"])}
    network = Network(nodes=frozenset(nodes), speed=speed, strength=strength)
    return ProblemInstance(network=network, task_graph=TaskGraph(compute_cost, data_size))


def reference_schedule_from_dict(data):
    """A schedule parsed leaf by leaf, entry by entry."""
    with _json_shape("schedule entries"):
        rows = [
            (_id(e["task"]), _id(e["node"]), _number(e["start"]), _number(e["end"]))
            for e in data["entries"]
        ]
    return Schedule(entries=tuple(ScheduleEntry(*row) for row in rows))
