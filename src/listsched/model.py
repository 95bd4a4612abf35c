"""Core problem and solution types for heterogeneous DAG scheduling.

A problem instance pairs a weighted task DAG with a complete network of
compute nodes under the related-machines model: a node's single speed
scalar divides every task's compute cost, and a link's strength divides
every transferred data size.  Schedules are flat lists of
(task, node, start, end) entries; validity is checked after the fact by
:func:`validate_schedule` rather than enforced structurally.

Task and node identifiers are strings.  Their lexicographic order is the
tie-break order used everywhere downstream, so generators and loaders
should pick names that sort the way they want ties resolved.
"""

from __future__ import annotations

import enum
import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, Mapping

__all__ = [
    "Network", "ProblemInstance", "Schedule", "ScheduleEntry", "TaskGraph", "Violation",
    "ViolationKind", "comm_time", "exec_time", "load_instance", "load_schedule", "makespan",
    "save_instance", "save_schedule", "topological_order", "validate_schedule",
]

TaskId = str
NodeId = str

#: Relative tolerance for the entry-duration validity check.
DURATION_RTOL = 1e-9


def _check_positive(label: str, mapping: Mapping) -> None:
    for key, value in mapping.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{label} for {key!r} must be positive and finite, got {value!r}")


@dataclass(frozen=True, eq=True)
class TaskGraph:
    """Weighted DAG of tasks, built from its two weight maps.

    ``compute_cost`` maps every task to its abstract work amount and
    ``data_size`` maps every dependency edge to the amount of data the
    successor needs from the predecessor.  ``tasks`` and ``deps`` are the
    key sets of the two maps.  Construction validates that every edge joins
    two distinct known tasks, that the dependency relation is acyclic and
    that every weight is strictly positive; the deterministic topological
    order (Kahn, ready set sorted by task id) is computed once and cached,
    and adjacency, kept unsorted, is sorted by id on access.
    """

    compute_cost: dict[TaskId, float]
    data_size: dict[tuple[TaskId, TaskId], float]
    tasks: frozenset[TaskId] = field(init=False, compare=False)
    deps: frozenset[tuple[TaskId, TaskId]] = field(init=False, compare=False)
    _topo: tuple[TaskId, ...] = field(init=False, repr=False, compare=False)
    _succs: dict[TaskId, list[TaskId]] = field(init=False, repr=False, compare=False)
    _preds: dict[TaskId, list[TaskId]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "compute_cost", dict(self.compute_cost))
        object.__setattr__(self, "data_size", dict(self.data_size))
        object.__setattr__(self, "tasks", frozenset(self.compute_cost))
        object.__setattr__(self, "deps", frozenset(self.data_size))

        object.__setattr__(self, "_succs", {t: [] for t in self.tasks})
        object.__setattr__(self, "_preds", {t: [] for t in self.tasks})
        for src, dst in self.data_size:
            if src not in self.tasks or dst not in self.tasks:
                raise ValueError(f"dependency ({src!r}, {dst!r}) references unknown task")
            if src == dst:
                raise ValueError(f"self-dependency on task {src!r}")
            self._succs[src].append(dst)
            self._preds[dst].append(src)
        _check_positive("compute_cost", self.compute_cost)
        _check_positive("data_size", self.data_size)
        object.__setattr__(self, "_topo", self._kahn_order())

    def _kahn_order(self) -> tuple[TaskId, ...]:
        import heapq

        indeg = {t: len(self._preds[t]) for t in self.tasks}
        ready = [t for t in self.tasks if indeg[t] == 0]
        heapq.heapify(ready)
        order: list[TaskId] = []
        while ready:
            t = heapq.heappop(ready)
            order.append(t)
            for s in self._succs[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
        if len(order) != len(self.tasks):
            raise ValueError("task graph contains a cycle")
        return tuple(order)

    @classmethod
    def from_costs(
        cls,
        compute_cost: Mapping[TaskId, float],
        data_size: Mapping[tuple[TaskId, TaskId], float],
    ) -> "TaskGraph":
        """The same graph as ``cls(compute_cost, data_size)``."""
        return cls(compute_cost, data_size)

    def successors(self, task: TaskId) -> tuple[TaskId, ...]:
        return tuple(sorted(self._succs[task]))

    def predecessors(self, task: TaskId) -> tuple[TaskId, ...]:
        return tuple(sorted(self._preds[task]))


def topological_order(task_graph: TaskGraph) -> tuple[TaskId, ...]:
    """Deterministic topological order (Kahn, ready set sorted by task id)."""
    return task_graph._topo


@dataclass(frozen=True, eq=True)
class Network:
    """Complete undirected network of at least one compute node.

    ``speed`` is work per unit time; ``strength`` is data per unit time on
    the link between a pair of distinct nodes, keyed by the sorted id pair
    ``(u, v)`` with ``u < v``.  Every unordered pair of distinct nodes must
    carry exactly that key; a reversed key is an error, not an alias.  The
    instance reader sorts the pairs of outside input before building one.
    """

    nodes: frozenset[NodeId]
    speed: dict[NodeId, float]
    strength: dict[tuple[NodeId, NodeId], float]
    _order: tuple[NodeId, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        if not self.nodes:
            raise ValueError("network has no nodes")
        object.__setattr__(self, "strength", dict(self.strength))
        object.__setattr__(self, "speed", dict(self.speed))
        object.__setattr__(self, "_order", tuple(sorted(self.nodes)))

        if set(self.speed) != self.nodes:
            raise ValueError("speed must be defined for exactly the node set")
        _check_positive("speed", self.speed)
        expected = {
            (u, v) for i, u in enumerate(self._order) for v in self._order[i + 1 :]
        }
        cover = ("strength must cover every unordered pair of distinct nodes, "
                 "keyed by the sorted id pair")
        for u, v in self.strength:
            if u == v:
                raise ValueError(f"self-link on node {u!r}")
            if (u, v) not in expected:
                raise ValueError(f"{cover}; {(u, v)!r} is not such a pair")
        if len(self.strength) != len(expected):
            raise ValueError(f"{cover}; {min(expected - self.strength.keys())!r} is missing")
        _check_positive("strength", self.strength)

    def node_order(self) -> tuple[NodeId, ...]:
        return self._order


@dataclass(frozen=True, eq=True)
class ProblemInstance:
    """A network/task-graph pair to be scheduled.

    Every execution time, cost over speed, must be finite.  Division rounds
    monotonically, so the largest cost over the smallest speed bounds them all.
    """

    network: Network
    task_graph: TaskGraph

    def __post_init__(self) -> None:
        cost, speed = self.task_graph.compute_cost, self.network.speed
        if cost and not math.isfinite(max(cost.values()) / min(speed.values())):
            task, node = max(cost, key=cost.get), min(speed, key=speed.get)
            raise ValueError(f"execution time of task {task!r} on node {node!r} is not finite: "
                             f"cost {cost[task]!r} over speed {speed[node]!r}")


@dataclass(frozen=True, eq=True, slots=True)
class ScheduleEntry:
    """One placed task: runs on ``node`` over [start, end].  Slotted, so no ``__dict__``.

    The constructor rejects a negative start, an end before the start and a non-finite time.
    """

    task: TaskId
    node: NodeId
    start: float
    end: float

    def __post_init__(self) -> None:
        start, end = self.start, self.end
        if not 0 <= start <= end < math.inf:
            if start < 0:
                raise ValueError(f"entry for {self.task!r} has negative start {start!r}")
            if end < start:
                raise ValueError(f"entry for {self.task!r} ends before it starts")
            raise ValueError(f"entry for {self.task!r} has a non-finite time: {start!r} to {end!r}")


@dataclass(frozen=True, eq=True)
class Schedule:
    """A list of schedule entries, kept in the order tasks were placed."""

    entries: tuple[ScheduleEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    def __iter__(self) -> Iterator[ScheduleEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class ViolationKind(enum.Enum):
    UNSCHEDULED_TASK = "UnscheduledTask"
    DUPLICATE_TASK = "DuplicateTask"
    WRONG_DURATION = "WrongDuration"
    NODE_OVERLAP = "NodeOverlap"
    PRECEDENCE_VIOLATION = "PrecedenceViolation"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    detail: str


def exec_time(instance: ProblemInstance, task: TaskId, node: NodeId) -> float:
    """Execution time of ``task`` on ``node``: compute cost over node speed."""
    cost = instance.task_graph.compute_cost[task]
    return cost / instance.network.speed[node]


def comm_time(
    instance: ProblemInstance,
    dep: tuple[TaskId, TaskId],
    src: NodeId,
    dst: NodeId,
) -> float:
    """Transfer time of the data on ``dep`` from ``src`` to ``dst``.

    Zero when both endpoints run on the same node; otherwise data size
    over link strength.
    """
    size = instance.task_graph.data_size[dep]
    if src == dst:
        if src not in instance.network.nodes:
            raise KeyError(f"unknown node {src!r}")
        return 0.0
    return size / instance.network.strength[(src, dst) if src < dst else (dst, src)]


def makespan(schedule: Schedule) -> float:
    """Finish time of the last entry; 0 for an empty schedule."""
    return max((e.end for e in schedule.entries), default=0.0)


def validate_schedule(instance: ProblemInstance, schedule: Schedule) -> list[Violation]:
    """Check a schedule against the instance and report every violation.

    The four validity properties checked are: every task scheduled exactly
    once, entry durations equal to the execution time of their (task,
    node) pair, no two entries overlapping on a node (touching endpoints
    are legal), and no entry starting before its dependency data can
    arrive.  Violations are collected exhaustively rather than fail-fast.

    Raises KeyError if an entry references a task or node the instance
    does not define.
    """
    tg = instance.task_graph
    violations: list[Violation] = []

    by_task: dict[TaskId, list[ScheduleEntry]] = {}
    by_node: dict[NodeId, list[ScheduleEntry]] = {}
    for entry in schedule.entries:
        if entry.task not in tg.tasks:
            raise KeyError(f"schedule references unknown task {entry.task!r}")
        if entry.node not in instance.network.nodes:
            raise KeyError(f"schedule references unknown node {entry.node!r}")
        by_task.setdefault(entry.task, []).append(entry)
        by_node.setdefault(entry.node, []).append(entry)

    for task in sorted(tg.tasks):
        hits = by_task.get(task, [])
        if not hits:
            violations.append(
                Violation(ViolationKind.UNSCHEDULED_TASK, f"task {task!r} is not scheduled")
            )
        elif len(hits) > 1:
            violations.append(
                Violation(
                    ViolationKind.DUPLICATE_TASK,
                    f"task {task!r} scheduled {len(hits)} times: "
                    + ", ".join(f"({e.node}, {e.start}, {e.end})" for e in hits),
                )
            )

    for entry in schedule.entries:
        expected = exec_time(instance, entry.task, entry.node)
        actual = entry.end - entry.start
        # start + duration rounds to an ulp of end, which may swallow a short duration
        tolerance = DURATION_RTOL * max(1.0, expected) + math.ulp(entry.end)
        if not abs(actual - expected) <= tolerance:
            violations.append(
                Violation(
                    ViolationKind.WRONG_DURATION,
                    f"task {entry.task!r} on {entry.node!r} runs for {actual!r}, "
                    f"expected {expected!r}",
                )
            )

    for node in sorted(by_node):
        entries = sorted(by_node[node], key=lambda e: (e.start, e.end, e.task))
        for i, a in enumerate(entries):
            # by index, not over a slice: the scan usually stops at once
            for j in range(i + 1, len(entries)):
                b = entries[j]
                if b.start >= a.end:
                    break
                # open intervals: a.end == b.start is legal
                if a.start < b.end and b.start < a.end:
                    violations.append(
                        Violation(
                            ViolationKind.NODE_OVERLAP,
                            f"tasks {a.task!r} ({a.start}, {a.end}) and {b.task!r} "
                            f"({b.start}, {b.end}) overlap on node {node!r}",
                        )
                    )

    singly = {t: hits[0] for t, hits in by_task.items() if len(hits) == 1}
    for src, dst in sorted(tg.deps):
        if src not in singly or dst not in singly:
            continue  # already reported as unscheduled/duplicate
        e_src, e_dst = singly[src], singly[dst]
        required = e_src.end + comm_time(instance, (src, dst), e_src.node, e_dst.node)
        if e_dst.start < required:
            violations.append(
                Violation(
                    ViolationKind.PRECEDENCE_VIOLATION,
                    f"task {dst!r} starts at {e_dst.start!r} but data from {src!r} "
                    f"arrives at {required!r}",
                )
            )

    return violations


# ---------------------------------------------------------------------------
# JSON serialization
#
# Instance files:
#   {"network": {"nodes": [{"id", "speed"}...], "links": [{"u", "v", "strength"}...]},
#    "task_graph": {"tasks": [{"id", "cost"}...], "deps": [{"src", "dst", "size"}...]}}
# Schedule files:
#   {"entries": [{"task", "node", "start", "end"}...]}
#
# One reader (_read_text) reads every input file, one writer (_write_text)
# every output file.  A leaf that is not a str id or a float goes through one
# parser: an id is a JSON string (integer ids are rejected), a number a JSON
# int or float (not a bool, not quoted), a count a JSON int >= 1.  A missing
# key or a leaf or container of the wrong type is a ``ValueError`` naming the
# part; constructors check value ranges.  Floats are written with repr, the
# shortest decimal that parses back to the same double, so files round-trip
# losslessly and regenerate byte-identically.  Files are written from templates
# whose bytes equal ``json.dumps(layout, indent=2)`` and a newline;
# ``tests/reference.py`` holds the layouts as dicts and per-leaf loaders.
# ---------------------------------------------------------------------------


@contextmanager
def _json_shape(part: str) -> Iterator[None]:
    """Turn a failed lookup or leaf parse in the block into a ``ValueError`` naming ``part``."""
    try:
        yield
    except (TypeError, AttributeError, KeyError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"wrong JSON shape in {part}: {detail}") from None


def _number(value: object) -> float:
    """A JSON number (an int or a float, not a bool) as a float."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _id(value: object) -> str:
    """A JSON string."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _count(value: object) -> int:
    """A JSON int of at least 1 that a float can hold."""
    if type(value) is not int or not 1 <= _number(value):
        raise TypeError(f"expected a positive integer, got {value!r}")
    return value


def _leaves(rows: list, key: str, kind: type, parse) -> list:
    """``[parse(row[key]) for row in rows]``, a leaf of type ``kind`` taken without the call."""
    return [x if type(x := row[key]) is kind else parse(x) for row in rows]


def _id_pairs(rows: list, a: str, b: str) -> list[tuple[str, str]]:
    """``[(_id(row[a]), _id(row[b])) for row in rows]``, a str taken without the call."""
    return [(x, y) if type(x := row[a]) is str and type(y := row[b]) is str
            else (_id(x), _id(row[b])) for row in rows]


def _unique(label: str, keys: list) -> list:
    if len(set(keys)) != len(keys):
        seen = set()
        raise ValueError(f"duplicate {label} {next(k for k in keys if k in seen or seen.add(k))!r}")
    return keys


def instance_from_dict(data: Mapping) -> ProblemInstance:
    """Parse an instance by the leaf rules above; a repeated node, link, task or dep is an error.

    A link may name its nodes in either order; its strength is keyed by the sorted pair.
    """
    with _json_shape("instance"):
        net, tg = data["network"], data["task_graph"]
    with _json_shape("network"):
        nodes = _unique("node", _leaves(net["nodes"], "id", str, _id))
        ends = _id_pairs(net["links"], "u", "v")
        links = _unique("link", [(u, v) if u < v else (v, u) for u, v in ends])
        speed = dict(zip(nodes, _leaves(net["nodes"], "speed", float, _number)))
        strength = dict(zip(links, _leaves(net["links"], "strength", float, _number)))
    with _json_shape("task_graph"):
        tasks = _unique("task", _leaves(tg["tasks"], "id", str, _id))
        deps = _unique("dep", _id_pairs(tg["deps"], "src", "dst"))
        compute_cost = dict(zip(tasks, _leaves(tg["tasks"], "cost", float, _number)))
        data_size = dict(zip(deps, _leaves(tg["deps"], "size", float, _number)))
    network = Network(nodes=frozenset(nodes), speed=speed, strength=strength)
    return ProblemInstance(network=network, task_graph=TaskGraph(compute_cost, data_size))


def schedule_from_dict(data: Mapping) -> Schedule:
    """Parse a schedule by the leaf rules above; its part is the schedule entries."""
    with _json_shape("schedule entries"):
        rows = [(t, v, s, f) if type(t := e["task"]) is str and type(v := e["node"]) is str
                and type(s := e["start"]) is float and type(f := e["end"]) is float
                else (_id(e["task"]), _id(e["node"]), _number(e["start"]), _number(e["end"]))
                for e in data["entries"]]
    return Schedule(entries=tuple(ScheduleEntry(*row) for row in rows))


def _read_text(path: str | Path) -> str:
    """The UTF-8 file at ``path`` as text, from one unbuffered read; CRs are kept."""
    with open(path, "rb", buffering=0) as fh:
        return fh.read().decode("utf-8")


def _open_output(path: str | Path) -> int:
    """A write-only descriptor on ``path``, created if missing; the open has no ``O_TRUNC``."""
    return os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)


def _write_text(path: str | Path | int, text: str) -> None:
    """Overwrite ``path`` (or the descriptor from :func:`_open_output`) with ``text`` in place.

    Every output file is written here.  The open has no ``O_TRUNC``:
    truncating a 3 KB file to zero and rewriting it cost 110-200 us on
    ext4, which flushes such a file on close; an in-place overwrite, 8-23 us.
    Like ``open(path, "w")`` it follows a symlink, keeps hard links and the
    file's mode, and raises the same ``OSError``.  The file is then cut to
    the new length, but only when it is regular (``ftruncate`` fails on
    ``/dev/null`` and on a pipe) and was longer than ``len(text)``, a lower
    bound on the bytes written: a new or shorter file needs no cut.
    """
    fd = path if type(path) is int else _open_output(path)
    old = os.fstat(fd)
    with open(fd, "w", newline="") as fh:
        fh.write(text)
        if stat.S_ISREG(old.st_mode) and old.st_size > len(text):
            fh.truncate()


def _json_leaf(value: object) -> str:
    """``json.dumps(value)``; a string or a finite float is encoded without the call."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _json_list(rows: list[str], indent: str) -> str:
    """The indented JSON list of ``rows``, each already indented; ``[]`` when empty.

    ``indent`` is the indent of the closing bracket, the list's key's own.
    """
    body = ",\n".join(rows)
    return f"[\n{body}\n{indent}]" if body else "[]"


def save_instance(instance: ProblemInstance, path: str | Path) -> None:
    """Write the instance file: ``json.dumps(..., indent=2)`` of its layout, and a newline.

    Nodes, links, tasks and deps are written sorted by id.  The bytes come
    from a template of that layout, since ``indent`` makes ``json`` fall
    back to its pure-Python encoder.
    """
    net, tg = instance.network, instance.task_graph
    nodes = _json_list([
        f'      {{\n        "id": {_json_leaf(n)},\n        "speed": {_json_leaf(x)}\n      }}'
        for n, x in sorted(net.speed.items())
    ], "    ")
    links = _json_list([
        f'      {{\n        "u": {_json_leaf(u)},\n        "v": {_json_leaf(v)},\n'
        f'        "strength": {_json_leaf(x)}\n      }}'
        for (u, v), x in sorted(net.strength.items())
    ], "    ")
    tasks = _json_list([
        f'      {{\n        "id": {_json_leaf(t)},\n        "cost": {_json_leaf(x)}\n      }}'
        for t, x in sorted(tg.compute_cost.items())
    ], "    ")
    deps = _json_list([
        f'      {{\n        "src": {_json_leaf(s)},\n        "dst": {_json_leaf(d)},\n'
        f'        "size": {_json_leaf(x)}\n      }}'
        for (s, d), x in sorted(tg.data_size.items())
    ], "    ")
    _write_text(path, f'{{\n  "network": {{\n    "nodes": {nodes},\n    "links": {links}\n  }},\n'
                      f'  "task_graph": {{\n    "tasks": {tasks},\n    "deps": {deps}\n  }}\n}}\n')


def load_instance(path: str | Path) -> ProblemInstance:
    return instance_from_dict(json.loads(_read_text(path)))


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    """Write the schedule file: ``json.dumps(..., indent=2)`` of its layout, and a newline.

    Entries are written in schedule order, from a template like
    :func:`save_instance`'s.
    """
    entries = _json_list([
        f'    {{\n      "task": {_json_leaf(e.task)},\n      "node": {_json_leaf(e.node)},\n'
        f'      "start": {_json_leaf(e.start)},\n      "end": {_json_leaf(e.end)}\n    }}'
        for e in schedule.entries
    ], "  ")
    _write_text(path, f'{{\n  "entries": {entries}\n}}\n')


def load_schedule(path: str | Path) -> Schedule:
    return schedule_from_dict(json.loads(_read_text(path)))
