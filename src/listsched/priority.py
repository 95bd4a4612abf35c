"""Task prioritization: upward/downward ranks and the critical path.

Ranks use network-wide averages so they can be computed before any
placement decision: a task's average execution time is its cost times the
mean reciprocal node speed, and an edge's average communication time is
its data size times the mean reciprocal link strength over unordered
pairs of distinct nodes.  On a single-node network the communication
average is zero (there are no links and no transfers).

The upward rank of a task is the heaviest average-weighted path from the
task to any sink, inclusive; the downward rank is the heaviest path from
any source to the task, exclusive.  Their sum, the CPoP priority, is
maximized exactly on the critical path.  A rank or sum that overflows to
``inf`` is a ``ValueError``.

The ranks run on an instance compiled to index form, :class:`_Compiled`:
each task is named by its position in the deterministic topological
order, and weights and edges are lists over positions.  The scheduler
compiles the instance once per call, and :func:`_priorities` computes
both averages once and every rank pass it needs from that form.
:func:`upward_rank`, :func:`downward_rank`, :func:`priority_map` and
:func:`critical_path_tasks` are thin wrappers that compile, run the same
passes and key the result by task id.
``datagen.ccr`` reads the same averages.
"""

from __future__ import annotations

import enum
import math

from .model import ProblemInstance, TaskId, topological_order

__all__ = ["PriorityKind", "critical_path_tasks", "downward_rank", "priority_map", "upward_rank"]

#: Relative tolerance for critical-path membership on summed float ranks.
CRITICAL_PATH_RTOL = 1e-9


class PriorityKind(enum.Enum):
    UPWARD_RANKING = "UpwardRanking"
    CPOP_RANKING = "CPoPRanking"
    ARBITRARY_TOPOLOGICAL = "ArbitraryTopological"


class _Compiled:
    """A task graph in index form: task ``order[i]`` is named by its position ``i``.

    ``order`` is the deterministic topological order, ``cost[i]`` the
    compute cost of task i, and ``preds[i]`` and ``succs[i]`` list its
    edges as ``(position, data size)`` pairs in ``data_size`` order.  It
    is built inside every call that needs it and stored nowhere else.
    """

    __slots__ = ("order", "cost", "preds", "succs")

    def __init__(self, instance: ProblemInstance):
        tg = instance.task_graph
        self.order = order = topological_order(tg)
        pos = {t: i for i, t in enumerate(order)}
        cost = tg.compute_cost
        self.cost = [cost[t] for t in order]
        self.preds: list[list[tuple[int, float]]] = [[] for _ in order]
        self.succs: list[list[tuple[int, float]]] = [[] for _ in order]
        for (p, t), size in tg.data_size.items():
            i, j = pos[p], pos[t]
            self.succs[i].append((j, size))
            self.preds[j].append((i, size))


def _mean_recip(label: str, weights: dict) -> float:
    """Mean of 1 / weight over the network's speeds or link strengths.

    0.0 without links: a single-node network never communicates.  A weight
    so small that its reciprocal overflows makes every rank ``inf``, so a
    mean that is not finite is a ``ValueError`` naming the average.
    """
    if not weights:
        return 0.0
    mean = sum(1.0 / x for x in weights.values()) / len(weights)
    if not math.isfinite(mean):
        raise ValueError(f"mean reciprocal {label} is not finite: the smallest {label} is "
                         f"{min(weights.values())!r}")
    return mean


def _finite(label: str, form: _Compiled, ranks: list[float]) -> list[float]:
    """``ranks``, unless a path sum overflowed: a ``ValueError`` names the smallest such task.

    Ranks add finite non-negative terms, so ``inf`` is their only value that is not finite.
    """
    if math.inf in ranks:
        task = min(t for t, r in zip(form.order, ranks) if r == math.inf)
        raise ValueError(f"{label} of task {task!r} is not finite: its path sum overflows")
    return ranks


def _upward(form: _Compiled, w: float, c: float) -> list[float]:
    """Upward rank by position; ``w`` and ``c`` are the mean reciprocal speed and strength.

    rank(t) = avg_exec(t) + max over successors s of (avg_comm(t, s) + rank(s)),
    with the max over an empty successor set taken as 0.
    """
    cost, succs = form.cost, form.succs
    ranks = [0.0] * len(cost)
    for i in range(len(cost) - 1, -1, -1):
        best = 0.0
        for s, size in succs[i]:
            cand = size * c + ranks[s]
            if cand > best:
                best = cand
        ranks[i] = cost[i] * w + best
    return _finite("upward rank", form, ranks)


def _downward(form: _Compiled, w: float, c: float) -> list[float]:
    """Downward rank by position.

    rank(t) = max over predecessors p of (rank(p) + avg_exec(p) + avg_comm(p, t)),
    0 for tasks without predecessors.
    """
    cost, preds = form.cost, form.preds
    ranks = [0.0] * len(cost)
    for i in range(len(cost)):
        best = 0.0
        for p, size in preds[i]:
            cand = ranks[p] + cost[p] * w + size * c
            if cand > best:
                best = cand
        ranks[i] = best
    return _finite("downward rank", form, ranks)


def _averages(instance: ProblemInstance) -> tuple[float, float]:
    """The mean reciprocal speed and strength, in that order (see :func:`_mean_recip`)."""
    network = instance.network
    return _mean_recip("speed", network.speed), _mean_recip("strength", network.strength)


def _priorities(
    instance: ProblemInstance, form: _Compiled, kind: PriorityKind, critical_path: bool = False
) -> tuple[list[float], list[bool] | None]:
    """Priority by position under ``kind``, and the critical-path mask if asked, else ``None``.

    UpwardRanking uses the upward rank; CPoPRanking the sum of upward and
    downward ranks; ArbitraryTopological assigns |T| - i to position i.
    A task is on the critical path when its CPoP priority is within a
    relative :data:`CRITICAL_PATH_RTOL` of the maximum, since ranks are
    sums of float terms; when the maximum is achieved by a unique path
    the mask marks a source-to-sink chain.  The averages and each rank
    pass run at most once.
    """
    if kind is PriorityKind.ARBITRARY_TOPOLOGICAL:
        prio = [float(n) for n in range(len(form.order), 0, -1)]
        if not critical_path:
            return prio, None
    elif kind not in (PriorityKind.UPWARD_RANKING, PriorityKind.CPOP_RANKING):
        raise ValueError(f"unknown priority kind {kind!r}")
    w, c = _averages(instance)
    up = _upward(form, w, c)
    if kind is PriorityKind.UPWARD_RANKING:
        prio = up
        if not critical_path:
            return prio, None
    total = _finite("CPoP priority", form, [u + d for u, d in zip(up, _downward(form, w, c))])
    if kind is PriorityKind.CPOP_RANKING:
        prio = total
    if not critical_path:
        return prio, None
    top = max(total, default=0.0)
    return prio, [math.isclose(x, top, rel_tol=CRITICAL_PATH_RTOL) for x in total]


def upward_rank(instance: ProblemInstance) -> dict[TaskId, float]:
    """Rank of each task by its heaviest average-weighted path to a sink (:func:`_upward`)."""
    return priority_map(instance, PriorityKind.UPWARD_RANKING)


def downward_rank(instance: ProblemInstance) -> dict[TaskId, float]:
    """Rank of each task by its heaviest average-weighted path from a source (:func:`_downward`)."""
    form = _Compiled(instance)
    return dict(zip(form.order, _downward(form, *_averages(instance))))


def priority_map(instance: ProblemInstance, kind: PriorityKind) -> dict[TaskId, float]:
    """Priority value per task for the given prioritization scheme (see :func:`_priorities`)."""
    form = _Compiled(instance)
    return dict(zip(form.order, _priorities(instance, form, kind)[0]))


def critical_path_tasks(instance: ProblemInstance) -> list[TaskId]:
    """Tasks whose CPoP priority attains the maximum, in topological order (:func:`_priorities`)."""
    form = _Compiled(instance)
    mask = _priorities(instance, form, PriorityKind.UPWARD_RANKING, True)[1]
    return [t for t, on in zip(form.order, mask) if on]
