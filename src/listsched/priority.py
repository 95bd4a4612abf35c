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
maximized exactly on the critical path.

This module states both averages and the sum once: ``datagen.ccr``
reads the same averages, and the scheduler's critical path over upward
ranks reuses the sum.
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


def _mean_recip_speed(instance: ProblemInstance) -> float:
    speeds = instance.network.speed
    return sum(1.0 / s for s in speeds.values()) / len(speeds)


def _mean_recip_strength(instance: ProblemInstance) -> float:
    strengths = instance.network.strength
    if not strengths:
        return 0.0  # single-node network: communication never happens
    return sum(1.0 / s for s in strengths.values()) / len(strengths)


def upward_rank(instance: ProblemInstance) -> dict[TaskId, float]:
    """Rank of each task by its heaviest average-weighted path to a sink.

    rank(t) = avg_exec(t) + max over successors s of (avg_comm(t, s) + rank(s)),
    with the max over an empty successor set taken as 0.
    """
    tg = instance.task_graph
    w = _mean_recip_speed(instance)
    c = _mean_recip_strength(instance)
    ranks: dict[TaskId, float] = {}
    for t in reversed(topological_order(tg)):
        best = 0.0
        for s in tg.successors(t):
            cand = tg.data_size[(t, s)] * c + ranks[s]
            if cand > best:
                best = cand
        ranks[t] = tg.compute_cost[t] * w + best
    return ranks


def downward_rank(instance: ProblemInstance) -> dict[TaskId, float]:
    """Rank of each task by its heaviest average-weighted path from a source.

    rank(t) = max over predecessors p of (rank(p) + avg_exec(p) + avg_comm(p, t)),
    0 for tasks without predecessors.
    """
    tg = instance.task_graph
    w = _mean_recip_speed(instance)
    c = _mean_recip_strength(instance)
    ranks: dict[TaskId, float] = {}
    for t in topological_order(tg):
        best = 0.0
        for p in tg.predecessors(t):
            cand = ranks[p] + tg.compute_cost[p] * w + tg.data_size[(p, t)] * c
            if cand > best:
                best = cand
        ranks[t] = best
    return ranks


def _cpop_sum(instance: ProblemInstance, up: dict[TaskId, float]) -> dict[TaskId, float]:
    """The CPoP priority: ``up``, the upward ranks, plus the downward ranks."""
    down = downward_rank(instance)
    return {t: up[t] + down[t] for t in instance.task_graph.tasks}


def priority_map(instance: ProblemInstance, kind: PriorityKind) -> dict[TaskId, float]:
    """Priority value per task for the given prioritization scheme.

    UpwardRanking uses the upward rank; CPoPRanking the sum of upward and
    downward ranks; ArbitraryTopological assigns |T| - i to the task at
    position i of the deterministic topological order.
    """
    tg = instance.task_graph
    if kind is PriorityKind.UPWARD_RANKING:
        return upward_rank(instance)
    if kind is PriorityKind.CPOP_RANKING:
        return _cpop_sum(instance, upward_rank(instance))
    if kind is PriorityKind.ARBITRARY_TOPOLOGICAL:
        order = topological_order(tg)
        n = len(order)
        return {t: float(n - i) for i, t in enumerate(order)}
    raise ValueError(f"unknown priority kind {kind!r}")


def critical_path_tasks(
    instance: ProblemInstance, total: dict[TaskId, float] | None = None
) -> list[TaskId]:
    """Tasks whose CPoP priority attains the maximum, in topological order.

    The CPoP priority is the upward plus the downward rank.  ``total``, if
    given, must be ``priority_map(instance, PriorityKind.CPOP_RANKING)``,
    which a caller that already holds it passes to save a second rank
    pass; otherwise it is computed here.  Membership uses a relative
    tolerance since ranks are sums of float terms; when the maximum is
    achieved by a unique path the result is a source-to-sink chain.
    """
    if total is None:
        total = priority_map(instance, PriorityKind.CPOP_RANKING)
    if not total:
        return []
    top = max(total.values())
    return [
        t
        for t in topological_order(instance.task_graph)
        if math.isclose(total[t], top, rel_tol=CRITICAL_PATH_RTOL)
    ]
