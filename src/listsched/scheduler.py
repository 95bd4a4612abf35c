"""The generalized parametric list scheduler and its 72 configurations.

A configuration is a 5-tuple of component choices: the priority function,
the window comparison function, append-only vs. insertion-based window
finding, whether critical-path tasks are reserved for the fastest node,
and whether the top two queued tasks are arbitrated by sufferage.  The
full cross product yields 72 schedulers, each with a stable canonical
name (for example ``EFT_Ins_UR_Suf``); four of them carry the classic
aliases HEFT, MCT, MET and Sufferage, each given by its canonical name.
The table of all 72, by name and alias, is built once at import; lookups
read it, and ``bench`` reads its parameter levels off it.

The scheduler repeatedly takes the highest-priority task whose
predecessors are all placed.  Working from the ready set (rather than the
raw priority order) keeps the placement order topological even for
CPoP-style priorities, whose raw values are not monotone along dependency
edges on general DAGs.  Ties are broken by position in the deterministic
topological order, so runs are bitwise reproducible.

Each call compiles the instance once, into
:class:`~listsched.priority._Compiled`, where a task is named by its
position in the topological order.  Everything after reads that form:
the rank passes and the critical-path mask
(:func:`~listsched.priority._priorities`, which runs each rank pass at
most once), the ready heap of ``(-priority, position)`` pairs, and the
placement engine :class:`~listsched.selection._PlacementState`.  Task ids
come back only in the returned schedule and in error messages.  One
engine pass over a task's candidate nodes yields its best node, that
node's window, the sufferage value and the runner-up node.  A sufferage
loser's pass is reused at the next step when the placement in between
cannot change it.  Nothing is cached across calls or stored on the
instance, so every timed run pays for its own compile and ranks.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .model import ProblemInstance, Schedule
from .priority import PriorityKind, _Compiled, _priorities
from .selection import CompareKind, _PlacementState

__all__ = [
    "ALIASES", "SchedulerConfig", "canonical_name", "config_by_name", "enumerate_configs",
    "schedule",
]


@dataclass(frozen=True)
class SchedulerConfig:
    """One point in the 3 x 3 x 2 x 2 x 2 component space."""

    initial_priority: PriorityKind
    compare: CompareKind
    append_only: bool
    critical_path: bool
    sufferage: bool


_PRIORITY_ABBR = {
    PriorityKind.UPWARD_RANKING: "UR",
    PriorityKind.CPOP_RANKING: "CR",
    PriorityKind.ARBITRARY_TOPOLOGICAL: "AT",
}


def canonical_name(config: SchedulerConfig) -> str:
    """Stable name, e.g. EST_Ins_CP_AT: compare, window scheme, [CP], priority, [Suf]."""
    parts = [config.compare.value, "App" if config.append_only else "Ins"]
    if config.critical_path:
        parts.append("CP")
    parts.append(_PRIORITY_ABBR[config.initial_priority])
    if config.sufferage:
        parts.append("Suf")
    return "_".join(parts)


#: Every configuration by canonical name, in the pinned product order.
_BY_CANONICAL: dict[str, SchedulerConfig] = {
    canonical_name(config): config
    for config in itertools.starmap(SchedulerConfig, itertools.product(
        PriorityKind, CompareKind, (False, True), (False, True), (False, True)))
}
#: Classic names for four of the 72 configurations.
ALIASES: dict[str, SchedulerConfig] = {
    alias: _BY_CANONICAL[name]
    for alias, name in (("HEFT", "EFT_Ins_UR"), ("MCT", "EFT_App_AT"),
                        ("MET", "Quickest_App_AT"), ("Sufferage", "EFT_App_AT_Suf"))
}
_BY_NAME = {**_BY_CANONICAL, **ALIASES}
_ALIAS_OF = {config: alias for alias, config in ALIASES.items()}


def enumerate_configs() -> list[tuple[str, SchedulerConfig]]:
    """All 72 (canonical name, config) pairs in deterministic order, as a new list."""
    return list(_BY_CANONICAL.items())


def alias_of(config: SchedulerConfig) -> str | None:
    return _ALIAS_OF.get(config)


def config_by_name(name: str) -> SchedulerConfig:
    """Look up a configuration by canonical name or classic alias."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown scheduler name {name!r}") from None


def schedule(instance: ProblemInstance, config: SchedulerConfig) -> Schedule:
    """Run the parametric list scheduler and return a valid schedule.

    Tasks are placed one per iteration: the ready task with the highest
    priority (ties: earlier topological position) is matched against every
    candidate node's open window under the configured comparison function.
    With critical-path reservation, tasks on the critical path may only go
    to the fastest node (smallest id among maximal speeds).  With
    sufferage, the two best ready tasks are compared by how much each
    would lose on its second-best node, the bigger loser is placed, and
    the other returns to the queue; the arbitration is skipped when either
    of the two is critical-path-reserved, since a reserved task has no
    alternative node to suffer on.

    Entries appear in the returned schedule in placement order.
    """
    form = _Compiled(instance)
    prio, cp = _priorities(instance, form, config.initial_priority, config.critical_path)
    state = _PlacementState(instance, form)
    all_nodes = reserved = state.all_nodes
    if cp is None:
        cp = [False] * len(prio)
    else:
        # node indices follow sorted ids, so min keeps the smallest fastest id
        reserved = (min(all_nodes, key=lambda v: -state.speed[v]),)

    append_only, compare, sufferage = config.append_only, config.compare, config.sufferage
    # A sufferage loser was ready, so its data-ready times are fixed, and a
    # placement on node p can only delay its earliest fitting start on p:
    # under EFT and EST only p's key grows.  Unless p is the loser's best or
    # runner-up node, its evaluation holds at the next step.  A Quickest
    # key, (s + d) - s, is not monotone in s.
    monotone = compare is not CompareKind.QUICKEST
    kept: tuple | None = None  # (position, evaluation) that holds at this step

    def evaluate(task: int) -> tuple:
        """``state.best``'s result for ``task``: the kept one if it holds, else a fresh one."""
        if kept is not None and kept[0] == task:
            return kept[1]
        return state.best(task, reserved if cp[task] else all_nodes, append_only, compare)

    succs = form.succs
    indeg = [len(p) for p in form.preds]
    ready = [(-prio[i], i) for i, d in enumerate(indeg) if d == 0]
    heapq.heapify(ready)

    while ready:
        entry = heapq.heappop(ready)
        task = entry[1]
        best = evaluate(task)
        loser = None
        if sufferage and ready and not cp[task] and not cp[ready[0][1]]:
            rival_entry = heapq.heappop(ready)
            rival = (rival_entry[1], evaluate(rival_entry[1]))
            if rival[1][2] > best[2]:
                heapq.heappush(ready, entry)
                loser, (task, best) = (task, best), rival
            else:
                heapq.heappush(ready, rival_entry)
                loser = rival

        state.place(task, best[0], best[1])
        kept = loser if monotone and loser and best[0] not in (loser[1][0], loser[1][3]) else None
        for s, _ in succs[task]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, (-prio[s], s))

    return state.to_schedule()
