#!/usr/bin/env python3
"""How the three priority functions order tasks, and what reservation does.

Upward rank measures the heaviest average-weighted path from a task to a
sink; downward rank the heaviest path from a source to the task.  Their
sum is constant along the critical path and maximal exactly there.
"""

import listsched as ls

# A diamond with one heavy branch: the critical path runs through "slow".
instance = ls.ProblemInstance(
    network=ls.Network(
        nodes=frozenset({"fast", "slow_node"}),
        speed={"fast": 2.0, "slow_node": 1.0},
        strength={("fast", "slow_node"): 1.3},
    ),
    task_graph=ls.TaskGraph(
        compute_cost={"src": 1.4, "slow": 6.6, "quick": 1.6, "sink": 0.8},
        data_size={
            ("src", "slow"): 1.2,
            ("src", "quick"): 2.7,
            ("slow", "sink"): 0.4,
            ("quick", "sink"): 2.5,
        },
    ),
)

up = ls.upward_rank(instance)
down = ls.downward_rank(instance)
print("task      upward  downward     sum")
for task in ls.topological_order(instance.task_graph):
    print(f"{task:8s} {up[task]:7.3f}  {down[task]:7.3f}  {up[task] + down[task]:7.3f}")

critical = ls.critical_path_tasks(instance)
print("critical path:", " -> ".join(critical))
assert critical == ["src", "slow", "sink"]

# =============================================================================
# The three priority maps induce different task orders.

for kind in ls.PriorityKind:
    values = ls.priority_map(instance, kind)
    order = sorted(values, key=values.get, reverse=True)
    print(f"{kind.value:22s} -> {order}")

# =============================================================================
# Critical-path reservation pins the critical tasks to the fastest node.

with_cp = ls.schedule(
    instance,
    ls.SchedulerConfig(
        initial_priority=ls.PriorityKind.CPOP_RANKING,
        compare=ls.CompareKind.EFT,
        append_only=False,
        critical_path=True,
        sufferage=False,
    ),
)
placements = {e.task: e.node for e in with_cp}
print("\nwith reservation:", placements)
for task in critical:
    assert placements[task] == "fast"

# Reservation is a gamble: pinning the chain serializes it on one node
# and here that loses to letting EFT spread the work.
without_cp = ls.schedule(instance, ls.config_by_name("EFT_Ins_CR"))
print("makespan with reservation:   ", round(ls.makespan(with_cp), 4))
print("makespan without reservation:", round(ls.makespan(without_cp), 4))
assert ls.makespan(without_cp) < ls.makespan(with_cp)
