#!/usr/bin/env python3
"""Build a problem instance by hand and run a few of the 72 schedulers.

A problem instance is a weighted task DAG plus a complete network of
compute nodes.  Under the related-machines model a task's execution time
is its cost divided by the node's speed, and sending data between two
nodes takes size divided by link strength.
"""

import listsched as ls

# =============================================================================
# A small imaging pipeline: ingest fans out to three tile tasks, two
# downstream stages consume overlapping tiles, publish joins everything.

task_graph = ls.TaskGraph(
    compute_cost={
        "ingest": 1.8, "tile_a": 2.4, "tile_b": 2.1, "tile_c": 0.9,
        "stitch": 1.1, "render": 2.3, "publish": 0.4,
    },
    data_size={
        ("ingest", "tile_a"): 2.0,
        ("ingest", "tile_b"): 2.0,
        ("ingest", "tile_c"): 1.3,
        ("tile_a", "stitch"): 1.0,
        ("tile_b", "stitch"): 1.0,
        ("tile_b", "render"): 0.9,
        ("tile_c", "render"): 1.3,
        ("stitch", "publish"): 1.4,
        ("render", "publish"): 1.5,
    },
)

# Three nodes of uneven speed; links are complete but not uniform.
network = ls.Network(
    nodes=frozenset({"a", "b", "c"}),
    speed={"a": 2.0, "b": 1.25, "c": 1.0},
    strength={("a", "b"): 2.0, ("a", "c"): 1.7, ("b", "c"): 1.4},
)

instance = ls.ProblemInstance(network=network, task_graph=task_graph)

print("execution time of 'render' per node:")
for node in sorted(network.nodes):
    print(f"  {node}: {ls.exec_time(instance, 'render', node):.3f}")

# =============================================================================
# Every scheduler is one point in a 5-component space; four classic
# algorithms appear as aliases of their component combinations.

for alias in ("HEFT", "MCT", "MET", "Sufferage"):
    config = ls.config_by_name(alias)
    print(f"{alias:10s} = {ls.canonical_name(config)}")

# Run HEFT: upward-rank priorities, insertion-based, earliest finish time.
result = ls.schedule(instance, ls.config_by_name("HEFT"))
print("\nHEFT placement order:")
for entry in result:
    print(f"  {entry.task:8s} on {entry.node}  [{entry.start:7.3f}, {entry.end:7.3f}]")
print("HEFT makespan:", round(ls.makespan(result), 4))

# The validator replays the schedule against the instance; an empty report
# means every task ran exactly once, with the right duration, without
# overlapping another task on its node, and never before its input data.
assert ls.validate_schedule(instance, result) == []

# =============================================================================
# Compare all 72 configurations on this one instance.

by_makespan = sorted(
    (ls.makespan(ls.schedule(instance, config)), name)
    for name, config in ls.enumerate_configs()
)
print("\nbest five configurations on this instance:")
for value, name in by_makespan[:5]:
    print(f"  {value:.4f}  {name}")
print(f"worst: {by_makespan[-1][1]} ({by_makespan[-1][0]:.4f})")
print("distinct makespans across 72 configs:",
      len({round(v, 9) for v, _ in by_makespan}))
