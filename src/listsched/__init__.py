"""Parametric list scheduling for heterogeneous DAG task graphs.

The package splits into the problem model (:mod:`listsched.model`), task
prioritization (:mod:`listsched.priority`), node-selection primitives
(:mod:`listsched.selection`), the 72-configuration parametric scheduler
(:mod:`listsched.scheduler`), random instance generation
(:mod:`listsched.datagen`) and the benchmarking/analysis harness
(:mod:`listsched.bench`).
"""

from .model import (
    Network,
    ProblemInstance,
    Schedule,
    ScheduleEntry,
    TaskGraph,
    Violation,
    ViolationKind,
    comm_time,
    exec_time,
    load_instance,
    load_schedule,
    makespan,
    save_instance,
    save_schedule,
    topological_order,
    validate_schedule,
)
from .priority import (
    PriorityKind,
    critical_path_tasks,
    downward_rank,
    priority_map,
    upward_rank,
)
from .selection import (
    CompareKind,
    Window,
    compare,
    open_window_append_only,
    open_window_insertion,
)
from .scheduler import (
    ALIASES,
    SchedulerConfig,
    canonical_name,
    config_by_name,
    enumerate_configs,
    schedule,
)
from .datagen import (
    Dataset,
    GenParams,
    GraphKind,
    ccr,
    gen_chains,
    gen_dataset,
    gen_network,
    gen_tree,
    load_dataset,
    sample_weight,
    save_dataset,
    scale_to_ccr,
)
from .bench import (
    BenchmarkRecord,
    EffectRow,
    InteractionCell,
    ParetoPoint,
    RatioRow,
    component_effects,
    compute_ratios,
    interaction_effects,
    mean_ratio_points,
    pareto_front,
    run_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "ALIASES",
    "BenchmarkRecord",
    "CompareKind",
    "Dataset",
    "EffectRow",
    "GenParams",
    "GraphKind",
    "InteractionCell",
    "Network",
    "ParetoPoint",
    "PriorityKind",
    "ProblemInstance",
    "RatioRow",
    "Schedule",
    "ScheduleEntry",
    "SchedulerConfig",
    "TaskGraph",
    "Violation",
    "ViolationKind",
    "Window",
    "canonical_name",
    "ccr",
    "comm_time",
    "compare",
    "component_effects",
    "compute_ratios",
    "config_by_name",
    "critical_path_tasks",
    "downward_rank",
    "enumerate_configs",
    "exec_time",
    "gen_chains",
    "gen_dataset",
    "gen_network",
    "gen_tree",
    "interaction_effects",
    "load_dataset",
    "load_instance",
    "load_schedule",
    "makespan",
    "mean_ratio_points",
    "open_window_append_only",
    "open_window_insertion",
    "pareto_front",
    "priority_map",
    "run_benchmark",
    "sample_weight",
    "save_dataset",
    "save_instance",
    "save_schedule",
    "scale_to_ccr",
    "schedule",
    "topological_order",
    "upward_rank",
    "validate_schedule",
]
