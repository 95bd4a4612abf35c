"""Property tests over random DAGs on random networks.

Weights mix ordinary values (~1) with ones that vanish against them (down
to 1e-300) and ones they vanish against (up to 1e300), so a start time
plus a duration can round back to the start time and windows of zero
length reach the placement engine and the validator.
"""

import itertools
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from listsched import (
    Schedule,
    ScheduleEntry,
    config_by_name,
    enumerate_configs,
    makespan,
    schedule,
    upward_rank,
    validate_schedule,
)
from listsched.model import instance_from_dict, schedule_from_dict, topological_order
from listsched.selection import open_window_append_only, open_window_insertion

from conftest import mk_instance
from reference import (
    brute_force_min_makespan,
    instance_to_dict,
    reference_schedule,
    schedule_to_dict,
)

ALL_CONFIGS = enumerate_configs()

FINITE = {"allow_nan": False, "allow_infinity": False}
#: ordinary weights beside ones that vanish against them, and huge ones
WEIGHTS = st.one_of(
    st.floats(0.1, 5.0, **FINITE),
    st.sampled_from([1.0, 0.2, 1e-9, 1e-150, 1e-300, 1e17, 1e300]),
)
#: weights that never vanish against each other
ORDINARY_WEIGHTS = st.floats(0.1, 5.0, **FINITE)
RATES = st.one_of(st.floats(0.3, 3.0, **FINITE), st.just(1.0))


@st.composite
def problem_instances(draw, weights=WEIGHTS, max_tasks=7, max_nodes=4):
    """A DAG of 1 to ``max_tasks`` tasks (edges only from lower to higher
    index) on 1 to ``max_nodes`` nodes, its costs and sizes drawn from ``weights``."""
    n_tasks = draw(st.integers(1, max_tasks))
    tasks = [f"t{i}" for i in range(n_tasks)]
    costs = {t: draw(weights) for t in tasks}
    sizes = {
        (a, b): draw(weights)
        for a, b in itertools.combinations(tasks, 2)
        if draw(st.booleans())
    }
    nodes = [f"n{i}" for i in range(draw(st.integers(1, max_nodes)))]
    speeds = {v: draw(RATES) for v in nodes}
    strengths = {pair: draw(RATES) for pair in itertools.combinations(nodes, 2)}
    return mk_instance(costs, sizes, speeds, strengths)


def zero_length_overlap_instance():
    """z's duration vanishes against its start, so its window is (1.0, 1.0)
    at the start of b, and w must then be placed after b, not over it."""
    return mk_instance(
        {"a": 1.0, "b": 1.0, "z": 1e-300, "w": 0.2},
        {("a", "b"): 1e-9, ("a", "z"): 1e-9, ("z", "w"): 1e-9},
        {"n0": 1.0},
    )


def vanishing_duration_instance():
    """b starts at 1e17, where its unit duration is below half an ulp, so
    its entry is (1e17, 1e17) and the validator must allow for rounding."""
    return mk_instance({"a": 1e17, "b": 1.0}, {("a", "b"): 1.0}, {"n0": 1.0})


@settings(max_examples=100, deadline=None)
@given(problem_instances())
@example(zero_length_overlap_instance())
@example(vanishing_duration_instance())
def test_every_config_yields_a_valid_schedule(instance):
    for name, config in ALL_CONFIGS:
        assert validate_schedule(instance, schedule(instance, config)) == [], name


def quickest_rounding_instance():
    """Under Quickest_Ins_UR_Suf, t3 loses a sufferage arbitration on n1,
    then t0 goes to n0: that delays t3's start on n0 and rounds its key
    (s + d) - s there below its key on n1.  A Quickest key is not
    monotone in the start, so the loser's evaluation must not be reused."""
    return mk_instance(
        {"t0": 1.0, "t1": 1.0, "t2": 2.0, "t3": 1.6529929366676006, "t4": 1.9654157012217177},
        {},
        {"n0": 1.0, "n1": 1.0, "n2": 1.0},
    )


@settings(max_examples=100, deadline=None)
@given(problem_instances())
@example(zero_length_overlap_instance())
@example(quickest_rounding_instance())
def test_every_config_matches_the_reference_scheduler(instance):
    for name, config in ALL_CONFIGS:
        assert schedule(instance, config) == reference_schedule(instance, config), name


@settings(max_examples=100, deadline=None)
@given(problem_instances())
def test_json_round_trip_returns_equal_instance_and_schedule(instance):
    back = instance_from_dict(json.loads(json.dumps(instance_to_dict(instance))))
    assert back == instance
    result = schedule(instance, config_by_name("HEFT"))
    assert schedule_from_dict(json.loads(json.dumps(schedule_to_dict(result)))) == result


@settings(max_examples=50, deadline=None)
@given(problem_instances(max_tasks=6, max_nodes=3))
@example(vanishing_duration_instance())
def test_brute_force_optimum_is_at_most_every_config(instance):
    # exact: a config's placement order is topological, and its windows are
    # insertion windows or later ones, so the enumeration covers or beats it
    optimum = brute_force_min_makespan(instance)
    for name, config in ALL_CONFIGS:
        assert optimum <= makespan(schedule(instance, config)), name


@settings(max_examples=100, deadline=None)
@given(problem_instances(), st.data())
def test_insertion_never_starts_later_than_append_only(instance, data):
    # the same topological order and node assignment, replayed both ways
    nodes = instance.network.node_order()
    inserted, appended = [], []
    for task in topological_order(instance.task_graph):
        node = data.draw(st.sampled_from(nodes))
        ins = open_window_insertion(instance, Schedule(tuple(inserted)), node, task)
        app = open_window_append_only(instance, Schedule(tuple(appended)), node, task)
        assert ins.start <= app.start, task
        inserted.append(ScheduleEntry(task, node, *ins))
        appended.append(ScheduleEntry(task, node, *app))


def assert_ranks_along_edges(instance, strictly):
    ranks = upward_rank(instance)
    for a, b in instance.task_graph.deps:
        assert ranks[a] > ranks[b] if strictly else ranks[a] >= ranks[b], (a, b)


@settings(max_examples=100, deadline=None)
@given(problem_instances(weights=ORDINARY_WEIGHTS))
def test_upward_ranks_strictly_decrease_along_every_edge(instance):
    assert_ranks_along_edges(instance, strictly=True)


@settings(max_examples=100, deadline=None)
@given(problem_instances())
@example(mk_instance({"a": 1e-300, "b": 1e17}, {("a", "b"): 1e-300}, {"n0": 1.0}))
def test_upward_ranks_never_increase_along_an_edge(instance):
    # a's rank is 1e-300 + 1e-300 * 0.0 + 1e17 == 1e17, b's rank: a tie
    assert_ranks_along_edges(instance, strictly=False)
