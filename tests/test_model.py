import copy
import dataclasses
import itertools
import json
import math
import pickle
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from listsched import (
    Network,
    ProblemInstance,
    Schedule,
    ScheduleEntry,
    TaskGraph,
    ViolationKind,
    comm_time,
    exec_time,
    makespan,
    validate_schedule,
)
from listsched.cli import main
from listsched.datagen import GenParams, GraphKind, gen_dataset, save_dataset
from listsched.model import (
    _write_text,
    instance_from_dict,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_dict,
    topological_order,
)

from conftest import (
    LONGER_FILE,
    MALFORMED_CASES,
    WRONG_SHAPE_INSTANCES,
    WRONG_SHAPE_SCHEDULES,
    ab_instance_dict,
    fresh_and_overwritten,
    malformed_instance_dict,
    mk_instance,
    random_instance,
    unit_network,
    wrong_shape_instance,
    wrong_shape_schedule,
)
from reference import (
    data_available_time,
    instance_to_dict,
    reference_instance_from_dict,
    reference_schedule_from_dict,
    schedule_to_dict,
)


def entries(*specs):
    return Schedule(entries=tuple(ScheduleEntry(*s) for s in specs))


class TestTiming:
    def test_exec_time_direct(self):
        inst = mk_instance({"a": 2.0}, {}, {"n0": 4.0})
        assert exec_time(inst, "a", "n0") == 0.5

    def test_exec_time_identity(self):
        inst = mk_instance({"a": 1.0}, {}, {"n0": 1.0})
        assert exec_time(inst, "a", "n0") == 1.0

    def test_exec_time_slow_node(self):
        inst = mk_instance({"a": 3.0}, {}, {"n0": 0.5})
        assert exec_time(inst, "a", "n0") == 6.0

    def test_exec_time_unknown_ids(self):
        inst = mk_instance({"a": 1.0}, {}, {"n0": 1.0})
        with pytest.raises(KeyError):
            exec_time(inst, "zzz", "n0")
        with pytest.raises(KeyError):
            exec_time(inst, "a", "n9")

    def test_exec_time_scales_inversely_with_speed(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            inst = random_instance(rng)
            doubled = ProblemInstance(
                network=Network(
                    nodes=inst.network.nodes,
                    speed={v: 2 * s for v, s in inst.network.speed.items()},
                    strength=dict(inst.network.strength),
                ),
                task_graph=inst.task_graph,
            )
            for t in inst.task_graph.tasks:
                for v in inst.network.nodes:
                    assert exec_time(doubled, t, v) == pytest.approx(
                        exec_time(inst, t, v) / 2, rel=1e-12
                    )

    def test_comm_time_same_node_is_zero(self):
        inst = mk_instance({"a": 1.0, "b": 1.0}, {("a", "b"): 2.0}, {"n0": 1.0, "n1": 1.0})
        for v in inst.network.nodes:
            assert comm_time(inst, ("a", "b"), v, v) == 0.0

    def test_comm_time_same_node_must_be_known(self):
        inst = mk_instance({"a": 1.0, "b": 1.0}, {("a", "b"): 2.0}, {"n0": 1.0, "n1": 1.0})
        with pytest.raises(KeyError) as info:
            comm_time(inst, ("a", "b"), "zz", "zz")
        assert info.value.args == ("unknown node 'zz'",)

    def test_comm_time_direct(self):
        inst = mk_instance(
            {"a": 1.0, "b": 1.0}, {("a", "b"): 2.0}, {"n0": 1.0, "n1": 1.0},
            strengths={("n0", "n1"): 1.0},
        )
        assert comm_time(inst, ("a", "b"), "n0", "n1") == 2.0

    def test_comm_time_strong_link(self):
        inst = mk_instance(
            {"a": 1.0, "b": 1.0}, {("a", "b"): 1.0}, {"n0": 1.0, "n1": 1.0},
            strengths={("n0", "n1"): 4.0},
        )
        assert comm_time(inst, ("a", "b"), "n0", "n1") == 0.25

    def test_comm_time_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            inst = random_instance(rng, min_tasks=2, min_nodes=2)
            deps = sorted(inst.task_graph.deps)
            if not deps:
                continue
            dep = deps[0]
            nodes = sorted(inst.network.nodes)
            for u in nodes:
                for v in nodes:
                    assert comm_time(inst, dep, u, v) == comm_time(inst, dep, v, u)


class TestDataAvailableTime:
    def test_no_predecessors(self):
        inst = mk_instance({"a": 1.0}, {}, {"n0": 1.0})
        assert data_available_time(inst, Schedule(()), "a", "n0") == 0.0

    def test_pred_on_same_node(self):
        inst = mk_instance(
            {"a": 1.0, "b": 1.0}, {("a", "b"): 2.0}, {"n0": 1.0, "n1": 1.0}
        )
        partial = entries(("a", "n0", 2.0, 3.0))
        assert data_available_time(inst, partial, "b", "n0") == 3.0

    def test_pred_on_other_node(self):
        inst = mk_instance(
            {"a": 1.0, "b": 1.0}, {("a", "b"): 2.0}, {"n0": 1.0, "n1": 1.0},
            strengths={("n0", "n1"): 1.0},
        )
        partial = entries(("a", "n1", 2.0, 3.0))
        assert data_available_time(inst, partial, "b", "n0") == 5.0

    def test_unscheduled_predecessor_errors(self):
        inst = mk_instance(
            {"a": 1.0, "b": 1.0}, {("a", "b"): 2.0}, {"n0": 1.0, "n1": 1.0}
        )
        with pytest.raises(ValueError, match="predecessor"):
            data_available_time(inst, Schedule(()), "b", "n0")


class TestMakespan:
    def test_empty(self):
        assert makespan(Schedule(())) == 0.0

    def test_max_of_ends(self):
        s = entries(("a", "n0", 0.0, 2.0), ("b", "n0", 2.0, 5.0), ("c", "n0", 0.0, 3.0))
        assert makespan(s) == 5.0

    def test_single_entry(self):
        assert makespan(entries(("a", "n0", 1.0, 4.0))) == 4.0

    def test_reorder_invariant(self):
        rng = np.random.default_rng(5)
        base = [
            ScheduleEntry(f"t{i}", "n0", float(i), float(i) + float(rng.uniform(0, 3)))
            for i in range(10)
        ]
        reference = makespan(Schedule(tuple(base)))
        for _ in range(10):
            perm = list(base)
            rng.shuffle(perm)
            assert makespan(Schedule(tuple(perm))) == reference


class TestValidateSchedule:
    def test_empty_graph_empty_schedule(self):
        inst = ProblemInstance(
            network=unit_network(1),
            task_graph=TaskGraph.from_costs({}, {}),
        )
        assert validate_schedule(inst, Schedule(())) == []

    def test_unscheduled_task(self):
        inst = mk_instance({"a": 1.0}, {}, {"n0": 1.0})
        report = validate_schedule(inst, Schedule(()))
        assert [v.kind for v in report] == [ViolationKind.UNSCHEDULED_TASK]

    def test_duplicate_task(self):
        inst = mk_instance({"a": 1.0}, {}, {"n0": 1.0})
        report = validate_schedule(
            inst, entries(("a", "n0", 0.0, 1.0), ("a", "n0", 1.0, 2.0))
        )
        assert ViolationKind.DUPLICATE_TASK in {v.kind for v in report}

    def test_node_overlap(self):
        inst = mk_instance({"a": 2.0, "b": 2.0}, {}, {"n0": 1.0})
        report = validate_schedule(
            inst, entries(("a", "n0", 0.0, 2.0), ("b", "n0", 1.0, 3.0))
        )
        assert ViolationKind.NODE_OVERLAP in {v.kind for v in report}

    def test_nested_overlaps_are_all_reported(self):
        # a contains b and c, which do not touch: a's scan goes on past b
        inst = mk_instance({"a": 10.0, "b": 1.0, "c": 1.0}, {}, {"n0": 1.0})
        report = validate_schedule(
            inst, entries(("a", "n0", 0.0, 10.0), ("b", "n0", 1.0, 2.0), ("c", "n0", 3.0, 4.0))
        )
        assert [v.detail for v in report] == [
            "tasks 'a' (0.0, 10.0) and 'b' (1.0, 2.0) overlap on node 'n0'",
            "tasks 'a' (0.0, 10.0) and 'c' (3.0, 4.0) overlap on node 'n0'",
        ]

    def test_touching_intervals_are_legal(self):
        inst = mk_instance({"a": 2.0, "b": 2.0}, {}, {"n0": 1.0})
        report = validate_schedule(
            inst, entries(("a", "n0", 0.0, 2.0), ("b", "n0", 2.0, 4.0))
        )
        assert report == []

    def test_wrong_duration(self):
        inst = mk_instance({"a": 2.0}, {}, {"n0": 1.0})
        report = validate_schedule(inst, entries(("a", "n0", 0.0, 1.0)))
        assert [v.kind for v in report] == [ViolationKind.WRONG_DURATION]

    def test_duration_tolerance_accepts_float_noise(self):
        inst = mk_instance({"a": 2.0}, {}, {"n0": 1.0})
        report = validate_schedule(inst, entries(("a", "n0", 0.5, 2.5 + 1e-12)))
        assert report == []

    def test_duration_tolerance_allows_the_ulp_of_the_end(self):
        # 1e17 + 1.0 rounds back to 1e17: the entry is what a scheduler writes
        inst = mk_instance({"a": 1.0}, {}, {"n0": 1.0})
        assert validate_schedule(inst, entries(("a", "n0", 1e17, 1e17))) == []
        report = validate_schedule(inst, entries(("a", "n0", 1e15, 1e15)))
        assert [v.kind for v in report] == [ViolationKind.WRONG_DURATION]

    def test_precedence_violation(self):
        inst = mk_instance(
            {"a": 1.0, "b": 1.0}, {("a", "b"): 2.0}, {"n0": 1.0, "n1": 1.0}
        )
        # b starts before a's data (arrives at 1 + 2 = 3 on the other node)
        report = validate_schedule(
            inst, entries(("a", "n0", 0.0, 1.0), ("b", "n1", 2.0, 3.0))
        )
        assert ViolationKind.PRECEDENCE_VIOLATION in {v.kind for v in report}

    def test_reports_are_exhaustive(self):
        inst = mk_instance(
            {"a": 1.0, "b": 1.0, "c": 1.0}, {("a", "b"): 1.0}, {"n0": 1.0}
        )
        # c missing, a and b overlap, b too early, b wrong duration
        report = validate_schedule(
            inst, entries(("a", "n0", 0.0, 1.0), ("b", "n0", 0.5, 2.0))
        )
        kinds = {v.kind for v in report}
        assert ViolationKind.UNSCHEDULED_TASK in kinds
        assert ViolationKind.NODE_OVERLAP in kinds
        assert ViolationKind.WRONG_DURATION in kinds
        assert ViolationKind.PRECEDENCE_VIOLATION in kinds

    # all five kinds: per task in id order, durations in entry order, overlaps
    # per node in id order, precedence per dependency in sorted order
    FIVE_KINDS = (
        mk_instance(
            {t: 1.0 for t in "abcdef"}, {("a", "b"): 1.0, ("a", "e"): 1.0},
            {"n0": 1.0, "n1": 1.0},
        ),
        entries(
            ("a", "n0", 0.0, 1.0), ("e", "n1", 0.5, 1.75), ("b", "n0", 0.5, 2.0),
            ("d", "n1", 0.0, 1.0), ("d", "n1", 3.0, 4.0),
        ),
    )
    FIVE_KINDS_REPORT = [
        ("UnscheduledTask", "task 'c' is not scheduled"),
        ("DuplicateTask", "task 'd' scheduled 2 times: (n1, 0.0, 1.0), (n1, 3.0, 4.0)"),
        ("UnscheduledTask", "task 'f' is not scheduled"),
        ("WrongDuration", "task 'e' on 'n1' runs for 1.25, expected 1.0"),
        ("WrongDuration", "task 'b' on 'n0' runs for 1.5, expected 1.0"),
        ("NodeOverlap", "tasks 'a' (0.0, 1.0) and 'b' (0.5, 2.0) overlap on node 'n0'"),
        ("NodeOverlap", "tasks 'd' (0.0, 1.0) and 'e' (0.5, 1.75) overlap on node 'n1'"),
        ("PrecedenceViolation", "task 'b' starts at 0.5 but data from 'a' arrives at 1.0"),
        ("PrecedenceViolation", "task 'e' starts at 0.5 but data from 'a' arrives at 2.0"),
    ]

    def test_report_order_is_pinned(self):
        report = validate_schedule(*self.FIVE_KINDS)
        assert [(v.kind.value, v.detail) for v in report] == self.FIVE_KINDS_REPORT

    def test_validate_command_prints_the_report_in_order(self, tmp_path, capsys):
        inst, sched = self.FIVE_KINDS
        save_instance(inst, tmp_path / "instance.json")
        save_schedule(sched, tmp_path / "schedule.json")
        code = main(["validate", "--instance", str(tmp_path / "instance.json"),
                     "--schedule", str(tmp_path / "schedule.json")])
        assert code == 1
        lines = [f"{kind}: {detail}" for kind, detail in self.FIVE_KINDS_REPORT]
        assert capsys.readouterr().out == "\n".join([*lines, "9 violation(s)", ""])

    def test_unknown_ids_raise(self):
        inst = mk_instance({"a": 1.0}, {}, {"n0": 1.0})
        with pytest.raises(KeyError):
            validate_schedule(inst, entries(("zzz", "n0", 0.0, 1.0)))
        with pytest.raises(KeyError):
            validate_schedule(inst, entries(("a", "n9", 0.0, 1.0)))


class TestConstruction:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            TaskGraph.from_costs(
                {"a": 1.0, "b": 1.0}, {("a", "b"): 1.0, ("b", "a"): 1.0}
            )

    def test_dep_endpoint_must_exist(self):
        with pytest.raises(ValueError, match="unknown task"):
            TaskGraph.from_costs({"a": 1.0}, {("a", "b"): 1.0})

    def test_costs_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            TaskGraph.from_costs({"a": 0.0}, {})

    def test_edge_errors_come_before_weight_errors(self):
        with pytest.raises(ValueError, match="unknown task"):
            TaskGraph({"a": 0.0}, {("a", "b"): -1.0})
        with pytest.raises(ValueError, match="self-dependency"):
            TaskGraph({"a": 0.0}, {("a", "a"): -1.0})

    def test_tasks_and_deps_are_the_key_sets(self):
        tg = TaskGraph({"a": 1.0, "b": 2.0, "c": 0.5}, {("a", "b"): 1.0, ("a", "c"): 3.0})
        assert tg.tasks == frozenset(tg.compute_cost) == {"a", "b", "c"}
        assert tg.deps == frozenset(tg.data_size) == {("a", "b"), ("a", "c")}
        assert TaskGraph.from_costs(tg.compute_cost, tg.data_size) == tg

    def test_replace_rebuilds_a_consistent_graph(self):
        tg = TaskGraph({"a": 1.0, "b": 2.0}, {("a", "b"): 1.0})
        grown = dataclasses.replace(
            tg,
            compute_cost={"a": 1.0, "b": 2.0, "c": 4.0},
            data_size={("c", "a"): 0.5, ("a", "b"): 1.0},
        )
        assert grown.tasks == {"a", "b", "c"}
        assert grown.deps == {("c", "a"), ("a", "b")}
        assert grown.successors("c") == ("a",)
        assert grown.predecessors("a") == ("c",)
        assert topological_order(grown) == ("c", "a", "b")
        assert topological_order(tg) == ("a", "b")

    def test_pickle_and_deepcopy_round_trip(self):
        inst = random_instance(np.random.default_rng(8), min_tasks=3, min_nodes=2)
        for again in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
            assert again == inst
            assert again.task_graph.tasks == inst.task_graph.tasks
            assert again.task_graph.deps == inst.task_graph.deps
            assert topological_order(again.task_graph) == topological_order(inst.task_graph)

    def test_network_requires_complete_links(self):
        with pytest.raises(ValueError, match="every unordered pair"):
            Network(
                nodes=frozenset({"n0", "n1", "n2"}),
                speed={"n0": 1.0, "n1": 1.0, "n2": 1.0},
                strength={("n0", "n1"): 1.0},
            )

    def test_network_speeds_must_cover_exactly_the_nodes(self):
        for speed in ({"n0": 1.0}, {"n0": 1.0, "n1": 1.0, "n2": 1.0}):
            with pytest.raises(ValueError, match="^speed must be defined for exactly the node set$"):
                Network(nodes=frozenset({"n0", "n1"}), speed=speed, strength={("n0", "n1"): 1.0})

    def test_network_rejects_self_link(self):
        with pytest.raises(ValueError, match="self-link"):
            Network(
                nodes=frozenset({"n0"}), speed={"n0": 1.0}, strength={("n0", "n0"): 1.0}
            )

    def test_network_rejects_a_reversed_link_key(self):
        with pytest.raises(ValueError, match="keyed by the sorted id pair"):
            Network(
                nodes=frozenset({"n0", "n1"}),
                speed={"n0": 1.0, "n1": 1.0},
                strength={("n1", "n0"): 1.0},
            )

    def test_network_coverage_error_names_a_link_to_an_unknown_node(self):
        with pytest.raises(ValueError, match=r"every unordered pair.*\('n0', 'zz'\) is not such"):
            Network(
                nodes=frozenset({"n0", "n1"}),
                speed={"n0": 1.0, "n1": 1.0},
                strength={("n0", "n1"): 1.0, ("n0", "zz"): 1.0},
            )

    def test_network_coverage_error_names_the_first_missing_pair(self):
        with pytest.raises(ValueError, match=r"every unordered pair.*\('n0', 'n1'\) is missing"):
            Network(
                nodes=frozenset({"n0", "n1", "n2"}),
                speed={"n0": 1.0, "n1": 1.0, "n2": 1.0},
                strength={("n0", "n2"): 1.0, ("n1", "n2"): 1.0},
            )

    def test_overflowing_execution_time_is_rejected(self):
        # 1e308 / 1e-10 is inf; the duration tolerance used to be inf too
        net = Network(
            nodes=frozenset({"n0", "n1"}),
            speed={"n0": 1e-10, "n1": 1.0},
            strength={("n0", "n1"): 1.0},
        )
        with pytest.raises(ValueError) as info:
            ProblemInstance(net, TaskGraph({"a": 1.0, "b": 1e308}, {}))
        assert str(info.value) == (
            "execution time of task 'b' on node 'n0' is not finite: cost 1e+308 over speed 1e-10"
        )

    def test_largest_finite_execution_time_is_accepted(self):
        inst = mk_instance({"a": 1.7976931348623157e308}, {}, {"n0": 1.0})
        assert exec_time(inst, "a", "n0") == 1.7976931348623157e308

    def test_single_node_network_has_no_links(self):
        net = Network(nodes=frozenset({"n0"}), speed={"n0": 1.0}, strength={})
        assert net.node_order() == ("n0",)

    def test_entry_rejects_negative_duration(self):
        # the messages are part of the contract: the CLI prints them after its prefix
        with pytest.raises(ValueError) as backwards:
            ScheduleEntry("a", "n0", 2.0, 1.0)
        assert str(backwards.value) == "entry for 'a' ends before it starts"
        with pytest.raises(ValueError) as negative:
            ScheduleEntry("a", "n0", -1.0, 1.0)
        assert str(negative.value) == "entry for 'a' has negative start -1.0"

    def test_topological_order_is_deterministic_kahn(self):
        tg = TaskGraph.from_costs(
            {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
            {("a", "c"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0},
        )
        assert topological_order(tg) == ("a", "b", "c", "d")

    def test_adjacency_is_sorted_on_access(self):
        edges = [("z", "c"), ("z", "a"), ("y", "b"), ("c", "b"), ("a", "x"), ("b", "x"),
                 ("y", "w"), ("z", "w"), ("c", "x")]
        # every edge listed in reverse id order
        tg = TaskGraph({t: 1.0 for t in "abcwxyz"}, {e: 1.0 for e in sorted(edges, reverse=True)})
        assert [tg.successors(t) for t in "abcwxyz"] == [
            ("x",), ("x",), ("b", "x"), (), (), ("b", "w"), ("a", "c", "w")]
        assert [tg.predecessors(t) for t in "abcwxyz"] == [
            ("z",), ("c", "y"), ("z",), ("y", "z"), ("a", "b", "c"), (), ()]
        # the order Kahn gives when each adjacency list is sorted by id first
        assert topological_order(tg) == ("y", "z", "a", "c", "b", "w", "x")


class TestJson:
    def test_instance_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            inst = random_instance(rng)
            again = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
            assert again == inst

    def test_schedule_round_trip(self):
        s = entries(("a", "n0", 0.0, 1.2345678901234567), ("b", "n1", 1.5, 2.25))
        again = schedule_from_dict(json.loads(json.dumps(schedule_to_dict(s))))
        assert again == s

    @pytest.mark.parametrize("case", MALFORMED_CASES)
    def test_malformed_instance_rejected(self, case):
        with pytest.raises(ValueError, match=f"^{re.escape(MALFORMED_CASES[case])}$"):
            instance_from_dict(malformed_instance_dict(case))

    @pytest.mark.parametrize("case, part", WRONG_SHAPE_INSTANCES)
    def test_wrong_shape_instance_names_the_part(self, case, part):
        with pytest.raises(ValueError, match=f"^wrong JSON shape in {part}: "):
            instance_from_dict(wrong_shape_instance(case))

    @pytest.mark.parametrize("case", WRONG_SHAPE_SCHEDULES)
    def test_wrong_shape_schedule_names_the_part(self, case):
        with pytest.raises(ValueError, match="^wrong JSON shape in schedule entries: "):
            schedule_from_dict(wrong_shape_schedule(case))

    def test_reversed_link_loads_equal_to_the_sorted_one(self):
        data = ab_instance_dict()
        flipped = copy.deepcopy(data)
        link = flipped["network"]["links"][0]
        link["u"], link["v"] = link["v"], link["u"]
        assert (link["u"], link["v"]) == ("n1", "n0")
        assert instance_from_dict(flipped) == instance_from_dict(data)
        assert instance_to_dict(instance_from_dict(flipped)) == data

    def test_link_listed_both_ways_is_a_duplicate(self):
        data = ab_instance_dict()
        link = data["network"]["links"][0]
        data["network"]["links"].append({**link, "u": link["v"], "v": link["u"]})
        with pytest.raises(ValueError, match="duplicate link"):
            instance_from_dict(data)

    def test_instance_file_bytes_are_frozen(self, tmp_path):
        path = tmp_path / "i.json"
        save_instance(instance_from_dict(FIXED_INSTANCE_SOURCE), path)
        assert path.read_bytes() == FIXED_INSTANCE_FILE
        assert instance_to_dict(load_instance(path)) == json.loads(FIXED_INSTANCE_FILE)

    def test_serialization_is_stable(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng)
        a = json.dumps(instance_to_dict(inst), indent=2)
        b = json.dumps(instance_to_dict(inst), indent=2)
        assert a == b


#: Instance source for the instance byte pin: tasks out of id order, an int
#: cost, a non-ASCII id and the link (n0, n2) written as (n2, n0).
FIXED_INSTANCE_SOURCE = {
    "network": {
        "nodes": [
            {"id": "n0", "speed": 1.0},
            {"id": "n1", "speed": 2.5},
            {"id": "n2", "speed": 0.30000000000000004},
        ],
        "links": [
            {"u": "n0", "v": "n1", "strength": 1.0},
            {"u": "n2", "v": "n0", "strength": 0.5},
            {"u": "n1", "v": "n2", "strength": 1e16},
        ],
    },
    "task_graph": {
        "tasks": [
            {"id": "b", "cost": 2},
            {"id": "a", "cost": 0.1},
            {"id": "t\u00e2che", "cost": 3.0},
        ],
        "deps": [
            {"src": "a", "dst": "b", "size": 1.5},
            {"src": "a", "dst": "t\u00e2che", "size": 4.0},
        ],
    },
}

#: ``save_instance`` output for :data:`FIXED_INSTANCE_SOURCE`; the instance
#: file format is frozen, so these bytes must not change.
FIXED_INSTANCE_FILE = (
    b'{\n  "network": {\n    "nodes": [\n'
    b'      {\n        "id": "n0",\n        "speed": 1.0\n      },\n'
    b'      {\n        "id": "n1",\n        "speed": 2.5\n      },\n'
    b'      {\n        "id": "n2",\n        "speed": 0.30000000000000004\n      }\n'
    b'    ],\n    "links": [\n'
    b'      {\n        "u": "n0",\n        "v": "n1",\n        "strength": 1.0\n      },\n'
    b'      {\n        "u": "n0",\n        "v": "n2",\n        "strength": 0.5\n      },\n'
    b'      {\n        "u": "n1",\n        "v": "n2",\n        "strength": 1e+16\n      }\n'
    b'    ]\n  },\n  "task_graph": {\n    "tasks": [\n'
    b'      {\n        "id": "a",\n        "cost": 0.1\n      },\n'
    b'      {\n        "id": "b",\n        "cost": 2.0\n      },\n'
    b'      {\n        "id": "t\\u00e2che",\n        "cost": 3.0\n      }\n'
    b'    ],\n    "deps": [\n'
    b'      {\n        "src": "a",\n        "dst": "b",\n        "size": 1.5\n      },\n'
    b'      {\n        "src": "a",\n        "dst": "t\\u00e2che",\n        "size": 4.0\n      }\n'
    b"    ]\n  }\n}\n"
)


#: ``save_schedule`` output for :meth:`TestScheduleEntry.fixed_schedule`;
#: the schedule file format is frozen, so these bytes must not change.
FIXED_SCHEDULE_FILE = (
    b'{\n  "entries": [\n'
    b'    {\n      "task": "a",\n      "node": "n0",\n'
    b'      "start": 0.0,\n      "end": 0.30000000000000004\n    },\n'
    b'    {\n      "task": "b",\n      "node": "n1",\n'
    b'      "start": 0.1,\n      "end": 2.0\n    },\n'
    b'    {\n      "task": "t\\u00e2che",\n      "node": "n0",\n'
    b'      "start": 1e+16,\n      "end": 1.0000000000000002e+16\n    }\n'
    b"  ]\n}\n"
)


class TestScheduleEntry:
    """The entry contract: one checked constructor, frozen dataclass behaviour, no ``__dict__``."""

    def entry(self):
        return ScheduleEntry("a", "n0", 0.5, 1.25)

    def fixed_schedule(self):
        return entries(
            ("a", "n0", 0.0, 0.1 + 0.2), ("b", "n1", 0.1, 2.0), ("t\u00e2che", "n0", 1e16, 1e16 + 2.0)
        )

    def test_equal_and_hash_as_keyword_construction(self):
        keyword = ScheduleEntry(task="a", node="n0", start=0.5, end=1.25)
        assert self.entry() == keyword
        assert hash(self.entry()) == hash(keyword)
        assert self.entry() != ScheduleEntry("a", "n0", 0.5, 1.5)

    def test_dataclass_behaviour(self):
        e = self.entry()
        assert repr(e) == "ScheduleEntry(task='a', node='n0', start=0.5, end=1.25)"
        assert dataclasses.astuple(e) == ("a", "n0", 0.5, 1.25)
        assert [f.name for f in dataclasses.fields(e)] == ["task", "node", "start", "end"]
        moved = dataclasses.replace(e, end=2.0)
        assert moved == ScheduleEntry("a", "n0", 0.5, 2.0)
        assert copy.deepcopy(e) == e
        assert pickle.loads(pickle.dumps(e)) == e

    def test_replace_runs_the_checks(self):
        with pytest.raises(ValueError, match="^entry for 'a' ends before it starts$"):
            dataclasses.replace(self.entry(), end=0.25)

    @pytest.mark.parametrize("field", ["task", "node", "start", "end"])
    def test_assignment_is_refused(self, field):
        e = self.entry()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, field, 3.0)
        assert e == self.entry()

    def test_loader_runs_the_checks(self):
        row = {"task": "a", "node": "n0", "start": 2.0, "end": 1.0}
        with pytest.raises(ValueError, match="^entry for 'a' ends before it starts$"):
            schedule_from_dict({"entries": [row]})

    @pytest.mark.parametrize("start, end", [
        (0.0, math.inf), (math.inf, math.inf), (math.nan, 1.0), (0.0, math.nan),
        (math.nan, math.nan),
    ])
    def test_non_finite_time_is_rejected(self, start, end):
        # an infinite entry used to load and then fail validation as a
        # wrong duration; a NaN one ran "for nan"
        with pytest.raises(ValueError) as exc:
            ScheduleEntry("a", "n0", start, end)
        assert str(exc.value) == f"entry for 'a' has a non-finite time: {start!r} to {end!r}"
        row = {"task": "a", "node": "n0", "start": start, "end": end}
        with pytest.raises(ValueError, match="^entry for 'a' has a non-finite time: "):
            schedule_from_dict({"entries": [row]})

    def test_negative_zero_start_is_accepted(self):
        assert ScheduleEntry("a", "n0", -0.0, 0.0).start == 0

    def test_fields_are_slots(self):
        e = self.entry()
        assert not hasattr(e, "__dict__")
        assert (e.task, e.node, e.start, e.end) == ("a", "n0", 0.5, 1.25)

    def test_schedule_file_bytes_are_frozen(self, tmp_path):
        path = tmp_path / "s.json"
        save_schedule(self.fixed_schedule(), path)
        assert path.read_bytes() == FIXED_SCHEDULE_FILE
        assert load_schedule(path) == self.fixed_schedule()


def save_a_dataset(path):
    params = GenParams(kind=GraphKind.CHAINS, seed=3, count=2, target_ccr=1.0)
    save_dataset(gen_dataset(params), params, path.parent)


@pytest.mark.parametrize("name, write", [
    ("s.json", lambda path: save_schedule(TestScheduleEntry().fixed_schedule(), path)),
    ("i.json", lambda path: save_instance(instance_from_dict(FIXED_INSTANCE_SOURCE), path)),
    ("manifest.json", save_a_dataset),
], ids=["save_schedule", "save_instance", "save_dataset manifest"])
def test_a_longer_file_is_overwritten_with_the_bytes_of_a_fresh_write(tmp_path, name, write):
    fresh, overwritten = fresh_and_overwritten(tmp_path, write, name)
    assert overwritten == fresh


def test_output_is_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "s.json"
    _write_text(path, '"donn\u00e9es \U0001f600"')
    assert path.read_bytes() == '"donn\u00e9es \U0001f600"'.encode("utf-8")


@pytest.mark.parametrize("existing", [None, LONGER_FILE], ids=["new path", "existing file"])
def test_a_text_utf8_cannot_encode_writes_no_file(tmp_path, existing):
    # the file used to be opened before the text was encoded, leaving a new file empty
    path = tmp_path / "s.json"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(UnicodeEncodeError):
        _write_text(path, '{"name": "x\ud800"}')
    assert [p.read_bytes() for p in tmp_path.iterdir()] == [existing] * (existing is not None)


#: any string id: quotes, backslashes, control, non-ASCII and astral characters
ENTRY_IDS = st.text()
#: times an entry holds: finite floats, the extremes of ``repr``, ints and bools
ENTRY_TIMES = st.one_of(
    st.floats(min_value=0, allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e16]),
    st.integers(min_value=0, max_value=10**400), st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(ENTRY_IDS, ENTRY_IDS, ENTRY_TIMES, ENTRY_TIMES), max_size=4))
@example([])
@example([('"q\\b\x00\x1f\u00e2\U0001f600', "\u2028", -0.0, 5e-324),
          ("a", "n0", 1e16, 10**20), ("b", "n1", False, True)])
def test_schedule_file_is_the_indented_json(rows):
    sched = Schedule(tuple(ScheduleEntry(task, node, *sorted(times))
                           for task, node, *times in rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "s.json")
        save_schedule(sched, path)
        written = path.read_bytes()
    assert written == (json.dumps(schedule_to_dict(sched), indent=2) + "\n").encode()


def weights(least):
    """Weights of at least ``least``: floats, numpy floats, ``repr`` extremes, ints, a bool."""
    floats = st.floats(min_value=least, allow_infinity=False)
    extremes = [x for x in (5e-324, 1e16, 1e308) if x >= least]
    return st.one_of(floats, floats.map(np.float64), st.sampled_from(extremes),
                     st.integers(min_value=1, max_value=10**20), st.just(True))


@st.composite
def api_instances(draw):
    """An instance built through the API, every map filled in an order drawn apart from the ids'.

    Speeds are at least 1, so every execution time stays finite.
    """
    nodes = draw(st.lists(ENTRY_IDS, min_size=1, max_size=4, unique=True))
    tasks = draw(st.lists(ENTRY_IDS, max_size=5, unique=True))
    pairs = draw(st.permutations(list(itertools.combinations(sorted(nodes), 2))))
    edges = draw(st.lists(st.tuples(st.sampled_from(tasks), st.sampled_from(tasks)), max_size=6)
                 if len(tasks) > 1 else st.just([]))
    rank = {t: i for i, t in enumerate(tasks)}  # edges run forward in the drawn task order
    deps = list(dict.fromkeys((s, d) for s, d in edges if rank[s] < rank[d]))
    return mk_instance(
        {t: draw(weights(5e-324)) for t in tasks},
        {dep: draw(weights(5e-324)) for dep in deps},
        {n: draw(weights(1)) for n in nodes},
        {pair: draw(weights(5e-324)) for pair in pairs},
    )


ODD_ID = '"q\\b\x00\x1f\u00e2\U0001f600'


@settings(max_examples=200, deadline=None)
@given(api_instances())
@example(mk_instance({"a": 1.0}, {}, {"n0": 1.0}))
@example(mk_instance(
    {ODD_ID: 5e-324, " ": 1e308, "a": np.float64(0.1)},
    {(" ", ODD_ID): 3, ("a", ODD_ID): True, (" ", "a"): 1e16},
    {"né": True, "n0": 1e16, ODD_ID: np.float64(2.5)},
    {("n0", "né"): 1e308, (ODD_ID, "né"): 10**20, (ODD_ID, "n0"): 5e-324},
))
def test_instance_file_is_the_indented_json(instance):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "i.json")
        save_instance(instance, path)
        written = path.read_bytes()
    assert written == (json.dumps(instance_to_dict(instance), indent=2) + "\n").encode()


@pytest.mark.parametrize("seed, ccr", [(0, 1.0), (2**63, 0.2)])
def test_manifest_file_is_the_indented_json(tmp_path, seed, ccr):
    params = GenParams(kind=GraphKind.IN_TREES, seed=seed, count=1, target_ccr=ccr)
    dataset = gen_dataset(params)
    save_dataset(dataset, params, tmp_path)
    manifest = {"name": dataset.name, "kind": "in_trees", "target_ccr": ccr, "seed": seed,
                "count": 1}
    assert (tmp_path / "manifest.json").read_bytes() == (
        json.dumps(manifest, indent=2) + "\n").encode()


#: Leaf values the loaders must take or reject the same way: ints and bools, NaN.
#: A weight is a node's speed, a link's strength, a cost, a size or a time.
ODD_LEAVES = {
    "id is an int": 3, "id is a bool": False,
    "weight is an int": 3, "weight is a bool": True, "weight is NaN": math.nan,
}
INSTANCE_FAULTS = (*MALFORMED_CASES, *(case for case, _ in WRONG_SHAPE_INSTANCES), *ODD_LEAVES)
SCHEDULE_FAULTS = (*WRONG_SHAPE_SCHEDULES, *ODD_LEAVES)
#: The id keys and the weight keys of each part's rows.
ROW_KEYS = {
    "nodes": (("id",), ("speed",)), "links": (("u", "v"), ("strength",)),
    "tasks": (("id",), ("cost",)), "deps": (("src", "dst"), ("size",)),
    "entries": (("task", "node"), ("start", "end")),
}
WEIGHTS = st.one_of(st.floats(min_value=1, max_value=1e6), st.integers(1, 10**6))


def fault_lists(faults):
    """0, 1 or 2 faults: two draws, each a fault or none about as often."""
    draws = st.lists(st.one_of(st.sampled_from(faults), st.none()), min_size=2, max_size=2)
    return draws.map(lambda cases: [case for case in cases if case is not None])


@st.composite
def instance_dicts(draw):
    """A valid instance dict: rows in drawn order, each link's ends in either order."""
    ids = st.text(max_size=3)
    nodes = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    tasks = draw(st.lists(ids, max_size=5, unique=True))
    pairs = [draw(st.sampled_from([(u, v), (v, u)])) for u, v in itertools.combinations(nodes, 2)]
    edges = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6))
    deps = list(dict.fromkeys((tasks[s], tasks[d]) for s, d in edges if s < d < len(tasks)))
    return {
        "network": {
            "nodes": [{"id": n, "speed": draw(WEIGHTS)} for n in nodes],
            "links": [{"u": u, "v": v, "strength": draw(WEIGHTS)}
                      for u, v in draw(st.permutations(pairs))],
        },
        "task_graph": {
            "tasks": [{"id": t, "cost": draw(WEIGHTS)} for t in tasks],
            "deps": [{"src": s, "dst": d, "size": draw(WEIGHTS)}
                     for s, d in draw(st.permutations(deps))],
        },
    }


def rows_of(parts, name):
    """The rows of part ``name``, or ``[]`` once a fault has made them something else."""
    rows = parts[name]
    return rows if type(rows) is list and all(type(r) is dict for r in rows) else []


def leaf_key(data, name, case):
    """A drawn key of part ``name`` of the kind ``case`` breaks: an id, or a weight."""
    ids, weights = ROW_KEYS[name]
    return data.draw(st.sampled_from(ids if case.startswith("id") else weights))


def break_leaf(data, parts, case, row):
    """Set a leaf of a drawn part and row to ``ODD_LEAVES[case]``."""
    name = data.draw(st.sampled_from(sorted(k for k in parts if rows_of(parts, k))), label="part")
    row(name)[leaf_key(data, name, case)] = ODD_LEAVES[case]


def inject_instance_fault(data, root, case):
    """``root`` (an instance dict, or a list around one) broken as ``case`` at drawn rows."""
    doc = root
    while type(doc) is list:
        doc = doc[0]
    net, tg = doc["network"] or {}, doc["task_graph"]
    parts = {"nodes": net.get("nodes"), "links": net.get("links"),
             "tasks": tg["tasks"], "deps": tg["deps"]}

    def row(name):
        rows = rows_of(parts, name)
        return rows[data.draw(st.integers(0, len(rows) - 1), label=name)] if rows else {}

    def duplicate(name):
        rows = rows_of(parts, name)
        if rows:
            rows.insert(data.draw(st.integers(0, len(rows))), dict(row(name)))

    if case == "root is a list":
        return [root]
    if case.startswith("duplicate "):
        duplicate(case.removeprefix("duplicate ") + "s")
    elif case in ODD_LEAVES:
        if any(rows_of(parts, name) for name in parts):
            break_leaf(data, parts, case, row)
    elif case == "infinite strength":
        row("links")["strength"] = math.inf
    elif case == "infinite cost":
        row("tasks")["cost"] = math.inf
    elif case == "no nodes":
        net["nodes"], net["links"] = [], []
    elif case == "link to an unknown node":
        if rows_of(parts, "nodes") and type(parts["links"]) is list:
            known = row("nodes").get("id")
            parts["links"].append({"u": known, "v": f"{known}?", "strength": 1.0})
    elif case == "network is null":
        doc["network"] = None
    elif case == "nodes is a number":
        net["nodes"] = 5
    elif case == "task is a string":
        if rows_of(parts, "tasks"):
            tasks = parts["tasks"]
            i = data.draw(st.integers(0, len(tasks) - 1))
            tasks[i] = str(tasks[i].get("id"))
    elif case == "speed is missing":
        row("nodes").pop("speed", None)
    else:
        name, key, value = {
            "speed is null": ("nodes", "speed", None),
            "speed is a list": ("nodes", "speed", [1.0]),
            "speed is true": ("nodes", "speed", True),
            "speed is a numeric string": ("nodes", "speed", "2"),
            "node id is null": ("nodes", "id", None),
            "task id is an integer": ("tasks", "id", 1),
            "cost is a 400-digit integer": ("tasks", "cost", 10**400),
        }[case]
        row(name)[key] = value
    return root


def outcome(load, doc):
    """``("ok", ...)`` with every map's items in order, or ``("error", text)`` of a ValueError."""
    try:
        result = load(copy.deepcopy(doc))
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(result, Schedule):
        return "ok", result.entries
    net, tg = result.network, result.task_graph
    maps = (net.speed, net.strength, tg.compute_cost, tg.data_size)
    return "ok", net.nodes, tuple(tuple(m.items()) for m in maps)


@settings(max_examples=500, deadline=None)
@given(instance_dicts(), fault_lists(INSTANCE_FAULTS), st.data())
def test_instance_loader_equals_the_per_leaf_loader(doc, faults, data):
    for case in faults:
        doc = inject_instance_fault(data, doc, case)
    assert outcome(instance_from_dict, doc) == outcome(reference_instance_from_dict, doc)


@st.composite
def schedule_dicts(draw):
    """A valid schedule dict: any ids, times in order as floats or ints."""
    times = st.one_of(st.floats(min_value=0, max_value=1e9), st.integers(0, 10**9))
    rows = draw(st.lists(st.tuples(st.text(max_size=3), st.text(max_size=3), times, times),
                         max_size=5))
    return {"entries": [{"task": t, "node": v, "start": min(a, b), "end": max(a, b)}
                        for t, v, a, b in rows]}


@settings(max_examples=300, deadline=None)
@given(schedule_dicts(), fault_lists(SCHEDULE_FAULTS), st.data())
def test_schedule_loader_equals_the_per_leaf_loader(doc, faults, data):
    for case in faults:
        entries = doc["entries"]
        if type(entries) is not list or not entries:
            continue
        i = data.draw(st.integers(0, len(entries) - 1))
        if case == "entries is null":
            doc["entries"] = None
        elif case == "entry is a string":
            entries[i] = "b"
        elif type(entries[i]) is dict:
            key = "start" if case.startswith("start") else leaf_key(data, "entries", case)
            entries[i][key] = {"start is null": None, "start is a numeric string": "0",
                               **ODD_LEAVES}[case]
    assert outcome(schedule_from_dict, doc) == outcome(reference_schedule_from_dict, doc)


def leaf_faults(doc, parts):
    """Every one-leaf fault of ``doc`` and every repeated row, as ``(part, row, key, value)``.

    ``parts`` maps a part's name to the path of keys from the root to its rows.
    A key of ``None`` repeats the row; a value of ``KeyError`` deletes the key.
    """
    faults = []
    for name, path in parts.items():
        rows = doc
        for key in path:
            rows = rows[key]
        for i, row in enumerate(rows):
            faults.append((path, i, None, None))
            for key in row:
                faults += [(path, i, key, value) for value in (3, False, None, math.nan, KeyError)]
    return faults


def with_faults(doc, faults):
    doc = copy.deepcopy(doc)
    for path, i, key, value in faults:
        rows = doc
        for step in path:
            rows = rows[step]
        if key is None:
            rows.append(dict(rows[i]))
        elif value is KeyError:
            rows[i].pop(key, None)
        else:
            rows[i][key] = value
    return doc


#: Three nodes with a link written backwards, three tasks and two deps.
TWO_FAULT_INSTANCE = {
    "network": {
        "nodes": [{"id": "n0", "speed": 1.0}, {"id": "n2", "speed": 2}, {"id": "n1", "speed": 1.5}],
        "links": [{"u": "n2", "v": "n0", "strength": 1.0}, {"u": "n0", "v": "n1", "strength": 2.0},
                  {"u": "n1", "v": "n2", "strength": 0.5}],
    },
    "task_graph": {
        "tasks": [{"id": "b", "cost": 1.0}, {"id": "a", "cost": 2.0}, {"id": "c", "cost": 3}],
        "deps": [{"src": "a", "dst": "b", "size": 1.0}, {"src": "b", "dst": "c", "size": 0.5}],
    },
}


def test_every_pair_of_instance_faults_reports_as_the_per_leaf_loader():
    # exhaustive, so the parse order is pinned: a fault early in it wins
    faults = leaf_faults(TWO_FAULT_INSTANCE, {
        "nodes": ("network", "nodes"), "links": ("network", "links"),
        "tasks": ("task_graph", "tasks"), "deps": ("task_graph", "deps"),
    })
    for pair in itertools.combinations(faults, 2):
        doc = with_faults(TWO_FAULT_INSTANCE, pair)
        assert outcome(instance_from_dict, doc) == outcome(reference_instance_from_dict, doc), pair


def test_every_pair_of_schedule_faults_reports_as_the_per_leaf_loader():
    doc = schedule_to_dict(entries(("a", "n0", 0.0, 1.0), ("b", "n1", 1.0, 2.5), ("c", "n0", 1, 3)))
    for pair in itertools.combinations(leaf_faults(doc, {"entries": ("entries",)}), 2):
        broken = with_faults(doc, pair)
        assert (outcome(schedule_from_dict, broken)
                == outcome(reference_schedule_from_dict, broken)), pair
