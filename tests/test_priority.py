import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from listsched import (
    Network,
    PriorityKind,
    ProblemInstance,
    critical_path_tasks,
    downward_rank,
    priority_map,
    upward_rank,
)
from listsched.model import topological_order

from conftest import (
    branches_past_the_largest_float,
    fork_with_tiny_weight,
    mk_instance,
    random_instance,
)
from reference import (
    reference_critical_path,
    reference_downward_rank,
    reference_priority_map,
    reference_upward_rank,
)
from test_fingerprint import corpus
from test_properties import problem_instances


# ---------------------------------------------------------------------------
# Independent oracle: enumerate every path and weigh it with the averaged
# execution/communication times computed straight from the definitions.
# ---------------------------------------------------------------------------


def avg_exec(inst, t):
    speeds = inst.network.speed.values()
    return inst.task_graph.compute_cost[t] * sum(1.0 / s for s in speeds) / len(speeds)


def avg_comm(inst, dep):
    strengths = inst.network.strength.values()
    if not strengths:
        return 0.0
    mean_recip = sum(1.0 / s for s in strengths) / len(strengths)
    return inst.task_graph.data_size[dep] * mean_recip


def all_paths_from(inst, start):
    tg = inst.task_graph

    def walk(t):
        succs = tg.successors(t)
        if not succs:
            yield [t]
        for s in succs:
            for tail in walk(s):
                yield [t] + tail

    return list(walk(start))


def path_weight(inst, path):
    total = sum(avg_exec(inst, t) for t in path)
    total += sum(avg_comm(inst, (a, b)) for a, b in zip(path, path[1:]))
    return total


def longest_path_through(inst):
    """Max path weight overall and per task, by full enumeration."""
    best = {}
    overall = 0.0
    sources = [t for t in inst.task_graph.tasks if not inst.task_graph.predecessors(t)]
    for src in sources:
        for path in all_paths_from(inst, src):
            w = path_weight(inst, path)
            overall = max(overall, w)
            for t in path:
                best[t] = max(best.get(t, 0.0), w)
    return overall, best


@pytest.fixture
def chain_ab():
    # A -> B with c(A)=1, c(B)=2, edge size 1, two unit nodes
    return mk_instance(
        {"A": 1.0, "B": 2.0}, {("A", "B"): 1.0}, {"n0": 1.0, "n1": 1.0}
    )


class TestUpwardRank:
    def test_single_task(self):
        inst = mk_instance({"A": 2.0}, {}, {"n0": 1.0, "n1": 1.0})
        assert upward_rank(inst) == {"A": 2.0}

    def test_chain(self, chain_ab):
        ranks = upward_rank(chain_ab)
        assert ranks["B"] == pytest.approx(2.0)
        assert ranks["A"] == pytest.approx(4.0)

    def test_fork_with_vanishing_edges(self):
        inst = mk_instance(
            {"A": 1.0, "B": 1.0, "C": 3.0},
            {("A", "B"): 1e-12, ("A", "C"): 1e-12},
            {"n0": 1.0, "n1": 1.0},
        )
        assert upward_rank(inst)["A"] == pytest.approx(4.0, rel=1e-6)

    def test_matches_longest_path_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            inst = random_instance(rng, max_tasks=8, max_nodes=4)
            ranks = upward_rank(inst)
            for t in inst.task_graph.tasks:
                expected = max(
                    path_weight(inst, p) for p in all_paths_from(inst, t)
                )
                assert ranks[t] == pytest.approx(expected, rel=1e-9)


class TestDownwardRank:
    def test_source_is_zero(self, chain_ab):
        assert downward_rank(chain_ab)["A"] == 0.0

    def test_chain(self, chain_ab):
        assert downward_rank(chain_ab)["B"] == pytest.approx(2.0)

    def test_three_chain(self):
        inst = mk_instance(
            {"A": 1.0, "B": 1.0, "C": 1.0},
            {("A", "B"): 1.0, ("B", "C"): 1.0},
            {"n0": 1.0, "n1": 1.0},
        )
        assert downward_rank(inst)["C"] == pytest.approx(4.0)


class TestPriorityMap:
    def test_cpop_chain_values_tie(self, chain_ab):
        values = priority_map(chain_ab, PriorityKind.CPOP_RANKING)
        assert values["A"] == pytest.approx(4.0)
        assert values["B"] == pytest.approx(4.0)

    def test_arbitrary_topological_counts_down(self):
        inst = mk_instance(
            {"A": 1.0, "B": 1.0, "C": 1.0},
            {("A", "B"): 1.0, ("B", "C"): 1.0},
            {"n0": 1.0},
        )
        values = priority_map(inst, PriorityKind.ARBITRARY_TOPOLOGICAL)
        assert values == {"A": 3.0, "B": 2.0, "C": 1.0}

    def test_upward_ranking_strictly_decreases_along_deps(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            inst = random_instance(rng)
            for kind in (PriorityKind.UPWARD_RANKING, PriorityKind.ARBITRARY_TOPOLOGICAL):
                values = priority_map(inst, kind)
                for src, dst in inst.task_graph.deps:
                    assert values[src] > values[dst]


class TestCriticalPath:
    def test_chain_is_all_critical(self, chain_ab):
        assert critical_path_tasks(chain_ab) == ["A", "B"]

    def test_diamond_heavy_branch(self):
        inst = mk_instance(
            {"A": 1.0, "B": 5.0, "C": 1.0, "D": 1.0},
            {("A", "B"): 1.0, ("A", "C"): 1.0, ("B", "D"): 1.0, ("C", "D"): 1.0},
            {"n0": 1.0, "n1": 1.0},
        )
        path = critical_path_tasks(inst)
        assert "B" in path
        assert "C" not in path
        assert path == ["A", "B", "D"]

    def test_single_task(self):
        inst = mk_instance({"A": 1.0}, {}, {"n0": 1.0})
        assert critical_path_tasks(inst) == ["A"]

    def test_membership_matches_longest_path_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            inst = random_instance(rng, max_tasks=8, max_nodes=4)
            overall, through = longest_path_through(inst)
            expected = {
                t
                for t in inst.task_graph.tasks
                if math.isclose(through.get(t, 0.0), overall, rel_tol=1e-9)
            }
            assert set(critical_path_tasks(inst)) == expected

    def test_result_is_in_topological_order(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            inst = random_instance(rng)
            path = critical_path_tasks(inst)
            pos = {t: i for i, t in enumerate(topological_order(inst.task_graph))}
            assert path == sorted(path, key=pos.__getitem__)

    def test_argmax_set_invariant_under_uniform_scaling(self):
        rng = np.random.default_rng(15)
        for k in (0.25, 3.0, 17.0):
            inst = random_instance(rng, min_tasks=3, min_nodes=2)
            scaled = ProblemInstance(
                network=Network(
                    nodes=inst.network.nodes,
                    speed={v: k * s for v, s in inst.network.speed.items()},
                    strength={p: k * s for p, s in inst.network.strength.items()},
                ),
                task_graph=inst.task_graph,
            )
            assert set(critical_path_tasks(scaled)) == set(critical_path_tasks(inst))
            up, up_k = upward_rank(inst), upward_rank(scaled)
            for t in inst.task_graph.tasks:
                assert up_k[t] == pytest.approx(up[t] / k, rel=1e-9)

    def test_given_cpop_map_gives_the_same_path(self):
        # the path is the argmax set of the CPoP priority map, and that map
        # is the upward plus the downward ranks, bit for bit; the corpus is
        # the standard datasets plus a 300-task layered DAG
        for label, inst in corpus():
            total = priority_map(inst, PriorityKind.CPOP_RANKING)
            top = max(total.values())
            argmax = [t for t in topological_order(inst.task_graph)
                      if math.isclose(total[t], top, rel_tol=1e-9)]
            assert critical_path_tasks(inst) == argmax, label
            up, down = priority_map(inst, PriorityKind.UPWARD_RANKING), downward_rank(inst)
            summed = {t: up[t] + down[t] for t in inst.task_graph.tasks}
            assert hex_map(summed) == hex_map(total), label


def hex_map(ranks):
    return {t: float.hex(r) for t, r in ranks.items()}


def assert_ranks_equal_the_reference(inst):
    assert hex_map(upward_rank(inst)) == hex_map(reference_upward_rank(inst))
    assert hex_map(downward_rank(inst)) == hex_map(reference_downward_rank(inst))
    for kind in PriorityKind:
        assert hex_map(priority_map(inst, kind)) == hex_map(reference_priority_map(inst, kind))
    assert critical_path_tasks(inst) == reference_critical_path(inst)


class TestReferenceRanks:
    """The compiled rank passes equal the spec-level ranks of ``reference.py`` bit for bit."""

    def test_on_the_fingerprint_corpus(self):
        for _, inst in corpus():
            assert_ranks_equal_the_reference(inst)

    @settings(max_examples=200, deadline=None)
    @given(problem_instances(max_tasks=12))
    def test_on_random_dags(self, inst):
        assert_ranks_equal_the_reference(inst)


class TestRankAverages:
    """A speed or strength whose reciprocal overflows makes the rank averages fail, not inf."""

    RANKS = (
        upward_rank,
        downward_rank,
        lambda inst: priority_map(inst, PriorityKind.UPWARD_RANKING),
        lambda inst: priority_map(inst, PriorityKind.CPOP_RANKING),
        critical_path_tasks,
    )

    @pytest.mark.parametrize("weight", ["speed", "strength"])
    def test_an_overflowing_mean_reciprocal_is_an_error(self, weight):
        # every execution and transfer time is finite, so the instance is valid;
        # the ranks used to be all inf and the "critical path" held both siblings
        inst = fork_with_tiny_weight(**{weight: 1e-310})
        message = f"^mean reciprocal {weight} is not finite: the smallest {weight} is 1e-310$"
        for rank in self.RANKS:
            with pytest.raises(ValueError, match=message):
                rank(inst)
        order = priority_map(inst, PriorityKind.ARBITRARY_TOPOLOGICAL)
        assert order == {"a": 3.0, "b": 2.0, "c": 1.0}


class TestRankOverflow:
    """Finite averages whose path sums pass the largest float make the ranks fail, not inf."""

    UPWARD = "^upward rank of task 'a' is not finite: its path sum overflows$"

    def test_upward_rank(self):
        # a and b used to rank inf, above every finite rank
        with pytest.raises(ValueError, match=self.UPWARD):
            upward_rank(branches_past_the_largest_float())

    def test_downward_rank(self):
        with pytest.raises(ValueError, match="^downward rank of task 'e' is not finite: "):
            downward_rank(branches_past_the_largest_float())

    def test_critical_path_tasks(self):
        # every CPoP sum used to be inf, so all 8 tasks of both branches were "critical"
        inst = branches_past_the_largest_float()
        with pytest.raises(ValueError, match=self.UPWARD):
            critical_path_tasks(inst)
        assert priority_map(inst, PriorityKind.ARBITRARY_TOPOLOGICAL)["a"] == 8.0

    def test_cpop_priority(self):
        # a's upward rank rounds to the largest float and b's sum, rounded
        # the other way, to inf; the "critical path" used to be b alone
        inst = mk_instance(
            {"a": 2.0**1023 - 2.0**971, "b": 2.0**1023}, {("a", "b"): 1.5 * 2.0**969},
            {"n0": 1.0, "n1": 1.0},
        )
        assert upward_rank(inst)["a"] == sys.float_info.max and downward_rank(inst)["b"] < math.inf
        message = "^CPoP priority of task 'b' is not finite: "
        for rank in (lambda i: priority_map(i, PriorityKind.CPOP_RANKING), critical_path_tasks):
            with pytest.raises(ValueError, match=message):
                rank(inst)
