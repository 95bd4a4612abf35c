import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from listsched import (
    ALIASES,
    CompareKind,
    Network,
    PriorityKind,
    Schedule,
    SchedulerConfig,
    canonical_name,
    config_by_name,
    critical_path_tasks,
    enumerate_configs,
    makespan,
    priority_map,
    schedule,
    validate_schedule,
)
from listsched.model import topological_order
from listsched.scheduler import alias_of
from listsched.selection import Window
from listsched.datagen import GenParams, GraphKind, gen_dataset

from conftest import layered_dag, mk_instance, random_instance
from test_fingerprint import corpus
from reference import (
    best_two_nodes,
    brute_force_min_makespan,
    open_window_append_only,
    open_window_insertion,
    schedule_to_dict,
)

ALL_CONFIGS = enumerate_configs()


def fuzz_instances(seed, count, **kwargs):
    rng = np.random.default_rng(seed)
    return [random_instance(rng, **kwargs) for _ in range(count)]


class TestEnumeration:
    def test_exactly_72_unique(self):
        names = [name for name, _ in ALL_CONFIGS]
        configs = [config for _, config in ALL_CONFIGS]
        assert len(ALL_CONFIGS) == 72
        assert len(set(names)) == 72
        assert len(set(configs)) == 72

    def test_covers_full_cross_product(self):
        combos = {
            (c.initial_priority, c.compare, c.append_only, c.critical_path, c.sufferage)
            for _, c in ALL_CONFIGS
        }
        assert len(combos) == 3 * 3 * 2 * 2 * 2

    def test_sufferage_half(self):
        assert sum(1 for _, c in ALL_CONFIGS if c.sufferage) == 36

    def test_order_is_deterministic(self):
        assert ALL_CONFIGS == enumerate_configs()

    def test_names_round_trip(self):
        for name, config in ALL_CONFIGS:
            assert config_by_name(name) == config
            assert canonical_name(config) == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="FOO"):
            config_by_name("FOO")

    def test_pinned_product_order(self):
        product = itertools.product(
            PriorityKind, CompareKind, (False, True), (False, True), (False, True)
        )
        assert [config for _, config in ALL_CONFIGS] == [SchedulerConfig(*p) for p in product]
        assert (ALL_CONFIGS[0][0], ALL_CONFIGS[-1][0]) == ("EFT_Ins_UR", "Quickest_App_CP_AT_Suf")

    def test_each_call_returns_a_new_list(self):
        mutated = enumerate_configs()
        mutated.reverse()
        mutated.pop()
        assert enumerate_configs() == ALL_CONFIGS
        assert enumerate_configs() is not enumerate_configs()

    def test_lookups_agree_for_every_name_and_alias(self):
        for name, config in ALL_CONFIGS:
            alias = alias_of(config)
            assert alias is None or config_by_name(alias) == config
        for alias, config in ALIASES.items():
            assert config_by_name(alias) == config
            assert alias_of(config) == alias
        assert sum(alias_of(config) is not None for _, config in ALL_CONFIGS) == len(ALIASES) == 4


class TestAliases:
    def test_heft(self):
        config = config_by_name("HEFT")
        assert config == SchedulerConfig(
            PriorityKind.UPWARD_RANKING, CompareKind.EFT,
            append_only=False, critical_path=False, sufferage=False,
        )

    def test_mct(self):
        config = config_by_name("MCT")
        assert config == SchedulerConfig(
            PriorityKind.ARBITRARY_TOPOLOGICAL, CompareKind.EFT,
            append_only=True, critical_path=False, sufferage=False,
        )

    def test_met(self):
        config = config_by_name("MET")
        assert config == SchedulerConfig(
            PriorityKind.ARBITRARY_TOPOLOGICAL, CompareKind.QUICKEST,
            append_only=True, critical_path=False, sufferage=False,
        )

    def test_sufferage_alias(self):
        config = config_by_name("Sufferage")
        assert config == SchedulerConfig(
            PriorityKind.ARBITRARY_TOPOLOGICAL, CompareKind.EFT,
            append_only=True, critical_path=False, sufferage=True,
        )

    def test_aliases_point_at_canonical_configs(self):
        canonical = {config for _, config in ALL_CONFIGS}
        for config in ALIASES.values():
            assert config in canonical


class TestBestTwoNodes:
    def _fake_finder(self, windows):
        return lambda instance, partial, node, task: windows[node]

    def test_single_candidate(self):
        windows = {"n0": Window(0.0, 2.0)}
        best, bw, second, sw = best_two_nodes(
            None, Schedule(()), "t", ["n0"], CompareKind.EFT, self._fake_finder(windows)
        )
        assert (best, bw, second, sw) == ("n0", Window(0.0, 2.0), None, None)

    def test_two_candidates_eft(self):
        windows = {"n0": Window(0.0, 2.0), "n1": Window(0.0, 1.0)}
        best, bw, second, sw = best_two_nodes(
            None, Schedule(()), "t", ["n0", "n1"], CompareKind.EFT,
            self._fake_finder(windows),
        )
        assert best == "n1" and second == "n0"

    def test_tie_goes_to_first_candidate(self):
        windows = {"n0": Window(0.0, 2.0), "n1": Window(0.0, 2.0)}
        best, _, second, _ = best_two_nodes(
            None, Schedule(()), "t", ["n0", "n1"], CompareKind.EFT,
            self._fake_finder(windows),
        )
        assert best == "n0" and second == "n1"

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            best_two_nodes(None, Schedule(()), "t", [], CompareKind.EFT, None)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(31)
        metric = {
            CompareKind.EFT: lambda w: w.end,
            CompareKind.EST: lambda w: w.start,
            CompareKind.QUICKEST: lambda w: w.end - w.start,
        }
        for _ in range(300):
            n = int(rng.integers(1, 7))
            candidates = [f"n{i}" for i in range(n)]
            windows = {}
            for c in candidates:
                start = float(rng.uniform(0, 5))
                # duplicate-heavy values to exercise ties
                windows[c] = Window(round(start, 1), round(start, 1) + round(float(rng.uniform(0.5, 3)), 1))
            for kind in CompareKind:
                best, _, second, _ = best_two_nodes(
                    None, Schedule(()), "t", candidates, kind, self._fake_finder(windows)
                )
                ranked = sorted(candidates, key=lambda c: (metric[kind](windows[c]), candidates.index(c)))
                assert best == ranked[0]
                assert second == (ranked[1] if n > 1 else None)


class TestScheduleExamples:
    def test_single_node_serializes(self):
        inst = mk_instance({"a": 1.0, "b": 1.0}, {}, {"n0": 1.0})
        for _, config in ALL_CONFIGS:
            assert makespan(schedule(inst, config)) == pytest.approx(2.0, rel=1e-12)

    def test_chain_heft(self, chain_fast_slow):
        result = schedule(chain_fast_slow, config_by_name("HEFT"))
        placed = {(e.task, e.node, e.start, e.end) for e in result}
        assert placed == {("A", "n2", 0.0, 0.5), ("B", "n2", 0.5, 1.0)}
        assert makespan(result) == 1.0
        # the exhaustive optimum agrees (checked by brute force)
        assert brute_force_min_makespan(chain_fast_slow) == 1.0

    def test_chain_met_prefers_fastest(self, chain_fast_slow):
        result = schedule(chain_fast_slow, config_by_name("MET"))
        assert {e.node for e in result} == {"n2"}

    def test_empty_task_graph(self):
        inst = mk_instance({}, {}, {"n0": 1.0})
        assert schedule(inst, config_by_name("HEFT")) == Schedule(())

    def test_an_overflowing_chain_is_a_value_error_under_every_config(self):
        # each task runs for 1e308, a finite time, but the chain ends past the largest float
        # so does a's upward rank, which fails first in the 60 configurations that rank
        inst = mk_instance({"a": 1e308, "b": 1e308}, {("a", "b"): 1.0}, {"n0": 1.0})
        for _, config in ALL_CONFIGS:
            ranks = (config.critical_path
                     or config.initial_priority is not PriorityKind.ARBITRARY_TOPOLOGICAL)
            message = ("upward rank of task 'a' is not finite" if ranks
                       else "entry for 'b' has a non-finite time")
            with pytest.raises(ValueError, match=message):
                schedule(inst, config)

    def test_unknown_priority_kind_rejected(self):
        inst = mk_instance({"a": 1.0, "b": 1.0}, {("a", "b"): 1.0}, {"n0": 1.0})
        config = SchedulerConfig("bogus", CompareKind.EFT, False, False, False)
        with pytest.raises(ValueError, match="^unknown priority kind 'bogus'$"):
            schedule(inst, config)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="network has no nodes"):
            Network(frozenset(), {}, {})


class TestSufferage:
    def test_arbitration_prefers_bigger_loser(self):
        # a (cost 1) loses little by moving off the fast node; b (cost 4)
        # loses a lot, so the sufferage scheduler places b first.
        inst = mk_instance(
            {"a": 1.0, "b": 4.0}, {}, {"n0": 1.0, "n1": 0.5}
        )
        plain = schedule(inst, config_by_name("MCT"))
        suff = schedule(inst, config_by_name("Sufferage"))
        assert makespan(plain) == pytest.approx(5.0)
        assert makespan(suff) == pytest.approx(4.0)
        by_task = {e.task: e for e in suff}
        assert by_task["b"].node == "n0" and by_task["b"].start == 0.0
        assert by_task["a"].node == "n1"

    def test_single_node_degenerates_to_priority_order(self):
        inst = mk_instance({"a": 1.0, "b": 2.0}, {}, {"n0": 1.0})
        result = schedule(inst, config_by_name("Sufferage"))
        assert [e.task for e in result] == ["a", "b"]


class TestInvariants:
    def test_validity_fuzz(self):
        instances = fuzz_instances(41, 15) + [
            inst
            for kind in GraphKind
            for inst in gen_dataset(GenParams(kind, seed=42, count=3, target_ccr=1.0)).instances
        ]
        for inst in instances:
            for _, config in ALL_CONFIGS:
                result = schedule(inst, config)
                assert validate_schedule(inst, result) == []

    def test_bitwise_determinism(self):
        for inst in fuzz_instances(43, 10):
            for _, config in ALL_CONFIGS[::7]:
                first = schedule(inst, config)
                second = schedule(inst, config)
                assert first == second
                assert json.dumps(schedule_to_dict(first)) == json.dumps(
                    schedule_to_dict(second)
                )

    def test_quickest_lands_on_fastest_nodes(self):
        for inst in fuzz_instances(44, 25, min_nodes=2):
            top_speed = max(inst.network.speed.values())
            for _, config in ALL_CONFIGS:
                if config.compare is not CompareKind.QUICKEST:
                    continue
                for entry in schedule(inst, config):
                    assert inst.network.speed[entry.node] == top_speed

    def test_quickest_duplicates_equal_their_partners(self):
        # every Quickest task goes to the fastest node, so append-only
        # equals insertion (12 pairs) and, without sufferage, the critical
        # path reservation changes nothing (3 pairs); a tie for the top
        # speed, or a key (s + d) - s that rounds d away, would break this
        pairs = []
        for _, config in ALL_CONFIGS:
            if config.compare is not CompareKind.QUICKEST:
                continue
            if config.append_only:
                pairs.append((config, replace(config, append_only=False)))
            elif config.critical_path and not config.sufferage:
                pairs.append((config, replace(config, critical_path=False)))
        assert len(pairs) == 15
        for inst in [inst for _, inst in corpus()] + fuzz_instances(52, 100):
            speeds = sorted(inst.network.speed.values())
            assert len(speeds) == 1 or speeds[-2] < speeds[-1]
            for config, partner in pairs:
                assert schedule(inst, config) == schedule(inst, partner), canonical_name(config)

    def test_critical_path_tasks_on_reserved_node(self):
        for inst in fuzz_instances(45, 25, min_nodes=2):
            speed = inst.network.speed
            reserved = min(sorted(inst.network.nodes), key=lambda v: (-speed[v], v))
            cp = set(critical_path_tasks(inst))
            for _, config in ALL_CONFIGS:
                if not config.critical_path:
                    continue
                for entry in schedule(inst, config):
                    if entry.task in cp:
                        assert entry.node == reserved

    def test_critical_path_tie_for_fastest_goes_to_smallest_id(self):
        # "b" and "a" tie for the top speed, and "b" comes first in the
        # speed dict; the reserved node is the smaller id, "a"
        inst = mk_instance(
            {"p1": 2.0, "p2": 2.0, "q1": 1.0, "q2": 1.0},
            {("p1", "p2"): 1.0, ("q1", "q2"): 1.0},
            {"b": 2.0, "a": 2.0, "c": 1.0},
        )
        cp = set(critical_path_tasks(inst))
        assert cp == {"p1", "p2"}
        for _, config in ALL_CONFIGS:
            if not config.critical_path:
                continue
            for entry in schedule(inst, config):
                if entry.task in cp:
                    assert entry.node == "a"

    def test_placement_order_is_topological(self):
        for inst in fuzz_instances(46, 25):
            pos = {t: i for i, t in enumerate(topological_order(inst.task_graph))}
            for _, config in ALL_CONFIGS:
                order = [e.task for e in schedule(inst, config)]
                ranks = [pos[t] for t in order]
                for src, dst in inst.task_graph.deps:
                    assert order.index(src) < order.index(dst)
                assert sorted(set(ranks)) == sorted(ranks)  # no duplicates

    def test_cpop_handles_nonmonotone_raw_priorities(self):
        # In-tree where the cheap leaf's summed rank is below its
        # successor's: a raw descending sort would break precedence, the
        # ready-queue scheduler must not.
        inst = mk_instance(
            {"A": 0.01, "B": 1.0, "C": 100.0},
            {("A", "B"): 1.0, ("C", "B"): 1.0},
            {"n0": 1.0, "n1": 1.0},
        )
        values = priority_map(inst, PriorityKind.CPOP_RANKING)
        assert values["A"] < values["B"]  # the non-monotone case is real
        for _, config in ALL_CONFIGS:
            if config.initial_priority is not PriorityKind.CPOP_RANKING:
                continue
            result = schedule(inst, config)
            assert validate_schedule(inst, result) == []
            order = [e.task for e in result]
            assert order.index("A") < order.index("B")
            assert order.index("C") < order.index("B")

    def test_monotone_priorities_follow_global_descending_order(self):
        # with upward ranking, the ready-queue order equals the plain
        # sort by (priority desc, topological position)
        for inst in fuzz_instances(47, 20):
            values = priority_map(inst, PriorityKind.UPWARD_RANKING)
            pos = {t: i for i, t in enumerate(topological_order(inst.task_graph))}
            expected = sorted(values, key=lambda t: (-values[t], pos[t]))
            config = config_by_name("HEFT")
            assert [e.task for e in schedule(inst, config)] == expected

    def test_single_node_collapse(self):
        for inst in fuzz_instances(48, 10, max_nodes=1, min_nodes=1):
            total = sum(
                inst.task_graph.compute_cost[t] / inst.network.speed["n0"]
                for t in sorted(inst.task_graph.tasks)
            )
            for _, config in ALL_CONFIGS:
                assert makespan(schedule(inst, config)) == pytest.approx(total, rel=1e-9)

    def test_insertion_windows_used_are_reachable_by_public_api(self):
        # differential guard on the placement engine: replaying any
        # config's schedule in placement order through the spec-level
        # window finder reproduces each entry exactly; the layered DAG
        # gives long node timelines for the bisected window search
        hand = mk_instance(
            {"a": 1.0, "b": 2.0, "c": 1.0, "d": 0.5},
            {("a", "c"): 1.0, ("b", "c"): 0.5, ("a", "d"): 2.0},
            {"n0": 1.0, "n1": 2.0},
        )
        for inst in [hand, *fuzz_instances(50, 30), layered_dag(51, 150, 16)]:
            for _, config in ALL_CONFIGS:
                finder = (
                    open_window_append_only if config.append_only else open_window_insertion
                )
                replay = []
                for entry in schedule(inst, config):
                    window = finder(inst, Schedule(tuple(replay)), entry.node, entry.task)
                    assert window == Window(entry.start, entry.end)
                    replay.append(entry)

    def test_dominates_brute_force(self):
        rng = np.random.default_rng(49)
        for _ in range(40):
            inst = random_instance(rng, max_tasks=5, max_nodes=3)
            optimum = brute_force_min_makespan(inst)
            for _, config in ALL_CONFIGS:
                value = makespan(schedule(inst, config))
                assert value >= optimum - 1e-9 * max(1.0, optimum)
