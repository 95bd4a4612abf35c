import csv
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from listsched import (
    BenchmarkRecord,
    CompareKind,
    PriorityKind,
    RatioRow,
    Schedule,
    ScheduleEntry,
    component_effects,
    compute_ratios,
    config_by_name,
    enumerate_configs,
    interaction_effects,
    makespan,
    mean_ratio_points,
    pareto_front,
    run_benchmark,
    schedule,
)
from listsched.bench import (
    CONFIG_PARAMETERS,
    DERIVED_PARAMETERS,
    RESULTS_HEADER,
    EffectRow,
    InteractionCell,
    ParetoPoint,
    pareto_svg,
    read_results_csv,
    write_results_csv,
    write_table_csv,
)
from listsched.cli import main
from listsched.datagen import Dataset, GenParams, GraphKind, gen_dataset

from conftest import (
    LONGER_FILE,
    branches_past_the_largest_float,
    fork_with_tiny_weight,
    fresh_and_overwritten,
    mk_instance,
    random_instance,
)
from reference import (
    brute_force_min_makespan,
    open_window_insertion,
    reference_write_table_csv,
)

ALL_CONFIGS = enumerate_configs()


def record(dataset, idx, scheduler, ms, rt, error=None):
    return BenchmarkRecord(dataset, idx, scheduler, ms, rt, error)


def ratio_row(scheduler, mr, rr=1.0, dataset="d_ccr_1", idx=0):
    return RatioRow(dataset, idx, scheduler, mr, rr)


def full_grid_rows(value_of, datasets=("in_trees_ccr_0.2", "chains_ccr_5"), indices=(0, 1)):
    """RatioRows covering the full 72-config cross product.

    ``value_of(name, config, dataset, idx) -> (makespan_ratio, runtime_ratio)``
    """
    rows = []
    for dataset in datasets:
        for idx in indices:
            for name, config in ALL_CONFIGS:
                mr, rr = value_of(name, config, dataset, idx)
                rows.append(RatioRow(dataset, idx, name, mr, rr))
    return rows


class TestComputeRatios:
    def test_three_schedulers(self):
        records = [
            record("d", 0, "A", 10.0, 3.0),
            record("d", 0, "B", 8.0, 1.0),
            record("d", 0, "C", 12.0, 2.0),
        ]
        rows = {r.scheduler: r for r in compute_ratios(records)}
        assert rows["A"].makespan_ratio == 1.25
        assert rows["B"].makespan_ratio == 1.0
        assert rows["C"].makespan_ratio == 1.5
        assert rows["A"].runtime_ratio == 3.0
        assert rows["B"].runtime_ratio == 1.0

    def test_single_scheduler(self):
        rows = compute_ratios([record("d", 0, "A", 5.0, 0.1)])
        assert rows[0].makespan_ratio == 1.0
        assert rows[0].runtime_ratio == 1.0

    def test_equal_makespans(self):
        records = [record("d", 0, s, 4.0, 1.0) for s in "AB"]
        assert all(r.makespan_ratio == 1.0 for r in compute_ratios(records))

    def test_groups_are_per_instance(self):
        records = [
            record("d", 0, "A", 10.0, 1.0),
            record("d", 1, "A", 3.0, 1.0),
            record("d", 0, "B", 5.0, 1.0),
            record("d", 1, "B", 6.0, 1.0),
        ]
        rows = {(r.instance_index, r.scheduler): r for r in compute_ratios(records)}
        assert rows[(0, "A")].makespan_ratio == 2.0
        assert rows[(1, "A")].makespan_ratio == 1.0
        assert rows[(1, "B")].makespan_ratio == 2.0

    def test_floor_and_exact_minimum(self):
        rng = np.random.default_rng(61)
        records = []
        for idx in range(20):
            for s in "ABCDE":
                records.append(
                    record("d", idx, s, float(rng.uniform(1, 9)), float(rng.uniform(0.1, 2)))
                )
        rows = compute_ratios(records)
        assert all(r.makespan_ratio >= 1.0 for r in rows)
        assert all(r.runtime_ratio >= 1.0 for r in rows)
        for idx in range(20):
            group = [r for r in rows if r.instance_index == idx]
            assert min(r.makespan_ratio for r in group) == 1.0
            assert min(r.runtime_ratio for r in group) == 1.0

    def test_zero_makespan_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            compute_ratios([record("d", 0, "A", 0.0, 1.0)])

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            compute_ratios([])

    def test_errored_records_are_excluded(self):
        records = [
            record("d", 0, "A", 10.0, 2.0),
            record("d", 0, "B", math.nan, math.nan, error="boom"),
        ]
        rows = compute_ratios(records)
        assert [r.scheduler for r in rows] == ["A"]

    def test_duplicate_row_rejected(self):
        # B's repeated row on instance 1 used to count twice in its mean
        # ratio, 1.333 instead of 1.5
        records = [
            record("d", 0, "A", 1.0, 1.0),
            record("d", 0, "B", 2.0, 1.0),
            record("d", 1, "A", 4.0, 1.0),
            record("d", 1, "B", 2.0, 1.0),
            record("d", 1, "B", 2.0, 1.0),
        ]
        with pytest.raises(ValueError, match=r"duplicate row for \('d', 1, 'B'\)"):
            compute_ratios(records)

    def test_rows_come_in_group_then_record_order(self):
        # every mean ratio sums its rows in this order
        records = [
            record("d", 1, "A", 2.0, 1.0),
            record("d", 0, "A", 1.0, 1.0),
            record("d", 1, "B", 1.0, 2.0),
            record("d", 0, "B", math.nan, math.nan, error="boom"),
            record("d", 0, "C", 3.0, 3.0),
        ]
        rows = compute_ratios(records)
        assert [(r.instance_index, r.scheduler) for r in rows] == [
            (1, "A"), (1, "B"), (0, "A"), (0, "C")
        ]
        assert [(r.makespan_ratio, r.runtime_ratio) for r in rows] == [
            (2.0, 1.0), (1.0, 2.0), (1.0, 1.0), (3.0, 3.0)
        ]

    def test_duplicate_is_reported_before_a_failed_instance(self):
        records = [
            record("d", 0, "A", math.nan, math.nan, error="boom"),
            record("d", 1, "A", 1.0, 1.0),
            record("d", 1, "A", 1.0, 1.0),
        ]
        with pytest.raises(ValueError, match=r"duplicate row for \('d', 1, 'A'\)"):
            compute_ratios(records)
        with pytest.raises(ValueError, match=r"no successful records for \('d', 0\)"):
            compute_ratios(records[:2])


class TestParetoFront:
    def test_corner_point_dominated(self):
        points = [("a", 1.0, 2.0), ("b", 2.0, 1.0), ("c", 2.5, 2.5)]
        out = {p.scheduler: p.pareto_optimal for p in pareto_front(points)}
        assert out == {"a": True, "b": True, "c": False}

    def test_boundary_tie_is_not_dominated(self):
        # dominance requires BOTH coordinates strictly lower: a point that
        # ties one coordinate of every rival stays on the front
        points = [("a", 1.0, 2.0), ("b", 2.0, 1.0), ("c", 2.0, 2.0)]
        out = {p.scheduler: p.pareto_optimal for p in pareto_front(points)}
        assert out == {"a": True, "b": True, "c": True}

    def test_single_point(self):
        assert pareto_front([("a", 3.0, 3.0)])[0].pareto_optimal

    def test_duplicates_do_not_dominate(self):
        points = [("a", 1.0, 1.0), ("b", 1.0, 1.0)]
        assert all(p.pareto_optimal for p in pareto_front(points))

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(62)
        for trial in range(60):
            n = int(rng.integers(0, 1001 if trial < 3 else 80))
            # integer-valued grid makes ties and duplicates common
            points = [
                (f"s{i}", float(rng.integers(1, 12)), float(rng.integers(1, 12)))
                for i in range(n)
            ]
            result = pareto_front(points)
            for i, p in enumerate(result):
                dominated = any(
                    q[1] < points[i][1] and q[2] < points[i][2] for q in points
                )
                assert p.pareto_optimal == (not dominated)
                assert p.scheduler == points[i][0]


def test_config_parameters_are_read_off_the_scheduler_table():
    # the table CONFIG_PARAMETERS once spelled out by hand, keys and levels in order
    expected = {
        "initial_priority": tuple(k.value for k in PriorityKind),
        "compare": tuple(k.value for k in CompareKind),
        "append_only": ("False", "True"),
        "critical_path": ("False", "True"),
        "sufferage": ("False", "True"),
    }
    assert list(CONFIG_PARAMETERS.items()) == list(expected.items())


class TestComponentEffects:
    def test_eft_level_mean_isolated(self):
        rows = full_grid_rows(
            lambda name, config, ds, i: (1.0 if config.compare.value == "EFT" else 2.0, 1.0)
        )
        effects = {(e.parameter, e.level): e for e in component_effects(rows)}
        assert effects[("compare", "EFT")].mean_makespan_ratio == 1.0
        assert effects[("compare", "EST")].mean_makespan_ratio == 2.0
        assert effects[("compare", "Quickest")].mean_makespan_ratio == 2.0

    def test_all_equal_rows_give_equal_means(self):
        rows = full_grid_rows(lambda *a: (1.5, 2.5))
        for e in component_effects(rows):
            assert e.mean_makespan_ratio == 1.5
            assert e.mean_runtime_ratio == 2.5

    def test_twelve_rows(self):
        rows = full_grid_rows(lambda *a: (1.0, 1.0))
        effects = component_effects(rows)
        assert len(effects) == 12
        assert [e.parameter for e in effects].count("compare") == 3
        assert [e.parameter for e in effects].count("append_only") == 2

    def test_balanced_design_grand_mean_identity(self):
        rng = np.random.default_rng(63)
        rows = full_grid_rows(lambda *a: (float(rng.uniform(1, 3)), 1.0))
        grand = sum(r.makespan_ratio for r in rows) / len(rows)
        effects = component_effects(rows)
        for parameter in ("initial_priority", "compare", "append_only"):
            level_means = [e.mean_makespan_ratio for e in effects if e.parameter == parameter]
            assert sum(level_means) / len(level_means) == pytest.approx(grand, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(64)
        rows = full_grid_rows(lambda *a: (float(rng.uniform(1, 3)), float(rng.uniform(1, 9))))
        shuffled = list(rows)
        rng.shuffle(shuffled)
        a = component_effects(rows)
        b = component_effects(shuffled)
        for x, y in zip(a, b):
            assert x.parameter == y.parameter and x.level == y.level
            assert x.mean_makespan_ratio == pytest.approx(y.mean_makespan_ratio, rel=1e-12)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="no ratio rows"):
            component_effects([])

    def test_incomplete_cross_product_rejected(self):
        rows = full_grid_rows(lambda *a: (1.0, 1.0))[:-1]
        with pytest.raises(ValueError, match="confounded"):
            component_effects(rows)

    def test_duplicated_row_rejected(self):
        rows = full_grid_rows(lambda *a: (1.0, 1.0))
        with pytest.raises(ValueError, match="confounded"):
            component_effects(rows + rows[:1])

    def test_alias_stands_for_its_canonical_name(self):
        rows = full_grid_rows(lambda name, *a: (len(name) / 10, 1.0))
        aliased = [replace(r, scheduler="HEFT") if r.scheduler == "EFT_Ins_UR" else r
                   for r in rows]
        assert component_effects(aliased) == component_effects(rows)


class TestInteractionEffects:
    def test_inflated_cell_stays_isolated(self):
        def value(name, config, ds, i):
            inflated = config.compare.value == "EFT" and config.append_only
            return (5.0 if inflated else 1.0, 1.0)

        cells = interaction_effects(full_grid_rows(value), "compare", "append_only")
        by_key = {(c.level_a, c.level_b): c.mean_makespan_ratio for c in cells}
        assert by_key[("EFT", "True")] == 5.0
        assert by_key[("EFT", "False")] == 1.0
        assert by_key[("EST", "True")] == 1.0

    def test_compare_by_ccr_shape(self):
        datasets = [f"in_trees_ccr_{c:g}" for c in (0.2, 0.5, 1.0, 2.0, 5.0)]
        rows = full_grid_rows(lambda *a: (1.0, 1.0), datasets=datasets, indices=(0,))
        cells = interaction_effects(rows, "compare", "ccr")
        assert len(cells) == 15
        assert [c.level_b for c in cells[:5]] == ["0.2", "0.5", "1", "2", "5"]

    def test_dataset_type_levels(self):
        datasets = ["in_trees_ccr_1", "chains_ccr_1"]
        rows = full_grid_rows(lambda *a: (1.0, 1.0), datasets=datasets)
        cells = interaction_effects(rows, "sufferage", "dataset_type")
        assert {c.level_b for c in cells} == {"in_trees", "chains"}

    def test_absent_level_pairs_dropped(self):
        # in_trees only at CCR 0.2 and chains only at CCR 5: two of four pairs
        rows = full_grid_rows(lambda *a: (1.0, 1.0))
        cells = interaction_effects(rows, "dataset_type", "ccr")
        assert [(c.level_a, c.level_b) for c in cells] == [("chains", "5"), ("in_trees", "0.2")]

    def test_same_parameter_rejected(self):
        rows = full_grid_rows(lambda *a: (1.0, 1.0))
        with pytest.raises(ValueError, match="must differ"):
            interaction_effects(rows, "compare", "compare")

    def test_every_pair_equals_a_plain_filter_and_mean(self):
        # "10" sorts before "2" as text; CCR levels must sort as numbers
        levels = {**CONFIG_PARAMETERS, "dataset_type": ("chains", "out_trees"),
                  "ccr": ("0.2", "2", "10")}
        datasets = [f"{kind}_ccr_{ccr}" for kind in ("out_trees", "chains")
                    for ccr in ("10", "0.2", "2")]
        rng = np.random.default_rng(65)
        rows = full_grid_rows(
            lambda *a: (float(rng.uniform(1, 3)), float(rng.uniform(1, 9))), datasets=datasets
        )

        def level(row, parameter):
            if parameter in DERIVED_PARAMETERS:
                kind, ccr = row.dataset.split("_ccr_")
                return kind if parameter == "dataset_type" else ccr
            value = getattr(config_by_name(row.scheduler), parameter)
            return str(getattr(value, "value", value))

        def means(parameters, cell):
            chosen = [r for r in rows if all(level(r, p) == v for p, v in zip(parameters, cell))]
            return (sum(r.makespan_ratio for r in chosen) / len(chosen),
                    sum(r.runtime_ratio for r in chosen) / len(chosen))

        for a, b in itertools.permutations(levels, 2):
            cells = interaction_effects(rows, a, b)
            grid = list(itertools.product(levels[a], levels[b]))
            assert [(c.level_a, c.level_b) for c in cells] == grid
            assert {(c.parameter_a, c.parameter_b) for c in cells} == {(a, b)}
            for c in cells:
                assert (c.mean_makespan_ratio, c.mean_runtime_ratio) == means(
                    (a, b), (c.level_a, c.level_b))
        effects = component_effects(rows)
        assert [(e.parameter, e.level) for e in effects] == [
            (p, v) for p in CONFIG_PARAMETERS for v in levels[p]]
        for e in effects:
            assert (e.mean_makespan_ratio, e.mean_runtime_ratio) == means(
                (e.parameter,), (e.level,))


class TestBruteForce:
    def test_single_task_picks_fastest(self):
        inst = mk_instance({"a": 2.0}, {}, {"n0": 1.0, "n1": 2.0})
        assert brute_force_min_makespan(inst) == 1.0

    def test_two_independent_tasks_in_parallel(self):
        inst = mk_instance({"a": 1.0, "b": 1.0}, {}, {"n0": 1.0, "n1": 1.0})
        assert brute_force_min_makespan(inst) == 1.0

    def test_guard_against_blowup(self):
        big = mk_instance({f"t{i}": 1.0 for i in range(9)}, {}, {"n0": 1.0})
        with pytest.raises(ValueError, match="too large"):
            brute_force_min_makespan(big)
        wide = mk_instance(
            {"a": 1.0}, {}, {f"n{i}": 1.0 for i in range(4)}
        )
        with pytest.raises(ValueError, match="too large"):
            brute_force_min_makespan(wide)

    def test_equals_unpruned_spec_level_enumeration(self):
        # the oracle's depth-first search with pruning and backtracking must find
        # exactly the minimum over every (topological order, assignment)
        # pair, each schedule rebuilt from scratch by the spec-level finder
        rng = np.random.default_rng(66)
        for n_tasks, n_nodes in [(5, 2)] * 10 + [(4, 3)] * 10:
            inst = random_instance(
                rng, min_tasks=n_tasks - 1, max_tasks=n_tasks,
                min_nodes=n_nodes, max_nodes=n_nodes, edge_prob=0.4,
            )
            tasks = sorted(inst.task_graph.tasks)
            nodes = inst.network.node_order()
            expected = math.inf
            for order in itertools.permutations(tasks):
                if any(order.index(a) > order.index(b) for a, b in inst.task_graph.deps):
                    continue
                for assignment in itertools.product(nodes, repeat=len(order)):
                    partial = Schedule(())
                    for t, v in zip(order, assignment):
                        w = open_window_insertion(inst, partial, v, t)
                        partial = Schedule((*partial.entries, ScheduleEntry(t, v, *w)))
                    expected = min(expected, makespan(partial))
            assert brute_force_min_makespan(inst) == expected

    def test_never_above_any_scheduler(self):
        rng = np.random.default_rng(65)
        for _ in range(15):
            inst = random_instance(rng, max_tasks=4, max_nodes=3)
            optimum = brute_force_min_makespan(inst)
            values = [makespan(schedule(inst, c)) for _, c in ALL_CONFIGS[::11]]
            assert optimum <= min(values) + 1e-9


@pytest.fixture(scope="module")
def tiny_dataset():
    return gen_dataset(GenParams(GraphKind.CHAINS, seed=77, count=2, target_ccr=1.0))


class TestRunBenchmark:
    def test_record_per_pair(self, tiny_dataset):
        records = run_benchmark([tiny_dataset], ALL_CONFIGS, timing_repeats=1)
        assert len(records) == 2 * 72
        keys = {(r.dataset, r.instance_index, r.scheduler) for r in records}
        assert len(keys) == 144
        assert all(r.runtime_seconds > 0 for r in records)
        assert all(r.error is None for r in records)

    def test_makespans_reproducible_runtimes_not_required_to_be(self, tiny_dataset):
        a = run_benchmark([tiny_dataset], ALL_CONFIGS[:5], timing_repeats=1)
        b = run_benchmark([tiny_dataset], ALL_CONFIGS[:5], timing_repeats=1)
        assert [r.makespan for r in a] == [r.makespan for r in b]

    def test_a_rank_failure_is_recorded_and_the_sweep_goes_on(self):
        dataset = Dataset("chains_ccr_1", (fork_with_tiny_weight(speed=1e-310),))
        configs = [(name, config_by_name(name)) for name in ("HEFT", "MCT")]
        heft, mct = run_benchmark([dataset], configs, timing_repeats=1)
        assert heft.error == (
            "ValueError: mean reciprocal speed is not finite: the smallest speed is 1e-310"
        )
        assert math.isnan(heft.makespan)
        assert mct.error is None and math.isfinite(mct.makespan)

    def test_a_path_sum_overflow_is_recorded_for_every_config_that_ranks(self):
        dataset = Dataset("chains_ccr_1", (branches_past_the_largest_float(),))
        records = run_benchmark([dataset], ALL_CONFIGS, timing_repeats=1)
        errors = {r.scheduler: r.error for r in records}
        ranking = {name for name, c in ALL_CONFIGS if c.critical_path
                   or c.initial_priority is not PriorityKind.ARBITRARY_TOPOLOGICAL}
        assert len(ranking) == 60
        assert {name for name, error in errors.items() if error == (
            "ValueError: upward rank of task 'a' is not finite: its path sum overflows"
        )} == ranking
        assert errors["EFT_App_AT"] is None  # MCT

    def test_input_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            run_benchmark([], ALL_CONFIGS, timing_repeats=1)
        with pytest.raises(ValueError):
            run_benchmark([tiny_dataset], [], timing_repeats=1)
        with pytest.raises(ValueError):
            run_benchmark([tiny_dataset], ALL_CONFIGS, timing_repeats=0)

    def test_parallel_jobs_match_serial_makespans(self, tiny_dataset):
        serial = run_benchmark([tiny_dataset], ALL_CONFIGS[:4], timing_repeats=1)
        parallel = run_benchmark([tiny_dataset], ALL_CONFIGS[:4], timing_repeats=1, jobs=2)
        assert [r.makespan for r in serial] == [r.makespan for r in parallel]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_schedule_call_per_timed_run(self, tiny_dataset, monkeypatch, jobs):
        import listsched.bench as bench_mod

        calls = []

        def counting(instance, config):
            calls.append(config)
            return schedule(instance, config)

        monkeypatch.setattr(bench_mod, "schedule", counting)
        records = run_benchmark([tiny_dataset], ALL_CONFIGS[:4], timing_repeats=3, jobs=jobs)
        assert len(calls) == 3 * len(records) == 3 * 2 * 4
        assert [r.makespan for r in records] == [
            makespan(schedule(inst, config))
            for inst in tiny_dataset.instances
            for _, config in ALL_CONFIGS[:4]
        ]

    def test_every_timed_run_pays_for_its_own_set_up(self, monkeypatch):
        # runtime_ratio compares what each run pays: a cache that carried
        # the compiled instance, the priorities or the engine from one run
        # to the next would make the later repeats cheaper and skew the
        # medians, and so would one kept on the instance itself
        import copy

        import listsched.scheduler as scheduler_mod
        from listsched.priority import _Compiled
        from listsched.selection import _PlacementState

        compiles, rankings, engines = [], [], []
        compile_init, engine_init = _Compiled.__init__, _PlacementState.__init__
        priorities = scheduler_mod._priorities

        def counting_compile(self, instance):
            compiles.append(instance)
            compile_init(self, instance)

        def counting_priorities(instance, form, kind, critical_path=False):
            rankings.append(form)
            return priorities(instance, form, kind, critical_path)

        def counting_engine(self, instance, form):
            engines.append(form)
            engine_init(self, instance, form)

        monkeypatch.setattr(_Compiled, "__init__", counting_compile)
        monkeypatch.setattr(scheduler_mod, "_priorities", counting_priorities)
        monkeypatch.setattr(_PlacementState, "__init__", counting_engine)
        one = gen_dataset(GenParams(GraphKind.CHAINS, seed=3, count=1, target_ccr=1.0))
        (instance,) = one.instances
        parts = (instance, instance.task_graph, instance.network)
        before = copy.deepcopy([vars(part) for part in parts])
        configs = [(name, config_by_name(name)) for name in ("HEFT", "MCT")]
        records = run_benchmark([one], configs, timing_repeats=3)
        assert [r.error for r in records] == [None, None]
        assert len(compiles) == len(rankings) == len(engines) == 6
        # each run ranks and places on the form compiled in that run
        assert rankings == engines and len({id(form) for form in rankings}) == 6
        assert [vars(part) for part in parts] == before

    def test_failure_is_recorded_and_the_sweep_continues(self, tiny_dataset, monkeypatch):
        import listsched.bench as bench_mod

        failing = ALL_CONFIGS[1][1]

        def stub(instance, config):
            if config == failing:
                raise RuntimeError("boom")
            return schedule(instance, config)

        monkeypatch.setattr(bench_mod, "schedule", stub)
        records = run_benchmark([tiny_dataset], ALL_CONFIGS[:3], timing_repeats=2)
        assert len(records) == 2 * 3
        for r in records:
            if r.scheduler == ALL_CONFIGS[1][0]:
                assert r.error == "RuntimeError: boom"
                assert math.isnan(r.makespan) and math.isnan(r.runtime_seconds)
            else:
                assert r.error is None
                assert r.makespan > 0 and r.runtime_seconds > 0

    @pytest.mark.parametrize("caller_gc", [True, False])
    def test_gc_is_off_only_inside_timed_calls(self, tiny_dataset, monkeypatch, caller_gc):
        import gc

        import listsched.bench as bench_mod

        seen = []

        def stub(instance, config):
            seen.append(gc.isenabled())
            if config == ALL_CONFIGS[0][1]:
                raise RuntimeError("boom")
            return schedule(instance, config)

        monkeypatch.setattr(bench_mod, "schedule", stub)
        was_enabled = gc.isenabled()
        (gc.enable if caller_gc else gc.disable)()
        try:
            records = run_benchmark([tiny_dataset], ALL_CONFIGS[:2], timing_repeats=2)
            after = gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen and not any(seen)
        assert after is caller_gc
        assert [r.error is None for r in records] == [False, True] * 2

    def test_runtime_is_median_of_repeats(self, tiny_dataset, monkeypatch):
        import listsched.bench as bench_mod

        # scripted clock: the three timed runs take 4ms, 1ms and 2ms
        ticks = iter([0.0, 0.004, 1.0, 1.001, 2.0, 2.002] * 1000)
        monkeypatch.setattr(bench_mod.time, "perf_counter", lambda: next(ticks))
        one = gen_dataset(GenParams(GraphKind.CHAINS, seed=3, count=1, target_ccr=1.0))
        records = run_benchmark([one], ALL_CONFIGS[:1], timing_repeats=3)
        assert records[0].runtime_seconds == pytest.approx(0.002)


class TestCsv:
    def test_round_trip(self, tmp_path):
        records = [
            record("d_ccr_1", 0, "HEFT", 2.5, 0.001),
            record("d_ccr_1", 0, "MCT", 3.5, 0.0005),
            record("d_ccr_1", 1, "HEFT", math.nan, math.nan, error="boom"),
        ]
        ratios = compute_ratios(records[:2])
        path = tmp_path / "results.csv"
        write_results_csv(path, records, ratios)
        with open(path) as fh:
            header = next(csv.reader(fh))
        assert header == RESULTS_HEADER
        again = read_results_csv(path)
        assert [(r.dataset, r.instance_index, r.scheduler) for r in again] == [
            ("d_ccr_1", 0, "HEFT"), ("d_ccr_1", 0, "MCT"), ("d_ccr_1", 1, "HEFT")
        ]
        assert again[0].makespan == 2.5
        assert again[2].error == "boom"
        assert math.isnan(again[2].makespan)

    def test_table_header_is_row_fields(self, tmp_path):
        path = tmp_path / "pareto.csv"
        write_table_csv(path, ParetoPoint, [ParetoPoint("A", 0.1 + 0.2, 1.0, True)])
        assert path.read_text().splitlines() == [
            "scheduler,mean_makespan_ratio,mean_runtime_ratio,pareto_optimal",
            "A,0.30000000000000004,1.0,True",
        ]
        write_table_csv(path, EffectRow, [])
        assert path.read_bytes() == b"parameter,level,mean_makespan_ratio,mean_runtime_ratio\r\n"

    def test_tables_equal_astuple_rows_byte_for_byte(self, tmp_path):
        rows = full_grid_rows(lambda name, config, dataset, idx: (
            1.0 + 0.1 * len(name) + 1 / 3 * idx, 1.0 + 0.7 * config.sufferage + 1e-9 * len(dataset)
        ))
        points = pareto_front(mean_ratio_points(rows))
        tables = [
            (ParetoPoint, points),
            (EffectRow, component_effects(rows)),
            (InteractionCell, interaction_effects(rows, "compare", "ccr")),
        ]
        assert {p.pareto_optimal for p in points} == {True, False}
        for row_type, table in tables:
            ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
            write_table_csv(ours, row_type, table)
            reference_write_table_csv(theirs, row_type, table)
            assert ours.read_bytes() == theirs.read_bytes()
            assert len(ours.read_bytes().splitlines()) == len(table) + 1

    @pytest.mark.parametrize("writer", ["write_results_csv", "write_table_csv", "pareto svg"])
    def test_a_longer_file_is_overwritten_with_the_bytes_of_a_fresh_write(self, tmp_path, writer):
        records = [
            record("d_ccr_1", 0, "HEFT", 2.5, 0.001),
            record("d_ccr_1", 0, "MCT", 3.5, 0.0005),
            record("d_ccr_1", 1, "HEFT", math.nan, math.nan, error="boom"),
        ]
        ratios = compute_ratios(records[:2])
        results = tmp_path / "results.csv"
        write_results_csv(results, records[:2], ratios)

        def analyze_pareto(svg):
            assert main(["analyze", "--results", str(results), "--mode", "pareto",
                         "--out", str(svg.with_suffix(".csv"))]) == 0

        name, write = {
            "write_results_csv": ("r.csv", lambda path: write_results_csv(path, records, ratios)),
            "write_table_csv": ("t.csv", lambda path: write_table_csv(
                path, ParetoPoint, pareto_front(mean_ratio_points(ratios)))),
            "pareto svg": ("p.svg", analyze_pareto),
        }[writer]
        fresh, overwritten = fresh_and_overwritten(tmp_path, write, name)
        assert overwritten == fresh

    def test_a_writer_that_raises_leaves_the_file_untouched(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(LONGER_FILE)
        with pytest.raises(AttributeError):
            write_table_csv(path, ParetoPoint, [object()])
        assert path.read_bytes() == LONGER_FILE

    def test_svg_export(self):
        points = pareto_front([("A", 1.0, 2.0), ("B", 2.0, 1.0), ("C", 2.5, 2.5)])
        svg = pareto_svg(points)
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 3
        assert "mean runtime ratio" in svg and "mean makespan ratio" in svg


class TestMeanRatioPoints:
    def test_aggregation(self):
        rows = [
            ratio_row("A", 1.0, 2.0, idx=0),
            ratio_row("A", 3.0, 4.0, idx=1),
            ratio_row("B", 1.0, 1.0, idx=0),
        ]
        points = mean_ratio_points(rows)
        assert points == [("A", 2.0, 3.0), ("B", 1.0, 1.0)]
