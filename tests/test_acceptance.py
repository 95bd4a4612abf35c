"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import csv

import numpy as np
import pytest

from listsched import (
    CompareKind,
    PriorityKind,
    SchedulerConfig,
    ccr,
    config_by_name,
    critical_path_tasks,
    enumerate_configs,
    makespan,
    pareto_front,
    priority_map,
    scale_to_ccr,
    schedule,
    validate_schedule,
)
from listsched.cli import main
from listsched.datagen import STANDARD_CCRS, GenParams, GraphKind, gen_dataset
from listsched.model import topological_order

from conftest import random_instance
from reference import brute_force_min_makespan

ALL_CONFIGS = enumerate_configs()
INSTANCES_PER_DATASET = 10


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def validity_corpus():
    """3 kinds x 5 CCRs, 10 seeded instances each."""
    datasets = []
    for k, kind in enumerate(GraphKind):
        for c, target in enumerate(STANDARD_CCRS):
            params = GenParams(
                kind, seed=1000 + 17 * k + c, count=INSTANCES_PER_DATASET,
                target_ccr=target,
            )
            datasets.append(gen_dataset(params))
    return datasets


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Criterion 11's end-to-end pipeline: 20 datasets -> benchmark -> analyses.

    The paper's fourth dataset family comes from real workflow traces that
    are out of scope here, so the 20-dataset scale is kept with a
    differently seeded chains family.
    """
    root = tmp_path_factory.mktemp("pipeline")
    families = [
        ("in_trees", GraphKind.IN_TREES, 100),
        ("out_trees", GraphKind.OUT_TREES, 200),
        ("chains", GraphKind.CHAINS, 300),
        ("chains2", GraphKind.CHAINS, 400),
    ]
    dirs = []
    for label, kind, seed_base in families:
        for c, target in enumerate(STANDARD_CCRS):
            out = root / f"{label}_ccr_{target:g}"
            assert main([
                "generate", "--kind", kind.value, "--ccr", f"{target:g}",
                "--count", "3", "--seed", str(seed_base + c), "--out", str(out),
            ]) == 0
            if label == "chains2":
                # reseeded family keeps its own name so ratios group correctly
                manifest = out / "manifest.json"
                manifest.write_text(
                    manifest.read_text().replace('"chains_ccr_', '"chains2_ccr_')
                )
            dirs.append(out)
    results = root / "results.csv"
    assert main(
        ["benchmark", "--datasets", *map(str, dirs), "--repeats", "1",
         "--jobs", "1", "--out", str(results)]
    ) == 0
    return root, results


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_criterion_01_config_cardinality():
    names = [name for name, _ in ALL_CONFIGS]
    assert len(ALL_CONFIGS) == 72
    assert len(set(names)) == 72

    classic_rows = {
        "HEFT": ("UpwardRanking", False, "EFT", False, False),
        "MCT": ("ArbitraryTopological", True, "EFT", False, False),
        "MET": ("ArbitraryTopological", True, "Quickest", False, False),
        "Sufferage": ("ArbitraryTopological", True, "EFT", False, True),
    }
    for alias, (prio, append, cmp_kind, critical, suff) in classic_rows.items():
        config = config_by_name(alias)
        assert config == SchedulerConfig(
            PriorityKind(prio), CompareKind(cmp_kind),
            append_only=append, critical_path=critical, sufferage=suff,
        )
    report(1, "72 uniquely named configs; classic aliases map to their component rows")


def test_criterion_02_universal_validity(validity_corpus):
    checked = 0
    for dataset in validity_corpus:
        for instance in dataset.instances:
            for _, config in ALL_CONFIGS:
                violations = validate_schedule(instance, schedule(instance, config))
                assert violations == [], (dataset.name, config, violations)
                checked += 1
    assert checked == 3 * 5 * INSTANCES_PER_DATASET * 72
    report(2, f"{checked} schedules produced zero validator violations")


def test_criterion_03_oracle_dominance():
    rng = np.random.default_rng(2024)
    exact = 0
    for _ in range(200):
        instance = random_instance(rng, max_tasks=5, max_nodes=3)
        optimum = brute_force_min_makespan(instance)
        best = min(makespan(schedule(instance, config)) for _, config in ALL_CONFIGS)
        assert best >= optimum - 1e-9 * max(1.0, abs(optimum))
        if abs(best - optimum) <= 1e-9 * max(1.0, abs(optimum)):
            exact += 1
    assert exact >= 1
    report(3, f"72 configs never beat the oracle on 200 instances; "
              f"best-of-72 matched it on {exact}")


def test_criterion_04_ratio_floor(pipeline):
    _, results = pipeline
    rows = read_rows(results)
    groups = {}
    for row in rows:
        assert float(row["makespan_ratio"]) >= 1.0
        assert float(row["runtime_ratio"]) >= 1.0
        groups.setdefault((row["dataset"], row["instance"]), []).append(row)
    for group in groups.values():
        assert min(float(r["makespan_ratio"]) for r in group) == 1.0
    report(4, f"all {len(rows)} ratios >= 1 with per-instance makespan minimum exactly 1")


def test_criterion_05_quickest_invariant():
    rng = np.random.default_rng(505)
    quickest = [c for _, c in ALL_CONFIGS if c.compare is CompareKind.QUICKEST]
    for _ in range(100):
        instance = random_instance(rng)
        top = max(instance.network.speed.values())
        for config in quickest:
            for entry in schedule(instance, config):
                assert instance.network.speed[entry.node] == top
    report(5, "Quickest configs placed every task on a maximal-speed node "
              "(100 instances)")


def test_criterion_06_critical_path_invariant():
    rng = np.random.default_rng(606)
    reserving = [c for _, c in ALL_CONFIGS if c.critical_path]
    for _ in range(100):
        instance = random_instance(rng)
        speeds = instance.network.speed
        reserved = min(sorted(speeds), key=lambda v: (-speeds[v], v))
        critical = set(critical_path_tasks(instance))
        for config in reserving:
            for entry in schedule(instance, config):
                if entry.task in critical:
                    assert entry.node == reserved
    report(6, "critical-path configs kept every critical task on the fastest node "
              "(100 instances)")


def test_criterion_07_priority_contract():
    rng = np.random.default_rng(707)
    for _ in range(100):
        instance = random_instance(rng)
        positions = {
            t: i for i, t in enumerate(topological_order(instance.task_graph))
        }
        for _, config in ALL_CONFIGS:
            order = [e.task for e in schedule(instance, config)]
            seen = set()
            for task in order:
                assert all(p in seen for p in instance.task_graph.predecessors(task))
                seen.add(task)
            assert len(seen) == len(positions)
        upward = priority_map(instance, PriorityKind.UPWARD_RANKING)
        for src, dst in instance.task_graph.deps:
            assert upward[src] > upward[dst]
    report(7, "final task orders topological for all configs; upward ranks "
              "strictly decrease along deps (100 instances)")


def test_criterion_08_ccr_scaling():
    rng = np.random.default_rng(808)
    for i in range(100):
        kind = list(GraphKind)[i % 3]
        base = gen_dataset(GenParams(kind, seed=9000 + i, count=1, target_ccr=1.0))
        instance = base.instances[0]
        for target in STANDARD_CCRS:
            scaled = scale_to_ccr(instance, target)
            assert ccr(scaled) == pytest.approx(target, rel=1e-9)
    report(8, "scale_to_ccr hit {0.2, 0.5, 1, 2, 5} within 1e-9 on 100 instances")


def test_criterion_09_pareto_correctness():
    rng = np.random.default_rng(909)
    total_points = 0
    for trial in range(1000):
        n = 1000 if trial == 0 else int(rng.integers(0, 61))
        points = [
            (f"s{i}", float(rng.integers(1, 15)), float(rng.integers(1, 15)))
            for i in range(n)
        ]
        marks = pareto_front(points)
        total_points += n
        for i, mark in enumerate(marks):
            dominated = any(
                q[1] < points[i][1] and q[2] < points[i][2] for q in points
            )
            assert mark.pareto_optimal == (not dominated)
    report(9, f"pareto_front matched the pairwise oracle on 1000 point sets "
              f"({total_points} points)")


def test_criterion_10_determinism(tmp_path):
    gen_args = ["generate", "--kind", "out_trees", "--ccr", "2", "--count", "4",
                "--seed", "31"]
    assert main(gen_args + ["--out", str(tmp_path / "a")]) == 0
    assert main(gen_args + ["--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    for label in ("x", "y"):
        assert main(["benchmark", "--datasets", str(tmp_path / "a"),
                     "--repeats", "1", "--out", str(tmp_path / f"{label}.csv")]) == 0
    key = lambda rows: [
        (r["dataset"], r["instance"], r["scheduler"], r["makespan"], r["makespan_ratio"])
        for r in rows
    ]
    assert key(read_rows(tmp_path / "x.csv")) == key(read_rows(tmp_path / "y.csv"))
    report(10, "regeneration byte-identical; benchmark makespan columns identical")


def test_criterion_11_pipeline_shapes(pipeline):
    root, results = pipeline
    rows = read_rows(results)
    datasets = {r["dataset"] for r in rows}
    assert len(datasets) == 20
    for dataset in datasets:
        schedulers = {r["scheduler"] for r in rows if r["dataset"] == dataset}
        assert len(schedulers) == 72

    effects = root / "effects.csv"
    assert main(["analyze", "--results", str(results), "--mode", "effects",
                 "--out", str(effects)]) == 0
    assert len(read_rows(effects)) == 12

    inter = root / "interactions.csv"
    assert main(["analyze", "--results", str(results), "--mode", "interactions",
                 "--params", "compare,ccr", "--out", str(inter)]) == 0
    inter_rows = read_rows(inter)
    assert len(inter_rows) == 15  # 3 compare levels x 5 CCR levels
    assert {r["level_b"] for r in inter_rows} == {"0.2", "0.5", "1", "2", "5"}

    pareto = root / "pareto.csv"
    assert main(["analyze", "--results", str(results), "--mode", "pareto",
                 "--out", str(pareto)]) == 0
    pareto_rows = read_rows(pareto)
    assert len(pareto_rows) == 72
    assert (root / "pareto.svg").is_file()

    # Published pareto tables and effect magnitudes for this family of
    # studies depend on dataset seeds, trace data and the timing machine,
    # none of which are reproducible at desk scale (runtime ratios are
    # estimates by nature), so the gate is the full pipeline running end
    # to end with the documented output shapes.
    report(11, "20 datasets x 72 schedulers pipeline emitted ratio, pareto, "
               "effect and interaction tables with the documented shapes")
