"""Makespan and analysis fingerprints on a fixed corpus, bit for bit.

The corpus is the 15 standard datasets (3 kinds x 5 CCRs) at 2 instances
each, plus one layered DAG of 300 tasks on 16 nodes, so long node
timelines and many-candidate node selection are covered too.  The
sha256 of every ``repr(makespan)`` under all 72 configs is pinned: any
change to the engine, the priorities or the tie-breaks that moves a
single bit of a single makespan changes it.

The analysis fingerprint pins the bytes ``listsched analyze`` writes in
all four modes for a results file built from the standard datasets'
makespans and deterministic synthetic runtimes, so a change to the
ratios, the means, the pareto front or the table writers that moves a
single byte changes it.
"""

import csv
import hashlib

from listsched import ProblemInstance, enumerate_configs, makespan, schedule
from listsched.cli import main
from listsched.datagen import STANDARD_CCRS, Dataset, GenParams, GraphKind, gen_dataset

from conftest import layered_dag

EXPECTED_SHA256 = "f114658fe7c60f757e0dd96ef0c384caa2f9b540b6a57233178f413918b1ea1c"
EXPECTED_ANALYSIS_SHA256 = "a0dd41b997039c3ba8ce1176b2f770dd274e071e29ebdb371482c27ef654166d"


def standard_datasets() -> list[Dataset]:
    return [
        gen_dataset(GenParams(kind, seed=7000 + 17 * k + c, count=2, target_ccr=target))
        for k, kind in enumerate(GraphKind)
        for c, target in enumerate(STANDARD_CCRS)
    ]


def corpus() -> list[tuple[str, ProblemInstance]]:
    out = [
        (f"{dataset.name}/{i}", inst)
        for dataset in standard_datasets()
        for i, inst in enumerate(dataset.instances)
    ]
    out.append(("layered_300x16", layered_dag(20261018, 300, 16)))
    return out


def test_makespan_fingerprint():
    digest = hashlib.sha256()
    for label, instance in corpus():
        for name, config in enumerate_configs():
            line = f"{label} {name} {makespan(schedule(instance, config))!r}\n"
            digest.update(line.encode())
    assert digest.hexdigest() == EXPECTED_SHA256


def write_synthetic_results(path) -> None:
    """Every config on every standard instance; runtimes are a fixed function
    of the task count, the config and the instance, never a clock."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "instance", "scheduler", "makespan",
                         "runtime_seconds", "makespan_ratio", "runtime_ratio", "error"])
        serial = 0
        for dataset in standard_datasets():
            for i, instance in enumerate(dataset.instances):
                n_tasks = len(instance.task_graph.tasks)
                for k, (name, config) in enumerate(enumerate_configs()):
                    runtime = (n_tasks + 1) * (1 + (37 * k + 11 * serial) % 23) * 1e-5
                    writer.writerow([dataset.name, i, name,
                                     repr(makespan(schedule(instance, config))),
                                     repr(runtime), "", "", ""])
                serial += 1


def test_analysis_fingerprint(tmp_path):
    results = tmp_path / "results.csv"
    write_synthetic_results(results)
    runs = [
        ("ratios.csv", ["--mode", "ratios"]),
        ("pareto.csv", ["--mode", "pareto"]),
        ("effects.csv", ["--mode", "effects"]),
        ("interactions.csv", ["--mode", "interactions", "--params", "compare,ccr"]),
    ]
    for out, mode in runs:
        assert main(["analyze", "--results", str(results), *mode,
                     "--out", str(tmp_path / out)]) == 0
    digest = hashlib.sha256()
    for name in ("ratios.csv", "pareto.csv", "pareto.svg", "effects.csv", "interactions.csv"):
        digest.update(name.encode() + b"\n" + (tmp_path / name).read_bytes())
    assert digest.hexdigest() == EXPECTED_ANALYSIS_SHA256
