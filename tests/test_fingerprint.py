"""Makespan fingerprint: every config's makespan on a fixed corpus, bit for bit.

The corpus is the 15 standard datasets (3 kinds x 5 CCRs) at 2 instances
each, plus one layered DAG of 300 tasks on 16 nodes, so long node
timelines and many-candidate node selection are covered too.  The
sha256 of every ``repr(makespan)`` under all 72 configs is pinned: any
change to the engine, the priorities or the tie-breaks that moves a
single bit of a single makespan changes it.
"""

import hashlib

from listsched import ProblemInstance, enumerate_configs, makespan, schedule
from listsched.datagen import STANDARD_CCRS, GenParams, GraphKind, gen_dataset

from conftest import layered_dag

EXPECTED_SHA256 = "f114658fe7c60f757e0dd96ef0c384caa2f9b540b6a57233178f413918b1ea1c"


def corpus() -> list[tuple[str, ProblemInstance]]:
    out = []
    for k, kind in enumerate(GraphKind):
        for c, target in enumerate(STANDARD_CCRS):
            params = GenParams(kind, seed=7000 + 17 * k + c, count=2, target_ccr=target)
            dataset = gen_dataset(params)
            out.extend((f"{dataset.name}/{i}", inst) for i, inst in enumerate(dataset.instances))
    out.append(("layered_300x16", layered_dag(20261018, 300, 16)))
    return out


def test_makespan_fingerprint():
    digest = hashlib.sha256()
    for label, instance in corpus():
        for name, config in enumerate_configs():
            line = f"{label} {name} {makespan(schedule(instance, config))!r}\n"
            digest.update(line.encode())
    assert digest.hexdigest() == EXPECTED_SHA256
