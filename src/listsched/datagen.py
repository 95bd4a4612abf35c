"""Random problem-instance generators and CCR scaling.

Three task-graph families are generated: perfect in-trees and out-trees
(2 to 4 levels, branching factor 2 or 3) and parallel chains (2 to 5
chains of length 2 to 5, joined by a shared source and sink task so the
graph is connected).  Networks are complete graphs on 3 to 5 nodes.
Every weight is drawn from a Gaussian with mean 1 and standard deviation
1/3, redrawn until it falls in (0, 2]; zero is excluded because a zero
speed, strength or cost would make timing degenerate.

After generation the network strengths are rescaled multiplicatively so
the instance hits a target communication-to-computation ratio exactly;
the ratio uses the network averages of :mod:`listsched.priority`.  A
dataset is named ``{kind}_ccr_{ccr:g}``, and this module alone writes
and reads that name.
All randomness flows through numpy generators seeded per instance by
spawning a named seed sequence, so datasets are pure functions of their
parameters and individual instances could be drawn in parallel.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Network, ProblemInstance, TaskGraph, load_instance, save_instance
from .model import _count, _id, _json_leaf, _json_shape, _read_text, _write_text
from .priority import _mean_recip

__all__ = [
    "Dataset", "GenParams", "GraphKind", "ccr", "gen_chains", "gen_dataset", "gen_network",
    "gen_tree", "load_dataset", "sample_weight", "save_dataset", "scale_to_ccr",
]

#: The CCR levels studied in the component benchmarks.
STANDARD_CCRS = (0.2, 0.5, 1.0, 2.0, 5.0)


class GraphKind(enum.Enum):
    IN_TREES = "in_trees"
    OUT_TREES = "out_trees"
    CHAINS = "chains"


@dataclass(frozen=True)
class GenParams:
    kind: GraphKind
    seed: int
    count: int
    target_ccr: float

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.count > sys.maxsize:
            raise ValueError(f"count is too large to seed: at most {sys.maxsize}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 < self.target_ccr < math.inf:
            raise ValueError(f"target_ccr must be positive and finite, got {self.target_ccr!r}")


@dataclass(frozen=True)
class Dataset:
    name: str
    instances: tuple[ProblemInstance, ...]


def sample_weight(rng: np.random.Generator) -> float:
    """One clipped-Gaussian weight: Normal(1, 1/3) redrawn into (0, 2]."""
    while True:
        x = rng.normal(1.0, 1.0 / 3.0)
        if 0.0 < x <= 2.0:
            return float(x)


def gen_tree(rng: np.random.Generator, kind: GraphKind) -> TaskGraph:
    """Perfect tree task graph; edges point away from (out) or into (in) the root."""
    if kind not in (GraphKind.IN_TREES, GraphKind.OUT_TREES):
        raise ValueError(f"not a tree kind: {kind!r}")
    levels = int(rng.integers(2, 5))
    branching = int(rng.integers(2, 4))
    n = sum(branching**i for i in range(levels))
    names = [f"t{i:03d}" for i in range(n)]
    costs = {name: sample_weight(rng) for name in names}
    sizes: dict[tuple[str, str], float] = {}
    # heap order: node i's children are branching*i + 1 ... branching*i + branching
    for child in range(1, n):
        parent = names[(child - 1) // branching]
        edge = (parent, names[child]) if kind is GraphKind.OUT_TREES else (names[child], parent)
        sizes[edge] = sample_weight(rng)
    return TaskGraph(costs, sizes)


def gen_chains(rng: np.random.Generator) -> TaskGraph:
    """Parallel chains joined by a shared source and a shared sink task."""
    n_chains = int(rng.integers(2, 6))
    lengths = [int(rng.integers(2, 6)) for _ in range(n_chains)]
    total = 2 + sum(lengths)
    names = [f"t{i:03d}" for i in range(total)]
    source, sink = names[0], names[-1]
    costs = {name: sample_weight(rng) for name in names}
    sizes: dict[tuple[str, str], float] = {}
    next_id = 1
    for length in lengths:
        chain = names[next_id : next_id + length]
        next_id += length
        sizes[(source, chain[0])] = sample_weight(rng)
        for a, b in zip(chain, chain[1:]):
            sizes[(a, b)] = sample_weight(rng)
        sizes[(chain[-1], sink)] = sample_weight(rng)
    return TaskGraph(costs, sizes)


def gen_network(rng: np.random.Generator) -> Network:
    """Complete network on 3 to 5 nodes with clipped-Gaussian weights."""
    n = int(rng.integers(3, 6))
    names = [f"n{i}" for i in range(n)]
    speed = {name: sample_weight(rng) for name in names}
    strength = {
        (names[i], names[j]): sample_weight(rng)
        for i in range(n)
        for j in range(i + 1, n)
    }
    return Network(nodes=frozenset(names), speed=speed, strength=strength)


def ccr(instance: ProblemInstance) -> float:
    """Mean pairwise communication time over mean per-node execution time."""
    tg, net = instance.task_graph, instance.network
    if not tg.deps:
        raise ValueError("CCR undefined: task graph has no dependencies")
    if not net.strength:
        raise ValueError("CCR undefined: single-node network has no links")
    comm = sum(tg.data_size.values()) / len(tg.data_size) * _mean_recip("strength", net.strength)
    comp = sum(tg.compute_cost.values()) / len(tg.compute_cost) * _mean_recip("speed", net.speed)
    return comm / comp


def scale_to_ccr(instance: ProblemInstance, target: float) -> ProblemInstance:
    """Rescale all link strengths so the instance's CCR equals ``target``."""
    if not 0 < target < math.inf:
        raise ValueError(f"target CCR must be positive and finite, got {target!r}")
    factor = ccr(instance) / target
    net = instance.network
    scaled = Network(
        nodes=net.nodes,
        speed=dict(net.speed),
        strength={pair: s * factor for pair, s in net.strength.items()},
    )
    return ProblemInstance(network=scaled, task_graph=instance.task_graph)


def dataset_name(kind: GraphKind, target_ccr: float) -> str:
    return f"{kind.value}_ccr_{target_ccr:g}"


def _split_dataset_name(name: str) -> tuple[str, str]:
    """The dataset type and CCR texts of a name as :func:`dataset_name` writes it.

    The type is the text before the first ``_ccr_``; the CCR, the text
    after it, must be ``f"{x:g}"`` of a positive finite ``x``: ``1.0``,
    ``1e999``, ``inf`` and a CCR with spaces are rejected.
    """
    kind, _, ccr = name.partition("_ccr_")
    try:
        # a name without _ccr_ leaves "", which float() rejects
        if 0 < (x := float(ccr)) < math.inf and f"{x:g}" == ccr:
            return kind, ccr
    except ValueError:
        pass
    raise ValueError(f"dataset name {name!r} is not a type, _ccr_ and a positive finite CCR")


def gen_dataset(params: GenParams) -> Dataset:
    """Generate ``count`` independent instances at the target CCR.

    Each instance gets its own generator spawned from the dataset seed, so
    the result depends only on ``params`` and instance i is reproducible
    without drawing instances 0..i-1.
    """
    kind = params.kind
    children = np.random.SeedSequence(params.seed).spawn(params.count)
    instances = []
    for child in children:
        rng = np.random.default_rng(child)
        network = gen_network(rng)
        task_graph = gen_chains(rng) if kind is GraphKind.CHAINS else gen_tree(rng, kind)
        instance = ProblemInstance(network=network, task_graph=task_graph)
        instances.append(scale_to_ccr(instance, params.target_ccr))
    return Dataset(dataset_name(kind, params.target_ccr), tuple(instances))


# ---------------------------------------------------------------------------
# Dataset directories: one instance JSON per file plus a manifest.
# ---------------------------------------------------------------------------


def save_dataset(dataset: Dataset, params: GenParams, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # json.dumps(manifest, indent=2) and a newline, from a template like save_instance's
    name, kind = _json_leaf(dataset.name), _json_leaf(params.kind.value)
    _write_text(out / "manifest.json",
                f'{{\n  "name": {name},\n  "kind": {kind},\n'
                f'  "target_ccr": {_json_leaf(params.target_ccr)},\n'
                f'  "seed": {_json_leaf(params.seed)},\n  "count": {_json_leaf(params.count)}\n}}\n')
    for stale in out.glob("instance_*.json"):  # left by an earlier, larger dataset
        stale.unlink()
    for i, instance in enumerate(dataset.instances):
        save_instance(instance, out / _instance_file(i))


def _instance_file(i: int) -> str:
    return f"instance_{i:03d}.json"


def load_dataset(dir_path: str | Path) -> Dataset:
    """The dataset in ``dir_path``; its ``instance_*.json`` files must be the manifest's."""
    path = Path(dir_path)
    manifest = json.loads(_read_text(path / "manifest.json"))
    with _json_shape("manifest"):
        name, count = _id(manifest["name"]), _count(manifest["count"])
    # a set, since instance_1000 sorts before instance_101; the sizes are
    # compared first so a huge count builds no name set
    found = {p.name for p in path.glob("instance_*.json")}
    if len(found) != count or found != {_instance_file(i) for i in range(count)}:
        raise ValueError(
            f"manifest count {count} expects {_instance_file(0)} to "
            f"{_instance_file(count - 1)}, found {len(found)} instance_*.json files"
        )
    instances = tuple(load_instance(path / _instance_file(i)) for i in range(count))
    return Dataset(name=name, instances=instances)
