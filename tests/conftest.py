"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from listsched import Network, ProblemInstance, TaskGraph

from reference import instance_to_dict


def unit_network(n: int) -> Network:
    """n nodes, all speeds and strengths 1."""
    names = [f"n{i}" for i in range(n)]
    return Network(
        nodes=frozenset(names),
        speed={v: 1.0 for v in names},
        strength={(a, b): 1.0 for a, b in itertools.combinations(names, 2)},
    )


def mk_instance(costs, sizes, speeds, strengths=None) -> ProblemInstance:
    """Instance from plain dicts; strengths default to 1 on every link."""
    nodes = sorted(speeds)
    if strengths is None:
        strengths = {pair: 1.0 for pair in itertools.combinations(nodes, 2)}
    return ProblemInstance(
        network=Network(nodes=frozenset(nodes), speed=dict(speeds), strength=dict(strengths)),
        task_graph=TaskGraph(costs, sizes),
    )


def fork_with_tiny_weight(speed: float = 1.0, strength: float = 1.0) -> ProblemInstance:
    """Fork a -> b, a -> c on n0 (speed ``speed``) and n1 (speed 1), linked by ``strength``.

    Every cost and size is 1e-300, so each execution and transfer time is
    finite even when ``speed`` or ``strength`` is a subnormal like 1e-310,
    whose reciprocal overflows.
    """
    return mk_instance(
        {"a": 1e-300, "b": 1e-300, "c": 1e-300},
        {("a", "b"): 1e-300, ("a", "c"): 1e-300},
        {"n0": speed, "n1": 1.0},
        {("n0", "n1"): strength},
    )


def branches_past_the_largest_float() -> ProblemInstance:
    """Chain a -> b -> c -> d -> e and branch a -> x -> y -> z on n0 (speed 1e-300) and n1.

    Every cost is 1e8 and every size 1, so each execution time is at most
    1e308 and both rank averages are finite (the mean reciprocal speed is
    5e299), but the average-weighted sum along four tasks overflows: in
    the upward ranks of a and b, and in the downward rank of e.
    """
    chain, branch = "abcde", "axyz"
    deps = [*zip(chain, chain[1:]), *zip(branch, branch[1:])]
    return mk_instance(
        dict.fromkeys(chain + branch[1:], 1e8),
        dict.fromkeys(deps, 1.0),
        {"n0": 1e-300, "n1": 1.0},
    )


def random_instance(
    rng: np.random.Generator,
    max_tasks: int = 10,
    max_nodes: int = 5,
    min_tasks: int = 1,
    min_nodes: int = 1,
    edge_prob: float = 0.35,
) -> ProblemInstance:
    """Random DAG (edges only from lower to higher index) on a random network."""
    n_tasks = int(rng.integers(min_tasks, max_tasks + 1))
    n_nodes = int(rng.integers(min_nodes, max_nodes + 1))
    tasks = [f"t{i:02d}" for i in range(n_tasks)]
    costs = {t: float(rng.uniform(0.1, 2.0)) for t in tasks}
    sizes = {}
    for i in range(n_tasks):
        for j in range(i + 1, n_tasks):
            if rng.random() < edge_prob:
                sizes[(tasks[i], tasks[j])] = float(rng.uniform(0.1, 2.0))
    nodes = [f"n{i}" for i in range(n_nodes)]
    speeds = {v: float(rng.uniform(0.3, 2.0)) for v in nodes}
    strengths = {
        (a, b): float(rng.uniform(0.3, 2.0))
        for a, b in itertools.combinations(nodes, 2)
    }
    return ProblemInstance(
        network=Network(nodes=frozenset(nodes), speed=speeds, strength=strengths),
        task_graph=TaskGraph(costs, sizes),
    )


def layered_dag(seed: int, n_tasks: int, n_nodes: int) -> ProblemInstance:
    """Layers of ~sqrt(n) tasks; each task below the first depends on 1-3 above."""
    rng = np.random.default_rng(seed)
    width = max(1, round(math.sqrt(n_tasks)))
    tasks = [f"t{i:04d}" for i in range(n_tasks)]
    sizes = {}
    for i in range(width, n_tasks):
        above = (i // width - 1) * width
        for p in rng.choice(width, size=int(rng.integers(1, 4)), replace=False):
            sizes[(tasks[above + int(p)], tasks[i])] = float(rng.uniform(0.1, 2.0))
    costs = {t: float(rng.uniform(0.1, 2.0)) for t in tasks}
    nodes = [f"n{j:02d}" for j in range(n_nodes)]
    network = Network(
        nodes=frozenset(nodes),
        speed={v: float(rng.uniform(0.3, 2.0)) for v in nodes},
        strength={
            pair: float(rng.uniform(0.3, 2.0)) for pair in itertools.combinations(nodes, 2)
        },
    )
    return ProblemInstance(network=network, task_graph=TaskGraph(costs, sizes))


@pytest.fixture
def chain_fast_slow() -> ProblemInstance:
    """A -> B chain, unit costs/sizes, n1 speed 1 and n2 speed 2."""
    return mk_instance(
        costs={"A": 1.0, "B": 1.0},
        sizes={("A", "B"): 1.0},
        speeds={"n1": 1.0, "n2": 2.0},
    )


#: Instance files the loader must reject, each with the loader's message.
#: Each duplicate repeats an existing entry verbatim, so collapsing it
#: would go unnoticed.
MALFORMED_CASES = {
    "duplicate node": "duplicate node 'n0'",
    "duplicate link": "duplicate link ('n0', 'n1')",
    "duplicate task": "duplicate task 'a'",
    "duplicate dep": "duplicate dep ('a', 'b')",
    "infinite strength": "strength for ('n0', 'n1') must be positive and finite, got inf",
    "infinite cost": "compute_cost for 'b' must be positive and finite, got inf",
    "no nodes": "network has no nodes",
    "link to an unknown node": (
        "strength must cover every unordered pair of distinct nodes, keyed by the sorted "
        "id pair; ('n0', 'zz') is not such a pair"
    ),
}


def ab_instance_dict() -> dict:
    """Instance JSON for a -> b on n0 (speed 1) and n1 (speed 2)."""
    return instance_to_dict(
        mk_instance({"a": 1.0, "b": 2.0}, {("a", "b"): 1.0}, {"n0": 1.0, "n1": 2.0})
    )


def malformed_instance_dict(case: str) -> dict:
    """``ab_instance_dict()`` broken as ``case``."""
    data = ab_instance_dict()
    net, tg = data["network"], data["task_graph"]
    if case == "duplicate node":
        net["nodes"].append(dict(net["nodes"][0]))
    elif case == "duplicate link":
        net["links"].append(dict(net["links"][0]))
    elif case == "duplicate task":
        tg["tasks"].append(dict(tg["tasks"][0]))
    elif case == "duplicate dep":
        tg["deps"].append(dict(tg["deps"][0]))
    elif case == "infinite strength":
        net["links"][0]["strength"] = math.inf
    elif case == "infinite cost":
        tg["tasks"][1]["cost"] = math.inf
    elif case == "no nodes":
        net["nodes"], net["links"] = [], []
    elif case == "link to an unknown node":
        net["links"].append({"u": "n0", "v": "zz", "strength": 1.0})
    return data


#: Instance JSON of the wrong shape, each with the part its error names.
WRONG_SHAPE_INSTANCES = (
    ("root is a list", "instance"),
    ("network is null", "network"),
    ("speed is null", "network"),
    ("nodes is a number", "network"),
    ("speed is a list", "network"),
    ("task is a string", "task_graph"),
    ("speed is true", "network"),
    ("speed is a numeric string", "network"),
    ("speed is missing", "network"),
    ("node id is null", "network"),
    ("task id is an integer", "task_graph"),
    ("cost is a 400-digit integer", "task_graph"),
)

#: Schedule JSON of the wrong shape, for the instance of ``ab_instance_dict()``.
WRONG_SHAPE_SCHEDULES = (
    "entries is null", "entry is a string", "start is null", "start is a numeric string",
)


def wrong_shape_instance(case: str):
    """``ab_instance_dict()`` with one part of the wrong shape."""
    data = ab_instance_dict()
    net = data["network"]
    if case == "root is a list":
        return [data]
    if case == "network is null":
        data["network"] = None
    elif case == "speed is null":
        net["nodes"][0]["speed"] = None
    elif case == "nodes is a number":
        net["nodes"] = 5
    elif case == "speed is a list":
        net["nodes"][0]["speed"] = [1.0]
    elif case == "task is a string":
        data["task_graph"]["tasks"][0] = "a"
    elif case == "speed is true":
        net["nodes"][0]["speed"] = True
    elif case == "speed is a numeric string":
        net["nodes"][0]["speed"] = "2"
    elif case == "speed is missing":
        del net["nodes"][0]["speed"]
    elif case == "node id is null":
        # with its link, so reading null as the id "None" would load
        net["nodes"][0]["id"] = net["links"][0]["u"] = None
    elif case == "task id is an integer":
        # with its dep, so reading 1 as the id "1" would load
        data["task_graph"]["tasks"][0]["id"] = data["task_graph"]["deps"][0]["src"] = 1
    elif case == "cost is a 400-digit integer":
        data["task_graph"]["tasks"][0]["cost"] = 10**400
    return data


def wrong_shape_schedule(case: str | None = None) -> dict:
    """Both tasks of ``ab_instance_dict()`` on n1, valid unless ``case`` breaks it."""
    entries = [
        {"task": "a", "node": "n1", "start": 0.0, "end": 0.5},
        {"task": "b", "node": "n1", "start": 0.5, "end": 1.5},
    ]
    if case == "entries is null":
        return {"entries": None}
    if case == "entry is a string":
        entries[1] = "b"
    elif case == "start is null":
        entries[1]["start"] = None
    elif case == "start is a numeric string":
        entries[0]["start"] = "0"
    return {"entries": entries}


#: Bytes of a file already at an output path, longer than any output the
#: tests write, so a writer that does not cut the file leaves some of them.
LONGER_FILE = b"#" * 100_000


def fresh_and_overwritten(tmp_path, write, name: str) -> tuple[bytes, bytes]:
    """The bytes ``write(path)`` leaves at a new path, and at a path holding :data:`LONGER_FILE`."""
    fresh, old = tmp_path / "fresh" / name, tmp_path / "old" / name
    fresh.parent.mkdir()
    old.parent.mkdir()
    old.write_bytes(LONGER_FILE)
    write(fresh)
    write(old)
    return fresh.read_bytes(), old.read_bytes()
