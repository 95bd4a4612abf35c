import hashlib
import math
import sys

import numpy as np
import pytest

from listsched import (
    GenParams,
    GraphKind,
    ProblemInstance,
    ccr,
    gen_chains,
    gen_dataset,
    gen_network,
    gen_tree,
    load_dataset,
    sample_weight,
    save_dataset,
    scale_to_ccr,
)
from listsched.datagen import STANDARD_CCRS, _split_dataset_name, dataset_name
from listsched.model import topological_order

from conftest import fork_with_tiny_weight, mk_instance

# seeds whose first (levels, branching) draws give known shapes
SEED_L2_B2 = 11
SEED_L3_B3 = 1
SEED_L4_B3 = 0
SEED_CHAINS_2X2 = 34

VALID_TREE_SIZES = {3, 7, 15, 4, 13, 40}  # sum of b^i for L in 2..4, b in 2..3


class TestSampleWeight:
    def test_range(self):
        rng = np.random.default_rng(51)
        draws = [sample_weight(rng) for _ in range(5000)]
        assert all(0.0 < x <= 2.0 for x in draws)

    def test_mean_preserved_by_symmetric_clipping(self):
        rng = np.random.default_rng(52)
        draws = [sample_weight(rng) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(1.0, abs=0.01)

    def test_deterministic_given_seed(self):
        a = [sample_weight(np.random.default_rng(53)) for _ in range(100)]
        b = [sample_weight(np.random.default_rng(53)) for _ in range(100)]
        assert a == b


class TestGenTree:
    def test_rejects_the_chains_kind(self):
        with pytest.raises(ValueError, match="not a tree kind"):
            gen_tree(np.random.default_rng(0), GraphKind.CHAINS)

    def test_smallest_out_tree_shape(self):
        tg = gen_tree(np.random.default_rng(SEED_L2_B2), GraphKind.OUT_TREES)
        assert len(tg.tasks) == 3
        assert len(tg.deps) == 2
        root = topological_order(tg)[0]
        assert len(tg.successors(root)) == 2
        assert not tg.predecessors(root)

    def test_three_level_in_tree_shape(self):
        tg = gen_tree(np.random.default_rng(SEED_L3_B3), GraphKind.IN_TREES)
        assert len(tg.tasks) == 13
        assert len(tg.deps) == 12
        sink = topological_order(tg)[-1]
        assert len(tg.predecessors(sink)) == 3
        assert not tg.successors(sink)

    def test_sizes_stay_in_family(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            tg = gen_tree(rng, GraphKind.OUT_TREES)
            assert len(tg.tasks) in VALID_TREE_SIZES
            assert len(tg.deps) == len(tg.tasks) - 1

    def test_out_tree_single_root(self):
        for seed in range(20):
            tg = gen_tree(np.random.default_rng(seed), GraphKind.OUT_TREES)
            roots = [t for t in tg.tasks if not tg.predecessors(t)]
            leaves = [t for t in tg.tasks if not tg.successors(t)]
            assert len(roots) == 1
            assert len(leaves) > 1

    def test_in_tree_single_sink(self):
        for seed in range(20):
            tg = gen_tree(np.random.default_rng(seed), GraphKind.IN_TREES)
            sinks = [t for t in tg.tasks if not tg.successors(t)]
            assert len(sinks) == 1

    def test_weights_in_clipped_range(self):
        tg = gen_tree(np.random.default_rng(SEED_L4_B3), GraphKind.OUT_TREES)
        assert len(tg.tasks) == 40
        assert all(0 < c <= 2 for c in tg.compute_cost.values())
        assert all(0 < s <= 2 for s in tg.data_size.values())


class TestGenChains:
    def test_two_short_chains_shape(self):
        tg = gen_chains(np.random.default_rng(SEED_CHAINS_2X2))
        assert len(tg.tasks) == 6  # source + 2*2 + sink
        assert len(tg.deps) == 6

    def test_single_source_and_sink(self):
        for seed in range(30):
            tg = gen_chains(np.random.default_rng(seed))
            sources = [t for t in tg.tasks if not tg.predecessors(t)]
            sinks = [t for t in tg.tasks if not tg.successors(t)]
            assert len(sources) == 1
            assert len(sinks) == 1

    def test_longest_path_at_most_seven_tasks(self):
        for seed in range(30):
            tg = gen_chains(np.random.default_rng(seed))
            depth = {}
            for t in topological_order(tg):
                preds = tg.predecessors(t)
                depth[t] = 1 + max((depth[p] for p in preds), default=0)
            assert max(depth.values()) <= 7


class TestGenNetwork:
    def test_shape_and_weights(self):
        for seed in range(30):
            net = gen_network(np.random.default_rng(seed))
            n = len(net.nodes)
            assert n in {3, 4, 5}
            assert len(net.strength) == n * (n - 1) // 2
            assert all(0 < s <= 2 for s in net.speed.values())
            assert all(0 < s <= 2 for s in net.strength.values())


class TestCcr:
    def test_unit_instance(self):
        inst = mk_instance(
            {"a": 1.0, "b": 1.0}, {("a", "b"): 1.0}, {"n0": 1.0, "n1": 1.0}
        )
        assert ccr(inst) == pytest.approx(1.0)

    def test_stronger_links_halve_ccr(self):
        inst = mk_instance(
            {"a": 1.0, "b": 1.0}, {("a", "b"): 1.0}, {"n0": 1.0, "n1": 1.0},
            strengths={("n0", "n1"): 2.0},
        )
        assert ccr(inst) == pytest.approx(0.5)

    def test_heavier_compute_halves_ccr(self):
        inst = mk_instance(
            {"a": 2.0, "b": 2.0}, {("a", "b"): 1.0}, {"n0": 1.0, "n1": 1.0}
        )
        assert ccr(inst) == pytest.approx(0.5)

    def test_undefined_without_deps(self):
        inst = mk_instance({"a": 1.0}, {}, {"n0": 1.0, "n1": 1.0})
        with pytest.raises(ValueError, match="no dependencies"):
            ccr(inst)

    def test_undefined_on_a_single_node(self):
        inst = mk_instance({"a": 1.0, "b": 1.0}, {("a", "b"): 1.0}, {"n0": 1.0})
        with pytest.raises(ValueError, match="^CCR undefined: single-node network has no links$"):
            ccr(inst)

    @pytest.mark.parametrize("weight", ["speed", "strength"])
    def test_an_overflowing_mean_reciprocal_is_an_error(self, weight):
        # was 0.0 for the speed and inf for the strength
        inst = fork_with_tiny_weight(**{weight: 1e-310})
        with pytest.raises(ValueError, match=f"^mean reciprocal {weight} is not finite"):
            ccr(inst)

    def test_generated_ccrs_are_pinned_bit_for_bit(self):
        # float.hex of the unscaled CCR of 60 generated instances
        digest = hashlib.sha256()
        for seed in range(20):
            for kind in GraphKind:
                rng = np.random.default_rng(seed)
                network = gen_network(rng)
                tg = gen_chains(rng) if kind is GraphKind.CHAINS else gen_tree(rng, kind)
                inst = ProblemInstance(network, tg)
                digest.update(f"{ccr(inst).hex()}\n".encode())
        assert digest.hexdigest() == (
            "4d9c1c8b2a1a438b7a5bd551ea3dfb193a28a435fc26d2b166d037a6bbee1b2c"
        )


class TestDatasetName:
    def test_round_trips_every_kind_and_standard_ccr(self):
        for kind in GraphKind:
            for target in STANDARD_CCRS:
                name = dataset_name(kind, target)
                kind_text, ccr_text = _split_dataset_name(name)
                assert GraphKind(kind_text) is kind
                assert float(ccr_text) == target
                assert f"{kind_text}_ccr_{ccr_text}" == name

    def test_type_is_the_text_before_the_first_ccr_tag(self):
        assert _split_dataset_name("d_ccr_1") == ("d", "1")
        assert _split_dataset_name("a_b_ccr_2.5") == ("a_b", "2.5")

    @pytest.mark.parametrize(
        "name",
        [
            "chains", "chains_ccr_", "x_ccr_abc", "x_ccr_0", "x_ccr_-1", "x_ccr_nan",
            # not f"{x:g}" of a positive finite x
            "x_ccr_inf", "x_ccr_1e999", "x_ccr_1_0", "x_ccr_ 2", "x_ccr_1.0", "x_ccr_0.50",
        ],
    )
    def test_rejects_a_name_without_a_positive_ccr(self, name):
        with pytest.raises(ValueError, match=f"dataset name '{name}' is not"):
            _split_dataset_name(name)


class TestScaleToCcr:
    def test_doubling(self):
        inst = mk_instance(
            {"a": 1.0, "b": 1.0}, {("a", "b"): 2.0}, {"n0": 1.0, "n1": 1.0}
        )
        assert ccr(inst) == pytest.approx(2.0)
        scaled = scale_to_ccr(inst, 1.0)
        assert scaled.network.strength[("n0", "n1")] == pytest.approx(2.0)
        assert scaled.task_graph == inst.task_graph

    def test_identity(self):
        inst = mk_instance(
            {"a": 1.0, "b": 1.0}, {("a", "b"): 1.0}, {"n0": 1.0, "n1": 1.0}
        )
        scaled = scale_to_ccr(inst, ccr(inst))
        assert scaled.network.strength == inst.network.strength

    def test_hits_every_standard_target(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            inst = ProblemInstance(
                network=gen_network(rng),
                task_graph=gen_chains(rng),
            )
            for target in STANDARD_CCRS:
                assert ccr(scale_to_ccr(inst, target)) == pytest.approx(target, rel=1e-9)

    def test_rejects_nonpositive_target(self):
        inst = mk_instance(
            {"a": 1.0, "b": 1.0}, {("a", "b"): 1.0}, {"n0": 1.0, "n1": 1.0}
        )
        with pytest.raises(ValueError):
            scale_to_ccr(inst, 0.0)

    @pytest.mark.parametrize("target", [math.inf, math.nan])
    def test_rejects_non_finite_target(self, target):
        # an infinite target would scale every strength to 0.0
        inst = mk_instance(
            {"a": 1.0, "b": 1.0}, {("a", "b"): 1.0}, {"n0": 1.0, "n1": 1.0}
        )
        with pytest.raises(ValueError, match="target CCR must be positive and finite"):
            scale_to_ccr(inst, target)


class TestGenDataset:
    def test_count_and_targets(self):
        params = GenParams(GraphKind.IN_TREES, seed=42, count=10, target_ccr=0.2)
        ds = gen_dataset(params)
        assert ds.name == "in_trees_ccr_0.2"
        assert len(ds.instances) == 10
        for inst in ds.instances:
            assert ccr(inst) == pytest.approx(0.2, rel=1e-9)

    def test_deterministic(self):
        params = GenParams(GraphKind.CHAINS, seed=7, count=5, target_ccr=2.0)
        assert gen_dataset(params) == gen_dataset(params)

    def test_singleton(self):
        params = GenParams(GraphKind.OUT_TREES, seed=1, count=1, target_ccr=1.0)
        assert len(gen_dataset(params).instances) == 1

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            GenParams(GraphKind.CHAINS, seed=1, count=0, target_ccr=1.0)

    @pytest.mark.parametrize("target", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_target_ccr_must_be_positive_and_finite(self, target):
        # rejected where it enters, not as a zero link strength in gen_dataset
        with pytest.raises(ValueError, match="target_ccr must be positive and finite"):
            GenParams(GraphKind.CHAINS, seed=1, count=1, target_ccr=target)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            GenParams(GraphKind.CHAINS, seed=-1, count=1, target_ccr=1.0)

    def test_count_must_fit_a_seed_spawn(self):
        # SeedSequence.spawn takes an ssize_t; a larger count is a ValueError
        # naming the limit, not an OverflowError from numpy
        with pytest.raises(ValueError, match=f"count is too large to seed: at most {sys.maxsize}"):
            GenParams(GraphKind.CHAINS, seed=1, count=sys.maxsize + 1, target_ccr=1.0)

    def test_distinct_seeds_differ(self):
        a = gen_dataset(GenParams(GraphKind.CHAINS, seed=1, count=3, target_ccr=1.0))
        b = gen_dataset(GenParams(GraphKind.CHAINS, seed=2, count=3, target_ccr=1.0))
        assert a != b

    def test_save_load_round_trip(self, tmp_path):
        params = GenParams(GraphKind.IN_TREES, seed=9, count=4, target_ccr=5.0)
        ds = gen_dataset(params)
        save_dataset(ds, params, tmp_path / "ds")
        again = load_dataset(tmp_path / "ds")
        assert again == ds
        files = sorted(p.name for p in (tmp_path / "ds").iterdir())
        assert files == ["instance_000.json", "instance_001.json",
                         "instance_002.json", "instance_003.json", "manifest.json"]
