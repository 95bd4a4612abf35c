#!/usr/bin/env python3
"""Generate random benchmark instances and control their CCR.

Task graphs come in three structural families (in-trees, out-trees,
parallel chains); networks are small complete graphs.  Weights follow a
Gaussian with mean 1 and standard deviation 1/3, redrawn until they land
in (0, 2].  A dataset is a seeded list of instances rescaled so the
communication-to-computation ratio hits an exact target.
"""

import pathlib
import tempfile

import numpy as np

import listsched as ls
from listsched.datagen import STANDARD_CCRS

rng = np.random.default_rng(42)

# =============================================================================
# The weight distribution: mean 1 survives the symmetric clipping.

draws = np.array([ls.sample_weight(rng) for _ in range(20_000)])
print(f"weights: min={draws.min():.4f} max={draws.max():.4f} mean={draws.mean():.4f}")
assert draws.min() > 0 and draws.max() <= 2

# =============================================================================
# One graph of each family, plus a network.

out_tree = ls.gen_tree(rng, ls.GraphKind.OUT_TREES)
in_tree = ls.gen_tree(rng, ls.GraphKind.IN_TREES)
chains = ls.gen_chains(rng)
print(f"out-tree: {len(out_tree.tasks)} tasks, {len(out_tree.deps)} edges")
print(f"in-tree:  {len(in_tree.tasks)} tasks, {len(in_tree.deps)} edges")
print(f"chains:   {len(chains.tasks)} tasks, {len(chains.deps)} edges")

network = ls.gen_network(rng)
print(f"network:  {len(network.nodes)} nodes, {len(network.strength)} links")

# =============================================================================
# CCR: mean pairwise communication time over mean per-node execution time.
# Rescaling the link strengths moves it exactly onto any target.

instance = ls.ProblemInstance(network=network, task_graph=chains)
print(f"\nraw CCR: {ls.ccr(instance):.4f}")
for target in STANDARD_CCRS:
    scaled = ls.scale_to_ccr(instance, target)
    print(f"  target {target:>4}: achieved {ls.ccr(scaled):.12f}")

# =============================================================================
# Datasets are pure functions of their parameters: same seed, same bytes.

params = ls.GenParams(ls.GraphKind.IN_TREES, seed=7, count=5, target_ccr=0.5)
dataset = ls.gen_dataset(params)
assert dataset == ls.gen_dataset(params)
print(f"\ndataset {dataset.name}: {len(dataset.instances)} instances")

with tempfile.TemporaryDirectory() as tmp:
    target_dir = pathlib.Path(tmp) / dataset.name
    ls.save_dataset(dataset, params, target_dir)
    print("files:", sorted(p.name for p in target_dir.iterdir()))
    assert ls.load_dataset(target_dir) == dataset
