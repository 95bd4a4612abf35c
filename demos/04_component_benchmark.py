#!/usr/bin/env python3
"""A miniature component study: benchmark, ratios, pareto front, effects.

This is the full analysis pipeline at toy scale.  Makespan ratios
normalize each scheduler by the best scheduler on the same instance;
runtime ratios do the same for wall-clock scheduling time.  With all 72
configurations benchmarked, per-component means are unconfounded because
the design is balanced.
"""

import pathlib
import tempfile

import listsched as ls
from listsched.bench import ParetoPoint, pareto_svg, write_table_csv
from listsched.datagen import STANDARD_CCRS

# =============================================================================
# Six datasets: two families at three CCRs, a few instances each.

datasets = []
for kind in (ls.GraphKind.OUT_TREES, ls.GraphKind.CHAINS):
    for ccr_target in (0.2, 1.0, 5.0):
        params = ls.GenParams(kind, seed=11, count=4, target_ccr=ccr_target)
        datasets.append(ls.gen_dataset(params))
print("datasets:", [d.name for d in datasets])

# =============================================================================
# Benchmark all 72 schedulers.  Makespans are exact; runtimes are medians
# of repeated timed runs and only meaningful as ratios.

records = ls.run_benchmark(datasets, ls.enumerate_configs(), timing_repeats=3)
ratios = ls.compute_ratios(records)
print(f"{len(records)} records, {len(ratios)} ratio rows")

# =============================================================================
# Pareto front over (mean runtime ratio, mean makespan ratio).

points = ls.pareto_front(ls.mean_ratio_points(ratios))
optimal = [p for p in points if p.pareto_optimal]
print(f"\n{len(optimal)} of {len(points)} schedulers are pareto-optimal here:")
for p in sorted(optimal, key=lambda p: p.mean_runtime_ratio):
    print(f"  {p.scheduler:22s} makespan x{p.mean_makespan_ratio:.3f} "
          f"runtime x{p.mean_runtime_ratio:.2f}")

with tempfile.TemporaryDirectory() as tmp:
    csv_path = pathlib.Path(tmp) / "pareto.csv"
    write_table_csv(csv_path, ParetoPoint, points)
    (pathlib.Path(tmp) / "pareto.svg").write_text(pareto_svg(points))
    print("exported", sorted(p.name for p in pathlib.Path(tmp).iterdir()))

# =============================================================================
# Individual component effects: mean ratios per parameter level.

print("\ncomponent effects (mean makespan ratio / mean runtime ratio):")
for effect in ls.component_effects(ratios):
    print(f"  {effect.parameter:17s} {effect.level:20s} "
          f"{effect.mean_makespan_ratio:6.3f} / {effect.mean_runtime_ratio:6.2f}")

# =============================================================================
# Interactions: how a component's effect shifts with the instance's CCR.

print("\ncompare x CCR interaction (mean makespan ratio):")
cells = ls.interaction_effects(ratios, "compare", "ccr")
levels = sorted({c.level_b for c in cells}, key=float)
print("  compare   " + "".join(f"ccr={l:>5s} " for l in levels))
for compare_level in ("EFT", "EST", "Quickest"):
    row = {c.level_b: c.mean_makespan_ratio for c in cells if c.level_a == compare_level}
    print(f"  {compare_level:9s} " + "".join(f"{row[l]:9.3f} " for l in levels))
