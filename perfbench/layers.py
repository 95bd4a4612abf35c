"""The traced run: per-layer metrics of the listsched modules.

Every layer is timed from outside, around calls into its public
functions, on the workload inputs of the run's bank index; every traced
run reports the whole set, whatever its workload.  On top of that the
run's own workload is run in alternating untraced and traced blocks of
the same calls: the traced blocks give each module's self time, and the
ratio of the two gives the tracing overhead.  Spans of the last traced
block are written to ``.bench_out/`` at the end.

Which end-to-end metric each layer metric should move:

- datagen.gen_dataset_ms -> setup_s on paper_sweep
- model.*_ms on CLI instances -> call_ms_p50 on one_shot_cli
- model.build_instance_ms.large -> setup_s on large_dag
- priority.* -> records_per_s on paper_sweep; ``.large`` predicts no
  change to tasks_per_s on large_dag
- selection.*, scheduler.schedule_ms.* -> tasks_per_s on large_dag
  (and records_per_s on paper_sweep)
- scheduler.runtime_us.*, bench.* -> records_per_s on paper_sweep
- cli.* -> call_ms_p50 on one_shot_cli
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from spans import LAYERS, Tracer
from workloads import cli_call

from listsched import bench, cli, datagen, model, priority, scheduler, selection

BLOCKS = 3  # untraced/traced block pairs for the overhead
CURVE_CONFIGS = ("HEFT", "EFT_Ins_CP_CR_Suf", "MCT")
#: HEFT with one component changed; each pair with HEFT isolates one cost.
HEFT_VARIANTS = ("EFT_App_UR", "EFT_Ins_CP_UR", "EFT_Ins_UR_Suf", "EFT_Ins_CR",
                 "EFT_Ins_AT", "EST_Ins_UR", "Quickest_Ins_UR")
PRIORITY_ABBR = {"UR": priority.PriorityKind.UPWARD_RANKING,
                 "CR": priority.PriorityKind.CPOP_RANKING,
                 "AT": priority.PriorityKind.ARBITRARY_TOPOLOGICAL}


def per_call(fn, calls: list[tuple], repeats: int = 3) -> float:
    """Seconds per call of ``fn`` over ``calls``: the median over repeats of the mean."""
    means = []
    for _ in range(repeats):
        t0 = perf_counter()
        for args in calls:
            fn(*args)
        means.append((perf_counter() - t0) / len(calls))
    return statistics.median(means)


def _seconds_and_result(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return perf_counter() - t0, result


def traced_blocks(wl, out_dir: Path) -> dict:
    """Self time per module and tracing overhead on the run's own workload."""
    untraced, traced = [], []
    for _ in range(BLOCKS):
        t0 = perf_counter()
        for _ in range(wl.trace_block):
            wl.step()
        untraced.append(perf_counter() - t0)
        tracer = Tracer()
        with tracer.instrument():
            t0 = perf_counter()
            for _ in range(wl.trace_block):
                wl.step()
            traced.append(perf_counter() - t0)
    tracer.write(out_dir / f"spans_{wl.name}_bank{wl.bank}.json.gz")
    self_s = tracer.self_seconds()
    metrics = {
        "trace.overhead_pct": (100 * (statistics.median(traced) / statistics.median(untraced) - 1), "%"),
    }
    for layer in LAYERS:
        metrics[f"trace.self_share.{layer}"] = (self_s.get(layer, 0.0) / traced[-1], "share")
    return metrics


def datagen_and_priority(bank: int) -> tuple[dict, list[datagen.Dataset]]:
    params = [datagen.GenParams(kind, seed, inputs.SWEEP_COUNT, ccr)
              for (kind, ccr), seed in zip(inputs.sweep_datasets(), inputs.sweep_seeds(bank))]
    metrics = {"datagen.gen_dataset_ms": (
        per_call(datagen.gen_dataset, [(p,) for p in params]) / inputs.SWEEP_COUNT * 1e3, "ms")}
    datasets = [datagen.gen_dataset(p) for p in params]
    sweep = [(inst,) for ds in datasets for inst in ds.instances]
    large = [(inputs.layered_dag(bank, n, m),) for n, m in inputs.LARGE_SIZES]
    for suffix, calls, repeats in (("", sweep, 20), (".large", large, 3)):
        for name, fn in (("upward_rank", priority.upward_rank),
                         ("downward_rank", priority.downward_rank),
                         ("critical_path", priority.critical_path_tasks)):
            metrics[f"priority.{name}_us{suffix}"] = (per_call(fn, calls, repeats) * 1e6, "us")
        for abbr, kind in PRIORITY_ABBR.items():
            metrics[f"priority.priority_map_us.{abbr}{suffix}"] = (
                per_call(priority.priority_map, [(i, kind) for (i,) in calls], repeats) * 1e6, "us")
    return metrics, datasets


def model_and_cli(bank: int, work: Path) -> dict:
    data = work / "layers_cli"
    params = datagen.GenParams(inputs.CLI_KIND, inputs.cli_seed(bank), inputs.CLI_COUNT,
                               inputs.CLI_CCR)
    datagen.save_dataset(datagen.gen_dataset(params), params, data)
    paths = [str(data / f"instance_{i:03d}.json") for i in range(inputs.CLI_COUNT)]
    instances = [model.load_instance(p) for p in paths]
    heft = scheduler.config_by_name("HEFT")
    schedules = [scheduler.schedule(i, heft) for i in instances]
    outs = [str(data / f"schedule_{i:03d}.json") for i in range(inputs.CLI_COUNT)]
    metrics = {
        "model.load_instance_ms": (per_call(model.load_instance, [(p,) for p in paths]) * 1e3, "ms"),
        "model.save_schedule_ms": (per_call(model.save_schedule, list(zip(schedules, outs))) * 1e3, "ms"),
        "model.load_schedule_ms": (per_call(model.load_schedule, [(o,) for o in outs]) * 1e3, "ms"),
        "model.validate_schedule_ms": (
            per_call(model.validate_schedule, list(zip(instances, schedules))) * 1e3, "ms"),
        "cli.build_parser_ms": (per_call(cli.build_parser, [()] * 20) * 1e3, "ms"),
        "cli.schedule_cmd_ms": (per_call(cli_call, [
            (["schedule", "--instance", p, "--scheduler", "HEFT", "--out", o],)
            for p, o in zip(paths, outs)]) * 1e3, "ms"),
        "cli.validate_cmd_ms": (per_call(cli_call, [
            (["validate", "--instance", p, "--schedule", o],)
            for p, o in zip(paths, outs)]) * 1e3, "ms"),
    }
    parts = [inputs.layered_dag_parts(bank, n, m) for n, m in inputs.LARGE_SIZES]
    metrics["model.build_instance_ms.large"] = (
        per_call(inputs.build_instance, [(p,) for p in parts]) * 1e3, "ms")
    return metrics


def selection_windows(bank: int) -> dict:
    """Window finders on a half-filled HEFT schedule of the 1000x16 DAG."""
    instance = inputs.layered_dag(bank, 1000, 16)
    full = scheduler.schedule(instance, scheduler.config_by_name("HEFT"))
    half = len(full.entries) // 2
    partial = model.Schedule(full.entries[:half])
    placed = {e.task for e in partial.entries}
    tg = instance.task_graph
    ready = [e.task for e in full.entries[half:]
             if all(p in placed for p in tg.predecessors(e.task))][:16]
    calls = [(instance, partial, node, task)
             for task in ready for node in instance.network.node_order()]
    rng = np.random.default_rng(bank)
    starts = rng.uniform(0, 10, 2000).tolist()
    lengths = rng.uniform(0.1, 2, 2000).tolist()
    windows = [selection.Window(s, s + d) for s, d in zip(starts, lengths)]
    pairs = [(kind, a, b) for kind in selection.CompareKind
             for a, b in zip(windows[::2], windows[1::2])]
    return {
        "selection.open_window_insertion_us": (
            per_call(selection.open_window_insertion, calls) * 1e6, "us"),
        "selection.open_window_append_only_us": (
            per_call(selection.open_window_append_only, calls) * 1e6, "us"),
        "selection.compare_ns": (per_call(selection.compare, pairs, 5) * 1e9, "ns"),
    }


def scheduler_curve(bank: int) -> dict:
    metrics = {}
    for n, m in inputs.CURVE_SIZES:
        instance = inputs.layered_dag(bank, n, m)
        names = CURVE_CONFIGS + (HEFT_VARIANTS if (n, m) == (1000, 16) else ())
        for name in names:
            config = scheduler.config_by_name(name)
            repeats = 1 if n > 1000 else 3
            metrics[f"scheduler.schedule_ms.{name}.{n}x{m}"] = (
                per_call(scheduler.schedule, [(instance, config)], repeats) * 1e3, "ms")
    return metrics


def bench_layers(datasets: list[datagen.Dataset], work: Path) -> dict:
    configs = scheduler.enumerate_configs()
    # jobs=2 goes first: its untimed pass runs in worker processes, and no
    # untimed pass has run in this process before its timed pass, so the
    # runtime levels below, taken from its records, stay cold whatever the
    # untimed pass does.
    jobs2_s, records = _seconds_and_result(bench.run_benchmark, datasets, configs, 1, 2)
    jobs1_s, rerun = _seconds_and_result(bench.run_benchmark, datasets, configs, 1, 1)
    drift = statistics.median(
        abs(b.runtime_seconds - a.runtime_seconds) / a.runtime_seconds
        for a, b in zip(records, rerun)
    )
    metrics = {
        "bench.run_benchmark_s.jobs1": (jobs1_s, "s"),
        "bench.run_benchmark_s.jobs2": (jobs2_s, "s"),
        "bench.runtime_rerun_drift": (drift, "ratio"),
    }
    for parameter, levels in bench.CONFIG_PARAMETERS.items():
        for level in levels:
            runtimes = [
                r.runtime_seconds for r in records
                if _level(scheduler.config_by_name(r.scheduler), parameter) == level
            ]
            metrics[f"scheduler.runtime_us.{parameter}.{level}"] = (
                statistics.fmean(runtimes) * 1e6, "us")
    ratios = bench.compute_ratios(records)
    csv_path = str(work / "layers_results.csv")
    for name, fn, args in (
        ("compute_ratios", bench.compute_ratios, (records,)),
        ("pareto_front", lambda r: bench.pareto_front(bench.mean_ratio_points(r)), (ratios,)),
        ("component_effects", bench.component_effects, (ratios,)),
        ("interaction_effects", bench.interaction_effects, (ratios, "compare", "ccr")),
        ("write_results_csv", bench.write_results_csv, (csv_path, records, ratios)),
        ("read_results_csv", bench.read_results_csv, (csv_path,)),
    ):
        metrics[f"bench.{name}_ms"] = (per_call(fn, [args]) * 1e3, "ms")
    return metrics


def _level(config: scheduler.SchedulerConfig, parameter: str) -> str:
    value = getattr(config, parameter)
    return value.value if hasattr(value, "value") else str(value)


def run_traced(wl, work: Path, out_dir: Path) -> tuple[dict, dict]:
    t0 = perf_counter()
    wl.setup()
    metrics = traced_blocks(wl, out_dir)
    wl.check()
    priority_metrics, datasets = datagen_and_priority(wl.bank)
    metrics.update(priority_metrics)
    metrics.update(model_and_cli(wl.bank, work))
    metrics.update(selection_windows(wl.bank))
    metrics.update(scheduler_curve(wl.bank))
    metrics.update(bench_layers(datasets, work))
    return metrics, {"blocks": BLOCKS, "units_per_block": wl.trace_block,
                     "wall_s": perf_counter() - t0}
