"""Benchmark of the listsched package, run from the root of a checkout.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout, never from an
installed copy.  With ``--trace 0`` the run sets the workload up
``SETUP_REPEATS`` times, runs its closed loop for ``--seconds`` of timed
calls, validates every schedule, and prints the end-to-end metrics, with
every time scaled to a reference host speed (see hostspeed.py).  With
``--trace 1`` it prints the per-layer metrics instead (see layers.py).

Standard output ends with two lines of JSON: a report (environment,
correctness counts, sample counts) and the result, whose ``metrics`` the
comparison reads.  The exit code is 1 when a makespan differs from the
committed reference, a schedule is invalid or a call fails, and 2 when
the checkout has no package source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples a tail percentile must leave above it


def use_checkout_source() -> Path:
    """Put the checkout's ``src/`` first on the path and check that it is used."""
    src = ROOT / "src"
    if not (src / "listsched" / "__init__.py").is_file():
        print(f"error: no package source at {src}/listsched", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import listsched

    if Path(listsched.__file__).resolve().parent != src / "listsched":
        print(f"error: listsched imported from {listsched.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return ROOT


def environment() -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "src_lines": src_lines,
    }


def min_calls(percentile: float) -> int:
    """Calls that leave TAIL_BEYOND samples above the given percentile."""
    return math.ceil(TAIL_BEYOND / (1 - percentile / 100)) + 1


def quantile(samples: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of ``samples`` and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def correctness(wl) -> dict:
    return {
        "wrong_makespans": wl.wrong_makespans(),
        "invalid_schedules": wl.invalid,
        "schedules_validated": wl.checked,
        "failed_share": wl.failed / max(wl.attempted, 1),
        "errors": wl.errors[:5],
    }


def scaled_latencies(wl) -> list[float]:
    """Each timed call's own latency, scaled to the reference host speed (hostspeed.py)."""
    return [(end - start) * wl.host.scale(start, end) for start, end in wl.calls]


def _setup(wl) -> float:
    """Host-scaled seconds of one set-up."""
    wl.host.sample()
    start = perf_counter()
    wl.setup()
    end = perf_counter()
    wl.host.sample()
    return (end - start) * wl.host.scale(start, end)


def run_untraced(wl, seconds: float, calls: int | None = None) -> tuple[dict, dict]:
    """End-to-end metrics over at least ``seconds`` of timed calls.

    The loop also makes at least ``calls`` calls, by default enough for
    the workload's tail percentile, and at least the units that cover
    the reference.  The set-ups are spread over the run.
    """
    if calls is None:
        calls = min_calls(wl.tail_percentile)
    setup_s = [_setup(wl)]
    while wl.timed_s < seconds or len(wl.calls) < calls or wl.units < wl.reference_units:
        wl.step()
        if len(setup_s) < SETUP_REPEATS and wl.timed_s >= seconds * len(setup_s) / SETUP_REPEATS:
            setup_s.append(_setup(wl))
    while len(setup_s) < SETUP_REPEATS:
        setup_s.append(_setup(wl))
    wl.host.sample()
    wl.check()
    latency = scaled_latencies(wl)
    timed = sum(latency)
    tail_s, beyond = quantile(latency, wl.tail_percentile)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "records_per_s": (wl.records / timed, "1/s"),
        "tasks_per_s": (wl.tasks / timed, "1/s"),
        "calls_per_s": (len(latency) / timed, "1/s"),
        "call_ms_p50": (statistics.median(latency) * 1e3, "ms"),
        "call_ms_tail": (tail_s * 1e3, "ms"),
    }
    wall = [end - start for start, end in wl.calls]
    samples = {
        "calls": len(latency),
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": beyond,
        "records": wl.records,
        "tasks": wl.tasks,
        "host_reference_ms_median": statistics.median(wl.host.seconds) * 1e3,
        "wall_timed_s": wl.timed_s,
        "wall_call_ms_p50": statistics.median(wall) * 1e3,
        "wall_call_ms_tail": quantile(wall, wl.tail_percentile)[0] * 1e3,
        "setup_s_all": setup_s,
    }
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    use_checkout_source()
    import inputs
    import layers
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    bank = inputs.bank_index(args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](
            bank, work, reference.load(args.workload, bank)
        )
        if args.trace:
            metrics, samples = layers.run_traced(wl, work, ROOT / ".bench_out")
        else:
            metrics, samples = run_untraced(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = correctness(wl)
    correct = (
        checks["wrong_makespans"] == 0 and checks["invalid_schedules"] == 0 and wl.failed == 0
    )
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "bank": bank,
        "trace": args.trace,
        "environment": environment(),
        "correctness": checks,
        "samples": samples,
    }
    result = {
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
