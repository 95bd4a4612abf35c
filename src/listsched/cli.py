"""Command-line interface: generate, schedule, validate, benchmark, analyze.

One table, ``COMMANDS``, holds every command: its help, the function
that adds its arguments and the function that runs it.  Each call builds
only the parser of the command it names; the full parser, with the top
level and every command, is built only for a call that names none or
leaves arguments unrecognized, and for ``build_parser()``.  Nothing is
cached between calls, so a call costs what it costs in a new process.

Exit codes: 0 on success, 1 on domain errors (invalid schedule, unknown
scheduler name, malformed instance, dataset or results files, JSON of
the wrong shape, a schedule whose times overflow, results that cannot
be normalized), 2 on usage or IO errors.  No command catches an error:
each stage runs in ``_fails_as(prefix)``, which turns a ``ValueError``,
``KeyError`` or ``OverflowError`` into a prefixed ``_Failure``; ``main``
alone prints it (exit 1) or an ``OSError`` (``IO error: ...``, exit 2).
All randomness enters through explicit --seed flags.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import bench, datagen, model, scheduler

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {text!r}")
    return value


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=[k.value for k in datagen.GraphKind])
    p.add_argument("--ccr", type=_positive_float, default=1.0,
                   help="target communication-to-computation ratio (default 1)")
    p.add_argument("--count", type=_positive_int, default=100,
                   help="number of instances (default 100)")
    p.add_argument("--seed", type=_seed, default=0, help="dataset seed (default 0)")
    p.add_argument("--out", required=True, help="output dataset directory")


def _schedule_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True)
    p.add_argument("--scheduler", required=True,
                   help="canonical name or alias (see list-schedulers)")
    p.add_argument("--out", required=True, help="output schedule JSON")


def _validate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)


def _benchmark_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--datasets", required=True, nargs="+",
                   help="one or more dataset directories")
    p.add_argument("--schedulers", default="all",
                   help="'all' or a comma-separated list of names (default all)")
    p.add_argument("--repeats", type=_positive_int, default=3,
                   help="timed runs per record; the median is kept (default 3)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="accepted for compatibility; has no effect, every run "
                        "is timed serially (default 1)")
    p.add_argument("--out", required=True, help="output results CSV")


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--results", required=True)
    p.add_argument("--mode", required=True,
                   choices=["ratios", "pareto", "effects", "interactions"])
    p.add_argument("--params", default=None,
                   help="two comma-separated parameters for --mode interactions "
                        "(e.g. compare,ccr)")
    p.add_argument("--out", required=True)


def _no_arguments(p: argparse.ArgumentParser) -> None:
    pass


class _Failure(Exception):
    """A domain error's one-line message; ``main`` prints it and exits 1."""


@contextmanager
def _fails_as(prefix: str) -> Iterator[None]:
    """Re-raise a domain error from the block as a ``_Failure`` starting with ``prefix``."""
    try:
        yield
    except (ValueError, KeyError, OverflowError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        detail = exc.args[0] if isinstance(exc, KeyError) else exc
        raise _Failure(f"{prefix}{detail}") from exc


def _config(name: str) -> scheduler.SchedulerConfig:
    """The configuration called ``name``; ``ValueError`` listing the valid names if none is."""
    try:
        return scheduler.config_by_name(name)
    except KeyError:
        names = "".join(f"\n  {n}" for n, _ in scheduler.enumerate_configs())
        raise ValueError(f"unknown scheduler {name!r}; valid names:{names}\n"
                         f"aliases: {', '.join(sorted(scheduler.ALIASES))}") from None


def cmd_generate(args: argparse.Namespace) -> int:
    with _fails_as("cannot generate dataset: "):
        params = datagen.GenParams(
            datagen.GraphKind(args.kind), seed=args.seed, count=args.count, target_ccr=args.ccr
        )
        dataset = datagen.gen_dataset(params)
    datagen.save_dataset(dataset, params, args.out)
    print(f"wrote {params.count} instances to {args.out} ({dataset.name})")
    return EXIT_OK


def cmd_schedule(args: argparse.Namespace) -> int:
    with _fails_as(""):
        config = _config(args.scheduler)
    with _fails_as("invalid instance file: "):
        instance = model.load_instance(args.instance)
    with _fails_as("cannot schedule: "):
        result = scheduler.schedule(instance, config)
    model.save_schedule(result, args.out)
    print(repr(model.makespan(result)))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    with _fails_as("invalid input: "):
        instance = model.load_instance(args.instance)
        sched = model.load_schedule(args.schedule)
        violations = model.validate_schedule(instance, sched)
    for violation in violations:
        print(f"{violation.kind.value}: {violation.detail}")
    if violations:
        print(f"{len(violations)} violation(s)")
        return EXIT_DOMAIN
    print("schedule is valid")
    return EXIT_OK


def _resolve_schedulers(spec: str) -> list[tuple[str, scheduler.SchedulerConfig]]:
    """(name, config) pairs; ``ValueError`` on an unknown or repeated name."""
    if spec == "all":
        return scheduler.enumerate_configs()
    names = [raw.strip() for raw in spec.split(",")]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"scheduler name(s) given more than once: {', '.join(repeated)}")
    return [(name, _config(name)) for name in names]


def cmd_benchmark(args: argparse.Namespace) -> int:
    with _fails_as(""):
        configs = _resolve_schedulers(args.schedulers)
    datasets, dirs = [], {}
    for dir_path in args.datasets:
        with _fails_as(f"invalid dataset {dir_path}: "):
            datasets.append(datagen.load_dataset(dir_path))
            name = datasets[-1].name
            if name in dirs:
                raise ValueError(f"name {name!r} already belongs to {dirs[name]}")
            dirs[name] = dir_path
    records = bench.run_benchmark(datasets, configs, timing_repeats=args.repeats)
    with _fails_as("cannot normalize results: "):
        ratios = bench.compute_ratios(records)
    bench.write_results_csv(args.out, records, ratios)
    failures = sum(1 for r in records if r.error is not None)
    print(f"wrote {len(records)} records to {args.out}"
          + (f" ({failures} failures)" if failures else ""))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.mode == "interactions" and len((args.params or "").split(",")) != 2:
        print("--mode interactions requires --params A,B", file=sys.stderr)
        return EXIT_USAGE
    if args.mode == "pareto" and Path(args.out).suffix == ".svg":  # the plot's path is --out
        print(f"--mode pareto would overwrite --out {args.out} with its .svg plot",
              file=sys.stderr)
        return EXIT_USAGE
    with _fails_as("invalid results file: "):
        records = bench.read_results_csv(args.results)
    with _fails_as("analysis failed: "):
        ratios = bench.compute_ratios(records)
        if args.mode == "ratios":
            bench.write_results_csv(args.out, records, ratios)
        elif args.mode == "pareto":
            points = bench.pareto_front(bench.mean_ratio_points(ratios))
            bench.write_table_csv(args.out, bench.ParetoPoint, points)
            svg_path = Path(args.out).with_suffix(".svg")
            svg_path.write_text(bench.pareto_svg(points))
            print(f"wrote {svg_path}")
        elif args.mode == "effects":
            bench.write_table_csv(args.out, bench.EffectRow, bench.component_effects(ratios))
        elif args.mode == "interactions":
            param_a, param_b = (p.strip() for p in args.params.split(","))
            cells = bench.interaction_effects(ratios, param_a, param_b)
            bench.write_table_csv(args.out, bench.InteractionCell, cells)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_list_schedulers(args: argparse.Namespace) -> int:
    for name, config in scheduler.enumerate_configs():
        alias = scheduler.alias_of(config)
        print(f"{name} (alias: {alias})" if alias else name)
    return EXIT_OK


class Command(NamedTuple):
    help: str
    #: adds the command's arguments to its parser
    arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


#: every command, in the order the top-level help lists them
COMMANDS: dict[str, Command] = {
    "generate": Command("generate a dataset of random instances",
                        _generate_arguments, cmd_generate),
    "schedule": Command("schedule one instance with one scheduler",
                        _schedule_arguments, cmd_schedule),
    "validate": Command("check a schedule against an instance",
                        _validate_arguments, cmd_validate),
    "benchmark": Command("run schedulers over datasets", _benchmark_arguments, cmd_benchmark),
    "analyze": Command("derive tables from a results CSV", _analyze_arguments, cmd_analyze),
    "list-schedulers": Command("print the 72 scheduler names", _no_arguments,
                               cmd_list_schedulers),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the top level and every command's sub-parser."""
    parser = argparse.ArgumentParser(
        prog="listsched",
        description="Parametric list scheduling for heterogeneous task graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        command.arguments(sub.add_parser(name, help=command.help))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as ``build_parser().parse_args(argv)`` would.

    A call whose first word names a command builds only that command's
    parser, the same one the full parser would hand the rest of ``argv``
    to.  Everything else, and a call that leaves arguments unrecognized,
    goes to the full parser, which prints the top-level usage or error.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"listsched {argv[0]}")
        command.arguments(parser)
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return COMMANDS[args.command].run(args)
    except _Failure as exc:
        print(exc, file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"IO error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
