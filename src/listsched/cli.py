"""Command-line interface: generate, schedule, validate, benchmark, analyze.

One table, ``COMMANDS``, holds every command: its help, its options and
the function that runs it.  Each option is an ``Option`` record of the
keywords ``add_argument`` takes, so the table is both the full argparse
parser's source and the data a canonical call is read from.  A canonical
call names a command and then only exact ``--flag value`` groups of it,
each value valid; ``_parse`` builds its namespace from the table without
building a parser.  Every other call (help, an abbreviation,
``--flag=value``, a value that starts with ``-``, a bad value, a missing
flag) goes to the full parser, which prints the help or the usage error.
Nothing is cached between calls, so a call costs what it costs in a new
process.

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
import os
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
            table, svg = bench._table_text(bench.ParetoPoint, points), bench.pareto_svg(points)
            svg_path = Path(args.out).with_suffix(".svg")
            # a failing call writes no file: the table is written only once
            # the plot's path is open, and a plot file that this call
            # created is removed again if the table cannot be written
            new_svg = not os.path.lexists(svg_path)
            svg_fd = model._open_output(svg_path)
            try:
                model._write_text(args.out, table)
            except BaseException:
                os.close(svg_fd)
                if new_svg:
                    os.unlink(svg_path)
                raise
            model._write_text(svg_fd, svg)
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


class Option(NamedTuple):
    """One ``--flag`` of a command: the keywords ``add_argument`` takes for it."""

    flag: str
    help: str | None = None
    type: Callable[[str], object] | None = None
    default: object = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    nargs: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class Command(NamedTuple):
    help: str
    options: tuple[Option, ...]
    run: Callable[[argparse.Namespace], int]


#: every command, in the order the top-level help lists them
COMMANDS: dict[str, Command] = {
    "generate": Command("generate a dataset of random instances", (
        Option("--kind", required=True, choices=tuple(k.value for k in datagen.GraphKind)),
        Option("--ccr", "target communication-to-computation ratio (default 1)",
               _positive_float, 1.0),
        Option("--count", "number of instances (default 100)", _positive_int, 100),
        Option("--seed", "dataset seed (default 0)", _seed, 0),
        Option("--out", "output dataset directory", required=True),
    ), cmd_generate),
    "schedule": Command("schedule one instance with one scheduler", (
        Option("--instance", required=True),
        Option("--scheduler", "canonical name or alias (see list-schedulers)", required=True),
        Option("--out", "output schedule JSON", required=True),
    ), cmd_schedule),
    "validate": Command("check a schedule against an instance", (
        Option("--instance", required=True),
        Option("--schedule", required=True),
    ), cmd_validate),
    "benchmark": Command("run schedulers over datasets", (
        Option("--datasets", "one or more dataset directories", required=True, nargs="+"),
        Option("--schedulers", "'all' or a comma-separated list of names (default all)",
               default="all"),
        Option("--repeats", "timed runs per record; the median is kept (default 3)",
               _positive_int, 3),
        Option("--jobs", "accepted for compatibility; has no effect, every run "
                         "is timed serially (default 1)", _positive_int, 1),
        Option("--out", "output results CSV", required=True),
    ), cmd_benchmark),
    "analyze": Command("derive tables from a results CSV", (
        Option("--results", required=True),
        Option("--mode", required=True, choices=("ratios", "pareto", "effects", "interactions")),
        Option("--params", "two comma-separated parameters for --mode interactions "
                           "(e.g. compare,ccr)"),
        Option("--out", required=True),
    ), cmd_analyze),
    "list-schedulers": Command("print the 72 scheduler names", (), cmd_list_schedulers),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the top level and every command's sub-parser."""
    parser = argparse.ArgumentParser(
        prog="listsched",
        description="Parametric list scheduling for heterogeneous task graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        command_parser = sub.add_parser(name, help=command.help)
        for option in command.options:
            command_parser.add_argument(option.flag, **dict(zip(Option._fields[1:], option[1:])))
    return parser


def _exact(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of a canonical call, or None for any other call.

    A canonical call is a command followed only by exact ``--flag value``
    groups of that command: every word that starts with ``-`` is one of
    its flags, each flag has one value (at least one for ``nargs="+"``),
    every value converts by the option's ``type`` and is among its
    ``choices``, and every required flag is given.  As in argparse, a
    repeated flag keeps its last value and a missing option its default.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {option.flag: option for option in command.options}
    rest = argv[1:]
    starts = [i for i, word in enumerate(rest) if word.startswith("-")]
    if rest and starts[:1] != [0]:
        return None
    values = {}
    for i, j in zip(starts, starts[1:] + [len(rest)]):
        option, words = options.get(rest[i]), rest[i + 1:j]
        if option is None or not words or (option.nargs is None and len(words) > 1):
            return None
        try:
            converted = [option.type(word) for word in words] if option.type else words
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # argparse's usage errors
            return None
        if option.choices is not None and any(v not in option.choices for v in converted):
            return None
        values[option.dest] = converted if option.nargs else converted[0]
    for option in command.options:
        if option.dest not in values:
            if option.required:
                return None
            default = option.default
            values[option.dest] = (option.type(default) if option.type and isinstance(default, str)
                                   else default)
    return argparse.Namespace(command=argv[0], **values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as ``build_parser().parse_args(argv)`` would.

    A canonical call (see :func:`_exact`) is read from its command's
    option table without building a parser.  Every other call goes to
    the full parser, which prints the help or the usage error.
    """
    args = _exact(argv)
    return args if args is not None else build_parser().parse_args(argv)


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
