"""The three workloads: one client each, in a closed loop, in-process.

A workload has a set-up (the program's own preparation of the inputs,
timed and repeated by the caller), a ``unit`` (one step of the loop: the
client makes its next call only when the previous one has returned) and
a ``check`` (validation of every schedule, outside the timed phase).
Every call goes through the package's public API, looked up on the
module at call time so that the traced run's wrappers see it.

Why each workload, and the layers it stresses or bypasses:

paper_sweep
    The paper's own pipeline: ``generate`` for the 15 standard datasets,
    then ``benchmark --schedulers all --repeats 3 --jobs 2`` and
    ``analyze`` in ratios, pareto, effects and interactions modes.  Graphs of ~14
    tasks on 3-5 nodes make per-call overhead, the 84 rank computations
    per instance and the process pool dominate; window search barely
    runs.
large_dag
    ``schedule()`` on layered DAGs of 1000 tasks / 16 nodes and 3000 tasks
    / 32 nodes with HEFT, EFT_Ins_CP_CR_Suf and MCT.  Insertion window
    search scans each node's entries and dominates here; MCT is
    append-only and bypasses that scan, so a window-search change must
    leave MCT unchanged.
one_shot_cli
    ``listsched schedule`` then ``listsched validate`` on 60 saved
    out_trees at CCR 1 with 4 schedulers.  Nothing carries over between
    calls: parser construction, JSON I/O and validation dominate, and
    schedule() is a small share.  A per-instance cache or stricter
    parsing at load costs here and pays off only in the sweep.
"""

from __future__ import annotations

import csv
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import inputs
from hostspeed import HostSpeed
from reference import UNLOCATED, Reference, fingerprint

from listsched import cli, datagen, model, scheduler


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """Run ``listsched <argv>`` in-process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed call; the loop goes on
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue(), err.getvalue()


class Workload:
    name = ""
    #: units that observe every reference position at least once
    reference_units = 1
    #: units per block when the traced run compares traced and untraced time
    trace_block = 1
    #: the call-latency tail: the highest of 50/75/90/95/99/99.9 that a run
    #: leaves ten samples beyond (the loop makes enough calls for it), and
    #: one that falls inside one kind of call, not between two
    tail_percentile = 75.0

    def __init__(self, bank: int, work: Path, reference: Reference | None):
        self.bank = bank
        self.work = work
        self.reference = reference
        self.setups = 0
        self.units = 0
        self.host = HostSpeed()
        #: (start, end) of every timed call
        self.calls: list[tuple[float, float]] = []
        self.timed_s = 0.0
        self.records = 0
        self.tasks = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.invalid = 0
        self.checked = 0
        self.wrong: set[int] = set()
        self.observed: dict[int, str | None] = {}

    def _timed(self, fn, *args):
        """``fn(*args)``, timed as one call, with the host speed sampled around it."""
        self.host.sample_if_due()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.calls.append((start, end))
            self.timed_s += end - start
            self.host.sample_if_due()

    def _cli(self, argv: list[str], timed: bool = False) -> str | None:
        """Stdout of one CLI call, or None if it failed."""
        if timed:
            code, out, err = self._timed(cli_call, argv)
        else:
            code, out, err = cli_call(argv)
        self.attempted += 1
        if code != 0:
            self._fail(f"{argv[0]} exited {code}: {err.strip()[-300:]}")
            return None
        return out

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def _observe(self, position: int, value: str | None) -> None:
        """Check one makespan (as written with repr) against the reference."""
        if position not in self.observed:
            self.observed[position] = value
            if self.reference is not None and not self.reference.matches(position, value):
                self.wrong.add(position)
        elif self.observed[position] != value:
            self.wrong.add(position)

    def _validate(self, instance: model.ProblemInstance, sched: model.Schedule) -> None:
        self.checked += 1
        if model.validate_schedule(instance, sched):
            self.invalid += 1

    def values(self) -> list[str | None]:
        return [self.observed[p] for p in sorted(self.observed)]

    def wrong_makespans(self) -> int:
        """Makespans that differ from the reference.

        Once the run has made the units that cover the reference, a
        reference position that was never observed counts as wrong too.
        """
        wrong = set(self.wrong)
        ref = self.reference
        if ref is None or self.units < self.reference_units:
            return len(wrong)
        wrong.update(p for p in range(len(ref)) if p not in self.observed)
        if not wrong and fingerprint(self.values()) != ref.sha256:
            wrong.add(UNLOCATED)
        return len(wrong)

    def step(self) -> None:
        """One unit of the closed loop."""
        self.unit()
        self.units += 1

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError


class PaperSweep(Workload):
    name = "paper_sweep"
    #: one call in five is ``benchmark``: p90 is the middle of those calls;
    #: a lower tail would fall among the ~12 ms ``analyze`` calls, where
    #: host noise the scaling cannot see moves it by 20% between runs
    tail_percentile = 90.0

    def __init__(self, bank, work, reference):
        super().__init__(bank, work, reference)
        self.seeds = inputs.sweep_seeds(bank)
        self.results = str(work / "results.csv")
        self.n_tasks: dict[tuple[str, str], int] = {}

    def setup(self) -> None:
        out = self.work / f"data{self.setups}"
        self.setups += 1
        self.dirs = []
        for (kind, ccr), seed in zip(inputs.sweep_datasets(), self.seeds):
            path = str(out / datagen.dataset_name(kind, ccr))
            self._cli(
                ["generate", "--kind", kind.value, "--ccr", str(ccr),
                 "--count", str(inputs.SWEEP_COUNT), "--seed", str(seed), "--out", path])
            self.dirs.append(path)

    def unit(self) -> None:
        Path(self.results).unlink(missing_ok=True)
        self._cli(["benchmark", "--datasets", *self.dirs, "--schedulers", "all",
                   "--repeats", "3", "--jobs", "2", "--out", self.results], timed=True)
        for mode, extra in (("ratios", []), ("pareto", []), ("effects", []),
                            ("interactions", ["--params", "compare,ccr"])):
            self._cli(["analyze", "--results", self.results, "--mode", mode,
                       "--out", str(self.work / f"{mode}.csv"), *extra], timed=True)
        if not self.n_tasks:
            for path in self.dirs:
                ds = datagen.load_dataset(path)
                for i, inst in enumerate(ds.instances):
                    self.n_tasks[(ds.name, str(i))] = len(inst.task_graph.tasks)
        if not Path(self.results).is_file():
            return
        with open(self.results, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if self.reference is not None:  # rows this unit lost are wrong makespans
            self.wrong.update(range(len(rows), len(self.reference)))
        for position, row in enumerate(rows):
            self._observe(position, row["makespan"] or None)
            self.attempted += 1
            if row["error"]:
                self._fail(f"record {position}: {row['error']}")
            self.tasks += self.n_tasks.get((row["dataset"], row["instance"]), 0)
        self.records += len(rows)

    def check(self) -> None:
        configs = scheduler.enumerate_configs()
        for path in self.dirs:
            for instance in datagen.load_dataset(path).instances:
                for _, config in configs:
                    self._validate(instance, scheduler.schedule(instance, config))


class LargeDag(Workload):
    name = "large_dag"
    configs = ("HEFT", "EFT_Ins_CP_CR_Suf", "MCT")
    #: calls per instance in one round, in LARGE_SIZES order.  The smaller
    #: DAG runs ten times, so that the median and p75 of the 33 calls fall
    #: well inside one (size, config) group (at 70% and 50% of it), not
    #: near the edge between two, where every call's own noise moves them.
    repeats = (10, 1)

    def __init__(self, bank, work, reference):
        super().__init__(bank, work, reference)
        self.first: dict[int, model.Schedule] = {}

    def setup(self) -> None:
        self.setups += 1
        self.instances = [inputs.layered_dag(self.bank, n, m) for n, m in inputs.LARGE_SIZES]

    def unit(self) -> None:
        for index, (instance, repeats) in enumerate(zip(self.instances, self.repeats)):
            for _ in range(repeats):
                for c, name in enumerate(self.configs):
                    self._schedule(index * len(self.configs) + c, instance, name)

    def _schedule(self, position: int, instance: model.ProblemInstance, name: str) -> None:
        config = scheduler.config_by_name(name)
        self.attempted += 1
        try:
            sched = self._timed(scheduler.schedule, instance, config)
        except Exception as exc:  # a crash is a failed call; the loop goes on
            self._fail(f"schedule {name}: {type(exc).__name__}: {exc}")
            return
        self.records += 1
        self.tasks += len(instance.task_graph.tasks)
        self._observe(position, repr(model.makespan(sched)))
        self.first.setdefault(position, sched)

    def check(self) -> None:
        for position, sched in self.first.items():
            instance = self.instances[position // len(self.configs)]
            self._validate(instance, sched)


class OneShotCli(Workload):
    name = "one_shot_cli"
    schedulers = ("HEFT", "MCT", "Sufferage", "EFT_Ins_CP_CR_Suf")
    trace_block = 100
    #: p99 moved by 13% between seeds (1% of 5 ms calls is where host
    #: noise the scaling cannot see lands); p95 by 3%, and it still holds
    #: the calls a garbage-collector pass lands in
    tail_percentile = 95.0

    def __init__(self, bank, work, reference):
        super().__init__(bank, work, reference)
        self.seed = inputs.cli_seed(bank)
        self.out = str(work / "schedule.json")
        self.reference_units = inputs.CLI_COUNT * len(self.schedulers)

    def setup(self) -> None:
        path = self.work / f"cli{self.setups}"
        self.setups += 1
        self._cli(
            ["generate", "--kind", inputs.CLI_KIND.value, "--ccr", str(inputs.CLI_CCR),
             "--count", str(inputs.CLI_COUNT), "--seed", str(self.seed), "--out", str(path)])
        self.paths = [str(path / f"instance_{i:03d}.json") for i in range(inputs.CLI_COUNT)]
        self.instances = [model.load_instance(p) for p in self.paths]

    def unit(self) -> None:
        position = self.units % self.reference_units
        index, scheduler_name = divmod(position, len(self.schedulers))
        instance_path = self.paths[index]
        printed = self._timed(self._round_trip, instance_path, self.schedulers[scheduler_name])
        self.records += 1
        self.tasks += len(self.instances[index].task_graph.tasks)
        self._observe(position, printed.strip() if printed else None)
        if printed is not None:
            self._validate(self.instances[index], model.load_schedule(self.out))

    def _round_trip(self, instance_path: str, scheduler_name: str) -> str | None:
        """One call: ``schedule``, then ``validate`` of what it wrote."""
        printed = self._cli(["schedule", "--instance", instance_path,
                             "--scheduler", scheduler_name, "--out", self.out])
        self._cli(["validate", "--instance", instance_path, "--schedule", self.out])
        return printed

    def check(self) -> None:
        pass  # every written schedule is validated right after its call


WORKLOADS = {cls.name: cls for cls in (PaperSweep, LargeDag, OneShotCli)}
