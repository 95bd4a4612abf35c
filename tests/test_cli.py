import argparse
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from listsched import (
    GenParams,
    GraphKind,
    bench,
    config_by_name,
    enumerate_configs,
    gen_dataset,
    load_schedule,
    save_dataset,
    save_instance,
    save_schedule,
    schedule,
    validate_schedule,
)
from listsched.bench import RESULTS_HEADER
from listsched import cli
from listsched.cli import main
from listsched.model import load_instance

from conftest import (
    LONGER_FILE,
    MALFORMED_CASES,
    WRONG_SHAPE_INSTANCES,
    WRONG_SHAPE_SCHEDULES,
    ab_instance_dict,
    branches_past_the_largest_float,
    fork_with_tiny_weight,
    malformed_instance_dict,
    wrong_shape_instance,
    wrong_shape_schedule,
)
from reference import reference_read_results_csv

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "ds"
    assert main([
        "generate", "--kind", "chains", "--ccr", "1", "--count", "3",
        "--seed", "5", "--out", str(out),
    ]) == 0
    return out


@pytest.fixture
def instance_file(tmp_path, chain_fast_slow):
    path = tmp_path / "instance.json"
    save_instance(chain_fast_slow, path)
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestGenerate:
    def test_writes_instances_and_manifest(self, dataset_dir):
        files = sorted(p.name for p in dataset_dir.iterdir())
        assert files == [
            "instance_000.json", "instance_001.json", "instance_002.json",
            "manifest.json",
        ]
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest == {
            "name": "chains_ccr_1", "kind": "chains", "target_ccr": 1.0,
            "seed": 5, "count": 3,
        }

    def test_regeneration_is_byte_identical(self, tmp_path):
        args = ["generate", "--kind", "in_trees", "--ccr", "0.2", "--count", "4",
                "--seed", "9"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("manifest.json", "instance_000.json", "instance_003.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_smaller_regeneration_leaves_no_stale_instances(self, dataset_dir, tmp_path):
        # instance_002.json of the 3-instance dataset used to stay behind,
        # so benchmark rejected the directory against its count-2 manifest
        assert main(["generate", "--kind", "chains", "--count", "2",
                     "--out", str(dataset_dir)]) == 0
        out = tmp_path / "x.csv"
        assert main(["benchmark", "--datasets", str(dataset_dir), "--schedulers", "HEFT",
                     "--repeats", "1", "--out", str(out)]) == 0
        assert len(read_rows(out)) == 2

    def test_zero_count_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--kind", "chains", "--count", "0",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("ccr", ["inf", "-inf", "nan", "0"])
    def test_non_finite_or_non_positive_ccr_is_usage_error(self, tmp_path, capsys, ccr):
        # inf used to reach Network as zero strengths, a ValueError traceback
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--kind", "chains", "--count", "1", f"--ccr={ccr}",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "expected a positive finite number" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, fragments", [
        (["--count", "1", "--ccr", "1e-320"], ["must be positive and finite, got inf"]),
        (["--count", "1" + "0" * 20], ["count", "too large", str(sys.maxsize)]),
    ], ids=["ccr 1e-320", "count 1e20"])
    def test_unbuildable_dataset_is_domain_error(self, tmp_path, capsys, flag, fragments):
        # a ccr of 1e-320 scales the strengths to inf (a ValueError from
        # Network) and a count past ssize_t cannot seed SeedSequence.spawn
        # (GenParams names the limit); both used to end in a traceback
        out = tmp_path / "x"
        assert main(["generate", "--kind", "chains", *flag, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot generate dataset: ") and err.count("\n") == 1
        assert all(fragment in err for fragment in fragments), err
        assert not out.exists()


class TestSchedule:
    def test_alias_accepted(self, instance_file, tmp_path, capsys, chain_fast_slow):
        out = tmp_path / "sched.json"
        assert main(["schedule", "--instance", str(instance_file),
                     "--scheduler", "HEFT", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "1.0"
        result = load_schedule(out)
        assert validate_schedule(chain_fast_slow, result) == []

    def test_canonical_accepted(self, instance_file, tmp_path):
        out = tmp_path / "sched.json"
        assert main(["schedule", "--instance", str(instance_file),
                     "--scheduler", "EFT_Ins_UR", "--out", str(out)]) == 0

    def test_unknown_scheduler_lists_names(self, instance_file, tmp_path, capsys):
        code = main(["schedule", "--instance", str(instance_file),
                     "--scheduler", "FOO", "--out", str(tmp_path / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        # every canonical name is listed for the user
        listed = [line.strip() for line in err.splitlines() if line.startswith("  ")]
        assert len(listed) == 72


class TestOutputFile:
    """Every ``--out`` is overwritten in place and cut to the new length."""

    def schedule(self, instance_file, out):
        return main(["schedule", "--instance", str(instance_file), "--scheduler", "HEFT",
                     "--out", str(out)])

    def fresh_bytes(self, instance_file, tmp_path):
        self.schedule(instance_file, tmp_path / "fresh.json")
        return (tmp_path / "fresh.json").read_bytes()

    def test_dev_null_is_accepted(self, instance_file, capsys):
        # ftruncate on a character device fails with EINVAL
        assert self.schedule(instance_file, os.devnull) == 0
        assert capsys.readouterr() == ("1.0\n", "")

    def test_a_pipe_gets_the_schedule_bytes(self, instance_file, tmp_path, capsys):
        read_end, write_end = os.pipe()
        try:
            code = self.schedule(instance_file, f"/dev/fd/{write_end}")
        finally:
            os.close(write_end)
        with os.fdopen(read_end, "rb") as fh:
            piped = fh.read()
        assert code == 0
        assert capsys.readouterr() == ("1.0\n", "")
        assert piped == self.fresh_bytes(instance_file, tmp_path)

    def test_a_symlink_stays_a_link_and_its_target_is_rewritten(
        self, instance_file, tmp_path, capsys
    ):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(LONGER_FILE)
        link.symlink_to(target)
        assert self.schedule(instance_file, link) == 0
        assert capsys.readouterr() == ("1.0\n", "")
        assert link.is_symlink() and link.readlink() == target
        assert target.read_bytes() == self.fresh_bytes(instance_file, tmp_path)

    def test_a_hard_linked_output_changes_under_both_names(self, instance_file, tmp_path, capsys):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_bytes(LONGER_FILE)
        first.chmod(0o640)
        os.link(first, second)
        assert self.schedule(instance_file, second) == 0
        assert capsys.readouterr() == ("1.0\n", "")
        fresh = self.fresh_bytes(instance_file, tmp_path)
        assert first.read_bytes() == second.read_bytes() == fresh
        assert first.stat().st_ino == second.stat().st_ino
        assert first.stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize("out, error", [
        ("dir", "[Errno 21] Is a directory"),
        ("dir/missing/s.json", "[Errno 2] No such file or directory"),
    ], ids=["existing directory", "missing parent"])
    def test_an_output_that_cannot_be_opened_is_an_io_error(
        self, instance_file, tmp_path, capsys, out, error
    ):
        directory = tmp_path / "dir"
        directory.mkdir()
        (directory / "kept.json").write_text("kept")
        assert self.schedule(instance_file, tmp_path / out) == 2
        assert capsys.readouterr() == ("", f"IO error: {error}: '{tmp_path / out}'\n")
        assert [p.name for p in directory.iterdir()] == ["kept.json"]
        assert (directory / "kept.json").read_text() == "kept"


@pytest.mark.parametrize("case", MALFORMED_CASES)
@pytest.mark.parametrize("command", ["schedule", "validate"])
def test_malformed_instance_is_domain_error(tmp_path, capsys, command, case):
    data = malformed_instance_dict(case)
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(data))
    # both tasks on n1 (speed 2): valid under a lenient reading of ``data``
    cost = {t["id"]: float(t["cost"]) for t in data["task_graph"]["tasks"]}
    a_end = cost["a"] / 2.0
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"entries": [
        {"task": "a", "node": "n1", "start": 0.0, "end": a_end},
        {"task": "b", "node": "n1", "start": a_end, "end": a_end + cost["b"] / 2.0},
    ]}))
    out = tmp_path / "out.json"
    if command == "schedule":
        args = ["schedule", "--instance", str(instance), "--scheduler", "HEFT",
                "--out", str(out)]
        prefix = "invalid instance file: "
    else:
        args = ["validate", "--instance", str(instance), "--schedule", str(sched)]
        prefix = "invalid input: "
    assert main(args) == 1
    assert capsys.readouterr().err == f"{prefix}{MALFORMED_CASES[case]}\n"
    assert not out.exists()


@pytest.mark.parametrize("case, part", WRONG_SHAPE_INSTANCES)
@pytest.mark.parametrize("command", ["schedule", "validate"])
def test_wrong_shape_instance_is_domain_error(tmp_path, capsys, command, case, part):
    # each used to escape as a TypeError with a traceback
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(wrong_shape_instance(case)))
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(wrong_shape_schedule()))
    if command == "schedule":
        args = ["schedule", "--instance", str(instance), "--scheduler", "HEFT",
                "--out", str(tmp_path / "out.json")]
        message = f"invalid instance file: wrong JSON shape in {part}: "
    else:
        args = ["validate", "--instance", str(instance), "--schedule", str(sched)]
        message = f"invalid input: wrong JSON shape in {part}: "
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("case", WRONG_SHAPE_SCHEDULES)
def test_wrong_shape_schedule_is_domain_error(tmp_path, capsys, case):
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(ab_instance_dict()))
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(wrong_shape_schedule(case)))
    assert main(["validate", "--instance", str(instance), "--schedule", str(sched)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: wrong JSON shape in schedule entries: ") and err.count("\n") == 1


def test_wrong_shape_fixtures_are_valid_unbroken(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(ab_instance_dict()))
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(wrong_shape_schedule()))
    assert main(["validate", "--instance", str(instance), "--schedule", str(sched)]) == 0


class TestValidate:
    def test_valid_pair(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sched.json"
        main(["schedule", "--instance", str(instance_file),
              "--scheduler", "HEFT", "--out", str(out)])
        capsys.readouterr()
        assert main(["validate", "--instance", str(instance_file),
                     "--schedule", str(out)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_overlap_reported(self, instance_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"entries": [
            {"task": "A", "node": "n1", "start": 0.0, "end": 1.0},
            {"task": "B", "node": "n1", "start": 0.5, "end": 1.5},
        ]}))
        assert main(["validate", "--instance", str(instance_file),
                     "--schedule", str(bad)]) == 1
        assert "NodeOverlap" in capsys.readouterr().out

    def test_missing_task_reported(self, instance_file, tmp_path, capsys):
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"entries": [
            {"task": "A", "node": "n1", "start": 0.0, "end": 1.0},
        ]}))
        assert main(["validate", "--instance", str(instance_file),
                     "--schedule", str(partial)]) == 1
        assert "UnscheduledTask" in capsys.readouterr().out

    @pytest.mark.parametrize("task, node, part", [
        ("zzz", "n1", "task"), ("A", "zzz", "node"),
    ])
    def test_unknown_task_or_node_is_one_unquoted_line(
        self, instance_file, tmp_path, capsys, task, node, part
    ):
        # the message used to be printed as the KeyError's repr, in "..."
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"entries": [
            {"task": task, "node": node, "start": 0.0, "end": 1.0},
        ]}))
        assert main(["validate", "--instance", str(instance_file),
                     "--schedule", str(sched)]) == 1
        assert capsys.readouterr().err == (
            f"invalid input: schedule references unknown {part} 'zzz'\n"
        )

    @pytest.mark.parametrize("start, end, shown", [
        ("NaN", "1.0", "nan to 1.0"), ("0.0", "Infinity", "0.0 to inf"),
    ])
    def test_non_finite_entry_time_is_one_line(
        self, instance_file, tmp_path, capsys, start, end, shown
    ):
        # a NaN start used to load and then fail as "WrongDuration ... runs for nan"
        sched = tmp_path / "sched.json"
        sched.write_text(
            f'{{"entries": [{{"task": "A", "node": "n1", "start": {start}, "end": {end}}}]}}'
        )
        assert main(["validate", "--instance", str(instance_file),
                     "--schedule", str(sched)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"invalid input: entry for 'A' has a non-finite time: {shown}\n"


class TestOverflowingExecutionTime:
    """A task whose run, or whose chain of runs, outlasts the largest float is exit 1."""

    @staticmethod
    def write_chain(path, costs, speed):
        tasks = sorted(costs)
        path.write_text(json.dumps({
            "network": {"nodes": [{"id": "n0", "speed": speed}], "links": []},
            "task_graph": {
                "tasks": [{"id": t, "cost": costs[t]} for t in tasks],
                "deps": [{"src": a, "dst": b, "size": 1.0} for a, b in zip(tasks, tasks[1:])],
            },
        }))
        return path

    MESSAGE = "execution time of task 'a' on node 'n0' is not finite: cost 1e+308 over speed 1e-10"

    def test_validate_rejects_the_instance(self, tmp_path, capsys):
        # the duration tolerance used to be inf, so a 1-unit entry was valid, exit 0
        instance = self.write_chain(tmp_path / "instance.json", {"a": 1e308}, 1e-10)
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"entries": [
            {"task": "a", "node": "n0", "start": 0.0, "end": 1.0},
        ]}))
        assert main(["validate", "--instance", str(instance), "--schedule", str(sched)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"invalid input: {self.MESSAGE}\n"

    def test_schedule_rejects_the_instance(self, tmp_path, capsys):
        # used to die with a ValueError traceback from ScheduleEntry
        instance = self.write_chain(tmp_path / "instance.json", {"a": 1e308}, 1e-10)
        out = tmp_path / "out.json"
        assert main(["schedule", "--instance", str(instance), "--scheduler", "HEFT",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"invalid instance file: {self.MESSAGE}\n"
        assert not out.exists()

    def test_an_overflowing_chain_cannot_be_scheduled(self, tmp_path, capsys):
        instance = self.write_chain(tmp_path / "instance.json", {"a": 1e308, "b": 1e308}, 1.0)
        out = tmp_path / "out.json"
        # MCT ranks nothing; HEFT's upward rank of a overflows first
        assert main(["schedule", "--instance", str(instance), "--scheduler", "MCT",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "cannot schedule: entry for 'b' has a non-finite time: 1e+308 to inf\n"
        )
        assert not out.exists()


def test_an_overflowing_rank_average_cannot_be_scheduled(tmp_path, capsys):
    # every execution time is finite, but 1 / 1e-310 is not: HEFT used to
    # schedule with every upward rank inf, and exit 0
    instance = tmp_path / "instance.json"
    save_instance(fork_with_tiny_weight(speed=1e-310), instance)
    out = tmp_path / "out.json"
    assert main(["schedule", "--instance", str(instance), "--scheduler", "HEFT",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "cannot schedule: mean reciprocal speed is not finite: the smallest speed is 1e-310\n"
    )
    assert not out.exists()
    assert main(["schedule", "--instance", str(instance), "--scheduler", "MCT",
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("scheduler", ["HEFT", "EFT_Ins_CP_AT"])
def test_an_overflowing_path_sum_cannot_be_scheduled(tmp_path, capsys, scheduler):
    # both averages are finite, but a and b used to rank inf and the
    # "critical path" held all 8 tasks of both branches, exit 0
    instance = tmp_path / "instance.json"
    save_instance(branches_past_the_largest_float(), instance)
    out = tmp_path / "out.json"
    assert main(["schedule", "--instance", str(instance), "--scheduler", scheduler,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "cannot schedule: upward rank of task 'a' is not finite: its path sum overflows\n"
    )
    assert not out.exists()
    assert main(["schedule", "--instance", str(instance), "--scheduler", "MCT",
                 "--out", str(out)]) == 0


class TestBenchmark:
    def test_subset_of_schedulers(self, dataset_dir, tmp_path):
        out = tmp_path / "results.csv"
        assert main(["benchmark", "--datasets", str(dataset_dir),
                     "--schedulers", "HEFT,MET", "--repeats", "1",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 6  # 3 instances x 2 schedulers
        assert {r["scheduler"] for r in rows} == {"HEFT", "MET"}
        assert all(float(r["makespan_ratio"]) >= 1.0 for r in rows)

    def test_all_schedulers(self, dataset_dir, tmp_path):
        out = tmp_path / "results.csv"
        assert main(["benchmark", "--datasets", str(dataset_dir),
                     "--repeats", "1", "--out", str(out)]) == 0
        assert len(read_rows(out)) == 3 * 72

    def test_makespan_columns_reproducible(self, dataset_dir, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["benchmark", "--datasets", str(dataset_dir),
                "--schedulers", "HEFT,MCT,MET", "--repeats", "1"]
        assert main(args + ["--out", str(out_a)]) == 0
        # --jobs is accepted and leaves the makespans alone
        assert main(args + ["--jobs", "2", "--out", str(out_b)]) == 0
        pick = lambda rows: [(r["scheduler"], r["makespan"], r["makespan_ratio"]) for r in rows]
        assert pick(read_rows(out_a)) == pick(read_rows(out_b))

    def test_missing_dataset_dir(self, tmp_path, capsys):
        code = main(["benchmark", "--datasets", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_directory_without_manifest_is_io_error(self, dataset_dir, tmp_path, capsys):
        (dataset_dir / "manifest.json").unlink()
        code = main(["benchmark", "--datasets", str(dataset_dir),
                     "--schedulers", "HEFT", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("IO error: ") and err.count("\n") == 1
        assert "manifest.json" in err

    def test_malformed_instance_in_dataset(self, dataset_dir, tmp_path, capsys):
        path = dataset_dir / "instance_001.json"
        data = json.loads(path.read_text())
        del data["task_graph"]["tasks"][0]["cost"]
        path.write_text(json.dumps(data))
        code = main(["benchmark", "--datasets", str(dataset_dir),
                     "--schedulers", "HEFT", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "invalid dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [
        '["chains_ccr_1", 3]', '{"name": "d", "count": null}',
        '{"name": "d", "count": 1e999}', '{"name": "d", "count": 1.5}',
        '{"name": "d", "count": true}', '{"name": "d", "count": "2"}',
        '{"name": "d", "count": -1}', '{"name": "d", "count": 1%s}' % ("0" * 399),
    ], ids=["list", "null count", "1e999 count", "fractional count", "true count",
            "string count", "negative count", "400-digit count"])
    def test_wrong_shape_manifest_is_domain_error(self, dataset_dir, tmp_path, capsys, manifest):
        # list and null escaped as a TypeError, 1e999 as an OverflowError, the
        # 400-digit count ended in an IO error and the others loaded silently
        (dataset_dir / "manifest.json").write_text(manifest)
        code = main(["benchmark", "--datasets", str(dataset_dir),
                     "--schedulers", "HEFT", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid dataset {dataset_dir}: wrong JSON shape in manifest: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("count", [5, 1], ids=["count above files", "count below files"])
    def test_manifest_count_must_match_the_files(self, dataset_dir, tmp_path, capsys, count):
        # 5 used to end in an IO error naming instance_003.json (exit 2);
        # 1 silently dropped two of the three instances (exit 0)
        manifest = dataset_dir / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "count": count}))
        out = tmp_path / "x.csv"
        code = main(["benchmark", "--datasets", str(dataset_dir),
                     "--schedulers", "HEFT", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"invalid dataset {dataset_dir}: manifest count {count} expects "
            f"instance_000.json to instance_{count - 1:03d}.json, found 3 "
            f"instance_*.json files\n"
        )
        assert not out.exists()

    def test_renamed_instance_file_is_domain_error(self, dataset_dir, tmp_path, capsys):
        # the right number of files under names the manifest does not list
        (dataset_dir / "instance_002.json").rename(dataset_dir / "instance_1000.json")
        code = main(["benchmark", "--datasets", str(dataset_dir),
                     "--schedulers", "HEFT", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "manifest count 3 expects instance_000.json to instance_002.json, found 3" in (
            capsys.readouterr().err
        )

    def test_empty_dataset_is_domain_error(self, dataset_dir, tmp_path, capsys):
        # a manifest with count 0 used to write a header-only results file, exit 0
        manifest = dataset_dir / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "count": 0}))
        out = tmp_path / "x.csv"
        code = main(["benchmark", "--datasets", str(dataset_dir), "--out", str(out)])
        assert code == 1
        assert ("wrong JSON shape in manifest: expected a positive integer, got 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_scheduler_name(self, dataset_dir, tmp_path):
        code = main(["benchmark", "--datasets", str(dataset_dir),
                     "--schedulers", "HEFT,NOPE", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_unknown_scheduler_lists_names(self, dataset_dir, tmp_path, capsys):
        # the same listing as schedule's, not a pointer to list-schedulers
        code = main(["benchmark", "--datasets", str(dataset_dir),
                     "--schedulers", "HEFT,FOO", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("unknown scheduler 'FOO'; valid names:\n")
        listed = [line.strip() for line in err.splitlines() if line.startswith("  ")]
        assert listed == [name for name, _ in enumerate_configs()]

    def test_repeated_scheduler_name_rejected_before_the_sweep(
        self, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        # HEFT,HEFT used to sweep and write two rows per instance for HEFT
        monkeypatch.setattr(bench, "run_benchmark", lambda *a, **k: pytest.fail("swept"))
        out = tmp_path / "x.csv"
        code = main(["benchmark", "--datasets", str(dataset_dir),
                     "--schedulers", "HEFT, MET,HEFT", "--out", str(out)])
        assert code == 1
        assert "given more than once: HEFT" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("same_directory", [False, True])
    def test_repeated_dataset_name_rejected_before_the_sweep(
        self, dataset_dir, tmp_path, capsys, monkeypatch, same_directory
    ):
        # a name leaves out the seed, so two seeds used to sweep and then fail
        # to normalize on their duplicate rows, writing nothing
        other = dataset_dir
        if not same_directory:
            other = tmp_path / "seed6"
            assert main(["generate", "--kind", "chains", "--ccr", "1", "--count", "3",
                         "--seed", "6", "--out", str(other)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(bench, "run_benchmark", lambda *a, **k: pytest.fail("swept"))
        out = tmp_path / "x.csv"
        code = main(["benchmark", "--datasets", str(dataset_dir), str(other), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"invalid dataset {other}: name 'chains_ccr_1' already belongs to {dataset_dir}\n")
        assert not out.exists()


@pytest.fixture
def results_csv(dataset_dir, tmp_path):
    out = tmp_path / "results.csv"
    assert main(["benchmark", "--datasets", str(dataset_dir),
                 "--repeats", "1", "--out", str(out)]) == 0
    return out


def not_as_written(instance="0", span="1.0", runtime="0.001"):
    """The reader's message for line 2 when its cells parse but break the writer's format."""
    return (f"line 2: instance {instance!r} must be ASCII digits, makespan {span!r} "
            f"and runtime {runtime!r} ASCII without '_'")


class TestAnalyze:
    def test_pareto(self, results_csv, tmp_path, capsys):
        out = tmp_path / "pareto.csv"
        assert main(["analyze", "--results", str(results_csv),
                     "--mode", "pareto", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 72
        assert {r["pareto_optimal"] for r in rows} <= {"True", "False"}
        assert sum(r["pareto_optimal"] == "True" for r in rows) >= 1
        svg = Path(out.with_suffix(".svg"))
        assert svg.is_file() and svg.read_text().startswith("<svg")

    def test_pareto_synthetic_example(self, tmp_path):
        src = tmp_path / "synthetic.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "instance", "scheduler", "makespan",
                             "runtime_seconds", "makespan_ratio", "runtime_ratio",
                             "error"])
            writer.writerow(["d", 0, "fast", 2.0, 0.001, "", "", ""])
            writer.writerow(["d", 0, "good", 1.0, 0.002, "", "", ""])
            writer.writerow(["d", 0, "bad", 2.5, 0.004, "", "", ""])
        out = tmp_path / "pareto.csv"
        assert main(["analyze", "--results", str(src), "--mode", "pareto",
                     "--out", str(out)]) == 0
        rows = {r["scheduler"]: r["pareto_optimal"] for r in read_rows(out)}
        assert rows == {"fast": "True", "good": "True", "bad": "False"}

    def test_zero_runtime_is_domain_error(self, tmp_path, capsys):
        src = tmp_path / "zero.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "instance", "scheduler", "makespan",
                             "runtime_seconds", "makespan_ratio", "runtime_ratio",
                             "error"])
            writer.writerow(["d", 0, "fast", 2.0, 0.0, "", "", ""])
            writer.writerow(["d", 0, "good", 1.0, 0.002, "", "", ""])
        assert main(["analyze", "--results", str(src), "--mode", "pareto",
                     "--out", str(tmp_path / "pareto.csv")]) == 1
        assert "minimum runtime is 0" in capsys.readouterr().err

    def write_results(self, path, rows, header=RESULTS_HEADER):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def test_empty_makespan_is_domain_error(self, tmp_path, capsys):
        # an empty makespan without an error used to load as NaN and
        # turn every makespan ratio of the instance into nan, exit 0
        src = tmp_path / "empty.csv"
        self.write_results(src, [["d", 0, "A", "", 0.001, "", "", ""],
                                 ["d", 0, "B", 2.0, 0.002, "", "", ""],
                                 ["d", 0, "C", 3.0, 0.003, "", "", ""]])
        assert main(["analyze", "--results", str(src), "--mode", "ratios",
                     "--out", str(tmp_path / "ratios.csv")]) == 1
        err = capsys.readouterr().err
        assert "line 2 (d, 0, A) has no error but makespan ''" in err

    def test_unparsable_makespan_is_domain_error(self, tmp_path, capsys):
        src = tmp_path / "abc.csv"
        self.write_results(src, [["d", 0, "A", "abc", 0.001, "", "", ""]])
        assert main(["analyze", "--results", str(src), "--mode", "ratios",
                     "--out", str(tmp_path / "ratios.csv")]) == 1
        assert "'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("column, cell, message", [
        (1, "x", "line 2: invalid literal for int() with base 10: 'x'"),
        (3, "abc", "line 2: could not convert string to float: 'abc'"),
        # int() and float() read these, but the writer never writes them
        (1, "1_0", not_as_written(instance="1_0")),
        (1, "\u0663", not_as_written(instance="\u0663")),
        (1, " 1", not_as_written(instance=" 1")),
        (3, "1_0", not_as_written(span="1_0")),
        (3, "\u0663", not_as_written(span="\u0663")),
        (4, "0.00_1", not_as_written(runtime="0.00_1")),
    ])
    def test_unparsable_cell_names_its_line(self, tmp_path, capsys, column, cell, message):
        row = ["d", 0, "A", 1.0, 0.001, "", "", ""]
        row[column] = cell
        src = tmp_path / "bad.csv"
        self.write_results(src, [row])
        assert main(["analyze", "--results", str(src), "--mode", "ratios",
                     "--out", str(tmp_path / "ratios.csv")]) == 1
        assert capsys.readouterr().err == f"invalid results file: {message}\n"

    @pytest.mark.parametrize("ccr", ["abc", "inf"])
    def test_non_numeric_ccr_names_the_dataset(self, tmp_path, capsys, ccr):
        # float() of the CCR text used to fail without naming the dataset;
        # float("inf") reads, but generate never writes an inf CCR
        src = tmp_path / "ccr.csv"
        self.write_results(src, [[f"x_ccr_{ccr}", 0, name, 1.0, 0.001, "", "", ""]
                                 for name, _ in enumerate_configs()])
        assert main(["analyze", "--results", str(src), "--mode", "interactions",
                     "--params", "compare,ccr", "--out", str(tmp_path / "i.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"analysis failed: dataset name 'x_ccr_{ccr}' is not ")
        assert err.count("\n") == 1

    def test_field_over_the_csv_limit_is_domain_error(self, tmp_path, capsys):
        # csv.Error used to escape read_results_csv with a traceback
        src = tmp_path / "long.csv"
        self.write_results(src, [["d", 0, "A", 1.0, 0.001, "", "", ""],
                                 ["d", 0, "B", 2.0, 0.001, "", "", "x" * 200_000]])
        assert main(["analyze", "--results", str(src), "--mode", "ratios",
                     "--out", str(tmp_path / "ratios.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid results file: line 3: field larger than field limit")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("tail, message", [
        ('"', "unexpected end of data"),
        ('"x"y\r\n', "',' expected after '\"'"),
    ], ids=["cut inside a quoted cell", "text after a closing quote"])
    def test_malformed_quoted_cell_is_domain_error(self, tmp_path, capsys, tail, message):
        # a file cut inside its last quoted cell used to load the cut text, exit 0
        src = tmp_path / "cut.csv"
        src.write_text(",".join(RESULTS_HEADER) + "\r\nd,0,A,1.0,0.001,,," + tail, newline="")
        out = tmp_path / "ratios.csv"
        assert main(["analyze", "--results", str(src), "--mode", "ratios",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"invalid results file: line 2: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", [
        ["--mode", "effects"], ["--mode", "interactions", "--params", "compare,ccr"],
    ], ids=lambda mode: mode[1])
    def test_unknown_scheduler_is_domain_error(self, tmp_path, capsys, mode):
        # the KeyError used to escape main with a traceback
        src = tmp_path / "foo.csv"
        self.write_results(src, [["d", 0, "HEFT", 1.0, 0.001, "", "", ""],
                                 ["d", 0, "FOO", 2.0, 0.002, "", "", ""]])
        assert main(["analyze", "--results", str(src), *mode,
                     "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == "analysis failed: unknown scheduler name 'FOO'\n"

    def test_missing_results_file_is_io_error(self, tmp_path, capsys):
        assert main(["analyze", "--results", str(tmp_path / "nope.csv"), "--mode", "ratios",
                     "--out", str(tmp_path / "ratios.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("IO error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("column, value", [
        (3, "-2.0"), (4, "-0.001"), (3, "inf"), (4, "nan"),
    ], ids=["negative makespan", "negative runtime", "infinite makespan", "nan runtime"])
    @pytest.mark.parametrize("mode", ["ratios", "pareto"])
    def test_negative_or_non_finite_value_is_domain_error(
        self, tmp_path, capsys, column, value, mode
    ):
        # a negated HEFT makespan used to give MCT and MET negative mean
        # ratios and mark MET pareto-optimal, exit 0
        rows = [["d", 0, "HEFT", 2.0, 0.002, "", "", ""],
                ["d", 0, "MCT", 2.8, 0.001, "", "", ""],
                ["d", 0, "MET", 4.0, 0.001, "", "", ""]]
        rows[0][column] = value
        src = tmp_path / "signed.csv"
        self.write_results(src, rows)
        out = tmp_path / "out.csv"
        assert main(["analyze", "--results", str(src), "--mode", mode,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid results file: line 2 (d, 0, HEFT) has no error")
        assert "both must be finite and >= 0" in err and err.count("\n") == 1
        assert not out.exists()

    def test_missing_column_is_domain_error(self, tmp_path, capsys):
        src = tmp_path / "short.csv"
        header = [c for c in RESULTS_HEADER if c != "runtime_seconds"]
        self.write_results(src, [["d", 0, "A", 1.0, "", "", ""]], header=header)
        assert main(["analyze", "--results", str(src), "--mode", "ratios",
                     "--out", str(tmp_path / "ratios.csv")]) == 1
        assert "missing column(s): runtime_seconds" in capsys.readouterr().err

    @pytest.mark.parametrize("header, rows, message", [
        (["error", "dataset", "instance", "scheduler", "makespan", "runtime_seconds"],
         [["", "d", 0, "A", 1.0, 0.001], ["boom"]], "line 3: 1 fields, the header has 6"),
        (RESULTS_HEADER, [["d", 0, "A", 1.0, 0.001, "", ""]],
         "line 2: 7 fields, the header has 8"),
        (RESULTS_HEADER, [["d", 0, "A", 1.0, 0.001, "", "", "", "x"]],
         "line 2: 9 fields, the header has 8"),
    ], ids=["short row under a reordered header", "short row", "long row"])
    def test_row_of_another_length_is_domain_error(self, tmp_path, capsys, header, rows, message):
        # the reordered short row used to escape main as a TypeError from int(None);
        # a short row under the standard header named cells it lacks ("makespan None");
        # a long row's extra cells were dropped
        src = tmp_path / "ragged.csv"
        self.write_results(src, rows, header=header)
        assert main(["analyze", "--results", str(src), "--mode", "ratios",
                     "--out", str(tmp_path / "ratios.csv")]) == 1
        assert capsys.readouterr().err == f"invalid results file: {message}\n"

    def test_blank_first_line_is_the_header(self, tmp_path, capsys):
        src = tmp_path / "blank.csv"
        src.write_text("\n" + ",".join(RESULTS_HEADER) + "\nd,0,A,1.0,0.001,,,\n")
        assert main(["analyze", "--results", str(src), "--mode", "ratios",
                     "--out", str(tmp_path / "ratios.csv")]) == 1
        assert capsys.readouterr().err == (
            "invalid results file: missing column(s): "
            "dataset, instance, scheduler, makespan, runtime_seconds\n"
        )

    def test_repeated_column_reads_its_last_cell(self, tmp_path):
        src, out = tmp_path / "repeated.csv", tmp_path / "ratios.csv"
        self.write_results(src, [["x", "d", 0, "A", 1.0, 0.001, "", "", "", 2.0],
                                 ["x", "d", 0, "B", 1.0, 0.001, "", "", "", 4.0]],
                           header=["makespan", *RESULTS_HEADER, "makespan"])
        assert main(["analyze", "--results", str(src), "--mode", "ratios",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [(r["makespan"], r["makespan_ratio"]) for r in rows] == [
            ("2.0", "1.0"), ("4.0", "2.0")
        ]

    # header, a blank line, A, B over two physical lines, a blank line, C
    PHYSICAL_LINES = (",".join(RESULTS_HEADER) + "\r\n\r\nd,0,A,1.0,0.001,,,\r\n"
                      '"d",0,"B\nB",2.0,0.001,,,\r\n\r\nd,0,C,{},0.001,,,\r\n')

    def test_blank_rows_are_skipped(self, tmp_path):
        src, out = tmp_path / "blank.csv", tmp_path / "ratios.csv"
        src.write_bytes(self.PHYSICAL_LINES.format("3.0").encode())
        assert main(["analyze", "--results", str(src), "--mode", "ratios",
                     "--out", str(out)]) == 0
        assert [r["scheduler"] for r in read_rows(out)] == ["A", "B\nB", "C"]

    def test_messages_count_physical_lines(self, tmp_path, capsys):
        # line 7, not the 4th row: blank lines and a quoted newline count
        src = tmp_path / "lines.csv"
        src.write_bytes(self.PHYSICAL_LINES.format("-1").encode())
        assert main(["analyze", "--results", str(src), "--mode", "ratios",
                     "--out", str(tmp_path / "ratios.csv")]) == 1
        assert capsys.readouterr().err.startswith(
            "invalid results file: line 7 (d, 0, C) has no error but makespan '-1'"
        )

    @pytest.mark.parametrize("mode", [
        ["--mode", "ratios"],
        ["--mode", "pareto"],
        ["--mode", "effects"],
        ["--mode", "interactions", "--params", "compare,nonsense"],
    ], ids=lambda mode: mode[1])
    def test_header_only_results_is_domain_error(self, tmp_path, capsys, mode):
        # effects used to die with ZeroDivisionError; the other modes wrote
        # empty tables and exit 0, interactions even with an unknown parameter
        src = tmp_path / "header.csv"
        self.write_results(src, [])
        assert main(["analyze", "--results", str(src), *mode,
                     "--out", str(tmp_path / "out.csv")]) == 1
        assert "analysis failed: no records" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [
        ["--mode", "ratios"],
        ["--mode", "pareto"],
        ["--mode", "effects"],
        ["--mode", "interactions", "--params", "compare,ccr"],
    ], ids=lambda mode: mode[1])
    def test_duplicate_row_is_domain_error(self, tmp_path, capsys, mode):
        # a repeated (dataset, instance, scheduler) row used to count twice
        # in its scheduler's mean, and ratios mode kept one of its ratios
        src = tmp_path / "duplicate.csv"
        self.write_results(src, [["d", 0, "A", 1.0, 0.001, "", "", ""],
                                 ["d", 0, "B", 2.0, 0.001, "", "", ""],
                                 ["d", 1, "A", 4.0, 0.001, "", "", ""],
                                 ["d", 1, "B", 2.0, 0.001, "", "", ""],
                                 ["d", 1, "B", 2.0, 0.001, "", "", ""]])
        assert main(["analyze", "--results", str(src), *mode,
                     "--out", str(tmp_path / "out.csv")]) == 1
        assert "analysis failed: duplicate row for ('d', 1, 'B')" in capsys.readouterr().err

    def test_effects_shape(self, results_csv, tmp_path):
        out = tmp_path / "effects.csv"
        assert main(["analyze", "--results", str(results_csv),
                     "--mode", "effects", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 12
        assert {r["parameter"] for r in rows} == {
            "initial_priority", "compare", "append_only", "critical_path", "sufferage"
        }

    def test_effects_incomplete_cross_product(self, dataset_dir, tmp_path):
        src = tmp_path / "partial.csv"
        assert main(["benchmark", "--datasets", str(dataset_dir),
                     "--schedulers", "HEFT,MET", "--repeats", "1",
                     "--out", str(src)]) == 0
        assert main(["analyze", "--results", str(src), "--mode", "effects",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_alias_beside_its_canonical_name_is_a_duplicate(self, dataset_dir, tmp_path, capsys):
        # HEFT is EFT_Ins_UR: 73 rows per instance count its configuration twice
        src = tmp_path / "duplicate.csv"
        names = ",".join(name for name, _ in enumerate_configs())
        assert main(["benchmark", "--datasets", str(dataset_dir),
                     "--schedulers", f"{names},HEFT", "--repeats", "1",
                     "--out", str(src)]) == 0
        # each name is its own row, so ratios and pareto accept the pair
        for mode in ("ratios", "pareto"):
            assert main(["analyze", "--results", str(src), "--mode", mode,
                         "--out", str(tmp_path / f"{mode}.csv")]) == 0
        for mode in (["effects"], ["interactions", "--params", "compare,ccr"]):
            assert main(["analyze", "--results", str(src), "--mode", *mode,
                         "--out", str(tmp_path / "x.csv")]) == 1
            assert "73 rows covering 72 of 72" in capsys.readouterr().err

    def test_interactions_shape(self, results_csv, tmp_path):
        out = tmp_path / "inter.csv"
        assert main(["analyze", "--results", str(results_csv),
                     "--mode", "interactions", "--params", "compare,ccr",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 3  # one dataset -> one CCR level x three compares
        assert {r["level_a"] for r in rows} == {"EFT", "EST", "Quickest"}

    def test_interactions_require_params(self, results_csv, tmp_path):
        assert main(["analyze", "--results", str(results_csv),
                     "--mode", "interactions", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("out", ["front.svg", "plots/front.svg"])
    def test_pareto_plot_may_not_overwrite_its_table(self, tmp_path, capsys, monkeypatch, out):
        # the table used to be written to front.svg and then replaced by the plot
        monkeypatch.chdir(tmp_path)
        Path("plots").mkdir()
        monkeypatch.setattr(bench, "read_results_csv", lambda *a: pytest.fail("read"))
        code = main(["analyze", "--results", "missing.csv", "--mode", "pareto", "--out", out])
        assert code == 2
        assert capsys.readouterr().err == (
            f"--mode pareto would overwrite --out {out} with its .svg plot\n")
        assert not Path(out).exists()

    @pytest.mark.parametrize("directory", ["pf/x.svg", "pf/x.csv"])
    def test_pareto_writes_no_file_unless_both_open(
        self, results_csv, tmp_path, capsys, monkeypatch, directory
    ):
        # with the plot's path a directory, the table used to be written first
        monkeypatch.chdir(tmp_path)
        Path(directory).mkdir(parents=True)
        code = main(["analyze", "--results", str(results_csv), "--mode", "pareto",
                     "--out", "pf/x.csv"])
        assert code == 2
        assert capsys.readouterr() == ("", f"IO error: [Errno 21] Is a directory: '{directory}'\n")
        assert [p.name for p in Path("pf").iterdir()] == [Path(directory).name]
        assert not any(Path(directory).iterdir())

    def test_interactions_params_checked_before_reading_results(self, tmp_path):
        # a header-only file used to fail the analysis first, exit 1
        src = tmp_path / "header.csv"
        self.write_results(src, [])
        assert main(["analyze", "--results", str(src),
                     "--mode", "interactions", "--out", str(tmp_path / "x.csv")]) == 2

    def test_ratios_mode_round_trips(self, results_csv, tmp_path):
        out = tmp_path / "ratios.csv"
        assert main(["analyze", "--results", str(results_csv),
                     "--mode", "ratios", "--out", str(out)]) == 0
        a, b = read_rows(results_csv), read_rows(out)
        assert [r["makespan_ratio"] for r in a] == [r["makespan_ratio"] for r in b]


#: argv for the differential parse test: every command valid, with -h and
#: broken, plus the calls that must reach the full parser
PARSE_CASES = [
    [], ["-h"], ["nope"], ["--", "schedule"], ["--help", "schedule"], ["-x", "schedule"],
    *([name, "-h"] for name in cli.COMMANDS),
    ["generate", "--kind", "chains", "--ccr", "0.5", "--count", "4", "--seed", "3",
     "--out", "d"],
    ["generate", "--kind", "chains", "--out", "d"],
    ["generate", "--kind", "grid", "--out", "d"],
    ["generate", "--kind", "chains", "--count", "0", "--out", "d"],
    ["generate", "--kind", "chains", "--seed", "-1", "--out", "d"],
    ["schedule", "--instance", "i.json", "--scheduler", "HEFT", "--out", "s.json"],
    ["schedule", "--inst", "i.json", "--sched", "HEFT", "--out=s.json"],
    ["schedule", "--instance", "i.json", "--out", "s.json"],
    ["schedule", "--instance", "i.json", "--scheduler", "HEFT", "--out", "s.json", "extra"],
    ["schedule", "--bogus"],
    ["validate", "--instance", "i.json", "--schedule", "s.json"],
    ["validate", "--instance", "i.json", "--schedule", "s.json", "--", "x"],
    ["validate", "-h", "--bogus"],
    ["benchmark", "--datasets", "a", "b", "--schedulers", "HEFT,MET", "--repeats", "2",
     "--jobs", "2", "--out", "r.csv"],
    ["benchmark", "--datasets", "--out", "r.csv"],
    ["analyze", "--results", "r.csv", "--mode", "interactions", "--params", "compare,ccr",
     "--out", "x.csv"],
    ["analyze", "--results", "r.csv", "--mode", "bogus", "--out", "x.csv"],
    ["list-schedulers"],
    ["list-schedulers", "--x"],
    ["list-schedulers", "--"],
]


def parse_outcome(parse, argv):
    """``vars`` of the namespace, or the exit code, with the bytes printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


@contextmanager
def counting_parsers():
    """The ``prog`` of every ArgumentParser built inside the block."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    argparse.ArgumentParser.__init__ = counting_init
    try:
        yield built
    finally:
        argparse.ArgumentParser.__init__ = init


@pytest.fixture
def parsers_built():
    with counting_parsers() as built:
        yield built


#: each command's required flags, then its optional ones
COMMAND_FLAGS = {
    "generate": (["--kind", "--out"], ["--ccr", "--count", "--seed"]),
    "schedule": (["--instance", "--scheduler", "--out"], []),
    "validate": (["--instance", "--schedule"], []),
    "benchmark": (["--datasets", "--out"], ["--schedulers", "--repeats", "--jobs"]),
    "analyze": (["--results", "--mode", "--out"], ["--params"]),
    "list-schedulers": ([], []),
}
#: values each flag accepts
VALID_VALUES = {
    "--kind": ["chains", "in_trees", "out_trees"],
    "--ccr": ["0.5", "1e-3", "2"],
    "--count": ["1", "04"],
    "--seed": ["0", "3"],
    "--out": ["d", "s.json", "", "x=y"],
    "--instance": ["i.json"],
    "--scheduler": ["HEFT", "nope"],
    "--schedule": ["s.json"],
    "--datasets": ["a", "b"],
    "--schedulers": ["all", "HEFT,MET"],
    "--repeats": ["2"],
    "--jobs": ["1", "2"],
    "--results": ["r.csv"],
    "--mode": ["ratios", "pareto", "effects", "interactions"],
    "--params": ["compare,ccr"],
}
#: every other word a drawn call may hold: a bogus command, abbreviations,
#: ``--flag=value``, help, ``--``, and values that are mistyped, empty,
#: negative, overflowing, help or out of ``choices``
OTHER_WORDS = [
    "nope", "--inst", "--sched", "--data", "--mo", "--out=x", "--kind=chains", "--count=2",
    "-h", "--help", "--", "-", "x", "", "0", "-1", "-0.5", "1e999", "nan", "grid", "bogus",
]
WORDS = sorted({*cli.COMMANDS, *VALID_VALUES, *(v for vs in VALID_VALUES.values() for v in vs),
                *OTHER_WORDS})


@st.composite
def canonical_argv(draw):
    """A command, then ``--flag value`` groups: every required flag, some others, repeats."""
    command = draw(st.sampled_from(list(COMMAND_FLAGS)))
    required, optional = COMMAND_FLAGS[command]
    flags = required + [flag for flag in optional if draw(st.booleans())]
    if flags:
        flags += draw(st.lists(st.sampled_from(flags), max_size=2))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        values = st.sampled_from(VALID_VALUES[flag])
        argv += [flag, *draw(st.lists(values, min_size=1, max_size=3 if flag == "--datasets" else 1))]
    return argv


@st.composite
def drawn_argv(draw):
    """A canonical call with up to three words inserted, replaced or deleted."""
    argv = draw(canonical_argv())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(st.sampled_from(WORDS)))
        elif edit == "replace":
            argv[i] = draw(st.sampled_from(WORDS))
        else:
            del argv[i]
    return argv


class TestParse:
    @pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
    def test_equals_the_full_parser(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert parse_outcome(cli._parse, argv) == parse_outcome(full_parse, argv)

    @settings(max_examples=600, deadline=None)
    @given(drawn_argv())
    def test_a_drawn_call_equals_the_full_parser(self, argv):
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            assert parse_outcome(cli._parse, argv) == parse_outcome(full_parse, argv)

    @settings(max_examples=200, deadline=None)
    @given(canonical_argv())
    def test_a_drawn_canonical_call_builds_no_parser(self, argv):
        with counting_parsers() as built:
            args = cli._parse(argv)
        assert built == []
        assert vars(args) == vars(full_parse(argv))

    def test_table_and_full_parser_list_the_same_commands(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(cli.COMMANDS) == list(COMMAND_FLAGS) == [
            "generate", "schedule", "validate", "benchmark", "analyze", "list-schedulers",
        ]

    @pytest.mark.parametrize("argv", [
        ["generate", "--kind", "chains", "--out", "d"],
        ["schedule", "--instance", "i.json", "--scheduler", "HEFT", "--out", "s.json"],
        ["validate", "--instance", "i.json", "--schedule", "s.json"],
        ["benchmark", "--datasets", "a", "b", "--out", "r.csv"],
        ["analyze", "--results", "r.csv", "--mode", "effects", "--out", "e.csv"],
        ["list-schedulers"],
    ], ids=lambda argv: argv[0])
    def test_a_canonical_call_builds_no_parser(self, argv, parsers_built):
        args = cli._parse(argv)
        assert parsers_built == []
        assert vars(args) == vars(full_parse(argv))

    def test_nothing_is_cached_between_calls(self, instance_file, tmp_path, parsers_built,
                                             capsys):
        # not canonical: an abbreviation and --flag=value; the full parser is
        # the top level and six commands, built again for the second call
        out = tmp_path / "s.json"
        argv = ["schedule", "--inst", str(instance_file), "--scheduler", "HEFT", f"--out={out}"]
        assert main(argv) == 0
        assert len(parsers_built) == 7
        assert main(argv) == 0
        assert len(parsers_built) == 14
        assert capsys.readouterr().out == "1.0\n" * 2

    def test_leftover_arguments_reach_the_full_parser(self, parsers_built, capsys):
        with pytest.raises(SystemExit):
            cli._parse(["list-schedulers", "--x"])
        # the full parser alone: top level and six commands
        assert len(parsers_built) == 7
        assert "listsched: error: unrecognized arguments: --x" in capsys.readouterr().err


class TestEntryPoint:
    """``python -m listsched.cli`` reads its arguments from ``sys.argv``."""

    def run(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run([sys.executable, "-m", "listsched.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_schedule_prints_the_makespan(self, instance_file, tmp_path):
        result = self.run("schedule", "--instance", str(instance_file),
                          "--scheduler", "HEFT", "--out", str(tmp_path / "s.json"))
        assert (result.returncode, result.stdout, result.stderr) == (0, "1.0\n", "")

    def test_no_arguments_is_a_usage_error(self):
        result = self.run()
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("usage: listsched [-h]")
        assert "the following arguments are required: command" in result.stderr


class TestListSchedulers:
    def test_72_lines_round_trip(self, capsys):
        assert main(["list-schedulers"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 72
        aliased = [l for l in lines if "(alias:" in l]
        assert len(aliased) == 4
        for line in lines:
            name = line.split()[0]
            config_by_name(name)  # raises if it does not round-trip

    def test_instance_file_round_trips_through_cli(self, instance_file, chain_fast_slow):
        assert load_instance(instance_file) == chain_fast_slow


#: what one leaf or container of a valid file is replaced by; ``math.inf``
#: is written as the literal ``1e999``
MUTANTS = (None, True, "2", "x", [], {}, math.inf, -1, 1.5, 10**400)
#: a one-instance dataset; its instance and HEFT schedule are the other files
BASE_PARAMS = GenParams(GraphKind.CHAINS, seed=3, count=1, target_ccr=1.0)
BASE_DATASET = gen_dataset(BASE_PARAMS)
BASE_SCHEDULE = schedule(BASE_DATASET.instances[0], config_by_name("HEFT"))


def json_parts(doc, path=()):
    """The path of ``doc`` and of every leaf and container inside it."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from json_parts(value, path + (key,))


def mutated_json(doc, path, value) -> str:
    """``doc`` as JSON text with the part at ``path`` replaced by ``value``."""
    holder = [copy.deepcopy(doc)]
    parent, key = holder, 0
    for step in path:
        parent, key = parent[key], step
    parent[key] = value
    return json.dumps(holder[0]).replace("Infinity", "1e999")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_file_is_loaded_or_rejected_in_one_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        ds, sched, out = Path(tmp, "ds"), Path(tmp, "sched.json"), Path(tmp, "out")
        save_dataset(BASE_DATASET, BASE_PARAMS, ds)
        save_schedule(BASE_SCHEDULE, sched)
        instance = ds / "instance_000.json"
        command, target = data.draw(st.sampled_from([
            ("schedule", instance), ("validate", instance), ("validate", sched),
            ("benchmark", ds / "manifest.json"),
        ]))
        doc = json.loads(target.read_text())
        path = data.draw(st.sampled_from(list(json_parts(doc))))
        target.write_text(mutated_json(doc, path, data.draw(st.sampled_from(MUTANTS))))
        argv = {
            "schedule": ["--instance", str(instance), "--scheduler", "HEFT", "--out", str(out)],
            "validate": ["--instance", str(instance), "--schedule", str(sched)],
            "benchmark": ["--datasets", str(ds), "--schedulers", "HEFT", "--repeats", "1",
                          "--out", str(out)],
        }[command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([command, *argv])
        err = stderr.getvalue()
        assert code in (0, 1)
        if code == 0:
            assert err == ""
            if command == "schedule":
                assert validate_schedule(load_instance(instance), load_schedule(out)) == []
        elif command == "validate" and not err:
            # violations of a loaded pair go to stdout
            assert stdout.getvalue().endswith(" violation(s)\n")
        else:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert stdout.getvalue() == ""


#: what one makespan or runtime cell of a valid results file is replaced by
RESULT_CELL_MUTANTS = ("-1", "0", "nan", "inf", "", "x")


@st.composite
def results_rows(draw):
    """Rows of a valid results file: 1-2 instances x 2-3 schedulers, maybe a failed row."""
    positive = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    rows = [
        [f"d{i}", i, s, draw(positive), draw(positive), "", "", ""]
        for i in range(draw(st.integers(1, 2)))
        for s in ("HEFT", "MCT", "MET")[: draw(st.integers(2, 3))]
    ]
    if draw(st.booleans()):
        rows.append(["d0", 0, "Sufferage", "", "", "", "", "boom"])
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=results_rows(), data=st.data())
def test_mutated_results_cell_is_rejected_or_ratios_are_at_least_one(rows, data):
    row = data.draw(st.sampled_from(rows))
    row[data.draw(st.sampled_from([3, 4]))] = data.draw(st.sampled_from(RESULT_CELL_MUTANTS))
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "results.csv"), Path(tmp, "ratios.csv")
        with open(src, "w", newline="") as fh:
            csv.writer(fh).writerows([RESULTS_HEADER, *rows])
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["analyze", "--results", str(src), "--mode", "ratios",
                         "--out", str(out)])
        err = stderr.getvalue()
        if code == 1:
            assert err.count("\n") == 1 and err.endswith("\n"), err
        else:
            assert code == 0 and err == ""
            ratios = [float(r[c]) for r in read_rows(out)
                      for c in ("makespan_ratio", "runtime_ratio") if r[c]]
            assert ratios and all(x >= 1.0 for x in ratios)


#: columns a results header may hold: the standard ones and one the reader ignores
RESULT_COLUMNS = (*RESULTS_HEADER, "note")
#: cell text with the characters that make csv quote: commas, quotes, newlines
CSV_TEXT = st.text(alphabet=st.sampled_from('ab,"\n\r '), max_size=4)


def result_cell(column, clean):
    """A cell of ``column``: a valid value, or when not ``clean`` perhaps a mutant."""
    if column == "instance":
        valid, mutants = st.integers(0, 3).map(str), ("x", "", " 1", "1.0")
    elif column in ("makespan", "runtime_seconds", "makespan_ratio", "runtime_ratio"):
        valid, mutants = st.floats(1e-3, 1e3).map(repr), RESULT_CELL_MUTANTS
    elif column == "error":
        return st.one_of(st.just(""), CSV_TEXT)
    else:
        return CSV_TEXT
    return valid if clean else st.one_of(valid, st.sampled_from(mutants))


@st.composite
def results_texts(draw):
    """A results file: a reordered header with repeated columns, equal-length rows, blank lines."""
    header = list(draw(st.permutations(RESULTS_HEADER)))
    for column in draw(st.lists(st.sampled_from(RESULT_COLUMNS), max_size=3)):
        header.insert(draw(st.integers(0, len(header))), column)
    if draw(st.sampled_from([False] * 9 + [True])):  # likely a missing column or a blank header
        header = draw(st.lists(st.sampled_from(RESULT_COLUMNS), max_size=4))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    kinds = st.sampled_from(["blank", "clean", "clean", "mutated"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "blank":
            out.write("\r\n")
        else:
            writer.writerow([draw(result_cell(column, kind == "clean")) for column in header])
    if draw(st.sampled_from([False] * 9 + [True])):  # a field over csv's size limit
        out.write("x" * (csv.field_size_limit() + 1) + "\r\n")
    return out.getvalue()


def read_outcome(read, path):
    """The records ``read`` returns, floats as ``float.hex``, or its ``ValueError`` message."""
    try:
        return [(r.dataset, r.instance_index, r.scheduler, r.makespan.hex(),
                 r.runtime_seconds.hex(), r.error) for r in read(path)]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(text=results_texts())
def test_results_reader_equals_the_reference_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "results.csv")
        path.write_bytes(text.encode())
        assert read_outcome(bench.read_results_csv, path) == read_outcome(
            reference_read_results_csv, path)


ANALYZE_MODES = (["ratios"], ["pareto"], ["effects"], ["interactions", "--params", "compare,ccr"])


@settings(max_examples=200, deadline=None)
@given(rows=results_rows(), pick=st.integers(0, 6), column=st.integers(0, 4),
       mutant=st.sampled_from(RESULT_CELL_MUTANTS), mode=st.sampled_from(ANALYZE_MODES))
# a scheduler cell of "x" under effects used to escape main as a KeyError
@example(rows=[["d0", 0, "HEFT", 1.0, 1.0, "", "", ""], ["d0", 0, "MCT", 2.0, 1.0, "", "", ""]],
         pick=1, column=2, mutant="x", mode=["effects"])
def test_mutated_results_cell_fails_in_one_line_in_every_mode(rows, pick, column, mutant, mode):
    rows = copy.deepcopy(rows)
    rows[pick % len(rows)][column] = mutant
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "results.csv")
        with open(src, "w", newline="") as fh:
            csv.writer(fh).writerows([RESULTS_HEADER, *rows])
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(["analyze", "--results", str(src), "--mode", *mode,
                         "--out", str(Path(tmp, "out.csv"))])
    err = stderr.getvalue()
    if code == 1:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert code == 0 and err == ""
