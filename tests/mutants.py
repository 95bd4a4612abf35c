#!/usr/bin/env python3
"""Mutant kill-matrix: placement engine, scheduler, model, ranks, input files, results reader,
analysis, CLI parse and output writes.

Run from the root of a checkout, with pytest and hypothesis installed::

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each mutant is one textual substitution in one file under ``src/``.  For
each, the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, checks that the old text occurs exactly once,
substitutes it and runs ``pytest -x`` on the mutant's tests there with a
fixed hypothesis seed.  A mutant is killed when one of its tests fails.
The same tests first run on an unmutated copy and must pass, so that a
failure counts against the substitution alone.  The exit code is 1 if a
mutant survives or does not apply, or if the unmutated copy fails.

Pytest does not collect this file, since it is not named ``test_*.py``.
:data:`EQUIVALENT` lists substitutions that change no result, each with
the reason; they are documented here, not run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SELECTION = "src/listsched/selection.py"
SCHEDULER = "src/listsched/scheduler.py"
MODEL = "src/listsched/model.py"
BENCH = "src/listsched/bench.py"
DATAGEN = "src/listsched/datagen.py"
PRIORITY = "src/listsched/priority.py"
CLI = "src/listsched/cli.py"

UNPRUNED = "tests/test_selection.py::TestPlacementState::test_best_equals_an_unpruned_pass"
READY_TIMES = "tests/test_selection.py::TestPlacementState::test_ready_times_equal_the_spec_bit_for_bit"
WALK = "tests/test_selection.py::TestNoFitThreshold::test_place_keeps_lasts_and_thresholds"
LONGER_TASK = "tests/test_selection.py::TestNoFitThreshold::test_a_longer_task_fits_no_gap"
FINGERPRINT = "tests/test_fingerprint.py::test_makespan_fingerprint"
REFERENCE = "tests/test_properties.py::test_every_config_matches_the_reference_scheduler"
ENTRY = (
    "tests/test_model.py::TestScheduleEntry",
    "tests/test_model.py::TestConstruction::test_entry_rejects_negative_duration",
)
ANALYZE = "tests/test_cli.py::TestAnalyze"
RESULT_ROWS = "tests/test_bench.py::TestResultRows"
READER_REFERENCE = "tests/test_cli.py::test_results_reader_equals_the_reference_reader"
REFERENCE_RANKS = "tests/test_priority.py::TestReferenceRanks"
LOADERS = "tests/test_model.py::test_instance_loader_equals_the_per_leaf_loader"
LOADERS_PAIRS = (
    "tests/test_model.py::test_every_pair_of_instance_faults_reports_as_the_per_leaf_loader"
)
ASCII_LOCALE = "tests/test_cli.py::test_files_are_utf8_under_an_ascii_locale"
OVERWRITE = (
    "tests/test_model.py::test_a_longer_file_is_overwritten_with_the_bytes_of_a_fresh_write",
    "tests/test_bench.py::TestCsv::test_a_longer_file_is_overwritten_with_the_bytes_of_a_fresh_write",
)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "zero no-fit margin",
        SELECTION,
        "+ 2 * math.ulp(ends[-1])",
        "+ 0 * math.ulp(ends[-1])",
        (LONGER_TASK,),
    ),
    Mutant(
        "threshold kept after a middle insertion",
        SELECTION,
        "a middle insertion splits a gap\n            self.fit[node] = None\n",
        "a middle insertion splits a gap\n",
        (WALK,),
    ),
    Mutant(
        "threshold kept across an ulp change",
        SELECTION,
        "if ulp != math.ulp(last):",
        "if False:",
        (WALK,),
    ),
    Mutant(
        "only the last predecessor's arrivals",
        SELECTION,
        "            if ready is None:\n",
        "            if True:\n",
        (READY_TIMES,),
    ),
    Mutant(
        "a < (min) ready-time merge",
        SELECTION,
        "size / x) > r else r",
        "size / x) < r else r",
        (READY_TIMES,),
    ),
    Mutant(
        "front-gap check dropped",
        SELECTION,
        "if not starts or ready + duration <= starts[0]:",
        "if not starts:",
        ("tests/test_selection.py::TestInsertion", REFERENCE),
    ),
    Mutant(
        "gaps fitted with < instead of <=",
        SELECTION,
        "start + duration > starts[i + 1]",
        "start + duration >= starts[i + 1]",
        ("tests/test_selection.py::TestInsertion",),
    ),
    Mutant(
        "scan from the bisection without the - 1",
        SELECTION,
        "max(bisect_left(ends, ready) - 1, 0)",
        "max(bisect_left(ends, ready), 0)",
        ("tests/test_selection.py::TestInsertion",),
    ),
    Mutant(
        "EFT bound used under EST",
        SELECTION,
        "(r + d if by_end else r) >= second_key",
        "r + d >= second_key",
        (UNPRUNED,),
    ),
    Mutant(
        "reserved node is the last fastest node",
        SCHEDULER,
        "reserved = (min(all_nodes, key=lambda v: -state.speed[v]),)",
        "reserved = (max(all_nodes, key=lambda v: (state.speed[v], v)),)",
        ("tests/test_scheduler.py::TestInvariants::test_critical_path_tie_for_fastest_goes_to_smallest_id",),
    ),
    Mutant(
        "Quickest scored by its end",
        SELECTION,
        "else f - s",
        "else f",
        ("tests/test_scheduler.py::TestInvariants::test_quickest_duplicates_equal_their_partners",),
    ),
    Mutant(
        "loser reuse under Quickest",
        SCHEDULER,
        "monotone = compare is not CompareKind.QUICKEST",
        "monotone = True",
        (FINGERPRINT, REFERENCE),
    ),
    Mutant(
        "loser reuse that ignores the runner-up node",
        SCHEDULER,
        "best[0] not in (loser[1][0], loser[1][3])",
        "best[0] != loser[1][0]",
        (FINGERPRINT, REFERENCE),
    ),
    Mutant(
        "sufferage arbitration with >=",
        SCHEDULER,
        "if rival[1][2] > best[2]:",
        "if rival[1][2] >= best[2]:",
        (FINGERPRINT, REFERENCE),
    ),
    Mutant(
        "entry recorded with its start as its end",
        SELECTION,
        "ScheduleEntry(self.order[task], self.nodes[node], start, end)",
        "ScheduleEntry(self.order[task], self.nodes[node], start, start)",
        (FINGERPRINT, REFERENCE),
    ),
    Mutant(
        "an instance without a successful record raises again",
        BENCH,
        "        if not ok:\n            continue\n",
        '        if not ok:\n            raise ValueError(f"no successful records for {key}")\n',
        (
            "tests/test_bench.py::TestComputeRatios::test_duplicate_is_reported_before_a_failed_instance",
            "tests/test_cli.py::TestBenchmark::test_an_instance_without_a_successful_record_keeps_empty_ratios",
        ),
    ),
    Mutant(
        "entry end-before-start check dropped",
        MODEL,
        "if not 0 <= start <= end < math.inf:",
        "if not (0 <= start < math.inf and end < math.inf):",
        ENTRY,
    ),
    Mutant(
        "entry non-finite check dropped",
        MODEL,
        '            raise ValueError(f"entry for {task!r} has a non-finite time: '
        '{start!r} to {end!r}")\n',
        "",
        ENTRY,
    ),
    Mutant(
        "entry start written as its end",
        MODEL,
        "        _set_start(self, start)\n",
        "        _set_start(self, end)\n",
        ENTRY,
    ),
    Mutant(
        "ratio row makespan ratio written as the runtime ratio",
        BENCH,
        "        _set_makespan_ratio(self, makespan_ratio)\n",
        "        _set_makespan_ratio(self, runtime_ratio)\n",
        (RESULT_ROWS,),
    ),
    Mutant(
        "benchmark record makespan written as the runtime",
        BENCH,
        "        _set_makespan(self, makespan)\n",
        "        _set_makespan(self, runtime_seconds)\n",
        (RESULT_ROWS,),
    ),
    Mutant(
        "results row-length rule dropped",
        BENCH,
        "            if len(row) != width:\n"
        "                raise ValueError(\n"
        '                    f"line {reader.line_num}: {len(row)} fields, '
        'the header has {width}"\n'
        "                )\n",
        "",
        (ANALYZE,),
    ),
    Mutant(
        "execution-time bound dropped",
        MODEL,
        "if cost and not math.isfinite(",
        "if False and not math.isfinite(",
        ("tests/test_model.py::TestConstruction::test_overflowing_execution_time_is_rejected",),
    ),
    Mutant(
        "validator reports tasks in reverse id order",
        MODEL,
        "    for task in sorted(tg.tasks):",
        "    for task in sorted(tg.tasks, reverse=True):",
        ("tests/test_model.py::TestValidateSchedule::test_report_order_is_pinned",),
    ),
    Mutant(
        "rank average overflow check dropped",
        PRIORITY,
        "    if not math.isfinite(mean):",
        "    if False:",
        (
            "tests/test_priority.py::TestRankAverages",
            "tests/test_cli.py::test_an_overflowing_rank_average_cannot_be_scheduled",
        ),
    ),
    Mutant(
        "downward pass walking successors",
        PRIORITY,
        "cost, preds = form.cost, form.preds",
        "cost, preds = form.cost, form.succs",
        (REFERENCE_RANKS,),
    ),
    Mutant(
        "rank finiteness check dropped",
        PRIORITY,
        "    if math.inf in ranks:",
        "    if False:",
        (
            "tests/test_priority.py::TestRankOverflow",
            "tests/test_cli.py::test_an_overflowing_path_sum_cannot_be_scheduled",
        ),
    ),
    Mutant(
        "dataset type and CCR swapped in the name codec",
        DATAGEN,
        "            return kind, ccr\n",
        "            return ccr, kind\n",
        ("tests/test_datagen.py::TestDatasetName",),
    ),
    Mutant(
        "CCR name text not read back through :g",
        DATAGEN,
        ' and f"{x:g}" == ccr:',
        ":",
        ("tests/test_datagen.py::TestDatasetName",),
    ),
    Mutant(
        "results reader not strict",
        BENCH,
        'newline=""), strict=True)',
        'newline=""))',
        (ANALYZE,),
    ),
    Mutant(
        "results blank-row skip dropped",
        BENCH,
        "            if not row:\n                continue\n",
        "",
        (ANALYZE, READER_REFERENCE),
    ),
    Mutant(
        "results number cells may hold '_'",
        BENCH,
        ' or "_" in numbers:',
        ":",
        (ANALYZE,),
    ),
    Mutant(
        "results row counter in place of line_num",
        BENCH,
        'f"line {reader.line_num} ({row[d]}',
        'f"line {len(records) + 2} ({row[d]}',
        (ANALYZE, READER_REFERENCE),
    ),
    Mutant(
        "runtime minimum read from the makespans",
        BENCH,
        "min_runtime = min(r.runtime_seconds for r in ok)",
        "min_runtime = min(r.makespan for r in ok)",
        ("tests/test_bench.py::TestComputeRatios",),
    ),
    Mutant(
        "CCR levels sorted as text",
        BENCH,
        'key=float if parameter == "ccr" else None',
        "key=None",
        ("tests/test_bench.py::TestInteractionEffects",),
    ),
    Mutant(
        "a value that starts with - read from the table",
        CLI,
        'if word.startswith("-")]',
        "if word in options]",
        ("tests/test_cli.py::TestParse::test_a_drawn_call_equals_the_full_parser",),
    ),
    Mutant(
        "choices not checked on the table path",
        CLI,
        "        if option.choices is not None and any(v not in option.choices for v in converted):\n"
        "            return None\n",
        "",
        ("tests/test_cli.py::TestParse::test_equals_the_full_parser",),
    ),
    Mutant(
        "schedule writer without the ASCII string encoder",
        MODEL,
        "from json.encoder import encode_basestring_ascii\n",
        "from json.encoder import py_encode_basestring as encode_basestring_ascii\n",
        ("tests/test_model.py::TestScheduleEntry::test_schedule_file_bytes_are_frozen",),
    ),
    Mutant(
        "instance links written in strength dict order",
        MODEL,
        "for (u, v), x in sorted(net.strength.items())",
        "for (u, v), x in net.strength.items()",
        ("tests/test_model.py::test_instance_file_is_the_indented_json",),
    ),
    Mutant(
        "inline id check accepts an int",
        MODEL,
        "type(x := row[a]) is str and",
        "type(x := row[a]) in (str, int) and",
        (LOADERS,),
    ),
    Mutant(
        "duplicate check's length test always passes",
        MODEL,
        "    if len(set(keys)) != len(keys):",
        "    if False:",
        ("tests/test_model.py::TestJson::test_malformed_instance_rejected", LOADERS),
    ),
    Mutant(
        "successors returned unsorted",
        MODEL,
        "return tuple(sorted(self._succs[task]))",
        "return self._succs[task]",
        ("tests/test_model.py::TestConstruction::test_adjacency_is_sorted_on_access",),
    ),
    Mutant(
        "input files decoded as latin-1",
        MODEL,
        'fh.read().decode("utf-8")',
        'fh.read().decode("latin-1")',
        (
            "tests/test_cli.py::TestInputFile",
            "tests/test_cli.py::TestAnalyze::test_a_results_file_that_is_not_utf8_is_a_domain_error",
        ),
    ),
    Mutant(
        "link ends parsed before the node dedupe",
        MODEL,
        '        nodes = _unique("node", _leaves(net["nodes"], "id", str, _id))\n'
        '        ends = _id_pairs(net["links"], "u", "v")\n',
        '        nodes = _leaves(net["nodes"], "id", str, _id)\n'
        '        ends = _id_pairs(net["links"], "u", "v")\n'
        '        nodes = _unique("node", nodes)\n',
        (LOADERS_PAIRS,),
    ),
    Mutant(
        "output not cut to its new length",
        MODEL,
        "fh.truncate()",
        "pass",
        OVERWRITE,
    ),
    Mutant(
        "every output cut, a pipe or /dev/null too",
        MODEL,
        "if stat.S_ISREG(old.st_mode) and old.st_size > len(data):",
        "if True:",
        ("tests/test_cli.py::TestOutputFile",),
    ),
    Mutant(
        "plot file made for a failed pareto table kept",
        CLI,
        "                if new_svg:\n                    os.unlink(svg_path)\n",
        "",
        ("tests/test_cli.py::TestAnalyze::test_pareto_writes_no_file_unless_both_open",),
    ),
    Mutant(
        "output encoded after the open",
        MODEL,
        '    data = text.encode("utf-8")\n'
        '    with open(_open_output(path), "wb") as fh:  # its writes loop until every byte is out\n',
        '    with open(_open_output(path), "wb") as fh:\n'
        '        data = text.encode("utf-8")\n',
        ("tests/test_model.py::test_a_text_utf8_cannot_encode_writes_no_file",),
    ),
    Mutant(
        "output encoded in the locale's codec",
        MODEL,
        'data = text.encode("utf-8")',
        'data = text.encode(__import__("locale").getpreferredencoding(False))',
        (ASCII_LOCALE,),
    ),
    Mutant(
        "results file read in the locale's codec",
        BENCH,
        'io.StringIO(_read_text(path), newline="")',
        'open(path, newline="")',
        (ASCII_LOCALE,),
    ),
    Mutant(
        "manifest name that UTF-8 cannot encode accepted",
        DATAGEN,
        '    if any("\\ud800" <= c <= "\\udfff" for c in name):  # the results file is UTF-8\n'
        '        raise ValueError(f"manifest name {name!r} holds a surrogate, which UTF-8 cannot encode")\n',
        "",
        ("tests/test_cli.py::TestBenchmark::test_manifest_name_utf8_cannot_encode_is_domain_error",),
    ),
    Mutant(
        "plot names written unescaped",
        BENCH,
        'name = p.scheduler.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")',
        "name = p.scheduler",
        ("tests/test_bench.py::TestCsv::test_svg_escapes_scheduler_names",),
    ),
    Mutant(
        "pareto over no ratio rows not raised",
        BENCH,
        '    if not rows:\n        raise ValueError("no ratio rows to analyze")\n    means',
        "    means",
        (
            "tests/test_bench.py::TestMeanRatioPoints::test_no_rows_rejected",
            "tests/test_cli.py::TestBenchmark::"
            "test_results_without_a_successful_record_are_not_analyzed",
        ),
    ),
    Mutant(
        "unknown analysis parameter not raised",
        BENCH,
        '    else:\n        raise ValueError(f"unknown parameter {parameter!r}")\n',
        "",
        ("tests/test_cli.py::TestAnalyze::test_interactions_unknown_parameter_is_domain_error",),
    ),
    Mutant(
        "network speeds not checked against the node set",
        MODEL,
        "        if set(self.speed) != self.nodes:\n"
        '            raise ValueError("speed must be defined for exactly the node set")\n',
        "",
        ("tests/test_model.py::TestConstruction::test_network_speeds_must_cover_exactly_the_nodes",),
    ),
]

#: Substitutions that change no result, and why; not run.
EQUIVALENT = [
    (
        "a >= ready-time merge (`size / x) >= r else r`)",
        "on a tie a == r both sides are the same float, and no arrival is -0.0 "
        "(an end is at least 0.0 and a transfer time at least +0.0)",
    ),
    (
        "max(last, r) in best as `s = r if r >= last else last`",
        "on a tie r == last both sides are the same float, and neither is -0.0",
    ),
    (
        "the scan's first start in _insertion_start as `ends[i] if ends[i] >= ready else ready`",
        "on a tie ends[i] == ready both sides are the same float, and neither is -0.0",
    ),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(cwd: Path, tests: tuple[str, ...]) -> int:
    # the copy's src first, ahead of any installed or editable listsched
    env = {**os.environ, "PYTHONPATH": str(cwd / "src")}
    cmd = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *tests,
    ]
    return subprocess.run(
        cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def _apply(copy: Path, mutant: Mutant) -> bool:
    path = copy / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        baseline = Path(tmp) / "baseline"
        _copy_tree(baseline)
        all_tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        t0 = time.perf_counter()
        code = _pytest(baseline, all_tests)
        print(f"{'passes' if code == 0 else 'FAILS':9s} {time.perf_counter() - t0:6.1f}s  unmutated copy")
        if code != 0:
            return 1
        for i, mutant in enumerate(chosen):
            copy = Path(tmp) / f"m{i}"
            _copy_tree(copy)
            t0 = time.perf_counter()
            if not _apply(copy, mutant):
                verdict = "NO MATCH"
            else:
                code = _pytest(copy, mutant.tests)
                # 1: a test failed; any other code is a survivor or a broken run
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
            print(f"{verdict:9s} {time.perf_counter() - t0:6.1f}s  {mutant.name}")
            if verdict != "killed":
                failed.append(mutant.name)
            shutil.rmtree(copy)
    for name, reason in EQUIVALENT:
        print(f"{'equiv':9s} {'':7s}  {name}: {reason}")
    if failed:
        print(f"{len(failed)} mutant(s) not killed: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
