import numpy as np
import pytest

from listsched import (
    CompareKind,
    Schedule,
    ScheduleEntry,
    Window,
    compare,
    data_available_time,
    exec_time,
    open_window_append_only,
    open_window_insertion,
)
from listsched.selection import _insertion_window

from conftest import mk_instance

ALL_KINDS = list(CompareKind)


def busy_node_schedule(intervals, node="n0"):
    """Partial schedule of filler tasks occupying the given intervals."""
    return Schedule(
        entries=tuple(
            ScheduleEntry(f"busy{i}", node, a, b) for i, (a, b) in enumerate(intervals)
        )
    )


def random_busy_intervals(rng, max_count=5):
    """Sorted, non-overlapping (start, end) pairs."""
    intervals = []
    cursor = 0.0
    for _ in range(int(rng.integers(0, max_count + 1))):
        cursor += float(rng.uniform(0.1, 2.5))
        length = float(rng.uniform(0.5, 2.5))
        intervals.append((cursor, cursor + length))
        cursor += length
    return intervals


def earliest_fit_oracle(intervals, ready, duration):
    """Earliest fitting start by trying every candidate start time."""
    candidates = sorted({ready} | {end for _, end in intervals if end > ready})
    for start in candidates:
        end = start + duration
        if all(end <= a or start >= b for a, b in intervals):
            return start
    raise AssertionError("no fit found")


class TestCompare:
    def test_eft_prefers_earlier_finish(self):
        assert compare(CompareKind.EFT, Window(0, 5), Window(1, 4)) == 1.0

    def test_est_prefers_earlier_start(self):
        assert compare(CompareKind.EST, Window(0, 5), Window(1, 4)) == -1.0

    def test_quickest_prefers_shorter_run(self):
        assert compare(CompareKind.QUICKEST, Window(2, 4), Window(0, 3)) == -1.0

    def test_reflexive_and_antisymmetric(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            s1, s2 = rng.uniform(0, 10, size=2)
            a = Window(s1, s1 + rng.uniform(0, 5))
            b = Window(s2, s2 + rng.uniform(0, 5))
            for kind in ALL_KINDS:
                assert compare(kind, a, a) == 0.0
                assert compare(kind, a, b) == -compare(kind, b, a)


def instance_with_busy(task_cost, intervals, ready=0.0):
    """Instance for window tests: 'tk' on n0 with data ready at ``ready``.

    The busy fillers occupy n0; when ready > 0 a predecessor of cost
    ``ready`` runs on n1 and ships its data over a strength-1 link.
    """
    costs = {"tk": task_cost}
    sizes = {}
    for i in range(len(intervals)):
        costs[f"busy{i}"] = intervals[i][1] - intervals[i][0]
    entries = [ScheduleEntry(f"busy{i}", "n0", a, b) for i, (a, b) in enumerate(intervals)]
    if ready > 0:
        costs["p"] = 1.0
        sizes[("p", "tk")] = ready / 2
        entries.append(ScheduleEntry("p", "n1", 0.0, ready / 2))
    inst = mk_instance(costs, sizes, {"n0": 1.0, "n1": 1.0})
    return inst, Schedule(entries=tuple(entries))


class TestAppendOnly:
    def test_empty_node(self):
        inst = mk_instance({"tk": 2.0}, {}, {"n0": 1.0})
        assert open_window_append_only(inst, Schedule(()), "n0", "tk") == Window(0.0, 2.0)

    def test_last_entry_dominates_data(self):
        inst, partial = instance_with_busy(2.0, [(0.0, 3.0)], ready=1.0)
        assert data_available_time(inst, partial, "tk", "n0") == 1.0
        assert open_window_append_only(inst, partial, "n0", "tk") == Window(3.0, 5.0)

    def test_data_dominates_empty_node(self):
        inst, partial = instance_with_busy(1.0, [], ready=4.0)
        assert open_window_append_only(inst, partial, "n0", "tk") == Window(4.0, 5.0)


class TestInsertion:
    def test_initial_gap(self):
        inst, partial = instance_with_busy(2.0, [(2.0, 4.0), (8.0, 10.0)])
        assert open_window_insertion(inst, partial, "n0", "tk") == Window(0.0, 2.0)

    def test_interior_gap_after_data_ready(self):
        inst, partial = instance_with_busy(2.0, [(2.0, 4.0), (8.0, 10.0)], ready=3.0)
        assert data_available_time(inst, partial, "tk", "n0") == 3.0
        assert open_window_insertion(inst, partial, "n0", "tk") == Window(4.0, 6.0)

    def test_interior_gap_exact_fit(self):
        # closed-start/open-end: the window may end where the next entry starts
        inst, partial = instance_with_busy(2.0, [(0.0, 1.0), (3.0, 5.0)])
        assert open_window_insertion(inst, partial, "n0", "tk") == Window(1.0, 3.0)

    def test_append_fallback_when_no_gap_fits(self):
        inst, partial = instance_with_busy(5.0, [(0.0, 4.0)])
        assert open_window_insertion(inst, partial, "n0", "tk") == Window(4.0, 9.0)

    def test_window_properties_on_random_states(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            intervals = random_busy_intervals(rng)
            duration = float(rng.uniform(0.2, 4.0))
            ready = float(rng.uniform(0.0, 10.0))
            inst, partial = instance_with_busy(duration, intervals, ready=ready)

            ins = open_window_insertion(inst, partial, "n0", "tk")
            app = open_window_append_only(inst, partial, "n0", "tk")
            dat = data_available_time(inst, partial, "tk", "n0")
            exec_t = exec_time(inst, "tk", "n0")

            for window in (ins, app):
                assert window.start >= dat
                # end is computed as start + exec_t; the difference can be
                # off by an ulp, which is what the validator tolerance covers
                assert window.end - window.start == pytest.approx(exec_t, rel=1e-12)
            # insertion never starts later than append for the same state
            assert ins.start <= app.start
            # and never overlaps an existing entry (open intervals)
            for a, b in intervals:
                assert ins.end <= a or ins.start >= b

    def test_matches_earliest_fit_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            intervals = random_busy_intervals(rng)
            duration = float(rng.uniform(0.2, 3.0))
            ready = float(rng.uniform(0.0, 8.0))
            entries = busy_node_schedule(intervals).entries
            window = _insertion_window(list(entries), ready, duration)
            assert window.start == earliest_fit_oracle(intervals, ready, duration)
            assert window.end == window.start + duration
