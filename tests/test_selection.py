import itertools
import math
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from listsched import (
    CompareKind,
    Schedule,
    ScheduleEntry,
    enumerate_configs,
    exec_time,
    schedule,
)
from listsched.selection import (
    Window,
    compare,
    open_window_append_only,
    open_window_insertion,
    _insertion_start,
    _no_fit_threshold,
    _PlacementState,
)

from conftest import layered_dag, mk_instance
from reference import COMPARE_KEYS, data_available_time, earliest_fit

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


@st.composite
def touching_busy_node(draw):
    """(intervals, ready, duration) for one node, built to hit bisection edges.

    Up to 40 disjoint entries whose gaps are often exactly 0, so entries
    touch; ``ready`` is often 0 or exactly an entry's start or end, and
    ``duration`` often exactly a gap's length.
    """
    finite = {"allow_nan": False, "allow_infinity": False}
    gaps = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0, **finite)), max_size=40))
    intervals = []
    cursor = 0.0
    for gap in gaps:
        start = cursor + gap
        cursor = start + draw(st.floats(0.01, 3.0, **finite))
        intervals.append((start, cursor))
    points = [0.0, *itertools.chain.from_iterable(intervals)]
    ready = draw(st.one_of(st.sampled_from(points), st.floats(0.0, 2.0 * cursor + 1.0, **finite)))
    gap_lengths = [b - a for (_, a), (b, _) in zip(intervals, intervals[1:]) if b > a]
    durations = st.floats(0.01, 5.0, **finite)
    if gap_lengths:
        durations = st.one_of(durations, st.sampled_from(gap_lengths))
    return intervals, ready, draw(durations)


@st.composite
def placement_cases(draw, floats=False):
    """(engine, task, candidates, instance): random partial timelines on up to 32 nodes.

    Start times, lengths, costs and sizes are small integers and speeds
    and strengths powers of two, so keys and arrivals tie often.  With
    ``floats``, gaps and lengths are floats instead, and the task's
    duration on one node is within 4 ulps of one of that node's gaps or of
    its no-fit threshold, so the threshold skip is tried on both sides of
    its boundary.  The task's up to 4 predecessors are among the placed
    entries, in the engine's ``data_size`` order; the candidates are every
    node, as the scheduler passes them, or one node, as the oracle and the
    window queries do.  The timelines and weights come from a drawn seed:
    drawing each of them one by one made a 32-node case cost tens of
    milliseconds.
    """
    n_nodes = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = [f"n{j:02d}" for j in range(n_nodes)]
    intervals = []
    for v in nodes:
        cursor = 0
        for _ in range(rng.integers(0, 5)):
            if floats:
                start = cursor + rng.choice([0.0, rng.uniform(0.0, 4.0)])
                cursor = start + rng.uniform(0.25, 4.0)
            else:
                start = cursor + int(rng.integers(0, 5))
                cursor = start + int(rng.integers(1, 5))
            intervals.append((f"b{len(intervals)}", v, float(start), float(cursor)))
    n_preds = min(len(intervals), draw(st.integers(0, 4)))
    preds = rng.choice(len(intervals), size=n_preds, replace=False)
    costs = {t: 1.0 for t, *_ in intervals}
    costs["tk"] = float(draw(st.integers(1, 8)))
    sizes = {(intervals[i][0], "tk"): float(rng.integers(1, 7)) for i in preds}
    speeds = {v: float(2 ** rng.integers(0, 3)) for v in nodes}
    strengths = {
        pair: float(2 ** rng.integers(0, 3)) for pair in itertools.combinations(nodes, 2)
    }
    if floats and intervals:
        _, v, *_ = intervals[rng.integers(len(intervals))]
        starts = [a for _, u, a, _ in intervals if u == v]
        ends = [b for _, u, _, b in intervals if u == v]
        targets = [starts[0], *(b - a for a, b in zip(ends, starts[1:]))]
        duration = float(rng.choice([*targets, _no_fit_threshold(starts, ends)]))
        for _ in range(draw(st.integers(0, 4))):
            duration = math.nextafter(duration, math.inf if rng.integers(2) else 0.0)
        if duration > 0.0:
            costs["tk"] = duration * speeds[v]  # a power of two: d is exactly duration
    instance = mk_instance(costs, sizes, speeds, strengths)
    state = _PlacementState(instance)
    index = {v: i for i, v in enumerate(state.nodes)}
    for t, v, start, end in intervals:
        state.place(t, index[v], Window(start, end))
    one = st.integers(0, n_nodes - 1).map(lambda v: (v,))
    return state, "tk", draw(st.one_of(st.just(state.all_nodes), one)), instance


#: timeline offsets where one ulp is far below, near and far above 1.0
OFFSETS = [0.0, 3.0, 1e15, 1e16, 2.0**53, 1e17, 1e300]


@st.composite
def float_timelines(draw):
    """(starts, ends, ready, duration) for one node, built to sit on rounding edges.

    The entries start at one of :data:`OFFSETS`; each step to the next
    entry bound is 0, 1-4 ulps of the running bound, or a float up to 10
    (scaled to at least one ulp of the offset), so the entries are sorted
    and disjoint and many gaps are a few ulps wide.  ``ready`` is below the
    last end, so the insertion scan runs, and ``duration`` is within 4 ulps
    of a gap or of the no-fit threshold.
    """
    cursor = draw(st.sampled_from(OFFSETS))
    scale = max(1.0, math.ulp(cursor))
    bounds = []
    for _ in range(2 * draw(st.integers(1, 6))):
        step = draw(st.sampled_from(["none", "ulps", "float"]))
        if step == "ulps":
            cursor += draw(st.integers(1, 4)) * math.ulp(cursor)
        elif step == "float":
            cursor += draw(st.floats(0.0, 10.0)) * scale
        bounds.append(cursor)
    starts, ends = bounds[0::2], bounds[1::2]
    assume(ends[-1] > 0.0)
    below = [b for b in bounds if b < ends[-1]]
    anywhere = st.floats(0.0, ends[-1], exclude_max=True)
    ready = draw(st.one_of(st.sampled_from(below), anywhere) if below else anywhere)
    gaps = [starts[0], *(b - a for a, b in zip(ends, starts[1:]))]
    duration = draw(st.sampled_from([*gaps, _no_fit_threshold(starts, ends)]))
    toward = draw(st.sampled_from([math.inf, 0.0]))
    for _ in range(draw(st.integers(0, 4))):
        duration = math.nextafter(duration, toward)
    return starts, ends, ready, duration


def unpruned_best(state, task, candidates, append_only, kind):
    """``_PlacementState.best`` as one plain pass: every candidate scanned."""
    keyed = []
    for v in candidates:
        ready = 0.0
        for p, size in state.preds[task]:
            p_node, _, p_end = state.placed[p]
            ready = max(ready, p_end + (0.0 if p_node == v else size / state.strength[p_node][v]))
        d = state.cost[task] / state.speed[v]
        if append_only:
            start = max(state.ends[v][-1] if state.ends[v] else 0.0, ready)
        else:
            start = _insertion_start(state.starts[v], state.ends[v], ready, d)
        window = Window(start, start + d)
        keyed.append((COMPARE_KEYS[kind](window), v, window))
    # first minimum wins; the runner-up is the first minimum of the rest
    best = min(keyed, key=itemgetter(0))
    rest = [k for k in keyed if k is not best]
    if not rest:
        return best[1], best[2], 0.0, None
    second = min(rest, key=itemgetter(0))
    return best[1], best[2], second[0] - best[0], second[1]


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

    def test_equals_the_reference_score_difference(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            s1, s2 = rng.uniform(0, 10, size=2)
            a = Window(s1, s1 + rng.uniform(0, 5))
            b = Window(s2, s2 + rng.uniform(0, 5))
            for kind in ALL_KINDS:
                key = COMPARE_KEYS[kind]
                assert compare(kind, a, b) == key(a) - key(b)


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

    @settings(max_examples=400, deadline=None)
    @given(touching_busy_node())
    def test_bisected_scan_matches_oracle_on_touching_entries(self, case):
        intervals, ready, duration = case
        start = _insertion_start(
            [a for a, _ in intervals], [b for _, b in intervals], ready, duration
        )
        assert start == earliest_fit(intervals, ready, duration)

    def test_matches_earliest_fit_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            intervals = random_busy_intervals(rng)
            duration = float(rng.uniform(0.2, 3.0))
            ready = float(rng.uniform(0.0, 8.0))
            entries = busy_node_schedule(intervals).entries
            start = _insertion_start(
                [e.start for e in entries], [e.end for e in entries], ready, duration
            )
            assert start == earliest_fit(intervals, ready, duration)


@pytest.mark.parametrize("finder", [open_window_append_only, open_window_insertion])
class TestQueryInput:
    """The window queries check ``partial`` before they build the engine."""

    def instance(self):
        return mk_instance(
            {"p": 1.0, "tk": 1.0, "x": 1.0}, {("p", "tk"): 1.0}, {"n0": 1.0, "n1": 1.0}
        )

    @pytest.mark.parametrize("copies", [0, 2])
    def test_predecessor_missing_or_repeated(self, finder, copies):
        partial = Schedule((ScheduleEntry("p", "n1", 0.0, 1.0),) * copies)
        with pytest.raises(ValueError, match=f"'p' of 'tk' scheduled {copies} times"):
            finder(self.instance(), partial, "n0", "tk")

    def test_entry_on_unknown_node(self, finder):
        # x is unrelated to tk; the spec-level finders used to ignore it
        partial = Schedule((ScheduleEntry("p", "n1", 0.0, 1.0), ScheduleEntry("x", "n9", 0.0, 1.0)))
        with pytest.raises(KeyError):
            finder(self.instance(), partial, "n0", "tk")


class TestPlacementState:
    @pytest.mark.parametrize("append_only", [False, True])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @settings(max_examples=300, deadline=None)
    @given(case=st.one_of(placement_cases(), placement_cases(floats=True)))
    def test_best_equals_an_unpruned_pass(self, kind, append_only, case):
        # the skipped scans and the whole-row ready times change no value
        state, task, candidates, _ = case
        assert state.best(task, candidates, append_only, kind) == unpruned_best(
            state, task, candidates, append_only, kind
        )

    @settings(max_examples=300, deadline=None)
    @given(case=placement_cases())
    def test_ready_times_equal_the_spec_bit_for_bit(self, case):
        # the fused merge and the data_size order of preds change no bit
        state, task, _, instance = case
        partial = state.to_schedule()
        expected = [data_available_time(instance, partial, task, v) for v in state.nodes]
        assert list(map(float.hex, state._ready_times(task))) == list(map(float.hex, expected))

    def test_data_size_order_moves_no_entry(self):
        # preds follow data_size order; integer weights and power-of-two
        # speeds and strengths make tied arrivals common, and reversing
        # that order must give every config the same entries
        base = layered_dag(20261018, 120, 8)
        tg, network = base.task_graph, base.network
        costs = {t: float(max(1, round(4 * c))) for t, c in tg.compute_cost.items()}
        edges = sorted(tg.data_size)
        sizes = {e: float(max(1, round(4 * tg.data_size[e]))) for e in edges}
        speeds = {v: 2.0 ** round(x) for v, x in network.speed.items()}
        strengths = {pair: 2.0 ** round(x) for pair, x in network.strength.items()}
        forward = mk_instance(costs, sizes, speeds, strengths)
        backward = mk_instance(costs, dict(reversed(sizes.items())), speeds, strengths)
        assert list(backward.task_graph.data_size) == edges[::-1]
        for name, config in enumerate_configs():
            assert schedule(backward, config).entries == schedule(forward, config).entries, name

    @pytest.mark.parametrize(
        "append_only, finder", [(True, open_window_append_only), (False, open_window_insertion)]
    )
    @pytest.mark.parametrize(
        "intervals, ready", [([], 0.0), ([(2.0, 4.0), (8.0, 10.0)], 0.0), ([(0.0, 1.0)], 3.0)]
    )
    def test_best_window_is_the_plain_pair_the_queries_wrap(
        self, append_only, finder, intervals, ready
    ):
        # inside the engine a window is a plain (start, end) tuple; the
        # public queries, which perfbench and users consume, return Window
        inst, partial = instance_with_busy(2.0, intervals, ready=ready)
        state = _PlacementState(inst)
        index = {v: i for i, v in enumerate(state.nodes)}
        for e in partial.entries:
            state.place(e.task, index[e.node], (e.start, e.end))
        pair = state.best("tk", (index["n0"],), append_only, CompareKind.EFT)[1]
        window = finder(inst, partial, "n0", "tk")
        assert type(pair) is tuple and len(pair) == 2
        assert type(window) is Window
        assert tuple(window) == pair

    def test_gap_insertion_goes_between_its_neighbours(self):
        inst = mk_instance({"a": 1.0, "b": 1.0, "c": 1.0}, {}, {"n0": 1.0})
        state = _PlacementState(inst)
        state.place("a", 0, Window(0.0, 1.0))
        state.place("b", 0, Window(3.0, 4.0))
        window = state.best("c", (0,), False, CompareKind.EFT)[1]
        assert window == Window(1.0, 2.0)  # the gap between a and b
        state.place("c", 0, window)
        assert state.starts == [[0.0, 1.0, 3.0]] and state.ends == [[1.0, 2.0, 4.0]]

    def test_zero_length_entry_goes_before_an_equal_start(self):
        # z's duration vanishes against its start: its window (1.0, 1.0)
        # sits at the start of b, and the ends must stay sorted
        inst = mk_instance({"a": 1.0, "b": 1.0, "z": 1e-300, "w": 0.2}, {}, {"n0": 1.0})
        state = _PlacementState(inst)
        state.place("a", 0, Window(0.0, 1.0))
        state.place("b", 0, Window(1.0, 2.0))
        state.place("z", 0, Window(1.0, 1.0))
        assert state.starts == [[0.0, 1.0, 1.0]] and state.ends == [[1.0, 1.0, 2.0]]
        assert state.best("w", (0,), False, CompareKind.EFT)[1] == Window(2.0, 2.2)


class TestNoFitThreshold:
    @settings(max_examples=1000, deadline=None)
    @given(float_timelines())
    @example(
        (
            [3.0, 3.0000000000000004, 3.0000000000000107, 3.0000000000000107,
             3.951265940762113, 8.956214793836498],
            [3.0, 3.0000000000000075, 3.0000000000000107, 3.951265940762113,
             3.951265940762113, 8.9562147938365],
            3.0,
            5.004948853074386,  # one ulp above the last computed gap, and it fits
        )
    )
    def test_a_longer_task_fits_no_gap(self, case):
        starts, ends, ready, duration = case
        if duration > _no_fit_threshold(starts, ends):
            assert _insertion_start(starts, ends, ready, duration) == ends[-1]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_place_keeps_lasts_and_thresholds(self, seed):
        # a random forward walk: every node is evaluated before each
        # placement, so thresholds become known and then live through
        # appends and middle insertions
        rng = np.random.default_rng(seed)
        n_tasks, n_nodes = 12, int(rng.integers(1, 4))
        tasks = [f"t{i:02d}" for i in range(n_tasks)]
        costs = {t: float(rng.choice([0.5, 1.0, 3.0, rng.uniform(0.1, 4.0)])) for t in tasks}
        sizes = {
            (a, b): float(rng.uniform(0.5, 6.0))
            for a, b in itertools.combinations(tasks, 2)
            if rng.random() < 0.2
        }
        nodes = [f"n{j}" for j in range(n_nodes)]
        state = _PlacementState(mk_instance(costs, sizes, {v: 1.0 for v in nodes}))
        preds = {t: [p for p, u in sizes if u == t] for t in tasks}
        for _ in tasks:
            ready = [
                t for t in tasks
                if t not in state.placed and all(p in state.placed for p in preds[t])
            ]
            task = ready[rng.integers(len(ready))]
            windows = [state.best(task, (v,), False, CompareKind.EFT)[1] for v in range(n_nodes)]
            v = int(rng.integers(n_nodes))
            state.place(task, v, windows[v])
            for v in state.all_nodes:
                starts, ends = state.starts[v], state.ends[v]
                assert state.lasts[v] == (ends[-1] if ends else 0.0)
                if state.fit[v] is not None:
                    assert state.fit[v] == _no_fit_threshold(starts, ends)
