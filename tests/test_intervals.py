import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from evrec import intervals as iv
from evrec.engine import _cut
from evrec.intervals import OPEN

import reference


def random_interval_list(rng, max_intervals=5, hi=100, allow_open=True):
    out = []
    for _ in range(rng.randrange(0, max_intervals + 1)):
        s = rng.randrange(0, hi)
        if allow_open and rng.random() < 0.1:
            out.append((s, OPEN))
        else:
            out.append((s, rng.randrange(s + 1, hi + 10)))
    return out


def test_worked_union_example():
    assert iv.union_all([[(5, 20), (26, 30)], [(28, 35)]]) == [(5, 20), (26, 35)]


def test_worked_intersection_example():
    assert iv.intersect_all([[(5, 20), (26, 30)], [(28, 35)]]) == [(28, 30)]


def test_worked_complement_example():
    got = iv.relative_complement_all([(5, 20), (26, 30)], [[(1, 4), (18, 22)]])
    assert got == [(5, 18), (26, 30)]


def test_normalize_merges_abutting():
    assert iv.normalize([(1, 3), (3, 5)]) == [(1, 5)]


def test_normalize_rejects_empty_interval():
    with pytest.raises(iv.MalformedIntervalError):
        iv.normalize([(5, 5)])


def test_normalize_rejects_a_negative_start_in_a_canonical_list():
    for ilist in ([(-1, 3)], [(-4, -2), (0, OPEN)]):
        with pytest.raises(iv.MalformedIntervalError):
            iv.normalize(ilist)


def test_intersect_all_rejects_no_lists():
    with pytest.raises(iv.MalformedIntervalError):
        iv.intersect_all([])


def test_open_tail_union():
    assert iv.union_all([[(3, OPEN)], [(1, 2)]]) == [(1, 2), (3, OPEN)]
    assert iv.union_all([[(3, OPEN)], [(1, 10)]]) == [(1, OPEN)]


def test_open_tail_intersection():
    assert iv.intersect_all([[(3, OPEN)], [(5, OPEN)]]) == [(5, OPEN)]
    assert iv.intersect_all([[(3, OPEN)], [(1, 10)]]) == [(3, 10)]


def test_complement_with_open_removal():
    assert iv.relative_complement_all([(0, 10)], [[(4, OPEN)]]) == [(0, 4)]
    assert iv.relative_complement_all([(0, OPEN)], [[(4, 6)]]) == [(0, 4), (6, OPEN)]


@pytest.mark.parametrize("seed", range(5))
def test_constructs_against_pointwise_oracle(seed):
    rng = random.Random(seed)
    for _ in range(200):
        lists = [random_interval_list(rng) for _ in range(rng.randrange(1, 6))]
        assert iv.union_all(lists) == reference.union(lists)
        assert iv.intersect_all(lists) == reference.intersection(lists)
        base = random_interval_list(rng)
        assert iv.relative_complement_all(base, lists) == reference.complement(
            base, lists
        )


def test_holds_at():
    ilist = [(2, 5), (8, OPEN)]
    assert not iv.holds_at(ilist, 1)
    assert iv.holds_at(ilist, 2)
    assert iv.holds_at(ilist, 4)
    assert not iv.holds_at(ilist, 5)
    assert iv.holds_at(ilist, 100)


def test_clip_before_splits_at_t_plus_one():
    prefix, suffix = iv.clip_before([(3, 12)], 7)
    assert prefix == [(3, 8)]
    assert suffix == [(8, 12)]
    prefix, suffix = iv.clip_before([(3, OPEN)], 7)
    assert prefix == [(3, 8)]
    assert suffix == [(8, OPEN)]


def test_clip_before_roundtrip_random():
    rng = random.Random(11)
    for _ in range(300):
        ilist = iv.normalize(random_interval_list(rng))
        t = rng.randrange(0, 120)
        prefix, suffix = iv.clip_before(ilist, t)
        assert iv.is_canonical(prefix) and iv.is_canonical(suffix)
        assert all(e is not OPEN and e <= t + 1 for _, e in prefix)
        assert all(s >= t + 1 for s, _ in suffix)
        assert iv.union_all([prefix, suffix]) == ilist


def test_amalgamate_merges_abutting_parts():
    assert iv.amalgamate([(2, 6)], [(6, 9)]) == [(2, 9)]
    assert iv.amalgamate([(2, 6)], [(8, 9)]) == [(2, 6), (8, 9)]
    assert iv.amalgamate([], [(8, 9)]) == [(8, 9)]


def test_amalgamate_rejects_overlap():
    with pytest.raises(iv.IntervalOverlapError):
        iv.amalgamate([(2, 7)], [(6, 9)])


def test_start_and_end_points():
    ilist = [(2, 5), (8, OPEN)]
    assert iv.start_points(ilist) == [2, 8]
    assert iv.end_points(ilist) == [5]


def test_make_intervals_basic():
    assert iv.make_intervals([10, 20], [15, 40], now=50) == [(11, 15), (21, 40)]
    assert iv.make_intervals([10], [], now=50) == [(11, OPEN)]
    # a break exactly one tick after the start leaves nothing
    assert iv.make_intervals([10], [11], now=50) == []
    # a break at the same tick as the start does not apply to it
    assert iv.make_intervals([10], [10], now=50) == [(11, OPEN)]


def test_make_intervals_rejects_unsorted():
    with pytest.raises(iv.MalformedIntervalError):
        iv.make_intervals([5, 5], [], now=10)
    with pytest.raises(iv.MalformedIntervalError):
        iv.make_intervals([5], [20], now=10)


def test_make_intervals_against_pointwise_oracle():
    rng = random.Random(23)
    for _ in range(400):
        now = rng.randrange(10, 80)
        starts = sorted(rng.sample(range(0, now + 1), rng.randrange(0, 6)))
        breaks = sorted(rng.sample(range(0, now + 1), rng.randrange(0, 6)))
        got = iv.make_intervals(starts, breaks, now)
        assert got == reference.inertia(starts, breaks, now)


def make_intervals_outcome(make, starts, breaks, now):
    try:
        return make(starts, breaks, now)
    except iv.MalformedIntervalError as exc:
        return "raised", str(exc)


@given(st.lists(st.integers(0, 40), max_size=12), st.lists(st.integers(0, 40), max_size=12),
       st.integers(0, 40), st.booleans(), st.booleans(), st.booleans())
def test_make_intervals_equals_its_step_by_step_body(starts, breaks, now, sort_starts,
                                                     sort_breaks, as_tuples):
    """Mostly ascending lists, as the engine passes; the others must raise alike."""
    if sort_starts:
        starts = sorted(set(starts))
    if sort_breaks:
        breaks = sorted(set(breaks))
    if as_tuples:
        starts, breaks = tuple(starts), tuple(breaks)
    assert make_intervals_outcome(iv.make_intervals, starts, breaks, now) == \
        make_intervals_outcome(reference.make_intervals, starts, breaks, now)


finite_lists = st.lists(
    st.tuples(st.integers(0, 60), st.integers(1, 40)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=6,
)


@given(finite_lists)
def test_normalize_is_idempotent_and_canonical(raw):
    once = iv.normalize(raw)
    assert iv.is_canonical(once)
    assert iv.normalize(once) == once


@given(finite_lists, finite_lists)
def test_union_commutes(a, b):
    assert iv.union_all([a, b]) == iv.union_all([b, a])


@given(finite_lists, finite_lists)
def test_complement_after_union_is_disjoint(a, b):
    joined = iv.union_all([a, b])
    rest = iv.relative_complement_all(joined, [a])
    assert iv.intersect_all([rest, iv.normalize(a)]) == [] if a else True
    assert iv.union_all([rest, iv.normalize(a) if a else []]) == joined


@st.composite
def canonical_lists(draw):
    """Sorted, disjoint, non-abutting intervals, the last one maybe open."""
    out, t = [], draw(st.integers(0, 5))
    for length, gap in draw(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)), max_size=6)):
        out.append((t, t + length))
        t += length + gap
    if draw(st.booleans()):
        out.append((t, OPEN))
    return out


@given(canonical_lists())
def test_normalize_copies_a_canonical_list(ilist):
    got = iv.normalize(ilist)
    assert got == ilist
    assert got is not ilist


def test_normalize_returns_the_canonical_form_of_a_canonical_list():
    # an infinite end reads as OPEN, and items come back as int tuples
    # whether or not the input needed sorting
    assert iv.normalize([(1, 3), (5, math.inf)]) == [(1, 3), (5, OPEN)]
    assert iv.normalize([(5, math.inf), (1, 3)]) == [(1, 3), (5, OPEN)]
    got = iv.normalize([[1, 3], [5, 8]])
    assert got == [(1, 3), (5, 8)] and all(type(item) is tuple for item in got)
    got = iv.normalize([(1.0, 3.0)])
    assert got == [(1, 3)] and all(type(x) is int for x in got[0])


def test_cut_makes_an_end_past_the_bound_open():
    # from 3 on, as far as 10: (8, 11) reaches past it, (11, OPEN) starts after it
    assert _cut([(2, 5), (8, 11), (12, OPEN)], 3, 10) == [(3, 5), (8, OPEN)]
    assert _cut([(2, 3), (6, 10), (11, OPEN)], 3, 10) == [(6, 10)]
    assert _cut([(2, 5)], 11, 10) == []


COMBINE = {
    "union": iv.union_all,
    "intersection": iv.intersect_all,
    "complement": lambda lists: iv.relative_complement_all(lists[0], lists[1:]),
}


@settings(max_examples=1000)
@given(st.lists(canonical_lists(), min_size=1, max_size=3), st.integers(0, 100),
       st.integers(-5, 80), st.sampled_from(sorted(COMBINE)))
def test_cut_under_set_operations_equals_the_old_cut_reopened(lists, since, span, op):
    """The one-pass cut, which leaves a tail past `bound` OPEN, gives under a
    union, intersection or complement what the earlier cut, which ended it
    one past `bound`, gave once the result's tail there was made OPEN."""
    bound, combine = since + span, COMBINE[op]
    cuts = [_cut(ilist, since, bound) for ilist in lists]
    assert all(iv.is_canonical(each) for each in cuts)
    old = combine([reference.cut(ilist, since, bound) for ilist in lists])
    assert combine(cuts) == reference.reopen(old, bound)
