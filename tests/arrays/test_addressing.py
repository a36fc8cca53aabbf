"""Property tests (hypothesis) for section addressing: the basic-slice
indices of :meth:`Slice.np_index` and :meth:`Slice.local_index_within`
select exactly what the ``np.ix_`` open mesh selects, and a non-subset
is rejected with :class:`RangeError` whichever form is taken."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import RangeError


def ix_local_reference(sub, outer):
    """The all-``np.ix_`` local index."""
    if sub.is_empty:
        return np.ix_(*[np.empty(0, dtype=np.int64)] * sub.rank)
    return np.ix_(*[o.positions_of(r) for r, o in zip(sub, outer)])


def is_basic(index):
    return all(isinstance(i, slice) for i in index)


# -- strategies ---------------------------------------------------------------

regular_outer = st.builds(
    Range.regular, st.integers(0, 20), st.integers(-1, 60), st.integers(1, 5)
)
indexed_outer = st.lists(
    st.integers(0, 60), min_size=0, max_size=14, unique=True
).map(sorted).map(Range)
outer_ranges = st.one_of(regular_outer, indexed_outer)


@st.composite
def sub_ranges(draw, outer):
    """A subset of ``outer``: regular/strided, singleton, indexed or
    empty."""
    n = outer.size
    kind = draw(st.sampled_from(["strided", "singleton", "indexed", "empty"]))
    if n == 0 or kind == "empty":
        return Range.empty()
    if kind == "singleton":
        return Range(outer[draw(st.integers(0, n - 1))])
    if kind == "strided":
        start = draw(st.integers(0, n - 1))
        stop = draw(st.integers(start + 1, n))
        step = draw(st.integers(1, 4))
        return Range(outer.indices()[start:stop:step])
    picks = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return Range(outer.indices()[sorted(picks)])


@st.composite
def outer_and_sub(draw):
    outer = draw(outer_ranges)
    return outer, draw(sub_ranges(outer))


@st.composite
def slice_pairs(draw, rank=2):
    pairs = [draw(outer_and_sub()) for _ in range(rank)]
    return Slice([o for o, _ in pairs]), Slice([s for _, s in pairs])


any_ranges = st.one_of(
    st.builds(Range.regular, st.integers(0, 30), st.integers(-1, 70), st.integers(1, 7)),
    indexed_outer,
)


# -- Range.slice_of -------------------------------------------------------------


@given(outer_and_sub())
def test_slice_of_matches_positions_of(pair):
    outer, sub = pair
    sl = outer.slice_of(sub)
    if sl is None:
        assert not (outer.is_regular and sub.is_regular)
        return
    positions = np.arange(outer.size)[sl]
    assert np.array_equal(positions, outer.positions_of(sub))


@given(any_ranges, any_ranges)
def test_slice_of_rejects_non_subsets_like_positions_of(outer, sub):
    try:
        want = outer.positions_of(sub)
    except RangeError:
        if outer.is_regular and sub.is_regular:
            with pytest.raises(RangeError):
                outer.slice_of(sub)
        else:  # left to positions_of, which raises
            assert outer.slice_of(sub) is None
        return
    sl = outer.slice_of(sub)
    if sl is not None:
        assert np.array_equal(np.arange(outer.size)[sl], want)


# -- Slice.local_index_within / np_index ----------------------------------------


@given(slice_pairs())
def test_local_index_selects_like_ix(pair):
    outer, sub = pair
    local = np.arange(outer.size, dtype=np.int64).reshape(outer.shape)
    got = local[sub.local_index_within(outer)]
    want = local[ix_local_reference(sub, outer)]
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@given(slice_pairs(rank=3))
def test_local_index_is_basic_exactly_when_every_axis_is_regular(pair):
    outer, sub = pair
    regular = sub.is_empty or all(
        o.is_regular and r.is_regular for o, r in zip(outer, sub)
    )
    assert is_basic(sub.local_index_within(outer)) == regular


@given(st.lists(any_ranges, min_size=1, max_size=3))
def test_np_index_selects_like_ix(ranges):
    s = Slice(ranges)
    g = np.arange(80 ** s.rank, dtype=np.int64).reshape((80,) * s.rank)
    got = g[s.np_index()]
    want = g[np.ix_(*[r.indices() for r in s])]
    assert got.shape == want.shape == s.shape
    assert np.array_equal(got, want)
    assert is_basic(s.np_index()) == all(r.is_regular for r in s)


@given(slice_pairs(), st.integers(0, 1), any_ranges)
def test_non_subset_raises_on_both_paths(pair, axis, stray):
    outer, sub = pair
    sub = sub.replace(axis, stray)
    try:
        want = ix_local_reference(sub, outer)
    except RangeError:
        with pytest.raises(RangeError):
            sub.local_index_within(outer)
        return
    local = np.arange(outer.size, dtype=np.int64).reshape(outer.shape)
    assert np.array_equal(local[sub.local_index_within(outer)], local[want])


@pytest.mark.parametrize(
    "outer,sub",
    [
        # regular in regular: misaligned start, misaligned stride, overrun
        (Range.regular(0, 20, 2), Range.regular(1, 5, 2)),
        (Range.regular(0, 20, 2), Range.regular(0, 9, 3)),
        (Range.regular(0, 20, 2), Range.regular(18, 22, 2)),
        (Range.empty(), Range.regular(0, 0)),
        # the np.ix_ path: an indexed side
        (Range([0, 3, 4, 9]), Range.regular(3, 5)),
        (Range.regular(0, 10, 2), Range([2, 3, 7])),
    ],
)
def test_non_subset_examples_raise(outer, sub):
    big = Slice([Range.regular(0, 3), outer])
    with pytest.raises(RangeError):
        Slice([Range.regular(1, 2), sub]).local_index_within(big)
