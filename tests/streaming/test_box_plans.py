"""Box plans against per-element references (hypothesis).

The references are built from :meth:`Slice.flat_positions_within`, one
int64 stream position and one local flat position per element — the
representation box plans replaced.  Gather and scatter must agree byte
for byte; interval counting must agree with the scalar slice-algebra
accounting and with element counting on arbitrary ``[lo, hi)``; the
localized rebuild scope must derive the same lost byte intervals.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bt import BTProxy
from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import (
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    Indexed,
)
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import StreamingError
from repro.mlck.localized import _merge_intervals, compute_rebuild_scope
from repro.streaming.partition import partition, piece_offsets
from repro.streaming.serial import _piece_redistribution_bytes
from repro.streaming.vectorized import (
    build_section_index_plan,
    entry_stream_intervals,
    gather_section_flat,
    range_redistribution_bytes,
    scatter_section_flat,
)

# -- per-element references ---------------------------------------------------


def element_positions(dist, section, order, kind):
    """(task, spos, lflat) per overlapping task: stream positions within
    the section and flat positions within the task's C-order local."""
    out = []
    for t in range(dist.ntasks):
        base = dist.assigned(t) if kind == "assigned" else dist.mapped(t)
        box = base.intersect(section)
        if box.is_empty:
            continue
        spos = box.flat_positions_within(
            section, enum_order=order, address_order=order
        )
        lflat = box.flat_positions_within(
            dist.mapped(t), enum_order=order, address_order="C"
        )
        out.append((t, spos, lflat))
    return out


def reference_gather(arr, section, order):
    flat = np.zeros(section.size, dtype=arr.dtype)
    for t, spos, lflat in element_positions(
        arr.distribution, section, order, "assigned"
    ):
        flat[spos] = arr.local(t).reshape(-1)[lflat]
    return flat


def reference_scatter(arr, section, flat, order):
    for t, spos, lflat in element_positions(
        arr.distribution, section, order, "mapped"
    ):
        arr.local(t).reshape(-1)[lflat] = flat[spos]


def reference_redistribution(dist, section, order, lo, hi, io_task, itemsize):
    return itemsize * sum(
        int(np.count_nonzero((spos >= lo) & (spos < hi)))
        for t, spos, _ in element_positions(dist, section, order, "assigned")
        if t != io_task
    )


# -- strategies ---------------------------------------------------------------


@st.composite
def axis_kinds(draw, extent, nprocs):
    kind = draw(st.sampled_from(["block", "cyclic", "blockcyclic", "indexed"]))
    if kind == "block":
        return Block()
    if kind == "cyclic":
        return Cyclic()
    if kind == "blockcyclic":
        return BlockCyclic(draw(st.integers(1, 3)))
    # each element goes to one coordinate or to none (a hole)
    owner = draw(
        st.lists(
            st.integers(-1, nprocs - 1), min_size=extent, max_size=extent
        )
    )
    return Indexed(
        [Range([i for i, o in enumerate(owner) if o == c]) for c in range(nprocs)]
    )


@st.composite
def arrays(draw):
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 7)) for _ in range(rank))
    grid = tuple(draw(st.integers(1, min(3, n))) for n in shape)
    axes = [draw(axis_kinds(n, g)) for n, g in zip(shape, grid)]
    shadow = (
        tuple(draw(st.integers(0, 2)) for _ in shape)
        if draw(st.booleans())
        else None
    )
    dist = Distribution(shape, axes, int(np.prod(grid)), grid=grid, shadow=shadow)
    dtype = draw(st.sampled_from([np.float64, np.int32]))
    arr = DistributedArray("x", shape, dtype, dist)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr.set_global(rng.integers(1, 1000, size=shape).astype(dtype))
    return arr


@st.composite
def sub_range(draw, extent):
    kind = draw(st.sampled_from(["full", "strided", "indexed"]))
    if kind == "full":
        return Range.of_size(extent)
    if kind == "strided":
        start = draw(st.integers(0, extent - 1))
        stop = draw(st.integers(start + 1, extent))
        return Range(range(start, stop, draw(st.integers(1, 3))))
    picks = draw(
        st.lists(st.integers(0, extent - 1), min_size=1, max_size=extent, unique=True)
    )
    return Range(sorted(picks))


@st.composite
def cases(draw):
    arr = draw(arrays())
    if draw(st.booleans()):
        section = Slice.full(arr.shape)
    else:
        section = Slice([draw(sub_range(n)) for n in arr.shape])
    return arr, section, draw(st.sampled_from(["F", "C"]))


def locals_equal(a, b):
    return all(
        a.local(t).tobytes() == b.local(t).tobytes() for t in range(a.ntasks)
    )


# -- gather / scatter -----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(cases())
def test_gather_matches_element_reference(case):
    arr, section, order = case
    want = reference_gather(arr, section, order)
    assert gather_section_flat(arr, section, order=order).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(cases())
def test_strict_gather_raises_exactly_on_holes(case):
    arr, section, order = case
    holes = not arr.defined_mask()[section.np_index()].all()
    if holes:
        with pytest.raises(StreamingError, match="undefined element"):
            gather_section_flat(arr, section, order=order, strict=True)
    else:
        gather_section_flat(arr, section, order=order, strict=True)


@settings(max_examples=150, deadline=None)
@given(cases(), st.integers(0, 2**32 - 1))
def test_scatter_matches_element_reference(case, seed):
    arr, section, order = case
    vals = (
        np.random.default_rng(seed)
        .integers(1, 1000, size=section.size)
        .astype(arr.dtype)
    )
    via_box = arr.redistributed(arr.distribution)
    via_ref = arr.redistributed(arr.distribution)
    scatter_section_flat(via_box, section, vals, order=order)
    reference_scatter(via_ref, section, vals, order)
    assert locals_equal(via_box, via_ref)


# -- interval accounting --------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(cases(), st.data())
def test_interval_count_matches_element_count(case, data):
    arr, section, order = case
    dist = arr.distribution
    plan = build_section_index_plan(dist, section, order)
    n = section.size
    lo = data.draw(st.integers(-2, n + 2))
    hi = data.draw(st.integers(lo, n + 3))
    io_task = data.draw(st.integers(0, dist.ntasks - 1))
    assert range_redistribution_bytes(
        plan, lo, hi, io_task, arr.itemsize
    ) == reference_redistribution(dist, section, order, lo, hi, io_task, arr.itemsize)


@settings(max_examples=100, deadline=None)
@given(cases(), st.integers(0, 5))
def test_piece_count_matches_scalar_accounting(case, log_m):
    arr, section, order = case
    plan = build_section_index_plan(arr.distribution, section, order)
    pieces = partition(section, 1 << log_m, order)
    offsets = piece_offsets(pieces, 1)
    for io_task in range(arr.ntasks):
        for piece, lo in zip(pieces, offsets):
            assert range_redistribution_bytes(
                plan, lo, lo + piece.size, io_task, arr.itemsize
            ) == _piece_redistribution_bytes(arr, piece, io_task)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_stream_intervals_cover_exactly_the_box(case):
    arr, section, order = case
    plan = build_section_index_plan(arr.distribution, section, order)
    want = {
        t: np.sort(spos)
        for t, spos, _ in element_positions(
            arr.distribution, section, order, "assigned"
        )
    }
    for e in plan.entries:
        runs = entry_stream_intervals(plan, e)
        assert np.all(runs[:, 0] < runs[:, 1])
        assert np.all(runs[1:, 0] >= runs[:-1, 1])  # ascending, disjoint
        got = np.concatenate([np.arange(a, b) for a, b in runs])
        assert np.array_equal(got, want[e.task])


def reference_lost_intervals(dist, order, lost, itemsize):
    """The per-element derivation: sorted stream positions of each lost
    rank, split where consecutive positions break, then merged."""
    intervals = []
    for t, spos, _ in element_positions(
        dist, Slice.full(dist.shape), order, "assigned"
    ):
        if t not in lost:
            continue
        s = np.sort(spos)
        cut = np.flatnonzero(np.diff(s) != 1)
        starts = s[np.concatenate(([0], cut + 1))]
        ends = s[np.concatenate((cut, [s.size - 1]))]
        intervals.extend(
            (int(a) * itemsize, (int(b) + 1) * itemsize)
            for a, b in zip(starts, ends)
        )
    return _merge_intervals(intervals)


@settings(max_examples=100, deadline=None)
@given(cases(), st.data())
def test_lost_intervals_match_element_derivation(case, data):
    arr, _, order = case
    dist = arr.distribution
    lost = set(
        data.draw(st.lists(st.integers(0, dist.ntasks - 1), unique=True))
    )
    placement = {r: r for r in range(dist.ntasks)}
    manifest = {
        "prefix": "p",
        "segment_bytes": 0,
        "arrays": [
            {
                "name": arr.name,
                "shape": list(arr.shape),
                "dtype": arr.dtype.name,
                "nbytes": arr.nbytes_global,
            }
        ],
    }
    scope = compute_rebuild_scope(
        manifest, dist.ntasks, placement, sorted(lost), order=order,
        distribution_overrides={arr.name: dist},
    )
    (ascope,) = scope.arrays
    assert ascope.lost_intervals == reference_lost_intervals(
        dist, order, lost, arr.itemsize
    )
    assert ascope.rank_bytes == {
        t: spos.size * arr.itemsize
        for t, spos, _ in element_positions(
            dist, Slice.full(dist.shape), order, "assigned"
        )
    }


# -- plan memory ----------------------------------------------------------------


def index_bytes(obj) -> int:
    """Total index data reachable from a plan: ndarray bytes, plus
    8 bytes per int held in a tuple or list (a ``range`` holds none)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (int, np.integer)):
        return 8
    if isinstance(obj, (tuple, list)):
        return sum(index_bytes(x) for x in obj)
    if isinstance(obj, Slice):
        return sum(index_bytes(r) for r in obj.ranges)
    if isinstance(obj, Range):
        return 0 if obj.is_regular else obj.indices().nbytes
    if dataclasses.is_dataclass(obj):
        return sum(
            index_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    return 0


@pytest.mark.parametrize("kind", ["assigned", "mapped"])
@pytest.mark.parametrize("order", ["F", "C"])
def test_bt_class_a_plan_is_small(kind, order):
    """An O(elements) plan for this array would hold ~38 MB per int64
    vector; a box plan holds per-axis positions only."""
    assert index_bytes(tuple(range(100))) == 800  # the counter sees lists
    proxy = BTProxy("A", store_data=False)
    dist = proxy.field_distribution(proxy.field_by_name("lhs"), 8)
    assert dist.shape == (18, 64, 64, 64)
    plan = build_section_index_plan(
        dist, Slice.full(dist.shape), order=order, kind=kind
    )
    assert len(plan.entries) == 8
    assert index_bytes(plan) < 64 * 1024
