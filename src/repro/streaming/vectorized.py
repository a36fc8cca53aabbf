"""Bulk gather/scatter over precomputed box plans.

A section's stream is a redistribution of the tasks' local arrays: each
task's share is its coverage (assigned or mapped section) intersected
with the section — a *box* (paper Fig. 5b).  A **box plan** for a
(distribution, section, order, kind) holds one :class:`PlanEntry` per
overlapping task: the box's size, its index ``sidx`` into the section
viewed in its stream shape, its index ``lidx`` into the task's local
array (which stores the task's mapped section), and its per-axis
positions within the section.  Both indices are basic slices when the ranges are
regular and the ``np.ix_`` mesh when some axis is indexed, so one code
path serves both.  With ``view = flat.reshape(section.shape, order)``,
gather is ``view[e.sidx] = local(e.task)[e.lidx]`` per owner (kind
``"assigned"``; owners are disjoint) and scatter is the reverse per
mapping task (kind ``"mapped"``; overlapping copies all receive the
same value).

A plan is O(tasks + box extents), never O(section).  Stream-position
questions are answered from the per-axis positions: the number of a
box's elements below a stream position is a mixed-radix count over the
section shape, O(rank) per box, which is how
:func:`range_redistribution_bytes` accounts a Fig. 5a piece (a stream
interval), and :func:`entry_stream_intervals` lists a box's stream runs
for localized recovery.  Plans depend only on distribution geometry, so
they are cached in :mod:`repro.plancache` (kind ``"indexplan"``, keyed
by the distribution fingerprint) and serve virtual (geometry-only)
arrays' accounting too.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import Distribution
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import StreamingError
from repro.streaming.order import check_order

__all__ = [
    "PlanEntry",
    "SectionIndexPlan",
    "build_section_index_plan",
    "gather_section_flat",
    "scatter_section_flat",
    "range_redistribution_bytes",
    "entry_stream_intervals",
]

#: coverage kinds: "assigned" drives gather (ownership; disjoint),
#: "mapped" drives scatter (delivery; may overlap across tasks)
_KINDS = ("assigned", "mapped")


@dataclass(frozen=True)
class PlanEntry:
    """One task's box in a section plan."""

    task: int
    #: elements of the box (the task's coverage within the section)
    size: int
    #: index of the box within the section's stream-shaped view
    sidx: tuple
    #: index of the box within the task's local (mapped) array
    lidx: tuple
    #: per-axis ascending positions of the box within the section (a
    #: ``range`` for regular axes, a tuple for indexed ones)
    pos: Tuple[Sequence[int], ...]


@dataclass(frozen=True)
class SectionIndexPlan:
    """Cached box plan for one (distribution, section, order, kind)."""

    section_size: int
    entries: Tuple[PlanEntry, ...]
    #: total box elements; exact coverage for "assigned" (owners are
    #: pairwise disjoint), an upper bound for "mapped"
    covered: int
    #: the section's shape and the stream stride of each axis
    shape: Tuple[int, ...]
    strides: Tuple[int, ...]
    #: axes from most to least significant in the stream order
    major: Tuple[int, ...]


def _axis_positions(outer: Range, sub: Range) -> Sequence[int]:
    """``sub``'s positions within ``outer``: a ``range`` when both are
    regular, else a tuple."""
    basic = outer.slice_of(sub)
    if basic is not None:
        return range(basic.start, basic.stop, basic.step)
    return tuple(outer.positions_of(sub).tolist())


def build_section_index_plan(
    dist: Distribution,
    section: Slice,
    order: str = "F",
    kind: str = "assigned",
) -> SectionIndexPlan:
    """Compute the box plan (pure; cached via
    :func:`repro.plancache.plans.section_index_plan`)."""
    check_order(order)
    if kind not in _KINDS:
        raise StreamingError(
            f"unknown index-plan kind {kind!r}; expected one of {_KINDS}"
        )
    shape = section.shape
    rank = len(shape)
    major = tuple(range(rank - 1, -1, -1)) if order == "F" else tuple(range(rank))
    strides = [1] * rank
    acc = 1
    for ax in reversed(major):
        strides[ax] = acc
        acc *= shape[ax]
    entries = []
    covered = 0
    for t in range(dist.ntasks):
        base = dist.assigned(t) if kind == "assigned" else dist.mapped(t)
        box = base.intersect(section)
        if box.is_empty:
            continue
        entries.append(
            PlanEntry(
                task=t,
                size=box.size,
                sidx=box.local_index_within(section),
                lidx=box.local_index_within(dist.mapped(t)),
                pos=tuple(_axis_positions(s, b) for s, b in zip(section, box)),
            )
        )
        covered += box.size
    return SectionIndexPlan(
        section_size=section.size,
        entries=tuple(entries),
        covered=covered,
        shape=shape,
        strides=tuple(strides),
        major=major,
    )


def _cached_index_plan(
    dist: Distribution, section: Slice, order: str, kind: str
) -> SectionIndexPlan:
    """Plan via the active cache.  Imported lazily: the cache layer
    sits above the pure streaming layer."""
    from repro.plancache.plans import section_index_plan

    return section_index_plan(dist, section, order=order, kind=kind)


def gather_section_flat(
    darray: DistributedArray,
    section: Slice,
    order: str = "F",
    strict: bool = False,
    plan: SectionIndexPlan | None = None,
) -> np.ndarray:
    """The section's elements as one 1-D array in stream order, copied
    box by box from the owner tasks.  Elements assigned to no task are
    zeros, or raise under ``strict`` (the
    :func:`repro.streaming.serial.strict_gather` semantics)."""
    check_order(order)
    if plan is None:
        plan = _cached_index_plan(darray.distribution, section, order, "assigned")
    holes = plan.section_size - plan.covered
    if strict and holes:
        raise StreamingError(
            f"strict gather: section {section} has {holes} undefined "
            f"element(s) (no owning task) in array {darray.name!r}"
        )
    flat = (np.zeros if holes else np.empty)(plan.section_size, dtype=darray.dtype)
    view = flat.reshape(plan.shape, order=order)
    for e in plan.entries:
        view[e.sidx] = darray.local(e.task)[e.lidx]
    return flat


def scatter_section_flat(
    darray: DistributedArray,
    section: Slice,
    flat: np.ndarray,
    order: str = "F",
    plan: SectionIndexPlan | None = None,
) -> None:
    """Deliver a stream-ordered 1-D value vector into every task whose
    mapped section overlaps ``section`` — all copies of every element
    are updated consistently, one box copy per task."""
    check_order(order)
    if plan is None:
        plan = _cached_index_plan(darray.distribution, section, order, "mapped")
    flat = np.asarray(flat)
    if flat.size != plan.section_size:
        raise StreamingError(
            f"scatter of {flat.size} values into a section of "
            f"{plan.section_size} elements"
        )
    view = flat.reshape(plan.shape, order=order)
    for e in plan.entries:
        darray.local(e.task)[e.lidx] = view[e.sidx]


def _count_below(plan: SectionIndexPlan, e: PlanEntry, bound: int) -> int:
    """Elements of ``e``'s box at stream positions ``< bound``.  Walk
    the bound's mixed-radix digits over the section shape from the most
    significant axis: each axis adds (box positions below the digit) x
    (box elements per position), while the digits so far lie in the box."""
    if bound <= 0:
        return 0
    if bound >= plan.section_size:
        return e.size
    count = 0
    rest = e.size
    for ax in plan.major:
        p = e.pos[ax]
        rest //= len(p)
        digit = bound // plan.strides[ax] % plan.shape[ax]
        less = bisect_left(p, digit)
        count += less * rest
        if less == len(p) or p[less] != digit:
            break
    return count


def range_redistribution_bytes(
    plan: SectionIndexPlan, lo: int, hi: int, io_task: int, itemsize: int
) -> int:
    """Bytes of stream interval ``[lo, hi)`` (element positions) owned
    by tasks other than ``io_task`` — the redistribution cost of that
    interval reaching I/O task ``io_task``.  Requires an "assigned"
    plan; undefined elements (no owner) move nothing, matching the
    scalar accounting."""
    moved = 0
    for e in plan.entries:
        if e.task != io_task:
            moved += _count_below(plan, e, hi) - _count_below(plan, e, lo)
    return moved * itemsize


def entry_stream_intervals(plan: SectionIndexPlan, e: PlanEntry) -> np.ndarray:
    """The stream runs of ``e``'s box: an ascending ``(n, 2)`` int64
    array of ``[start, stop)`` positions.  Whole least significant axes
    fold into the run length; the next axis splits into its consecutive
    runs, repeated at every position of the more significant axes (runs
    touching across rows are left for the caller to merge)."""
    minor = plan.major[::-1]
    k = 0
    while k < len(minor) and len(e.pos[minor[k]]) == plan.shape[minor[k]]:
        k += 1
    if k == len(minor):
        return np.array([[0, plan.section_size]], dtype=np.int64)
    ax = minor[k]
    p = np.asarray(e.pos[ax], dtype=np.int64)
    cut = np.flatnonzero(np.diff(p) != 1)
    first = p[np.concatenate(([0], cut + 1))]
    last = p[np.concatenate((cut, [p.size - 1]))]
    outer = np.zeros(1, dtype=np.int64)
    for ax2 in minor[k + 1:]:
        p2 = np.asarray(e.pos[ax2], dtype=np.int64)
        outer = (p2[:, None] * plan.strides[ax2] + outer).reshape(-1)
    starts = (outer[:, None] + first * plan.strides[ax]).reshape(-1)
    stops = (outer[:, None] + (last + 1) * plan.strides[ax]).reshape(-1)
    return np.stack((starts, stops), axis=1)
