"""The DRMS array assignment operation ``B <- A``.

Given two distributed arrays with the same shape but (possibly)
different distributions, the assignment sets every element of ``B`` to
the corresponding element of ``A`` (paper Section 3.1).  If an element
of ``B`` is present in several tasks (one assigned + several mapped
copies), *all* copies are updated consistently.  Values always come from
the *assigned* owner in ``A`` (assigned sections are disjoint, so owners
are unique); elements undefined in ``A`` stay untouched in ``B``.

Array assignment is the single primitive behind data redistribution,
shadow (halo) refresh, computational steering, inter-application
communication, and checkpoint streaming's canonical redistribution.

The *schedule* is the set of point-to-point transfers
``(src_task, dst_task, section)`` with
``section = a_src(i) * m_dst(j)``; its byte volume feeds the simulated
communication cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import Distribution
from repro.arrays.slices import Slice
from repro.errors import ArrayError

__all__ = [
    "Transfer",
    "build_schedule",
    "transfer_schedule",
    "apply_schedule",
    "array_assign",
    "schedule_bytes",
]


@dataclass(frozen=True)
class Transfer:
    """One point-to-point piece of an array assignment."""

    src_task: int
    dst_task: int
    section: Slice

    def nbytes(self, itemsize: int) -> int:
        return self.section.size * itemsize

    @property
    def is_local(self) -> bool:
        """True when source and destination are the same task (memcpy,
        no wire traffic)."""
        return self.src_task == self.dst_task


def build_schedule(src: Distribution, dst: Distribution) -> List[Transfer]:
    """All non-empty transfers for an assignment from ``src`` to ``dst``.

    For every destination task ``j`` and source task ``i`` the moved
    section is ``assigned_src(i) * mapped_dst(j)``: owners send, every
    mapped copy receives, so overlapping mapped sections end up
    consistent by construction.
    """
    if src.shape != dst.shape:
        raise ArrayError(
            f"assignment shape mismatch: src {src.shape} vs dst {dst.shape}"
        )
    out: List[Transfer] = []
    for j in range(dst.ntasks):
        m = dst.mapped(j)
        if m.is_empty:
            continue
        for i in src.owner_tasks(m):
            sec = src.assigned(i).intersect(m)
            if not sec.is_empty:
                out.append(Transfer(i, j, sec))
    return out


#: canonical name for the schedule of an assignment ``dst <- src``; the
#: verified property (tests/verify) is that for every destination task
#: the scheduled sections exactly partition its assigned section
transfer_schedule = build_schedule


def schedule_bytes(schedule: List[Transfer], itemsize: int, remote_only: bool = False) -> int:
    """Total bytes moved by a schedule (optionally wire traffic only)."""
    return sum(
        tr.nbytes(itemsize)
        for tr in schedule
        if not (remote_only and tr.is_local)
    )


def apply_schedule(
    dst: DistributedArray, src: DistributedArray, schedule: List[Transfer]
) -> None:
    """Execute a prebuilt schedule, moving real data between locals.

    Each section is copied straight from the source task's local into
    the destination task's local; for regular sections both sides are
    basic-slice views, so no temporary is made."""
    for tr in schedule:
        dst.local(tr.dst_task)[dst._section_index(tr.dst_task, tr.section)] = (
            src.local(tr.src_task)[src._section_index(tr.src_task, tr.section)]
        )


def array_assign(
    dst: DistributedArray,
    src: DistributedArray,
    schedule: Optional[List[Transfer]] = None,
) -> List[Transfer]:
    """``dst <- src`` across distributions; returns the schedule used so
    callers can account for communication volume."""
    if dst.shape != src.shape:
        raise ArrayError(
            f"assignment shape mismatch: src {src.shape} vs dst {dst.shape}"
        )
    if dst.dtype != src.dtype:
        raise ArrayError(
            f"assignment dtype mismatch: src {src.dtype} vs dst {dst.dtype}"
        )
    if schedule is None:
        # memoized by structural distribution fingerprints — repeated
        # assignments between the same geometries (shadow refresh,
        # periodic checkpoints) replan only once.  Local import: the
        # cache layer sits above this pure layer.
        from repro.plancache.plans import transfer_schedule as cached_schedule

        schedule = cached_schedule(src.distribution, dst.distribution)
    if dst.store_data and src.store_data:
        apply_schedule(dst, src, schedule)
    return schedule
