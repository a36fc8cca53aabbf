"""Parallel array-section streaming: the ``parstream`` algorithm
(paper Fig. 5b).

The section is partitioned into ``m >= P`` stream-contiguous pieces of
roughly ``target_bytes`` each (1 MB in the paper).  Piece ``j`` belongs
to I/O task ``p = j % P`` (rounds of ``P``): the task receives the piece
through a canonical redistribution (an array assignment onto an
auxiliary distribution that makes the piece wholly local), then writes
it at the piece's stream offset — the sum of the sizes of the earlier
pieces.  The output is byte-identical to serial streaming; only the
access pattern differs, which is why parallel streaming requires a
seekable sink.

Every operation moves the section through one flat buffer with one
bulk vectorized gather (or scatter) over the cached box plans
(:mod:`repro.streaming.vectorized`).  How that buffer reaches the
endpoint is chosen from observable state only:

* **bulk path** (the default) — the nonempty pieces are coalesced into
  at most P stream-contiguous byte runs of near-equal volume, and I/O
  task ``p`` issues **one** ``write_at``/``read_at`` for run ``p``.
  Empty pieces occupy zero bytes, so the nonempty pieces are
  byte-contiguous in stream order and every run is a single interval.
  Writes pass a ``memoryview`` of the gathered buffer: every sink
  copies into its own store anyway.
* **per-piece loop** — one transfer per piece, in plan order, with
  ``j % P`` client attribution.  Taken when the endpoint's PFS has a
  fault injector armed (fault plans address the *nth matching write*,
  which only means something over the per-piece write sequence), for
  virtual (geometry-only) arrays (nothing to gather; the per-piece
  transfer granularity is what the simulated Class-A baselines
  account), and when there are no pieces.

The P I/O tasks are modelled by the ``client`` of each transfer, which
drives the simulated PIOFS phase clock; on the host both paths run
inline on the calling thread.  Because every piece's bytes and offset
are fixed by the plan, both paths write the same bytes at the same
offsets.  The outbound stream is hashed once: ``StreamStats.stream_sha1``
(and the op span's ``content_sha1`` attribute) is the SHA-1 of the
gathered stream — ``b""`` for an empty section, None for virtual
arrays — which is also the manifest checksum of a DRMS checkpoint.

``P`` may be anything from 1 (fully serial) to the number of tasks;
tasks beyond ``P`` still participate in redistribution (their assigned
data must reach the I/O tasks) but perform no I/O.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.slices import Slice
from repro.errors import StreamingError
from repro.obs import get_tracer
from repro.streaming.order import check_order
from repro.streaming.serial import (
    StreamStats,
    _cached_plan,
    _require_full_read,
    _strict_default,
)
from repro.streaming.streams import ByteSink, ByteSource
from repro.streaming.vectorized import (
    _cached_index_plan,
    gather_section_flat,
    range_redistribution_bytes,
    scatter_section_flat,
)

__all__ = ["stream_out_parallel", "stream_in_parallel"]


def _plan(
    darray: DistributedArray,
    section: Optional[Slice],
    P: Optional[int],
    order: str,
    target_bytes: int,
):
    check_order(order)
    section = section or Slice.full(darray.shape)
    ntasks = darray.ntasks
    if P is None:
        P = ntasks
    if not 1 <= P <= ntasks:
        raise StreamingError(
            f"I/O task count P={P} must be within 1..{ntasks} (the task pool)"
        )
    pieces, offsets = _cached_plan(section, darray.itemsize, target_bytes, P, order)
    jobs = [(j, piece) for j, piece in enumerate(pieces) if not piece.is_empty]
    return section, P, pieces, offsets, jobs


def faults_armed(endpoint) -> bool:
    """True when ``endpoint`` (a sink or source) is backed by a PFS
    with a fault injector armed: fault plans address the *nth matching
    write*, so the operation must keep the per-piece write sequence."""
    pfs = getattr(endpoint, "pfs", None)
    return pfs is not None and getattr(pfs, "faults", None) is not None


def _pick_engine(darray, endpoint, jobs) -> str:
    """``"vectorized"`` (the bulk path) unless the endpoint has faults
    armed, the array is virtual, or there is nothing to move — then
    ``"serial"``, the per-piece round-robin loop."""
    if faults_armed(endpoint) or not jobs or not darray.store_data:
        return "serial"
    return "vectorized"


def _coalesced_runs(
    jobs: List[Tuple[int, Slice]], offsets, itemsize: int, P: int
) -> List[Tuple[int, int, int]]:
    """Split the nonempty pieces into at most ``P`` stream-contiguous
    runs of near-equal byte volume — run ``p`` is I/O task ``p``'s
    single bulk transfer, returned as ``(p, offset, nbytes)``."""
    total = sum(piece.size for _, piece in jobs) * itemsize
    target = -(-total // P)  # ceil: every run but the last fills up
    runs: List[Tuple[int, int, int]] = []
    start = end = offsets[jobs[0][0]]
    for j, piece in jobs:
        end = offsets[j] + piece.size * itemsize
        if end - start >= target and len(runs) < P - 1:
            runs.append((len(runs), start, end - start))
            start = end
    if end > start:
        runs.append((len(runs), start, end - start))
    return runs


def _transfers(
    engine: str, jobs, offsets, itemsize: int, P: int
) -> List[Tuple[int, int, int]]:
    """The ``(I/O task, stream offset, nbytes)`` transfers of one
    operation: the coalesced runs on the bulk path, one per piece
    (round-robin rounds of ``P``) on the per-piece loop."""
    if engine == "vectorized":
        return _coalesced_runs(jobs, offsets, itemsize, P)
    return [(j % P, offsets[j], piece.size * itemsize) for j, piece in jobs]


def stream_out_parallel(
    darray: DistributedArray,
    sink: ByteSink,
    section: Optional[Slice] = None,
    P: Optional[int] = None,
    order: str = "F",
    target_bytes: int = 1 << 20,
) -> StreamStats:
    """Stream ``darray[section]`` out with ``P`` parallel I/O tasks; the
    stats carry the SHA-1 of the gathered stream (the intended bytes,
    whatever reaches the sink)."""
    if not getattr(sink, "seekable", True) and (P or darray.ntasks) > 1:
        raise StreamingError(
            "parallel streaming requires a seekable sink; use serial "
            "streaming for sequential channels"
        )
    section, P, pieces, offsets, jobs = _plan(
        darray, section, P, order, target_bytes
    )
    engine = _pick_engine(darray, sink, jobs)
    itemsize = darray.itemsize
    total = 0
    redis = 0
    sha1 = None
    plan_idx = _cached_index_plan(darray.distribution, section, order, "assigned")
    with get_tracer().span(
        "stream.out.parallel",
        array=darray.name,
        io_tasks=P,
        engine=engine,
        plan_pieces=len(pieces),
    ) as op:
        view = None
        if darray.store_data and jobs:
            view = memoryview(
                gather_section_flat(
                    darray, section, order=order,
                    strict=_strict_default(), plan=plan_idx,
                ).view(np.uint8)
            )
        for p, start, nbytes in _transfers(engine, jobs, offsets, itemsize, P):
            redis += range_redistribution_bytes(
                plan_idx, start // itemsize, (start + nbytes) // itemsize,
                p, itemsize,
            )
            if view is None:
                sink.write_at(start, None, nbytes=nbytes, client=p)
            else:
                sink.write_at(start, view[start:start + nbytes], client=p)
            total += nbytes
        if darray.store_data:
            sha1 = hashlib.sha1(b"" if view is None else view).hexdigest()
            op.set(content_sha1=sha1)
        op.set(pieces=len(jobs), nbytes=total, redistribution_bytes=redis)
    return StreamStats(
        pieces=len(jobs),
        bytes_streamed=total,
        redistribution_bytes=redis,
        io_tasks=P,
        stream_sha1=sha1,
    ).publish("out", engine="parstream")


def stream_in_parallel(
    darray: DistributedArray,
    source: ByteSource,
    section: Optional[Slice] = None,
    P: Optional[int] = None,
    order: str = "F",
    target_bytes: int = 1 << 20,
    source_offset: int = 0,
) -> StreamStats:
    """Stream a section into ``darray`` with ``P`` parallel I/O tasks.
    The inverse of :func:`stream_out_parallel`: task ``p`` reads its
    pieces (or its coalesced run) at their stream offsets into disjoint
    intervals of one flat buffer, then one bulk scatter delivers the
    section to every task mapping part of it.  The scatter is applied
    once, after every read returned whole — a short read aborts with
    the target array untouched."""
    section, P, pieces, offsets, jobs = _plan(
        darray, section, P, order, target_bytes
    )
    engine = _pick_engine(darray, source, jobs)
    itemsize = darray.itemsize
    total = 0
    redis = 0
    plan_idx = _cached_index_plan(darray.distribution, section, order, "assigned")
    with get_tracer().span(
        "stream.in.parallel",
        array=darray.name,
        io_tasks=P,
        engine=engine,
        plan_pieces=len(pieces),
    ) as op:
        flat = view = None
        if darray.store_data and jobs:
            flat = np.empty(section.size, dtype=darray.dtype)
            view = memoryview(flat.view(np.uint8))
        for p, start, nbytes in _transfers(engine, jobs, offsets, itemsize, P):
            redis += range_redistribution_bytes(
                plan_idx, start // itemsize, (start + nbytes) // itemsize,
                p, itemsize,
            )
            data = source.read_at(source_offset + start, nbytes, client=p)
            _require_full_read(data, nbytes, source, darray.store_data)
            if view is not None:
                view[start:start + nbytes] = data
            total += nbytes
        if flat is not None:
            scatter_section_flat(darray, section, flat, order=order)
        op.set(pieces=len(jobs), nbytes=total, redistribution_bytes=redis)
    return StreamStats(
        pieces=len(jobs),
        bytes_streamed=total,
        redistribution_bytes=redis,
        io_tasks=P,
    ).publish("in", engine="parstream")
