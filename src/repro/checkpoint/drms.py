"""DRMS reconfigurable checkpoint and restart.

Checkpoint (paper Section 5): the selected task writes its data segment
first; then each distributed array is written in sequence through
parallel array-section streaming.  Restart: every task loads the single
saved data segment (restoring replicated variables and execution
context), then each array is streamed in under the distribution
appropriate for the *new* number of tasks — which may differ from the
checkpointing task count.

Each step is an I/O phase, so both operations return the same component
breakdown the paper reports in Table 6 (data-segment time/rate, array
time/rate, fixed restart initialization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.checkpoint.format import (
    array_name,
    distribution_to_spec,
    manifest_name,
    np_dtype_name,
    read_manifest,
    segment_name,
    sha1_hex,
    spec_to_distribution,
    write_manifest,
)
from repro.checkpoint.segment import DataSegment
from repro.checkpoint.validate import verify_stored_sha1
from repro.errors import (
    CheckpointError,
    CheckpointIntegrityError,
    RestartError,
)
from repro.obs import get_tracer
from repro.pfs.phase import IOKind
from repro.pfs.piofs import PIOFS
from repro.streaming.parallel import stream_in_parallel, stream_out_parallel
from repro.streaming.streams import PFSSink, PFSSource

__all__ = [
    "CheckpointBreakdown",
    "RestartBreakdown",
    "RestoredState",
    "drms_checkpoint",
    "drms_restart",
]

_MB = 1e6  # the paper reports decimal MB/s


def _publish_breakdown(op: str, bd: "CheckpointBreakdown") -> None:
    """Feed one operation's component breakdown into the active metrics
    registry under ``<op>.<kind>.*`` (e.g. ``checkpoint.drms.segment.seconds``).
    These are the series :mod:`repro.perfmodel` benchmarks read back."""
    m = get_tracer().metrics
    root = f"{op}.{bd.kind}"
    m.counter(f"{root}.count").inc()
    m.counter(f"{root}.segment.seconds").inc(bd.segment_seconds)
    m.counter(f"{root}.segment.bytes").inc(bd.segment_bytes)
    m.counter(f"{root}.arrays.seconds").inc(bd.arrays_seconds)
    m.counter(f"{root}.arrays.bytes").inc(bd.arrays_bytes)
    other = getattr(bd, "other_seconds", None)
    if other is not None:
        m.counter(f"{root}.other.seconds").inc(other)
    m.counter(f"{root}.total.seconds").inc(bd.total_seconds)
    m.counter(f"{root}.total.bytes").inc(bd.total_bytes)


@dataclass
class CheckpointBreakdown:
    """Component timing/size of one checkpoint (Table 6, 'Checkpoint')."""

    kind: str
    prefix: str
    ntasks: int
    segment_seconds: float = 0.0
    segment_bytes: int = 0
    arrays_seconds: float = 0.0
    arrays_bytes: int = 0
    per_array: List[Tuple[str, float, int]] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.segment_seconds + self.arrays_seconds

    @property
    def total_bytes(self) -> int:
        return self.segment_bytes + self.arrays_bytes

    @property
    def rate_mbps(self) -> float:
        return self.total_bytes / _MB / self.total_seconds if self.total_seconds else 0.0

    @property
    def segment_rate_mbps(self) -> float:
        return (
            self.segment_bytes / _MB / self.segment_seconds
            if self.segment_seconds
            else 0.0
        )

    @property
    def arrays_rate_mbps(self) -> float:
        return (
            self.arrays_bytes / _MB / self.arrays_seconds if self.arrays_seconds else 0.0
        )


@dataclass
class RestartBreakdown(CheckpointBreakdown):
    """Restart adds the fixed initialization (text-segment load) the
    paper shows as the 'other' band of Figure 7."""

    other_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.segment_seconds + self.arrays_seconds + self.other_seconds


@dataclass
class RestoredState:
    """Everything a restarted application needs."""

    segment: DataSegment
    arrays: Dict[str, DistributedArray]
    ntasks: int
    checkpoint_ntasks: int
    manifest: Dict

    @property
    def delta(self) -> int:
        """New minus checkpointing task count (the API's ``delta``:
        nonzero means the arrays needed a new distribution)."""
        return self.ntasks - self.checkpoint_ntasks


def drms_checkpoint(
    pfs: PIOFS,
    prefix: str,
    segment: DataSegment,
    arrays: Sequence[DistributedArray],
    order: str = "F",
    io_tasks: Optional[int] = None,
    target_bytes: int = 1 << 20,
    app_name: str = "",
) -> CheckpointBreakdown:
    """Write a reconfigurable checkpoint under ``prefix`` to the PFS.
    The multi-level store (L1 memory replicas drained to the PFS) is
    :class:`~repro.mlck.checkpointer.MultiLevelCheckpointer`."""
    names = {a.name for a in arrays}
    if len(names) != len(arrays):
        raise CheckpointError("distributed array names must be unique")
    ntasks = arrays[0].ntasks if arrays else 1
    for a in arrays:
        if a.ntasks != ntasks:
            raise CheckpointError(
                f"array {a.name!r} has {a.ntasks} tasks; expected {ntasks}"
            )
    bd = CheckpointBreakdown(kind="drms", prefix=prefix, ntasks=ntasks)
    obs = get_tracer()

    with obs.span(
        "checkpoint", kind="drms", prefix=prefix, ntasks=ntasks, app=app_name
    ) as op:
        # Phase 1: the representative task writes its data segment.
        header, pad = segment.serialize()
        seg = segment_name(prefix)
        pfs.create(seg, virtual=False)
        with obs.span("segment_write", file=seg) as sp:
            pfs.begin_phase(IOKind.WRITE_SERIAL)
            pfs.write_at(seg, 0, header, client=0)
            if pad:
                # The bulk segment components are sized payloads (see
                # DataSegment): a sparse span past the exact header.
                pfs.write_at(seg, len(header), None, nbytes=pad, client=0)
            res = pfs.end_phase()
            obs.advance(res.seconds)
            sp.set(nbytes=len(header) + pad, seconds=res.seconds)
        bd.segment_seconds = res.seconds
        bd.segment_bytes = len(header) + pad

        # Phase 2..N+1: each distributed array in sequence, via parstream.
        manifest_arrays = []
        for a in arrays:
            fname = array_name(prefix, a.name)
            sink = PFSSink(pfs, fname, virtual=not a.store_data, create=True)
            with obs.span(f"parstream:{a.name}", file=fname) as sp:
                pfs.begin_phase(IOKind.WRITE_PARALLEL)
                stats = stream_out_parallel(
                    a, sink, P=io_tasks, order=order, target_bytes=target_bytes,
                )
                res = pfs.end_phase()
                obs.advance(res.seconds)
                sp.set(
                    nbytes=stats.bytes_streamed,
                    pieces=stats.pieces,
                    redistribution_bytes=stats.redistribution_bytes,
                    seconds=res.seconds,
                )
            bd.arrays_seconds += res.seconds
            bd.arrays_bytes += stats.bytes_streamed
            bd.per_array.append((a.name, res.seconds, stats.bytes_streamed))
            # Integrity record: SHA-1 over the *intended* canonical stream
            # (the buffer the parstream gathered, not the file content),
            # so a torn or short write is caught at restart.
            sha = stats.stream_sha1
            manifest_arrays.append(
                {
                    "name": a.name,
                    "shape": list(a.shape),
                    "dtype": np_dtype_name(a.dtype),
                    "file": fname,
                    "nbytes": stats.bytes_streamed,
                    "sha1": sha,
                    "virtual": not a.store_data,
                    "distribution": distribution_to_spec(a.distribution),
                }
            )

        write_manifest(
            pfs,
            prefix,
            {
                "kind": "drms",
                "app_name": app_name,
                "ntasks": ntasks,
                "order": order,
                "segment_file": seg,
                "segment_bytes": bd.segment_bytes,
                "segment_sha1": sha1_hex(header),
                "segment_sha1_bytes": len(header),
                "arrays": manifest_arrays,
            },
        )
        op.set(nbytes=bd.total_bytes, seconds=bd.total_seconds)
    _publish_breakdown("checkpoint", bd)
    return bd


def drms_restart(
    pfs: PIOFS,
    prefix: str,
    ntasks: int,
    order: Optional[str] = None,
    io_tasks: Optional[int] = None,
    target_bytes: int = 1 << 20,
    distribution_overrides: Optional[Dict[str, object]] = None,
    verify: bool = True,
) -> Tuple[RestoredState, RestartBreakdown]:
    """Restore a DRMS checkpoint onto ``ntasks`` tasks (any count >= 1).

    ``distribution_overrides`` maps array names to explicit
    :class:`~repro.arrays.distributions.Distribution` objects, for
    callers that specify their own post-reconfiguration distributions
    (the Fig. 1 ``drms_adjust``/``drms_distribute`` path); everything
    else is auto-adjusted from the stored spec.

    With ``verify`` (the default) the manifest's SHA-1 checksums are
    checked — the segment header after its read phase, each stored
    array file before it is streamed in — raising
    :class:`~repro.errors.CheckpointIntegrityError` on any mismatch or
    size disagreement, *before* corrupt data reaches the application.
    Verification reads are untimed (they model a background scrub, not
    the restart's I/O phases).
    """
    manifest = read_manifest(pfs, prefix)
    if manifest.get("kind") != "drms":
        raise RestartError(
            f"checkpoint {prefix!r} is kind {manifest.get('kind')!r}; "
            "a reconfigured restart needs a DRMS checkpoint"
        )
    if ntasks < 1:
        raise RestartError(f"cannot restart on {ntasks} tasks")
    order = order or manifest.get("order", "F")
    bd = RestartBreakdown(kind="drms", prefix=prefix, ntasks=ntasks)
    bd.other_seconds = pfs.params.restart_init_s
    obs = get_tracer()

    with obs.span(
        "restart",
        kind="drms",
        prefix=prefix,
        ntasks=ntasks,
        checkpoint_ntasks=manifest["ntasks"],
    ) as op:
        # Fixed initialization (text-segment load) happens before any
        # checkpoint I/O; its simulated cost is a machine parameter.
        with obs.span("restart_init") as sp:
            obs.advance(bd.other_seconds)
            sp.set(seconds=bd.other_seconds)

        # Phase 1: every task reads the single saved data segment.
        seg = manifest["segment_file"]
        seg_size = pfs.file_size(seg)
        with obs.span("segment_read", file=seg) as sp:
            pfs.begin_phase(IOKind.READ_SHARED)
            head = pfs.read_at(
                seg, 0, min(seg_size, DataSegment.header_prefix_bytes()), client=0
            )
            if seg_size > len(head):
                pfs.read_virtual(seg, len(head), seg_size - len(head), client=0)
            for t in range(1, ntasks):
                pfs.read_virtual(seg, 0, seg_size, client=t)
            res = pfs.end_phase()
            obs.advance(res.seconds)
            sp.set(nbytes=seg_size * ntasks, seconds=res.seconds)
        if verify:
            with obs.span("validate:segment", file=seg):
                verify_stored_sha1(
                    pfs,
                    seg,
                    manifest.get("segment_sha1"),
                    manifest.get("segment_sha1_bytes"),
                    head=head,
                )
        segment = DataSegment.deserialize(head)
        bd.segment_seconds = res.seconds
        bd.segment_bytes = seg_size * ntasks  # every task reads the file

        # Phase 2..N+1: arrays under the (possibly adjusted) distributions.
        arrays: Dict[str, DistributedArray] = {}
        overrides = distribution_overrides or {}
        for spec in manifest["arrays"]:
            name = spec["name"]
            dist = overrides.get(name) or spec_to_distribution(
                spec["distribution"], ntasks=ntasks
            )
            if dist.ntasks != ntasks:
                raise RestartError(
                    f"override distribution for {name!r} targets {dist.ntasks} "
                    f"tasks; restart uses {ntasks}"
                )
            arr = DistributedArray(
                name,
                spec["shape"],
                np.dtype(spec["dtype"]),
                dist,
                store_data=not spec["virtual"],
            )
            if verify and not spec["virtual"]:
                with obs.span(f"validate:{name}", file=spec["file"]):
                    expected = spec.get("nbytes")
                    if (
                        expected is not None
                        and pfs.file_size(spec["file"]) != expected
                    ):
                        raise CheckpointIntegrityError(
                            f"array file {spec['file']!r} is "
                            f"{pfs.file_size(spec['file'])} bytes; manifest "
                            f"records {expected} (torn or short write)"
                        )
                    verify_stored_sha1(pfs, spec["file"], spec.get("sha1"), expected)
            source = PFSSource(pfs, spec["file"])
            with obs.span(f"parstream:{name}", file=spec["file"]) as sp:
                pfs.begin_phase(IOKind.READ_PARALLEL)
                stats = stream_in_parallel(
                    arr, source, P=io_tasks, order=order, target_bytes=target_bytes,
                )
                res = pfs.end_phase()
                obs.advance(res.seconds)
                sp.set(
                    nbytes=stats.bytes_streamed,
                    pieces=stats.pieces,
                    redistribution_bytes=stats.redistribution_bytes,
                    seconds=res.seconds,
                )
            bd.arrays_seconds += res.seconds
            bd.arrays_bytes += stats.bytes_streamed
            bd.per_array.append((name, res.seconds, stats.bytes_streamed))
            arrays[name] = arr
        op.set(nbytes=bd.total_bytes, seconds=bd.total_seconds)

    _publish_breakdown("restart", bd)
    state = RestoredState(
        segment=segment,
        arrays=arrays,
        ntasks=ntasks,
        checkpoint_ntasks=manifest["ntasks"],
        manifest=manifest,
    )
    return state, bd
