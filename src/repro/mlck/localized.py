"""Localized recovery: rebuild only what the dead nodes took with them.

The full-restart protocol (paper Section 4) kills the whole application
and restores every task's state, even though the multi-level store's L1
replicas mean most of that state never left surviving memory.  This
module implements the localized alternative (Fohry-style, cf. ReStore's
in-memory replicas): on a node-failure event the survivors quiesce at
the next synchronization point, the recovery protocol computes the
*rebuild scope* — exactly the stream bytes whose assigned owner rank
was placed on a dead node — rebuilds only those sections from surviving
L1 replicas (zero PFS reads on the happy path), re-places the lost
replicas outside the replacement node's failure domain, and resumes.

Semantics are unchanged: all tasks roll back to the same checkpoint
generation, so the post-recovery state is byte-identical to a full
restart from the same generation (the :mod:`repro.verify` oracle's
``localized`` mode proves this differentially).  What changes is the
*cost model*: survivors reload their own sections from node-local
replica memory at ``mem_copy_mbps``, only the lost ranks' bytes cross
the switch, and no whole-pool TC restart happens — which is why
localized L1 recovery beats the full restart's latency
(``benchmarks/bench_localized_recovery.py``).

When the chosen generation cannot be served from L1 (e.g. every replica
of some piece sat inside one failed frame), the survivors' own copies
of that generation are gone too, so localized recovery degrades to the
newest byte-valid PFS generation — a full read, correctly charged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.slices import Slice
from repro.checkpoint.drms import (
    RestartBreakdown,
    RestoredState,
    _publish_breakdown,
)
from repro.checkpoint.format import (
    segment_name,
    sha1_hex,
    spec_to_distribution,
)
from repro.checkpoint.segment import DataSegment
from repro.errors import MemoryTierError, RestartError
from repro.mlck.placement import _rotate_past
from repro.mlck.store import L1Store, _Accounting
from repro.obs import get_flight, get_tracer
from repro.runtime.machine import Machine
from repro.streaming.order import check_order
from repro.streaming.vectorized import (
    _cached_index_plan,
    entry_stream_intervals,
    scatter_section_flat,
)

__all__ = [
    "ArrayScope",
    "RebuildScope",
    "compute_rebuild_scope",
    "rebuild_lost_sections",
    "localized_restore_drms",
    "rereplicate_after_failure",
]


@dataclass(frozen=True)
class ArrayScope:
    """One array's share of a rebuild scope."""

    name: str
    #: logical stream bytes of the whole array
    nbytes: int
    #: stream bytes whose assigned owner rank was lost
    lost_bytes: int
    #: merged, sorted ``(start, stop)`` byte intervals of the lost
    #: stream positions — the only intervals a localized rebuild moves
    lost_intervals: Tuple[Tuple[int, int], ...]
    #: stream bytes assigned per rank (partial-INDEXED holes excluded)
    rank_bytes: Dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RebuildScope:
    """What a localized recovery must rebuild, and for whom.

    ``lost_ranks`` are the ranks whose placement node died;
    ``replacements`` maps each lost rank to the node taking it over.
    Byte accounting comes from the checkpoint's "assigned" box plans
    (:mod:`repro.streaming.vectorized`), so the scope is
    exact down to partial-INDEXED holes.
    """

    prefix: str
    ntasks: int
    failed_nodes: Tuple[int, ...]
    lost_ranks: Tuple[int, ...]
    survivor_ranks: Tuple[int, ...]
    #: lost rank -> replacement node id
    replacements: Dict[int, int]
    #: surviving rank -> node id (unchanged placement)
    placement: Dict[int, int]
    segment_bytes: int
    arrays: Tuple[ArrayScope, ...]

    @property
    def lost_bytes(self) -> int:
        return sum(a.lost_bytes for a in self.arrays)

    @property
    def total_bytes(self) -> int:
        return sum(a.nbytes for a in self.arrays)

    @property
    def lost_fraction(self) -> float:
        total = self.total_bytes
        return self.lost_bytes / total if total else 0.0

    def describe(self) -> Dict:
        """Event/flight detail payload summarizing the scope."""
        return {
            "prefix": self.prefix,
            "ntasks": self.ntasks,
            "failed_nodes": list(self.failed_nodes),
            "lost_ranks": list(self.lost_ranks),
            "survivor_ranks": list(self.survivor_ranks),
            "replacements": {int(r): int(n) for r, n in self.replacements.items()},
            "lost_bytes": self.lost_bytes,
            "total_bytes": self.total_bytes,
        }


def _merge_intervals(intervals: List[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _array_specs(gen_or_manifest) -> List[Dict]:
    """Uniform array-spec dicts from an L1Generation or a manifest."""
    if isinstance(gen_or_manifest, dict):
        return list(gen_or_manifest.get("arrays", []))
    return [
        {
            "name": e.name,
            "shape": list(e.shape),
            "dtype": e.dtype,
            "nbytes": e.nbytes,
            "distribution": e.distribution,
        }
        for e in gen_or_manifest.arrays
    ]


def _segment_bytes(gen_or_manifest) -> int:
    if isinstance(gen_or_manifest, dict):
        return int(gen_or_manifest.get("segment_bytes", 0))
    return int(gen_or_manifest.segment_bytes)


def compute_rebuild_scope(
    gen_or_manifest,
    ntasks: int,
    placement: Dict[int, int],
    failed_nodes: Sequence[int],
    replacements: Optional[Dict[int, int]] = None,
    order: str = "F",
    distribution_overrides: Optional[Dict[str, object]] = None,
) -> RebuildScope:
    """The rebuild scope of a failure: which ranks died with
    ``failed_nodes`` under ``placement`` (rank -> node), and exactly
    which stream byte intervals of each checkpointed array they owned
    under the restart distributions.

    ``gen_or_manifest`` is an :class:`~repro.mlck.store.L1Generation`
    or a manifest-shaped dict (the PFS-fallback path).  ``replacements``
    maps lost ranks to their replacement nodes; lost ranks without an
    entry fall back to their old (repaired-later) node id, which only
    affects accounting attribution, never bytes.
    """
    check_order(order)
    failed = set(int(n) for n in failed_nodes)
    lost = tuple(sorted(r for r, nd in placement.items() if nd in failed))
    survivors = tuple(sorted(r for r in placement if r not in lost))
    prefix = (
        gen_or_manifest.get("prefix", "")
        if isinstance(gen_or_manifest, dict)
        else gen_or_manifest.prefix
    )
    repl = {int(r): int(n) for r, n in (replacements or {}).items()}
    for r in lost:
        repl.setdefault(r, placement[r])
    overrides = distribution_overrides or {}
    lost_set = set(lost)
    scopes: List[ArrayScope] = []
    for spec in _array_specs(gen_or_manifest):
        dist = overrides.get(spec["name"]) or spec_to_distribution(
            spec["distribution"], ntasks=ntasks
        )
        if dist.ntasks != ntasks:
            raise RestartError(
                f"override distribution for {spec['name']!r} targets "
                f"{dist.ntasks} tasks; localized restart uses {ntasks}"
            )
        itemsize = np.dtype(spec["dtype"]).itemsize
        section = Slice.full(spec["shape"])
        plan = _cached_index_plan(dist, section, order, "assigned")
        rank_bytes = {e.task: e.size * itemsize for e in plan.entries}
        intervals: List[Tuple[int, int]] = []
        lost_bytes = 0
        for e in plan.entries:
            if e.task in lost_set:
                lost_bytes += rank_bytes[e.task]
                runs = entry_stream_intervals(plan, e) * itemsize
                intervals.extend(map(tuple, runs.tolist()))
        scopes.append(
            ArrayScope(
                name=spec["name"],
                nbytes=int(spec["nbytes"]),
                lost_bytes=lost_bytes,
                lost_intervals=_merge_intervals(intervals),
                rank_bytes=rank_bytes,
            )
        )
    return RebuildScope(
        prefix=prefix,
        ntasks=ntasks,
        failed_nodes=tuple(sorted(failed)),
        lost_ranks=lost,
        survivor_ranks=survivors,
        replacements=repl,
        placement={int(r): int(n) for r, n in placement.items()},
        segment_bytes=_segment_bytes(gen_or_manifest),
        arrays=tuple(scopes),
    )


def rebuild_lost_sections(
    darray: DistributedArray,
    flat: np.ndarray,
    lost_ranks: Sequence[int],
    order: str = "F",
) -> int:
    """Scatter only the lost ranks' mapped boxes of a stream-ordered
    value vector into ``darray``, leaving every survivor's local section
    untouched — the section-scoped rebuild primitive: the ordinary box
    scatter over the lost ranks' entries of the "mapped" plan.  Returns
    elements delivered."""
    check_order(order)
    section = Slice.full(darray.shape)
    plan = _cached_index_plan(darray.distribution, section, order, "mapped")
    lost = set(int(r) for r in lost_ranks)
    plan = replace(plan, entries=tuple(e for e in plan.entries if e.task in lost))
    scatter_section_flat(darray, section, flat, order=order, plan=plan)
    return sum(e.size for e in plan.entries)


def localized_restore_drms(
    store: L1Store,
    prefix: str,
    ntasks: int,
    placement: Dict[int, int],
    failed_nodes: Sequence[int],
    replacements: Optional[Dict[int, int]] = None,
    order: Optional[str] = None,
    distribution_overrides: Optional[Dict[str, object]] = None,
    init_seconds: float = 0.0,
) -> Tuple[RestoredState, RestartBreakdown, RebuildScope]:
    """Restore a DRMS generation with localized cost accounting.

    The restored state is byte-identical to
    :meth:`~repro.mlck.store.L1Store.restore_drms` of the same
    generation — everyone rolls back to the checkpoint.  The charging
    differs: each surviving rank reloads its assigned section from its
    own node's replica memory (``mem_copy_mbps`` local copies, zero
    switch traffic), only the lost ranks' sections are served over the
    switch from surviving replicas to their replacement nodes, and
    ``init_seconds`` (program-text load) is charged only when there is
    a replacement task to initialize.  Raises
    :class:`~repro.errors.MemoryTierError` when any piece has lost
    every valid replica — the caller then falls back to the PFS tier.
    """
    gen = store.gen(prefix)
    if gen.kind != "drms":
        raise RestartError(
            f"L1 generation {prefix!r} is kind {gen.kind!r}; "
            "localized restart needs a DRMS checkpoint"
        )
    if ntasks < 1:
        raise RestartError(f"cannot restart on {ntasks} tasks")
    order = order or gen.order
    scope = compute_rebuild_scope(
        gen,
        ntasks,
        placement,
        failed_nodes,
        replacements=replacements,
        order=order,
        distribution_overrides=distribution_overrides,
    )
    bd = RestartBreakdown(
        kind="mlck-l1-localized", prefix=prefix, ntasks=ntasks
    )
    # Survivors never reload program text; only replacement tasks do.
    bd.other_seconds = float(init_seconds) if scope.lost_ranks else 0.0
    obs = get_tracer()
    machine = store.machine
    untimed = _Accounting(machine)
    any_up = (machine.up_nodes() or [0])[0]
    with obs.span(
        "restart", kind="mlck-l1-localized", prefix=prefix, ntasks=ntasks,
        checkpoint_ntasks=gen.ntasks, lost_ranks=list(scope.lost_ranks),
    ) as op:
        with obs.span("restart_init") as sp:
            obs.advance(bd.other_seconds)
            sp.set(seconds=bd.other_seconds)

        # Segment: every rank rolls back to the generation's segment.
        # Survivors copy it from local replica memory; replacements
        # pull it over the switch from the serving nodes.
        acct = _Accounting(machine)
        with obs.span(
            "l1_segment_fetch", file=segment_name(prefix), localized=True
        ) as sp:
            header = store._fetch_pieces(
                gen.segment_pieces, untimed, any_up, count_hits=False
            )
            servers = sorted(
                {store._serving_replica(p) for p in gen.segment_pieces}
                - {None}
            ) or [any_up]
            for r in scope.survivor_ranks:
                acct.copy(scope.placement[r], gen.segment_bytes)
            for i, r in enumerate(scope.lost_ranks):
                acct.send(
                    servers[i % len(servers)],
                    scope.replacements[r],
                    gen.segment_bytes,
                )
            sec = acct.seconds()
            obs.advance(sec)
            sp.set(nbytes=gen.segment_bytes * ntasks, seconds=sec)
        if sha1_hex(header) != gen.segment_sha1:
            raise MemoryTierError(
                f"L1 segment of {prefix!r} failed checksum validation"
            )
        segment = DataSegment.deserialize(header)
        bd.segment_seconds = sec
        bd.segment_bytes = gen.segment_bytes * ntasks

        overrides = distribution_overrides or {}
        scope_by_name = {a.name: a for a in scope.arrays}
        arrays: Dict[str, DistributedArray] = {}
        for e in gen.arrays:
            ascope = scope_by_name[e.name]
            dist = overrides.get(e.name) or spec_to_distribution(
                e.distribution, ntasks=ntasks
            )
            arr = DistributedArray(
                e.name, e.shape, np.dtype(e.dtype), dist,
                store_data=not e.virtual,
            )
            acct = _Accounting(machine)
            with obs.span(
                f"l1_localized_fetch:{e.name}", file=e.file
            ) as sp:
                if not e.virtual:
                    store._fetch_array(
                        e, arr, untimed, any_up, order, count_hits=False
                    )
                    servers = sorted(
                        {store._serving_replica(p) for p in e.pieces}
                        - {None}
                    ) or [any_up]
                else:
                    servers = [
                        scope.placement[r] for r in scope.survivor_ranks
                    ] or [any_up]
                for r in scope.survivor_ranks:
                    acct.copy(
                        scope.placement[r], ascope.rank_bytes.get(r, 0)
                    )
                for i, r in enumerate(scope.lost_ranks):
                    nb = ascope.rank_bytes.get(r, 0)
                    if nb:
                        acct.send(
                            servers[i % len(servers)],
                            scope.replacements[r],
                            nb,
                        )
                sec = acct.seconds()
                obs.advance(sec)
                sp.set(
                    nbytes=e.nbytes, lost_bytes=ascope.lost_bytes,
                    seconds=sec,
                )
            bd.arrays_seconds += sec
            bd.arrays_bytes += e.nbytes
            bd.per_array.append((e.name, sec, e.nbytes))
            arrays[e.name] = arr
        op.set(nbytes=bd.total_bytes, seconds=bd.total_seconds)
    _publish_breakdown("restart", bd)
    m = obs.metrics
    m.counter("mlck.localized.restores").inc()
    m.counter("mlck.localized.lost.bytes").inc(scope.lost_bytes)
    m.counter("mlck.localized.survivor.bytes").inc(
        max(0, scope.total_bytes - scope.lost_bytes)
    )
    m.counter("mlck.restore.localized.seconds").inc(bd.total_seconds)
    fr = get_flight()
    if fr.enabled:
        fr.record(
            "localized_rebuilt", time=0.0, prefix=prefix,
            lost_ranks=list(scope.lost_ranks),
            lost_bytes=scope.lost_bytes, seconds=bd.total_seconds,
        )
    state = RestoredState(
        segment=segment,
        arrays=arrays,
        ntasks=ntasks,
        checkpoint_ntasks=gen.ntasks,
        manifest=store._drms_manifest_like(gen),
    )
    return state, bd, scope


@dataclass
class ReplicationRepair:
    """What re-replication after a failure copied where."""

    copies: int = 0
    nbytes: int = 0
    seconds: float = 0.0
    #: piece keys that could not reach full replication (no candidate)
    short: List[str] = field(default_factory=list)


def _repair_candidates(
    machine: Machine,
    source: int,
    exclude: Sequence[int],
    avoid_domains: Sequence[int],
) -> List[int]:
    """New-replica candidates: up nodes, not already replicas, outside
    the avoided domains (the replacement node's frame), preferring
    nodes outside the source's own domain; same-domain nodes fill in
    last so a degenerate cluster still re-replicates."""
    excluded = set(exclude)
    avoid = set(avoid_domains)
    src_domain = machine.domain_of(source)
    outside = [
        n
        for n in machine.up_nodes()
        if n not in excluded
        and machine.domain_of(n) not in avoid
        and machine.domain_of(n) != src_domain
    ]
    inside = [
        n
        for n in machine.up_nodes()
        if n not in excluded
        and machine.domain_of(n) not in avoid
        and machine.domain_of(n) == src_domain
    ]
    return _rotate_past(outside, source) + _rotate_past(inside, source)


def rereplicate_after_failure(
    store: L1Store,
    failed_nodes: Sequence[int],
    avoid_domains: Sequence[int] = (),
    clock: float = 0.0,
) -> ReplicationRepair:
    """Restore the replication factor of every resident generation
    after ``failed_nodes`` died: dead nodes are scrubbed from each
    piece's replica list and fresh copies are placed on up nodes
    outside ``avoid_domains`` (the replacement node's failure domain,
    so a repeat of the same correlated failure cannot take both the
    replacement task and its recovery data).  Byte copies are charged
    as switch transfers; returns the repair accounting."""
    failed = set(int(n) for n in failed_nodes)
    machine = store.machine
    acct = _Accounting(machine)
    repair = ReplicationRepair()
    fr = get_flight()
    with store._lock:
        for prefix in store.generations():
            gen = store._gens.get(prefix)
            if gen is None:
                continue
            all_pieces = (
                [gen.segment_pieces]
                + [e.pieces for e in gen.arrays]
                + gen.task_pieces
            )
            for pieces in all_pieces:
                for piece in pieces:
                    # Scrub every unservable entry, not just this
                    # incident's victims: nodes that died in earlier
                    # incidents (or were repaired empty) still linger
                    # in replica lists until a repair pass cleans them.
                    piece.replicas[:] = [
                        n
                        for n in piece.replicas
                        if n not in failed and store._replica_valid(piece, n)
                    ]
                    source = store._serving_replica(piece)
                    if source is None:
                        # Every copy is gone: validation will reject
                        # this generation; nothing to re-replicate.
                        continue
                    need = (store.k + 1) - len(piece.replicas)
                    if need <= 0:
                        continue
                    candidates = _repair_candidates(
                        machine, source, piece.replicas, avoid_domains
                    )
                    if len(candidates) < need:
                        repair.short.append(piece.key)
                    data = store._mem[source][piece.key]
                    for new in candidates[:need]:
                        store._node_mem(new)[piece.key] = data
                        piece.replicas.append(new)
                        acct.send(source, new, piece.nbytes)
                        repair.copies += 1
                        repair.nbytes += piece.nbytes
                        if fr.enabled:
                            fr.record(
                                "replica_replaced", node=new, time=clock,
                                key=piece.key, source=source,
                                nbytes=piece.nbytes,
                            )
    repair.seconds = acct.seconds()
    m = get_tracer().metrics
    m.counter("mlck.localized.rereplicate.copies").inc(repair.copies)
    m.counter("mlck.localized.rereplicate.bytes").inc(repair.nbytes)
    store._update_resident_gauge()
    return repair
