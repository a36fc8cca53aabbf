"""Characterisation of the five recovery-selection entry points.

Each scenario holds a corrupt newer candidate and a good older one, and
pins what the walk decides and what it publishes: the chosen key, the
rejected keys, the walk counter deltas, the EventLog kinds with their
detail keys, and the flight-record kinds."""

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.checkpoint.drms import drms_checkpoint
from repro.checkpoint.format import array_name
from repro.checkpoint.recover import select_restart_state
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.infra.events import EventLog
from repro.mlck.drain import DrainController
from repro.mlck.recovery import select_tiered_restart_state
from repro.mlck.store import L1Store
from repro.obs import FlightRecorder, Tracer, use_flight, use_tracer
from repro.pfs.faults import flip_stored_bit
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from repro.workflow import WorkflowCoordinator
from repro.workflow.manifest import (
    newest_consistent_generations,
    select_workflow_restart_state,
    write_workflow_manifest,
)

N = 6
WALK_COUNTERS = ("recover.", "mlck.recover.", "mlck.l2.", "workflow.lines.")


def take(pfs, prefix, value):
    """One byte-validatable DRMS state at ``prefix``."""
    arr = DistributedArray("u", (N, N), np.float64, block_distribution((N, N), 2))
    arr.set_global(np.full((N, N), float(value)))
    seg = DataSegment(profile=SegmentProfile(1000, 0, 0), replicated={"it": value})
    drms_checkpoint(pfs, prefix, seg, [arr])
    return seg, arr


def commit_line(pfs, gen, members=("a", "b")):
    for m in members:
        take(pfs, f"wf.{m}.{gen:06d}", gen)
    write_workflow_manifest(
        pfs, "wf", gen,
        {"members": {m: {"prefix": f"wf.{m}.{gen:06d}"} for m in members}},
    )


class Observed:
    """Run one walk under a fresh tracer and flight recorder."""

    def __init__(self, fn):
        self.events = EventLog()
        with use_tracer(Tracer()) as tracer, use_flight(FlightRecorder()) as fr:
            self.result = fn(self.events)
            flat = tracer.metrics.flat()
        self.counters = {
            k: v for k, v in flat.items() if k.startswith(WALK_COUNTERS)
        }
        records = [e for node in fr.nodes() for e in fr.ring(node)]
        self.flight = [e.kind for e in sorted(records, key=lambda e: e.seq)]
        self.event_shapes = [(e.kind, sorted(e.detail)) for e in self.events]


def test_pfs_only_walk():
    pfs = PIOFS()
    take(pfs, "ck.000001", 1)
    take(pfs, "ck.000002", 2)
    flip_stored_bit(pfs, array_name("ck.000002", "u"), 40, 1)
    obs = Observed(lambda log: select_restart_state(pfs, "ck", events=log, job="j"))
    d = obs.result
    assert d.prefix == "ck.000001"
    assert d.tier is None
    assert [p for p, _ in d.rejected] == ["ck.000002"]
    assert obs.counters == {
        "recover.fallback": 1.0, "recover.rejected": 1.0, "recover.verified": 1.0,
    }
    assert obs.event_shapes == [
        ("checkpoint_rejected", ["errors", "job", "prefix"]),
        ("checkpoint_verified", ["bytes_hashed", "files", "job", "prefix"]),
        ("restart_fallback", ["job", "prefix", "skipped"]),
    ]
    assert obs.flight == [
        "recovery_walk_started", "checkpoint_rejected", "recovery_walk_done",
    ]


def test_tiered_walk():
    machine = Machine(MachineParams(num_nodes=8))
    pfs = PIOFS(machine=machine)
    store = L1Store(machine, k=1)
    drainer = DrainController(store, pfs, synchronous=True)
    for g in (1, 2):
        prefix = f"ck.{g:06d}"
        seg, arr = take(PIOFS(machine=machine), prefix, g)
        store.capture_drms(prefix, seg, [arr])
        drainer.schedule(prefix)
    # generation 2 leaves memory and its durable copy rots
    store.discard("ck.000002")
    flip_stored_bit(pfs, array_name("ck.000002", "u"), 40, 1)
    obs = Observed(
        lambda log: select_tiered_restart_state(pfs, "ck", store, events=log, job="j")
    )
    d = obs.result
    assert (d.prefix, d.tier) == ("ck.000001", "l1")
    assert [p for p, _ in d.rejected] == ["ck.000002"]
    assert obs.counters == {
        "mlck.recover.l1": 1.0,
        "recover.fallback": 1.0,
        "recover.rejected": 1.0,
        "recover.verified": 1.0,
    }
    assert obs.event_shapes == [
        ("checkpoint_rejected", ["errors", "job", "prefix", "tier"]),
        ("checkpoint_verified", ["bytes_hashed", "files", "job", "prefix", "tier"]),
        ("restart_fallback", ["job", "prefix", "skipped", "tier"]),
    ]
    assert obs.flight == [
        "recovery_walk_started", "checkpoint_rejected", "recovery_walk_done",
    ]


def test_workflow_walk():
    pfs = PIOFS()
    commit_line(pfs, 1)
    commit_line(pfs, 2)
    flip_stored_bit(pfs, array_name("wf.a.000002", "u"), 40, 1)
    obs = Observed(lambda log: select_workflow_restart_state(pfs, "wf", events=log))
    d = obs.result
    assert d.generation == 1
    assert d.member_tiers == {"a": "l2", "b": "l2"}
    assert [g for g, _ in d.rejected] == [2]
    assert obs.counters == {
        "workflow.lines.fallback": 1.0,
        "workflow.lines.rejected": 1.0,
        "workflow.lines.verified": 1.0,
    }
    assert obs.event_shapes == [
        ("workflow_line_rejected", ["base", "errors", "generation"]),
        ("workflow_line_verified", ["base", "generation", "tiers"]),
        ("workflow_restart_fallback", ["base", "generation", "skipped"]),
    ]
    assert obs.flight == ["workflow_line_rejected", "workflow_line_verified"]


def test_mpmd_joint_walk():
    pfs = PIOFS()
    for g in (1, 2):
        take(pfs, f"g.a.{g:06d}", g)
        take(pfs, f"g.b.{g:06d}", g)
    flip_stored_bit(pfs, array_name("g.b.000002", "u"), 40, 1)
    obs = Observed(
        lambda log: newest_consistent_generations(pfs, {"a": "g.a", "b": "g.b"})
    )
    resolved, rejected = obs.result
    assert resolved == {"a": "g.a.000001", "b": "g.b.000001"}
    assert [g for g, _ in rejected] == [2]
    assert obs.counters == {}
    assert obs.event_shapes == []
    assert obs.flight == []


@pytest.mark.parametrize("generation, chosen, rejected", [(2, None, [2]), (1, 1, [])])
def test_explicit_workflow_generation(generation, chosen, rejected):
    pfs = PIOFS()
    commit_line(pfs, 1)
    commit_line(pfs, 2)
    flip_stored_bit(pfs, array_name("wf.b.000002", "u"), 40, 1)

    def select(log):
        coord = WorkflowCoordinator("wf", pfs=pfs, events=log)
        return coord._select(generation)

    obs = Observed(select)
    d = obs.result
    assert d.generation == chosen
    assert [g for g, _ in d.rejected] == rejected
    assert obs.counters == {}
    assert obs.event_shapes == []
    assert obs.flight == []
