"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions and methods of the
``src/repro`` layers for the duration of one job and records, per
probe group, the number of calls, the *self* CPU time (thread CPU inside
the call minus the CPU of wrapped calls nested in it, on the same
thread), and for named spans the wall time of the outermost call on each
thread.  Probes may also add exact counters (bytes moved, bytes hashed,
L1 replica bytes).  Nothing inside ``src/repro`` is modified: functions
are rebound in every ``repro`` module that imported them, methods are
replaced on their class, and the ``hashlib`` name the checkpoint and
streaming modules look up is swapped for a counting shim.

:func:`layer_metrics` turns one job's record into the named per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.apps.bt import BTProxy
from repro.apps.lu import LUProxy
from repro.arrays.darray import DistributedArray
from repro.checkpoint import format as ck_format
from repro.checkpoint import recover as ck_recover
from repro.checkpoint import validate as ck_validate
from repro.drms.context import DRMSContext
from repro.infra.events import EventLog
from repro.mlck import drain as mlck_drain
from repro.mlck import localized as mlck_localized
from repro.mlck import recovery as mlck_recovery
from repro.mlck.store import L1Store
from repro.obs.flight import FlightRecorder, NullFlightRecorder
from repro.pfs.piofs import PIOFS
from repro.runtime.comm import CommWorld
from repro.streaming import order as st_order
from repro.streaming import parallel as st_parallel
from repro.streaming import vectorized as st_vectorized

from patching import Patches

Observe = Callable[[tuple, dict, Any], Dict[str, float]]


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``owner.name`` (a module function, rebound
    everywhere it was imported, or a method replaced on its class)."""

    owner: Any
    name: str
    #: group whose self CPU and call count this probe feeds
    group: str
    #: span whose outermost-call wall time this probe feeds
    span: Optional[str] = None
    #: exact counters derived from the call's arguments and result
    observe: Optional[Observe] = None
    #: record only calls for which this returns True
    when: Optional[Callable[[tuple, dict], bool]] = None
    #: rebind only the name in ``owner`` (not every importer)
    local: bool = False


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _write_bytes(a, k, r):
    # the byte count the store returns: the same for write_at and append
    return {"pfs.write_bytes": r}


def _gather_bytes(a, k, r):
    return {"streaming.gather_bytes": r.nbytes}


def _scatter_bytes(a, k, r):
    return {"streaming.scatter_bytes": np.asarray(_arg(a, k, 2, "flat")).nbytes}


def _capture_bytes(a, k, r):
    gen, _ = r
    pieces = list(gen.segment_pieces)
    for entry in gen.arrays:
        pieces.extend(entry.pieces)
    return {
        "mlck.capture_bytes": sum(e.nbytes for e in gen.arrays if not e.virtual),
        "mlck.l1_bytes": sum(p.nbytes * len(p.replicas) for p in pieces),
    }


def _lost_fraction(a, k, r):
    return {"mlck.localized_lost_fraction": r[2].lost_fraction}


def _rank0(a, k):
    return a[0].rank == 0


def probes() -> List[Probe]:
    """Every probe, grouped by the layer (``src/repro`` package) it
    times.  ``workflow``, ``verify``, ``perfmodel``, ``policy`` and
    ``infra.fleet`` are out of scope: they are not on the checkpoint
    path this benchmark drives."""
    return [
        # apps: the solver kernels
        Probe(BTProxy, "kernel", "apps.kernel"),
        Probe(LUProxy, "kernel", "apps.kernel"),
        # arrays: per-task views, whole-array copies, halo exchange
        Probe(DistributedArray, "assigned_view", "arrays.view"),
        Probe(DistributedArray, "set_assigned", "arrays.view"),
        Probe(DistributedArray, "to_global", "arrays.global"),
        Probe(DistributedArray, "set_global", "arrays.global"),
        Probe(DistributedArray, "update_shadows", "arrays.shadow"),
        # runtime: time tasks spend blocked in barriers
        Probe(CommWorld, "barrier", "runtime.barrier", span="runtime.barrier"),
        # drms: distribution set-up and adjustment, timed on rank 0
        Probe(DRMSContext, "distribute", "drms.distribute",
              span="drms.distribute", when=_rank0),
        Probe(DRMSContext, "adjust", "drms.distribute",
              span="drms.distribute", when=_rank0),
        # plancache: index-plan builds (hits are read from the cache)
        Probe(st_vectorized, "build_section_index_plan", "plancache.build"),
        # streaming: bulk copies, parallel stream entry points, byte order
        Probe(st_vectorized, "gather_section_flat", "streaming.gather",
              observe=_gather_bytes),
        Probe(st_vectorized, "scatter_section_flat", "streaming.scatter",
              observe=_scatter_bytes),
        Probe(st_parallel, "stream_out_parallel", "streaming.out",
              span="streaming.out"),
        Probe(st_parallel, "stream_in_parallel", "streaming.in",
              span="streaming.in"),
        Probe(st_order, "stream_order_bytes", "streaming.order"),
        Probe(st_order, "bytes_to_section", "streaming.order"),
        # checkpoint: hashing, validation, selection, manifests
        Probe(ck_format, "sha1_hex", "checkpoint.hash"),
        Probe(ck_validate, "verify_stored_sha1", "checkpoint.hash",
              span="checkpoint.validate"),
        Probe(ck_validate, "validate_checkpoint", "checkpoint.validate",
              span="checkpoint.validate"),
        Probe(ck_recover, "select_restart_state", "checkpoint.select",
              span="checkpoint.select"),
        Probe(mlck_recovery, "select_tiered_restart_state",
              "checkpoint.select", span="checkpoint.select"),
        Probe(ck_format, "write_manifest", "checkpoint.manifest",
              span="checkpoint.manifest"),
        Probe(ck_format, "read_manifest", "checkpoint.manifest",
              span="checkpoint.manifest"),
        # pfs: the byte store and its cross-thread phase lock
        Probe(PIOFS, "write_at", "pfs.write", observe=_write_bytes),
        Probe(PIOFS, "append", "pfs.write", observe=_write_bytes),
        Probe(PIOFS, "read_at", "pfs.read"),
        Probe(PIOFS, "begin_phase", "pfs.phase", span="pfs.phase_wait"),
        # mlck: capture, background drain, restore, localized rebuild
        Probe(L1Store, "capture_drms", "mlck.capture", span="mlck.capture",
              observe=_capture_bytes),
        Probe(mlck_drain, "drms_checkpoint", "mlck.drain", span="mlck.drain",
              local=True),
        Probe(L1Store, "restore_drms", "mlck.restore", span="mlck.restore"),
        Probe(L1Store, "validate_generation", "mlck.validate",
              span="mlck.validate"),
        Probe(mlck_localized, "localized_restore_drms", "mlck.localized",
              span="mlck.localized", observe=_lost_fraction),
        Probe(mlck_localized, "rereplicate_after_failure", "mlck.localized",
              span="mlck.localized"),
        # obs: flight-recorder records and event-log emits
        Probe(FlightRecorder, "record", "obs.flight"),
        Probe(NullFlightRecorder, "record", "obs.flight"),
        Probe(EventLog, "emit", "obs.events"),
    ]


@dataclass
class GroupStats:
    calls: int = 0
    cpu_s: float = 0.0


@dataclass
class SpanStats:
    calls: int = 0
    wall_s: float = 0.0
    #: CPU of the calling thread over the same outermost calls
    cpu_s: float = 0.0


@dataclass
class TraceRecord:
    """What one traced job did, per group and span."""

    groups: Dict[str, GroupStats] = field(default_factory=dict)
    spans: Dict[str, SpanStats] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)


class _HashShim:
    """Stands in for the ``hashlib`` module: ``sha1`` objects report
    their hashing CPU and bytes to the tracer; every other name is the
    real module's."""

    def __init__(self, tracer: "LayerTracer"):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(hashlib, name)

    def sha1(self, data=b"", **kwargs):
        h = _TracedHash(self._tracer, hashlib.sha1(**kwargs))
        if memoryview(data).nbytes:
            h.update(data)
        return h


class _TracedHash:
    def __init__(self, tracer: "LayerTracer", h):
        self._tracer = tracer
        self._h = h

    def update(self, data) -> None:
        self._tracer.call(
            "checkpoint.hash", None, self._h.update, (data,), {},
            counters={"checkpoint.hash_bytes": memoryview(data).nbytes},
        )

    def __getattr__(self, name):
        return getattr(self._h, name)


class LayerTracer:
    """Installs the probes for one job; ``record`` holds the result."""

    def __init__(self):
        self.record = TraceRecord()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = Patches()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, group, span, fn, args, kwargs, observe=None, counters=None):
        """Run ``fn(*args, **kwargs)`` as one call of ``group``."""
        stack = self._stack()
        outer = span is not None and all(f[1] != span for f in stack)
        frame = [group, span, 0.0]
        stack.append(frame)
        w0 = time.perf_counter()
        c0 = time.thread_time()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            incl = time.thread_time() - c0
            wall = time.perf_counter() - w0
            stack.pop()
            if stack:
                stack[-1][2] += incl
            extra = dict(counters or {})
            if ok and observe is not None:
                extra.update(observe(args, kwargs, result))
            rec = self.record
            with self._lock:
                g = rec.groups.setdefault(group, GroupStats())
                g.calls += 1
                g.cpu_s += incl - frame[2]
                if outer:
                    s = rec.spans.setdefault(span, SpanStats())
                    s.calls += 1
                    s.wall_s += wall
                    s.cpu_s += incl
                for k, v in extra.items():
                    rec.counters[k] = rec.counters.get(k, 0) + v

    def _wrap(self, probe: Probe, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            if probe.when is not None and not probe.when(args, kwargs):
                return orig(*args, **kwargs)
            return tracer.call(
                probe.group, probe.span, orig, args, kwargs,
                observe=probe.observe,
            )

        functools.update_wrapper(wrapper, orig)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> "LayerTracer":
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))
        ]
        for probe in probes():
            orig = probe.owner.__dict__[probe.name]
            wrapper = self._wrap(probe, orig)
            if isinstance(probe.owner, type) or probe.local:
                self._patches.set(probe.owner, probe.name, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.set(mod, attr, wrapper)
        shim = _HashShim(self)
        for mod in modules:
            if vars(mod).get("hashlib") is hashlib:
                self._patches.set(mod, "hashlib", shim)
        return self

    def uninstall(self) -> None:
        self._patches.undo()


# -- metrics ------------------------------------------------------------------

#: counts that must repeat exactly between two traced jobs of one seed.
#: Barrier and view calls are left out: how far the surviving tasks get
#: before the failed task group is torn down is a thread race.
EXACT_COUNTS = [
    "checkpoint.hash_bytes_per_state_byte",
    "pfs.write_bytes_per_state_byte",
    "mlck.l1_bytes_per_state_byte",
    "plancache.builds",
    "pfs.write_calls",
    "pfs.read_calls",
    "obs.flight_records",
    "obs.event_emits",
]

MB = 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: TraceRecord, state_bytes: float, plan_hits: int, plan_lookups: int
) -> Dict[str, float]:
    """The per-layer metrics of one traced job.  ``state_bytes`` is the
    distributed-array bytes times the checkpoints the job took: the
    denominator of every bytes-per-state-byte figure."""

    def cpu(g):
        return rec.groups.get(g, GroupStats()).cpu_s

    def calls(g):
        return rec.groups.get(g, GroupStats()).calls

    def wall(s):
        return rec.spans.get(s, SpanStats()).wall_s

    def ctr(k):
        return rec.counters.get(k, 0)

    def span_wait(s):
        st = rec.spans.get(s, SpanStats())
        return st.wall_s - st.cpu_s

    return {
        "apps.kernel_cpu_s": cpu("apps.kernel"),
        "apps.kernel_calls": calls("apps.kernel"),
        "arrays.view_cpu_s": cpu("arrays.view"),
        "arrays.view_calls": calls("arrays.view"),
        "arrays.global_cpu_s": cpu("arrays.global"),
        "arrays.shadow_cpu_s": cpu("arrays.shadow"),
        "arrays.shadow_calls": calls("arrays.shadow"),
        "runtime.barrier_wait_s": wall("runtime.barrier"),
        "runtime.barrier_calls": calls("runtime.barrier"),
        "drms.distribute_s": wall("drms.distribute"),
        "plancache.build_cpu_s": cpu("plancache.build"),
        "plancache.builds": calls("plancache.build"),
        "plancache.hit_ratio": _ratio(plan_hits, plan_lookups),
        "streaming.gather_cpu_s": cpu("streaming.gather"),
        "streaming.gather_MBps": _ratio(
            ctr("streaming.gather_bytes") / MB, cpu("streaming.gather")
        ),
        "streaming.scatter_cpu_s": cpu("streaming.scatter"),
        "streaming.scatter_MBps": _ratio(
            ctr("streaming.scatter_bytes") / MB, cpu("streaming.scatter")
        ),
        "streaming.out_s": wall("streaming.out"),
        "streaming.in_s": wall("streaming.in"),
        "streaming.pool_wait_s": span_wait("streaming.out")
        + span_wait("streaming.in"),
        "streaming.order_bytes_cpu_s": cpu("streaming.order"),
        "checkpoint.hash_cpu_s": cpu("checkpoint.hash"),
        "checkpoint.hash_bytes_per_state_byte": _ratio(
            ctr("checkpoint.hash_bytes"), state_bytes
        ),
        "checkpoint.validate_s": wall("checkpoint.validate"),
        "checkpoint.select_s": wall("checkpoint.select"),
        "checkpoint.manifest_s": wall("checkpoint.manifest"),
        "pfs.write_cpu_s": cpu("pfs.write"),
        "pfs.write_calls": calls("pfs.write"),
        "pfs.write_bytes_per_state_byte": _ratio(
            ctr("pfs.write_bytes"), state_bytes
        ),
        "pfs.read_cpu_s": cpu("pfs.read"),
        "pfs.read_calls": calls("pfs.read"),
        "pfs.phase_wait_s": wall("pfs.phase_wait"),
        "mlck.capture_s": wall("mlck.capture"),
        "mlck.capture_MBps": _ratio(
            ctr("mlck.capture_bytes") / MB, wall("mlck.capture")
        ),
        "mlck.l1_bytes_per_state_byte": _ratio(ctr("mlck.l1_bytes"), state_bytes),
        "mlck.drain_s": wall("mlck.drain"),
        "mlck.restore_s": wall("mlck.restore"),
        "mlck.validate_s": wall("mlck.validate"),
        "mlck.localized_restore_s": wall("mlck.localized"),
        "mlck.localized_moved_fraction": ctr("mlck.localized_lost_fraction"),
        "obs.flight_records": calls("obs.flight"),
        "obs.event_emits": calls("obs.events"),
    }


def layer_cpu_total(rec: TraceRecord) -> float:
    """Self CPU summed over every group (the numerator of
    ``trace.cpu_coverage``)."""
    return sum(g.cpu_s for g in rec.groups.values())
