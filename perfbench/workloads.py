"""The benchmark's workloads and the closed-loop job runner.

One *job* is a whole failure scenario on a fresh ``DRMSCluster``: an NPB
proxy starts on 8 tasks with real data, checkpoints on a fixed cadence,
loses one node one iteration after a checkpoint, recovers, and runs to
its last iteration with every L1->PFS drain flushed.  The seed picks
only which of the job's nodes fails; the failure iteration is fixed, so
the lost work is the same for every seed.

End-to-end timings are read by :class:`Hooks`, a handful of wall-clock
wrappers around the calls the end-to-end metrics are defined on
(``AppRuntime.engine_checkpoint``, ``NPBProxy.step``, the JSA recovery
entry points and the ``run_spmd`` the restarted tasks enter).  They are
installed in untraced and traced runs alike and cost a few clock reads
per checkpoint, step and recovery.

Every job's final state is checked: the main field's bytes must match
the digest of an uninterrupted run (the proxy kernels are
distribution-independent, so recovery reproduces it exactly), the
recovery must take the expected path, and the simulated clocks must
repeat exactly between jobs of the same workload and seed.

Run ``python3 perfbench/run.py --freeze`` to recompute the frozen
digests in ``digests.json`` from uninterrupted runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.drms.app as app_mod
from repro.apps import make_proxy
from repro.apps.base import NPBProxy
from repro.drms.app import AppRuntime
from repro.infra import DRMSCluster, FailurePlan
from repro.infra.jsa import JobSchedulerAnalyzer
from repro.plancache.cache import PlanCache, set_plan_cache
from repro.runtime.machine import Machine, MachineParams

from patching import Patches

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_FILE = os.path.join(HERE, "digests.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see ``WORKLOADS`` for why each exists)."""

    name: str
    why: str
    app: str
    tier: str
    num_nodes: int
    niter: int
    checkpoint_every: int
    #: the node dies when the tasks reach this iteration: always one
    #: iteration after a checkpoint, so one iteration of work is lost
    fail_iteration: int
    #: "shrink": whole-pool restart (``run_with_recovery``);
    #: "localized": ``run_with_localized_recovery`` on the same count
    recovery: str
    #: task count of the restarted run (None: all survivors)
    restart_ntasks: Optional[int]
    #: ``RestartBreakdown.kind`` the recovery must report
    restart_kind: str
    ntasks: int = 8

    def checkpoint_iterations(self) -> List[int]:
        """Iterations whose SOP writes a checkpoint (fixed cadence)."""
        return list(range(1, self.niter + 1, self.checkpoint_every))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bt_pfs_shrink",
            why=(
                "BT class A (84 MB) checkpoints to the PFS and restarts 8->5 "
                "tasks: checkpoint and restart are half the job, so streaming, "
                "plan cache, hashing and the PFS store dominate; mlck idle"
            ),
            app="bt",
            tier="pfs",
            num_nodes=8,
            niter=8,
            checkpoint_every=2,
            fail_iteration=4,
            recovery="shrink",
            restart_ntasks=5,
            restart_kind="drms",
        ),
        Workload(
            name="bt_mlck_shrink",
            why=(
                "the same BT state through memory+pfs: L1 capture, background "
                "drain and L1 restore onto the 7 survivors; a change that "
                "helps one tier and hurts the other shows against bt_pfs_shrink"
            ),
            app="bt",
            tier="memory+pfs",
            num_nodes=8,
            niter=8,
            checkpoint_every=2,
            fail_iteration=4,
            recovery="shrink",
            restart_ntasks=None,
            restart_kind="mlck-l1",
        ),
        Workload(
            name="lu_mlck_localized",
            why=(
                "LU class A (34 MB, pencils) with rare checkpoints and a spare "
                "node: kernel, views and shadow exchange dominate; the only "
                "workload on mlck.localized and a 2-D decomposition"
            ),
            app="lu",
            tier="memory+pfs",
            num_nodes=10,
            niter=24,
            checkpoint_every=10,
            fail_iteration=12,
            recovery="localized",
            restart_ntasks=None,
            restart_kind="mlck-l1-localized",
        ),
    )
}


def failed_node_for(wl: Workload, seed: int) -> int:
    """The node the seed kills: one of the job's pool nodes (the
    resource coordinator forms the first pool from nodes 0..ntasks-1)."""
    return random.Random(seed).randrange(wl.ntasks)


# -- end-to-end timing hooks ------------------------------------------------


@dataclass
class JobTimeline:
    """Wall-clock samples of one job, filled in by :class:`Hooks`."""

    #: (runtime id, iteration, seconds, cold) per engine_checkpoint call
    checkpoints: List[tuple] = field(default_factory=list)
    #: (runtime id, iteration, seconds) per rank-0 NPBProxy.step call
    steps: List[tuple] = field(default_factory=list)
    recover_entry: Optional[float] = None
    recovered_at: Optional[float] = None

    def iteration_samples(self) -> List[float]:
        """Step times of iterations whose SOP took no checkpoint."""
        taken = {(rt, it) for rt, it, _, _ in self.checkpoints}
        return [s for rt, it, s in self.steps if (rt, it) not in taken]

    def checkpoint_samples(self, cold: bool) -> List[float]:
        return [s for _, _, s, c in self.checkpoints if c is cold]

    @property
    def recovery_s(self) -> Optional[float]:
        if self.recover_entry is None or self.recovered_at is None:
            return None
        return self.recovered_at - self.recover_entry


class Hooks:
    """Wall-clock wrappers for the end-to-end metrics.

    ``install()`` patches the class attributes and the ``run_spmd``
    name ``repro.drms.app`` looks up; ``uninstall()`` restores
    them.  ``timeline`` is the job being recorded (None: record
    nothing)."""

    def __init__(self):
        self.timeline: Optional[JobTimeline] = None
        self._patches = Patches()

    def install(self) -> "Hooks":
        hooks = self
        orig_ck = AppRuntime.engine_checkpoint
        orig_step = NPBProxy.step
        orig_run_spmd = app_mod.run_spmd

        def engine_checkpoint(rt, prefix, segment, clock=0.0):
            t0 = time.perf_counter()
            bd = orig_ck(rt, prefix, segment, clock=clock)
            dt = time.perf_counter() - t0
            tl = hooks.timeline
            if tl is not None:
                # the first checkpoint of each start or restart is cold
                cold = all(r != id(rt) for r, *_ in tl.checkpoints)
                it = segment.context.iteration
                tl.checkpoints.append((id(rt), it, dt, cold))
            return bd

        def step(proxy, ctx, views, it):
            if ctx.rank != 0:
                return orig_step(proxy, ctx, views, it)
            t0 = time.perf_counter()
            orig_step(proxy, ctx, views, it)
            dt = time.perf_counter() - t0
            tl = hooks.timeline
            if tl is not None:
                tl.steps.append((id(ctx.runtime), it, dt))

        def run_spmd(*args, **kwargs):
            tl = hooks.timeline
            if (
                tl is not None
                and tl.recover_entry is not None
                and tl.recovered_at is None
            ):
                tl.recovered_at = time.perf_counter()
            return orig_run_spmd(*args, **kwargs)

        def entry(orig):
            def recover(jsa, *args, **kwargs):
                tl = hooks.timeline
                if tl is not None:
                    tl.recover_entry = time.perf_counter()
                return orig(jsa, *args, **kwargs)

            return recover

        self._patches.set(AppRuntime, "engine_checkpoint", engine_checkpoint)
        self._patches.set(NPBProxy, "step", step)
        self._patches.set(app_mod, "run_spmd", run_spmd)
        self._patches.set(
            JobSchedulerAnalyzer, "recover", entry(JobSchedulerAnalyzer.recover)
        )
        self._patches.set(
            JobSchedulerAnalyzer,
            "recover_localized",
            entry(JobSchedulerAnalyzer.recover_localized),
        )
        return self

    def uninstall(self) -> None:
        self._patches.undo()

    def start_job(self) -> JobTimeline:
        self.timeline = JobTimeline()
        return self.timeline

    def end_job(self) -> None:
        self.timeline = None


# -- one job ------------------------------------------------------------------


@dataclass
class JobResult:
    """Outcome of one job: wall timings, simulated clocks, checks."""

    failed_node: int
    job_s: float
    timeline: JobTimeline
    #: simulated (machine-model) clocks, never mixed with wall times
    sim: Dict[str, float]
    digest: Optional[str]
    restart_kind: Optional[str]
    tasks_after: int
    state_bytes: int
    checkpoints_taken: int
    attempted: int
    failed: int
    errors: List[str]
    cpu_s: float


def _drain_failures(app, prefix: str) -> int:
    """Resident L1 generations whose drain to the PFS failed."""
    store = app.l1_store_for(prefix)
    if store is None:
        return 0
    return sum(
        1 for p in store.generations() if store.gen(p).drain_state == "failed"
    )


def main_field_digest(report, proxy) -> str:
    """sha256 of the final main field's bytes in C order."""
    values = report.arrays[proxy.main_field].to_global()
    return hashlib.sha256(values.tobytes()).hexdigest()


class DrainedFailurePlan(FailurePlan):
    """A one-shot plan that lets the last generation's drain finish
    before the node dies, so which tier serves the recovery (and every
    simulated clock) does not depend on host thread scheduling."""

    #: the application whose drains must settle first (None: no wait)
    app = None

    def should_fire(self, iteration: int) -> bool:
        fire = super().should_fire(iteration)
        if fire and self.app is not None:
            self.app.wait_for_drains(timeout=120.0)
        return fire


def build_job(wl: Workload, klass: str = "A", fail: bool = True, seed: int = 0):
    """Construct a fresh cluster, proxy and application for one job;
    returns ``(cluster, proxy, app, failure_plan, failed_node)``."""
    cluster = DRMSCluster(machine=Machine(MachineParams(num_nodes=wl.num_nodes)))
    proxy = make_proxy(wl.app, klass, store_data=True)
    app = cluster.build_app(
        proxy.spmd_main,
        name=f"{proxy.benchmark}.{klass}",
        segment_profile=proxy.segment_profile(),
        store_data=True,
        soq=proxy.soq_spec(),
        tier=wl.tier,
    )
    failed_node = failed_node_for(wl, seed)
    plan = None
    if fail:
        plan = DrainedFailurePlan(iteration=wl.fail_iteration, node_id=failed_node)
        plan.app = app
    return cluster, proxy, app, plan, failed_node


def run_job(
    wl: Workload,
    seed: int,
    hooks: Hooks,
    klass: str = "A",
    expected_digest: Optional[str] = None,
    expected_sim: Optional[Dict[str, float]] = None,
) -> JobResult:
    """Run one failure scenario end to end and check its final state.

    Operations counted: each checkpoint, the recovery and the final
    state check.  ``expected_sim`` (the first job's simulated clocks in
    this run) must be matched exactly."""
    cluster, proxy, app, plan, failed_node = build_job(wl, klass, seed=seed)
    # a fresh plan cache per job, so every job pays its own plan builds
    # as a fresh process would
    set_plan_cache(PlanCache())
    prefix = "ck"
    tl = hooks.start_job()
    errors: List[str] = []
    out = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        common = dict(
            args=(wl.niter, prefix),
            kwargs={"checkpoint_every": wl.checkpoint_every},
            prefix=prefix,
            failure=plan,
        )
        if wl.recovery == "localized":
            out = cluster.run_with_localized_recovery(
                "job", app, wl.ntasks, **common
            )
        else:
            out = cluster.run_with_recovery(
                "job", app, wl.ntasks, restart_ntasks=wl.restart_ntasks, **common
            )
        app.wait_for_drains(timeout=120.0)
    except Exception as exc:  # noqa: BLE001 - a crashed job is a failed op
        traceback.print_exc()
        errors.append(f"job raised {type(exc).__name__}: {exc}")
    job_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    hooks.end_job()

    n_ck = len(tl.checkpoints)
    attempted = n_ck + 2  # checkpoints + recovery + final-state check
    failed = _drain_failures(app, prefix)
    sim: Dict[str, float] = {}
    digest = kind = None
    tasks_after = 0
    if out is None:
        failed += 2
    else:
        report = out.final_report
        bd = report.restart_breakdown
        kind = bd.kind if bd is not None else None
        tasks_after = out.tasks_after
        sim = {
            "sim_elapsed_s": float(report.sim_elapsed),
            "sim_recovery_latency_s": float(out.recovery_latency_s),
        }
        if (
            out.failed_node != failed_node
            or kind != wl.restart_kind
            or tl.recovery_s is None
        ):
            failed += 1
            errors.append(
                f"recovery: failed node {out.failed_node} (expected "
                f"{failed_node}), restart kind {kind!r} (expected "
                f"{wl.restart_kind!r})"
            )
        digest = main_field_digest(report, proxy)
        check_errors = []
        if expected_digest is not None and digest != expected_digest:
            check_errors.append(f"final {proxy.main_field} digest {digest[:12]} "
                                f"!= frozen {expected_digest[:12]}")
        if expected_sim is not None and sim != expected_sim:
            check_errors.append(f"simulated clocks {sim} != first job's {expected_sim}")
        if check_errors:
            failed += 1
            errors.extend(check_errors)
    state_bytes = proxy.array_bytes_total
    return JobResult(
        failed_node=failed_node,
        job_s=job_s,
        timeline=tl,
        sim=sim,
        digest=digest,
        restart_kind=kind,
        tasks_after=tasks_after,
        state_bytes=state_bytes,
        checkpoints_taken=n_ck,
        attempted=attempted,
        failed=failed,
        errors=errors,
        cpu_s=cpu_s,
    )


# -- frozen digests -------------------------------------------------------------


def digest_key(wl: Workload, klass: str) -> str:
    return f"{wl.app}.{klass}.niter{wl.niter}"


def reference_digest(wl: Workload, klass: str = "A") -> str:
    """Digest of the main field after an uninterrupted run of the same
    program on 8 tasks, straight to the PFS."""
    cluster, proxy, app, _, _ = build_job(wl, klass, fail=False)
    app.tier = "pfs"
    out = cluster.run_with_recovery(
        "ref", app, wl.ntasks,
        args=(wl.niter, "ref"),
        kwargs={"checkpoint_every": wl.checkpoint_every},
        prefix="ref",
    )
    return main_field_digest(out.final_report, proxy)


def load_digests() -> Dict[str, str]:
    with open(DIGESTS_FILE) as fh:
        return json.load(fh)


#: classes with frozen digests: the benchmark's and its tests' toy class
FROZEN_CLASSES = ("A", "toy")


def freeze_digests() -> Dict[str, str]:
    """Recompute ``digests.json`` from uninterrupted runs of every
    workload's program in each of ``FROZEN_CLASSES``."""
    digests = {}
    for wl in WORKLOADS.values():
        for klass in FROZEN_CLASSES:
            key = digest_key(wl, klass)
            if key not in digests:
                digests[key] = reference_digest(wl, klass)
    with open(DIGESTS_FILE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return digests
