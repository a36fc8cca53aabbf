"""MultiLevelCheckpointer: the application-facing two-tier façade.

One object owns the whole multi-level pipeline for one application:

* a :class:`~repro.checkpoint.rotation.CheckpointRotation` allocating
  generation prefixes and applying retention on the durable tier;
* an :class:`~repro.mlck.store.L1Store` capturing each generation into
  replicated node memory at memory/switch speed;
* a :class:`~repro.mlck.drain.DrainController` promoting generations
  to the PFS in the background.

``checkpoint()`` returns after the L1 capture — the application's next
SOP proceeds while the drain writes the PFS — and ``restart()`` runs
the tier-aware recovery walk, restoring from surviving memory replicas
when possible and falling back to the newest byte-valid PFS state.
:meth:`MultiLevelCheckpointer.restore` and
:meth:`~MultiLevelCheckpointer.restore_localized` are the one place a
recovery decision becomes an L1 or PFS restore; the application's
restart paths call them too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.arrays.darray import DistributedArray
from repro.checkpoint.drms import (
    CheckpointBreakdown,
    RestartBreakdown,
    RestoredState,
    drms_restart,
)
from repro.checkpoint.recover import Member, RecoveryDecision, validate_member
from repro.checkpoint.rotation import _GEN_RE, CheckpointRotation
from repro.checkpoint.segment import DataSegment
from repro.errors import RestartError
from repro.mlck.drain import DrainController, DrainState
from repro.mlck.recovery import select_tiered_restart_state
from repro.mlck.store import L1Store
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine

__all__ = ["MLCKBreakdown", "MultiLevelCheckpointer"]


@dataclass
class MLCKBreakdown:
    """What one multi-level checkpoint cost the *application*: the L1
    capture only — the drain runs behind its back."""

    prefix: str
    capture: CheckpointBreakdown
    drain_state: str = DrainState.PENDING

    @property
    def blocking_seconds(self) -> float:
        """Simulated seconds the application was stalled."""
        return self.capture.total_seconds


class MultiLevelCheckpointer:
    """Two-tier checkpointing for one application under one base prefix.

    ``drain="async"`` (default) promotes generations on the shared
    drain pool; ``drain="sync"`` drains inline before
    :meth:`checkpoint` returns — deterministic, used by the verify
    oracle and the benchmarks.  ``k`` is the L1 partner-replica count;
    ``keep`` the durable-tier retention budget.
    """

    def __init__(
        self,
        pfs: PIOFS,
        base: str,
        machine: Optional[Machine] = None,
        k: int = 1,
        keep: int = 2,
        order: str = "F",
        target_bytes: int = 1 << 20,
        io_tasks: Optional[int] = None,
        app_name: str = "",
        events=None,
        drain: str = "async",
        evict_after_drain: bool = False,
    ):
        if drain not in ("async", "sync"):
            raise ValueError(f"drain mode must be 'async' or 'sync', not {drain!r}")
        self.pfs = pfs
        self.base = base
        self.machine = machine or pfs.machine
        self.order = order
        self.io_tasks = io_tasks
        self.target_bytes = target_bytes
        self.app_name = app_name
        self.events = events
        self.rotation = CheckpointRotation(pfs, base, keep=keep)
        self.store = L1Store(
            self.machine, k=k, events=events, target_bytes=target_bytes
        )
        self.drainer = DrainController(
            self.store,
            pfs,
            rotation=self.rotation,
            synchronous=(drain == "sync"),
            io_tasks=io_tasks,
            target_bytes=target_bytes,
            evict_after_drain=evict_after_drain,
        )

    # -- prefix allocation ---------------------------------------------------

    def next_prefix(self) -> str:
        """A prefix strictly newer than every generation on *either*
        tier — an L1 generation whose drain has not yet written a single
        PFS byte must still reserve its number."""
        pfs_next = self.rotation.next_prefix()
        newest = int(_GEN_RE.match(pfs_next).group("gen")) - 1
        pat = re.compile(re.escape(self.base) + r"\.(?P<gen>\d{6})$")
        for prefix in self.store.generations():
            m = pat.match(prefix)
            if m:
                newest = max(newest, int(m.group("gen")))
        return f"{self.base}.{newest + 1:06d}"

    # -- checkpoint ----------------------------------------------------------

    def checkpoint(
        self,
        segment: DataSegment,
        arrays: Sequence[DistributedArray],
        nodes: Optional[Sequence[int]] = None,
        clock: float = 0.0,
    ) -> MLCKBreakdown:
        """Capture a new generation into L1 and queue its drain.  The
        returned breakdown charges the application only the capture."""
        prefix = self.next_prefix()
        _, capture_bd = self.store.capture_drms(
            prefix, segment, arrays,
            order=self.order, nodes=nodes,
            app_name=self.app_name, clock=clock,
        )
        self.drainer.schedule(prefix, clock=clock)
        return MLCKBreakdown(
            prefix=prefix,
            capture=capture_bd,
            drain_state=self.store.gen(prefix).drain_state,
        )

    def checkpoint_spmd(
        self,
        ntasks: int,
        segment_bytes: int,
        payloads: Optional[Sequence] = None,
        nodes: Optional[Sequence[int]] = None,
        clock: float = 0.0,
    ) -> MLCKBreakdown:
        """SPMD-kind capture + drain (restart task count must match)."""
        prefix = self.next_prefix()
        _, capture_bd = self.store.capture_spmd(
            prefix, ntasks, segment_bytes,
            payloads=payloads, nodes=nodes,
            app_name=self.app_name, clock=clock,
        )
        self.drainer.schedule(prefix, clock=clock)
        return MLCKBreakdown(
            prefix=prefix,
            capture=capture_bd,
            drain_state=self.store.gen(prefix).drain_state,
        )

    # -- failure handling ----------------------------------------------------

    def on_node_failure(self, node_id: int, clock: float = 0.0) -> int:
        """A node died: drop its (volatile) L1 memory.  Returns the
        number of replica copies lost with it."""
        return self.store.drop_node(node_id, clock=clock)

    # -- restart -------------------------------------------------------------

    def select_restart_state(
        self, clock: float = 0.0, job: Optional[str] = None
    ) -> RecoveryDecision:
        """The tier-aware recovery walk for this application's states."""
        self.store.sync_with_machine(clock=clock)
        return select_tiered_restart_state(
            self.pfs, self.base, self.store,
            events=self.events, clock=clock, job=job,
        )

    def decision_for(self, prefix: str) -> RecoveryDecision:
        """The decision to restore exactly ``prefix``: from this store's
        L1 replicas when they verify, else from the PFS copy (which the
        restore verifies as it reads)."""
        tier = None
        if self.store.has(prefix):
            tier, _, _ = validate_member(
                self.pfs, Member(prefix, ("l1",), self.store)
            )
        return RecoveryDecision(base=self.base, key=prefix, tier=tier or "l2")

    def restore(
        self,
        decision: RecoveryDecision,
        ntasks: int,
        distribution_overrides: Optional[Dict[str, object]] = None,
        verify: bool = True,
    ) -> Tuple[RestoredState, RestartBreakdown]:
        """Turn a recovery decision into a restore onto ``ntasks``
        tasks: from surviving L1 replicas when the decision's tier is
        ``"l1"``, else from the PFS.  L1-served restores still charge
        the fixed restart initialization (program text loads from the
        PFS regardless of which tier serves the checkpoint data)."""
        if decision.tier == "l1":
            return self.store.restore_drms(
                decision.prefix, ntasks,
                order=self.order,
                distribution_overrides=distribution_overrides,
                init_seconds=self.pfs.params.restart_init_s,
            )
        return drms_restart(
            self.pfs, decision.prefix, ntasks,
            order=self.order, io_tasks=self.io_tasks,
            target_bytes=self.target_bytes,
            distribution_overrides=distribution_overrides,
            verify=verify,
        )

    def restore_localized(
        self,
        decision: RecoveryDecision,
        ntasks: int,
        placement: Dict[int, int],
        failed_nodes: Sequence[int],
        replacements: Optional[Dict[int, int]] = None,
        distribution_overrides: Optional[Dict[str, object]] = None,
        clock: float = 0.0,
        verify: bool = True,
    ):
        """Localized restore of a decision: survivor-local cost
        accounting (:func:`~repro.mlck.localized.localized_restore_drms`)
        and re-placement of the dead nodes' replicas outside the
        replacement nodes' failure domains.  An ``"l2"`` decision means
        surviving replicas cannot serve — e.g. a whole-frame loss took
        every copy of some piece — so the survivors' own L1 state of
        that generation is gone too, and recovery degrades to a full,
        correctly-metered PFS read.  Returns ``(state, breakdown,
        scope)``."""
        from repro.mlck.localized import (
            compute_rebuild_scope,
            localized_restore_drms,
            rereplicate_after_failure,
        )
        from repro.obs import get_tracer

        if decision.tier == "l1":
            state, bd, scope = localized_restore_drms(
                self.store, decision.prefix, ntasks,
                placement, failed_nodes,
                replacements=replacements,
                order=self.order,
                distribution_overrides=distribution_overrides,
                init_seconds=self.pfs.params.restart_init_s,
            )
            avoid = sorted(
                {
                    self.machine.domain_of(n)
                    for n in (replacements or {}).values()
                    if 0 <= n < self.machine.num_nodes
                }
            )
            rereplicate_after_failure(
                self.store, failed_nodes, avoid_domains=avoid, clock=clock
            )
            return state, bd, scope
        state, bd = self.restore(
            decision, ntasks,
            distribution_overrides=distribution_overrides, verify=verify,
        )
        scope = compute_rebuild_scope(
            dict(state.manifest, prefix=decision.prefix),
            ntasks, placement, failed_nodes,
            replacements=replacements,
            order=self.order,
            distribution_overrides=distribution_overrides,
        )
        get_tracer().metrics.counter("mlck.localized.pfs_fallbacks").inc()
        return state, bd, scope

    def _select_or_raise(self, clock: float, job: Optional[str]) -> RecoveryDecision:
        decision = self.select_restart_state(clock=clock, job=job)
        if decision.prefix is None:
            raise RestartError(
                f"no checkpoint under {self.base!r} passes validation on "
                "any tier" + decision.rejection_detail()
            )
        return decision

    def restart(
        self,
        ntasks: int,
        distribution_overrides: Optional[Dict[str, object]] = None,
        clock: float = 0.0,
        job: Optional[str] = None,
        verify: bool = True,
    ) -> Tuple[RestoredState, RestartBreakdown, RecoveryDecision]:
        """Restore the newest generation satisfiable from any tier onto
        ``ntasks`` tasks (:meth:`select_restart_state`, then
        :meth:`restore`)."""
        decision = self._select_or_raise(clock, job)
        state, bd = self.restore(
            decision, ntasks,
            distribution_overrides=distribution_overrides, verify=verify,
        )
        return state, bd, decision

    def restart_localized(
        self,
        ntasks: int,
        placement: Dict[int, int],
        failed_nodes: Sequence[int],
        replacements: Optional[Dict[int, int]] = None,
        distribution_overrides: Optional[Dict[str, object]] = None,
        clock: float = 0.0,
        job: Optional[str] = None,
        verify: bool = True,
    ):
        """Localized recovery: :meth:`select_restart_state`, then
        :meth:`restore_localized` of the newest satisfiable generation.
        Returns ``(state, breakdown, decision, scope)``."""
        decision = self._select_or_raise(clock, job)
        state, bd, scope = self.restore_localized(
            decision, ntasks, placement, failed_nodes,
            replacements=replacements,
            distribution_overrides=distribution_overrides,
            clock=clock, verify=verify,
        )
        return state, bd, decision, scope

    # -- drain control -------------------------------------------------------

    def drain_pending(self) -> int:
        return self.drainer.pending

    def wait_for_drains(self, timeout: Optional[float] = None) -> None:
        self.drainer.wait(timeout=timeout)

    def drain_states(self) -> Dict[str, str]:
        """Drain state of every resident L1 generation."""
        return {
            p: self.store.gen(p).drain_state for p in self.store.generations()
        }
