"""A small generic grid application for examples and tests.

``StencilApp`` is the simplest DRMS-conforming program: one distributed
2D/3D field relaxed by a clamped Jacobi stencil, checkpointing on a
fixed cadence.  It exists so examples and tests can exercise the full
checkpoint / reconfigured-restart / failure-recovery machinery without
dragging in the NPB inventories.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import clamped_jacobi
from repro.arrays.distributions import Block, Distribution
from repro.drms.app import DRMSApplication
from repro.drms.context import CheckpointStatus, DRMSContext
from repro.drms.soq import SOQSpec

__all__ = ["StencilApp"]


class StencilApp:
    """Jacobi relaxation of one block-distributed field."""

    def __init__(
        self,
        shape: Sequence[int] = (24, 24),
        weight: float = 0.4,
        checkpoint_every: int = 5,
        field: str = "grid",
        policy=None,
    ):
        self.shape = tuple(int(s) for s in shape)
        self.weight = float(weight)
        self.checkpoint_every = int(checkpoint_every)
        self.field = field
        #: explicit cadence policy; None derives the Fig. 1 fixed
        #: cadence from ``checkpoint_every``
        self.policy = policy

    def initial(self, shape) -> np.ndarray:
        """Initial condition: a hot corner relaxing into a cold domain."""
        out = np.zeros(shape)
        # a hot spot in the corner relaxing into the domain
        hot = tuple(slice(0, max(1, s // 4)) for s in shape)
        out[hot] = 100.0
        return out

    def main(self, ctx: DRMSContext, niter: int, prefix: str) -> float:
        """The SPMD program: Fig. 1 loop over one distributed field."""
        ctx.initialize()
        dist = ctx.create_distribution(
            self.shape, shadow=(1,) * len(self.shape)
        )
        g = ctx.distribute(
            self.field, dist, dtype=np.float64, init_global=self.initial
        )
        from repro.policy import CheckpointPolicy

        pol = self.policy if self.policy is not None else ctx.policy
        if pol is None:
            pol = CheckpointPolicy.every_iterations(self.checkpoint_every)
        for it in ctx.iterations(1, niter + 1):
            if pol.rules or pol.throttles:
                status, delta = ctx.policy_checkpoint(
                    prefix, policy=pol, final=(it == niter)
                )
                if status is CheckpointStatus.RESTARTED and delta != 0:
                    g = ctx.distribute(self.field, ctx.adjust(self.field))
            ctx.update_shadows(self.field)
            self._relax(ctx, g)
            ctx.barrier()
        return float(g.assigned.sum())

    def _relax(self, ctx: DRMSContext, view) -> None:
        clamped_jacobi(view, self.weight, range(len(self.shape)))

    def build_application(self, machine=None, pfs=None, **options) -> DRMSApplication:
        """A DRMSApplication wrapping this stencil program."""
        return DRMSApplication(
            self.main,
            name="stencil",
            machine=machine,
            pfs=pfs,
            soq=SOQSpec(min_tasks=1, name="stencil"),
            **options,
        )
