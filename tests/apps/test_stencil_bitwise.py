"""The basic-slice clamped Jacobi stencil (:func:`clamped_jacobi`, behind
``NPBProxy.jacobi_update`` and ``StencilApp._relax``) is bitwise
identical to the element-wise ``np.ix_`` gather it replaces."""

import numpy as np
import pytest

from repro.apps import make_proxy
from repro.apps.base import NPBProxy, clamped_jacobi
from repro.apps.stencil import StencilApp
from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import Block, Distribution
from repro.drms.context import TaskArrayView


def ix_jacobi(view, weight, axes):
    """Reference: gather every neighbour through an ``np.ix_`` mesh of
    clamped global indices."""
    a, m = view.assigned_slice, view.mapped_slice
    if a.is_empty:
        return
    loc = view.local
    base = [a[ax].indices() - m[ax].first for ax in range(a.rank)]
    center = loc[np.ix_(*base)]
    acc = np.zeros_like(center)
    for ax in axes:
        for delta in (-1, 1):
            pos = list(base)
            shifted = np.clip(a[ax].indices() + delta, 0, view.array.shape[ax] - 1)
            pos[ax] = shifted - m[ax].first
            acc += loc[np.ix_(*pos)]
    k = 2 * len(axes)
    view.set_assigned((1.0 - weight) * center + (weight / k) * acc)


def random_array(shape, ntasks, shadow, seed):
    dist = Distribution(shape, [Block()] * len(shape), ntasks, shadow=shadow)
    arr = DistributedArray("f", shape, distribution=dist)
    # wide dynamic range, so a reordered addition would change low bits
    rng = np.random.default_rng(seed)
    arr.set_global(rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape))
    arr.update_shadows()
    return arr


def relaxed(arr, fn, weight, axes):
    """``arr``'s global state after one relaxation by ``fn`` on every task
    (all tasks read the same pre-update shadows)."""
    out = arr.redistributed(arr.distribution)
    for t in range(out.ntasks):
        fn(TaskArrayView(out, t), weight, axes)
    return out.to_global()


# (shape, ntasks, shadow, axes): blocks touching both global boundaries,
# interior blocks, and blocks one element wide on a stencil axis
CASES = [
    ((9, 11), 1, (1, 1), (0, 1)),
    ((9, 11), 4, (1, 1), (0, 1)),
    ((5, 3), 5, (1, 1), (0, 1)),
    ((4, 4), 8, (1, 1), (0, 1)),
    ((1, 7, 5), 3, (0, 1, 1), (1, 2)),
    ((2, 6, 5, 4), 8, (0, 2, 2, 2), (1,)),
    ((2, 6, 5, 4), 8, (0, 2, 2, 2), (3,)),
    ((2, 6, 5, 4), 6, (0, 1, 1, 1), (1, 2, 3)),
    ((3, 8, 8, 8), 7, (0, 1, 1, 1), (1, 2, 3)),
    ((6,), 6, (1,), (0,)),
    ((1, 1), 1, (1, 1), (0, 1)),
]


@pytest.mark.parametrize("shape,ntasks,shadow,axes", CASES)
def test_matches_ix_reference(shape, ntasks, shadow, axes):
    arr = random_array(shape, ntasks, shadow, seed=ntasks)
    want = relaxed(arr, ix_jacobi, 0.37, axes)
    got = relaxed(arr, clamped_jacobi, 0.37, axes)
    assert np.array_equal(got, want)


def test_cases_cover_boundaries_and_one_wide_blocks():
    low = high = one_wide = False
    for shape, ntasks, shadow, axes in CASES:
        dist = random_array(shape, ntasks, shadow, 0).distribution
        for t in range(ntasks):
            a = dist.assigned(t)
            if a.is_empty:
                continue
            for ax in axes:
                low |= a[ax].first == 0 and a[ax].last < shape[ax] - 1
                high |= a[ax].last == shape[ax] - 1 and a[ax].first > 0
                one_wide |= a[ax].size == 1 and 0 < a[ax].first < shape[ax] - 1
    assert low and high and one_wide


@pytest.mark.parametrize("name", ["bt", "lu", "sp"])
@pytest.mark.parametrize("ntasks", range(1, 9))
def test_proxy_runs_bitwise(name, ntasks, monkeypatch):
    proxy = make_proxy(name, "toy")
    got = proxy.build_application().start(ntasks, args=(3, "bw.ck")).arrays
    monkeypatch.setattr(
        NPBProxy,
        "jacobi_update",
        lambda self, ctx, view, weight, axes: ix_jacobi(view, weight, axes),
    )
    want = proxy.build_application().start(ntasks, args=(3, "bw.ck")).arrays
    for f in proxy.fields:
        assert np.array_equal(got[f.name].to_global(), want[f.name].to_global()), f.name


@pytest.mark.parametrize("shape", [(16, 16), (5, 7), (6, 5, 4)])
@pytest.mark.parametrize("ntasks", [1, 3, 8])
def test_stencil_app_bitwise(shape, ntasks, monkeypatch):
    sa = StencilApp(shape=shape, checkpoint_every=0)
    got = sa.build_application().start(ntasks, args=(4, "st")).arrays["grid"]
    monkeypatch.setattr(
        StencilApp,
        "_relax",
        lambda self, ctx, view: ix_jacobi(view, self.weight, range(len(self.shape))),
    )
    want = sa.build_application().start(ntasks, args=(4, "st")).arrays["grid"]
    assert np.array_equal(got.to_global(), want.to_global())
