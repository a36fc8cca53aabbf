"""The manifest checksum is the digest of the stream the parstream
gathered: equal to hashing the canonical stream of ``to_global()``,
on the bulk path and the per-piece loop alike, holes zero-filled, and
``b""`` for an empty array.  The op span's ``content_sha1`` is the
same digest."""

import hashlib

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import Distribution, Indexed, block_distribution
from repro.arrays.ranges import Range
from repro.checkpoint.drms import drms_checkpoint
from repro.checkpoint.format import read_manifest
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from repro.streaming.order import stream_order_bytes
from repro.streaming.parallel import stream_out_parallel
from repro.streaming.streams import PFSSink
from tests.streaming.paths import ENGINES, stream_out_via


def _arrays():
    g = np.arange(7 * 6, dtype=np.float64).reshape(7, 6)
    blk = DistributedArray("blk", (7, 6), np.float64, block_distribution((7, 6), 2))
    blk.set_global(g)
    # elements 3, 4 and 7 are assigned to no task: they stream as zeros
    d = Distribution((8,), [Indexed([Range([0, 1, 2]), Range([5, 6])])], ntasks=2)
    holey = DistributedArray("holey", (8,), np.float64, d)
    holey.set_global(np.arange(1.0, 9.0))
    empty = DistributedArray("empty", (0,), np.float64, block_distribution((0,), 2))
    return [blk, holey, empty]


def _canonical_sha1(arr, order):
    return hashlib.sha1(stream_order_bytes(arr.to_global(), order)).hexdigest()


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("engine", ENGINES)
def test_stream_sha1_is_the_canonical_digest(order, engine):
    for arr in _arrays():
        got, st, op = stream_out_via(
            engine, arr, P=2, order=order, target_bytes=16
        )
        assert got == stream_order_bytes(arr.to_global(), order), arr.name
        assert st.stream_sha1 == _canonical_sha1(arr, order), arr.name
        assert op.attrs["content_sha1"] == st.stream_sha1, arr.name


def test_digest_is_none_for_virtual_arrays():
    virtual = DistributedArray(
        "v", (7, 6), np.float64, block_distribution((7, 6), 2), store_data=False
    )
    sink = PFSSink(PIOFS(), "v", virtual=True)
    st = stream_out_parallel(virtual, sink, P=2)
    assert st.stream_sha1 is None


def test_empty_array_hashes_empty_bytes():
    arr = _arrays()[2]
    for engine in ENGINES:
        got, st, op = stream_out_via(engine, arr, P=2)
        assert got == b""
        assert op.attrs["content_sha1"] == st.stream_sha1
        assert st.stream_sha1 == hashlib.sha1(b"").hexdigest()


@pytest.mark.parametrize("order", ["F", "C"])
def test_manifest_records_the_canonical_digest(order):
    pfs = PIOFS(machine=Machine(MachineParams(num_nodes=8)))
    arrays = _arrays()
    drms_checkpoint(
        pfs, "d", DataSegment(profile=SegmentProfile(100, 0, 0)), arrays,
        order=order,
    )
    manifest = read_manifest(pfs, "d")
    got = {spec["name"]: spec["sha1"] for spec in manifest["arrays"]}
    assert got == {a.name: _canonical_sha1(a, order) for a in arrays}
