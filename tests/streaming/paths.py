"""Select each parstream path the way production selects it.

:func:`~repro.streaming.parallel.stream_out_parallel` takes its bulk
path on a healthy endpoint and its per-piece loop when the endpoint's
PIOFS has a fault injector armed.  An armed, plan-less
:class:`~repro.pfs.faults.FaultInjector` never fires, so it forces the
per-piece loop without changing a byte.
"""

from repro.obs import Tracer, use_tracer
from repro.pfs.faults import FaultInjector
from repro.pfs.piofs import PIOFS
from repro.streaming.parallel import stream_out_parallel
from repro.streaming.streams import PFSSink, PFSSource

#: the span ``engine`` of the bulk path and of the per-piece loop
ENGINES = ("vectorized", "serial")


def pfs_for(engine: str) -> PIOFS:
    """A PIOFS on which parstream takes ``engine``'s path."""
    pfs = PIOFS()
    if engine == "serial":
        pfs.attach_faults(FaultInjector())
    return pfs


def stream_out_via(engine: str, darray, **kwargs):
    """Stream ``darray`` out on ``engine``'s path; returns the stored
    bytes, the stats and the operation span.  The span must name the
    path taken (an empty section takes the per-piece loop either way)."""
    pfs = pfs_for(engine)
    with use_tracer(Tracer()) as t:
        stats = stream_out_parallel(darray, PFSSink(pfs, "s"), **kwargs)
    (op,) = [s for s in t.spans if s.name == "stream.out.parallel"]
    assert op.attrs["engine"] == (engine if stats.pieces else "serial")
    return pfs.read_at("s", 0, pfs.file_size("s")), stats, op


def source_via(engine: str, data: bytes) -> PFSSource:
    """A source holding ``data`` from which parstream reads on
    ``engine``'s path."""
    pfs = pfs_for(engine)
    pfs.create("s")
    pfs.write_at("s", 0, data)
    return PFSSource(pfs, "s")
