"""Vectorized streaming benchmark: scalar baseline vs the parstream paths.

Persists ``BENCH_stream_vec.json``:

* **sweep** — for each piece-size target of the bench_parstream sweep,
  wall-clock of (a) the pre-vectorization scalar serial path (the
  per-piece owner-loop gather reproduced below as the fixed baseline),
  (b) the per-piece round-robin loop (``serial``) and (c) the bulk
  coalesced path (``vectorized``), with byte-identity asserted on
  every cell.  Every cell writes into a fresh PIOFS file; the
  per-piece loop is selected the way production selects it, by an
  armed (plan-less) fault injector on that PIOFS;
* **aggregate** — end-to-end totals over the sweep and the two
  ratios: ``speedup_vs_scalar`` (the bulk path vs the scalar baseline)
  and the gate ``vectorized_vs_serial`` (coalesced bulk writes vs the
  per-piece loop; must exceed 1.0 — the win comes from coalescing m
  per-piece ``write_at`` calls into P bulk ones, not from hardware
  parallelism).

Run standalone with ``--check`` (``make bench-stream``) to regenerate
the artifact and fail on either gate; the pytest path asserts the same
gates.
"""

import json
import sys
import time

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.pfs.faults import FaultInjector
from repro.pfs.piofs import PIOFS
from repro.plancache import PlanCache, use_plan_cache
from repro.streaming.parallel import stream_out_parallel
from repro.streaming.streams import PFSSink

NTASKS = 4
P = 4
SWEEP_TARGETS = (1 << 10, 1 << 13, 1 << 16)
SWEEP_SHAPE = (512, 256)  # 1 MiB of float64
REPEATS = 3
ENGINES = ("serial", "vectorized")


def _array(shape, name="bench"):
    d = block_distribution(shape, NTASKS)
    a = DistributedArray(name, shape, np.float64, d)
    a.set_global(np.arange(float(np.prod(shape))).reshape(shape))
    return a


def _sink(engine=None):
    """A fresh PIOFS file sink; ``engine="serial"`` arms a plan-less
    fault injector, which makes parstream take its per-piece loop."""
    pfs = PIOFS()
    if engine == "serial":
        pfs.attach_faults(FaultInjector())
    return PFSSink(pfs, "bench")


def _stored(sink):
    return sink.pfs.read_at(sink.name, 0, sink.pfs.file_size(sink.name))


def _scalar_stream_out(a, sink, target_bytes, order="F"):
    """The PR-5 serial hot path, reproduced as the fixed baseline: a
    Python loop per piece, a nested owner loop with a mesh-indexed
    block copy per owner.  Kept here (not imported) so the baseline
    stays frozen while the library evolves."""
    from repro.arrays.slices import Slice
    from repro.plancache.plans import streaming_plan
    from repro.streaming.order import stream_order_bytes

    pieces, _ = streaming_plan(
        Slice.full(a.shape), a.itemsize, target_bytes=target_bytes, order=order
    )
    dist = a.distribution
    for piece in pieces:
        if piece.is_empty:
            continue
        buf = np.zeros(piece.shape, dtype=a.dtype)
        for owner in dist.owner_tasks(piece):
            sec = dist.assigned(owner).intersect(piece)
            if sec.is_empty:
                continue
            buf[sec.local_index_within(piece)] = a.section_from_task(
                owner, sec
            ).reshape(sec.shape)
        sink.append(stream_order_bytes(buf, order), client=0)


def _time(fn, repeats=REPEATS):
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return time.perf_counter() - t0


def run_sweep():
    a = _array(SWEEP_SHAPE)
    rows = []
    identical = True
    with use_plan_cache(PlanCache()):
        for target in SWEEP_TARGETS:
            ref = _sink()
            _scalar_stream_out(a, ref, target)  # also warms the plan
            want = _stored(ref)
            row = {
                "target_bytes": target,
                "scalar_seconds": _time(
                    lambda: _scalar_stream_out(a, _sink(), target)
                ),
            }
            for mode in ENGINES:
                sink = _sink(mode)
                st = stream_out_parallel(  # warm this engine's plans
                    a, sink, P=P, target_bytes=target
                )
                identical = identical and _stored(sink) == want
                row[f"{mode}_seconds"] = _time(
                    lambda m=mode: stream_out_parallel(
                        a, _sink(m), P=P, target_bytes=target
                    )
                )
                row["pieces"] = st.pieces
            row["vectorized_vs_serial"] = (
                row["serial_seconds"] / row["vectorized_seconds"]
            )
            row["vectorized_vs_scalar"] = (
                row["scalar_seconds"] / row["vectorized_seconds"]
            )
            rows.append(row)
    totals = {
        k: sum(r[f"{k}_seconds"] for r in rows)
        for k in ("scalar",) + ENGINES
    }
    aggregate = {
        "totals_seconds": totals,
        "speedup_vs_scalar": totals["scalar"] / totals["vectorized"],
        "vectorized_vs_serial": totals["serial"] / totals["vectorized"],
        "byte_identical": identical,
    }
    return {"sweep": rows, "aggregate": aggregate}


def check(payload):
    """The two gates of the ``--check`` mode."""
    agg = payload["aggregate"]
    assert agg["byte_identical"], "engine output diverged from the scalar baseline"
    assert agg["vectorized_vs_serial"] > 1.0, (
        f"coalesced bulk path lost to the per-piece serial loop "
        f"({agg['vectorized_vs_serial']:.3f}x)"
    )


def test_stream_vectorized_baseline(benchmark, report):
    payload = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report("BENCH_stream_vec.json", json.dumps(payload, indent=1))
    check(payload)
    for row in payload["sweep"]:
        assert row["pieces"] >= P


def main(argv):
    payload = run_sweep()
    text = json.dumps(payload, indent=1)
    from conftest import write_artifact  # benchmarks/conftest.py

    write_artifact("BENCH_stream_vec.json", text)
    print(text)
    if "--check" in argv:
        try:
            check(payload)
        except AssertionError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        print("OK: byte-identical; vectorized_vs_serial "
              f"{payload['aggregate']['vectorized_vs_serial']:.2f}x, "
              "vs scalar baseline "
              f"{payload['aggregate']['speedup_vs_scalar']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
