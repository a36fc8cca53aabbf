"""Parstream benchmark: the per-piece loop vs the cached bulk path.

Persists ``BENCH_parstream.json``:

* **sweep** — for each piece-size target, wall-clock of the per-piece
  round-robin loop vs the bulk coalesced path over the same arrays,
  with byte-identity asserted on every cell (the differential contract
  that makes the comparison meaningful);
* **combined** — the seed baseline (uncached plans + the per-piece
  loop, i.e. the pre-plancache code path) vs the full stack (warm plan
  cache + the bulk path), repeated as a periodic checkpointer would.

Every cell writes into a fresh PIOFS file; the per-piece loop is
selected the way production selects it, by an armed (plan-less) fault
injector on that PIOFS.  The hard assertion is on the combined number:
caching + the bulk path must not lose to the seed path, and the plan
cache must be hitting.
"""

import json
import time

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.pfs.faults import FaultInjector
from repro.pfs.piofs import PIOFS
from repro.plancache import NullPlanCache, PlanCache, use_plan_cache
from repro.streaming.parallel import stream_out_parallel
from repro.streaming.serial import stream_out_serial
from repro.streaming.streams import MemorySink, PFSSink

NTASKS = 4
P = 4
SWEEP_TARGETS = (1 << 10, 1 << 13, 1 << 16)
SWEEP_SHAPE = (512, 256)  # 1 MiB of float64
COMBINED_SHAPES = [(512, 256), (256, 384), (1024, 64)]
COMBINED_TARGET = 1 << 10
REPEATS = 3


def _array(shape, name="bench"):
    d = block_distribution(shape, NTASKS)
    a = DistributedArray(name, shape, np.float64, d)
    a.set_global(np.arange(float(np.prod(shape))).reshape(shape))
    return a


def _sink(engine):
    """A fresh PIOFS file sink; ``engine="serial"`` arms a plan-less
    fault injector, which makes parstream take its per-piece loop."""
    pfs = PIOFS()
    if engine == "serial":
        pfs.attach_faults(FaultInjector())
    return PFSSink(pfs, "bench")


def _sweep():
    a = _array(SWEEP_SHAPE)
    rows = []
    for target in SWEEP_TARGETS:
        ref = MemorySink()
        stream_out_serial(a, ref, target_bytes=target)
        want = ref.getvalue()

        cells = {}
        for mode in ("serial", "vectorized"):
            with use_plan_cache(PlanCache()) as cache:
                stream_out_parallel(  # warm the plan once
                    a, _sink(mode), P=P, target_bytes=target
                )
                sink = None
                t0 = time.perf_counter()
                for _ in range(3):
                    sink = _sink(mode)
                    st = stream_out_parallel(a, sink, P=P, target_bytes=target)
                cells[mode] = time.perf_counter() - t0
                # byte-identical, every mode
                assert sink.pfs.read_at("bench", 0, len(want)) == want
        rows.append(
            {
                "target_bytes": target,
                "pieces": st.pieces,
                "serial_seconds": cells["serial"],
                "vectorized_seconds": cells["vectorized"],
                "vectorized_vs_serial": cells["serial"] / cells["vectorized"],
            }
        )
    return rows


def _combined():
    arrays = [_array(s, name=f"c{i}") for i, s in enumerate(COMBINED_SHAPES)]

    def run(cache, mode):
        with use_plan_cache(cache):
            t0 = time.perf_counter()
            for _ in range(REPEATS):
                for a in arrays:
                    stream_out_parallel(
                        a, _sink(mode), P=P, target_bytes=COMBINED_TARGET,
                    )
            return time.perf_counter() - t0

    seed = run(NullPlanCache(), "serial")  # the pre-plancache code path
    cache = PlanCache()
    run(cache, "vectorized")  # populate
    stacked = run(cache, "vectorized")
    return {
        "seed_serial_seconds": seed,
        "cached_vectorized_seconds": stacked,
        "speedup": seed / stacked,
        "hit_rate": cache.hit_rate,
        "hits": cache.hits,
        "misses": cache.misses,
    }


def test_parstream_concurrency_baseline(benchmark, report):
    sweep, combined = benchmark.pedantic(
        lambda: (_sweep(), _combined()), rounds=1, iterations=1
    )
    payload = {"sweep": sweep, "combined": combined}
    report("BENCH_parstream.json", json.dumps(payload, indent=1))

    assert combined["hit_rate"] > 0.5
    # cached + bulk must beat the seed (uncached, per-piece loop) path
    assert combined["speedup"] > 1.0
    for row in sweep:
        assert row["pieces"] >= P
