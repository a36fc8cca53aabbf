"""The host-time benchmark wraps program functions by name
(``perfbench/tracer.py``); a rename under ``src/`` must fail here
rather than break ``perfbench/run.py --trace 1``.  Reads only."""

import os
import sys

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def _probes():
    sys.path.insert(0, BENCH_DIR)  # tracer imports its sibling `patching`
    try:
        import tracer
    finally:
        sys.path.remove(BENCH_DIR)
    return tracer.probes()


def test_every_probe_target_exists():
    probes = _probes()
    assert probes
    missing = [
        f"{getattr(p.owner, '__name__', p.owner)}.{p.name}"
        for p in probes
        if p.name not in vars(p.owner)
    ]
    assert not missing, f"perfbench probes name missing attributes: {missing}"
