"""Host-time benchmark of checkpoint -> node failure -> recovery.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bt_pfs_shrink --seed 1 --seconds 27 --trace 0

Each run is one process.  It measures set-up time in fresh child
processes, then drives the named workload closed-loop — one job at a
time, from a single thread, in this process — for round(seconds / 9)
jobs (at least one).  Every job's final state is checked (see
``workloads.py``).

``--trace 0`` reports the end-to-end metrics from untraced jobs.
``--trace 1`` alternates untraced and traced jobs (at least two of
each) and reports the per-layer metrics of the traced ones
(``tracer.py``), the in-process roofline, the tracing overhead and CPU
coverage, the simulated clocks under ``sim_*`` names, and how many
exact counts differed between traced jobs of the seed.  See
``README.md`` for every metric's definition.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
are a human-readable summary.  ``--freeze`` recomputes the frozen
final-state digests instead.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-up samples per run (fresh interpreter each); setup_s is their median
SETUP_PROBES = 5
#: nominal wall seconds of one class A job on the reference 2-core host:
#: a run of ``--seconds`` S does round(S / NOMINAL_JOB_S) jobs, so both
#: sides of a comparison measure the same work
NOMINAL_JOB_S = 9.0
MB = 1e6
MIB = 1 << 20


def unit_of(name: str) -> str:
    """Unit of a reported metric, from its name."""
    if name.endswith("_MBps"):
        return "MB/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_calls", "builds", "_records", "_emits", "_samples",
                      "_mismatches")):
        return "count"
    return "ratio"


def median(values):
    return statistics.median(values) if values else 0.0


# -- set-up time ---------------------------------------------------------------


def setup_probe(workload: str, klass: str) -> None:
    """Child side: import the program, build one job's objects, print
    the monotonic clock (system-wide on Linux, so the parent can
    subtract its own spawn time)."""
    from workloads import WORKLOADS, build_job

    build_job(WORKLOADS[workload], klass)
    print(repr(time.monotonic()))


def measure_setup(workload: str, klass: str) -> list:
    """Process start -> job objects built, in SETUP_PROBES fresh
    interpreters; the roofline is not part of it."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--klass", klass],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


# -- roofline --------------------------------------------------------------------


def roofline(nbytes: int, reps: int = 7) -> dict:
    """In-process memcpy and sha1 rates over one buffer of ``nbytes``
    (median of ``reps`` passes)."""
    import numpy as np

    src = np.frombuffer(os.urandom(1 << 16), dtype=np.uint8)
    src = np.resize(src, nbytes)
    dst = np.empty_like(src)
    copy, sha = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        copy.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        hashlib.sha1(src).digest()
        sha.append(time.perf_counter() - t0)
    return {
        "roofline.memcpy_MBps": nbytes / MB / median(copy),
        "roofline.sha1_MBps": nbytes / MB / median(sha),
    }


def largest_array_bytes(wl, klass: str) -> int:
    from repro.apps import make_proxy

    proxy = make_proxy(wl.app, klass)
    return max(f.nbytes(proxy.n) for f in proxy.fields)


def last_level_cache_bytes():
    """Size of this host's highest-level CPU cache, from sysfs (None
    where the kernel does not report it)."""
    best = None
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(d, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(d, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        nbytes = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, nbytes)
    return best[1] if best else None


def cache_label(largest: int) -> str:
    """Whether the roofline's source and destination buffers (twice the
    largest array) fit in the last-level cache."""
    llc = last_level_cache_bytes()
    if llc is None:
        return "last-level cache size unknown: bandwidths not labelled"
    where = ("cache-resident" if 2 * largest <= llc else "DRAM-bound")
    return (f"last-level cache {llc / MIB:.0f} MiB, 2 x largest array "
            f"{2 * largest / MIB:.1f} MiB: the bandwidths here are {where}")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def release_memory() -> None:
    """Collect garbage and hand freed heap back to the OS between jobs:
    the task threads' malloc arenas otherwise keep the last job's
    ~1 GB resident, and the next job's peak stacks on top of it."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to trim


# -- the runs ----------------------------------------------------------------------


class Run:
    """Accumulates the jobs of one run and its operation counts."""

    def __init__(self, wl, seed, hooks, digest, klass="A"):
        self.wl = wl
        self.seed = seed
        self.hooks = hooks
        self.digest = digest
        self.klass = klass
        self.jobs = []
        self.attempted = 0
        self.failed = 0

    def job(self, tracer=None):
        from workloads import run_job

        expected_sim = self.jobs[0].sim if self.jobs else None
        if tracer is not None:
            tracer.install()
        try:
            r = run_job(self.wl, self.seed, self.hooks, klass=self.klass,
                        expected_digest=self.digest, expected_sim=expected_sim)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for err in r.errors:
            print(f"[{self.wl.name}] job {len(self.jobs)}: {err}", file=sys.stderr)
        self.jobs.append(r)
        self.attempted += r.attempted
        self.failed += r.failed
        release_memory()
        return r


def per_job_median(jobs, samples) -> float:
    """Median over jobs of each job's mean sample.  A job's samples come
    from different task counts and drain overlaps, so pooling them mixes
    populations; one value per job keeps the jobs the unit of repeat."""
    means = [statistics.fmean(s) for s in map(samples, jobs) if s]
    return median(means)


def e2e_metrics(jobs) -> dict:
    return {
        "job_s": median([j.job_s for j in jobs]),
        "iteration_s": per_job_median(
            jobs, lambda j: j.timeline.iteration_samples()
        ),
        "checkpoint_s": per_job_median(
            jobs, lambda j: j.timeline.checkpoint_samples(cold=False)
        ),
        "checkpoint_cold_s": per_job_median(
            jobs, lambda j: j.timeline.checkpoint_samples(cold=True)
        ),
        "recovery_s": per_job_median(
            jobs, lambda j: [j.timeline.recovery_s] if j.timeline.recovery_s else []
        ),
    }


def sample_counts(jobs) -> dict:
    tls = [j.timeline for j in jobs]
    return {
        "iteration_samples": sum(len(tl.iteration_samples()) for tl in tls),
        "checkpoint_samples": sum(
            len(tl.checkpoint_samples(cold=False)) for tl in tls
        ),
        "checkpoint_cold_samples": sum(
            len(tl.checkpoint_samples(cold=True)) for tl in tls
        ),
    }


def jobs_for(seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_JOB_S))


def untraced_run(run: Run, seconds: float) -> dict:
    for _ in range(jobs_for(seconds)):
        run.job()
    metrics = e2e_metrics(run.jobs)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    )
    return metrics


def traced_run(run: Run, seconds: float) -> dict:
    from repro.plancache.cache import get_plan_cache
    from tracer import EXACT_COUNTS, LayerTracer, layer_cpu_total, layer_metrics

    untraced, traced = [], []
    for _ in range(max(2, round(jobs_for(seconds) / 2))):
        untraced.append(run.job())
        tracer = LayerTracer()
        r = run.job(tracer)
        cache = get_plan_cache().stats()
        m = layer_metrics(
            tracer.record,
            state_bytes=r.state_bytes * max(1, r.checkpoints_taken),
            plan_hits=cache["hits"],
            plan_lookups=cache["hits"] + cache["misses"],
        )
        m["trace.cpu_coverage"] = ratio(layer_cpu_total(tracer.record), r.cpu_s)
        traced.append((r, m))

    first = traced[0][1]
    mismatched = sorted(
        name for name in EXACT_COUNTS
        for _, m in traced[1:]
        if m[name] != first[name]
    )
    for name in sorted(set(mismatched)):
        values = [m[name] for _, m in traced]
        print(f"[{run.wl.name}] count {name} differs between traced jobs: "
              f"{values}", file=sys.stderr)

    metrics = {
        name: median([m[name] for _, m in traced]) for name in first
    }
    base = e2e_metrics(untraced)
    metrics["trace.overhead_ratio"] = ratio(
        median([r.job_s for r, _ in traced]), base["job_s"]
    )
    metrics["trace.count_mismatches"] = len(set(mismatched))
    roof = roofline(largest_array_bytes(run.wl, run.klass))
    metrics.update(roof)
    state_mb = untraced[0].state_bytes / MB
    memcpy = roof["roofline.memcpy_MBps"]
    metrics["roofline.checkpoint_share"] = ratio(
        ratio(state_mb, base["checkpoint_s"]), memcpy
    )
    metrics["roofline.restore_share"] = ratio(
        ratio(state_mb, base["recovery_s"]), memcpy
    )
    metrics.update(run.jobs[0].sim)
    metrics.update(sample_counts(untraced))
    return metrics


def summary(run: Run, metrics: dict) -> str:
    wl = run.wl
    j = run.jobs[0]
    largest = largest_array_bytes(wl, run.klass)
    lines = [
        f"workload {wl.name}: {wl.app} class {run.klass}, tier {wl.tier}, "
        f"{wl.ntasks} tasks on {wl.num_nodes} nodes, {wl.niter} iterations, "
        f"checkpoints at {wl.checkpoint_iterations()}, node {j.failed_node} "
        f"fails at iteration {wl.fail_iteration}, {len(run.jobs)} jobs",
        f"state {j.state_bytes / MB:.1f} MB of distributed arrays, largest "
        f"{largest / MB:.1f} MB; " + cache_label(largest),
        "simulated clocks (first job): "
        + ", ".join(f"{k}={v:.6f}" for k, v in j.sim.items()),
        f"operations: {run.attempted} attempted, {run.failed} failed, "
        f"error_rate={run.failed / max(1, run.attempted):.4f}",
    ]
    counts = sample_counts(run.jobs)
    lines.append(
        "samples: " + ", ".join(f"{k}={v}" for k, v in counts.items())
    )
    for name in sorted(metrics):
        lines.append(f"  {name:<40} {metrics[name]:.6g} {unit_of(name)}")
    return "\n".join(lines)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--klass", default="A",
                   help="NPB class (toy for the benchmark's own tests)")
    p.add_argument("--freeze", action="store_true",
                   help="recompute digests.json and exit")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy  # noqa: F401
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.klass)
        return 0
    if args.freeze:
        print(json.dumps(workloads.freeze_digests(), indent=1))
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    key = workloads.digest_key(wl, args.klass)
    digest = workloads.load_digests().get(key)
    if digest is None:
        print(f"perfbench: no frozen digest {key!r} in digests.json; "
              "run with --freeze", file=sys.stderr)
        return 2

    setup = measure_setup(wl.name, args.klass) if not args.trace else []
    hooks = workloads.Hooks().install()
    run = Run(wl, args.seed, hooks, digest, klass=args.klass)
    try:
        if args.trace:
            metrics = traced_run(run, args.seconds)
            metrics["error_rate"] = run.failed / run.attempted
        else:
            metrics = untraced_run(run, args.seconds)
            metrics["setup_s"] = median(setup)
    finally:
        hooks.uninstall()
    print(summary(run, metrics))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
