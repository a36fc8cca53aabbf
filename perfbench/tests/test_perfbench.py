"""Toy-size runs of every workload through the benchmark command.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads
from repro.pfs.piofs import PIOFS
from run import unit_of
from tracer import LayerTracer

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAMES = [w["name"] for w in SPEC["workloads"]]


def drive(workload, trace, seed=3):
    """One toy-class run of run.py, as the benchmark command runs it."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--klass", "toy"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_code_workloads():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize(
    "trace, section", [(0, "end_to_end"), (1, "per_layer")]
)
def test_every_metric_emitted_with_its_unit(workload, trace, section):
    result = drive(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    emitted = result["metrics"]
    assert set(emitted) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert emitted[m["name"]]["unit"] == m["unit"] == unit_of(m["name"])
        assert isinstance(emitted[m["name"]]["value"], (int, float))
    if trace == 0:
        assert all(v["value"] > 0 for v in emitted.values())
    else:
        assert emitted["trace.count_mismatches"]["value"] == 0
        assert emitted["error_rate"]["value"] == 0


@pytest.fixture(scope="module")
def hooks():
    h = workloads.Hooks().install()
    yield h
    h.uninstall()


@pytest.mark.parametrize("workload", NAMES)
def test_digest_check_passes_and_fails_on_a_flipped_byte(
    workload, hooks, monkeypatch
):
    wl = workloads.WORKLOADS[workload]
    reference = workloads.reference_digest(wl, "toy")
    frozen = workloads.load_digests()[workloads.digest_key(wl, "toy")]
    assert reference == frozen
    good = workloads.run_job(wl, 1, hooks, klass="toy", expected_digest=reference)
    assert good.failed == 0 and good.errors == []
    assert good.digest == reference

    def flipped(report, proxy):
        data = bytearray(report.arrays[proxy.main_field].to_global().tobytes())
        data[len(data) // 2] ^= 0x01
        return hashlib.sha256(bytes(data)).hexdigest()

    monkeypatch.setattr(workloads, "main_field_digest", flipped)
    bad = workloads.run_job(wl, 1, hooks, klass="toy", expected_digest=reference)
    assert bad.failed == 1
    assert any("digest" in e for e in bad.errors)


@pytest.mark.parametrize("workload", NAMES)
def test_a_new_seed_changes_only_the_failed_node(workload, hooks):
    """Another seed kills another node at the same iteration; the final
    state and the recovery path stay the same.  (Simulated clocks may
    depend on which replicas died, so they are compared per seed.)"""
    wl = workloads.WORKLOADS[workload]
    seeds = [1, 2, 3, 4, 5, 6]
    nodes = {s: workloads.failed_node_for(wl, s) for s in seeds}
    a, b = seeds[0], next(s for s in seeds if nodes[s] != nodes[seeds[0]])
    ra = workloads.run_job(wl, a, hooks, klass="toy")
    rb = workloads.run_job(wl, b, hooks, klass="toy")
    assert (ra.failed_node, rb.failed_node) == (nodes[a], nodes[b])
    assert ra.failed == rb.failed == 0
    for field in ("digest", "restart_kind", "tasks_after",
                  "checkpoints_taken", "attempted"):
        assert getattr(ra, field) == getattr(rb, field), field
    assert sorted(it for _, it, _, _ in ra.timeline.checkpoints) == sorted(
        it for _, it, _, _ in rb.timeline.checkpoints
    )
    again = workloads.run_job(wl, b, hooks, klass="toy", expected_sim=rb.sim)
    assert again.failed == 0 and again.sim == rb.sim


def test_mismatched_simulated_clocks_fail_the_final_check(hooks):
    wl = workloads.WORKLOADS[NAMES[0]]
    first = workloads.run_job(wl, 1, hooks, klass="toy")
    skewed = {k: v + 1.0 for k, v in first.sim.items()}
    again = workloads.run_job(wl, 1, hooks, klass="toy", expected_sim=skewed)
    assert again.failed == 1
    assert any("simulated" in e for e in again.errors)


def test_traced_pfs_bytes_count_append_and_write_at():
    pfs = PIOFS()
    pfs.create("f")
    tracer = LayerTracer().install()
    try:
        pfs.append("f", b"x" * 1000)
        pfs.write_at("f", 1000, b"y" * 24)
    finally:
        tracer.uninstall()
    assert tracer.record.counters["pfs.write_bytes"] == 1024
    assert tracer.record.groups["pfs.write"].calls == 2


def bench_copy(tmp_path, with_program):
    """The benchmark's files (and optionally the program) in a fresh
    directory, as a checkout would hold them."""
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    if with_program:
        (tmp_path / "src").symlink_to(os.path.join(ROOT, "src"))
    return tmp_path


def run_in(root):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=root,
    )


def test_exits_nonzero_without_the_program(tmp_path):
    proc = run_in(bench_copy(tmp_path, with_program=False))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_exits_nonzero_without_a_frozen_digest(tmp_path):
    root = bench_copy(tmp_path, with_program=True)
    (root / "perfbench" / "digests.json").write_text("{}")
    proc = run_in(root)
    assert proc.returncode == 2
    assert "digest" in proc.stderr
    assert proc.stdout.strip() == ""
