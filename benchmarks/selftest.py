"""Self-test of the benchmark itself.

Runs every workload at a tiny size and requires: no failed operation on the
real package; a failed operation and a different report digest once
``j_v_ah`` drops one label; no wrapper left in the package after the
mutation or after tracing; no interval timer or signal handler left by the
speed meter; and exactly the metric names BENCHMARK.json declares, in both
modes.
"""

from __future__ import annotations

import json

import run
from speed import timer_is_clear
from tracing import Patcher, Tracer, leftover_wrappers
from workloads import QUERY_SHAPES, oracle_large, query_stream, verify_grid

TINY_SHAPES = [s for s in QUERY_SHAPES if s[0] * s[2] <= 14 and s[1] <= 2][:12]


def tiny_workloads(seed: int = 1):
    return [
        verify_grid(seed, max_instances=40),
        query_stream(seed, cycles=1, shapes=TINY_SHAPES),
        oracle_large(seed, per_cell=1),
    ]


def drop_one_label(patcher: Patcher) -> None:
    """Make j_v_ah lose its smallest label everywhere it is imported."""
    from serreweights import serre_basis

    original = serre_basis.j_v_ah

    def broken(*args, **kwargs):
        labels = original(*args, **kwargs)
        if not labels:
            return labels
        return labels - {min(labels, key=serre_basis.BasisLabel.sort_key)}

    patcher.replace(serre_basis, "j_v_ah", original, broken)


def self_test() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"SELF-TEST {'PASS' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    for workload in tiny_workloads():
        name = workload.name
        result = run.untraced_run(workload, 0.0, setup=(1.0, 1.0))
        expect(result["correct"] and result["attempted"] > 0, f"{name}: every output passes")
        expect(set(result["metrics"]) == end_to_end, f"{name}: end-to-end metric names")
        expect(timer_is_clear(), f"{name}: the speed meter's timer and handler are gone")

        with Patcher() as patcher:
            drop_one_label(patcher)
            broken = run.untraced_run(workload, 0.0, setup=(1.0, 1.0))
        ratio = broken["failed"] / broken["attempted"]
        expect(ratio > 0, f"{name}: a dropped label gives failed_ratio {ratio:.3g} > 0")
        expect(broken["digest"] != result["digest"], f"{name}: a dropped label changes the digest")
        expect(not leftover_wrappers(), f"{name}: the mutation is fully removed")

        traced = run.traced_run(workload, run.RESULTS / f"selftest-spans-{name}.bin")
        expect(traced["correct"], f"{name}: traced pass checks (cleanup, digest, self times)")
        expect(traced["digest"] == result["digest"], f"{name}: tracing leaves reports unchanged")
        expect(set(traced["metrics"]) == per_layer, f"{name}: per-layer metric names")

    tracer = Tracer()
    tracer.install()
    wrapped = len(leftover_wrappers())
    tracer.uninstall()
    expect(wrapped > 0 and not leftover_wrappers(), f"in-process tracer restores all {wrapped} bindings")

    print(f"SELF-TEST {'FAILED' if failures else 'PASSED'}")
    return 1 if failures else 0
