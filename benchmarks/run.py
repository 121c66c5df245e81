"""Benchmark for serreweights: three closed-loop workloads, one caller each.

    python3 benchmarks/run.py --workload verify_grid --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --all            # every workload, one after another
    python3 benchmarks/run.py --summary        # median and quartiles of recorded runs
    python3 benchmarks/run.py --self-test      # tiny sizes, mutation and cleanup checks

The package is imported from ``src/`` of the checkout this file lives in.
Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, in reference seconds
(``speed.py``), with ``--trace 1`` the per-layer ones.  Each run appends a
record to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, List, Tuple

from speed import REFERENCE_S, Speedometer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
DEFAULT_SEED = 1
SETUP_SPAWNS = 15

Outcome = Tuple[int, str, float]  # exit code, report text, latency in seconds


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


def in_child(fn: Callable):
    """Run ``fn()`` in a forked child and return its pickled result.

    The child starts from this process's memory, so package caches are as
    cold as they are here, and whatever the child fills is thrown away.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(fn(), pipe)
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"forked child exited with status {status}")
    return pickle.loads(payload)


def call(argv: List[str]) -> Tuple[int, str]:
    """One CLI command with its report captured; a crash counts as failure.

    ``run_command`` is looked up on the package at every call, so that
    tracing wrappers bound there take effect.
    """
    import serreweights

    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = serreweights.run_command(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    return code, buffer.getvalue()


def execute(op, tracer=None, meter=None) -> Outcome:
    """One operation; its latency leaves out the time the meter's kernel took."""
    clock = time.perf_counter
    start = clock()
    spent = meter.spent if meter is not None else 0.0
    if op.fresh:

        def child():
            if tracer is not None:
                tracer.reset()
            with Speedometer() if meter is not None else contextlib.nullcontext() as own:
                result = call(op.argv)
            exported = tracer.export() if tracer is not None else None
            return result, exported, (own.samples, own.spent) if own else ([], 0.0)

        with meter.paused() if meter is not None else contextlib.nullcontext():
            (code, text), exported, (samples, child_spent) = in_child(child)
        if exported is not None:
            tracer.merge(exported)
        if meter is not None:
            meter.samples.extend(samples)
            meter.spent += child_spent
    else:
        code, text = call(op.argv)
    end = clock()
    kernel = meter.spent - spent if meter is not None else 0.0
    if meter is not None:
        meter.spans.append((start, end, kernel))
    return code, text, end - start - kernel


def run_ops(workload, seconds: float, tracer=None, meter=None) -> Tuple[List[Outcome], float]:
    """The closed loop: the prefix always, then whole granules until time is up."""
    ops = workload.ops
    outcomes: List[Outcome] = []
    clock = time.perf_counter
    start = clock()
    while True:
        op = ops[len(outcomes) % len(ops)]
        outcomes.append(execute(op, tracer, meter))
        n = len(outcomes)
        if n >= workload.prefix and n % workload.granularity == 0:
            if clock() - start >= seconds:
                break
    return outcomes, clock() - start


def judge(workload, outcomes: List[Outcome]) -> Tuple[int, int, str]:
    """(attempted, failed, digest of the prefix reports)."""
    from workloads import passes

    attempted = failed = 0
    for i, (code, text, _) in enumerate(outcomes):
        op = workload.ops[i % len(workload.ops)]
        attempted += op.units
        if not passes(op, code, text):
            failed += op.units
            sys.stderr.write(f"FAILED op {i}: {' '.join(op.argv)} (exit {code})\n")
    prefix = outcomes[: workload.prefix]
    digest = hashlib.sha256("".join(text for _, text, _ in prefix).encode()).hexdigest()
    return attempted, failed, digest


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def setup_seconds(spawns: int = SETUP_SPAWNS) -> Tuple[float, float]:
    """Median time of a fresh interpreter running ``import serreweights``,
    in reference seconds and in wall seconds.

    One unmeasured spawn first writes the bytecode cache, as any first use
    does.  Each spawn is scaled by the reference kernel timed right after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, "-c", "import serreweights"]
    scaled, wall = [], []
    for i in range(spawns + 1):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=60, capture_output=True)
        took = time.perf_counter() - start
        meter = Speedometer()
        meter.warm_up()
        if i:
            scaled.append(took * meter.scale())
            wall.append(took)
    return statistics.median(scaled), statistics.median(wall)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated q-quantile (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def untraced_run(workload, seconds: float, setup: Tuple[float, float]) -> dict:
    """End-to-end metrics, with every time in reference seconds (speed.py);
    the wall-clock figures are kept beside them for the record."""
    meter = Speedometer()
    meter.warm_up()
    with meter:
        outcomes, wall = run_ops(workload, seconds, meter=meter)
    attempted, failed, digest = judge(workload, outcomes)
    scaled = meter.reference_latencies()
    raw = [lat for _, _, lat in outcomes]
    metrics = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (attempted / sum(scaled), "ops/s"),
        "latency_p50_ms": (1000.0 * percentile(scaled, 0.5), "ms"),
        "latency_p90_ms": (1000.0 * percentile(scaled, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    wall_clock = {
        "setup_s": setup[1],
        "ops_per_s": attempted / sum(raw),
        "latency_p50_ms": 1000.0 * percentile(raw, 0.5),
        "latency_p90_ms": 1000.0 * percentile(raw, 0.9),
    }
    scale = meter.scale()
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "calls": len(outcomes),
        "wall_s": wall,
        "metrics": metrics,
        "wall_clock": wall_clock,
        "speed": {
            "scale": scale,
            "kernel_ms": 1000.0 * REFERENCE_S / scale,
            "samples": len(meter.samples),
            "kernel_share": meter.spent / wall,
        },
        "correct": failed == 0,
    }


def traced_run(workload, spans_path: Path) -> dict:
    """The prefix twice, each in a fork from the same cold state: once plain,
    once with every public function wrapped.  The wall difference is the
    tracing overhead; the layer metrics come from the traced pass only."""
    from tracing import Tracer, leftover_wrappers

    plain = workload.prefix_only()

    def untraced():
        return run_ops(plain, 0.0)

    def traced():
        tracer = Tracer()
        tracer.install()
        try:
            outcomes, wall = run_ops(plain, 0.0, tracer)
        finally:
            tracer.uninstall()
        report_bytes = sum(len(text.encode()) for _, text, _ in outcomes)
        tracer.write(spans_path)
        return outcomes, wall, tracer.layer_metrics(report_bytes), len(tracer.names), leftover_wrappers()

    spans_path.parent.mkdir(exist_ok=True)
    outcomes_u, wall_u = in_child(untraced)
    outcomes_t, wall_t, metrics, spans, leftovers = in_child(traced)
    attempted, failed, digest = judge(plain, outcomes_t)
    attempted_u, failed_u, digest_u = judge(plain, outcomes_u)
    self_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    problems = []
    if leftovers:
        problems.append(f"wrappers left behind: {leftovers}")
    if digest_u != digest:
        problems.append("traced and untraced reports differ")
    if self_sum > wall_t:
        problems.append(f"layer self times {self_sum:.3f} s exceed the traced wall {wall_t:.3f} s")
    for problem in problems:
        sys.stderr.write(f"TRACE CHECK FAILED: {problem}\n")
    metrics.update(
        {
            "trace.wall_s": (wall_t, "s"),
            "trace.untraced_wall_s": (wall_u, "s"),
            "trace.overhead_s": (wall_t - wall_u, "s"),
            "trace.layer_self_sum_s": (self_sum, "s"),
            "trace.spans": (spans, "count"),
        }
    )
    return {
        "attempted": attempted + attempted_u,
        "failed": failed + failed_u,
        "digest": digest,
        "calls": len(outcomes_t),
        "wall_s": wall_t,
        "metrics": metrics,
        "correct": failed == 0 and failed_u == 0 and not problems,
    }


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def record(entry: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def summarize() -> dict:
    """Median and quartiles of every metric over the recorded runs, grouped
    by commit, workload and trace mode."""
    groups: dict = {}
    path = RESULTS / "runs.jsonl"
    if path.exists():
        for line in path.read_text().splitlines():
            run = json.loads(line)
            key = f"{run['env']['commit'][:12]} {run['workload']} trace={run['trace']}"
            group = groups.setdefault(key, {"runs": 0, "digests": set(), "metrics": {}})
            group["runs"] += 1
            group["digests"].add(f"seed={run['seed']}:{run['digest']}")
            for name, metric in run["metrics"].items():
                group["metrics"].setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    summary = {}
    for key, group in sorted(groups.items()):
        rows = {}
        for name, (unit, values) in group["metrics"].items():
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rows[name] = {"unit": unit, "median": q2, "q1": q1, "q3": q3, "n": len(values)}
        summary[key] = {"runs": group["runs"], "digests": sorted(group["digests"]), "metrics": rows}
    return summary


def print_summary() -> None:
    summary = summarize()
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs")
        for name, row in group["metrics"].items():
            print(
                f"  {name:40s} median {row['median']:.6g} {row['unit']}"
                f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}]  n={row['n']}"
            )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    started = time.perf_counter()
    workload = WORKLOADS[name](seed)
    generate_s = time.perf_counter() - started
    if trace:
        result = traced_run(workload, RESULTS / f"spans-{name}-seed{seed}.bin")
    else:
        # Fresh interpreters first, while nothing else in this run competes.
        result = untraced_run(workload, seconds, setup_seconds())
    result["generate_s"] = generate_s
    return result


def import_package() -> None:
    if not (SRC / "serreweights" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {SRC}/serreweights")
    sys.path.insert(0, str(SRC))
    import serreweights  # noqa: F401


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--summary", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.summary:
        print_summary()
        return 0
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    import_package()
    if args.self_test:
        from selftest import self_test

        return self_test()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    record(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": environment(),
            "digest": result["digest"],
            "calls": result["calls"],
            "wall_s": result["wall_s"],
            "generate_s": result["generate_s"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
            "wall_clock": result.get("wall_clock"),
            "speed": result.get("speed"),
        }
    )
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"calls {result['calls']} in {result['wall_s']:.3f} s, "
          f"inputs generated in {result['generate_s']:.3f} s")
    print(f"report digest sha256:{result['digest']}")
    print(f"failed_ratio {result['failed'] / result['attempted']:.6g} 1 "
          f"({result['failed']} of {result['attempted']})")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    if "speed" in result:
        speed = result["speed"]
        print(f"times above are in reference seconds: kernel {speed['kernel_ms']:.4g} ms "
              f"mean over {speed['samples']} samples, scale {speed['scale']:.4g}, "
              f"kernel share of the loop {speed['kernel_share']:.3g}")
        for name, value in result["wall_clock"].items():
            print(f"wall-clock {name} {value:.6g}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh interpreter; their metric lines in turn."""
    ok = True
    for name in ("verify_grid", "query_stream", "oracle_large"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with {done.returncode}")
            return 1
        print("\n".join(lines[:-1]))
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
