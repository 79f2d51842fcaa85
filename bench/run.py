"""lasso-audit benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {enum,sweep,solve} --seed N --seconds S --trace {0,1}

Each workload runs as a closed loop (one client, one operation at a time,
one process) with the BLAS and OpenMP pools pinned to one thread.  With
``--trace 0`` the last stdout line holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a traced run wraps the program's
public functions from outside and reports the per-layer metrics instead.
Set-up time is the median of ``SETUP_SAMPLES`` fresh processes, each scaled
by the host speed probed just before and just after its set-up.  Details of
every operation go to ``.bench_work/results``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import worker  # pins the BLAS thread pools in os.environ, which workers inherit
from workloads import WORKLOADS

BENCH, ROOT = worker.BENCH, worker.ROOT
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def program_present() -> bool:
    return (os.path.isfile(os.path.join(ROOT, "src", "lasso_audit", "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "docs", "report.schema.json")))


def spawn(args, deadline: float, setup_only: bool) -> dict:
    """Run one worker process to completion and parse its last stdout line."""
    env = {k: v for k, v in os.environ.items() if k != "LASSO_AUDIT_SEED"}
    workdir = os.path.join(WORK, f"run-{os.getpid()}-{time.monotonic_ns()}")
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(args, result: dict, setup_samples: list) -> list:
    env = result["env"]
    lines = [
        f"workload={args.workload} seed={args.seed} key={result['key']} "
        f"seconds={args.seconds} trace={args.trace}",
        f"host nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']} pinned_threads=1",
    ]
    counts = {}
    for r in result["records"]:
        counts[r["metric"]] = counts.get(r["metric"], 0) + 1
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    if "wall" in result:
        lines.append(f"  host speed {result['host_speed']:.3f} of reference; as wall time: "
                     + ", ".join(f"{n} = {v:.6g} {u}" for n, (v, u) in result["wall"].items()))
    if "operations" in result:
        lines.append("  per kind of operation: " + ", ".join(
            f"{n} = {v:.6g} {u} ({w:.6g} {wu} wall)" for (n, (v, u)), (w, wu)
            in zip(result["operations"].items(), result["operations_wall"].values())))
    lines.append(f"  operations: {counts}")
    if setup_samples:
        lines.append("  setup samples: "
                     + ", ".join(f"{s['setup_s']:.4f} ({s['setup_wall_s']:.4f} s wall "
                                 f"at speed {s['setup_speed']:.3f})" for s in setup_samples))
    lines.append(f"  failed_share = {result['failed']}/{result['attempted']} "
                 f"= {result['failed'] / result['attempted']:.4f} ratio "
                 f"(wrong outputs {result['wrong']}, reports changed {result['changed']})")
    wall = sum(r["wall_s"] for r in result["records"])
    cpu = sum(r["cpu_s"] for r in result["records"])
    steal = sum(r["steal_s"] for r in result["records"])
    lines.append(f"  host: wall {wall:.3f} s, cpu {cpu:.3f} s, steal {steal:.3f} s")
    for r in result["records"]:
        if r["status"] != "ok":
            lines.append(f"  {r['status']}: {r['ref_key']}: {r['detail'][:200]}")
    if result["mismatches"]:
        lines.append(f"  traced reports differ from untraced: {result['mismatches']}")
    if result["leftovers"]:
        lines.append(f"  not restored after tracing: {result['leftovers']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not program_present():
        print(f"error: no lasso-audit sources under {ROOT}", file=sys.stderr)
        return 2

    # A terminated run raises SystemExit, so subprocess.run kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    try:
        samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(spawn(args, deadline, setup_only=True))
        result = spawn(args, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        samples.append({k: result[k] for k in ("setup_s", "setup_wall_s", "setup_speed")})
        setup_s = statistics.median(s["setup_s"] for s in samples)
        result["metrics"] = {"setup_s": (setup_s, "s"), **result["metrics"]}
    detail = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "setup_samples": samples, **result}, fh, indent=1)
    for line in summary(args, result, samples):
        print(line)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
