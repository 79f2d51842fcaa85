"""One benchmark process: set up a workload, run it as a closed loop, check it.

Started by ``run.py``; prints one JSON object as its last stdout line.  With
``--setup-only`` it stops once set-up is done and reports only the set-up
time, measured from ``--t0`` (the parent's ``time.monotonic()`` just before
it started this process) and scaled by the host speed probed just before
and just after the workload's set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

from checks import Checker, digest

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TAIL_PERCENTILE = 90  # the percentile op_p90_s reports
PROBE_REACH = 2  # host probes on either side of an operation that scale it


def read_steal() -> float:
    """Seconds of steal time summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment() -> dict:
    import numpy as np
    import platform
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '').strip()})",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import lasso_audit
    expected = os.path.join(ROOT, "src", "lasso_audit")
    if os.path.dirname(os.path.abspath(lasso_audit.__file__)) != expected:
        raise RuntimeError(f"imported lasso_audit from {lasso_audit.__file__}, not {expected}")
    return lasso_audit


def run_op(op, checker, tracer=None, op_id=0) -> dict:
    """Time one operation (wall, CPU, steal), then check its outputs."""
    if tracer is not None:
        tracer.begin_op(op_id)
    steal0, cpu0 = read_steal(), time.process_time()
    start = time.perf_counter()
    outputs = op.run()
    wall = time.perf_counter() - start
    cpu, steal = time.process_time() - cpu0, read_steal() - steal0
    results = [checker.check(op.ref_key, label, code, text, err)
               for label, code, text, err in outputs]
    statuses = {r["status"] for r in results}
    return {
        "metric": op.metric,
        "ref_key": op.ref_key,
        "wall_s": wall,
        "cpu_s": cpu,
        "steal_s": steal,
        "status": "wrong" if "wrong" in statuses else "error" if "error" in statuses else "ok",
        "changed": any(r["changed"] for r in results),
        "detail": "; ".join(r["detail"] for r in results if r["detail"]),
        "digests": [digest(text) if text is not None else f"exit {code}"
                    for _, code, text, _ in outputs],
    }


def correct(counts: dict, mismatches: list, leftovers: list) -> bool:
    """No wrong output, no traced report unlike its untraced twin, and every
    wrapped function restored.  Errors (failures as at the reference) count
    in ``failed`` only."""
    return counts["wrong"] == 0 and not mismatches and not leftovers


def tally(records: list) -> dict:
    """Attempted and failed operations; every record counts, failures too."""
    return {
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
        "wrong": sum(r["status"] == "wrong" for r in records),
        "changed": sum(r["changed"] for r in records),
    }


class HostProbe:
    """A fixed piece of work that does not touch lasso-audit, timed to track
    how fast the host runs right now.

    On a shared host the same operation runs up to 1.8x slower while other
    tenants load the machine; CPU time slows as much as wall time, so only a
    reference workload timed alongside can tell host from program.  The
    probe mixes what the program spends its time on: small SVDs (LAPACK
    call overhead), parsing floats from text, a BLAS matrix product, and
    vectorized logarithms and cosines (the Box-Muller draws of the Monte
    Carlo experiments).
    """

    REFERENCE_S = 0.050  # probe time on the development host at full speed
    ELASTICITY = 0.5     # log-log slope of operation time on probe time (README)
    EVERY_S = 1.0        # longest stretch of operations between two probes
    SETUP_PROBES = 4     # probes before and after set-up; their median scales setup_s

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._small = rng.standard_normal((6, 3))
        self._square = rng.standard_normal((150, 150))
        self._text = ["%.17g" % v for v in rng.standard_normal(24_000)]
        self._uniform = rng.random((2, 200, 50))

    @classmethod
    def speed(cls, times) -> float:
        """Host speed, relative to the development host at full speed, that
        the program sees while the probe takes ``times``."""
        return (cls.REFERENCE_S / statistics.median(times)) ** cls.ELASTICITY

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(3_000):
            self._np.linalg.svd(self._small, compute_uv=False)
        total = 0.0
        for cell in self._text:
            total += float(cell)
        for _ in range(24):
            self._square @ self._square
        u1, u2 = self._uniform
        for _ in range(40):
            self._np.sqrt(-2.0 * self._np.log1p(-u1)) * self._np.cos(2.0 * self._np.pi * u2)
        return time.perf_counter() - start


def run_cycles(workload, checker, seconds, tracer=None, probe=None, probes=None) -> list:
    """Whole cycles while another cycle as long as the last one still ends
    within ``seconds``; at least one cycle.  Every cycle is the same list of
    operations, so how many cycles fit changes the number of samples, not
    which operations are timed.

    With a ``probe``, the host is probed before the first operation, after
    every stretch of ``probe.EVERY_S`` and at the end, into ``probes``; each
    record's ``ref_s`` is its wall time scaled to the probe's reference
    speed (see ``host_scale``).
    """
    records = []
    if probe:
        probes.append(probe())
    since_probe = 0.0
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        for op in workload.cycle():
            record = run_op(op, checker, tracer, len(records))
            record["probe"] = len(probes) - 1 if probe else None
            records.append(record)
            since_probe += record["wall_s"]
            if probe and since_probe >= probe.EVERY_S:
                probes.append(probe())
                since_probe = 0.0
        now = time.monotonic()
        if now - start + (now - cycle_start) > seconds:
            if probe:
                if since_probe > 0.0:
                    probes.append(probe())
                host_scale(records, probes)
            return records


def host_scale(records, probes, reach=PROBE_REACH):
    """Scale each record's wall time by the host speed around it.

    A record ran between probes ``i`` and ``i + 1`` (``record["probe"]``);
    its speed comes from the median of the ``reach`` probes on either side
    of that gap, which damps the noise of single probes while still
    following drift that lasts longer than a few probes.
    """
    for record in records:
        i = record["probe"]
        near = probes[max(i + 1 - reach, 0):i + 1 + reach]
        record["host_speed"] = HostProbe.speed(near)
        record["ref_s"] = record["wall_s"] * record["host_speed"]


def end_to_end(records: list, cycle_keys: list, field: str = "ref_s",
               unit: str = "ref_s") -> dict:
    """The end-to-end metrics every workload reports, from each record's ``field``.

    They describe one cycle (the operations ``cycle_keys`` names, repeats
    included) with each operation at the median of its samples in the run:
    its total time and the median and 90th percentile of its operations.
    """
    samples = {}
    for r in records:
        samples.setdefault(r["ref_key"], []).append(r[field])
    cycle = [statistics.median(samples[k]) for k in cycle_keys]
    return {
        "cycle_s": (sum(cycle), unit),
        "op_p50_s": (statistics.median(cycle), unit),
        "op_p90_s": (statistics.quantiles(cycle, n=100, method="inclusive")
                     [TAIL_PERCENTILE - 1], unit),
    }


def by_operation(name: str, records: list, field: str = "ref_s", unit: str = "ref_s") -> dict:
    """Medians per kind of operation, for the summary lines."""
    def times(metric):
        return [r[field] for r in records if r["metric"] == metric]

    if name == "sweep":
        each = times("instance")
        return {
            "instances_per_s": (len(each) / sum(each), "1/" + unit),
            "instance_p50_s": (statistics.median(each), unit),
            "instance_p95_s": (statistics.quantiles(each, n=100, method="inclusive")[94],
                               unit),
        }
    metrics = {"enum": ("analyze", "implications"),
               "solve": ("lasso", "lasso_design", "recover", "montecarlo")}[name]
    return {f"{m}_s": (statistics.median(times(m)), unit) for m in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    from workloads import Workload
    from tracing import Tracer, layer_metrics

    mark = time.monotonic()
    probe = HostProbe()
    setup_probes = [probe() for _ in range(HostProbe.SETUP_PROBES)]
    probing_s = time.monotonic() - mark  # not part of set-up
    os.makedirs(args.workdir)
    os.chdir(args.workdir)
    try:
        workload = Workload(args.workload, args.seed)
        tracer = Tracer() if args.trace else None
        leftovers = []
        if tracer is not None:
            tracer.install()
        workload.setup()
        if tracer is not None:
            leftovers += tracer.uninstall()
        workload.warmup()
        setup_wall_s = time.monotonic() - args.t0 - probing_s
        setup_probes += [probe() for _ in range(HostProbe.SETUP_PROBES)]
        setup_speed = HostProbe.speed(setup_probes)
        setup = {"setup_s": setup_wall_s * setup_speed, "setup_wall_s": setup_wall_s,
                 "setup_speed": setup_speed}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        checker = Checker(ROOT, args.workload)
        result = {**setup, "env": environment(), "key": workload.key}
        if tracer is None:
            probes = []
            records = run_cycles(workload, checker, args.seconds, probe=probe, probes=probes)
            result["probes"] = probes
            cycle_keys = [op.ref_key for op in workload.cycle()]
            metrics = end_to_end(records, cycle_keys)
            result["wall"] = end_to_end(records, cycle_keys, "wall_s", "s")
            result["operations"] = by_operation(args.workload, records)
            result["operations_wall"] = by_operation(args.workload, records, "wall_s", "s")
            result["host_speed"] = statistics.median(r["host_speed"] for r in records)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            mismatches = []
        else:
            untraced = [run_op(op, checker) for op in workload.cycle()]
            tracer.install()
            try:
                traced = run_cycles(workload, checker, args.seconds, tracer)
            finally:
                leftovers += tracer.uninstall()
            records = untraced + traced
            mismatches = [u["ref_key"] for u, t in zip(untraced, traced)
                          if u["digests"] != t["digests"]]
            overhead = (sum(t["wall_s"] for t in traced[:len(untraced)])
                        / sum(u["wall_s"] for u in untraced))
            metrics = layer_metrics(tracer, len(traced))
            metrics["cli.reports_changed"] = (sum(r["changed"] for r in records), "count")
            metrics["host.cpu_s"] = (statistics.fmean(r["cpu_s"] for r in traced), "s")
            metrics["host.steal_s"] = (statistics.fmean(r["steal_s"] for r in traced), "s")
            metrics["trace.overhead"] = (overhead, "ratio")
            tracer.dump(os.path.join(os.path.dirname(args.workdir), "results",
                                     f"spans-{args.workload}.jsonl"))
        counts = tally(records)
        result.update(counts)
        result.update({
            "metrics": metrics,
            "mismatches": mismatches,
            "leftovers": leftovers,
            "correct": correct(counts, mismatches, leftovers),
            "records": [{k: v for k, v in r.items() if k != "digests"} for r in records],
        })
        print(json.dumps(result))
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
