"""Regenerate the reference reports in ``bench/refs`` from the current sources.

    python3 bench/make_refs.py --workload enum --jobs 2

Runs every operation of every pool key once and stores, per output, its exit
code, the SHA-256 of its report without ``wall_time_s``, and the certified
endpoints and verdicts the checks compare against.  References define what
"correct" means for later changes, so regenerate them only at a commit whose
outputs are trusted, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import gzip
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile

import worker  # pins BLAS threads before numpy is imported

worker.import_program()

import workloads  # noqa: E402
from checks import reference_entry, refs_path  # noqa: E402


def key_entries(job) -> dict:
    """Reference entries of one pool key (one sweep instance for ``sweep``)."""
    name, key = job
    workdir = tempfile.mkdtemp(prefix="bench-refs-", dir=os.path.join(worker.ROOT, ".bench_work"))
    os.chdir(workdir)
    try:
        if name == "sweep":
            label, code, text, err = workloads.sweep_call(workloads.sweep_instance(key))
            return {f"{key}/{label}": reference_entry(code, text, err)}
        workload = workloads.Workload(name, key)
        workload.setup()
        out, done = {}, set()
        for op in workload.cycle():
            if op.ref_key in done:
                continue
            done.add(op.ref_key)
            for label, code, text, err in op.run():
                out[f"{op.ref_key}/{label}"] = reference_entry(code, text, err)
        return out
    finally:
        os.chdir(worker.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def source_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=worker.ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    pool_size = {"enum": workloads.ENUM_POOL, "solve": workloads.SOLVE_POOL,
                 "sweep": workloads.SWEEP_POOL}[args.workload]
    os.makedirs(os.path.join(worker.ROOT, ".bench_work"), exist_ok=True)
    jobs = [(args.workload, key) for key in range(pool_size)]
    reports = {}
    with multiprocessing.get_context("spawn").Pool(max(1, args.jobs)) as pool:
        for entries in pool.imap(key_entries, jobs, chunksize=1 if pool_size < 100 else 20):
            reports.update(entries)
    failures = sorted(k for k, v in reports.items() if v["exit"] != 0)
    os.makedirs(os.path.dirname(refs_path(args.workload)), exist_ok=True)
    with gzip.GzipFile(refs_path(args.workload), "wb", mtime=0) as fh:
        fh.write(json.dumps({"workload": args.workload, "commit": source_commit(),
                             "pool": pool_size, "reports": reports},
                            sort_keys=True).encode("utf-8"))
    print(f"{args.workload}: {len(reports)} outputs, nonzero exits: {failures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
