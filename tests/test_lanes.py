"""The five estimator searches of analyze run on lanes, and the report does
not depend on how many.

condition_report hands compatibility_constant, restricted_eigenvalue (both
variants) and restricted_regression (both variants) to core._run_lanes,
which runs them on core._pool_workers(5) lanes: the calling thread plus a
thread pool.  The analyze report, its errors map and its key order must be
byte-identical with one lane and with two.  core._pool_workers is the one
sizing rule of the package's thread pools, so only core reads the CPU
affinity mask.
"""

import ast
import concurrent.futures
import json
import sys
import threading
import time
from pathlib import Path

import pytest

from lasso_audit import DEFAULT_CONFIG, ConeSpec, GramMatrix
from lasso_audit.cli import condition_report, main, save_matrix_csv
from lasso_audit.core import _run_lanes
from lasso_audit.errors import CapExceeded
from lasso_audit.experiments import random_psd_entries

from test_experiments import set_cpus
from test_one_cone_index import callers

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lasso_audit"

# the order condition_report attempts its constants in
REPORT_ORDER = ["lambda2", "delta_N", "theta", "theta_uniform", "rip", "weak_rip",
                "irr_uniform", "irr_part2", "irr_part3", "mutual", "cumulative", "alpha",
                "phi_compat", "phi_re", "phi_re_adaptive", "theta_rr", "theta_rr_adaptive",
                "phi_lower_routes"]


REAL_POOL = concurrent.futures.ThreadPoolExecutor


def record_pools(monkeypatch):
    """Record the max_workers of every thread pool started."""
    started = []

    def pool(max_workers):
        started.append(max_workers)
        return REAL_POOL(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
    return started


class fine_switching:
    """Switch threads as often as the interpreter allows, to interleave the
    lanes finely."""

    def __enter__(self):
        self.interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

    def __exit__(self, *exc):
        sys.setswitchinterval(self.interval)


ENUM_ENTRIES = random_psd_entries(16, 10_000, 0.1)  # the benchmark's enum Gram


def test_analyze_report_is_the_same_on_one_and_two_lanes(tmp_path, monkeypatch):
    gram = tmp_path / "enum_gram.csv"
    save_matrix_csv(str(gram), ENUM_ENTRIES)
    out = tmp_path / "report.json"  # one path for both: the report names it
    argv = ["analyze", "--gram", str(gram), "--S", "2,7,11", "--N", "6",
            "--cap-subsets", "200000", "--out", str(out)]
    texts, pools = [], []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        pools.append(record_pools(monkeypatch))
        with fine_switching():
            assert main(argv) == 0
        lines = out.read_text().splitlines()
        texts.append([line for line in lines if "wall_time_s" not in line])
        assert len(texts[-1]) == len(lines) - 1
    assert pools == [[], [1]]
    assert texts[0] == texts[1]
    result = json.loads(out.read_text())["result"]
    searches = REPORT_ORDER[REPORT_ORDER.index("phi_compat"):-1]
    assert set(searches) <= set(result["entries"])
    assert set(result["entries"]) | set(result["errors"]) == set(REPORT_ORDER)


def test_errors_keep_their_order_on_two_lanes(monkeypatch):
    # one sign vector allowed, four needed at s = 3: phi_compat raises CapExceeded
    gram = GramMatrix(ENUM_ENTRIES)
    cone = ConeSpec((0, 5, 9), 1.0, 6)
    reports, pools = [], []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        pools.append(record_pools(monkeypatch))
        with fine_switching():
            reports.append(condition_report(gram, cone, DEFAULT_CONFIG, 200_000, 1))
    assert pools == [[], [1]]
    one, two = reports
    assert list(one.errors.items()) == list(two.errors.items())
    assert list(one.entries) == list(two.entries)
    assert one.to_json_dict() == two.to_json_dict()
    assert one.errors["phi_compat"].startswith("CapExceeded: ")
    for keys in (one.entries, one.errors):
        assert list(keys) == [key for key in REPORT_ORDER if key in keys]
    assert set(one.entries) | set(one.errors) == set(REPORT_ORDER)


def test_an_unexpected_exception_stops_the_lanes_and_reaches_the_caller(monkeypatch):
    set_cpus(monkeypatch, 2)
    started = record_pools(monkeypatch)
    task_one_started = threading.Event()
    ran, finished = [], []

    def slow():
        ran.append(0)
        # the other lane takes task 1 and raises meanwhile
        task_one_started.wait(timeout=30)
        time.sleep(0.2)
        finished.append(0)
        return 0

    def broken():
        ran.append(1)
        task_one_started.set()
        raise ZeroDivisionError("task 1")

    def audit_error():
        raise CapExceeded(2, 1, what="a test")

    def never():
        ran.append("later")
        return 1

    with pytest.raises(ZeroDivisionError, match="task 1"):
        _run_lanes([slow, broken, audit_error, never, never])
    assert started == [1]
    assert sorted(ran) == [0, 1]
    assert finished == [0]


def test_more_lanes_than_cores_run_each_task_once(monkeypatch):
    # 8 lanes on 2 cores, switching as often as possible: a task taken by
    # two lanes, or a slot lost, shows in the runs and the slots
    set_cpus(monkeypatch, 64)
    started = record_pools(monkeypatch)
    runs = []

    def task(i):
        def run():
            runs.append(i)
            return float(i) ** 0.5
        return run

    with fine_switching():
        slots = _run_lanes([task(i) for i in range(400)])
    assert started == [7]
    assert sorted(runs) == list(range(400))
    assert slots == [(float(i) ** 0.5, None) for i in range(400)]


def test_audit_errors_fill_their_own_slots(monkeypatch):
    for cpus in (1, 2, 8):
        set_cpus(monkeypatch, cpus)
        error = CapExceeded(2, 1, what="a test")

        def raises():
            raise error

        assert _run_lanes([lambda: "a", raises, lambda: "c"]) == [
            ("a", None), (None, error), ("c", None)]


def test_only_core_sizes_thread_pools():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name in ("sched_getaffinity", "cpu_count"):
            for owner in callers(tree, name):
                found.setdefault(name, []).append(f"{path.stem}.{owner}")
    assert found == {"sched_getaffinity": ["core._pool_workers"],
                     "cpu_count": ["core._pool_workers"]}
    assert callers(ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8")),
                   "_pool_workers") == ["_run_lanes"]
