"""Tests of the benchmark itself: inputs, tracing, span arithmetic, counting.

    python3 -m pytest -q bench/tests
"""

import collections
import hashlib
import importlib
import inspect
import os

import numpy as np
import pytest

import checks
import tracing
import workloads
import worker
from tracing import END, FLAGS, NAME, OP, PARENT, START, Tracer, self_times


def _files_digest(directory) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _setup_inputs(tmp_path, name, seed):
    directory = tmp_path / f"{name}-{seed}-{len(os.listdir(tmp_path))}"
    directory.mkdir()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        wl = workloads.Workload(name, seed)
        wl.setup()
    finally:
        os.chdir(cwd)
    return _files_digest(directory), wl.inputs


@pytest.mark.parametrize("name", ["enum", "sweep", "solve"])
def test_same_seed_same_inputs_different_seed_different_inputs(tmp_path, name):
    first = _setup_inputs(tmp_path, name, 3)
    again = _setup_inputs(tmp_path, name, 3)
    other = _setup_inputs(tmp_path, name, 4)
    assert first == again
    assert first != other


def test_sweep_instances_are_byte_identical_per_seed():
    a = [workloads.sweep_instance(i)["entries"].tobytes() for i in workloads.sweep_cycle(5)[:30]]
    b = [workloads.sweep_instance(i)["entries"].tobytes() for i in workloads.sweep_cycle(5)[:30]]
    c = [workloads.sweep_instance(i)["entries"].tobytes() for i in workloads.sweep_cycle(6)[:30]]
    assert a == b
    assert a != c


def test_every_sweep_cycle_holds_the_same_number_of_each_size():
    def sizes(seed):
        return collections.Counter(workloads.sweep_instance(i)["entries"].shape[0] * 10
                                   + len(workloads.sweep_instance(i)["S"])
                                   for i in workloads.sweep_cycle(seed))

    first, second = workloads.sweep_cycle(3), workloads.sweep_cycle(4)
    assert len(first) == len(set(first)) == workloads.SWEEP_CYCLE
    assert set(first) != set(second)
    assert sizes(3) == sizes(4)


def _namespace_snapshot():
    modules = [importlib.import_module("lasso_audit")] + [
        importlib.import_module(f"lasso_audit.{layer}") for layer in tracing.LAYERS]
    snap = {}
    for module in modules:
        for attr, value in vars(module).items():
            if inspect.isfunction(value) or inspect.isclass(value):
                snap[(module.__name__, attr)] = value
    from lasso_audit.core import GramMatrix
    snap[("GramMatrix", "__post_init__")] = GramMatrix.__dict__["__post_init__"]
    for sub, attr in tracing.KERNELS:
        owner = getattr(np, sub) if sub else np
        snap[(owner.__name__, attr)] = getattr(owner, attr)
    return snap


def _small_ops():
    """A few cheap outputs covering every CLI command and the library path."""
    import lasso_audit
    from lasso_audit import cli

    cli.save_matrix_csv("g.csv", lasso_audit.experiments.random_psd_entries(8, 3, 0.1))
    cli.save_matrix_csv("b.csv", np.array([[1.0, -1.0] + [0.0] * 6]))
    cli.save_matrix_csv("y.csv", np.arange(8.0)[None, :])
    return [
        lambda: workloads.cli_call("a", ["analyze", "--gram", "g.csv", "--S", "0,3", "--N", "3"]),
        lambda: workloads.cli_call("i", ["implications", "--gram", "g.csv", "--S", "1", "--N", "2"]),
        lambda: workloads.cli_call("l", ["lasso", "--gram", "g.csv", "--S", "0,2", "--lambda", "0.1"]),
        lambda: workloads.cli_call("d", ["lasso", "--design", "g.csv", "--y", "y.csv",
                                         "--beta0", "b.csv", "--lambda", "0.5"]),
        lambda: workloads.cli_call("r", ["recover", "--gram", "g.csv", "--beta0", "b.csv"]),
        lambda: workloads.cli_call("m", ["montecarlo", "--n", "20", "--p", "4", "--reps", "100"]),
        lambda: workloads.sweep_call(workloads.sweep_instance(7)),
    ]


def test_traced_run_restores_everything_and_changes_no_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = _small_ops()
    untraced = [op() for op in ops]
    before = _namespace_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert _namespace_snapshot() != before
        traced = []
        for i, op in enumerate(ops):
            tracer.begin_op(i)
            traced.append(op())
    finally:
        leftovers = tracer.uninstall()
    assert leftovers == []
    assert _namespace_snapshot() == before
    for (label, code, text, _), (t_label, t_code, t_text, _) in zip(untraced, traced):
        assert (label, code) == (t_label, t_code)
        assert text is not None and t_text is not None
        assert checks.canonical(text) == checks.canonical(t_text)
    assert any("wall_time_s" in text for _, _, text, _ in untraced)
    metrics = tracing.layer_metrics(tracer, len(ops))
    assert metrics["core.gram_validate_calls"][0] > 0
    assert metrics["numpy.eigvalsh_calls"][0] > 0
    assert metrics["solvers.simplex_pivots"][0] > 0
    assert metrics["implications.edges_evaluated"][0] > 0


def test_self_time_arithmetic_on_a_synthetic_tree():
    def span(name, start, end, parent, op=0):
        s = [0] * 8
        s[NAME], s[START], s[END], s[PARENT], s[OP], s[FLAGS] = name, start, end, parent, op, 0
        return s

    # 0: root [0, 10] with children 1 [1, 4] and 2 [5, 9]; 3 [2, 3] under 1;
    # 4 [6, 6.5] and 5 [7, 8.5] under 2; 6 is a second root [20, 21].
    spans = [span(0, 0.0, 10.0, -1), span(1, 1.0, 4.0, 0), span(1, 5.0, 9.0, 0),
             span(2, 2.0, 3.0, 1), span(2, 6.0, 6.5, 2), span(2, 7.0, 8.5, 2),
             span(0, 20.0, 21.0, -1)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 1.0, 0.5, 1.5, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0 + 1.0)

    tracer = Tracer()
    tracer.names = ["constants.rip_constant", "constants.theta_uniform", "core.block"]
    tracer.spans = spans
    spans[0][FLAGS] = tracing.RAISED
    spans[1][FLAGS] = tracing.RAISED  # nested in a raising call: not counted twice
    spans[2][FLAGS] = tracing.REPEAT
    m = tracing.layer_metrics(tracer, n_ops=1)
    assert m["constants.self_s"][0] == pytest.approx(3.0 + 2.0 + 2.0 + 1.0)
    assert m["constants.theta_uniform_s"][0] == pytest.approx(4.0)
    assert m["constants.discarded_s"][0] == pytest.approx(10.0)
    assert m["constants.useful_ratio"][0] == pytest.approx(1.0 - 10.0 / 11.0)
    assert m["constants.repeat_s"][0] == pytest.approx(4.0)
    assert m["constants.repeat_calls"][0] == 1
    assert m["core.block_calls"][0] == 3


def _recover_pair():
    """A pool key with one recover instance that fails at the reference
    commit and one that succeeds."""
    refs = checks.load_refs("solve")
    for key in range(workloads.SOLVE_POOL):
        exits = {i: refs[f"{key}/recover_{i}/recover"]["exit"]
                 for i in range(workloads.RECOVER_PER_KEY)}
        bad = [i for i, code in exits.items() if code != 0]
        good = [i for i, code in exits.items() if code == 0]
        if bad and good:
            return key, bad[0], good[0], refs[f"{key}/recover_{bad[0]}/recover"]
    pytest.skip("no failing recover instance in the reference pool")


def test_failing_recover_is_counted_not_dropped(tmp_path, monkeypatch):
    import lasso_audit
    from lasso_audit import cli

    monkeypatch.chdir(tmp_path)
    key, bad, good, entry = _recover_pair()
    assert "IterationLimit" in entry["error"]
    eye = lasso_audit.GramMatrix(np.eye(workloads.RECOVER_P))
    for i in (bad, good):
        _, gram = lasso_audit.sample_gaussian_design(
            workloads.RECOVER_RANK, workloads.RECOVER_P, eye, workloads.recover_seed(key, i))
        cli.save_matrix_csv(f"recover_{i}.csv", gram.entries)
    beta0 = np.zeros(workloads.RECOVER_P)
    beta0[[0, 1]] = (1.0, -1.0)
    cli.save_matrix_csv("recover_beta0.csv", beta0[None, :])
    ops = {op.ref_key: op
           for op in workloads.solve_ops(key, {"S": [0], "lambda_design": "1"})}
    checker = checks.Checker(worker.ROOT, "solve")
    records = [worker.run_op(ops[f"{key}/recover_{i}"], checker) for i in (bad, good)]
    assert [r["status"] for r in records] == ["error", "ok"]
    assert "IterationLimit" in records[0]["detail"]
    assert records[0]["changed"] is False  # fails exactly as at the reference commit
    assert records[0]["wall_s"] > 0.0      # and its time is kept for recover_s
    counts = worker.tally(records)
    assert counts == {"attempted": 2, "failed": 1, "wrong": 0, "changed": 0}
    assert worker.correct(counts, [], [])


def _fake_op(code, text, err=""):
    return workloads.Op("x", "k", lambda: [("r", code, text, err)])


@pytest.fixture
def checker(tmp_path, monkeypatch):
    import lasso_audit
    from lasso_audit import cli

    monkeypatch.chdir(tmp_path)
    cli.save_matrix_csv("g.csv", lasso_audit.experiments.random_psd_entries(8, 3, 0.1))
    cli.save_matrix_csv("b.csv", np.array([[1.0, -1.0] + [0.0] * 6]))
    _, code, good, _ = workloads.cli_call("r", ["recover", "--gram", "g.csv", "--beta0", "b.csv"])
    assert code == 0 and '"recovered": true' in good
    checker = checks.Checker(worker.ROOT, "solve")
    checker.refs = {
        "k/r": checks.reference_entry(0, good, ""),
        "k/r-skipped": checks.reference_entry(2, good, ""),
        "k/r-failed": checks.reference_entry(1, None, "error: IterationLimit: x"),
    }
    checker.good = good
    return checker


def test_exit_code_unlike_the_reference_makes_the_run_incorrect(checker):
    record = worker.run_op(_fake_op(1, None, "error: AuditError: boom"), checker)
    assert record["status"] == "wrong"
    assert "exit 1, reference 0" in record["detail"]
    counts = worker.tally([record])
    assert counts["failed"] == 1 and counts["wrong"] == 1
    assert not worker.correct(counts, [], [])
    assert checker.check("k", "r", 2, checker.good, "")["status"] == "wrong"
    assert checker.check("k", "r", 0, None, "")["status"] == "wrong"
    assert checker.check("k", "r", 0, checker.good, "")["status"] == "ok"


def test_every_report_is_checked_whatever_its_exit_code(checker):
    assert checker.check("k", "r-skipped", 2, checker.good, "")["status"] == "ok"
    flipped = checker.good.replace('"recovered": true', '"recovered": false')
    verdict = checker.check("k", "r-skipped", 2, flipped, "")
    assert verdict["status"] == "wrong"
    assert "verdict" in verdict["detail"]
    assert checker.check("k", "r-skipped", 0, checker.good, "")["status"] == "wrong"
    broken = checker.good.replace('"tool": "lasso-audit"', '"tool": 7')
    assert "schema" in checker.check("k", "r-skipped", 2, broken, "")["detail"]


def test_failure_as_at_the_reference_is_an_error_and_a_fix_is_accepted(checker):
    same = checker.check("k", "r-failed", 1, None, "error: IterationLimit: x")
    assert (same["status"], same["changed"]) == ("error", False)
    assert checker.check("k", "r-failed", -1, None, "crash")["status"] == "wrong"
    fixed = checker.check("k", "r-failed", 0, checker.good, "")
    assert (fixed["status"], fixed["changed"]) == ("ok", True)


@pytest.mark.parametrize("name", ["enum", "sweep", "solve"])
def test_every_cycle_times_the_same_operations(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    wl = workloads.Workload(name, 3)
    wl.setup()
    keys = [op.ref_key for op in wl.cycle()]
    assert keys == [op.ref_key for op in wl.cycle()]
    if name == "solve":
        recover = sorted(k for k in keys if "/recover_" in k)
        assert recover == sorted(f"3/recover_{i}" for i in range(workloads.RECOVER_PER_KEY))
    if name == "sweep":
        assert len(keys) == len(set(keys)) == workloads.SWEEP_CYCLE


def test_compare_flags_looser_endpoints_and_changed_verdicts():
    ref = {"endpoints": {"entries.a": ["Interval", 0.5, 2.0], "entries.b": ["Exact", 1.0, 1.0]},
           "verdicts": {"0.holds": True, "1.holds": None}}
    same = {"endpoints": dict(ref["endpoints"]), "verdicts": {"0.holds": True, "1.holds": True}}
    assert checks.compare(ref, same) == []
    tighter = {"endpoints": {"entries.a": ["Interval", 0.6, 1.5],
                             "entries.b": ["Exact", 1.0, 1.0]},
               "verdicts": {"0.holds": True}}
    assert checks.compare(ref, tighter) == []
    looser = {"endpoints": {"entries.a": ["Interval", 0.4, 2.0],
                            "entries.b": ["Exact", 1.0 + 1e-12, 1.0 + 1e-12]},
              "verdicts": {"0.holds": None}}
    problems = checks.compare(ref, looser)
    assert len(problems) == 3
    assert checks.compare(ref, {"endpoints": {}, "verdicts": {"0.holds": True}}) != []


def test_canonical_drops_only_wall_time():
    text = '{\n  "meta": {\n    "seed": 0,\n    "wall_time_s": 0.25\n  },\n  "result": 1\n}\n'
    assert checks.canonical(text) == '{\n  "meta": {\n    "seed": 0,\n  },\n  "result": 1\n}\n'


def test_host_speed_scaling_uses_the_median_of_the_nearest_probes(monkeypatch):
    monkeypatch.setattr(worker.HostProbe, "REFERENCE_S", 0.05)
    monkeypatch.setattr(worker.HostProbe, "ELASTICITY", 1.0)
    probes = [0.1, 0.05, 0.025, 0.05, 0.2]
    records = [{"wall_s": 1.0, "probe": 0}, {"wall_s": 0.5, "probe": 1},
               {"wall_s": 2.0, "probe": 3}]
    worker.host_scale(records, probes, reach=1)
    assert [r["host_speed"] for r in records] == pytest.approx([2.0 / 3.0, 4.0 / 3.0, 0.4])
    worker.host_scale(records, probes, reach=2)
    assert [r["host_speed"] for r in records] == pytest.approx([1.0, 1.0, 1.0])
    assert [r["ref_s"] for r in records] == pytest.approx([1.0, 0.5, 2.0])
    monkeypatch.setattr(worker.HostProbe, "ELASTICITY", 0.5)
    worker.host_scale(records, probes, reach=1)
    assert [r["host_speed"] for r in records] == pytest.approx([(2.0 / 3.0) ** 0.5,
                                                                (4.0 / 3.0) ** 0.5, 0.4 ** 0.5])


def test_end_to_end_takes_each_operation_of_a_cycle_at_its_median():
    records = [{"ref_key": key, "ref_s": t} for key, t in
               [("a", 1.0), ("b", 4.0), ("a", 3.0), ("a", 2.0), ("b", 6.0)]]
    metrics = worker.end_to_end(records, ["a", "b", "a"])
    assert metrics["cycle_s"] == (pytest.approx(2.0 + 5.0 + 2.0), "ref_s")
    assert metrics["op_p50_s"] == (2.0, "ref_s")
    assert metrics["op_p90_s"] == (pytest.approx(4.4), "ref_s")
