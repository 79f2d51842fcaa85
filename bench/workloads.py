"""Seeded inputs and the operations each benchmark workload runs.

A workload seed selects an instance key from a pool of keys whose reports
at the reference commit are stored under ``bench/refs``; the key fixes
every generated input, so the same seed always gives the same inputs.

Three workloads:

* ``enum``: ``analyze`` and ``implications`` through the CLI on one
  p=16 ``random_psd`` Gram (subset enumeration dominates).
* ``sweep``: ``GramMatrix`` + ``check_all`` through the library on many
  small instances drawn like acceptance criterion 8.
* ``solve``: ``lasso`` (Gram and design forms), ``recover`` and the two
  ``montecarlo`` experiments through the CLI (I/O and solvers dominate).

A run repeats one fixed cycle of operations: a cycle of ``enum`` runs both
operations ``ENUM_REPEATS`` times; a cycle of ``solve`` runs ``SOLVE_ROUNDS`` rounds, each
of both ``lasso`` operations, the design ``lasso`` ``DESIGN_REPEATS``
times, the next ``RECOVER_PER_ROUND`` of the key's recover instances and
``montecarlo``; a cycle of ``sweep`` audits ``SWEEP_CYCLE`` pool instances
drawn by the seed, the same number of each size (``sweep_cycle``).  So
every run of a seed times the same operations, however fast the program is.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

WORKLOADS = ("enum", "sweep", "solve")

ENUM_POOL = 20
SOLVE_POOL = 20
SWEEP_POOL = 1200
SWEEP_CYCLE = 240

ENUM_P, ENUM_S, ENUM_N, ENUM_JITTER, ENUM_CAP = 16, 3, 6, 0.1, 200_000
# One Gram for every key: which constants get enumerated, and how often,
# depends on the Gram's values (edge premises such as delta_s <= 1), so a
# per-key Gram would mix instances that do 2x different work.  The key draws S.
ENUM_GRAM_SEED = 10_000
ENUM_REPEATS = 2  # 4-8 s operations: two samples of each per cycle, not one
SOLVE_P, SOLVE_S, SOLVE_LAMBDAS = 1000, 10, ("0.1", "0.01")
DESIGN_N, DESIGN_P, DESIGN_S = 1000, 300, 5
DESIGN_REPEATS = 2      # a 0.2 s operation: two samples per round, not one
RECOVER_P, RECOVER_RANK = 80, 48
SOLVE_ROUNDS = 3
RECOVER_PER_ROUND = 12  # recover times vary 4x between instances, so a cycle
RECOVER_PER_KEY = SOLVE_ROUNDS * RECOVER_PER_ROUND  # medians over 36 of them
RECOVER_SEED_STRIDE = 48  # instance i of key k has seed 70000 + 48 k + i
MONTECARLO = (("concentration", 200, 50), ("noise", 400, 100))
MONTECARLO_REPS = 2000

# Output of one CLI invocation or library call: (label, exit code, report
# text or None, error text).
Output = Tuple[str, int, Optional[str], str]


@dataclass(frozen=True)
class Op:
    """One timed operation; ``run`` returns its outputs for checking."""

    metric: str
    ref_key: str
    run: Callable[[], List[Output]]


def instance_key(workload: str, seed: int) -> int:
    pool = {"enum": ENUM_POOL, "solve": SOLVE_POOL, "sweep": SWEEP_POOL}[workload]
    return seed % pool


def _la():
    import lasso_audit
    return lasso_audit


def _cli():
    from lasso_audit import cli
    return cli


def _indices(rng, p: int, k: int) -> list:
    return sorted(int(j) for j in rng.choice(p, size=k, replace=False))


def _join(indices) -> str:
    return ",".join(str(j) for j in indices)


def cli_call(label: str, argv: list) -> Output:
    """Run ``lasso-audit <argv> --out <label>.json`` in-process.

    Looks ``cli.main`` up at call time so a traced run sees its wrapper.
    """
    out = label + ".json"
    if os.path.exists(out):
        os.remove(out)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = _cli().main(argv + ["--out", out])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a harness error
            code = -1
            err.write(f"crash: {type(exc).__name__}: {exc}\n")
    text = None
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out)
    return label, code, text, err.getvalue()


# ---------------------------------------------------------------------------
# enum


def write_enum_inputs(key: int) -> dict:
    la = _la()
    gram = la.generate(la.GeneratorSpec(
        "random_psd", {"p": ENUM_P, "seed": ENUM_GRAM_SEED, "jitter": ENUM_JITTER}))
    _cli().save_matrix_csv("enum_gram.csv", gram.entries)
    support = _indices(la.derived_rng(key, "bench", "enum", "S"), ENUM_P, ENUM_S)
    return {"S": support}


def enum_ops(key: int, inputs: dict) -> List[Op]:
    common = ["--gram", "enum_gram.csv", "--S", _join(inputs["S"]), "--N", str(ENUM_N),
              "--cap-subsets", str(ENUM_CAP)]
    return [
        Op("analyze", f"{key}/analyze",
           lambda: [cli_call("analyze", ["analyze"] + common)]),
        Op("implications", f"{key}/implications",
           lambda: [cli_call("implications", ["implications"] + common)]),
    ] * ENUM_REPEATS


def enum_warmup() -> None:
    la = _la()
    _cli().save_matrix_csv("warm_gram.csv", la.experiments.random_psd_entries(6, 1, 0.1))
    for cmd in ("analyze", "implications"):
        cli_call("warm", [cmd, "--gram", "warm_gram.csv", "--S", "0", "--N", "2"])


# ---------------------------------------------------------------------------
# sweep


def _sweep_size(rng) -> Tuple[int, int]:
    return int(rng.integers(4, 9)), int(rng.integers(1, 3))


def sweep_instance(index: int) -> dict:
    """Pool instance ``index``, drawn like acceptance criterion 8."""
    la = _la()
    rng = la.derived_rng(index, "bench", "sweep")
    p, s = _sweep_size(rng)
    jitter = float(rng.choice([0.0, 0.05, 0.2]))
    support = tuple(_indices(rng, p, s))
    big_l = float(rng.choice([1.0, 2.0, 3.0]))
    n_size = int(rng.integers(s, min(2 * s, p) + 1))
    entries = la.experiments.random_psd_entries(p, 50_000 + index, jitter)
    return {"entries": entries, "S": support, "L": big_l, "N": n_size}


def sweep_cycle(seed: int) -> list:
    """The ``SWEEP_CYCLE`` pool instances a run audits, in the order it audits them.

    Every seed takes the same number of instances of each size (p, s): the
    size's share of the pool, rounded down, plus one for the sizes with the
    largest remainders.  Size sets most of an instance's cost, so seeds
    differ in which instances they audit but little in how much work that is.
    """
    la = _la()
    by_size = {}
    for index in range(SWEEP_POOL):
        by_size.setdefault(_sweep_size(la.derived_rng(index, "bench", "sweep")), []).append(index)
    sizes = sorted(by_size)
    quota = {size: len(by_size[size]) * SWEEP_CYCLE // SWEEP_POOL for size in sizes}
    by_remainder = sorted(sizes, key=lambda size: -(len(by_size[size]) * SWEEP_CYCLE % SWEEP_POOL))
    for size in by_remainder[:SWEEP_CYCLE - sum(quota.values())]:
        quota[size] += 1
    rng = la.derived_rng(seed, "bench", "sweep", "order")
    chosen = [int(i) for size in sizes
              for i in rng.permutation(by_size[size])[:quota[size]]]
    return [chosen[i] for i in rng.permutation(len(chosen))]


def sweep_call(instance: dict) -> Output:
    """``GramMatrix`` + ``check_all`` with the reduced solver profile."""
    import json
    la = _la()
    try:
        gram = la.GramMatrix(instance["entries"])
        cone = la.ConeSpec(instance["S"], instance["L"], instance["N"])
        verdicts = la.check_all(gram, cone, la.DEFAULT_CONFIG.reduced())
        text = json.dumps([v.to_json_dict() for v in verdicts], indent=2,
                          allow_nan=False) + "\n"
        return "check_all", 0, text, ""
    except Exception as exc:  # any raise fails the operation
        return "check_all", 1, None, f"{type(exc).__name__}: {exc}"


def sweep_ops(order: list, instances: dict) -> List[Op]:
    return [Op("instance", str(index), lambda inst=instances[index]: [sweep_call(inst)])
            for index in order]


def sweep_warmup() -> None:
    la = _la()
    sweep_call({"entries": la.experiments.random_psd_entries(5, 2, 0.05),
                "S": (0,), "L": 1.0, "N": 2})


# ---------------------------------------------------------------------------
# solve


def recover_seed(key: int, i: int) -> int:
    return 70_000 + RECOVER_SEED_STRIDE * key + i


def write_solve_inputs(key: int) -> dict:
    import numpy as np
    la = _la()
    cli = _cli()
    rng = la.derived_rng(key, "bench", "solve")
    gram = la.generate(la.GeneratorSpec("random_psd", {"p": SOLVE_P, "seed": 20_000 + key}))
    cli.save_matrix_csv("solve_gram.csv", gram.entries)
    support = _indices(rng, SOLVE_P, SOLVE_S)

    beta0 = np.zeros(DESIGN_P)
    beta0[_indices(rng, DESIGN_P, DESIGN_S)] = 1.0
    problem = la.generate(la.GeneratorSpec(
        "gaussian_design",
        {"n": DESIGN_N, "p": DESIGN_P, "seed": 30_000 + key, "beta0": beta0.tolist()}))
    cli.save_matrix_csv("design_x.csv", problem.X)
    cli.save_matrix_csv("design_y.csv", problem.Y[None, :])
    cli.save_matrix_csv("design_beta0.csv", beta0[None, :])

    eye = la.GramMatrix(np.eye(RECOVER_P))
    for i in range(RECOVER_PER_KEY):
        _, rec = la.sample_gaussian_design(RECOVER_RANK, RECOVER_P, eye, recover_seed(key, i))
        cli.save_matrix_csv(f"recover_{i}.csv", rec.entries)
    rec_beta0 = np.zeros(RECOVER_P)
    rec_beta0[[0, 1]] = (1.0, -1.0)
    cli.save_matrix_csv("recover_beta0.csv", rec_beta0[None, :])
    lam_design = 2.0 * la.lambda0_bound(2, DESIGN_N, DESIGN_P)
    return {"S": support, "lambda_design": repr(lam_design)}


def solve_ops(key: int, inputs: dict) -> List[Op]:
    lasso = []
    for lam in SOLVE_LAMBDAS:
        argv = ["lasso", "--gram", "solve_gram.csv", "--S", _join(inputs["S"]), "--lambda", lam]
        lasso.append(Op("lasso", f"{key}/lasso@{lam}",
                        lambda argv=argv: [cli_call("lasso", argv)]))
    design = ["lasso", "--design", "design_x.csv", "--y", "design_y.csv",
              "--beta0", "design_beta0.csv", "--lambda", inputs["lambda_design"]]
    lasso += [Op("lasso_design", f"{key}/lasso_design",
                 lambda: [cli_call("lasso_design", design)])] * DESIGN_REPEATS
    recover = []
    for i in range(RECOVER_PER_KEY):
        argv = ["recover", "--gram", f"recover_{i}.csv", "--beta0", "recover_beta0.csv"]
        recover.append(Op("recover", f"{key}/recover_{i}",
                          lambda argv=argv: [cli_call("recover", argv)]))

    def montecarlo():
        return [cli_call(f"montecarlo_{exp}",
                         ["montecarlo", "--experiment", exp, "--n", str(n), "--p", str(p),
                          "--reps", str(MONTECARLO_REPS), "--t", "1,2,4", "--seed", str(key)])
                for exp, n, p in MONTECARLO]

    ops = []
    for first in range(0, RECOVER_PER_KEY, RECOVER_PER_ROUND):
        ops += lasso + recover[first:first + RECOVER_PER_ROUND]
        ops.append(Op("montecarlo", f"{key}/montecarlo", montecarlo))
    return ops


def solve_warmup() -> None:
    import numpy as np
    la = _la()
    cli = _cli()
    cli.save_matrix_csv("warm_gram.csv", la.experiments.random_psd_entries(8, 1, 0.1))
    cli.save_matrix_csv("warm_beta0.csv", np.array([[1.0, -1.0] + [0.0] * 6]))
    cli.save_matrix_csv("warm_y.csv", np.ones((1, 8)))
    cli_call("warm", ["lasso", "--gram", "warm_gram.csv", "--S", "0", "--lambda", "0.1"])
    cli_call("warm", ["lasso", "--design", "warm_gram.csv", "--y", "warm_y.csv",
                      "--beta0", "warm_beta0.csv", "--lambda", "0.1"])
    cli_call("warm", ["recover", "--gram", "warm_gram.csv", "--beta0", "warm_beta0.csv"])
    for exp in ("concentration", "noise"):
        cli_call("warm", ["montecarlo", "--experiment", exp, "--n", "20", "--p", "5",
                          "--reps", "100"])


# ---------------------------------------------------------------------------


class Workload:
    """Inputs written in the current directory plus the cycles that use them."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.key = instance_key(name, seed)

    def setup(self) -> None:
        """Generate and write every input; no operation runs here."""
        if self.name == "enum":
            self.inputs = write_enum_inputs(self.key)
            self._ops = enum_ops(self.key, self.inputs)
        elif self.name == "solve":
            self.inputs = write_solve_inputs(self.key)
        else:
            self._order = sweep_cycle(self.seed)
            self._instances = {i: sweep_instance(i) for i in self._order}
            self.inputs = {"order": self._order}

    def warmup(self) -> None:
        {"enum": enum_warmup, "sweep": sweep_warmup, "solve": solve_warmup}[self.name]()

    def cycle(self) -> List[Op]:
        """The operations of one cycle; the same list on every call."""
        if self.name == "sweep":
            return sweep_ops(self._order, self._instances)
        if self.name == "solve":
            return solve_ops(self.key, self.inputs)
        return self._ops
