"""Command-line front end: load matrices, run analyses, write JSON reports.

Report envelopes carry {"meta": {...}, "result": ...}; meta embeds the tool
name and version, the resolved configuration, the seed, and the wall time.
Every field except wall_time_s is byte-identical across runs with the same
configuration and seed.  Matrices travel as dense row-major CSV without a
header, floats formatted with 17 significant digits; index sets are JSON
arrays of 0-based indices.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from .constants import DEFAULT_SIGN_CAP, ConditionReport
from .core import DEFAULT_SUBSET_CAP, BoundedValue, ConeSpec, GramMatrix, _jsonable, _run_lanes
from .errors import AuditError, InvalidParameter, ParseError
from .estimators import _best_route, certified_lower_phi
from .experiments import (
    _GENERATORS,
    GeneratorSpec,
    concentration_experiment,
    generate,
    noise_bound_experiment,
)
from .implications import _Inputs, check_all
from .lasso import (
    NoisyProblem,
    basis_pursuit_recover,
    oracle_verdict,
    solve_noiseless,
    solve_noisy,
)
from .solvers import DEFAULT_CONFIG, SolverConfig

_FLOAT_FMT = "%.17g"


def save_matrix_csv(path_or_file, matrix) -> None:
    """Dense row-major CSV, no header, 17 significant digits per entry.

    Each row is formatted with one % operation and written at once, so only
    one row's text is held; a matrix without rows is written as one "\\n".
    """
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    row_fmt = ",".join([_FLOAT_FMT] * arr.shape[1]) + "\n"
    if hasattr(path_or_file, "write"):
        _write_rows(path_or_file, arr, row_fmt)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            _write_rows(fh, arr, row_fmt)


def _write_rows(fh, arr: np.ndarray, row_fmt: str) -> None:
    if arr.shape[0] == 0:
        fh.write("\n")
    for row in arr:
        fh.write(row_fmt % tuple(row.tolist()))


# np.loadtxt reads a file only when every byte is one of these; any other
# byte (another line break, a control character, a non-ASCII digit, an
# underscore) sends it to the per-cell loop, whose rules define a valid CSV
_FAST_CSV_BYTES = b"0123456789eE+-.,nNaAiIfFtTyY \t\r\n"


# lines are taken from a 64 KiB read buffer: with the default 8 KiB one a
# 300-column row of %.17g cells costs a read call, and a p = 1000 Gram row
# three, which made a load slower than one whole-file read
_CSV_READ_BUFFER = 1 << 16


class _NotFastCsv(Exception):
    """A line outside _FAST_CSV_BYTES, or a file of whitespace alone."""


def _fast_csv_lines(fh):
    """The lines of a binary file, each checked against _FAST_CSV_BYTES as
    np.loadtxt takes it; raises _NotFastCsv at the first line outside the
    alphabet, or at the end of a file of whitespace alone (np.loadtxt would
    warn and return an empty array, the loop names the file)."""
    data = False
    for line in fh:
        if line.translate(None, _FAST_CSV_BYTES):
            raise _NotFastCsv
        data = data or not line.isspace()
        yield line
    if not data:
        raise _NotFastCsv


def load_matrix_csv(path: str) -> np.ndarray:
    """Parse a dense numeric CSV; malformed cells report 1-based line/column.

    Blank lines are skipped and each cell is parsed by float().  A file of
    digits, signs, exponents, nan/inf spellings, commas and whitespace alone
    is parsed by np.loadtxt, which reads it line by line, so the file's bytes
    are never held whole; a file it refuses is read again and parsed cell by
    cell, so the accepted files, the values and the messages are the loop's.
    An input that cannot seek (a pipe) is read once into memory first.
    """
    try:
        with open(path, "rb", buffering=_CSV_READ_BUFFER) as fh:
            source = fh if fh.seekable() else io.BytesIO(fh.read())
            try:
                return np.loadtxt(_fast_csv_lines(source), delimiter=",",
                                  comments=None, ndmin=2)
            except (_NotFastCsv, ValueError):
                pass
            source.seek(0)
            raw = source.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"row has {len(cells)} fields, expected {width}", lineno, len(cells)
            )
        row = []
        for colno, cell in enumerate(cells, start=1):
            try:
                row.append(float(cell))
            except ValueError:
                raise ParseError(f"not a number: {cell.strip()!r}", lineno, colno) from None
        rows.append(row)
    if not rows:
        raise ParseError(f"{path} contains no data rows")
    return np.asarray(rows, dtype=float)


def load_vector_csv(path: str) -> np.ndarray:
    """A vector as a single CSV row or a single CSV column."""
    arr = load_matrix_csv(path)
    if arr.shape[0] == 1:
        return arr[0].copy()
    if arr.shape[1] == 1:
        return arr[:, 0].copy()
    raise ParseError(f"expected a vector, got a {arr.shape[0]}x{arr.shape[1]} matrix")


def parse_index_list(text: str):
    """Comma-separated 0-based indices -> sorted unique tuple."""
    try:
        members = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip() != ""}))
    except ValueError:
        raise InvalidParameter(f"cannot parse index list {text!r}") from None
    if not members:
        raise InvalidParameter("index list must be nonempty")
    if members[0] < 0:
        raise InvalidParameter(f"indices must be nonnegative, got {members[0]}")
    return members


def parse_float_list(text: str):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise InvalidParameter(f"cannot parse number list {text!r}") from None
    if not values:
        raise InvalidParameter("number list must be nonempty")
    return values


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: one command plus every knob it may consume."""

    command: str
    gram_path: Optional[str] = None
    design_path: Optional[str] = None
    y_path: Optional[str] = None
    beta0_path: Optional[str] = None
    s_members: Optional[tuple] = None
    big_l: float = 1.0
    n_set: Optional[int] = None
    lam: Optional[float] = None
    t_list: tuple = (1.0, 2.0, 4.0)
    reps: int = 2000
    seed: int = 0
    cap_subsets: int = DEFAULT_SUBSET_CAP
    cap_signs: int = DEFAULT_SIGN_CAP
    tol: float = 1e-9
    out: Optional[str] = None
    experiment: str = "concentration"
    kind: Optional[str] = None
    p: Optional[int] = None
    s_size: Optional[int] = None
    rho: Optional[float] = None
    block_size: Optional[int] = None
    n_samples: Optional[int] = None
    jitter: float = 0.0
    noise_sd: float = 1.0

    def __post_init__(self):
        for flag, cap in (("--cap-subsets", self.cap_subsets), ("--cap-signs", self.cap_signs)):
            if cap < 1:
                raise InvalidParameter(f"{flag} must be at least 1, got {cap}")
        numbers = (("--L", self.big_l), ("--lambda", self.lam), ("--tol", self.tol),
                   ("--jitter", self.jitter), ("--rho", self.rho), ("--noise-sd", self.noise_sd))
        numbers += tuple(("--t", t) for t in self.t_list)
        for flag, value in numbers:
            if value is not None and not math.isfinite(value):
                raise InvalidParameter(f"{flag} must be finite, got {value!r}")

    def solver_config(self) -> SolverConfig:
        return replace(DEFAULT_CONFIG, tol=self.tol, seed=self.seed)

    def to_json_dict(self) -> dict:
        return _jsonable(self)


def _resolve_seed(seed_arg: Optional[int]) -> int:
    if seed_arg is not None:
        return seed_arg
    env = os.environ.get("LASSO_AUDIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidParameter(f"LASSO_AUDIT_SEED={env!r} is not an integer") from None
    return 0


def _load_gram(config: RunConfig) -> GramMatrix:
    if config.gram_path is None:
        raise InvalidParameter(f"command {config.command!r} requires --gram")
    return GramMatrix(load_matrix_csv(config.gram_path))


def _cone_for(config: RunConfig, p: int) -> ConeSpec:
    if not config.s_members:
        raise InvalidParameter(f"command {config.command!r} requires a nonempty --S")
    s = len(config.s_members)
    n_set = config.n_set if config.n_set is not None else s
    cone = ConeSpec(config.s_members, config.big_l, n_set)
    cone.validate_p(p)
    return cone


def _beta0_for(config: RunConfig, p: int) -> np.ndarray:
    """--beta0 file when given, else the indicator vector of S."""
    if config.s_members and max(config.s_members) >= p:
        raise InvalidParameter(f"S index {max(config.s_members)} out of range for p={p}")
    if config.beta0_path is not None:
        beta0 = load_vector_csv(config.beta0_path)
        if beta0.shape != (p,):
            raise InvalidParameter(f"beta0 has length {beta0.shape[0]}, expected {p}")
        if not np.all(np.isfinite(beta0)):
            raise InvalidParameter("beta0 must be finite")
        return beta0
    if not config.s_members:
        raise InvalidParameter("need --beta0 or a nonempty --S to build the target vector")
    beta0 = np.zeros(p)
    beta0[list(config.s_members)] = 1.0
    return beta0


# the quantities analyze reports, in the order it computes them; the five
# feasible-point searches are independent, each drawing from its own derived
# stream and caching under its own key, so they run on lanes
_BEFORE_SEARCHES = ("lambda2", "delta_N", "theta", "theta_uniform", "rip", "weak_rip",
                    "irr_uniform", "irr_part2", "irr_part3", "mutual", "cumulative", "alpha")
_SEARCHES = ("phi_compat", "phi_re", "phi_re_adaptive", "theta_rr", "theta_rr_adaptive")
_AFTER_SEARCHES = ("phi_lower_routes",)


def condition_report(gram: GramMatrix, cone: ConeSpec,
                     config: SolverConfig = DEFAULT_CONFIG,
                     cap: int = DEFAULT_SUBSET_CAP,
                     sign_cap: int = DEFAULT_SIGN_CAP) -> ConditionReport:
    """Every named condition constant for one (gram, cone) pair, each read
    by its report key from the quantities the implication edges read.

    Constants whose computation raises an audit error appear under errors
    instead of entries; booleans are encoded as 1.0 / 0.0 entries with their
    witnesses alongside.
    """
    report = ConditionReport(context={
        "p": gram.p,
        "fingerprint": gram.fingerprint(),
        "S": list(cone.S),
        "L": cone.L,
        "N": cone.N,
    })
    inputs = _Inputs(gram, cone, config, cap, sign_cap)

    def attempt(key):
        try:
            return inputs.get(key), None
        except AuditError as exc:
            return None, exc

    def entry(key, value):
        if key == "phi_lower_routes":
            report.witnesses[key] = value
            return _best_route(value)
        if key not in ("irr_part2", "irr_part3"):
            return value
        ok, witness = value
        if key == "irr_part3":
            witness = ({"certified_sign_vectors": 2 ** cone.s} if ok else
                       {"failing_tau_S": list(witness["failing_tau_S"]) if witness else None})
        report.witnesses[key] = witness
        return BoundedValue.exact(1.0 if ok else 0.0, provenance="boolean condition")

    outcomes = [attempt(key) for key in _BEFORE_SEARCHES]
    outcomes += _run_lanes([functools.partial(inputs.get, key) for key in _SEARCHES])
    outcomes += [attempt(key) for key in _AFTER_SEARCHES]
    for key, (value, error) in zip(_BEFORE_SEARCHES + _SEARCHES + _AFTER_SEARCHES, outcomes):
        if error is None:
            report.entries[key] = entry(key, value)
        else:
            report.errors[key] = f"{type(error).__name__}: {error}"
    return report


def _cmd_analyze(config: RunConfig):
    gram = _load_gram(config)
    cone = _cone_for(config, gram.p)
    report = condition_report(gram, cone, config.solver_config(),
                              config.cap_subsets, config.cap_signs)
    return report.to_json_dict(), 0


def _cmd_lasso(config: RunConfig):
    if config.lam is None:
        raise InvalidParameter("command 'lasso' requires --lambda")
    solver = config.solver_config()
    if config.design_path is not None:
        if config.y_path is None:
            raise InvalidParameter("--design requires --y with the response vector")
        x = load_matrix_csv(config.design_path)
        y = load_vector_csv(config.y_path)
        beta0 = None if config.beta0_path is None else load_vector_csv(config.beta0_path)
        problem = NoisyProblem(x, y, beta0=beta0)
        if beta0 is not None:
            # with a known truth the realized noise is determined by the data
            problem = replace(problem, epsilon=problem.Y - problem.X @ problem.beta0)
        solution, verdict = solve_noisy(problem, config.lam, solver)
        result = {
            "solution": solution.to_json_dict(),
            "verdict": None if verdict is None else verdict.to_json_dict(),
        }
        skipped = verdict is not None and verdict.premise_ok is False
        return result, (2 if skipped else 0)
    gram = _load_gram(config)
    beta0 = _beta0_for(config, gram.p)
    support = config.s_members or tuple(int(j) for j in np.flatnonzero(beta0))
    if not support:
        raise InvalidParameter("the target vector is zero; give --S or a nonzero --beta0")
    solution = solve_noiseless(gram, beta0, config.lam, solver)
    cone = ConeSpec(support, config.big_l,
                    config.n_set if config.n_set is not None else len(support))
    cone.validate_p(gram.p)
    phi_lower = certified_lower_phi(gram, cone, target="compatibility", cap=config.cap_subsets)
    phi_2s = None
    if 2 * cone.s <= gram.p:
        phi_2s = certified_lower_phi(gram, cone.with_(L=1.0, N=2 * cone.s),
                                     target="restricted_eigenvalue", variant="plain",
                                     cap=config.cap_subsets)
    verdict = oracle_verdict(gram, solution, cone, config.lam, phi_lower, phi_2s)
    return {"solution": solution.to_json_dict(), "verdict": verdict.to_json_dict()}, 0


def _cmd_recover(config: RunConfig):
    gram = _load_gram(config)
    beta0 = _beta0_for(config, gram.p)
    beta_lp, recovered, route = basis_pursuit_recover(gram, beta0, config.solver_config())
    return {
        "beta_lp": [float(v) for v in beta_lp],
        "recovered": bool(recovered),
        "max_abs_error": float(np.max(np.abs(beta_lp - beta0))),
        "route": route,
    }, 0


def _cmd_implications(config: RunConfig):
    gram = _load_gram(config)
    cone = _cone_for(config, gram.p)
    verdicts = check_all(gram, cone, config.solver_config(),
                         config.cap_subsets, config.cap_signs)
    result = [v.to_json_dict() for v in verdicts]
    all_skipped = all(v.skipped for v in verdicts)
    return result, (2 if all_skipped else 0)


def _cmd_montecarlo(config: RunConfig):
    if config.n_samples is None or config.p is None:
        raise InvalidParameter("command 'montecarlo' requires --n and --p")
    if config.n_samples < 1 or config.p < 1:
        raise InvalidParameter(
            f"--n and --p must be at least 1, got n={config.n_samples}, p={config.p}")
    if config.experiment == "concentration":
        if config.gram_path is not None:
            population = _load_gram(config)
        else:
            population = GramMatrix(np.eye(config.p))
        result = concentration_experiment(config.n_samples, config.p, population,
                                          config.reps, config.t_list, config.seed)
    elif config.experiment == "noise":
        result = noise_bound_experiment(config.n_samples, config.p, config.reps,
                                        config.t_list, config.seed)
    else:
        raise InvalidParameter(f"unknown experiment {config.experiment!r}")
    return result.to_json_dict(), 0


def _cmd_generate(config: RunConfig):
    if config.kind is None:
        raise InvalidParameter("command 'generate' requires --kind")
    # --p, --s, --rho, --block-size and --n go to every kind when given, so
    # GeneratorSpec refuses one the kind never reads; --seed, --jitter and
    # --noise-sd always hold a value and go only to a kind whose row lists them
    given = (("p", config.p), ("s", config.s_size), ("rho", config.rho),
             ("block_size", config.block_size), ("n", config.n_samples))
    defaulted = (("seed", config.seed), ("jitter", config.jitter), ("noise_sd", config.noise_sd))
    reads = _GENERATORS[config.kind][0] if config.kind in _GENERATORS else ()
    params = {name: value for name, value in given if value is not None}
    params.update((name, value) for name, value in defaulted if name in reads)
    produced = generate(GeneratorSpec(config.kind, params))
    matrix = produced.X if isinstance(produced, NoisyProblem) else produced.entries
    if config.out is not None:
        save_matrix_csv(config.out, matrix)
    else:
        save_matrix_csv(sys.stdout, matrix)
    return None, 0


# flag -> (RunConfig field, argparse keywords); no flag has a parser default,
# so a flag left out takes RunConfig's default
_FLAGS = {
    "--gram": ("gram_path", {"help": "dense CSV Gram matrix (row-major, no header)"}),
    "--design": ("design_path", {"help": "dense CSV design matrix; rows are observations"}),
    "--y": ("y_path", {"help": "response vector CSV (row or column)"}),
    "--beta0": ("beta0_path",
                {"help": "target coefficient vector CSV; default: indicator of S"}),
    "--S": ("s_members", {"help": "comma-separated 0-based active indices"}),
    "--L": ("big_l", {"type": float, "help": "cone constant L"}),
    "--N": ("n_set", {"type": int, "help": "enlargement size N (default |S|)"}),
    "--lambda": ("lam", {"type": float, "help": "l1 penalty level"}),
    "--t": ("t_list", {"help": "comma-separated tail parameters"}),
    "--reps": ("reps", {"type": int}),
    "--seed": ("seed", {"type": int,
                        "help": "root seed; falls back to LASSO_AUDIT_SEED, then 0"}),
    "--cap-subsets": ("cap_subsets", {"type": int}),
    "--cap-signs": ("cap_signs", {"type": int}),
    "--tol": ("tol", {"type": float}),
    "--out": ("out", {"help": "output path (default: stdout)"}),
    "--experiment": ("experiment", {"choices": ("concentration", "noise")}),
    "--kind": ("kind", {"help": "generator kind"}),
    "--p": ("p", {"type": int}),
    "--s": ("s_size", {"type": int}),
    "--rho": ("rho", {"type": float}),
    "--block-size": ("block_size", {"type": int}),
    "--n": ("n_samples", {"type": int}),
    "--jitter": ("jitter", {"type": float}),
    "--noise-sd": ("noise_sd", {"type": float}),
}

_AUDIT_FLAGS = ("--gram", "--S", "--L", "--N", "--seed", "--cap-subsets", "--cap-signs", "--tol")

# command -> (handler, the flags its code path reads besides --out)
_COMMANDS = {
    "analyze": (_cmd_analyze, _AUDIT_FLAGS),
    "lasso": (_cmd_lasso, ("--gram", "--design", "--y", "--beta0", "--S", "--L", "--N",
                           "--lambda", "--cap-subsets", "--tol")),
    "recover": (_cmd_recover, ("--gram", "--beta0", "--S")),
    "implications": (_cmd_implications, _AUDIT_FLAGS),
    "montecarlo": (_cmd_montecarlo,
                   ("--experiment", "--gram", "--n", "--p", "--reps", "--t", "--seed")),
    "generate": (_cmd_generate, ("--kind", "--p", "--s", "--rho", "--block-size", "--n",
                                 "--seed", "--jitter", "--noise-sd")),
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the exit code and writes the report.

    0 on success, 2 when every requested check was skipped on a failed
    premise, 1 on errors.
    """
    if config.command not in _COMMANDS:
        raise InvalidParameter(f"unknown command {config.command!r}")
    start = time.perf_counter()
    handler, _ = _COMMANDS[config.command]
    result, code = handler(config)
    if result is None:
        return code
    envelope = {
        "meta": {
            "tool": "lasso-audit",
            "version": __version__,
            "command": config.command,
            "config": config.to_json_dict(),
            "seed": config.seed,
            "wall_time_s": time.perf_counter() - start,
        },
        "result": result,
    }
    text = json.dumps(envelope, indent=2, allow_nan=False) + "\n"
    if config.out is not None:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser tree: one parser per command, each with its flags."""
    parser = argparse.ArgumentParser(
        prog="lasso-audit",
        description="Audit design-matrix conditions for l1-penalized least squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        for flag in flags + ("--out",):
            dest, keywords = _FLAGS[flag]
            cmd.add_argument(flag, dest=dest, **keywords)
    return parser


@functools.cache
def _cached_parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call in a process: a parse
    leaves no state in the parser, and the tree costs about 2 ms to build."""
    return build_parser()


def _refuse_unread_flags(given: dict) -> None:
    """Refuse the given flags that the chosen form of a command never reads;
    given holds the fields of the flags on the command line."""
    command = given["command"]
    if command == "lasso" and "design_path" in given:
        # the noisy form takes S from beta0, computes L itself and bounds
        # phi^2 at the default cap
        form, unread = "lasso --design", ("--gram", "--S", "--L", "--N", "--cap-subsets")
    elif command == "montecarlo" and given.get("experiment") == "noise":
        form, unread = "montecarlo --experiment noise", ("--gram",)
    elif command == "generate" and given.get("kind") in _GENERATORS:
        # these flags are the generator parameters of the same name
        form = f"generate --kind {given['kind']}"
        reads, _ = _GENERATORS[given["kind"]]
        unread = tuple(flag for flag in ("--seed", "--jitter", "--noise-sd")
                       if _FLAGS[flag][0] not in reads)
    else:
        return
    ignored = [flag for flag in unread if _FLAGS[flag][0] in given]
    if ignored:
        raise InvalidParameter(f"{form} takes no {', '.join(ignored)}")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The given flags, converted; RunConfig supplies every other field.
    A flag the chosen form never reads is refused before anything is read."""
    given = {field: value for field, value in vars(args).items() if value is not None}
    _refuse_unread_flags(given)
    if "s_members" in given:
        given["s_members"] = parse_index_list(given["s_members"]) if given["s_members"] else None
    if "t_list" in given:
        given["t_list"] = parse_float_list(given["t_list"])
    if "seed" in vars(args):
        given["seed"] = _resolve_seed(args.seed)
    return RunConfig(**given)


def main(argv=None) -> int:
    args = _cached_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config)
    except AuditError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
