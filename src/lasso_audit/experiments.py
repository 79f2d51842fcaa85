"""Worked-example Gram matrices, Gaussian design sampling, and Monte Carlo
verification of the tail bounds used by the noisy analysis.

Generators are pure functions of their spec: the same spec yields a
bit-identical matrix on every platform.  All randomness flows through
counter-based streams derived from the generator seed, with Gaussian draws by the
Box-Muller map z = sqrt(-2 ln(1 - U1)) cos(2 pi U2); matrix square roots go
through an eigendecomposition with negative eigenvalues clamped at zero so
rank-deficient populations sample cleanly.

The Monte Carlo experiments draw each replication from its own stream,
derived from the seed and the replication index, and store each statistic in
its own slot.  Large replications run on core._run_lanes, the package's one
thread driver (NumPy's random fill, its ufuncs and BLAS release the
interpreter lock); the statistics, and so the reports, are the same whatever
the number of lanes or their scheduling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core import GramMatrix, _jsonable, _run_lanes, derived_rng
from .errors import InvalidParameter
from .lasso import NoisyProblem, lambda0_bound

# kind -> the parameters generate reads for it; any other is refused
_KIND_PARAMETERS = {
    "identity": {"p"},
    "equicorrelation": {"p", "rho"},
    "toeplitz_geometric": {"p", "rho"},
    "block_equicorrelation": {"p", "block_size", "rho"},
    "rank_one_cross": {"p", "s", "rho", "b1", "b2"},
    "coupled_pair": {"p", "s", "rho"},
    "random_psd": {"p", "seed", "jitter", "normalize"},
    "gaussian_design": {"n", "p", "seed", "population", "beta0", "noise_sd"},
}
GENERATOR_KINDS = tuple(_KIND_PARAMETERS)


@dataclass(frozen=True)
class GeneratorSpec:
    """A named matrix construction plus its parameter map."""

    kind: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise InvalidParameter(
                f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}"
            )
        reads = _KIND_PARAMETERS[self.kind]
        unread = [key for key in self.parameters if key not in reads]
        if unread:
            raise InvalidParameter(
                f"generator kind {self.kind!r} takes no parameter {unread[0]!r} "
                f"(it reads {', '.join(sorted(reads))})"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        if not isinstance(data, dict) or "kind" not in data:
            raise InvalidParameter("generator spec must be a mapping with a 'kind' entry")
        params = data.get("parameters", {k: v for k, v in data.items() if k != "kind"})
        if not isinstance(params, dict):
            raise InvalidParameter("generator parameters must be a mapping")
        return cls(str(data["kind"]), dict(params))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "parameters": dict(self.parameters)}


def _box_muller(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via z = sqrt(-2 ln(1 - U1)) cos(2 pi U2), for an int
    or tuple shape.  U1 and U2 are drawn as one block, which is the same
    stream as two draws, and the arithmetic runs in place in that block."""
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    u1, u2 = rng.random((2, *shape))
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


# replications drawing fewer numbers than this run in the caller's thread.
# Medians of 5 runs of 2000 concentration replications on a 2-vCPU host, BLAS
# on one thread, serial against 2 threads: 1000 draws 0.26 s vs 0.37 s, 2000
# and 3000 draws about even, 4100 draws 0.71 s vs 0.55 s
_POOL_MIN_DRAWS = 4096
# streams derived per round of lanes, which bounds the generators held at
# once whatever the number of replications
_POOL_ROUND = 256


def _replicate(statistic, stream, reps: int, draws_per_rep: int) -> np.ndarray:
    """[statistic(stream(r)) for r in range(reps)] as a float array.

    stream(r) always runs in the caller's thread.  Replications of at least
    _POOL_MIN_DRAWS draws run on core._run_lanes, in rounds of _POOL_ROUND
    streams; each result goes to its own slot, so the array does not depend
    on the lane count.  An exception raised by a replication reaches the
    caller.
    """
    if draws_per_rep < _POOL_MIN_DRAWS:
        return np.array([statistic(stream(r)) for r in range(reps)], dtype=float)
    out = []
    for first in range(0, reps, _POOL_ROUND):
        tasks = [functools.partial(statistic, stream(r))
                 for r in range(first, min(first + _POOL_ROUND, reps))]
        for value, error in _run_lanes(tasks):
            if error is not None:
                raise error
            out.append(value)
    return np.array(out, dtype=float)


def _psd_sqrt(entries: np.ndarray) -> np.ndarray:
    """Symmetric square root with negative eigenvalues clamped at zero."""
    vals, vecs = np.linalg.eigh(entries)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _need_int(params: dict, key: str, minimum: int = 1) -> int:
    if key not in params:
        raise InvalidParameter(f"missing generator parameter {key!r}")
    value = params[key]
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise InvalidParameter(f"parameter {key!r} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _need_rho(params: dict, default: Optional[float] = None) -> float:
    if "rho" not in params:
        if default is not None:
            return default
        raise InvalidParameter("missing generator parameter 'rho'")
    rho = float(params["rho"])
    if not 0.0 <= rho < 1.0:
        raise InvalidParameter(f"parameter 'rho' must satisfy 0 <= rho < 1, got {rho!r}")
    return rho


def equicorrelation_entries(p: int, rho: float) -> np.ndarray:
    return (1.0 - rho) * np.eye(p) + rho * np.ones((p, p))


def toeplitz_geometric_entries(p: int, rho: float) -> np.ndarray:
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def rank_one_cross_entries(p: int, s: int, rho: float,
                           b1=None, b2=None) -> np.ndarray:
    """Identity head block, identity tail block, and a rank-one cross block
    rho * b2 b1' with unit vectors b1 (head) and b2 (tail)."""
    if not 1 <= s < p:
        raise InvalidParameter(f"need 1 <= s < p, got s={s}, p={p}")
    b1 = np.full(s, 1.0 / math.sqrt(s)) if b1 is None else np.asarray(b1, dtype=float)
    if b2 is None:
        b2 = np.zeros(p - s)
        b2[0] = 1.0
    else:
        b2 = np.asarray(b2, dtype=float)
    if b1.shape != (s,) or b2.shape != (p - s,):
        raise InvalidParameter("b1 must have length s and b2 length p - s")
    for name, v in (("b1", b1), ("b2", b2)):
        if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
            raise InvalidParameter(f"{name} must have unit Euclidean norm")
    sig = np.eye(p)
    cross = rho * np.outer(b2, b1)
    sig[s:, :s] = cross
    sig[:s, s:] = cross.T
    return sig


def coupled_pair_entries(p: int, s: int, rho: float) -> np.ndarray:
    """First two active coordinates correlated at rho, everything else
    orthonormal: diag(diag([[1, rho], [rho, 1]], I_{s-2}), I_{p-s})."""
    if s <= 2:
        raise InvalidParameter(f"need s > 2, got s={s}")
    if p < s:
        raise InvalidParameter(f"need p >= s, got p={p}, s={s}")
    sig = np.eye(p)
    sig[0, 1] = sig[1, 0] = rho
    return sig


def block_equicorrelation_entries(p: int, block_size: int, rho: float) -> np.ndarray:
    if p % block_size != 0:
        raise InvalidParameter(f"block_size {block_size} must divide p {p}")
    block = equicorrelation_entries(block_size, rho)
    out = np.zeros((p, p))
    for start in range(0, p, block_size):
        out[start:start + block_size, start:start + block_size] = block
    return out


def random_psd_entries(p: int, seed: int, jitter: float = 0.0,
                       normalize: bool = True) -> np.ndarray:
    """A'A / p from Box-Muller normals, optional ridge, optionally rescaled
    to unit diagonal.  The normals are dropped once A'A is formed and the
    rest runs in place, so at most three p x p arrays are held at once."""
    rng = derived_rng(seed, "generate", "random_psd", p)
    a = _box_muller(rng, (p, p))
    sig = a.T @ a
    del a  # a view of the draw block, which holds U1 and U2
    sig /= p
    sig += float(jitter) * np.eye(p)
    if normalize:
        d = np.sqrt(np.diag(sig))
        if float(np.min(d)) <= 0.0:
            raise InvalidParameter("cannot normalize a matrix with a zero diagonal entry")
        sig /= np.outer(d, d)
    return (sig + sig.T) / 2.0


def generate(spec: GeneratorSpec) -> Union[GramMatrix, NoisyProblem]:
    """Materialize the matrix (or sampled regression problem) a spec names."""
    params = spec.parameters
    kind = spec.kind
    if kind == "identity":
        return GramMatrix(np.eye(_need_int(params, "p")))
    if kind == "equicorrelation":
        p = _need_int(params, "p")
        return GramMatrix(equicorrelation_entries(p, _need_rho(params)))
    if kind == "toeplitz_geometric":
        p = _need_int(params, "p")
        return GramMatrix(toeplitz_geometric_entries(p, _need_rho(params)))
    if kind == "block_equicorrelation":
        p = _need_int(params, "p")
        m = _need_int(params, "block_size")
        return GramMatrix(block_equicorrelation_entries(p, m, _need_rho(params)))
    if kind == "rank_one_cross":
        p = _need_int(params, "p")
        s = _need_int(params, "s")
        return GramMatrix(rank_one_cross_entries(p, s, _need_rho(params),
                                                 params.get("b1"), params.get("b2")))
    if kind == "coupled_pair":
        p = _need_int(params, "p")
        s = _need_int(params, "s")
        return GramMatrix(coupled_pair_entries(p, s, _need_rho(params)))
    if kind == "random_psd":
        p = _need_int(params, "p")
        seed = _need_int(params, "seed", minimum=0) if "seed" in params else 0
        return GramMatrix(random_psd_entries(p, seed, float(params.get("jitter", 0.0)),
                                             bool(params.get("normalize", True))))
    if kind == "gaussian_design":
        return _generate_gaussian_design(params)
    raise InvalidParameter(f"unknown generator kind {kind!r}")


def _generate_gaussian_design(params: dict) -> NoisyProblem:
    n = _need_int(params, "n")
    p = _need_int(params, "p")
    seed = _need_int(params, "seed", minimum=0) if "seed" in params else 0
    pop = params.get("population")
    if pop is None:
        population = GramMatrix(np.eye(p))
    elif isinstance(pop, GramMatrix):
        population = pop
    elif isinstance(pop, dict):
        population = generate(GeneratorSpec.from_dict(pop))
        if not isinstance(population, GramMatrix):
            raise InvalidParameter("population spec must generate a Gram matrix")
    else:
        population = GramMatrix(np.asarray(pop, dtype=float))
    x = _design_rows(n, p, population, seed)
    beta0 = params.get("beta0")
    if beta0 is None:
        beta0 = np.zeros(p)
    else:
        beta0 = np.asarray(beta0, dtype=float)
        if beta0.shape != (p,):
            raise InvalidParameter(f"beta0 must have length {p}")
    sd = float(params.get("noise_sd", 1.0))
    if sd < 0.0:
        raise InvalidParameter(f"noise_sd must be nonnegative, got {sd!r}")
    eps = sd * _box_muller(derived_rng(seed, "generate", "gaussian_design", "noise"), n)
    y = x @ beta0 + eps
    return NoisyProblem(x, y, beta0=beta0, epsilon=eps)


def _design_rows(n: int, p: int, population: GramMatrix, seed: int) -> np.ndarray:
    """n i.i.d. rows with the population covariance, as an (n, p) array X."""
    if n < 1 or p < 1:
        raise InvalidParameter(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if population.p != p:
        raise InvalidParameter(f"population is {population.p}x{population.p}, expected p={p}")
    root = _psd_sqrt(population.entries)
    z = _box_muller(derived_rng(seed, "gaussian-design", n, p), (n, p))
    return z @ root


def sample_gaussian_design(n: int, p: int, population: GramMatrix, seed: int):
    """n i.i.d. rows with the population covariance; returns (X, inner-product
    matrix X'X / n)."""
    x = _design_rows(n, p, population, seed)
    sighat = x.T @ x / n
    return x, GramMatrix((sighat + sighat.T) / 2.0)


def lambda_tilde(t: float, n: int, p: int) -> float:
    """Concentration radius sqrt((4t + 8 ln p)/n) + (4t + 8 ln p)/n."""
    if t < 0.0 or n < 1 or p < 1:
        raise InvalidParameter(f"need t >= 0, n >= 1, p >= 1, got t={t}, n={n}, p={p}")
    ratio = (4.0 * t + 8.0 * math.log(p)) / n
    return math.sqrt(ratio) + ratio


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical tail frequencies against their theoretical bounds.

    empirical_tail[i] is the observed frequency of the bad event at
    t_values[i]; bound[i] = 2 exp(-t).  passed[i] allows three binomial
    standard deviations plus 1/reps of slack on top of the bound.
    """

    kind: str
    reps: int
    t_values: tuple
    thresholds: tuple
    empirical_tail: tuple
    bound: tuple
    passed: tuple

    def __post_init__(self):
        for e in self.empirical_tail:
            if not 0.0 <= e <= 1.0:
                raise InvalidParameter(f"empirical tail frequency {e!r} outside [0, 1]")

    def to_json_dict(self) -> dict:
        out = _jsonable(self)
        out["pass"] = out.pop("passed")
        return out


def _tail_verdicts(kind: str, reps: int, t_values, thresholds, statistics) -> MonteCarloResult:
    stats = np.asarray(statistics, dtype=float)
    empirical, bounds, passed = [], [], []
    for t, thr in zip(t_values, thresholds):
        emp = float(np.mean(stats > thr))
        bound = 2.0 * math.exp(-float(t))
        clipped = min(max(bound, 0.0), 1.0)
        slack = 3.0 * math.sqrt(clipped * (1.0 - clipped) / reps) + 1.0 / reps
        empirical.append(emp)
        bounds.append(bound)
        passed.append(bool(emp <= bound + slack))
    return MonteCarloResult(kind, reps, tuple(float(t) for t in t_values),
                            tuple(float(x) for x in thresholds),
                            tuple(empirical), tuple(bounds), tuple(passed))


def concentration_experiment(n: int, p: int, population: GramMatrix, reps: int,
                             t_list, seed: int = 0) -> MonteCarloResult:
    """Frequency of d_inf(inner-product matrix, population) exceeding the
    concentration radius, per t, against the 2 exp(-t) bound."""
    if reps < 100:
        raise InvalidParameter(f"need reps >= 100, got {reps}")
    if population.p != p:
        raise InvalidParameter(f"population is {population.p}x{population.p}, expected p={p}")
    t_values = [float(t) for t in t_list]
    if not t_values:
        raise InvalidParameter("t_list must be nonempty")
    thresholds = [lambda_tilde(t, n, p) for t in t_values]
    pop = population.entries
    root = _psd_sqrt(pop)

    def distance(rng):
        x = _box_muller(rng, (n, p)) @ root
        sighat = x.T @ x / n
        return float(np.max(np.abs(sighat - pop)))

    distances = _replicate(distance, lambda r: derived_rng(seed, "concentration", r),
                           reps, n * p)
    return _tail_verdicts("concentration", reps, t_values, thresholds, distances)


def noise_bound_experiment(n: int, p: int, reps: int, t_list,
                           seed: int = 0) -> MonteCarloResult:
    """Frequency of the empirical noise level 2 max_j |(psi_j, eps)_n|
    exceeding its theoretical quantile, per t, against 2 exp(-t).

    The design is a fixed Gaussian draw with every column rescaled to exact
    unit length in the n-averaged inner product, as the quantile formula
    requires.
    """
    if reps < 100:
        raise InvalidParameter(f"need reps >= 100, got {reps}")
    t_values = [float(t) for t in t_list]
    if not t_values:
        raise InvalidParameter("t_list must be nonempty")
    thresholds = [lambda0_bound(t, n, p) for t in t_values]
    x = _box_muller(derived_rng(seed, "noise-bound", "design", n, p), (n, p))
    norms = np.sqrt(np.mean(x * x, axis=0))
    norms[norms == 0.0] = 1.0
    x = x / norms

    def level(rng):
        return 2.0 * float(np.max(np.abs(x.T @ _box_muller(rng, n)))) / n

    levels = _replicate(level, lambda r: derived_rng(seed, "noise-bound", r), reps, n)
    return _tail_verdicts("noise", reps, t_values, thresholds, levels)
