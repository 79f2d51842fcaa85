"""Reusable optimization engines.

Exact l1-ball projection, projected gradient for convex quadratics over a
projectable set, cyclic coordinate descent for the l1-penalized quadratic,
and a dense two-phase simplex with Bland's rule.  All engines are
deterministic for a fixed configuration.

The simplex pivots with whole-array operations that do the floating-point
work of an element-by-element Bland loop in the same order, so its pivot
counts and results are bit-identical to such a loop.  Phase 1 is bounded
below by 0: a column it reports without a positive entry ends the phase and
the phase-1 objective decides feasibility.  LPProblem rejects non-finite
data, on which Bland's ratio order is undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameter, MaxItersExceeded, ZeroDiagonal

_PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 100_000
    tol: float = 1e-9
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        # a NaN tol never stops coordinate descent and an infinite one stops
        # it after one sweep
        if self.max_iters < 1 or not (0.0 < self.tol < math.inf) or self.samples < 0:
            raise InvalidParameter("invalid solver configuration")

    def reduced(self) -> "SolverConfig":
        """Cheaper search profile for large instances (fewer cone samples);
        certified bounds are unaffected."""
        return replace(self, samples=20_000)


DEFAULT_CONFIG = SolverConfig()

# unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0 ** -53


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u): a dot product of length n computed in
    floating point, in any summation order, is off by at most gamma_n |x|'|y|
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1)."""
    nu = n * _UNIT_ROUNDOFF
    return nu / (1.0 - nu)


def project_l1_ball(v, radius: float) -> np.ndarray:
    """Euclidean projection onto {x : ||x||_1 <= radius} by sort and threshold."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise InvalidParameter("project_l1_ball expects a vector")
    if not np.all(np.isfinite(v)) or not np.isfinite(radius) or radius < 0:
        raise InvalidParameter("projection needs finite inputs and radius >= 0")
    return _project_l1_ball(v, radius)


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """project_l1_ball without its checks, for callers that project a
    finite float vector onto a ball of valid radius on every step."""
    if radius == 0.0:
        return np.zeros_like(v)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    cumsum = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    rho = int(np.flatnonzero(u * ks > (cumsum - radius))[-1])
    theta = (cumsum[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def lipschitz_estimate(quadratic: np.ndarray, iters: int = 50) -> float:
    """2 * lambda_max(Q) estimated by fixed-count power iteration."""
    q = np.asarray(quadratic, dtype=float)
    n = q.shape[0]
    x = np.ones(n) / np.sqrt(n)
    # deterministic tie-breaker so symmetric sign structures cannot stall
    x += np.arange(n) * (1e-6 / max(n, 1))
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = q @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        lam = float(x @ y)
        x = y / norm
    return 2.0 * abs(lam)


def projected_gradient_qp(quadratic, linear, projection, config: SolverConfig = DEFAULT_CONFIG,
                          x0=None, lipschitz=None):
    """Minimize x'Qx + c'x over a convex set given by an exact projection map.

    Returns (x, value, residual) where residual is the sup-norm of the
    projected-gradient step x - P(x - grad/L).  Raises MaxItersExceeded with
    the best iterate attached when the budget runs out.
    """
    q = np.asarray(quadratic, dtype=float)
    c = np.asarray(linear, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or c.shape != (q.shape[0],):
        raise InvalidParameter("quadratic must be square and linear must match")
    lip = lipschitz if lipschitz is not None else lipschitz_estimate(q)
    lip = max(lip * 1.01, 1e-12)

    def value(x):
        return float(x @ q @ x + c @ x)

    x = projection(np.zeros(q.shape[0]) if x0 is None else np.asarray(x0, dtype=float))
    fx = value(x)
    residual = np.inf
    for _ in range(config.max_iters):
        grad = 2.0 * (q @ x) + c
        nxt = projection(x - grad / lip)
        fn = value(nxt)
        doublings = 0
        # fixed step is only valid when lip >= 2 lambda_max; recover if the
        # power-iteration estimate was low
        while fn > fx + 1e-12 * max(1.0, abs(fx)) and doublings < 60:
            lip *= 2.0
            nxt = projection(x - grad / lip)
            fn = value(nxt)
            doublings += 1
        residual = float(np.max(np.abs(x - nxt)))
        x, fx = nxt, fn
        if residual <= config.tol:
            return x, fx, residual
    raise MaxItersExceeded(
        f"projected gradient did not reach tol={config.tol} in {config.max_iters} iters",
        best=(x, fx, residual),
    )


def soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def _stationarity_residual(grad, lam: float, beta) -> float:
    """Sup-norm violation of the stationarity conditions of f(beta) + lam ||beta||_1
    given grad = the gradient of f at beta: |grad_j + lam sign(beta_j)| on the
    active coordinates, max(0, |grad_j| - lam) on the others, 0 when p = 0."""
    violation = np.where(beta != 0.0, np.abs(grad + lam * np.sign(beta)),
                         np.maximum(np.abs(grad) - lam, 0.0))
    return float(violation.max(initial=0.0))


def coordinate_descent_lasso(quadratic, correlation, lam: float, config: SolverConfig = DEFAULT_CONFIG,
                             start=None):
    """Minimize beta'Q beta - 2 c'beta + lam ||beta||_1 by cyclic coordinate descent.

    Termination is on the KKT residual (sup-norm <= config.tol), which is the
    exact optimality certificate for this convex objective, or on a residual
    within 2 gamma_{p+1} (max|Q_ij| ||beta||_1 + ||c||_inf), a bound on the
    rounding of the gradient 2(Q beta - c) it is computed from, below which
    it no longer measures the distance to optimality.  That bound scales
    with Q and c, so a large-scale problem whose rounding exceeds tol still
    stops.  Returns (beta, residual, sweeps).
    """
    q = np.asarray(quadratic, dtype=float)
    c = np.asarray(correlation, dtype=float)
    p = q.shape[0]
    if q.shape != (p, p) or c.shape != (p,):
        raise InvalidParameter("shape mismatch in coordinate descent")
    if lam < 0:
        raise InvalidParameter("lam must be nonnegative")
    diag = np.diag(q).copy()
    if np.any(diag <= 0.0):
        raise ZeroDiagonal("coordinate descent needs strictly positive diagonal")
    beta = np.zeros(p) if start is None else np.asarray(start, dtype=float).copy()
    g = q @ beta
    half = lam / 2.0
    best = None
    q_max = float(max(q.max(initial=0.0), -q.min(initial=0.0)))
    c_max = float(np.abs(c).max(initial=0.0))
    for sweep in range(1, config.max_iters + 1):
        for j in range(p):
            old = beta[j]
            z = c[j] - (g[j] - diag[j] * old)
            new = soft_threshold(z, half) / diag[j]
            if new != old:
                beta[j] = new
                g += q[:, j] * (new - old)
        residual = _stationarity_residual(2.0 * (g - c), lam, beta)
        if best is None or residual < best[1]:
            best = (beta.copy(), residual, sweep)
        if residual <= config.tol or residual <= 2.0 * _gamma(p + 1) * (
                q_max * float(np.abs(beta).sum()) + c_max):
            return beta, residual, sweep
    raise MaxItersExceeded(
        f"coordinate descent did not reach tol={config.tol} in {config.max_iters} sweeps",
        best=best,
    )


@dataclass(frozen=True)
class LPProblem:
    """min c'x subject to A x = b, x >= 0."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        a = np.asarray(self.a_eq, dtype=float)
        b = np.asarray(self.b_eq, dtype=float)
        if a.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise InvalidParameter("LPProblem needs matrix A and vectors c, b")
        if a.shape != (b.shape[0], c.shape[0]):
            raise InvalidParameter("LPProblem shape mismatch")
        # Bland's ratio order is undefined once a NaN enters the tableau
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InvalidParameter("LPProblem needs finite c, A and b")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_eq", a)
        object.__setattr__(self, "b_eq", b)


@dataclass(frozen=True)
class SimplexResult:
    status: str  # Optimal | Infeasible | Unbounded
    x: np.ndarray
    objective: float
    duals: np.ndarray
    pivots: int


def _pivot(tableau, basis, row, col):
    """Make column col basic in row: scale the pivot row, then eliminate col
    from every other row by one rank-1 update.

    Rows whose entry in col is zero are left untouched, so their signed
    zeros survive exactly as a row-by-row elimination would leave them.
    """
    tableau[row] /= tableau[row, col]
    coef = tableau[:, col].copy()
    coef[row] = 0.0
    upd = np.flatnonzero(coef)
    tableau[upd] -= coef[upd, None] * tableau[row]
    basis[row] = col


def _simplex_phase(tableau, basis, limit, pivots):
    """Run Bland-rule pivoting on a tableau whose last row holds reduced costs.

    Returns (pivots, None) at optimality and (pivots, column) when that
    entering column has no positive entry (an unbounded direction).
    """
    m = tableau.shape[0] - 1
    while True:
        improving = tableau[-1, :-1] < -_PIVOT_TOL
        entering = int(np.argmax(improving))
        if not improving[entering]:
            return pivots, None
        col = tableau[:m, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            return pivots, entering
        ratios = tableau[rows, -1] / col[rows]
        # Bland: among the ratios within a relative window of the minimum,
        # leave the row with the smallest basis index
        best = ratios.min()
        tied = rows[ratios <= best + _PIVOT_TOL * (1 + abs(best))]
        _pivot(tableau, basis, tied[np.argmin(basis[tied])], entering)
        pivots += 1
        if pivots > limit:
            raise MaxItersExceeded(f"simplex exceeded {limit} pivots")


def simplex_lp(problem: LPProblem, config: SolverConfig = DEFAULT_CONFIG) -> SimplexResult:
    """Two-phase dense tableau simplex with Bland's anti-cycling rule."""
    a = problem.a_eq.copy()
    b = problem.b_eq.copy()
    c = problem.c.copy()
    m, n = a.shape
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    limit = max(config.max_iters, 10_000)

    # phase 1: artificial variables
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    basis = np.arange(n, n + m)
    tableau[-1, :] = -tableau[:m, :].sum(axis=0)
    tableau[-1, n : n + m] = 0.0
    # the phase-1 objective is bounded below by 0, so a column reported as
    # an unbounded direction can only be a reduced cost rounded just past
    # the tolerance; the feasibility test below decides either way
    pivots, _ = _simplex_phase(tableau, basis, limit, 0)
    phase1_value = -tableau[-1, -1]
    if phase1_value > 1e-8 * max(1.0, float(np.max(np.abs(b)) if b.size else 1.0)):
        return SimplexResult("Infeasible", np.full(n, np.nan), np.nan, np.full(m, np.nan), pivots)

    # drive remaining artificials out of the basis
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            candidates = np.flatnonzero(np.abs(tableau[i, :n]) > _PIVOT_TOL)
            if candidates.size == 0:
                drop_rows.append(i)  # redundant constraint
                continue
            _pivot(tableau, basis, i, candidates[0])
            pivots += 1
    keep = [i for i in range(m) if i not in drop_rows]
    rows = keep + [m]
    tableau = tableau[np.ix_(rows, list(range(n)) + [n + m])]
    basis = basis[keep]
    m2 = len(keep)

    # phase 2
    tableau[-1, :-1] = c
    tableau[-1, -1] = 0.0
    # row by row on purpose: c_B @ tableau would sum in another order and
    # change the bits of the reduced costs
    for i in range(m2):
        if c[basis[i]] != 0.0:
            tableau[-1] -= c[basis[i]] * tableau[i]
    pivots, unbounded = _simplex_phase(tableau, basis, limit, pivots)
    if unbounded is not None:
        return SimplexResult("Unbounded", np.full(n, np.nan), -np.inf, np.full(m, np.nan), pivots)

    x = np.zeros(n)
    for i in range(m2):
        x[basis[i]] = tableau[i, -1]
    objective = float(c @ x)
    # duals from the final basis; rows were sign-flipped to make b >= 0, so
    # flip the corresponding multipliers back for the original system
    duals = np.zeros(m)
    if m2 > 0:
        bmat = a[np.ix_(keep, basis)]
        try:
            y = np.linalg.solve(bmat.T, c[basis])
        except np.linalg.LinAlgError:
            y = np.full(m2, np.nan)
        for pos, i in enumerate(keep):
            duals[i] = -y[pos] if flip[i] else y[pos]
    return SimplexResult("Optimal", x, objective, duals, pivots)
