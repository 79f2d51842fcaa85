"""Optimization engines against closed forms and enumeration oracles."""

import itertools
import math

import numpy as np
import pytest

from lasso_audit import (
    DEFAULT_CONFIG,
    GramMatrix,
    LPProblem,
    SolverConfig,
    coordinate_descent_lasso,
    project_l1_ball,
    projected_gradient_qp,
    simplex_lp,
    soft_threshold,
)
from lasso_audit.errors import InvalidParameter, MaxItersExceeded, SingularBlock
from lasso_audit import solvers
from lasso_audit.experiments import equicorrelation_entries, random_psd_entries, sample_gaussian_design
from lasso_audit.lasso import kkt_residual
from lasso_audit.solvers import (
    _PIVOT_TOL,
    SimplexResult,
    _pivot,
    _stationarity_residual,
)


class TestSolverConfig:
    def test_defaults(self):
        assert DEFAULT_CONFIG.max_iters == 100_000
        assert DEFAULT_CONFIG.tol == 1e-9

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            SolverConfig(max_iters=0)
        with pytest.raises(InvalidParameter):
            SolverConfig(tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_rejected(self, tol):
        # NaN would run coordinate descent to max_iters, inf stop it after one sweep
        with pytest.raises(InvalidParameter):
            SolverConfig(tol=tol)

    def test_reduced_profile(self):
        cfg = DEFAULT_CONFIG.reduced()
        assert cfg.samples == 20_000
        assert cfg.tol == DEFAULT_CONFIG.tol  # accuracy untouched


class TestProjectL1Ball:
    def test_hand_values(self):
        np.testing.assert_allclose(project_l1_ball(np.array([3.0, 0.0]), 1.0), [1.0, 0.0])
        np.testing.assert_allclose(project_l1_ball(np.array([2.0, 1.0]), 2.0), [1.5, 0.5])
        np.testing.assert_allclose(project_l1_ball(np.array([-2.0, 1.0]), 2.0), [-1.5, 0.5])

    def test_inside_ball_is_identity(self):
        v = np.array([0.3, -0.2, 0.1])
        out = project_l1_ball(v, 1.0)
        np.testing.assert_array_equal(out, v)
        assert out is not v  # always a fresh array

    def test_zero_radius(self):
        np.testing.assert_array_equal(project_l1_ball(np.array([1.0, -2.0]), 0.0), [0.0, 0.0])

    def test_feasible_and_idempotent(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            v = rng.standard_normal(6) * 3.0
            r = float(rng.random() * 2.0 + 0.1)
            out = project_l1_ball(v, r)
            assert np.abs(out).sum() <= r * (1.0 + 1e-12)
            np.testing.assert_allclose(project_l1_ball(out, r), out, atol=1e-12)

    def test_closest_point_property(self):
        # projection beats every sampled feasible point in euclidean distance
        rng = np.random.default_rng(43)
        for _ in range(20):
            v = rng.standard_normal(5) * 2.0
            r = 1.0
            out = project_l1_ball(v, r)
            d0 = float(np.linalg.norm(v - out))
            for _ in range(40):
                w = rng.standard_normal(5)
                w = w / np.abs(w).sum() * r * rng.random()
                assert d0 <= float(np.linalg.norm(v - w)) + 1e-12

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            project_l1_ball(np.ones((2, 2)), 1.0)
        with pytest.raises(InvalidParameter):
            project_l1_ball(np.array([np.inf]), 1.0)
        with pytest.raises(InvalidParameter):
            project_l1_ball(np.array([1.0]), -1.0)


def test_soft_threshold():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    assert soft_threshold(-1.0, 1.0) == 0.0


def exact_lipschitz(q) -> float:
    """2 lambda_max(Q), the Lipschitz constant of the gradient of x'Qx + c'x."""
    return 2.0 * float(np.linalg.eigvalsh(q)[-1])


class TestProjectedGradientQP:
    def test_nonnegative_orthant_closed_form(self):
        # min x'x - 2 x1 + 2 x2 over x >= 0 has minimizer (1, 0), value -1
        q = np.eye(2)
        c = np.array([-2.0, 2.0])
        x, fx, res = projected_gradient_qp(q, c, lambda v: np.maximum(v, 0.0), lipschitz=2.0)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-7)
        assert fx == pytest.approx(-1.0, abs=1e-9)
        assert res <= DEFAULT_CONFIG.tol

    def test_simplex_uniform_minimum(self):
        # min x'x over the hyperplane sum x = 1: uniform weights
        n = 4

        def proj(v):
            return v - (v.sum() - 1.0) / n

        x, fx, _ = projected_gradient_qp(np.eye(n), np.zeros(n), proj, lipschitz=2.0)
        np.testing.assert_allclose(x, np.full(n, 0.25), atol=1e-7)
        assert fx == pytest.approx(0.25, abs=1e-9)

    def test_iteration_limit_carries_best(self):
        cfg = SolverConfig(max_iters=2, tol=1e-15)
        q = np.diag([1.0, 100.0])
        c = np.array([-1.0, -1.0])
        with pytest.raises(MaxItersExceeded) as info:
            projected_gradient_qp(q, c, lambda v: np.maximum(v, 0.0), cfg, lipschitz=200.0)
        x, fx, res = info.value.best
        assert x.shape == (2,)
        assert math.isfinite(fx)
        assert res > cfg.tol

    def test_shape_validation(self):
        with pytest.raises(InvalidParameter):
            projected_gradient_qp(np.eye(2), np.zeros(3), lambda v: v, lipschitz=2.0)

    @pytest.mark.parametrize("lip", [0.0, -1.0, math.nan, math.inf])
    def test_lipschitz_must_be_positive_and_finite(self, lip):
        with pytest.raises(InvalidParameter):
            projected_gradient_qp(np.eye(2), np.zeros(2), lambda v: v, lipschitz=lip)

    # converged runs and unconverged ones
    @pytest.mark.parametrize("max_iters, radius, converged", [
        (100_000, 0.7, True), (1, 0.7, False), (3, 5.0, False)])
    def test_value_is_the_objective_of_the_returned_point(self, max_iters, radius, converged):
        # the returned value is the objective of the returned point, bit for
        # bit
        rng = np.random.default_rng(53)
        for _ in range(5):
            a = rng.standard_normal((5, 5))
            q = a.T @ a / 5
            c = rng.standard_normal(5)
            try:
                x, fx, _ = projected_gradient_qp(q, c, lambda v: project_l1_ball(v, radius),
                                                 SolverConfig(max_iters=max_iters),
                                                 lipschitz=exact_lipschitz(q))
                assert converged
            except MaxItersExceeded as exc:
                x, fx, _ = exc.best
                assert not converged
            assert np.float64(fx).tobytes() == np.float64(float(x @ q @ x + c @ x)).tobytes()


def lasso_enumeration_oracle(q, c, lam):
    """Global minimizer of beta'Q beta - 2 c'beta + lam ||beta||_1 for tiny p
    by sign-pattern enumeration of the KKT system."""
    p = q.shape[0]
    best, best_val = None, math.inf
    for signs in itertools.product((-1, 0, 1), repeat=p):
        active = [j for j in range(p) if signs[j] != 0]
        beta = np.zeros(p)
        if active:
            sig = np.array([signs[j] for j in active], dtype=float)
            try:
                sol = np.linalg.solve(
                    2.0 * q[np.ix_(active, active)],
                    2.0 * c[active] - lam * sig,
                )
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(sol) != sig):
                continue
            beta[active] = sol
        grad = 2.0 * (q @ beta - c)
        ok = all(
            abs(grad[j] + lam * signs[j]) <= 1e-8 if signs[j] != 0 else abs(grad[j]) <= lam + 1e-8
            for j in range(p)
        )
        if not ok:
            continue
        val = float(beta @ q @ beta - 2.0 * c @ beta + lam * np.abs(beta).sum())
        if val < best_val:
            best, best_val = beta, val
    return best, best_val


def _loop_kkt_residual(q, c, lam, beta):
    """Per-element sup-norm violation of the stationarity conditions of
    beta'Q beta - 2 c'beta + lam ||beta||_1: the reference for
    solvers._stationarity_residual."""
    grad = 2.0 * (q @ beta - c)
    res = 0.0
    for j in range(beta.shape[0]):
        if beta[j] != 0.0:
            res = max(res, abs(grad[j] + lam * np.sign(beta[j])))
        else:
            res = max(res, max(0.0, abs(grad[j]) - lam))
    return float(res)


class TestStationarityResidual:
    """The one KKT residual, used by coordinate descent and lasso.kkt_residual,
    against the per-element loop: equal floats, not approximately equal."""

    def test_equals_loop_reference(self):
        rng = np.random.default_rng(71)
        for trial in range(200):
            p = int(rng.integers(1, 9))
            a = rng.standard_normal((p + 2, p))
            gram = GramMatrix(a.T @ a / (p + 2) + 0.05 * np.eye(p))
            q = gram.entries
            c = rng.standard_normal(p)
            beta = rng.standard_normal(p)  # trial % 4 == 3: every coordinate active
            if trial % 4 == 0:
                beta[:] = 0.0
            elif trial % 4 == 1:
                beta[rng.random(p) < 0.5] = 0.0
            elif trial % 4 == 2:
                beta[rng.random(p) < 0.5] = -0.0
            # lam = 0 meets every pattern above (trials 0, 5, 10, 15, ...)
            lam = 0.0 if trial % 5 == 0 else float(rng.choice([0.1, 0.7, 3.0]))
            want = _loop_kkt_residual(q, c, lam, beta)
            assert _stationarity_residual(2.0 * (q @ beta - c), lam, beta) == want
            got, _ = kkt_residual(gram, c, lam, beta, is_correlation=True)
            assert got == want

    def test_empty_vector(self):
        assert _stationarity_residual(np.zeros(0), 0.5, np.zeros(0)) == 0.0


class TestCoordinateDescent:
    def test_identity_soft_threshold_closed_form(self):
        c = np.array([1.0, -0.4, 0.1])
        lam = 0.6
        beta, res, _ = coordinate_descent_lasso(np.eye(3), c, lam)
        want = [soft_threshold(v, lam / 2.0) for v in c]
        np.testing.assert_allclose(beta, want, atol=1e-9)
        assert res <= DEFAULT_CONFIG.tol

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            a = rng.standard_normal((4, 3))
            q = a.T @ a / 4.0 + 0.1 * np.eye(3)
            c = rng.standard_normal(3)
            lam = float(rng.choice([0.1, 0.5, 1.0]))
            beta, _, _ = coordinate_descent_lasso(q, c, lam)
            oracle_beta, oracle_val = lasso_enumeration_oracle(q, c, lam)
            assert oracle_beta is not None
            val = float(beta @ q @ beta - 2.0 * c @ beta + lam * np.abs(beta).sum())
            assert val == pytest.approx(oracle_val, abs=1e-8)
            np.testing.assert_allclose(beta, oracle_beta, atol=1e-6)

    def test_kkt_residual_zero_at_oracle(self):
        q = np.array([[1.0, 0.3], [0.3, 1.0]])
        c = np.array([0.8, -0.6])
        lam = 0.4
        oracle_beta, _ = lasso_enumeration_oracle(q, c, lam)
        assert _stationarity_residual(2.0 * (q @ oracle_beta - c), lam, oracle_beta) <= 1e-8
        bad = oracle_beta + 0.1
        assert _stationarity_residual(2.0 * (q @ bad - c), lam, bad) > 1e-3

    def test_warm_start(self):
        q = np.array([[1.0, 0.2], [0.2, 1.0]])
        c = np.array([1.0, 1.0])
        cold, _, _ = coordinate_descent_lasso(q, c, 0.3)
        warm, _, sweeps = coordinate_descent_lasso(q, c, 0.3, start=cold)
        np.testing.assert_allclose(warm, cold, atol=1e-9)
        assert sweeps <= 2

    def test_zero_diagonal_rejected(self):
        q = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(SingularBlock):
            coordinate_descent_lasso(q, np.ones(2), 0.1)

    def test_iteration_limit_carries_best(self):
        cfg = SolverConfig(max_iters=1, tol=1e-16)
        q = np.array([[1.0, 0.9], [0.9, 1.0]])
        with pytest.raises(MaxItersExceeded) as info:
            coordinate_descent_lasso(q, np.array([1.0, -1.0]), 0.01, cfg)
        beta, res, sweeps = info.value.best
        assert beta.shape == (2,)
        assert sweeps == 1

    @pytest.mark.parametrize("scale", [2.0 ** 27, 2.0 ** 40])
    def test_stops_at_the_rounding_of_its_gradient(self, scale):
        # at scale 1 the residual reaches tol; scaled, it stalls above the
        # absolute tol but within the rounding of the scaled gradient
        q = random_psd_entries(3, 3, 0.05)
        want, _, _ = coordinate_descent_lasso(q, q[:, 0], 0.1)
        got, res, _ = coordinate_descent_lasso(scale * q, scale * q[:, 0], scale * 0.1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert res > DEFAULT_CONFIG.tol

    def test_unit_scale_stops_on_tol_alone(self, monkeypatch):
        rng = np.random.default_rng(53)
        for _ in range(10):
            a = rng.standard_normal((6, 5))
            q, c = a.T @ a / 6.0 + 0.1 * np.eye(5), rng.standard_normal(5)
            got = coordinate_descent_lasso(q, c, 0.1)
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_gamma", lambda n: 0.0)
                want = coordinate_descent_lasso(q, c, 0.1)
            assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            coordinate_descent_lasso(np.eye(2), np.zeros(3), 0.1)
        with pytest.raises(InvalidParameter):
            coordinate_descent_lasso(np.eye(2), np.zeros(2), -0.1)


def lp_vertex_oracle(c, a, b):
    """Minimum over basic feasible solutions; assumes a bounded optimum."""
    m, n = a.shape
    best = math.inf
    for cols in itertools.combinations(range(n), m):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_b = np.linalg.solve(sub, b)
        if np.any(x_b < -1e-9):
            continue
        x = np.zeros(n)
        x[list(cols)] = x_b
        best = min(best, float(c @ x))
    return best


class TestSimplex:
    def test_known_optimum(self):
        # min -x1 - x2 st x1 + x2 + slack = 1
        problem = LPProblem(c=np.array([-1.0, -1.0, 0.0]),
                            a_eq=np.array([[1.0, 1.0, 1.0]]),
                            b_eq=np.array([1.0]))
        result = simplex_lp(problem)
        assert result.status == "Optimal"
        assert result.objective == pytest.approx(-1.0, abs=1e-10)
        np.testing.assert_allclose(problem.a_eq @ result.x, problem.b_eq, atol=1e-10)
        assert np.all(result.x >= -1e-12)

    def test_negative_rhs_handled(self):
        # -x1 = -1 with x >= 0 is feasible at x1 = 1
        problem = LPProblem(c=np.array([1.0]), a_eq=np.array([[-1.0]]),
                            b_eq=np.array([-1.0]))
        result = simplex_lp(problem)
        assert result.status == "Optimal"
        np.testing.assert_allclose(result.x, [1.0], atol=1e-10)

    def test_infeasible(self):
        problem = LPProblem(c=np.array([1.0]), a_eq=np.array([[1.0]]),
                            b_eq=np.array([-1.0]))
        assert simplex_lp(problem).status == "Infeasible"

    def test_unbounded(self):
        # x1 - x2 = 0 lets both grow; profit -x1 without limit
        problem = LPProblem(c=np.array([-1.0, 0.0]),
                            a_eq=np.array([[1.0, -1.0]]),
                            b_eq=np.array([0.0]))
        assert simplex_lp(problem).status == "Unbounded"

    def test_redundant_row_dropped(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        problem = LPProblem(c=np.array([1.0, 2.0]), a_eq=a, b_eq=np.array([1.0, 2.0]))
        result = simplex_lp(problem)
        assert result.status == "Optimal"
        assert result.objective == pytest.approx(1.0, abs=1e-10)

    def test_vertex_enumeration_oracle(self):
        rng = np.random.default_rng(59)
        hits = 0
        for _ in range(25):
            a = rng.standard_normal((2, 5))
            x0 = np.abs(rng.standard_normal(5))
            b = a @ x0  # guarantees feasibility
            c = np.abs(rng.standard_normal(5))  # objective bounded below by 0
            problem = LPProblem(c=c, a_eq=a, b_eq=b)
            result = simplex_lp(problem)
            assert result.status == "Optimal"
            want = lp_vertex_oracle(c, a, b)
            assert result.objective == pytest.approx(want, abs=1e-7)
            hits += 1
        assert hits == 25

    def test_duals_satisfy_strong_duality(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            a = rng.standard_normal((2, 4))
            b = a @ np.abs(rng.standard_normal(4))
            c = np.abs(rng.standard_normal(4)) + 0.1
            result = simplex_lp(LPProblem(c=c, a_eq=a, b_eq=b))
            assert result.status == "Optimal"
            assert float(b @ result.duals) == pytest.approx(result.objective, abs=1e-7)
            assert np.all(c - a.T @ result.duals >= -1e-7)

    def test_pivot_count_reported(self):
        problem = LPProblem(c=np.array([-1.0, -1.0, 0.0]),
                            a_eq=np.array([[1.0, 1.0, 1.0]]),
                            b_eq=np.array([1.0]))
        assert simplex_lp(problem).pivots >= 1

    def test_non_finite_input_rejected(self):
        good = dict(c=np.ones(2), a_eq=np.ones((1, 2)), b_eq=np.ones(1))
        LPProblem(**good)
        for name, bad in (("c", np.array([1.0, np.nan])),
                          ("a_eq", np.array([[1.0, np.inf]])),
                          ("b_eq", np.array([-np.inf]))):
            with pytest.raises(InvalidParameter, match="finite"):
                LPProblem(**{**good, name: bad})


def _loop_simplex_phase(tableau, basis, n_real, limit, pivots, ties):
    """Element-by-element Bland pivoting: the reference the vectorized
    solver must match bit for bit.  Appends to ties every ratio test whose
    window held more than one row."""
    m = tableau.shape[0] - 1
    while True:
        costs = tableau[-1, :-1]
        entering = -1
        for j in range(costs.shape[0]):
            if costs[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return pivots, None
        ratios = []
        for i in range(m):
            a = tableau[i, entering]
            if a > _PIVOT_TOL:
                ratios.append((tableau[i, -1] / a, basis[i], i))
        if not ratios:
            return pivots, entering  # unbounded direction
        # Bland: among minimal ratios leave the smallest basis index
        ratios.sort(key=lambda t: (t[0], t[1]))
        best_ratio = ratios[0][0]
        window = [row for ratio, bidx, row in ratios
                  if ratio <= best_ratio + _PIVOT_TOL * (1 + abs(best_ratio))]
        if len(window) > 1:
            ties.append(pivots)
        leave_row = min(window, key=lambda r: basis[r])
        pivot = tableau[leave_row, entering]
        tableau[leave_row] /= pivot
        for i in range(tableau.shape[0]):
            if i != leave_row and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leave_row]
        basis[leave_row] = entering
        pivots += 1
        if pivots > limit:
            raise MaxItersExceeded(f"simplex exceeded {limit} pivots")


def _loop_simplex_lp(problem, ties, config=DEFAULT_CONFIG):
    """Two-phase simplex with per-element loops: the reference for simplex_lp.

    Phase 1 follows simplex_lp's rule: a reported direction ends the phase
    and the feasibility test decides.
    """
    a = problem.a_eq.copy()
    b = problem.b_eq.copy()
    c = problem.c.copy()
    m, n = a.shape
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    limit = max(config.max_iters, 10_000)
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    basis = list(range(n, n + m))
    tableau[-1, :] = -tableau[:m, :].sum(axis=0)
    tableau[-1, n : n + m] = 0.0
    pivots, _ = _loop_simplex_phase(tableau, basis, n, limit, 0, ties)
    phase1_value = -tableau[-1, -1]
    if phase1_value > 1e-8 * max(1.0, float(np.max(np.abs(b)) if b.size else 1.0)):
        return SimplexResult("Infeasible", np.full(n, np.nan), np.nan, np.full(m, np.nan), pivots)
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            found = -1
            for j in range(n):
                if abs(tableau[i, j]) > _PIVOT_TOL:
                    found = j
                    break
            if found < 0:
                drop_rows.append(i)
                continue
            pivot = tableau[i, found]
            tableau[i] /= pivot
            for k in range(tableau.shape[0]):
                if k != i and tableau[k, found] != 0.0:
                    tableau[k] -= tableau[k, found] * tableau[i]
            basis[i] = found
            pivots += 1
    keep = [i for i in range(m) if i not in drop_rows]
    rows = keep + [m]
    tableau = tableau[np.ix_(rows, list(range(n)) + [n + m])]
    basis = [basis[i] for i in keep]
    m2 = len(keep)
    tableau[-1, :-1] = c
    tableau[-1, -1] = 0.0
    for i in range(m2):
        if c[basis[i]] != 0.0:
            tableau[-1] -= c[basis[i]] * tableau[i]
    pivots, unbounded = _loop_simplex_phase(tableau, basis, n, limit, pivots, ties)
    if unbounded is not None:
        return SimplexResult("Unbounded", np.full(n, np.nan), -np.inf, np.full(m, np.nan), pivots)
    x = np.zeros(n)
    for i in range(m2):
        x[basis[i]] = tableau[i, -1]
    objective = float(c @ x)
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


def _basis_pursuit_lp(entries, beta0):
    """The LP basis_pursuit_recover solves, for a Gram given by its entries."""
    vals, vecs = np.linalg.eigh(entries)
    v_r = vecs[:, vals > 1e-10 * max(float(vals[-1]), 1e-300)]
    return LPProblem(c=np.ones(2 * entries.shape[0]),
                     a_eq=np.concatenate([v_r.T, -v_r.T], axis=1), b_eq=v_r.T @ beta0)


class TestSimplexMatchesLoopReference:
    """The vectorized pivots do the loops' floating-point work in the loops'
    order, so status, pivot count and every bit of x, duals and objective
    agree with the element-by-element reference."""

    @staticmethod
    def assert_identical(problem):
        ties = []
        want = _loop_simplex_lp(problem, ties)
        got = simplex_lp(problem)
        assert got.status == want.status
        assert got.pivots == want.pivots
        assert got.x.tobytes() == want.x.tobytes()
        assert got.duals.tobytes() == want.duals.tobytes()
        assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
        return ties

    def test_rank_deficient_basis_pursuit(self):
        beta0 = np.zeros(30)
        beta0[[0, 1]] = (1.0, -1.0)
        eye = GramMatrix(np.eye(30))
        for seed in range(30):
            _, gram = sample_gaussian_design(18, 30, eye, 500 + seed)
            self.assert_identical(_basis_pursuit_lp(gram.entries, beta0))

    def test_ratio_ties_broken_by_basis_index(self):
        # duplicated columns and equicorrelation give equal ratios, so the
        # smallest-basis-index rule picks the leaving row
        rng = np.random.default_rng(67)
        ties = []
        for _ in range(10):
            a = rng.standard_normal((3, 4))
            a = np.concatenate([a, a], axis=1)
            b = a @ np.abs(rng.standard_normal(8))
            c = np.abs(np.tile(rng.standard_normal(4), 2))
            ties += self.assert_identical(LPProblem(c=c, a_eq=a, b_eq=b))
        x = rng.standard_normal((6, 5))
        beta0 = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        ties += self.assert_identical(_basis_pursuit_lp(np.tile(x.T @ x / 6, (2, 2)), beta0))
        beta0 = np.zeros(12)
        beta0[[0, 1]] = (1.0, -1.0)
        ties += self.assert_identical(_basis_pursuit_lp(equicorrelation_entries(12, 0.3), beta0))
        assert ties

    def test_pivot_skips_rows_with_zero_coefficient(self):
        # updating row 1 would compute -0.0 - 0.0 * -0.5 = +0.0 and lose the
        # sign a row-by-row elimination keeps
        tableau = np.array([[2.0, -1.0, 4.0], [0.0, -0.0, 1.0], [1.0, 3.0, 0.0]])
        basis = np.array([5, 6])
        _pivot(tableau, basis, 0, 0)
        assert np.signbit(tableau[1, 1])
        assert tableau.tolist() == [[1.0, -0.5, 2.0], [0.0, -0.0, 1.0], [0.0, 3.5, -2.0]]
        assert basis.tolist() == [0, 6]

    def test_phase_outcomes(self):
        cases = [
            ([-1.0, -1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0], "Optimal"),
            ([1.0], [[-1.0]], [-1.0], "Optimal"),
            ([1.0], [[1.0]], [-1.0], "Infeasible"),
            ([-1.0, 0.0], [[1.0, -1.0]], [0.0], "Unbounded"),
            ([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], "Optimal"),
        ]
        for c, a, b, status in cases:
            problem = LPProblem(c=np.array(c), a_eq=np.array(a), b_eq=np.array(b))
            self.assert_identical(problem)
            assert simplex_lp(problem).status == status
