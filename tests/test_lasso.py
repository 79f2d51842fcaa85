"""Penalized solves and the verdict layer around them."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from lasso_audit import (
    ConeSpec,
    GramMatrix,
    NoisyProblem,
    SubsetN,
    antiprojection_identity_check,
    approximation_verdict,
    basis_pursuit_recover,
    certified_lower_phi,
    cone_membership,
    irrepresentable_signed,
    derived_rng,
    kkt_residual,
    lambda0_bound,
    lambda0_of_data,
    oracle_verdict,
    sample_gaussian_design,
    selection_report,
    solve_noiseless,
    solve_noisy,
    soft_threshold,
)
from lasso_audit import lasso
from lasso_audit.errors import InvalidParameter, SingularBlock

from conftest import random_gram


def equicorr(p, rho):
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    return GramMatrix(sigma)


class TestSolveNoiseless:
    def test_identity_soft_threshold_closed_form(self):
        g = GramMatrix(np.eye(4))
        beta0 = np.array([1.0, -0.4, 0.2, 0.0])
        lam = 0.5
        sol = solve_noiseless(g, beta0, lam)
        want = [soft_threshold(v, lam / 2.0) for v in beta0]
        np.testing.assert_allclose(sol.beta_star, want, atol=1e-9)
        assert sol.kkt_residual <= 1e-9
        assert sol.active_set == (0, 1)  # 0.2 sits below the lam/2 threshold

    def test_objective_never_beats_truth(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            g = random_gram(rng, 5)
            beta0 = np.zeros(5)
            beta0[[0, 2]] = rng.standard_normal(2)
            sol = solve_noiseless(g, beta0, 0.3)
            # beta = beta0 is feasible with value lam * ||beta0||_1
            assert sol.objective <= 0.3 * np.abs(beta0).sum() + 1e-9

    def test_error_vector_lives_in_the_cone(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            g = random_gram(rng, 6)
            beta0 = np.zeros(6)
            beta0[[1, 4]] = [1.0, -2.0]
            sol = solve_noiseless(g, beta0, 0.2)
            diff = sol.beta_star - beta0
            if np.abs(diff[[1, 4]]).sum() == 0.0:
                continue  # exact recovery has no cone direction to test
            assert cone_membership(diff, ConeSpec(S=(1, 4), L=1.0, N=2))

    def test_kkt_subgradient_bounds(self):
        g = equicorr(5, 0.4)
        sol = solve_noiseless(g, [1.0, 1.0, 0.0, 0.0, 0.0], 0.3)
        assert np.max(np.abs(sol.tau_star)) <= 1.0 + 1e-12
        for j in sol.active_set:
            assert sol.tau_star[j] == np.sign(sol.beta_star[j])

    def test_validation(self):
        g = GramMatrix(np.eye(3))
        with pytest.raises(InvalidParameter):
            solve_noiseless(g, np.zeros(3), 0.0)
        with pytest.raises(InvalidParameter):
            solve_noiseless(g, np.zeros(4), 0.1)


def test_kkt_residual_flags_bad_candidates():
    g = GramMatrix(np.eye(3))
    beta0 = np.array([1.0, 0.0, 0.0])
    res_opt, tau = kkt_residual(g, beta0, 0.5, np.array([0.75, 0.0, 0.0]))
    assert res_opt <= 1e-12
    assert tau[0] == 1.0
    res_bad, _ = kkt_residual(g, beta0, 0.5, np.array([1.0, 0.0, 0.0]))
    assert res_bad == pytest.approx(0.5, abs=1e-12)


class TestOracleVerdict:
    def test_identity_hand_instance(self):
        g = GramMatrix(np.eye(4))
        cone = ConeSpec(S=(0, 1), L=1.0, N=2)
        sol = solve_noiseless(g, [1.0, 1.0, 0.0, 0.0], 0.5)
        phi = certified_lower_phi(g, cone)
        phi2s = certified_lower_phi(g, cone.with_(N=4), target="restricted_eigenvalue")
        v = oracle_verdict(g, sol, cone, 0.5, phi, phi2s)
        assert v.lhs == pytest.approx(0.125, abs=1e-12)
        assert v.rhs == pytest.approx(0.5, abs=1e-12)
        assert v.holds and v.l1_holds and v.l2_holds
        assert v.empirical_phi0 == pytest.approx(2.0, abs=1e-12)
        assert v.l1_error == pytest.approx(0.5, abs=1e-12)
        assert v.l1_bound == pytest.approx(2.0, abs=1e-12)
        assert v.l2_error == pytest.approx(0.125, abs=1e-12)
        assert v.l2_bound == pytest.approx(1.0, abs=1e-12)

    def test_empirical_phi_identity(self):
        # phi0 is defined by lam^2 s / phi0^2 == lhs
        rng = np.random.default_rng(103)
        for _ in range(5):
            g = random_gram(rng, 5)
            cone = ConeSpec(S=(0, 3), L=1.0, N=2)
            beta0 = np.zeros(5)
            beta0[[0, 3]] = [1.0, 1.5]
            sol = solve_noiseless(g, beta0, 0.4)
            v = oracle_verdict(g, sol, cone, 0.4, certified_lower_phi(g, cone))
            if v.lhs > 0:
                assert v.empirical_phi0 ** 2 * v.lhs == pytest.approx(
                    0.4 ** 2 * 2, rel=1e-9
                )

    def test_l2_skipped_without_bound(self):
        g = GramMatrix(np.eye(3))
        cone = ConeSpec(S=(0,), L=1.0, N=1)
        sol = solve_noiseless(g, [1.0, 0.0, 0.0], 0.2)
        v = oracle_verdict(g, sol, cone, 0.2, certified_lower_phi(g, cone))
        assert v.l2_bound is None and v.l2_holds is None


class TestAntiprojection:
    def test_zero_tail_is_trivially_exact(self):
        g = equicorr(5, 0.6)
        sol = solve_noiseless(g, [1.0, 0.8, 0.0, 0.0, 0.0], 0.3)
        assert all(sol.beta_star[2:] == 0.0)
        lhs, rhs, gap = antiprojection_identity_check(g, sol, SubsetN((0, 1)))
        assert (lhs, rhs, gap) == (0.0, 0.0, 0.0)

    def test_nonzero_tail_instance(self):
        # negative cross-correlation pushes mass onto coordinate 2
        sigma = np.eye(5)
        sigma[0, 2] = sigma[2, 0] = -0.7
        sigma[1, 2] = sigma[2, 1] = -0.7
        sigma[0, 1] = sigma[1, 0] = 0.3
        g = GramMatrix(sigma)
        sol = solve_noiseless(g, [1.0, 1.0, 0.0, 0.0, 0.0], 0.4)
        assert sol.beta_star[2] != 0.0
        lhs, rhs, gap = antiprojection_identity_check(g, sol, SubsetN((0, 1)))
        assert lhs > 0.0
        assert gap <= 1e-6 * max(1.0, abs(lhs), abs(rhs))

    def test_full_nset_no_tail(self):
        g = equicorr(3, 0.2)
        sol = solve_noiseless(g, [1.0, 0.0, 0.0], 0.2)
        assert antiprojection_identity_check(g, sol, SubsetN((0, 1, 2))) == (0.0, 0.0, 0.0)

    def test_full_nset_inverts_no_block(self):
        # with no tail there is nothing to project, so a singular Sigma_11
        # gives the zeros I_2 gives; a singular head with a tail still refuses
        for sigma in (np.ones((2, 2)), np.eye(2)):
            g = GramMatrix(sigma)
            sol = solve_noiseless(g, [1.0, 0.0], 0.1)
            assert antiprojection_identity_check(g, sol, SubsetN((0, 1))) == (0.0, 0.0, 0.0)
        g = GramMatrix(np.ones((3, 3)))
        sol = solve_noiseless(g, [1.0, 0.0, 0.0], 0.1)
        with pytest.raises(SingularBlock):
            antiprojection_identity_check(g, sol, SubsetN((0, 1)))
        with pytest.raises(InvalidParameter, match="out of range"):
            antiprojection_identity_check(g, sol, SubsetN((0, 3)))


class TestSelectionReport:
    def test_identity_all_parts(self):
        g = GramMatrix(np.eye(6))
        beta0 = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        sol = solve_noiseless(g, beta0, 0.1)
        rep = selection_report(g, sol, ConeSpec(S=(0, 1), L=1.0, N=2), beta0)
        assert rep.s_star == (0, 1)
        assert rep.s_star_equals_s
        assert rep.false_positives == 0
        assert rep.part1_premise is True and rep.part1_holds is True
        assert rep.part2_premise_irr is True and rep.part2_holds is True
        assert rep.part2_threshold == pytest.approx(0.2, abs=1e-9)
        assert rep.part3_applicable and rep.part3_lhs == 0.0 and rep.part3_holds
        assert rep.sign_premise is True and rep.sign_consistent is True

    def test_failed_premise_is_vacuous(self):
        # one tail column with leverage 1.2 > 1 defeats the part-1 premise
        p, s, rho = 8, 4, 0.6
        sigma = np.eye(p)
        sigma[s, :s] = rho / 2.0
        sigma[:s, s] = rho / 2.0
        g = GramMatrix(sigma)
        beta0 = np.zeros(p)
        beta0[:s] = 1.0
        sol = solve_noiseless(g, beta0, 0.05)
        rep = selection_report(g, sol, ConeSpec(S=(0, 1, 2, 3), L=1.0, N=4), beta0)
        assert rep.part1_premise is False
        assert rep.part1_holds is True  # vacuous
        assert rep.part1_irr_value == pytest.approx(1.2, abs=1e-9)

    def test_sign_threshold_note_present(self):
        g = GramMatrix(np.eye(3))
        sol = solve_noiseless(g, [1.0, 0.0, 0.0], 0.1)
        rep = selection_report(g, sol, ConeSpec(S=(0,), L=1.0, N=1), [1.0, 0.0, 0.0])
        assert "two published forms disagree" in rep.metadata["sign_threshold_note"]
        assert rep.sign_proof_threshold is not None
        assert rep.sign_statement_threshold is not None


class TestBasisPursuit:
    def test_nonsingular_always_recovers(self):
        rng = np.random.default_rng(107)
        for _ in range(5):
            g = random_gram(rng, 5)
            beta0 = np.zeros(5)
            beta0[[0, 2]] = [1.0, -1.5]
            blp, recovered, _ = basis_pursuit_recover(g, beta0)
            assert recovered
            np.testing.assert_allclose(blp, beta0, atol=1e-8)

    def test_rank_one_ambiguity_not_recovered(self):
        g = GramMatrix(np.outer([1.0, 1.0], [1.0, 1.0]))
        beta0 = np.array([2.0, -1.0])
        blp, recovered, _ = basis_pursuit_recover(g, beta0)
        assert not recovered
        # the LP still found a strictly sparser representer of the same fit
        assert np.abs(blp).sum() <= np.abs(beta0).sum() + 1e-9
        assert abs(float(np.ones(2) @ (blp - beta0))) <= 1e-9

    def test_part2_certificate_implies_recovery(self):
        # rank-deficient designs filtered by the sign-enumerated condition
        checked = 0
        for seed in range(12):
            rng = derived_rng(seed, "rank-def-test")
            x = rng.standard_normal((6, 8))
            sigma = x.T @ x / 6
            g = GramMatrix((sigma + sigma.T) / 2.0)
            ok, _ = irrepresentable_signed(g, ConeSpec(S=(0, 1), L=1.0, N=2), part=2)
            if not ok:
                continue
            beta0 = np.zeros(8)
            beta0[[0, 1]] = [1.0, -1.0]
            _, recovered, _ = basis_pursuit_recover(g, beta0)
            assert recovered
            checked += 1
        assert checked >= 3

    def test_phase1_rounding_does_not_abort(self):
        # phase 1 ends here on a reduced cost of about -2e-10 in a column with
        # no positive entry while its objective is already ~1e-14; that is not
        # an unbounded direction but rounding past the pivot tolerance
        _, g = sample_gaussian_design(48, 80, GramMatrix(np.eye(80)), 70_000 + 48 * 3 + 15)
        beta0 = np.zeros(80)
        beta0[[0, 1]] = (1.0, -1.0)
        blp, recovered, _ = basis_pursuit_recover(g, beta0)
        assert recovered
        np.testing.assert_allclose(blp, beta0, atol=1e-6)

    def test_zero_gram(self):
        g = GramMatrix(np.zeros((2, 2)))
        blp, recovered, _ = basis_pursuit_recover(g, [1.0, 0.0])
        np.testing.assert_array_equal(blp, [0.0, 0.0])
        assert not recovered
        # every beta is feasible: the simplex, with no constraint rows,
        # returns +0.0 in every coordinate
        for p in (1, 3, 5):
            g = GramMatrix(np.zeros((p, p)))
            for beta0 in (np.eye(p)[0], -np.ones(p)):
                blp, recovered, route = basis_pursuit_recover(g, beta0)
                assert route == "simplex"
                assert blp.tobytes() == np.zeros(p).tobytes()
                assert not recovered


def _exact_dual_norm(entries, beta0):
    """max_{j not in S} |Sigma_{jS} Sigma_SS^{-1} sign(beta0_S)| in exact
    rational arithmetic on the float entries as given."""
    support = [int(j) for j in np.flatnonzero(beta0)]
    k = len(support)
    a = [[Fraction(float(entries[i, j])) for j in support]
         + [Fraction(int(np.sign(beta0[i])))] for i in support]
    for col in range(k):  # Gauss-Jordan on [Sigma_SS | tau]
        pivot = next(r for r in range(col, k) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    v = [row[k] for row in a]
    return max((abs(sum(Fraction(float(entries[j, i])) * vi for i, vi in zip(support, v)))
                for j in range(entries.shape[0]) if j not in support), default=Fraction(0))


def _near_one_gram():
    """p = 3, S = {0, 1}, tau = (1, -1): Sigma_SS has condition number about
    2000 and Sigma_2S is close to (0.5, 0.5), so w_2 = 1 - 1e-14 comes out of
    a cancellation between terms of size 500; its rounding alone is about
    1e-13."""
    rho = 0.999
    d = (1.0 - rho) * (1.0 - 1e-14) / 2.0
    sigma = np.array([[1.0, rho, 0.5 + d], [rho, 1.0, 0.5 - d], [0.5 + d, 0.5 - d, 1.0]])
    return GramMatrix(sigma), np.array([1.0, -1.0, 0.0])


class TestDualCertificate:
    """basis_pursuit_recover proves recovery by Fuchs's dual certificate before it
    runs the simplex, and runs the simplex whenever the proof is missing."""

    @pytest.fixture
    def simplex_calls(self, monkeypatch):
        calls = []
        simplex = lasso.simplex_lp

        def counted(*args, **kwargs):
            calls.append(1)
            return simplex(*args, **kwargs)

        monkeypatch.setattr(lasso, "simplex_lp", counted)
        return calls

    @pytest.fixture
    def no_simplex(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the simplex ran where the certificate holds")

        monkeypatch.setattr(lasso, "simplex_lp", refuse)

    def test_rank_deficient_instance_recovers_without_simplex(self, no_simplex):
        # the recover instance whose LP used to stop at its iteration limit
        _, g = sample_gaussian_design(48, 80, GramMatrix(np.eye(80)), 70_000 + 48 * 12 + 10)
        beta0 = np.zeros(80)
        beta0[[0, 1]] = (1.0, -1.0)
        assert lasso._dual_certificate_bound(g, beta0) == pytest.approx(0.44, abs=0.01)
        blp, recovered, route = basis_pursuit_recover(g, beta0)
        assert (recovered, route) == (True, "dual_certificate")
        assert blp.tobytes() == beta0.tobytes() and not np.shares_memory(blp, beta0)

    def test_certified_verdicts_match_the_simplex(self, monkeypatch):
        cases = []
        for seed in range(40):
            rng = derived_rng(seed, "dual-certificate-test")
            _, g = sample_gaussian_design(10, 16, GramMatrix(np.eye(16)), 900 + seed)
            beta0 = np.zeros(16)
            support = rng.choice(16, size=int(rng.integers(1, 4)), replace=False)
            beta0[support] = rng.choice([-2.0, 0.5, 1.0], size=support.size)
            cases.append((g, beta0))
        with monkeypatch.context() as m:
            m.setattr(lasso, "_dual_certificate_bound", lambda gram, beta0: math.inf)
            reference = [basis_pursuit_recover(g, b)[1:] for g, b in cases]
        assert all(route == "simplex" for _, route in reference)

        class SimplexRan(Exception):
            pass

        def refuse(*args, **kwargs):
            raise SimplexRan

        monkeypatch.setattr(lasso, "simplex_lp", refuse)
        certified = 0
        for (g, beta0), (want, _) in zip(cases, reference):
            try:
                _, recovered, _ = basis_pursuit_recover(g, beta0)
            except SimplexRan:
                continue  # no certificate: the simplex decides, as above
            assert recovered and want
            certified += 1
        assert 10 <= certified < len(cases)

    def test_bound_is_sound_in_exact_arithmetic(self):
        rng = np.random.default_rng(41)
        checked = 0
        for trial in range(60):
            p, k = int(rng.integers(3, 8)), int(rng.integers(1, 4))
            x = rng.standard_normal((int(rng.integers(2, 9)), p))
            if trial % 3 == 0:  # nearly collinear support columns
                x[:, 1] = x[:, 0] + 10.0 ** -rng.integers(3, 7) * rng.standard_normal(x.shape[0])
            g = GramMatrix((x.T @ x + (x.T @ x).T) / 2.0)
            beta0 = np.zeros(p)
            beta0[:k] = rng.choice([-1.0, 1.0], size=k)
            bound = lasso._dual_certificate_bound(g, beta0)
            if math.isinf(bound):
                continue
            exact = _exact_dual_norm(g.entries, beta0)
            assert exact <= Fraction(bound)
            checked += 1
        assert checked >= 30

    def test_margin_rejects_a_dual_norm_just_below_one(self, simplex_calls):
        g, beta0 = _near_one_gram()
        exact = _exact_dual_norm(g.entries, beta0)
        assert 1 - Fraction(1, 10 ** 13) < exact < 1
        assert lasso._dual_certificate_bound(g, beta0) >= 1.0
        _, _, route = basis_pursuit_recover(g, beta0)
        assert route == "simplex" and simplex_calls

    def test_singular_support_block_goes_to_the_simplex(self, simplex_calls):
        g = GramMatrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        beta0 = np.array([1.0, 1.0, 0.0])
        assert lasso._dual_certificate_bound(g, beta0) == math.inf
        assert basis_pursuit_recover(g, beta0)[2] == "simplex" and simplex_calls

    def test_rank_one_ambiguity_goes_to_the_simplex(self, simplex_calls):
        g = GramMatrix(np.outer([1.0, 1.0], [1.0, 1.0]))
        _, recovered, route = basis_pursuit_recover(g, np.array([2.0, -1.0]))
        assert (recovered, route) == (False, "simplex") and simplex_calls

    def test_zero_target_recovered_without_simplex(self, no_simplex):
        for entries in (np.eye(3), np.zeros((3, 3))):
            blp, recovered, route = basis_pursuit_recover(GramMatrix(entries), np.zeros(3))
            assert (recovered, route) == (True, "dual_certificate")
            np.testing.assert_array_equal(blp, 0.0)

    def test_whole_support_needs_no_dual(self, no_simplex):
        g = GramMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert basis_pursuit_recover(g, [1.0, -3.0])[1:] == (True, "dual_certificate")

    def test_non_finite_target_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidParameter, match="beta0 must be finite"):
                basis_pursuit_recover(GramMatrix(np.eye(2)), [bad, 0.0])


class TestNoise:
    def test_lambda0_bound_frozen_values(self):
        assert lambda0_bound(2, 500, 20) == 0.2827219771734483
        assert lambda0_bound(2, 400, 100) == 0.36346031931940226
        with pytest.raises(InvalidParameter):
            lambda0_bound(0.0, 100, 10)
        with pytest.raises(InvalidParameter):
            lambda0_bound(1.0, 0, 10)

    def test_lambda0_of_data_manual(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        eps = np.array([0.5, -0.25, 0.1])
        noisy = NoisyProblem(X=x, Y=x @ [1.0, 0.0] + eps, beta0=[1.0, 0.0], epsilon=eps)
        want = 2.0 * float(np.max(np.abs(x.T @ eps))) / 3.0
        assert lambda0_of_data(noisy) == pytest.approx(want, abs=1e-15)

    def test_lambda0_is_derived_from_epsilon(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        eps = np.array([0.5, -0.25, 0.1])
        noisy = NoisyProblem(X=x, Y=x @ [1.0, 0.0] + eps, epsilon=eps)
        moved = dataclasses.replace(noisy, epsilon=4.0 * eps)
        assert moved.lambda0 == NoisyProblem(X=x, Y=noisy.Y, epsilon=4.0 * eps).lambda0
        assert moved.lambda0 == 4.0 * noisy.lambda0
        with pytest.raises(TypeError):
            NoisyProblem(X=x, Y=noisy.Y, epsilon=eps, lambda0=0.123)

    def test_missing_noise(self):
        noisy = NoisyProblem(X=np.eye(2), Y=np.ones(2))
        with pytest.raises(InvalidParameter, match="epsilon is required"):
            lambda0_of_data(noisy)

    def test_problem_validation(self):
        with pytest.raises(InvalidParameter):
            NoisyProblem(X=np.eye(3), Y=np.ones(2))
        with pytest.raises(InvalidParameter):
            NoisyProblem(X=np.eye(3), Y=np.ones(3), beta0=np.ones(2))
        with pytest.raises(InvalidParameter):
            NoisyProblem(X=np.eye(3), Y=np.ones(3), epsilon=np.ones(2))

    @pytest.mark.parametrize("field", ["X", "Y", "beta0", "epsilon"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, bad):
        arrays = {"X": np.eye(3), "Y": np.ones(3), "beta0": np.ones(3), "epsilon": np.zeros(3)}
        arrays[field] = arrays[field].copy()
        arrays[field].flat[1] = bad
        with pytest.raises(InvalidParameter, match=f"^{field} must be finite$"):
            NoisyProblem(**arrays)


class TestSolveNoisy:
    def make_problem(self, seed, n=40, p=6, noise=0.1):
        rng = derived_rng(seed, "noisy-test")
        x = rng.standard_normal((n, p))
        x /= np.sqrt((x ** 2).mean(axis=0))
        beta0 = np.zeros(p)
        beta0[:2] = [1.0, -1.0]
        eps = noise * rng.standard_normal(n)
        return NoisyProblem(X=x, Y=x @ beta0 + eps, beta0=beta0, epsilon=eps)

    def test_zero_noise_reduces_to_noiseless(self):
        noisy = self.make_problem(0, noise=0.0)
        sol, verdict = solve_noisy(noisy, 0.2)
        ref = solve_noiseless(noisy.empirical_gram(), noisy.beta0, 0.2)
        np.testing.assert_allclose(sol.beta_star, ref.beta_star, atol=1e-7)
        assert verdict.premise_ok
        assert verdict.lambda0 == 0.0
        assert verdict.big_l == 1.0
        assert verdict.holds

    def test_bound_holds_above_noise_level(self):
        noisy = self.make_problem(1)
        lam0 = lambda0_of_data(noisy)
        sol, verdict = solve_noisy(noisy, 2.0 * lam0 + 0.05)
        assert verdict.premise_ok
        assert verdict.holds
        assert verdict.big_l == pytest.approx(
            (sol.lam + lam0) / (sol.lam - lam0), rel=1e-12
        )

    def test_premise_failure_skips_bounds(self):
        noisy = self.make_problem(2)
        lam0 = lambda0_of_data(noisy)
        _, verdict = solve_noisy(noisy, lam0 * 0.5)
        assert verdict.premise_ok is False
        assert verdict.lhs is None and verdict.rhs is None and verdict.holds is None

    def test_no_truth_no_verdict(self):
        noisy = self.make_problem(3)
        bare = NoisyProblem(X=noisy.X, Y=noisy.Y)
        sol, verdict = solve_noisy(bare, 0.3)
        assert verdict is None
        assert sol.beta_star.shape == (6,)


class TestApproximationVerdict:
    def test_population_equals_empirical(self):
        noisy = TestSolveNoisy().make_problem(4)
        lam0 = lambda0_of_data(noisy)
        sol, _ = solve_noisy(noisy, 2.0 * lam0 + 0.05)
        v = approximation_verdict(noisy, noisy.empirical_gram(), sol)
        assert v.d_inf == 0.0
        assert v.premise_distance
        assert v.lhs == 0.0
        assert v.conclusion and v.holds

    def test_requires_truth_and_premise(self):
        noisy = TestSolveNoisy().make_problem(5)
        bare = NoisyProblem(X=noisy.X, Y=noisy.Y)
        sol, _ = solve_noisy(noisy, 1.0)
        with pytest.raises(InvalidParameter):
            approximation_verdict(bare, noisy.empirical_gram(), sol)
