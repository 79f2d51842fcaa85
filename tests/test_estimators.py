"""Interval estimators for the cone-restricted constants.

Upper endpoints come from feasible points and lower endpoints from certified
routes, so the key soundness property is that the two always bracket the hand
oracle whenever one exists.
"""

import itertools
import math

import numpy as np
import pytest

from lasso_audit import (
    Certificate,
    ConeSpec,
    GramMatrix,
    SolverConfig,
    SubsetN,
    block_norm_2q,
    certified_lower_phi,
    compatibility_constant,
    evaluate_regression_ratio,
    evaluate_restricted_ratio,
    lower_phi_routes,
    regression_upper,
    restricted_eigenvalue,
    restricted_orthogonality,
    restricted_regression,
    superset_count,
    top_nset,
    uniform_eigenvalue,
)
from lasso_audit import DEFAULT_CONFIG, constants, estimators
from lasso_audit.cli import condition_report
from lasso_audit.constants import block_norm_maxima
from lasso_audit.errors import CapExceeded, InvalidParameter
from lasso_audit.estimators import ROUTE_CAP
from lasso_audit.implications import check_all
from lasso_audit.experiments import random_psd_entries

from conftest import random_gram


def equicorr(p, rho):
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    return GramMatrix(sigma)


def rank_one_cross(p, s, rho):
    """Identity with one tail column correlated rho * b1 against the head."""
    sigma = np.eye(p)
    b1 = np.ones(s) / math.sqrt(s)
    sigma[s, :s] = rho * b1
    sigma[:s, s] = rho * b1
    return GramMatrix(sigma)


class TestCompatibility:
    def test_two_dim_hand_oracle(self):
        # S = {0}, L = 1: minimize 1 + 1.2 b + b^2 over |b| <= 1, optimum at
        # b = -0.6 with value 0.64
        g = GramMatrix(np.array([[1.0, 0.6], [0.6, 1.0]]))
        bv = compatibility_constant(g, ConeSpec(S=(0,), L=1.0, N=1))
        assert bv.estimate == pytest.approx(0.64, abs=1e-9)
        assert bv.lower <= 0.64 <= bv.upper + 1e-12
        assert bv.certificate is Certificate.INTERVAL

    def test_identity_is_one(self):
        bv = compatibility_constant(GramMatrix(np.eye(5)), ConeSpec(S=(1, 3), L=1.0, N=2))
        assert bv.estimate == pytest.approx(1.0, abs=1e-9)

    def test_equicorrelation_frozen(self):
        bv = compatibility_constant(equicorr(4, 0.5), ConeSpec(S=(0, 1), L=1.0, N=2))
        assert bv.estimate == pytest.approx(0.5, abs=1e-9)

    def test_unconverged_downgrades_to_estimate(self):
        # singular Gram forces the gradient path; one iteration cannot finish
        cfg = SolverConfig(max_iters=1, tol=1e-15)
        bv = compatibility_constant(GramMatrix(np.ones((2, 2))),
                                    ConeSpec(S=(0,), L=0.3, N=1), cfg)
        assert bv.certificate is Certificate.ESTIMATE
        assert "unconverged=1" in bv.provenance

    def test_sign_cap(self):
        g = GramMatrix(np.eye(6))
        with pytest.raises(CapExceeded):
            compatibility_constant(g, ConeSpec(S=(0, 1, 2, 3), L=1.0, N=4), sign_cap=4)

    def test_monotone_in_l(self):
        rng = np.random.default_rng(67)
        g = random_gram(rng, 5)
        vals = [
            compatibility_constant(g, ConeSpec(S=(0, 2), L=L, N=2)).estimate
            for L in (0.5, 1.0, 2.0)
        ]
        assert vals[0] >= vals[1] - 1e-9
        assert vals[1] >= vals[2] - 1e-9


class TestRestrictedEigenvalue:
    def test_identity(self):
        bv = restricted_eigenvalue(GramMatrix(np.eye(6)), ConeSpec(S=(0, 1), L=1.0, N=3))
        assert bv.estimate == pytest.approx(1.0, abs=1e-9)
        assert bv.lower == pytest.approx(1.0, abs=1e-9)

    def test_equicorrelation_exact_value(self):
        # lambda_min certifies 1 - rho from below; the padded head eigenvector
        # attains it from above, so the interval pins the constant
        bv = restricted_eigenvalue(equicorr(6, 0.4), ConeSpec(S=(0, 1), L=1.0, N=3))
        assert bv.lower <= 0.6 <= bv.upper + 1e-12
        assert bv.estimate == pytest.approx(0.6, abs=1e-9)

    def test_adaptive_no_larger_than_plain(self, fast_config):
        # the adaptive cone contains the plain one, so the true constants are
        # ordered; with searched upper endpoints the certified comparison is
        # lower(adaptive) <= upper(plain)
        rng = np.random.default_rng(71)
        for _ in range(3):
            g = random_gram(rng, 6)
            cone = ConeSpec(S=(0, 3), L=1.0, N=4)
            plain = restricted_eigenvalue(g, cone, "plain", fast_config)
            adaptive = restricted_eigenvalue(g, cone, "adaptive", fast_config)
            assert adaptive.lower <= plain.upper + 1e-9

    def test_interval_is_ordered(self, fast_config):
        rng = np.random.default_rng(73)
        g = random_gram(rng, 6)
        bv = restricted_eigenvalue(g, ConeSpec(S=(1, 4), L=2.0, N=3), "plain", fast_config)
        assert bv.lower <= bv.estimate <= bv.upper

    def test_unknown_variant(self):
        g = GramMatrix(np.eye(4))
        with pytest.raises(InvalidParameter):
            restricted_eigenvalue(g, ConeSpec(S=(0,), L=1.0, N=1), "weighted")


class TestRestrictedRegression:
    def test_identity_is_zero(self):
        bv = restricted_regression(GramMatrix(np.eye(5)), ConeSpec(S=(0, 2), L=1.0, N=2))
        assert bv.estimate == 0.0
        assert bv.upper == 0.0

    def test_l_zero_is_exact_zero(self):
        g = equicorr(5, 0.3)
        bv = restricted_regression(g, ConeSpec(S=(0, 1), L=0.0, N=2))
        assert bv.certificate is Certificate.EXACT
        assert bv.estimate == 0.0

    @pytest.mark.parametrize("variant", ["plain", "adaptive"])
    def test_n_equal_p_is_exact_zero_without_a_search(self, variant, monkeypatch):
        # at N = p every tail coordinate lies in N, so the ratio has no
        # numerator: neither the search nor the routes run
        import lasso_audit.estimators as estimators

        def refuse(*args, **kwargs):
            raise AssertionError("searched at N = p")

        monkeypatch.setattr(estimators, "_rr_search", refuse)
        monkeypatch.setattr(estimators, "regression_upper", refuse)
        g = equicorr(4, 0.3)
        cone = ConeSpec(S=(0, 1), L=1.0, N=4)
        bv = restricted_regression(g, cone, variant)
        assert bv.certificate is Certificate.EXACT
        assert (bv.lower, bv.estimate, bv.upper) == (0.0, 0.0, 0.0)
        assert evaluate_regression_ratio(g, cone, np.array([1.0, -0.5, 0.75, -0.75])) == 0.0

    def test_rank_one_cross_adaptive_pins_rho_sqrt_s(self):
        # the inverse-sign head recovers the leverage value rho sqrt(s) and
        # the column-norm route certifies it from above
        g = rank_one_cross(8, 4, 0.5)
        bv = restricted_regression(g, ConeSpec(S=(0, 1, 2, 3), L=1.0, N=4), "adaptive")
        assert bv.lower <= 1.0 <= bv.upper + 1e-9
        assert bv.upper - bv.lower <= 0.05

    def test_scales_linearly_in_l(self):
        g = equicorr(6, 0.3)
        cone1 = ConeSpec(S=(0, 1), L=1.0, N=2)
        cone3 = ConeSpec(S=(0, 1), L=3.0, N=2)
        a = restricted_regression(g, cone1)
        b = restricted_regression(g, cone3)
        assert b.upper == pytest.approx(3.0 * a.upper, rel=1e-12)

    @pytest.mark.parametrize("eps", [5e-9, 5e-11])
    @pytest.mark.parametrize("variant", ["plain", "adaptive"])
    def test_small_heads_keep_a_finite_lower_endpoint(self, variant, eps):
        # the ratio is a / eps at every head, whatever its norm and however
        # far below 1 Sigma_SS lies: no head may score inf
        a = 0.9 * math.sqrt(100.0 * eps)
        g = GramMatrix(np.array([[eps, a, 0.0], [a, 100.0, 0.0], [0.0, 0.0, 1.0]]))
        cone = ConeSpec(S=(0,), L=1.0, N=1)
        bv = restricted_regression(g, cone, variant)
        assert bv.lower == pytest.approx(a / eps, rel=1e-12)
        assert bv.estimate == bv.lower
        if variant == "adaptive":
            e4 = next(v for v in check_all(g, cone) if v.edge_id == "E4")
            assert math.isfinite(e4.lhs_value) and math.isfinite(e4.rhs_value)
            assert e4.lhs_value == pytest.approx(e4.rhs_value, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
    def test_witness_heads_reach_the_uniform_leverage_at_any_scale(self, scale):
        # the search's value at N = s is at least irr_uniform, which has
        # degree 0 in Sigma: so is the singularity test, and E4 holds
        g = GramMatrix(scale * np.array([[1.0, 0.5], [0.5, 1.0]]))
        cone = ConeSpec(S=(0,), L=1.0, N=1)
        for variant in ("plain", "adaptive"):
            assert restricted_regression(g, cone, variant).lower == 0.5
        e4 = next(v for v in check_all(g, cone) if v.edge_id == "E4")
        assert (e4.lhs_value, e4.rhs_value, e4.holds) == (0.5, 0.5, True)

    def test_lower_never_exceeds_upper(self, fast_config):
        rng = np.random.default_rng(79)
        for _ in range(3):
            g = random_gram(rng, 6)
            bv = restricted_regression(g, ConeSpec(S=(0, 2), L=1.0, N=3), "plain", fast_config)
            assert bv.lower <= bv.upper + 1e-12


class TestPointEvaluators:
    def test_restricted_ratio_manual(self):
        g = equicorr(4, 0.5)
        cone = ConeSpec(S=(0, 1), L=1.0, N=3)
        beta = np.array([1.0, 1.0, 0.5, 0.0])
        # nset = {0, 1, 2}: quadratic form over the norm of the three largest
        want = float(beta @ g.entries @ beta) / float(beta @ beta)
        got = evaluate_restricted_ratio(g, cone, beta)
        assert got == pytest.approx(want, abs=1e-12)

    def test_restricted_ratio_rejects_outside_cone(self):
        g = equicorr(4, 0.5)
        cone = ConeSpec(S=(0, 1), L=1.0, N=2)
        with pytest.raises(InvalidParameter):
            evaluate_restricted_ratio(g, cone, np.array([1.0, 0.0, 2.0, 0.0]))

    def test_regression_ratio_manual(self):
        g = equicorr(4, 0.5)
        cone = ConeSpec(S=(0, 1), L=1.0, N=2)
        beta = np.array([1.0, 1.0, 1.0, 0.5])
        head = np.array([1.0, 1.0, 0.0, 0.0])
        tail = beta - head
        got = evaluate_regression_ratio(g, cone, beta)
        want = abs(float(tail @ g.entries @ head)) / float(head @ g.entries @ head)
        assert got == pytest.approx(want, abs=1e-12)

    def test_regression_ratio_zero_tail(self):
        g = equicorr(4, 0.5)
        cone = ConeSpec(S=(0, 1), L=1.0, N=2)
        assert evaluate_regression_ratio(g, cone, np.array([1.0, -1.0, 0.0, 0.0])) == 0.0

    def test_tied_tail_enters_by_ascending_index_in_both_evaluators(self):
        # |beta_1| = |beta_2| = |beta_3| tie for the one place N - s = 1;
        # top_nset takes coordinate 1, and so must the batch
        g = GramMatrix(random_psd_entries(5, 7, 0.1))
        cone = ConeSpec(S=(0,), L=3.0, N=2)
        beta = np.array([1.0, 0.5, -0.5, 0.5, 0.25])
        assert top_nset(beta, cone).members == (0, 1)
        ix = estimators._cone_index(5, cone)
        assert evaluate_regression_ratio(g, cone, beta) == 0.0976031064281026
        assert estimators._batch_regression_ratio(g.entries, ix, beta[None, :])[0] == 0.0976031064281026


class TestCertifiedLowerPhi:
    def test_identity_lambda_min(self):
        g = GramMatrix(np.eye(5))
        bv = certified_lower_phi(g, ConeSpec(S=(0, 1), L=1.0, N=2))
        assert bv.estimate == pytest.approx(1.0, abs=1e-12)
        assert bv.certificate is Certificate.CERTIFIED_LOWER

    def test_route_restriction_honored(self):
        g = equicorr(5, 0.3)
        routes = lower_phi_routes(g, ConeSpec(S=(0, 1), L=1.0, N=2))
        assert routes["lambda_min"] == pytest.approx(0.7, abs=1e-12)

    def test_no_route_returns_trivial_estimate(self):
        g = GramMatrix(np.ones((2, 2)))
        bv = certified_lower_phi(g, ConeSpec(S=(0,), L=1.0, N=1))
        assert (bv.estimate, bv.lower) == (0.0, 0.0)
        assert bv.upper == math.inf
        assert bv.provenance == "route=none"
        assert bv.certificate is Certificate.ESTIMATE

    def test_lower_bounds_the_direct_interval(self, fast_config):
        rng = np.random.default_rng(83)
        for _ in range(4):
            g = random_gram(rng, 6)
            cone = ConeSpec(S=(0, 2), L=1.0, N=3)
            low = certified_lower_phi(g, cone, target="restricted_eigenvalue")
            direct = restricted_eigenvalue(g, cone, "plain", fast_config)
            assert low.estimate <= direct.upper + 1e-9

    def test_compat_lower_bounds_compat(self, fast_config):
        rng = np.random.default_rng(89)
        for _ in range(4):
            g = random_gram(rng, 5)
            cone = ConeSpec(S=(1, 3), L=1.0, N=2)
            low = certified_lower_phi(g, cone)
            direct = compatibility_constant(g, cone, fast_config)
            assert low.estimate <= direct.upper + 1e-9

    def test_unknown_target(self):
        g = GramMatrix(np.eye(3))
        with pytest.raises(InvalidParameter):
            certified_lower_phi(g, ConeSpec(S=(0,), L=1.0, N=1), target="sparse")

    @pytest.mark.parametrize("target", ["compatibility", "restricted_eigenvalue"])
    def test_unknown_variant(self, target):
        """A plain-cone route is no lower bound for the larger adaptive cone,
        so a misspelt variant is refused, not read as "plain"."""
        g = equicorr(5, 0.3)
        cone = ConeSpec(S=(0, 1), L=1.0, N=2)
        with pytest.raises(InvalidParameter, match="unknown cone variant 'adaptiv'"):
            certified_lower_phi(g, cone, target, "adaptiv")
        with pytest.raises(InvalidParameter, match="unknown cone variant 'adaptiv'"):
            lower_phi_routes(g, cone, target, "adaptiv")


@pytest.mark.parametrize("p,s", [(8, 2), (10, 3), (12, 2), (14, 3), (16, 2)])
def test_chunked_q2_route_matches_loop(p, s):
    """chunked_q2 takes the largest spectral norm of Sigma[nset, nset^c] from
    the enumeration kernel; the per-superset SVD loop it replaced is the
    reference, and the route value must be the same float."""
    for seed in range(4):
        gram = GramMatrix(random_psd_entries(p, 300 + 10 * p + seed, 0.1))
        cone = ConeSpec(S=tuple(range(0, 2 * s, 2)), L=1.0, N=2 * s)
        loop = 0.0
        others = [j for j in range(p) if j not in cone.S]
        for extra in itertools.combinations(others, cone.N - s):
            nset = SubsetN(tuple(sorted(cone.S + extra)))
            loop = max(loop, block_norm_2q(gram, nset, 2.0, "exact").estimate)
        lam2 = uniform_eigenvalue(gram, cone).estimate
        want = math.sqrt(s) * loop / (math.sqrt(s) * lam2)
        for variant in ("plain", "adaptive"):
            note = regression_upper(gram, cone, variant, 10 ** 6, 2 ** 20).provenance
            assert f"chunked_q2={want!r}," in note


def test_block_norm_routes_kept_when_theta_exceeds_the_route_cap():
    """At N = 2s the weak_rip route needs theta(S, 2s), here 34,320 pairs (over
    ROUTE_CAP), while the block-norm maxima need 286 supersets: only weak_rip
    is left out."""
    gram = GramMatrix(random_psd_entries(16, 3))
    cone = ConeSpec(S=(0, 3, 15), L=1.0, N=6)
    with pytest.raises(CapExceeded):
        restricted_orthogonality(gram, cone, ROUTE_CAP)
    maxima = block_norm_maxima(gram, cone)
    lam2 = uniform_eigenvalue(gram, cone).estimate
    s = cone.s
    want = {"chunked_qinf": math.sqrt(s) * maxima.col / lam2,
            "chunked_q2": math.sqrt(s) * maxima.spectral / (math.sqrt(s) * lam2),
            "chunked_q1": math.sqrt(s) * maxima.vertex / (s * lam2)}
    row_sum = {"row_sum": maxima.row_sum / (math.sqrt(s) * lam2)}
    for variant, listed in (("plain", {**want, **row_sum}), ("adaptive", want)):
        bv = regression_upper(gram, cone, variant)
        routes = {name: float(value) for name, value in
                  (item.split("=") for item in bv.provenance.split("; ", 1)[1].split(", "))}
        assert set(routes) == {"cauchy_schwarz"} | set(listed)
        assert {name: routes[name] for name in listed} == listed
        assert bv.upper == min(routes.values())


def test_two_s_routes_run_when_the_supersets_just_fit_the_cap():
    """At p = 8, s = 2 there are C(6, 2) = 15 size-4 supersets of S: a cap of
    15 admits the N = 2s routes (theta(S, 4), with more pairs, is still left
    out), and a cap of 14 admits no route, since Lambda^2(S, 4) is refused."""
    gram = GramMatrix(random_psd_entries(8, 1, 0.0))
    cone = ConeSpec(S=(1, 4), L=1.0, N=4)
    assert superset_count(cone, 8) == 15
    note = regression_upper(gram, cone, "plain", cap=15).provenance
    assert "chunked_qinf=" in note and "weak_rip=" not in note
    assert regression_upper(gram, cone, "plain", cap=14).provenance == "no applicable route"


def test_block_norm_q1_budget_counts_every_superset(monkeypatch):
    """At p = 22, N = 6 each of the 969 supersets has 2^16 sign vectors,
    63.5 million together, over the default sign cap: the q = 1 maximum is
    the column-norm-sum bound and certified_lower_phi draws no sign vector."""
    gram = GramMatrix(random_psd_entries(22, 5, 0.1))
    cone = ConeSpec(S=(0, 1, 2), L=1.0, N=3)

    def no_signs(*args):
        raise AssertionError("sign vectors enumerated")

    monkeypatch.setattr(constants, "_sign_chunks", no_signs)
    certified_lower_phi(gram, cone)
    c2 = cone.with_(N=6)
    assert "chunked_q1=" in regression_upper(gram, c2).provenance
    column_sums = [block_norm_2q(gram, SubsetN((0, 1, 2) + extra), 1, "column_bound").estimate
                   for extra in itertools.combinations(range(3, 22), 3)]
    assert block_norm_maxima(gram, c2).vertex == max(column_sums)


@pytest.mark.parametrize("audit", [condition_report, check_all])
def test_lower_routes_honour_the_sign_cap(audit):
    """At p = 16, S = (2, 7, 11), N = 6 the q = 1 vertex enumeration takes
    286 * 2^10 = 292,864 sign vectors: a sign cap of 1,000 leaves every
    block-norm maximum, the lower-phi routes' included, on the column-norm
    bound, so no memo key records a vertex enumeration."""
    gram = GramMatrix(random_psd_entries(16, 10_000, 0.1))
    audit(gram, ConeSpec((2, 7, 11), 1.0, 6), DEFAULT_CONFIG.reduced(), 200_000, 1000)
    assert ("block_norm_maxima", (2, 7, 11), 6, False) in gram._memo
    assert [key for key in gram._memo if isinstance(key, tuple) and key[-1] is True] == []


# (entry, degree in Sigma) for the entries of condition_report that neither
# compare with 1 (delta_N, rip, alpha) nor come from a search whose stream
# is keyed by the Gram's fingerprint
SCALE_COVARIANT = [("lambda2", 1), ("theta", 1), ("theta_uniform", 1), ("phi_lower_routes", 1),
                   ("weak_rip", 0), ("mutual", 0), ("cumulative", 0),
                   ("irr_uniform", 0), ("irr_part2", 0), ("irr_part3", 0)]


@pytest.mark.parametrize("scale", [2.0 ** -40, 2.0 ** 40])
def test_report_entries_scale_with_sigma(scale):
    # Lambda^2 = 0.23 * scale vanishes only relative to max_j Sigma_jj; a
    # power-of-two scale is exact, so each entry scales bit for bit
    entries = random_psd_entries(7, 11, 0.1)
    cone = ConeSpec((1, 4), 1.0, 4)
    config = SolverConfig(samples=500)
    base = condition_report(GramMatrix(entries), cone, config)
    got = condition_report(GramMatrix(scale * entries), cone, config)
    assert sorted(got.entries) == sorted(base.entries)
    assert sorted(got.errors) == sorted(base.errors)
    for key, degree in SCALE_COVARIANT:
        want, have = base.entries[key], got.entries[key]
        assert (have.estimate, have.lower, have.upper) == tuple(
            scale ** degree * v for v in (want.estimate, want.lower, want.upper)), key


def test_restricted_regression_holds_at_small_scale():
    entries = random_psd_entries(6, 4, 0.1)
    cone = ConeSpec((0,), 1.0, 2)
    config = DEFAULT_CONFIG.reduced()
    want = restricted_regression(GramMatrix(entries), cone, "plain", config)
    assert 0.26 < want.lower <= want.upper < 1.18
    for scale in (1e-12, 2.0 ** -40, 2.0 ** -80):
        got = restricted_regression(GramMatrix(scale * entries), cone, "plain", config)
        assert got.lower == pytest.approx(want.lower, rel=1e-12)
        assert got.upper == pytest.approx(want.upper, rel=1e-12)
