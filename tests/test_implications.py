"""Edge catalogue audit: verdicts, skips, direction soundness, transfer."""

import math

import numpy as np
import pytest

from lasso_audit import (
    EDGE_IDS,
    BoundedValue,
    ConeSpec,
    GramMatrix,
    PerturbationPair,
    check_all,
    check_edge,
    irrepresentable_uniform,
    perturbation_transfer,
)
from lasso_audit.errors import InvalidParameter

from conftest import random_gram

DIRECTION_NOTE = "certified endpoints: lower on the >=-side, upper on the <=-side"


def rank_one_cross(p, s, rho):
    sigma = np.eye(p)
    b1 = np.ones(s) / math.sqrt(s)
    sigma[s, :s] = rho * b1
    sigma[:s, s] = rho * b1
    return GramMatrix(sigma)


@pytest.fixture(scope="module")
def identity_verdicts(fast_config):
    g = GramMatrix(np.eye(8))
    cone = ConeSpec(S=(0, 1), L=3.0, N=4)
    return check_all(g, cone, fast_config)


@pytest.fixture(scope="module")
def cross_verdicts(fast_config):
    g = rank_one_cross(12, 4, 0.6)
    cone = ConeSpec(S=(0, 1, 2, 3), L=1.0, N=4)
    return check_all(g, cone, fast_config)


class TestIdentityInstance:
    def test_every_edge_evaluated_and_holds(self, identity_verdicts):
        assert [v.edge_id for v in identity_verdicts] == list(EDGE_IDS)
        for v in identity_verdicts:
            assert not v.skipped
            assert v.holds is True

    def test_hierarchy_frozen_values(self, identity_verdicts):
        e7 = identity_verdicts[6]
        assert e7.edge_id == "E7"
        # lhs: the certified adaptive route, lambda_min(I) = 1, the exact
        # adaptive RE of the identity
        assert e7.lhs_value == 1.0
        assert e7.rhs_value == 0.9999999999999998
        assert e7.holds is True

    def test_compat_bound_slack_within_tolerance(self, identity_verdicts):
        # interval lower sits 10*tol under the found value, hence the tiny
        # negative slack; the relative tolerance absorbs it
        e8 = identity_verdicts[7]
        assert e8.edge_id == "E8"
        assert e8.slack == pytest.approx(-1.0e-8, abs=2e-9)
        assert e8.holds is True

    def test_direction_note_on_every_evaluated_edge(self, identity_verdicts):
        for v in identity_verdicts:
            assert v.bound_direction_note.endswith(DIRECTION_NOTE)


class TestRankOneCrossInstance:
    def test_leverage_equals_regression_at_head(self, cross_verdicts):
        e4 = cross_verdicts[3]
        assert e4.edge_id == "E4"
        assert e4.holds is True
        assert e4.lhs_value == pytest.approx(1.2, abs=1e-9)
        assert abs(e4.slack) <= 1e-6

    def test_weak_rip_dominates_regression(self, cross_verdicts):
        e5 = cross_verdicts[4]
        assert e5.holds is True
        assert e5.lhs_value == pytest.approx(0.75, abs=1e-9)
        assert e5.rhs_value == pytest.approx(1.5, abs=1e-9)

    def test_premise_skips_name_their_reason(self, cross_verdicts):
        reasons = {v.edge_id: v.bound_direction_note for v in cross_verdicts if v.skipped}
        assert set(reasons) == {"E1", "E6", "E8", "E9", "E10", "E11"}
        assert "theta_rr" in reasons["E1"]
        assert "theta_wRIP" in reasons["E6"]
        assert "irr_uniform" in reasons["E8"]
        assert "DenominatorNonPositive" in reasons["E9"]
        assert "alpha" in reasons["E11"]
        for reason in reasons.values():
            assert reason.startswith("skipped: ")

    def test_no_failed_edges(self, cross_verdicts):
        assert all(v.holds is not False for v in cross_verdicts)


class TestAlphaRefusal:
    """On diag(1, 0, 1, 1) with S = {0} and N = 2 no certified route bounds
    phi^2(S, 2s) away from 0, so alpha_constant refuses its input."""

    gram = GramMatrix(np.diag([1.0, 0.0, 1.0, 1.0]))
    cone = ConeSpec(S=(0,), L=1.0, N=2)
    reason = "skipped: DenominatorNonPositive: phi^2(S,2s) lower bound 0.0 must be positive"

    def test_e10_and_e11_skip_with_the_class_through_check_edge(self, fast_config):
        # E10's premises supplied as they would hold, so it reaches alpha
        premise = {key: BoundedValue.exact(0.0) for key in ("delta_s", "theta_ss", "theta_s2s")}
        e10 = check_edge("E10", self.gram, self.cone, premise, fast_config)
        e11 = check_edge("E11", self.gram, self.cone, None, fast_config)
        assert e10.bound_direction_note == self.reason
        assert e11.bound_direction_note == self.reason

    def test_a_vanishing_lambda2_skips_as_a_singular_block(self, fast_config):
        # S = {1} puts the zero diagonal entry in Sigma_SS, and a supplied
        # positive phi^2(S,2s) lower bound gets alpha past its first check
        cone = ConeSpec(S=(1,), L=1.0, N=2)
        supplied = {"phi_lower_2s": BoundedValue.exact(1.0),
                    **{key: BoundedValue.exact(0.0) for key in ("delta_s", "theta_ss", "theta_s2s")}}
        for edge_id in ("E10", "E11"):
            verdict = check_edge(edge_id, self.gram, cone, supplied, fast_config)
            assert verdict.bound_direction_note == (
                "skipped: SingularBlock: Lambda^2(S,s) = 0.0 is numerically zero")

    def test_check_all_gives_the_same_skip(self, fast_config):
        verdicts = {v.edge_id: v for v in check_all(self.gram, self.cone, fast_config)}
        assert verdicts["E11"].bound_direction_note == self.reason
        # E10's own premise 1 - delta_s - theta_ss - theta_s2s > 0 fails first here
        assert verdicts["E10"].bound_direction_note.startswith("skipped: premise")


def test_random_instances_never_fail(fast_config):
    # failures would be counterexamples to proved statements; skips are fine
    rng = np.random.default_rng(113)
    for _ in range(5):
        p = int(rng.integers(4, 9))
        g = random_gram(rng, p)
        s = int(rng.integers(1, 3))
        members = tuple(sorted(rng.choice(p, size=s, replace=False).tolist()))
        cone = ConeSpec(S=members, L=1.0, N=min(s + 1, p))
        for v in check_all(g, cone, fast_config):
            assert v.holds is not False, f"{v.edge_id}: {v.bound_direction_note}"


def test_check_all_deterministic(fast_config):
    g = rank_one_cross(8, 2, 0.4)
    cone = ConeSpec(S=(0, 1), L=1.0, N=2)
    a = check_all(g, cone, fast_config)
    b = check_all(g, cone, fast_config)
    assert [(v.lhs_value, v.rhs_value, v.holds, v.slack) for v in a] == \
           [(v.lhs_value, v.rhs_value, v.holds, v.slack) for v in b]


class TestCheckEdge:
    def test_unknown_edge(self):
        with pytest.raises(InvalidParameter):
            check_edge("E12", GramMatrix(np.eye(4)), ConeSpec(S=(0,), L=1.0, N=1))

    def test_single_edge_premise_skip(self, fast_config):
        g = rank_one_cross(12, 4, 0.6)
        cone = ConeSpec(S=(0, 1, 2, 3), L=1.0, N=4)
        v = check_edge("E8", g, cone, config=fast_config)
        assert v.skipped
        assert v.lhs_value is None and v.slack is None

    def test_supplied_inputs_win_over_the_gram(self, equicorr4):
        cone = ConeSpec(S=(0, 1), L=1.0, N=2)
        own = irrepresentable_uniform(equicorr4, cone).estimate
        assert own == pytest.approx(2.0 / 3.0)
        reports = {
            "irr_uniform_s": BoundedValue.exact(0.5),
            "rr_ad_s": BoundedValue.interval(0.7, 0.6, 0.8),
        }
        v = check_edge("E4", equicorr4, cone, reports=reports)
        assert v.holds is True
        assert v.lhs_value == 0.5
        assert v.rhs_value == 0.6  # certified lower endpoint of the rhs

    @pytest.mark.parametrize("key", ["delta_n", "weak_rip_n", "irr_unifrom_s"])
    def test_a_supplied_key_that_names_no_quantity_is_refused(self, key):
        # delta_n and weak_rip_n are the earlier names of delta_N and weak_rip
        reports = {key: BoundedValue.exact(0.5), "rip": BoundedValue.exact(0.1)}
        with pytest.raises(InvalidParameter, match=f"^supplied input '{key}' names no quantity$"):
            check_edge("E9", GramMatrix(np.eye(4)), ConeSpec(S=(0, 1), L=1.0, N=2),
                       reports=reports)


class TestHierarchyEdge:
    """E7 reads the adaptive constant only through its lower endpoint, so
    check_all runs the cone search for the plain variant alone."""

    def test_check_all_runs_one_cone_search(self, fast_config, monkeypatch):
        from lasso_audit import estimators
        from lasso_audit.experiments import random_psd_entries

        calls = []

        def counted(name, real):
            def wrapper(*args):
                calls.append((name, args[-1] if name == "sample" else args[2]))
                return real(*args)
            return wrapper

        monkeypatch.setattr(estimators, "_sample_cone_points",
                            counted("sample", estimators._sample_cone_points))
        monkeypatch.setattr(estimators, "_refine_ratio",
                            counted("refine", estimators._refine_ratio))
        g = GramMatrix(random_psd_entries(7, 50_011, 0.05))
        cone = ConeSpec(S=(1, 4), L=2.0, N=3)
        verdicts = check_all(g, cone, fast_config)
        chunks = -(-fast_config.samples // estimators._SEARCH_CHUNK)
        assert calls == [("sample", "plain")] * chunks + [("refine", "plain")]
        e7 = verdicts[6]
        assert e7.edge_id == "E7" and e7.holds is True
        assert "binding: adaptive lower vs plain upper" in e7.bound_direction_note
        route = estimators.certified_lower_phi(g, cone, "restricted_eigenvalue", "adaptive")
        plain = estimators.restricted_eigenvalue(g, cone, "plain", fast_config)
        assert (e7.lhs_value, e7.rhs_value) == (route.lower, plain.upper)

    @pytest.mark.parametrize("ad_lower, holds", [(0.75, True), (0.85, False)])
    def test_supplied_adaptive_interval_decides_on_its_lower(self, ad_lower, holds):
        cone = ConeSpec(S=(0, 1), L=1.0, N=2)
        reports = {
            "phi_lower_adaptive": BoundedValue.interval(0.95, ad_lower, 0.95),
            "phi_re": BoundedValue.interval(0.8, 0.7, 0.8),
            "phi_compat": BoundedValue.interval(1.0, 0.99, 1.0),
        }
        v = check_edge("E7", GramMatrix(np.eye(4)), cone, reports=reports)
        assert v.holds is holds
        assert (v.lhs_value, v.rhs_value) == (ad_lower, 0.8)
        assert "adaptive lower vs plain upper" in v.bound_direction_note


class TestTransferEdges:
    """E1, E6 and E8 share one transfer form: phi^2's certified lower endpoint
    against (1 - L x)^2 Lambda^2, with Lambda^2 read before phi^2."""

    cone = ConeSpec(S=(0, 1), L=1.0, N=2)

    @pytest.mark.parametrize("edge_id, x_key, lam2_key, phi_key", [
        ("E1", "rr_plain_upper", "lambda2", "phi_lower_plain"),
        ("E6", "weak_rip_2s", "lambda2_2s", "phi_lower_plain_2s"),
        ("E8", "irr_uniform_s", "lambda2_s", "phi_compat"),
    ])
    def test_a_supplied_phi_interval_decides_on_its_lower(self, edge_id, x_key, lam2_key,
                                                          phi_key):
        reports = {x_key: BoundedValue.exact(0.5), lam2_key: BoundedValue.exact(0.8),
                   phi_key: BoundedValue.interval(0.9, 0.1, 1.0)}
        v = check_edge(edge_id, GramMatrix(np.eye(4)), self.cone, reports=reports)
        assert (v.lhs_value, v.rhs_value, v.holds) == (0.1, 0.25 * 0.8, False)

    @pytest.mark.parametrize("edge_id, key, premise", [
        ("E1", "rr_plain_upper", "premise theta_rr(S,N) < 1/L fails (upper=1.0)"),
        ("E6", "weak_rip_2s", "premise theta_wRIP(S,2s) < 1/L fails (value=1.0)"),
        ("E8", "irr_uniform_s", "premise irr_uniform(S,s) < 1/L fails (value=1.0)"),
    ])
    def test_a_failed_premise_reads_nothing_more(self, edge_id, key, premise, monkeypatch):
        from lasso_audit import implications

        def refuse(q):
            raise AssertionError("an input read after the premise failed")

        monkeypatch.setattr(implications, "_QUANTITIES",
                            {name: refuse for name in implications._QUANTITIES})
        v = check_edge(edge_id, GramMatrix(np.eye(4)), self.cone,
                       reports={key: BoundedValue.exact(1.0)})
        assert v.bound_direction_note == f"skipped: {premise}"


def test_e9_skips_above_n_2s_before_reading_an_input(monkeypatch):
    from lasso_audit import implications

    def refuse(q):
        raise AssertionError("E9 read an input")

    monkeypatch.setattr(implications, "_QUANTITIES",
                        {name: refuse for name in implications._QUANTITIES})
    v = check_edge("E9", GramMatrix(np.eye(6)), ConeSpec(S=(0,), L=1.0, N=3))
    assert v.skipped
    assert v.bound_direction_note == "skipped: guaranteed only for N <= 2s"


def test_check_all_computes_each_regression_upper_key_once(fast_config, monkeypatch):
    # lower_phi_routes under each certified_lower_phi, restricted_regression
    # and the rr_*_upper inputs ask for the same routes; the Gram's memo
    # computes each (S, N, variant, cap, sign_cap) once
    from lasso_audit import estimators
    from lasso_audit.experiments import random_psd_entries

    requests, computed = [], []
    real_memoized, real_upper = GramMatrix.memoized, estimators._regression_upper

    def memoized(self, key, compute):
        if key[0] == "regression_upper":
            requests.append(key[1:])
        return real_memoized(self, key, compute)

    def counted(gram, cone, variant, cap, sign_cap):
        computed.append((cone.S, cone.N, variant, cap, sign_cap))
        return real_upper(gram, cone, variant, cap, sign_cap)

    monkeypatch.setattr(GramMatrix, "memoized", memoized)
    monkeypatch.setattr(estimators, "_regression_upper", counted)
    entries = random_psd_entries(8, 50_021, 0.05)
    g = GramMatrix(entries)
    check_all(g, ConeSpec(S=(2, 5), L=2.0, N=3), fast_config)
    assert len(computed) == len(set(computed)) == len(set(requests))
    assert len(requests) > len(computed)
    fresh = GramMatrix(entries)
    for S, N, variant, cap, sign_cap in computed:
        alone = real_upper(fresh, ConeSpec(S, 1.0, N), variant, cap, sign_cap)
        assert g._memo[("regression_upper", S, N, variant, cap, sign_cap)] == alone


def test_check_all_computes_each_certified_lower_phi_key_once(fast_config, monkeypatch):
    # several edge inputs ask for the same certified lower bound; the Gram's
    # memo computes each (target, variant, S, L, N, cap, sign_cap) once
    from lasso_audit import estimators
    from lasso_audit.experiments import random_psd_entries

    requests, computed = [], []
    real_memoized, real_best = GramMatrix.memoized, estimators._best_route

    def memoized(self, key, compute):
        if key[0] == "certified_lower_phi":
            requests.append(key[1:])
            return real_memoized(self, key, lambda: (computed.append(key[1:]), compute())[1])
        return real_memoized(self, key, compute)

    monkeypatch.setattr(GramMatrix, "memoized", memoized)
    entries = random_psd_entries(8, 50_021, 0.05)
    g = GramMatrix(entries)
    # at L = 1 and N = 2s, phi_lower_plain, phi_lower_plain_2s and
    # phi_lower_2s name one bound
    cone = ConeSpec(S=(2, 5), L=1.0, N=4)
    check_all(g, cone, fast_config)
    assert len(computed) == len(set(computed)) == len(set(requests))
    assert len(requests) > len(computed)
    fresh = GramMatrix(entries)
    for target, variant, S, L, N, cap, sign_cap in computed:
        alone = real_best(estimators.lower_phi_routes(fresh, ConeSpec(S, L, N), target, variant,
                                                      cap, sign_cap))
        assert g._memo[("certified_lower_phi", target, variant, S, L, N, cap, sign_cap)] == alone
    # the target and variant checks run before the memo
    with pytest.raises(InvalidParameter, match="unknown target"):
        estimators.certified_lower_phi(g, cone, "sparse")
    with pytest.raises(InvalidParameter, match="unknown cone variant"):
        estimators.certified_lower_phi(g, cone, "restricted_eigenvalue", "adaptiv")


class TestInfiniteSide:
    """An infinite certified endpoint is no bound and never reads as holding."""

    @pytest.fixture(scope="class")
    def verdicts(self):
        # Lambda^2(S,2s) is positive but under regression_upper's singular
        # threshold, so the certified theta_rr_adaptive(S,2s) upper is inf
        sigma = np.eye(6)
        sigma[0, 1] = sigma[1, 0] = 1.0 - 1e-11
        sigma[0, 2] = sigma[2, 0] = sigma[1, 2] = sigma[2, 1] = 0.3
        return check_all(GramMatrix(sigma), ConeSpec(S=(0,), L=1.0, N=1))

    def test_no_verdict_rests_on_an_infinite_side(self, verdicts):
        for v in verdicts:
            if not v.skipped:
                assert math.isfinite(v.lhs_value), v.edge_id
                assert math.isfinite(v.rhs_value), v.edge_id
                assert math.isfinite(v.slack), v.edge_id

    def test_e2_e3_leave_out_the_infinite_n_2s_check(self, verdicts):
        e2, e3 = verdicts[1], verdicts[2]
        assert e2.holds is True and "at N=s" in e2.bound_direction_note
        assert e3.holds is True and "spectral" not in e3.bound_direction_note

    def test_all_infinite_upper_bounds_skip_e2(self):
        inf_upper = BoundedValue.certified_upper(math.inf)
        reports = {"lambda2_s": BoundedValue.exact(0.5), "rr_ad_upper_s": inf_upper,
                   "norm_s_2inf": 1.0, "lambda2_2s": BoundedValue.exact(0.5),
                   "rr_ad_upper_2s": inf_upper, "max_norm_2s_2inf": 1.0}
        v = check_edge("E2", GramMatrix(np.eye(4)), ConeSpec(S=(0, 1), L=1.0, N=2),
                       reports=reports)
        assert v.skipped
        assert v.bound_direction_note == "skipped: no finite theta_rr_adaptive upper bound"

    def test_infinite_le_side_skips_e5(self):
        reports = {"rr_ad_upper_2s": BoundedValue.certified_upper(math.inf),
                   "weak_rip_2s": BoundedValue.exact(0.5)}
        v = check_edge("E5", GramMatrix(np.eye(4)), ConeSpec(S=(0, 1), L=1.0, N=2),
                       reports=reports)
        assert v.skipped
        assert "no finite margin" in v.bound_direction_note


def test_a_vanishing_positive_lambda2_leaves_e2_and_e3_no_bound():
    # Lambda^2(S, s) = Lambda^2(S, 2s) = 1e-12 is positive but numerically
    # zero by the package's one rule (constants._lambda2_vanishes)
    gram = GramMatrix(np.diag([1.0, 1e-12, 1.0, 1.0]))
    notes = {v.edge_id: v.bound_direction_note
             for v in check_all(gram, ConeSpec(S=(1,), L=1.0, N=1))}
    assert notes["E2"] == "skipped: no applicable block-norm bound (singular or 2s > p)"
    assert notes["E3"] == "skipped: no applicable coherence bound (singular or 2s > p)"


def test_tiny_cap_yields_skips_not_raises(fast_config):
    g = GramMatrix(np.eye(8))
    cone = ConeSpec(S=(0, 1), L=1.0, N=4)
    out = check_all(g, cone, fast_config, cap=1)
    assert len(out) == len(EDGE_IDS)
    assert any(v.skipped and "CapExceeded" in v.bound_direction_note for v in out)


class TestPerturbationTransfer:
    def test_zero_distance_is_identity(self):
        g = GramMatrix(np.eye(4))
        pair = PerturbationPair(g, GramMatrix(np.eye(4)))
        cone = ConeSpec(S=(0, 1), L=1.0, N=2)
        phi0 = BoundedValue.certified_lower(0.81)
        out = perturbation_transfer(pair, cone, phi0)
        assert out.estimate == pytest.approx(0.81, abs=1e-15)
        assert out.certificate.value == "CertifiedLower"

    def test_monotone_in_distance(self):
        g = GramMatrix(np.eye(3))
        cone = ConeSpec(S=(0,), L=1.0, N=1)
        phi0 = BoundedValue.certified_lower(1.0)
        values = []
        for eps in (0.0, 0.01, 0.04):
            other = np.eye(3)
            other[0, 1] = other[1, 0] = eps
            out = perturbation_transfer(pair := PerturbationPair(g, GramMatrix(other)), cone, phi0)
            assert pair.d_inf == pytest.approx(eps)
            values.append(out.estimate)
        assert values[0] > values[1] > values[2]

    def test_hand_value(self):
        # sqrt(phi0) = 1, margin = 2 sqrt(0.01 * 1) = 0.2, value 0.64
        g = GramMatrix(np.eye(3))
        other = np.eye(3)
        other[0, 1] = other[1, 0] = 0.01
        pair = PerturbationPair(g, GramMatrix(other))
        cone = ConeSpec(S=(0,), L=1.0, N=1)
        out = perturbation_transfer(pair, cone, BoundedValue.certified_lower(1.0))
        assert out.estimate == pytest.approx(0.64, abs=1e-12)
        assert "ratio_bound=" in out.provenance

    def test_overwhelming_perturbation_clamps_to_zero(self):
        g = GramMatrix(np.eye(3))
        other = np.full((3, 3), 0.9)
        np.fill_diagonal(other, 1.0)
        pair = PerturbationPair(g, GramMatrix(other))
        cone = ConeSpec(S=(0, 1), L=3.0, N=2)
        out = perturbation_transfer(pair, cone, BoundedValue.certified_lower(0.5))
        assert out.estimate == 0.0
