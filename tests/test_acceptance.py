"""Acceptance gate: eleven end-to-end checks covering every deliverable.

Each test exercises one published claim on its stated instance family at the
stated tolerance and prints a single [PASS]/[FAIL] line on the terminal.
Budgeted tests also assert their wall-clock limit.  Large instances run the
reduced solver profile (fewer cone samples); certified endpoints are
unaffected by the profile, only searched endpoints are.
"""

import math
import time

import numpy as np
import pytest

from lasso_audit import (
    BoundedValue,
    ConeSpec,
    GramMatrix,
    NoisyProblem,
    PerturbationPair,
    SubsetN,
    antiprojection_identity_check,
    basis_pursuit_recover,
    certified_lower_phi,
    check_all,
    check_edge,
    compatibility_constant,
    concentration_experiment,
    cone_membership,
    derived_rng,
    irrepresentable_signed,
    irrepresentable_uniform,
    lambda0_bound,
    lower_phi_routes,
    noise_bound_experiment,
    oracle_verdict,
    perturbation_transfer,
    restricted_eigenvalue,
    restricted_regression,
    selection_report,
    solve_noiseless,
    solve_noisy,
    uniform_eigenvalue,
)
from lasso_audit.experiments import (
    _box_muller,
    coupled_pair_entries,
    equicorrelation_entries,
    random_psd_entries,
    rank_one_cross_entries,
    sample_gaussian_design,
)
from lasso_audit.implications import _DIRECTION_NOTE
from lasso_audit.solvers import DEFAULT_CONFIG

REDUCED = DEFAULT_CONFIG.reduced()


@pytest.fixture
def verdict(capsys):
    """One [PASS]/[FAIL] line per criterion, written past the capture."""

    def emit(num, ok, detail):
        line = "[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail)
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def test_criterion_01_equicorrelation_closed_forms(verdict):
    start = time.perf_counter()
    gram = GramMatrix(equicorrelation_entries(20, 0.5))
    support = (0, 1, 2)
    ok = True
    for n_size in (3, 6):
        lv = uniform_eigenvalue(gram, ConeSpec(support, 1.0, n_size))
        ok = ok and abs(lv.estimate - 0.5) <= 1e-9
    irr = irrepresentable_uniform(gram, ConeSpec(support, 1.0, 3))
    # s*rho / (1 + (s-1)*rho) with s=3, rho=0.5
    ok = ok and abs(irr.estimate - 0.75) <= 1e-9 and irr.estimate < 1.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    verdict(1, ok, "equicorrelation p=20: uniform eigenvalue 0.5 at N in {3,6}, "
                    "leverage 0.75 < 1 (%.2fs)" % elapsed)


def test_criterion_02_rank_one_cross_strict_bounds(verdict):
    start = time.perf_counter()
    gram = GramMatrix(rank_one_cross_entries(12, 4, 0.6))
    cone = ConeSpec((0, 1, 2, 3), 1.0, 4)
    irr = irrepresentable_uniform(gram, cone)
    ok = abs(irr.estimate - 1.2) <= 1e-8  # rho * sqrt(s)
    rr = restricted_regression(gram, cone, "adaptive", DEFAULT_CONFIG)
    ok = ok and rr.lower <= 1.2 <= rr.upper + 1e-9 and (rr.upper - rr.lower) <= 0.05
    e4 = check_edge("E4", gram, cone, config=DEFAULT_CONFIG)
    ok = ok and bool(e4.holds) and abs(e4.slack) <= 1e-6
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    verdict(2, ok, "rank-one cross p=12 s=4 rho=0.6: leverage 1.2, adaptive "
                    "regression pins 1.2, E4 tight (%.2fs)" % elapsed)


def test_criterion_03_compatibility_versus_eigenvalue_gap(verdict):
    # one rho-correlated pair inside an otherwise identity head block; the
    # reduced profile is the documented configuration for this instance size
    start = time.perf_counter()
    rho = 1.0 - 3.0 / 18.0
    gram = GramMatrix(coupled_pair_entries(40, 20, rho))
    cone = ConeSpec(tuple(range(20)), 1.0, 20)
    re = restricted_eigenvalue(gram, cone, "plain", REDUCED)
    # the interval endpoints may sit one ulp below the target; allow 1e-9 grace
    ok = re.lower <= 1.0 / 6.0 + 1e-9 and 1.0 / 6.0 <= re.upper + 1e-9
    ok = ok and re.upper <= 1.0 / 6.0 + 1e-3
    comp = compatibility_constant(gram, cone, REDUCED, sign_cap=1 << 20)
    ok = ok and comp.estimate >= 0.5 - 1e-6
    gap = comp.estimate / re.estimate
    ok = ok and gap >= 3.0 - 0.01
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    verdict(3, ok, "coupled pair p=40 s=20: eigenvalue pins 1/6, compatibility "
                    "%.4f >= 1/2, gap factor %.2f >= 3 (%.2fs)" % (comp.estimate, gap, elapsed))


def test_criterion_04_oracle_inequality_suite(verdict):
    start = time.perf_counter()
    rng = derived_rng(0, "acceptance-oracle")
    failures = 0
    for i in range(200):
        p = int(rng.integers(6, 11))
        s = int(rng.integers(1, 4))
        lam = (0.1, 0.5)[i % 2]
        gram = GramMatrix(random_psd_entries(p, 10_000 + i, jitter=0.1))
        support = tuple(sorted(rng.choice(p, size=s, replace=False).tolist()))
        beta0 = np.zeros(p)
        beta0[list(support)] = rng.choice([-1.0, 1.0], size=s) * (1.0 + rng.random(s))
        sol = solve_noiseless(gram, beta0, lam, REDUCED)
        cone = ConeSpec(support, 1.0, s)
        good = sol.kkt_residual <= 1e-9
        good = good and cone_membership(sol.beta_star - beta0, cone,
                                        variant="plain", atol=1e-9)
        # the lambda_min route alone bounds phi^2_compat and phi^2(1, S, 2s);
        # 0 (no certified bound) when Sigma is singular
        phi_low = BoundedValue.certified_lower(lower_phi_routes(gram, cone).get("lambda_min", 0.0))
        v = oracle_verdict(gram, sol, cone, lam, phi_low, phi_low)
        good = good and v.holds and v.l1_holds and v.l2_holds
        if not good:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    verdict(4, ok, "prediction, l1, and l2 bounds plus KKT and cone membership "
                    "on 200 random instances, %d failures (%.1fs)" % (failures, elapsed))


def test_criterion_05_antiprojection_identity(verdict):
    start = time.perf_counter()
    found = 0
    seed = 0
    worst = 0.0
    while found < 50 and seed < 600:
        seed += 1
        gram = GramMatrix(random_psd_entries(7, 20_000 + seed, jitter=0.05))
        beta0 = np.zeros(7)
        beta0[[0, 1]] = 1.0
        sol = solve_noiseless(gram, beta0, 0.4, REDUCED)
        if np.max(np.abs(sol.beta_star[2:])) <= 1e-8:
            continue
        found += 1
        lhs, rhs, gap = antiprojection_identity_check(gram, sol, SubsetN((0, 1)))
        scale = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, gap / scale)
    ok = found == 50 and worst <= 1e-6
    verdict(5, ok, "both sides agree on 50 solved instances with nonzero tails, "
                    "worst relative gap %.2e (%.1fs)" % (worst, time.perf_counter() - start))


def test_criterion_06_exact_support_selection(verdict):
    start = time.perf_counter()
    gram = GramMatrix(np.eye(30))
    bad = 0
    for i in range(12):
        rng = derived_rng(i, "acceptance-select")
        support = tuple(sorted(rng.choice(30, size=4, replace=False).tolist()))
        mags = 1.0 + 2.0 * rng.random(4)
        mags[int(rng.integers(0, 4))] = 1.0  # pin the minimum magnitude at one
        beta0 = np.zeros(30)
        beta0[list(support)] = rng.choice([-1.0, 1.0], size=4) * mags
        sol = solve_noiseless(gram, beta0, 0.1, REDUCED)
        rep = selection_report(gram, sol, ConeSpec(support, 1.0, 4), beta0)
        good = rep.s_star_equals_s
        if rep.s_subset_s_star:
            good = good and rep.part3_lhs is not None and rep.part3_lhs <= 1.0 + 1e-9
        if not good:
            bad += 1
    ok = bad == 0
    verdict(6, ok, "identity p=30 s=4 lam=0.1: selected set equals the truth and "
                    "the selected-set leverage stays below one, %d failures (%.1fs)"
                    % (bad, time.perf_counter() - start))


def test_criterion_07_basis_pursuit_on_rank_deficient_designs(verdict):
    start = time.perf_counter()
    found = 0
    seed = 0
    worst = 0.0
    while found < 50 and seed < 500:
        seed += 1
        x = _box_muller(derived_rng(seed, "acceptance-recover"), (8, 12))
        sig = x.T @ x / 8.0
        gram = GramMatrix((sig + sig.T) / 2.0)  # p=12, rank 8
        cone = ConeSpec((0, 1), 1.0, 2)
        holds, _ = irrepresentable_signed(gram, cone, part=2)
        if not holds:
            continue
        found += 1
        beta0 = np.zeros(12)
        beta0[[0, 1]] = (1.0, -1.0)
        beta_lp, recovered, _ = basis_pursuit_recover(gram, beta0, REDUCED)
        err = float(np.max(np.abs(beta_lp - beta0)))
        worst = max(worst, err)
        if not recovered:
            worst = math.inf
    ok = found == 50 and worst <= 1e-6
    verdict(7, ok, "sign-enumerated condition implies unique l1 recovery on "
                    "50 rank-deficient designs, worst error %.2e (%.1fs)"
                    % (worst, time.perf_counter() - start))


def test_criterion_08_implication_graph_audit(verdict):
    start = time.perf_counter()
    rng = derived_rng(0, "acceptance-edges")
    failed = 0
    evaluated = 0
    direction_bad = 0
    for i in range(200):
        p = int(rng.integers(4, 9))
        s = int(rng.integers(1, 3))
        jitter = float(rng.choice([0.0, 0.05, 0.2]))
        gram = GramMatrix(random_psd_entries(p, 30_000 + i, jitter=jitter))
        support = tuple(sorted(rng.choice(p, size=s, replace=False).tolist()))
        big_l = float(rng.choice([1.0, 2.0, 3.0]))
        n_size = int(rng.integers(s, min(2 * s, p) + 1))
        for v in check_all(gram, ConeSpec(support, big_l, n_size), REDUCED):
            if v.skipped:
                if not v.bound_direction_note.startswith("skipped: "):
                    direction_bad += 1
                continue
            evaluated += 1
            if not v.holds:
                failed += 1
            # comparisons must pit the certified endpoints against each other
            if not v.bound_direction_note.endswith(_DIRECTION_NOTE):
                direction_bad += 1
    ok = failed == 0 and direction_bad == 0 and evaluated > 0
    verdict(8, ok, "zero failed edges over 200 random instances "
                    "(%d evaluated), direction audit clean (%.1fs)"
                    % (evaluated, time.perf_counter() - start))


def test_criterion_09_perturbation_transfer(verdict):
    start = time.perf_counter()
    bad = 0
    for i in range(50):
        rng = derived_rng(i, "acceptance-perturb")
        p = int(rng.integers(5, 9))
        base = random_psd_entries(p, 40_000 + i, jitter=0.3)
        noise = rng.uniform(-1.0, 1.0, size=(p, p)) * 1e-3
        noise = (noise + noise.T) / 2.0
        np.fill_diagonal(noise, 0.0)
        pair = PerturbationPair(GramMatrix(base), GramMatrix(base + noise))
        assert pair.d_inf <= 1e-3
        s = int(rng.integers(1, 3))
        support = tuple(sorted(rng.choice(p, size=s, replace=False).tolist()))
        cone = ConeSpec(support, 1.0, s)
        phi0 = certified_lower_phi(pair.sigma0, cone, target="compatibility")
        moved = perturbation_transfer(pair, cone, phi0)
        direct = compatibility_constant(pair.sigma1, cone, REDUCED)
        if not moved.estimate <= direct.estimate + 1e-6:
            bad += 1
    ok = bad == 0
    verdict(9, ok, "transferred lower bound never exceeds the directly computed "
                    "constant on 50 perturbed pairs (%.1fs)" % (time.perf_counter() - start))


def test_criterion_10_monte_carlo_tail_bounds(verdict):
    start = time.perf_counter()
    conc = concentration_experiment(200, 50, GramMatrix(np.eye(50)), 2000,
                                    [1.0, 2.0, 4.0], seed=0)
    noise = noise_bound_experiment(400, 100, 2000, [1.0, 2.0, 4.0], seed=0)
    elapsed = time.perf_counter() - start
    # coverage >= 1 - 2e^{-t} - slack is the same event as the recorded pass
    ok = all(conc.passed) and all(noise.passed) and elapsed < 120.0
    verdict(10, ok, "empirical exceedance within 2e^-t plus binomial slack for "
                     "both experiments at t in {1,2,4}, reps=2000 (%.1fs)" % elapsed)


def test_criterion_11_noisy_oracle_bound(verdict):
    start = time.perf_counter()
    lam = 2.0 * lambda0_bound(2, 500, 20)
    population = GramMatrix(np.eye(20))
    beta0 = np.zeros(20)
    beta0[:3] = 1.0
    applied = 0
    held = 0
    for seed in range(100):
        x, _ = sample_gaussian_design(500, 20, population, seed)
        eps = _box_muller(derived_rng(seed, "acceptance-noisy", "eps"), 500)
        problem = NoisyProblem(x, x @ beta0 + eps, beta0=beta0, epsilon=eps)
        _, v = solve_noisy(problem, lam, REDUCED)
        if v.premise_ok:
            applied += 1
            if v.holds:
                held += 1
    ok = applied > 0 and held == applied
    verdict(11, ok, "noisy bound with certified empirical-Gram constant holds on "
                     "%d/%d seeds where lam > lambda0 (%.1fs)"
                     % (held, applied, time.perf_counter() - start))
