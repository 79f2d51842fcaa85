"""Exact condition constants against brute-force and closed-form oracles.

The brute-force oracles enumerate every admissible index set with itertools
and plain numpy calls, independent of the enumeration plans under test.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from lasso_audit import (
    ConeSpec,
    GramMatrix,
    SubsetN,
    alpha_constant,
    block_norm_2q,
    coherence,
    irrepresentable_signed,
    irrepresentable_uniform,
    restricted_diagonal_holds,
    restricted_isometry,
    restricted_orthogonality,
    rip_constant,
    theta_uniform,
    uniform_eigenvalue,
    weak_rip_constant,
)
from lasso_audit.errors import CapExceeded, DenominatorNonPositive, InvalidParameter, SingularBlock
from lasso_audit import constants
from lasso_audit.estimators import regression_upper
from lasso_audit.experiments import random_psd_entries
from lasso_audit.implications import _Inputs, check_all, check_edge
from lasso_audit.solvers import DEFAULT_CONFIG

from conftest import random_gram


def equicorr(p, rho):
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    return GramMatrix(sigma)


def all_enlargements(p, S, n_max):
    """Every superset of S up to size n_max, any intermediate size."""
    others = [j for j in range(p) if j not in set(S)]
    for k in range(len(S), n_max + 1):
        for extra in itertools.combinations(others, k - len(S)):
            yield tuple(sorted(tuple(S) + extra))


class TestUniformEigenvalue:
    def test_brute_force_all_sizes(self):
        # the evaluation plan skips intermediate sizes; interlacing says the
        # skipped sets never attain the minimum, which this oracle confirms
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = random_gram(rng, 6)
            cone = ConeSpec(S=(0, 3), L=1.0, N=4)
            want = min(
                float(np.linalg.eigvalsh(g.entries[np.ix_(n, n)])[0])
                for n in all_enlargements(6, (0, 3), 4)
            )
            got = uniform_eigenvalue(g, cone)
            assert got.estimate == pytest.approx(want, abs=1e-12)
            assert got.certificate.value == "Exact"

    def test_equicorrelation_closed_form(self):
        g = equicorr(8, 0.3)
        cone = ConeSpec(S=(1, 5), L=1.0, N=4)
        assert uniform_eigenvalue(g, cone).estimate == pytest.approx(0.7, abs=1e-12)

    def test_frozen_small_case(self):
        got = uniform_eigenvalue(equicorr(4, 0.5), ConeSpec(S=(0, 1), L=1.0, N=3))
        assert got.estimate == 0.49999999999999967

    def test_monotone_in_n(self):
        rng = np.random.default_rng(3)
        g = random_gram(rng, 7)
        vals = [
            uniform_eigenvalue(g, ConeSpec(S=(0, 2), L=1.0, N=n)).estimate
            for n in (2, 3, 4, 5)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        g = random_gram(rng, 6)
        perm = [3, 5, 0, 1, 4, 2]
        gp = GramMatrix(g.entries[np.ix_(perm, perm)])
        # S maps through the permutation: perm[1]=5, perm[3]=1 live at slots 1, 3
        a = uniform_eigenvalue(g, ConeSpec(S=(1, 5), L=1.0, N=3)).estimate
        b = uniform_eigenvalue(gp, ConeSpec(S=(1, 3), L=1.0, N=3)).estimate
        assert a == pytest.approx(b, abs=1e-12)


class TestRestrictedIsometry:
    def test_identity_is_zero(self):
        assert restricted_isometry(GramMatrix(np.eye(6)), 3).estimate == 0.0

    def test_equicorrelation_closed_form(self):
        # size-N principal block has eigenvalues 1 - rho and 1 + (N-1) rho
        got = restricted_isometry(equicorr(6, 0.2), 3)
        assert got.estimate == pytest.approx(0.4, abs=1e-12)

    def test_brute_force(self):
        rng = np.random.default_rng(17)
        g = random_gram(rng, 6)
        want = max(
            max(
                float(np.linalg.eigvalsh(g.entries[np.ix_(m, m)])[-1]) - 1.0,
                1.0 - float(np.linalg.eigvalsh(g.entries[np.ix_(m, m)])[0]),
            )
            for m in itertools.combinations(range(6), 3)
        )
        assert restricted_isometry(g, 3).estimate == pytest.approx(want, abs=1e-12)

    def test_nondecreasing_in_n(self):
        rng = np.random.default_rng(19)
        g = random_gram(rng, 6)
        vals = [restricted_isometry(g, n).estimate for n in (1, 2, 3, 4)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_cap_and_range(self):
        g = GramMatrix(np.eye(8))
        with pytest.raises(CapExceeded):
            restricted_isometry(g, 4, cap=10)
        with pytest.raises(InvalidParameter):
            restricted_isometry(g, 0)
        with pytest.raises(InvalidParameter):
            restricted_isometry(g, 9)


def brute_theta(entries, nsets, s):
    p = entries.shape[0]
    best = 0.0
    for nset in nsets:
        outside = [j for j in range(p) if j not in set(nset)]
        for m in range(1, s + 1):
            for mset in itertools.combinations(outside, m):
                sv = np.linalg.svd(entries[np.ix_(nset, mset)], compute_uv=False)
                if sv.size:
                    best = max(best, float(sv[0]))
    return best


class TestRestrictedOrthogonality:
    def test_brute_force_every_pair(self):
        rng = np.random.default_rng(23)
        for _ in range(4):
            g = random_gram(rng, 6)
            cone = ConeSpec(S=(1, 2), L=1.0, N=3)
            want = brute_theta(g.entries, list(all_enlargements(6, (1, 2), 3)), 2)
            got = restricted_orthogonality(g, cone)
            assert got.estimate == pytest.approx(want, abs=1e-12)

    def test_equicorrelation_closed_form(self):
        # cross blocks are rho * ones, largest singular value rho * sqrt(n m)
        g = equicorr(8, 0.3)
        cone = ConeSpec(S=(0, 1), L=1.0, N=3)
        assert restricted_orthogonality(g, cone).estimate == pytest.approx(
            0.3 * math.sqrt(6), abs=1e-12
        )

    def test_identity_is_zero(self):
        cone = ConeSpec(S=(0, 1), L=1.0, N=3)
        assert restricted_orthogonality(GramMatrix(np.eye(6)), cone).estimate == 0.0


class TestThetaUniform:
    def test_brute_force(self):
        rng = np.random.default_rng(29)
        g = random_gram(rng, 5)
        nsets = [n for k in (2, 3) for n in itertools.combinations(range(5), k)]
        want = brute_theta(g.entries, nsets, 2)
        assert theta_uniform(g, 2, 3).estimate == pytest.approx(want, abs=1e-12)

    def test_equicorrelation(self):
        got = theta_uniform(equicorr(8, 0.3), 2, 3)
        assert got.estimate == pytest.approx(0.3 * math.sqrt(6), abs=1e-12)


class TestRipAndWeakRip:
    def test_identity_rip_zero(self):
        assert rip_constant(GramMatrix(np.eye(6)), 2).estimate == 0.0

    def test_equicorrelation_values(self):
        # delta_2 = rho, theta_22 = 2 rho, theta_24 = rho sqrt(8)
        g = equicorr(6, 0.1)
        want = 0.1 * math.sqrt(8.0) / (1.0 - 0.1 - 0.2)
        assert rip_constant(g, 2).estimate == pytest.approx(want, abs=1e-12)

    def test_denominator_guard(self):
        with pytest.raises(DenominatorNonPositive):
            rip_constant(equicorr(6, 0.5), 2)

    def test_weak_rip_equicorrelation(self):
        g = equicorr(6, 0.3)
        cone = ConeSpec(S=(0, 1), L=1.0, N=4)
        want = 0.3 * math.sqrt(8.0) / 0.7
        assert weak_rip_constant(g, cone).estimate == pytest.approx(want, abs=1e-12)

    def test_weak_rip_singular_guard(self):
        g = GramMatrix(np.ones((3, 3)))
        with pytest.raises(SingularBlock):
            weak_rip_constant(g, ConeSpec(S=(0,), L=1.0, N=2))


class TestIrrepresentableUniform:
    def test_equicorrelation_closed_form(self):
        # leverage of nset of size k is k rho / (1 + (k-1) rho), increasing in
        # k, so the minimum sits at nset = S
        got = irrepresentable_uniform(equicorr(6, 0.5), ConeSpec(S=(0, 1), L=1.0, N=3))
        assert got.estimate == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert got.estimate == 0.6666666666666665

    def test_brute_force_evaluation_set(self):
        # convention: candidates are S plus the size-N supersets
        rng = np.random.default_rng(31)
        g = random_gram(rng, 6)
        cone = ConeSpec(S=(0, 4), L=1.0, N=3)
        cands = [(0, 4)] + [n for n in all_enlargements(6, (0, 4), 3) if len(n) == 3]
        want = math.inf
        for n in cands:
            comp = [j for j in range(6) if j not in set(n)]
            m = g.entries[np.ix_(comp, n)] @ np.linalg.inv(g.entries[np.ix_(n, n)])
            want = min(want, float(np.max(np.sum(np.abs(m), axis=1))))
        assert irrepresentable_uniform(g, cone).estimate == pytest.approx(want, abs=1e-10)

    def test_all_singular(self):
        # with |S| = 2 every candidate block of the all-ones matrix is singular
        g = GramMatrix(np.ones((3, 3)))
        with pytest.raises(SingularBlock):
            irrepresentable_uniform(g, ConeSpec(S=(0, 1), L=1.0, N=2))


class TestIrrepresentableSigned:
    def test_part2_identity_holds(self):
        g = GramMatrix(np.eye(5))
        ok, witness = irrepresentable_signed(g, ConeSpec(S=(1, 3), L=1.0, N=3), part=2)
        assert ok is True
        assert witness.members == (1, 3)  # smallest enlargement wins

    def test_part2_fails_under_strong_cross_correlation(self):
        # one tail column correlated rho sqrt(s) > 1 with the normalized head
        p, s, rho = 8, 4, 0.6
        sigma = np.eye(p)
        b1 = np.ones(s) / math.sqrt(s)
        sigma[s, :s] = rho * b1
        sigma[:s, s] = rho * b1
        g = GramMatrix(sigma)
        ok, witness = irrepresentable_signed(g, ConeSpec(S=(0, 1, 2, 3), L=1.0, N=4), part=2)
        assert ok is False and witness is None

    def test_part2_l_zero_always_holds(self):
        g = equicorr(5, 0.9)
        ok, _ = irrepresentable_signed(g, ConeSpec(S=(0, 1), L=0.0, N=2), part=2)
        assert ok is True

    def test_part3_identity(self):
        g = GramMatrix(np.eye(4))
        ok, witness = irrepresentable_signed(g, ConeSpec(S=(0, 2), L=1.0, N=3), part=3)
        assert ok is True
        assert set(witness) == {(1, 1), (-1, 1), (1, -1), (-1, -1)}
        nset, tau = witness[(1, -1)]
        assert nset.members == (0, 2)
        assert tau == (1, -1)

    def test_part3_failure_reports_tau(self):
        # M = (0.6, 0.6), so tau = (1, 1) pushes the leverage to 1.2 and no
        # enlargement exists at p = 3; the first failing tau_S is reported
        sigma = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.6], [0.6, 0.6, 1.0]])
        g = GramMatrix(sigma)
        ok, info = irrepresentable_signed(g, ConeSpec(S=(0, 1), L=1.0, N=2), part=3)
        assert ok is False
        assert info == {"failing_tau_S": (1, 1)}

    def test_sign_cap(self):
        g = GramMatrix(np.eye(30))
        with pytest.raises(CapExceeded):
            irrepresentable_signed(g, ConeSpec(S=tuple(range(25)), L=1.0, N=25),
                                   part=2, sign_cap=2 ** 10)

    def test_part_validation(self):
        g = GramMatrix(np.eye(3))
        with pytest.raises(InvalidParameter):
            irrepresentable_signed(g, ConeSpec(S=(0,), L=1.0, N=1), part=1)


class TestCoherence:
    def test_equicorrelation_hand_values(self):
        g = equicorr(4, 0.5)
        cone = ConeSpec(S=(0, 1), L=1.0, N=2)
        assert coherence(g, cone, "mutual").estimate == pytest.approx(2.0, abs=1e-12)
        assert coherence(g, cone, "cumulative").estimate == pytest.approx(4.0, abs=1e-12)

    def test_full_support_is_zero(self):
        g = equicorr(3, 0.4)
        cone = ConeSpec(S=(0, 1, 2), L=1.0, N=3)
        assert coherence(g, cone, "mutual").estimate == 0.0

    def test_unknown_kind_and_singular(self):
        g = equicorr(4, 0.5)
        with pytest.raises(InvalidParameter):
            coherence(g, ConeSpec(S=(0, 1), L=1.0, N=2), "spectral")
        ones = GramMatrix(np.ones((3, 3)))
        with pytest.raises(SingularBlock):
            coherence(ones, ConeSpec(S=(0, 1), L=1.0, N=2), "mutual")


class TestBlockNorm2q:
    def test_hand_values(self):
        g = equicorr(4, 0.5)
        nset = SubsetN((0, 1))
        assert block_norm_2q(g, nset, math.inf).estimate == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )
        assert block_norm_2q(g, nset, 2).estimate == pytest.approx(1.0, abs=1e-12)
        assert block_norm_2q(g, nset, 1).estimate == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )

    def test_q1_vertex_oracle(self):
        rng = np.random.default_rng(37)
        g = random_gram(rng, 6)
        nset = SubsetN((0, 2, 5))
        s12 = g.entries[np.ix_([0, 2, 5], [1, 3, 4])]
        want = max(
            float(np.linalg.norm(s12 @ np.array(z)))
            for z in itertools.product((-1.0, 1.0), repeat=3)
        )
        assert block_norm_2q(g, nset, 1).estimate == pytest.approx(want, abs=1e-12)

    def test_column_bound_dominates_exact(self):
        sigma = np.eye(4)
        sigma[0, 2] = sigma[2, 0] = 0.3
        sigma[1, 3] = sigma[3, 1] = 0.4
        g = GramMatrix(sigma)
        nset = SubsetN((0, 1))
        exact = block_norm_2q(g, nset, 2).estimate
        bound = block_norm_2q(g, nset, 2, "column_bound")
        assert exact == pytest.approx(0.4, abs=1e-12)
        assert bound.estimate == pytest.approx(0.5, abs=1e-12)
        assert bound.certificate.value == "CertifiedUpper"
        # tight at q = inf
        assert block_norm_2q(g, nset, math.inf, "column_bound").estimate == pytest.approx(
            block_norm_2q(g, nset, math.inf).estimate, abs=1e-15
        )

    def test_empty_complement(self):
        g = equicorr(3, 0.2)
        assert block_norm_2q(g, SubsetN((0, 1, 2)), 2).estimate == 0.0

    def test_validation(self):
        g = equicorr(4, 0.2)
        with pytest.raises(InvalidParameter):
            block_norm_2q(g, SubsetN((0,)), 0.5)
        with pytest.raises(InvalidParameter):
            block_norm_2q(g, SubsetN((0,)), 3)
        with pytest.raises(InvalidParameter):
            block_norm_2q(g, SubsetN((0,)), 2, "loose")
        with pytest.raises(CapExceeded):
            block_norm_2q(GramMatrix(np.eye(30)), SubsetN((0,)), 1, sign_cap=4)


def sign_matrix_reference(k):
    """All of {+1,-1}^k by the closed formula the generator must reproduce:
    row g maps bit i of g to -1 when set."""
    if k == 0:
        return np.ones((1, 0))
    g = np.arange(2 ** k, dtype=np.int64)
    bits = (g[:, None] >> np.arange(k)[None, :]) & 1
    return 1.0 - 2.0 * bits


@pytest.mark.parametrize("k", range(13))
def test_sign_chunks_match_formula(k):
    want = sign_matrix_reference(k)
    for chunk in (1, 7, 2 ** k):
        blocks = list(constants._sign_chunks(k, chunk))
        assert all(len(b) <= chunk for b in blocks)
        got = np.concatenate(blocks)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_restricted_diagonal_holds():
    g = equicorr(3, 0.5)
    # largest admissible shift on coordinate 0 alone is 1 / (Sigma^{-1})_00 = 2/3
    assert restricted_diagonal_holds(g, (0,), 0.6)
    assert not restricted_diagonal_holds(g, (0,), 0.7)
    assert restricted_diagonal_holds(GramMatrix(np.eye(4)), (0, 1), 1.0)


@pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40])
def test_restricted_diagonal_holds_at_every_scale(scale):
    # a shift 1% past the admissible 2/3 fails at every scale: the roundoff
    # tolerance is relative to max|Sigma_ij|
    g = GramMatrix(scale * equicorr(3, 0.5).entries)
    assert restricted_diagonal_holds(g, (0,), scale * 0.66)
    assert not restricted_diagonal_holds(g, (0,), scale * 0.67)


class TestAlphaConstant:
    def test_identity_is_zero(self):
        g = GramMatrix(np.eye(6))
        got = alpha_constant(g, ConeSpec(S=(0, 1), L=1.0, N=2), 1.0)
        assert got.estimate == 0.0
        assert got.certificate.value == "CertifiedUpper"

    def test_formula_by_hand(self):
        g = equicorr(6, 0.1)
        cone = ConeSpec(S=(0, 1), L=1.0, N=2)
        theta_s = 0.1 * 2.0  # rho sqrt(2 * 2)
        delta_s = 0.1
        lam2 = 0.9
        phi2 = 0.5
        want = (math.sqrt(2) * theta_s + math.sqrt((1 + delta_s) * theta_s)) / (
            math.sqrt(phi2) * math.sqrt(lam2)
        )
        assert alpha_constant(g, cone, phi2).estimate == pytest.approx(want, abs=1e-12)

    def test_guards(self):
        g = equicorr(4, 0.1)
        with pytest.raises(DenominatorNonPositive):
            alpha_constant(g, ConeSpec(S=(0,), L=1.0, N=1), 0.0)
        ones = GramMatrix(np.ones((3, 3)))
        with pytest.raises(SingularBlock):
            alpha_constant(ones, ConeSpec(S=(0, 1), L=1.0, N=2), 1.0)


class TestOneLambda2Rule:
    """Lambda^2(S, N) vanishes at or below 1e-10 * max(max_j Sigma_jj, 1) for
    every reader.  On I_4 with Sigma_01 = 1 - eps, Lambda^2((0, 1), 2) is
    about eps, while lambda_max(Sigma) is about 2: a floor scaled by
    lambda_max would put eps = 1.5e-10 below it."""

    cone = ConeSpec(S=(0, 1), L=1.0, N=2)

    @staticmethod
    def gram(eps):
        entries = np.eye(4)
        entries[0, 1] = entries[1, 0] = 1.0 - eps
        return GramMatrix(entries)

    def test_just_above_the_floor_every_reader_divides(self):
        g = self.gram(1.5e-10)
        lam2 = uniform_eigenvalue(g, self.cone).estimate
        assert 1e-10 < lam2 < 2e-10
        assert weak_rip_constant(g, self.cone).estimate == 0.0
        coherence(g, self.cone, "mutual")
        assert "route=" in regression_upper(g, self.cone).provenance
        assert alpha_constant(g, self.cone, 1.0).estimate == 0.0

    def test_at_the_floor_every_reader_refuses(self):
        g = self.gram(5e-11)
        with pytest.raises(SingularBlock):
            weak_rip_constant(g, self.cone)
        for kind in ("mutual", "cumulative"):
            with pytest.raises(SingularBlock):
                coherence(g, self.cone, kind)
        assert regression_upper(g, self.cone).provenance == "no applicable route"
        with pytest.raises(SingularBlock):
            alpha_constant(g, self.cone, 1.0)

    def test_alpha_refuses_before_either_enumeration(self, monkeypatch):
        def enumerated(*args, **kwargs):
            raise AssertionError("enumerated before the Lambda^2 test")

        monkeypatch.setattr(constants, "restricted_orthogonality", enumerated)
        monkeypatch.setattr(constants, "restricted_isometry", enumerated)
        with pytest.raises(SingularBlock, match=r"Lambda\^2\(S,s\) = .* is numerically zero"):
            alpha_constant(self.gram(5e-11), self.cone, 1.0)


# -- the batched enumeration kernel against a plain per-subset loop ----------


def loop_extreme(entries, candidates, value, maximize, start):
    """First strict optimum of value(candidate) in visiting order, one block
    at a time: the reference the batched kernel must match exactly."""
    best, witness = start, None
    for cand in candidates:
        v = value(entries, cand)
        if (v > best) if maximize else (v < best):
            best, witness = v, cand
    return best, witness


def loop_supersets(p, S, n):
    others = [j for j in range(p) if j not in set(S)]
    for extra in itertools.combinations(others, n - len(S)):
        yield tuple(sorted(tuple(S) + extra))


def loop_pairs(p, nsets, m):
    for nset in nsets:
        outside = [j for j in range(p) if j not in set(nset)]
        for mset in itertools.combinations(outside, m):
            yield nset, mset


def min_eig(entries, nset):
    return float(np.linalg.eigvalsh(entries[np.ix_(nset, nset)])[0])


def isometry_dev(entries, nset):
    vals = np.linalg.eigvalsh(entries[np.ix_(nset, nset)])
    return max(float(vals[-1]) - 1.0, 1.0 - float(vals[0]))


def top_sv(entries, pair):
    return float(np.linalg.svd(entries[np.ix_(pair[0], pair[1])], compute_uv=False)[0])


def loop_constants(entries, S, N, s_uniform, n_uniform):
    """(value, provenance) of the four enumerated constants by plain loops."""
    p, s = entries.shape[0], len(S)
    nsets = [tuple(S)] + (list(loop_supersets(p, S, N)) if N > s else [])
    lam2, lam_w = loop_extreme(entries, nsets, min_eig, False, math.inf)
    delta, delta_w = loop_extreme(entries, itertools.combinations(range(p), N),
                                  isometry_dev, True, -math.inf)
    pairs = (pair for n, m in constants._ortho_sizes(p, s, N)
             for pair in loop_pairs(p, loop_supersets(p, S, n), m))
    theta, theta_w = loop_extreme(entries, pairs, top_sv, True, 0.0)
    upairs = (pair for n, m in constants._ortho_sizes(p, s_uniform, min(n_uniform, p))
              for pair in loop_pairs(p, itertools.combinations(range(p), n), m))
    theta_u, _ = loop_extreme(entries, upairs, top_sv, True, 0.0)
    complements = ((nset, tuple(j for j in range(p) if j not in nset))
                   for nset in loop_supersets(p, S, N))
    cross, _ = loop_extreme(entries, complements, top_sv, True, 0.0)
    return {
        "uniform_eigenvalue": (lam2, f"argmin nset={lam_w}"),
        "restricted_isometry": (delta, f"argmax nset={delta_w}"),
        "restricted_orthogonality": (theta, f"argmax pair={theta_w}"),
        "theta_uniform": (theta_u, ""),
        "max_complement_norm": cross,
    }


def kernel_constants(entries, S, N, s_uniform, n_uniform):
    g = GramMatrix(entries)
    cone = ConeSpec(S=S, L=1.0, N=N)
    got = {
        "uniform_eigenvalue": uniform_eigenvalue(g, cone),
        "restricted_isometry": restricted_isometry(g, N),
        "restricted_orthogonality": restricted_orthogonality(g, cone),
        "theta_uniform": theta_uniform(g, s_uniform, n_uniform),
    }
    out = {k: (bv.estimate, bv.provenance) for k, bv in got.items()}
    out["max_complement_norm"] = constants.block_norm_maxima(g, cone).spectral
    return out


class TestEnumerationKernel:
    @pytest.mark.parametrize("p, seed", [(8, 101), (12, 102), (16, 103)])
    def test_matches_loop_on_random_grams(self, p, seed, monkeypatch):
        g = random_gram(np.random.default_rng(seed), p)
        S, N = (1, p // 2), 4
        n_uniform = 4 if p <= 12 else 3
        want = loop_constants(g.entries, S, N, 2, n_uniform)
        # the default chunk, then chunks small enough to split every plan
        assert kernel_constants(g.entries, S, N, 2, n_uniform) == want
        monkeypatch.setattr(constants, "_CHUNK_ENTRIES", 37)
        assert kernel_constants(g.entries, S, N, 2, n_uniform) == want

    def test_matches_loop_under_ties(self, monkeypatch):
        # equicorrelation: every block of a size has the same spectrum, so the
        # witnesses are decided by tie-breaking alone
        entries = equicorr(9, 0.3).entries
        want = loop_constants(entries, (2, 5), 4, 2, 4)
        assert want["uniform_eigenvalue"][1] == "argmin nset=(2, 5)"
        assert kernel_constants(entries, (2, 5), 4, 2, 4) == want
        monkeypatch.setattr(constants, "_CHUNK_ENTRIES", 5)
        assert kernel_constants(entries, (2, 5), 4, 2, 4) == want

    def test_chunked_memory_is_bounded(self):
        # 168,168 (nset, mset) pairs; gathered at once their 6x3 blocks alone
        # would take 24 MB
        g = random_gram(np.random.default_rng(7), 14)
        assert sum(math.comb(14, n) * math.comb(14 - n, m)
                   for n, m in constants._ortho_sizes(14, 3, 6)) == 168168
        tracemalloc.start()
        try:
            theta_uniform(g, 3, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_chunked_isometry_memory_is_bounded(self):
        # 12,870 sets in 51 chunks; gathered at once their 8x8 blocks would
        # take 6.3 MB, and so would incumbent picks that kept their chunks
        g = random_gram(np.random.default_rng(7), 16)
        assert math.comb(16, 8) > 50 * constants._chunk_rows(8, 0)
        tracemalloc.start()
        try:
            restricted_isometry(g, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


def counting(monkeypatch, name):
    calls = []
    original = getattr(np.linalg, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


class TestCostFirstCaps:
    RIP_CAP_TEXT = ("uniform orthogonality enumeration needs 960960 items, cap is 200000; "
                    "raise the cap to proceed")

    def test_rip_constant_refuses_before_enumerating(self, monkeypatch):
        # delta_3 (560 sets) and theta_{3,3} (160,160 pairs) fit the cap;
        # theta_{3,6} does not, so nothing may be enumerated
        g = random_gram(np.random.default_rng(31), 16)
        svd_calls = counting(monkeypatch, "svd")
        eig_calls = counting(monkeypatch, "eigvalsh")
        with pytest.raises(CapExceeded) as info:
            rip_constant(g, 3, cap=200000)
        assert str(info.value) == self.RIP_CAP_TEXT
        assert svd_calls == [] and eig_calls == []

    def test_rip_constant_checks_costs_in_order(self):
        g = GramMatrix(np.eye(16))
        with pytest.raises(CapExceeded, match=r"isometry enumeration C\(16,3\) needs 560"):
            rip_constant(g, 3, cap=500)
        with pytest.raises(CapExceeded, match="uniform orthogonality enumeration needs 160160"):
            rip_constant(g, 3, cap=1000)

    def test_alpha_constant_refuses_before_enumerating(self, monkeypatch):
        # theta(S, 3) (286 pairs) fits the cap; delta_3 (560 sets) does not
        g = GramMatrix(random_psd_entries(16, 10_000, 0.1))
        svd_calls = counting(monkeypatch, "svd")
        eig_calls = counting(monkeypatch, "eigvalsh")
        with pytest.raises(CapExceeded) as info:
            alpha_constant(g, ConeSpec(S=(0, 5, 9), L=1.0, N=3), 0.5, cap=300)
        assert str(info.value) == ("isometry enumeration C(16,3) needs 560 items, cap is 300; "
                                   "raise the cap to proceed")
        assert svd_calls == [] and eig_calls == []

    def test_weak_rip_constant_refuses_before_enumerating(self, monkeypatch):
        # Lambda^2(S, 6) (286 supersets) fits the cap; theta(S, 6) (34,320
        # pairs) does not
        g = GramMatrix(random_psd_entries(16, 10_000, 0.1))
        svd_calls = counting(monkeypatch, "svd")
        eig_calls = counting(monkeypatch, "eigvalsh")
        with pytest.raises(CapExceeded) as info:
            weak_rip_constant(g, ConeSpec(S=(0, 5, 9), L=1.0, N=6), cap=1000)
        assert str(info.value) == ("restricted orthogonality enumeration needs 34320 items, "
                                   "cap is 1000; raise the cap to proceed")
        assert svd_calls == [] and eig_calls == []

    def test_e10_refuses_before_theta_ss(self, monkeypatch):
        g = equicorr(16, 0.1)
        cone = ConeSpec(S=(0, 5, 9), L=1.0, N=6)
        svd_calls = counting(monkeypatch, "svd")
        e10 = check_edge("E10", g, cone, cap=200000)
        assert e10.bound_direction_note == "skipped: CapExceeded: " + self.RIP_CAP_TEXT
        assert svd_calls == []

    def test_e10_skip_note_unchanged(self):
        # theta_{2,2} (1260 pairs) fits, theta_{2,4} (3150 pairs) does not
        verdicts = check_all(equicorr(10, 0.1), ConeSpec(S=(0, 3), L=1.0, N=4), cap=2000)
        e10 = {v.edge_id: v for v in verdicts}["E10"]
        assert e10.bound_direction_note == (
            "skipped: CapExceeded: uniform orthogonality enumeration needs 3150 items, "
            "cap is 2000; raise the cap to proceed")

    def test_memoized_value_still_obeys_a_smaller_cap(self):
        g = random_gram(np.random.default_rng(37), 8)
        cone = ConeSpec(S=(0, 4), L=1.0, N=4)
        computed = [
            (lambda cap: uniform_eigenvalue(g, cone, cap)),
            (lambda cap: restricted_isometry(g, 4, cap)),
            (lambda cap: restricted_orthogonality(g, cone, cap)),
            (lambda cap: theta_uniform(g, 2, 4, cap)),
        ]
        for fn in computed:
            first = fn(10 ** 6)
            assert fn(10 ** 6) is first
            with pytest.raises(CapExceeded):
                fn(10)

    @staticmethod
    def counting_solves(monkeypatch):
        return [counting(monkeypatch, name) for name in ("eigh", "eigvalsh", "svd")]

    def test_leverage_and_block_norm_caps_refuse_before_any_block(self, monkeypatch):
        # p = 16, S = (1, 5, 9), N = 6: 286 size-N supersets, 378 enlargements
        # of every size, 2^6 sign vectors; each cap below is one short
        g = random_gram(np.random.default_rng(41), 16)
        cone = ConeSpec(S=(1, 5, 9), L=1.0, N=6)
        solves = self.counting_solves(monkeypatch)
        refusals = [
            (lambda: irrepresentable_uniform(g, cone, cap=10), "needs 286 items, cap is 10"),
            (lambda: irrepresentable_uniform(g, cone, cap=285), "needs 286 items, cap is 285"),
            (lambda: irrepresentable_signed(g, cone, part=2, cap=377), "needs 378 items"),
            (lambda: irrepresentable_signed(g, cone, part=3, cap=377), "needs 378 items"),
            (lambda: irrepresentable_signed(g, cone, part=3, sign_cap=63), "needs 64 items"),
            (lambda: constants.block_norm_maxima(g, cone, cap=285), "needs 286 items"),
        ]
        for fn, text in refusals:
            with pytest.raises(CapExceeded, match=text):
                fn()
        assert solves == [[], [], []]

    def test_e2_skips_the_column_norm_maximum_before_any_block(self, monkeypatch):
        g = random_gram(np.random.default_rng(43), 16)
        inputs = _Inputs(g, ConeSpec(S=(1, 5, 9), L=1.0, N=3), DEFAULT_CONFIG, 285, 2 ** 20)
        solves = self.counting_solves(monkeypatch)
        for key in ("max_norm_2s_2inf", "max_norm_2s_22"):
            with pytest.raises(CapExceeded, match="needs 286 items, cap is 285"):
                inputs.get(key)
        assert solves == [[], [], []]

    def test_memoized_leverage_values_still_obey_a_smaller_cap(self, monkeypatch):
        g = random_gram(np.random.default_rng(37), 8)
        cone = ConeSpec(S=(0, 4), L=1.0, N=4)
        for fn in (lambda cap: irrepresentable_uniform(g, cone, cap),
                   lambda cap: constants.block_norm_maxima(g, cone, cap)):
            first = fn(10 ** 6)
            solves = self.counting_solves(monkeypatch)
            assert fn(10 ** 6) is first
            assert solves == [[], [], []]
            with pytest.raises(CapExceeded):
                fn(10)
