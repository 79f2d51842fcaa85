"""Primitives: bounded values, Gram containers, cones, subsets, enumeration."""

import hashlib
import math
import threading
import warnings

import numpy as np
import pytest

from lasso_audit import (
    BoundedValue,
    Certificate,
    ConeSpec,
    GramMatrix,
    PerturbationPair,
    SubsetN,
    block,
    cone_membership,
    d_infinity,
    derived_rng,
    inverse_11,
    sample_gaussian_design,
    superset_count,
    top_nset,
    uniform_eigenvalue,
)
from lasso_audit.constants import _supersets
from lasso_audit.core import check_superset_cap
from lasso_audit.errors import CapExceeded, InvalidParameter, SingularBlock

from conftest import random_gram


def indefinite_entries(p):
    """Q diag(1, ..., 1, -0.05) Q' for a seeded orthogonal Q, symmetrized."""
    q, _ = np.linalg.qr(np.random.default_rng(p).standard_normal((p, p)))
    m = (q * np.r_[np.ones(p - 1), -0.05]) @ q.T
    return (m + m.T) / 2.0


class TestBoundedValue:
    def test_exact(self):
        bv = BoundedValue.exact(2.5)
        assert bv.lower == bv.estimate == bv.upper == 2.5
        assert bv.certificate is Certificate.EXACT

    def test_certified_lower_has_open_top(self):
        bv = BoundedValue.certified_lower(0.3)
        assert bv.lower == bv.estimate == 0.3
        assert bv.upper == math.inf
        assert bv.certificate is Certificate.CERTIFIED_LOWER

    def test_certified_upper_default_floor(self):
        bv = BoundedValue.certified_upper(0.8)
        assert bv.upper == bv.estimate == 0.8
        assert bv.lower == 0.0
        bv2 = BoundedValue.certified_upper(-0.5)
        assert bv2.lower == -0.5

    def test_interval_ordering_enforced(self):
        with pytest.raises(InvalidParameter):
            BoundedValue.interval(1.0, 2.0, 3.0)
        with pytest.raises(InvalidParameter):
            BoundedValue.interval(4.0, 1.0, 3.0)

    def test_scaled(self):
        bv = BoundedValue.interval(2.0, 1.0, 3.0, provenance="x")
        sc = bv.scaled(2.0)
        assert (sc.estimate, sc.lower, sc.upper) == (4.0, 2.0, 6.0)
        with pytest.raises(InvalidParameter):
            bv.scaled(-1.0)

    def test_json_maps_nonfinite_to_none(self):
        bv = BoundedValue.certified_lower(1.0, provenance="why")
        d = bv.to_json_dict()
        assert d["upper"] is None
        assert d["lower"] == 1.0
        assert d["certificate"] == "CertifiedLower"
        assert d["provenance"] == "why"


class TestDerivedRng:
    def test_reproducible_stream(self):
        want = [0.18439626969469325, 0.12530853447795154, 0.4113243094633483]
        got = derived_rng(0, "stream-a").random(3)
        np.testing.assert_array_equal(got, want)

    def test_streams_and_seeds_are_independent(self):
        a = derived_rng(0, "stream-a").random(3)
        b = derived_rng(0, "stream-b").random(3)
        c = derived_rng(1, "stream-a").random(3)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_multi_part_labels(self):
        a = derived_rng(0, "x", 1, 2).random(2)
        b = derived_rng(0, "x", 12).random(2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, stream", [
        (0, ("stream-a",)),
        (7, ()),
        (12345, ("concentration", 1999)),
        (10_000, ("generate", "random_psd", 16)),
        (3, ("bench", "enum", "S")),
        (0, ("re-search", "0123456789abcdef", "adaptive", (2, 7, 11), 1.0, 6)),
        (2 ** 70, ("rr-search", -1.5)),
    ])
    def test_streams_equal_philox_keyed_by_the_label_digest(self, seed, stream):
        # the generator derived_rng built before it skipped Philox's own
        # OS-entropy seed sequence
        label = "/".join(str(part) for part in stream)
        digest = hashlib.sha256(f"{seed}#{label}".encode()).digest()
        want = np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:16], "little")))
        got = derived_rng(seed, *stream)
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert got.standard_normal(9).tobytes() == want.standard_normal(9).tobytes()
        assert got.random((3, 5)).tobytes() == want.random((3, 5)).tobytes()
        assert got.integers(0, 2 ** 62, 4).tolist() == want.integers(0, 2 ** 62, 4).tolist()
        assert got.random(1000).tobytes() == want.random(1000).tobytes()


class TestGramMatrix:
    def test_threads_racing_on_one_key_get_one_object(self):
        gram = GramMatrix(np.eye(3))
        both_missed = threading.Barrier(2)
        first_returned = threading.Event()
        got = {}

        def call(name):
            def compute():
                both_missed.wait(timeout=30)
                if name == "second":
                    # store only after the first thread has stored and returned
                    first_returned.wait(timeout=30)
                return BoundedValue.exact(1.0, provenance=name)

            got[name] = gram.memoized("key", compute)
            if name == "first":
                first_returned.set()

        threads = [threading.Thread(target=call, args=(name,)) for name in ("first", "second")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert got["first"].provenance == "first"
        assert got["second"] is got["first"]
        assert gram.memoized("key", lambda: None) is got["first"]

    def test_rejects_nonsquare_and_empty(self):
        with pytest.raises(InvalidParameter):
            GramMatrix(np.ones((2, 3)))
        with pytest.raises(InvalidParameter):
            GramMatrix(np.zeros((0, 0)))

    def test_rejects_asymmetric(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(InvalidParameter, match="symmetric"):
            GramMatrix(m)

    def test_rejects_negative_diagonal(self):
        m = np.eye(3)
        m[1, 1] = -0.1
        with pytest.raises(InvalidParameter, match="diagonal"):
            GramMatrix(m)

    def test_rejects_nonfinite(self):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(InvalidParameter, match="finite"):
            GramMatrix(m)

    @pytest.mark.parametrize("entries", [
        [[1e308, 0.0], [0.0, 1e308]],
        [[1.0, 1.7e308], [1.7e308, 1.0]],
        [[1.0, 1e308], [-1e308, 1.0]],
        [[9e307, 0.0], [0.0, 1.0]],
    ])
    def test_rejects_entries_that_overflow_when_symmetrized(self, entries):
        # (raw + raw.T) / 2 would hold inf, the spectrum nan, and the PSD
        # test would pass on nan; the entry bound refuses them first, and no
        # numpy overflow warning is shown
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="entries too large"):
                GramMatrix(np.array(entries))

    @pytest.mark.parametrize("entries", [np.full((2, 2), 8e307), np.full((3, 3), 8e307),
                                         np.full((4, 4), 8e307), np.diag([8e307, 8e307, 1.0])])
    def test_rejects_entries_above_the_scale_bound(self, entries):
        # finite symmetric entries whose spectrum, or whose squared p-term
        # sums in the constants, overflow: refused by the entry bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="entries too large"):
                GramMatrix(entries)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_a_spectrum_lapack_returns_not_finite(self, monkeypatch, bad):
        # the entry bound keeps every eigenvalue finite, so only an
        # eigensolver fault reaches this check
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: np.append(eigvalsh(a)[:-1], bad))
        with pytest.raises(InvalidParameter, match="spectrum overflows"):
            GramMatrix(np.eye(3))

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_accepts_entries_up_to_the_scale_bound(self, p):
        # p^1.5 * |entry| <= 2^511; p^1.5 is exact at these p
        bound = 2.0 ** 511 / p ** 1.5
        g = GramMatrix(np.diag([bound] + [1.0] * (p - 1)))
        assert g.entries[0, 0] == bound
        assert np.all(np.isfinite(g.spectrum()))
        with pytest.raises(InvalidParameter, match="entries too large"):
            GramMatrix(np.diag([np.nextafter(bound, np.inf)] + [1.0] * (p - 1)))
        if p > 1:
            asym = np.eye(p)
            asym[0, 1], asym[1, 0] = bound, -bound
            with pytest.raises(InvalidParameter, match="not symmetric"):
                GramMatrix(asym)

    def test_spot_check_catches_indefinite(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(InvalidParameter, match="PSD"):
            GramMatrix(m)

    @pytest.mark.parametrize("scale", [1e-12, 2.0 ** -40, 2.0 ** 40])
    def test_psd_tolerance_is_relative_at_every_scale(self, scale):
        with pytest.raises(InvalidParameter, match="not PSD"):
            GramMatrix(scale * np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(InvalidParameter, match="not symmetric"):
            GramMatrix(scale * np.array([[1.0, 1e-6], [0.0, 1.0]]))
        with pytest.raises(InvalidParameter, match="negative diagonal"):
            GramMatrix(scale * np.diag([1.0, -1e-6]))
        assert GramMatrix(scale * np.eye(3)).p == 3

    def test_accepts_the_zero_matrix(self):
        g = GramMatrix(np.zeros((3, 3)))
        assert not np.any(g.entries) and not np.any(g.spectrum())

    def test_accepts_singular_psd(self):
        m = np.ones((3, 3))  # rank one
        g = GramMatrix(m)
        assert g.p == 3

    @pytest.mark.parametrize("p", [10, 30, 60])
    def test_rejects_one_small_negative_eigenvalue(self, p):
        # 1000 random probe directions all miss the one negative eigenvalue
        # of Q diag(1, ..., 1, -0.05) Q'; the spectrum does not
        with pytest.raises(InvalidParameter, match="not PSD: smallest eigenvalue -0.0(5|49999)"):
            GramMatrix(indefinite_entries(p))

    def test_accepts_rank_deficient_sample_gram(self):
        # X'X / n with n = 48 < p = 80, drawn as recover's inputs are
        _, g = sample_gaussian_design(48, 80, GramMatrix(np.eye(80)), 70_000)
        assert np.linalg.matrix_rank(g.entries) == 48
        assert abs(float(g.spectrum()[0])) < 1e-12

    def test_spectrum_comes_from_the_check(self, monkeypatch):
        g = GramMatrix(random_gram(np.random.default_rng(3), 12).entries)
        calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda *args: calls.append(1) or original(*args))
        vals = g.spectrum()
        assert calls == [] and g.spectrum() is vals
        assert not vals.flags.writeable
        assert vals.tobytes() == original(g.entries).tobytes()

    def test_entries_read_only(self, identity4):
        with pytest.raises(ValueError):
            identity4.entries[0, 0] = 2.0

    def test_fingerprint_frozen(self, identity4, equicorr4):
        # stable across processes: hash of the byte content
        assert identity4.fingerprint() == "d7f65dbb9576a6cf"
        eq3 = GramMatrix(np.full((3, 3), 0.5) + 0.5 * np.eye(3))
        assert eq3.fingerprint() == "66d696dd72726a4c"
        assert identity4.fingerprint() != equicorr4.fingerprint()


class TestConeSpec:
    def test_defaults_and_properties(self):
        cone = ConeSpec(S=(0, 2), L=3.0, N=3)
        assert cone.s == 2
        assert cone.N == 3

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            ConeSpec(S=(), L=1.0, N=0)
        with pytest.raises(InvalidParameter):
            ConeSpec(S=(2, 1), L=1.0, N=2)
        with pytest.raises(InvalidParameter):
            ConeSpec(S=(0, 0), L=1.0, N=2)
        with pytest.raises(InvalidParameter):
            ConeSpec(S=(-1,), L=1.0, N=1)
        with pytest.raises(InvalidParameter):
            ConeSpec(S=(0,), L=-0.5, N=1)
        with pytest.raises(InvalidParameter):
            ConeSpec(S=(0, 1), L=1.0, N=1)

    def test_validate_p(self):
        cone = ConeSpec(S=(0, 3), L=1.0, N=3)
        cone.validate_p(4)
        with pytest.raises(InvalidParameter):
            cone.validate_p(3)
        with pytest.raises(InvalidParameter):
            ConeSpec(S=(0,), L=1.0, N=5).validate_p(4)

    def test_with_(self):
        cone = ConeSpec(S=(1, 2), L=1.0, N=2)
        mod = cone.with_(L=2.0, N=4)
        assert (mod.S, mod.L, mod.N) == ((1, 2), 2.0, 4)
        assert cone.L == 1.0  # original untouched


class TestSubsetN:
    def test_validation_and_views(self):
        sub = SubsetN((1, 3))
        assert len(sub) == 2
        assert sub.complement(5) == (0, 2, 4)
        assert sub.contains((1,))
        assert not sub.contains((1, 2))
        with pytest.raises(InvalidParameter):
            SubsetN((3, 1))
        with pytest.raises(InvalidParameter):
            SubsetN((-1,))


def test_block_matches_ix_(equicorr4):
    nset = SubsetN((0, 2))
    entries = equicorr4.entries
    comp = [1, 3]
    np.testing.assert_array_equal(block(equicorr4, nset, "11"), entries[np.ix_([0, 2], [0, 2])])
    np.testing.assert_array_equal(block(equicorr4, nset, "21"), entries[np.ix_(comp, [0, 2])])
    np.testing.assert_array_equal(block(equicorr4, nset, "12"), entries[np.ix_([0, 2], comp)])
    np.testing.assert_array_equal(block(equicorr4, nset, "22"), entries[np.ix_(comp, comp)])
    with pytest.raises(InvalidParameter):
        block(equicorr4, nset, "diag")
    with pytest.raises(InvalidParameter):
        block(equicorr4, SubsetN((5,)), "11")


def test_min_eigen_11_matches_numpy(equicorr4):
    cone = ConeSpec((0, 1, 2), 1.0, 3)
    want = float(np.linalg.eigvalsh(equicorr4.entries[np.ix_([0, 1, 2], [0, 1, 2])])[0])
    assert uniform_eigenvalue(equicorr4, cone).estimate == pytest.approx(want, abs=1e-14)


def test_inverse_11_roundtrip_and_singular(equicorr4):
    nset = SubsetN((0, 1))
    inv = inverse_11(equicorr4, nset)
    np.testing.assert_allclose(inv @ block(equicorr4, nset, "11"), np.eye(2), atol=1e-12)
    ones = GramMatrix(np.ones((3, 3)))
    with pytest.raises(SingularBlock):
        inverse_11(ones, SubsetN((0, 1)))


class TestConeMembership:
    def test_plain_budget(self):
        cone = ConeSpec(S=(0, 1), L=1.0, N=2)
        assert cone_membership([1.0, 1.0, 1.5, 0.5], cone)
        assert not cone_membership([1.0, 1.0, 1.5, 0.6], cone)

    def test_zero_head_excluded(self):
        cone = ConeSpec(S=(0,), L=1.0, N=1)
        assert not cone_membership([0.0, 0.0], cone)

    def test_adaptive_budget_uses_l2_head(self):
        # head (3, 4): plain budget 7, adaptive budget sqrt(2)*5
        cone = ConeSpec(S=(0, 1), L=1.0, N=2)
        beta = [3.0, 4.0, 7.05, 0.0]
        assert not cone_membership(beta, cone, variant="plain")
        assert cone_membership(beta, cone, variant="adaptive")

    def test_nset_cap(self):
        cone = ConeSpec(S=(0,), L=10.0, N=2)
        nset = SubsetN((0, 1))
        beta = [1.0, 0.5, 0.6, 0.0]
        # outside-nset entry 0.6 exceeds the smallest added magnitude 0.5
        assert not cone_membership(beta, cone, nset=nset)
        assert cone_membership(beta, cone, nset=nset, atol=0.2)
        assert cone_membership([1.0, 0.5, 0.4, 0.0], cone, nset=nset)

    def test_unknown_variant(self):
        cone = ConeSpec(S=(0,), L=1.0, N=1)
        with pytest.raises(InvalidParameter):
            cone_membership([1.0, 0.0], cone, variant="fancy")


def test_top_nset():
    cone = ConeSpec(S=(2,), L=1.0, N=2)
    beta = np.array([0.5, -0.5, 1.0, 0.2])
    assert top_nset(beta, cone).members == (0, 2)
    # ties break by ascending index, at every enlargement size
    assert top_nset(beta, ConeSpec(S=(2,), L=1.0, N=3)).members == (0, 1, 2)
    assert top_nset(beta, ConeSpec(S=(2,), L=1.0, N=4)).members == (0, 1, 2, 3)
    assert top_nset(beta, ConeSpec(S=(2,), L=1.0, N=1)).members == (2,)
    assert top_nset([0.0, 0.5, 0.0, 1.0, 0.0], ConeSpec(S=(3,), L=1.0, N=3)).members == (0, 1, 3)


def test_d_infinity():
    a = np.array([[1.0, 0.2], [0.2, 1.0]])
    b = np.array([[1.0, -0.1], [-0.1, 0.9]])
    assert d_infinity(a, b) == pytest.approx(0.3)
    assert d_infinity(GramMatrix(a), GramMatrix(b)) == pytest.approx(0.3)
    with pytest.raises(InvalidParameter):
        d_infinity(a, np.eye(3))


def test_perturbation_pair_distance():
    a = GramMatrix(np.eye(2))
    b = GramMatrix(np.array([[1.0, 0.25], [0.25, 1.0]]))
    pair = PerturbationPair(a, b)
    assert pair.d_inf == pytest.approx(0.25)
    with pytest.raises(InvalidParameter):
        PerturbationPair(a, GramMatrix(np.eye(3)))


class TestSupersets:
    def test_count(self):
        cone = ConeSpec(S=(0, 1), L=1.0, N=4)
        assert superset_count(cone, 6) == 6  # C(4, 2)

    @staticmethod
    def supersets(p, S, n, rows):
        return [tuple(row) for chunk in _supersets(p, S, n, rows) for row in chunk.tolist()]

    def test_enumeration_lexicographic(self):
        for rows in (1, 2, 10):
            assert self.supersets(4, (1,), 2, rows) == [(0, 1), (1, 2), (1, 3)]
            assert all(len(chunk) <= rows for chunk in _supersets(4, (1,), 2, rows))

    def test_includes_s_when_n_equals_s(self):
        assert self.supersets(4, (0, 2), 2, 10) == [(0, 2)]

    def test_cap_raised_before_yielding(self):
        cone = ConeSpec(S=(0,), L=1.0, N=5)
        with pytest.raises(CapExceeded):
            check_superset_cap(cone, 20, cap=10)


def test_random_gram_helper_is_valid():
    rng = np.random.default_rng(7)
    for p in (2, 5, 8):
        g = random_gram(rng, p)
        assert g.p == p
        np.testing.assert_allclose(np.diag(g.entries), 1.0, atol=1e-12)
        assert float(np.linalg.eigvalsh(g.entries)[0]) > 0.0
