"""The leverage constants and the block-norm maxima against per-subset loops,
and the restricted-eigenvalue search against its per-row form.

irrepresentable_uniform, irrepresentable_signed (parts 2 and 3), the E2
column-norm maximum and the block-norm routes of regression_upper used to
walk their enlargements one subset at a time through inverse_11, block and
block_norm_2q.  Those loops are kept here, enumerating with itertools, as the
references the enumeration kernel must reproduce exactly: values, witnesses
and provenance notes compare with ==, at several chunk sizes.

The search helpers of restricted_eigenvalue used to rebuild S, its complement
and the top enlargement on every evaluation; those versions are kept here too,
and the helpers that build the index sets once per call must reproduce them
bit for bit (compared with tobytes()).

The refinement's line search used to evaluate its step sizes one at a time
with the one-row path; it now screens them with one batch score and a
rounding margin.  ref_refine_ratio is that earlier loop: the screened
refinement must reproduce it bit for bit, also on a head of 9 coordinates,
a singular Sigma, N = p and the flat Sigma = I, where the candidates fall
inside the margin and the one-row path decides.  The screen must keep every
candidate whose one-row value passes even the tightest threshold.

The head-only regression scores used to take each head at its own scale,
where the squares of 1e160-sized heads overflow, with absolute singularity
tests; ref_rr_value_head_only is that form.  The power-of-two scaled kernel
tests relative to the head's squared norm: it must match the reference bit
for bit on heads of moderate size, and give every power-of-two multiple of
a head the same bits.

The projected-gradient fallback of compatibility_constant used to index with
Python lists and call the checked project_l1_ball on every projection, and to
recompute the objective of each accepted step; that loop is kept here as the
reference for values, certificates and provenance.

The restricted-regression search used to rebuild S, its complement and k on
every ratio evaluation, to decompose Sigma_SS twice (once for the eigenvector
heads, once in inverse_11) and to extract the spike-and-greedy block once per
spike size; that search and its ratio kernel are kept here as the reference
restricted_regression must reproduce bit for bit.  The batch ratio kernel
used to pick the top enlargement by argpartition, which breaks ties among
tail magnitudes its own way; the reference builds each row's enlargement
with top_nset, ties by ascending index, so the kernel must take that rule.

The superset chunks used to be sorted row by row even when the base is
empty; that sorted form is kept here as the reference the chunks must equal
bit for bit, dtype included.

The enumeration kernel _first_best used to score every row of every chunk;
it now streams each chunk once and skips the rows whose certified bound
cannot reach the running best.  The full loop is kept here as the
reference: theta(S, N), delta_N, theta_{s,N} and a bounded minimization must
reproduce its values and first witnesses exactly, at several chunk sizes,
the bounds must hold with room to spare, and no chunk may be gathered twice.

The cone-search sample kernels used to allocate every intermediate they
formed: _sample_cone_points a zero-filled B, the keep uniforms and the
tail magnitudes as arrays of their own; _restricted_ratio_parts a
partitioned copy of the tail magnitudes; and the sample loops kept chunk i
alive while chunk i + 1 was drawn.  Those forms are kept here, and the lean
kernels must reproduce them bit for bit (compared with tobytes()), for
k = 0 to 3: they now also sum short rows by column and take the top two
tail magnitudes by column maxima.  So must the kernel's flat gather of the
stacked blocks against the two-array one.

lower_phi_routes used to add a weak_rip route, (1 - L theta/Lambda^2)^2
Lambda^2 at N' = 2s, after its regression routes, which it listed by
ascending N'.  regression@2s already minimizes theta/Lambda^2 among its
routes, so that route never ranked first; the old route loop is kept here as
the reference certified_lower_phi must reproduce bit for bit, its note less
the weak_rip entry.
"""

import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from lasso_audit import (
    DEFAULT_CONFIG,
    BoundedValue,
    Certificate,
    ConeSpec,
    GramMatrix,
    SolverConfig,
    SubsetN,
    block,
    block_norm_2q,
    coherence,
    compatibility_constant,
    evaluate_regression_ratio,
    inverse_11,
    irrepresentable_signed,
    irrepresentable_uniform,
    project_l1_ball,
    regression_upper,
    restricted_isometry,
    restricted_orthogonality,
    restricted_regression,
    sample_gaussian_design,
    superset_count,
    theta_uniform,
    top_nset,
    uniform_eigenvalue,
)
from lasso_audit import constants, core, estimators
from lasso_audit.constants import _sign_chunks, block_norm_maxima
from lasso_audit.core import SINGULAR_RTOL, derived_rng
from lasso_audit.errors import CapExceeded, MaxItersExceeded, SingularBlock
from lasso_audit.estimators import ROUTE_CAP, certified_lower_phi, restricted_eigenvalue
from lasso_audit.experiments import block_equicorrelation_entries, random_psd_entries

# -- the per-subset loops ----------------------------------------------------


def supersets(p, S, n):
    others = [j for j in range(p) if j not in S]
    for extra in itertools.combinations(others, n - len(S)):
        yield SubsetN(tuple(sorted(tuple(S) + extra)))


def loop_irrepresentable_uniform(gram, cone):
    best, witness, singular, total = math.inf, None, 0, 0
    candidates = [SubsetN(cone.S)]
    if cone.N > cone.s:
        candidates += list(supersets(gram.p, cone.S, cone.N))
    for nset in candidates:
        total += 1
        try:
            inv = inverse_11(gram, nset)
        except SingularBlock:
            singular += 1
            continue
        s21 = block(gram, nset, "21")
        val = 0.0 if s21.shape[0] == 0 else float(np.max(np.sum(np.abs(s21 @ inv), axis=1)))
        if val < best:
            best, witness = val, nset.members
    if singular == total:
        raise SingularBlock(f"all {total} candidate Sigma_11 blocks are singular")
    return BoundedValue.exact(best, provenance=f"argmin nset={witness}, singular_skipped={singular}")


def loop_irrepresentable_signed(gram, cone, part):
    s = cone.s

    def nsets_by_size():
        for k in range(s, cone.N + 1):
            yield from supersets(gram.p, cone.S, k)

    if part == 2:
        limit = math.inf if cone.L == 0 else 1.0 / cone.L
        for nset in nsets_by_size():
            try:
                inv = inverse_11(gram, nset)
            except SingularBlock:
                continue
            m = block(gram, nset, "21") @ inv
            signs = next(_sign_chunks(len(nset), 2 ** len(nset)))
            worst = float(np.max(np.abs(m @ signs.T))) if m.shape[0] else 0.0
            if worst < limit:
                return True, nset
        return False, None

    witness = {}
    for row in next(_sign_chunks(s, 2 ** s)):
        tau_s = tuple(int(v) for v in row)
        found = None
        for nset in nsets_by_size():
            try:
                inv = inverse_11(gram, nset)
            except SingularBlock:
                continue
            m = block(gram, nset, "21") @ inv
            k = len(nset)
            pos_of = {j: i for i, j in enumerate(nset.members)}
            ext_positions = [pos_of[j] for j in nset.members if j not in set(cone.S)]
            exts = next(_sign_chunks(k - s, 2 ** (k - s)))
            taus = np.zeros((exts.shape[0], k))
            for i, j in enumerate(cone.S):
                taus[:, pos_of[j]] = tau_s[i]
            for i, pos in enumerate(ext_positions):
                taus[:, pos] = exts[:, i]
            vals = np.max(np.abs(m @ taus.T), axis=0) if m.shape[0] else np.zeros(exts.shape[0])
            hits = np.nonzero(vals <= 1.0)[0]
            if hits.size:
                found = (nset, tuple(int(v) for v in taus[int(hits[0])]))
                break
        if found is None:
            return False, {"failing_tau_S": tau_s}
        witness[tau_s] = found
    return True, witness


def loop_max_column_norm(gram, cone):
    worst = 0.0
    for nset in supersets(gram.p, cone.S, cone.N):
        worst = max(worst, float(block_norm_2q(gram, nset, math.inf).estimate))
    return worst


def loop_block_norms(gram, cone, sign_cap):
    """The per-superset loop of regression_upper: q = inf and q = 1 (exact
    when the sign vectors of all the supersets fit sign_cap, else the column
    bound), the row sum, and the q = 2 maximum."""
    norms = {math.inf: 0.0, 1.0: 0.0}
    row_sum = spectral = 0.0
    # 2^(p-N) fits this exactly when count * 2^(p-N) fits sign_cap
    per_set_cap = sign_cap // superset_count(cone, gram.p)
    for nset in supersets(gram.p, cone.S, cone.N):
        for q in norms:
            try:
                nrm = block_norm_2q(gram, nset, q, "exact", per_set_cap).estimate
            except CapExceeded:
                nrm = block_norm_2q(gram, nset, q, "column_bound").estimate
            norms[q] = max(norms[q], nrm)
        outside = list(nset.complement(gram.p))
        if outside:
            sums = np.abs(gram.entries[np.ix_(outside, list(nset.members))]).sum(axis=0)
            row_sum = max(row_sum, float(np.sqrt(np.sum(sums ** 2))))
        spectral = max(spectral, block_norm_2q(gram, nset, 2.0, "exact").estimate)
    norms[2.0] = spectral
    return norms, row_sum


def loop_rr_upper_routes(gram, cone, variant, cap, sign_cap):
    routes = {}
    p, s = gram.p, cone.s
    S_sub = SubsetN(cone.S)
    lam2_s = float(np.linalg.eigvalsh(gram.entries[np.ix_(cone.S, cone.S)])[0])
    maxdiag = float(np.max(np.diag(gram.entries)))
    tiny = SINGULAR_RTOL * max(maxdiag, 1.0)
    try:
        lam2_n = lam2_s if cone.N == s else uniform_eigenvalue(gram, cone, min(cap, ROUTE_CAP)).estimate
        if lam2_n > tiny:
            routes["cauchy_schwarz"] = math.sqrt(s) * math.sqrt(maxdiag) / math.sqrt(lam2_n)
    except CapExceeded:
        pass
    if cone.N == s and lam2_s > tiny:
        routes["column_norm"] = math.sqrt(s) * block_norm_2q(gram, S_sub, math.inf, "exact").estimate / lam2_s
        routes["mutual"] = coherence(gram, cone, "mutual").estimate
        routes["cumulative"] = coherence(gram, cone, "cumulative").estimate
    if cone.N == 2 * s and cone.N <= p and superset_count(cone, p) <= min(cap, ROUTE_CAP):
        lam2 = uniform_eigenvalue(gram, cone, min(cap, ROUTE_CAP)).estimate
        if lam2 > tiny:
            try:
                theta = restricted_orthogonality(gram, cone, min(cap, ROUTE_CAP)).estimate
                routes["weak_rip"] = theta / lam2
            except CapExceeded:
                pass
            norms, row_sum = loop_block_norms(gram, cone, sign_cap)
            for q, power in ((math.inf, 1.0), (2.0, math.sqrt(s)), (1.0, float(s))):
                routes[f"chunked_q{'inf' if math.isinf(q) else int(q)}"] = (
                    math.sqrt(s) * norms[q] / (power * lam2)
                )
            if variant == "plain":
                routes["row_sum"] = row_sum / (math.sqrt(s) * lam2)
    if not routes:
        return math.inf, "no applicable route"
    best = min(routes, key=routes.get)
    note = f"route={best}; " + ", ".join(f"{k}={v!r}" for k, v in sorted(routes.items()))
    return routes[best], note


# -- instances ---------------------------------------------------------------


def equicorr_entries(p, rho):
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def rank_deficient_entries():
    # X'X / n with n = 4 < p = 10: every Sigma_11 block of size 5 or more is
    # singular and skipped
    return sample_gaussian_design(4, 10, GramMatrix(np.eye(10)), 5)[1].entries


def coupled_entries(p, a):
    # identity, with coordinate 2 correlated a with coordinates 0 and 1: on
    # S = (0, 1) the leverage row of coordinate 2 is (a, a), and every sign
    # extension on S + {2} has leverage 0
    sigma = np.eye(p)
    sigma[2, :2] = sigma[:2, 2] = a
    return sigma


def loaded_entries(p, seed, k):
    # coordinates 3..k-1 load on coordinates 0, 1 and 2, the rest are weakly
    # correlated; rescaled to unit diagonal
    w = np.eye(p)
    w[3:k, :3] = 1.0
    sigma = w @ w.T + random_psd_entries(p, seed, 0.0)
    d = np.sqrt(np.diag(sigma))
    return sigma / np.outer(d, d)


def zero_column_entries():
    # coordinate 0 is identically zero, so Sigma_11 is the zero block at S = (0,)
    sigma = random_psd_entries(6, 4, 0.0)
    sigma[0, :] = sigma[:, 0] = 0.0
    return sigma


INSTANCES = {
    "random_psd_8": (lambda: random_psd_entries(8, 1, 0.0), [((1, 4), 4), ((0, 3, 7), 5)]),
    "random_psd_12": (lambda: random_psd_entries(12, 2, 0.0), [((1, 6), 4), ((0, 3, 11), 5)]),
    # the uniform minimum sits at a size-8 set, whose rows sum 8 terms: there
    # numpy's pairwise order and a sequential one round differently
    "loaded_12": (lambda: loaded_entries(12, 8, 8), [((0, 1, 2), 8)]),
    "random_psd_16": (lambda: random_psd_entries(16, 3, 0.0), [((1, 8), 4), ((0, 3, 15), 6)]),
    "equicorrelation_ties": (lambda: equicorr_entries(9, 0.3), [((2, 5), 4), ((0, 4, 8), 6)]),
    "rank_deficient": (rank_deficient_entries, [((0, 5), 4), ((1, 2, 7), 5)]),
    # tau_S = (1, 1) needs the enlargement, where both extensions hit; at
    # N = 4 every superset of S + {2} ties at uniform leverage 0
    "coupled": (lambda: coupled_entries(5, 0.6), [((0, 1), 3), ((0, 1), 4)]),
    # leverage exactly 1 at tau_S = (1, 1): a hit for part 3, not for part 2
    "coupled_boundary": (lambda: coupled_entries(5, 0.5), [((0, 1), 3)]),
    "zero_column": (zero_column_entries, [((0,), 2), ((0, 3), 3)]),
}
CHUNKS = [1, 7, constants._CHUNK_ENTRIES]
PART2_L = (0.0, 0.5, 1.0, 3.0)


def cases():
    for name, (make, cones) in INSTANCES.items():
        for S, N in cones:
            yield pytest.param(make, S, N, id=f"{name}-S{'_'.join(map(str, S))}-N{N}")


def outcome(fn, *args):
    """fn(*args), or the type and text of the audit error it raised."""
    try:
        return fn(*args)
    except SingularBlock as exc:
        return type(exc), str(exc)


def leverage(uniform, signed, entries, S, N):
    """The uniform constant, part 3 and part 2 at each L of PART2_L, each on a
    fresh GramMatrix so that no memo is shared."""
    out = [outcome(uniform, GramMatrix(entries), ConeSpec(S, 1.0, N)),
           signed(GramMatrix(entries), ConeSpec(S, 1.0, N), 3)]
    return out + [signed(GramMatrix(entries), ConeSpec(S, L, N), 2) for L in PART2_L]


@pytest.mark.parametrize("make, S, N", cases())
def test_leverage_constants_match_loops(make, S, N, monkeypatch):
    entries = make()
    want = leverage(loop_irrepresentable_uniform, loop_irrepresentable_signed, entries, S, N)
    for chunk in CHUNKS:
        monkeypatch.setattr(constants, "_CHUNK_ENTRIES", chunk)
        assert leverage(irrepresentable_uniform, irrepresentable_signed, entries, S, N) == want


def test_references_reach_every_branch():
    # the instances above fail and pass each condition, skip singular blocks
    # and certify some tau_S only on an enlargement
    seen = set()
    for make, cones in INSTANCES.values():
        for S, N in cones:
            uniform, (ok3, info), *part2 = leverage(
                loop_irrepresentable_uniform, loop_irrepresentable_signed, make(), S, N)
            seen |= {("part2", ok) for ok, _ in part2} | {("part3", ok3)}
            if ok3:
                seen.add(("enlarged", any(len(nset) > len(S) for nset, _ in info.values())))
            if isinstance(uniform, BoundedValue):
                seen.add(("skipped", not uniform.provenance.endswith("singular_skipped=0")))
    assert seen >= {("part2", True), ("part2", False), ("part3", True), ("part3", False),
                    ("enlarged", True), ("skipped", True), ("skipped", False)}


@pytest.mark.parametrize("make, S, N", cases())
def test_block_norm_maxima_match_loops(make, S, N, monkeypatch):
    entries = make()
    p = entries.shape[0]
    for n_size in sorted({N, 2 * len(S)} & set(range(len(S), p + 1))):
        cone = ConeSpec(S, 1.0, n_size)
        column = loop_max_column_norm(GramMatrix(entries), cone)
        # the default sign cap, the sign vectors of all supersets exactly and
        # one short of them, and one too small for 2^(p-N) vertices
        budget = superset_count(cone, p) * 2 ** (p - n_size)
        for sign_cap in (constants.DEFAULT_SIGN_CAP, budget, budget - 1, 2):
            norms, row_sum = loop_block_norms(GramMatrix(entries), cone, sign_cap)
            want = (norms[math.inf], norms[2.0], norms[1.0], row_sum)
            assert want[0] == column
            for chunk in CHUNKS:
                monkeypatch.setattr(constants, "_CHUNK_ENTRIES", chunk)
                assert block_norm_maxima(GramMatrix(entries), cone, sign_cap=sign_cap) == want


@pytest.mark.parametrize("make, S, N", cases())
def test_rr_upper_routes_match_loop(make, S, N, monkeypatch):
    entries = make()
    cone = ConeSpec(S, 1.0, 2 * len(S))
    if cone.N > entries.shape[0]:
        pytest.skip("2s > p")
    for variant in ("plain", "adaptive"):
        for sign_cap in (constants.DEFAULT_SIGN_CAP, 2):
            want = loop_rr_upper_routes(GramMatrix(entries), cone, variant, 10 ** 6, sign_cap)
            for chunk in CHUNKS:
                monkeypatch.setattr(constants, "_CHUNK_ENTRIES", chunk)
                got = regression_upper(GramMatrix(entries), cone, variant, 10 ** 6, sign_cap)
                assert (got.upper, got.provenance) == want


def test_block_norm_maxima_full_enlargement_is_zero():
    gram = GramMatrix(random_psd_entries(5, 4, 0.0))
    assert block_norm_maxima(gram, ConeSpec((0, 2), 1.0, 5)) == (0.0, 0.0, 0.0, 0.0)


def test_block_norm_maxima_memo_keeps_the_q1_choice():
    gram = GramMatrix(random_psd_entries(8, 1, 0.0))
    cone = ConeSpec((1, 4), 1.0, 4)
    exact = block_norm_maxima(gram, cone).vertex
    bound = block_norm_maxima(gram, cone, sign_cap=2).vertex
    assert bound > exact
    assert block_norm_maxima(gram, cone).vertex == exact


# -- the restricted-eigenvalue search, one row at a time ---------------------


def outside(p, S):
    return [j for j in range(p) if j not in S]


def ref_batch_restricted_ratio(entries, cone, B):
    S = list(cone.S)
    comp = outside(entries.shape[0], S)
    qs = np.einsum("ij,ij->i", B @ entries, B)
    nsq = (B[:, S] ** 2).sum(axis=1)
    k = min(cone.N - cone.s, len(comp))
    if k > 0:
        at = np.abs(B[:, comp])
        top = np.partition(at, at.shape[1] - k, axis=1)[:, at.shape[1] - k:]
        nsq = nsq + (top ** 2).sum(axis=1)
    out = np.full(B.shape[0], np.inf)
    ok = nsq > 1e-300
    out[ok] = qs[ok] / nsq[ok]
    return out


def ref_sample_cone_points(rng, cone, p, m, variant):
    s = cone.s
    S = list(cone.S)
    comp = outside(p, S)
    heads = rng.standard_normal((m, s))
    norms = np.linalg.norm(heads, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    heads /= norms
    B = np.zeros((m, p))
    B[:, S] = heads
    if comp and cone.L > 0.0:
        r = len(comp)
        raw = rng.standard_normal((m, r))
        density = rng.random(m) ** 2
        keep = rng.random((m, r)) < np.maximum(density, 1.0 / r)[:, None]
        raw *= keep
        l1 = np.abs(raw).sum(axis=1)
        if variant == "plain":
            budget = cone.L * np.abs(heads).sum(axis=1)
        else:
            budget = math.sqrt(s) * cone.L * np.ones(m)
        frac = rng.random(m) ** 0.25
        scale = np.zeros(m)
        ok = l1 > 0.0
        scale[ok] = frac[ok] * budget[ok] / l1[ok]
        B[:, comp] = raw * scale[:, None]
    return B


def ref_project_to_cone(beta, cone, variant):
    out = beta.copy()
    S = list(cone.S)
    comp = outside(beta.shape[0], S)
    if not comp:
        return out
    head = out[S]
    if variant == "plain":
        budget = cone.L * float(np.abs(head).sum())
    else:
        budget = math.sqrt(cone.s) * cone.L * float(np.linalg.norm(head))
    tail_l1 = float(np.abs(out[comp]).sum())
    if tail_l1 > budget:
        out[comp] *= 0.0 if budget == 0.0 else budget / tail_l1
    return out


def ref_refine_ratio(entries, cone, variant, beta, iters=40):
    p = entries.shape[0]
    S = list(cone.S)
    beta = beta.copy()
    f = float(ref_batch_restricted_ratio(entries, cone, beta[None, :])[0])
    for _ in range(iters):
        nset = top_nset(beta, cone)
        mask = np.zeros(p)
        mask[list(nset.members)] = 1.0
        d = float(np.sum((beta * mask) ** 2))
        if d <= 1e-300:
            break
        grad = 2.0 * (entries @ beta - f * beta * mask) / d
        gn = float(np.linalg.norm(grad))
        if gn == 0.0:
            break
        eta = 0.2 * float(np.linalg.norm(beta)) / gn
        improved = False
        for _ in range(25):
            cand = ref_project_to_cone(beta - eta * grad, cone, variant)
            if float(np.abs(cand[S]).sum()) == 0.0:
                eta /= 2.0
                continue
            fc = float(ref_batch_restricted_ratio(entries, cone, cand[None, :])[0])
            if fc < f - 1e-15 * max(1.0, abs(f)):
                beta, f = cand, fc
                improved = True
                break
            eta /= 2.0
        if not improved:
            break
    return beta


def ref_restricted_eigenvalue(gram, cone, variant, config):
    entries = gram.entries
    p, s = gram.p, cone.s
    S = list(cone.S)
    w, V = np.linalg.eigh(entries[np.ix_(S, S)])
    cands = np.zeros((s, p))
    cands[:, S] = V.T
    ratios = ref_batch_restricted_ratio(entries, cone, cands)
    best_i = int(np.argmin(ratios))
    best_val = float(ratios[best_i])
    best_beta = cands[best_i]
    rng = derived_rng(config.seed, "re-search", gram.fingerprint(), variant,
                      cone.S, cone.L, cone.N)
    remaining = config.samples
    while remaining > 0:
        m = min(estimators._SEARCH_CHUNK, remaining)
        remaining -= m
        B = ref_sample_cone_points(rng, cone, p, m, variant)
        ratios = ref_batch_restricted_ratio(entries, cone, B)
        i = int(np.argmin(ratios))
        if float(ratios[i]) < best_val:
            best_val = float(ratios[i])
            best_beta = B[i]
    refined = ref_refine_ratio(entries, cone, variant, best_beta)
    best_val = min(best_val, float(ref_batch_restricted_ratio(entries, cone, refined[None, :])[0]))
    low = certified_lower_phi(gram, cone, target="restricted_eigenvalue", variant=variant)
    lower = min(low.estimate, best_val)
    return BoundedValue.interval(
        best_val, lower, best_val,
        provenance=f"upper: feasible search ({config.samples} samples); lower: {low.provenance}",
    )


def edge_rows(p, S, rng):
    """Rows whose tails hold exact zeros, signed zeros and ties, a head with a
    signed zero, the zero row and a zero head with a nonzero tail."""
    comp = outside(p, S)
    base = rng.standard_normal(p)
    rows = []
    for tail in (0.0, -0.0):
        row = base.copy()
        row[comp] = tail
        rows.append(row)
    row = base.copy()
    row[comp[::3]] = 0.0
    row[comp[1::3]] = -0.0
    rows.append(row)
    row = base.copy()
    row[comp] = np.where(np.arange(len(comp)) % 2, 0.25, -0.25)
    rows.append(row)
    row = base.copy()
    row[comp] = 0.1
    row[comp[-2:]] = (-0.5, 0.5)
    rows.append(row)
    row = base.copy()
    row[S[0]] = -0.0
    rows.append(row)
    rows.append(np.zeros(p))
    row = base.copy()
    row[S] = 0.0
    rows.append(row)
    return np.array(rows)


# p, S, and every N - s in {0, 1, 2, 3} that fits p
RE_SHAPES = [(4, (2,)), (5, (0, 3)), (7, (1, 4)), (10, (0, 4, 9)), (16, (1, 8, 15))]
RE_L = (0.0, 1.0, 3.0)


def re_cases():
    for p, S in RE_SHAPES:
        for extra in range(4):
            if len(S) + extra <= p:
                yield pytest.param(p, S, len(S) + extra, id=f"p{p}-S{'_'.join(map(str, S))}-N{len(S) + extra}")


def same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p, S, N", re_cases())
def test_search_helpers_match_the_per_row_versions(p, S, N):
    entries = random_psd_entries(p, 70 + p, 0.05)
    comp = outside(p, S)
    for variant in ("plain", "adaptive"):
        for L in RE_L:
            cone = ConeSpec(S, L, N)
            ix = estimators._cone_index(p, cone)
            assert ix.S.tolist() == list(S) and ix.comp.tolist() == comp
            assert ix.k == min(N - len(S), len(comp))
            rng_ref, rng_new = np.random.default_rng(p + N), np.random.default_rng(p + N)
            want = ref_sample_cone_points(rng_ref, cone, p, 300, variant)
            B, heads, tails = estimators._sample_cone_points(rng_new, ix, 300, variant)
            assert same(B, want)
            assert same(heads, want[:, list(S)]) and same(tails, want[:, comp])
            assert rng_new.random() == rng_ref.random()
            assert same(estimators._restricted_ratio_parts(entries, B, heads, tails, ix.k),
                        ref_batch_restricted_ratio(entries, cone, want))

            rows = np.vstack([want[:8], edge_rows(p, list(S), rng_ref)])
            rows = np.vstack([rows, 3.0 * rows])
            assert same(estimators._batch_restricted_ratio(entries, ix, rows),
                        ref_batch_restricted_ratio(entries, cone, rows))
            assert same(estimators._batch_regression_ratio(entries, ix, rows),
                        ref_batch_regression_ratio(entries, cone, rows))
            for row in rows:
                want_row = ref_batch_restricted_ratio(entries, cone, row[None, :])
                assert same(estimators._batch_restricted_ratio(entries, ix, row[None, :]), want_row)
                assert same(estimators._batch_regression_ratio(entries, ix, row[None, :]),
                            ref_batch_regression_ratio(entries, cone, row[None, :]))
                got_row = estimators._restricted_ratio_row(entries, ix, row)
                assert same(np.array([got_row]), want_row)
                assert same(estimators._project_to_cone(row, ix, variant),
                            ref_project_to_cone(row, cone, variant))

            starts = [want[int(np.argmin(ref_batch_restricted_ratio(entries, cone, want)))]]
            starts += [row for row in edge_rows(p, list(S), rng_ref)[[1, 3, 4]]]
            for beta in starts:
                assert same(estimators._refine_ratio(entries, ix, variant, beta),
                            ref_refine_ratio(entries, cone, variant, beta))


@pytest.mark.parametrize("p, S, N", re_cases())
def test_restricted_eigenvalue_matches_the_per_row_search(p, S, N, monkeypatch):
    gram = GramMatrix(random_psd_entries(p, 70 + p, 0.05))
    # three sample chunks, the last a partial one
    monkeypatch.setattr(estimators, "_SEARCH_CHUNK", 256)
    config = SolverConfig(samples=600)
    for variant in ("plain", "adaptive"):
        for L in RE_L:
            cone = ConeSpec(S, L, N)
            got = restricted_eigenvalue(gram, cone, variant, config)
            want = ref_restricted_eigenvalue(gram, cone, variant, config)
            assert (got.estimate, got.lower, got.upper, got.certificate, got.provenance) == \
                (want.estimate, want.lower, want.upper, want.certificate, want.provenance)


# -- the screened line search -------------------------------------------------


def low_rank_entries(p):
    # X'X / n with n = 3 < p: a singular Sigma
    return sample_gaussian_design(3, p, GramMatrix(np.eye(p)), 11)[1].entries


# (Gram, S, N): a head of 9 (s >= 8, so numpy sums heads pairwise), a
# singular Sigma, N = p, and the flat Sigma = I
SCREEN_CASES = {
    "wide_head": (lambda: random_psd_entries(20, 4, 0.05), tuple(range(0, 18, 2)), 11),
    "singular": (lambda: low_rank_entries(7), (1, 4), 3),
    "n_equals_p": (lambda: random_psd_entries(6, 5, 0.05), (0, 3), 6),
    "flat": (lambda: np.eye(6), (0, 1), 2),
}


def one_row_log(monkeypatch):
    """The values _restricted_ratio_row returns, in call order."""
    values = []
    real = estimators._restricted_ratio_row

    def logged(*args):
        values.append(real(*args))
        return values[-1]

    monkeypatch.setattr(estimators, "_restricted_ratio_row", logged)
    return values


def rejected_evaluations(values):
    """How many one-row evaluations of one _refine_ratio call were rejected:
    the first value is the start's, and a later one is accepted when it falls
    below the last accepted value by the line search's threshold."""
    f, rejected = values[0], 0
    for v in values[1:]:
        if v < f - 1e-15 * max(1.0, abs(f)):
            f = v
        else:
            rejected += 1
    return rejected


@pytest.mark.parametrize("name", SCREEN_CASES)
def test_screened_refinement_matches_the_per_row_search(name):
    make, S, N = SCREEN_CASES[name]
    entries = make()
    p = entries.shape[0]
    gram = GramMatrix(entries)
    config = SolverConfig(samples=600)
    for variant in ("plain", "adaptive"):
        for L in RE_L:
            cone = ConeSpec(S, L, N)
            ix = estimators._cone_index(p, cone)
            rng = np.random.default_rng(p + N)
            B = ref_sample_cone_points(rng, cone, p, 300, variant)
            starts = [B[int(np.argmin(ref_batch_restricted_ratio(entries, cone, B)))], B[0], B[1]]
            starts += list(edge_rows(p, list(S), rng)[[1, 3, 4]])
            for beta in starts:
                assert same(estimators._refine_ratio(entries, ix, variant, beta),
                            ref_refine_ratio(entries, cone, variant, beta))
            got = restricted_eigenvalue(gram, cone, variant, config)
            want = ref_restricted_eigenvalue(gram, cone, variant, config)
            assert (got.estimate, got.lower, got.upper, got.provenance) == \
                (want.estimate, want.lower, want.upper, want.provenance)


@pytest.mark.parametrize("p, S, N", re_cases())
def test_screen_keeps_every_candidate_the_one_row_path_accepts(p, S, N):
    # at the tightest threshold a candidate passes, one ulp above its
    # one-row value, the batch score must not reject it
    entries = random_psd_entries(p, 70 + p, 0.05) * 2.0 ** (p - 8)
    scale = float(np.max(np.abs(entries)))
    rng = np.random.default_rng(3 * p + N)
    for variant in ("plain", "adaptive"):
        for L in RE_L:
            ix = estimators._cone_index(p, ConeSpec(S, L, N))
            raw = rng.standard_normal((25, p)) * np.exp2(rng.integers(-4, 5, (25, p)))
            for j, row in enumerate(raw):
                fc = estimators._restricted_ratio_row(
                    entries, ix, estimators._project_to_cone(row, ix, variant))
                thr = np.nextafter(fc, np.inf)
                assert j in estimators._screen_candidates(entries, ix, variant, raw, thr, scale)


def test_flat_objective_evaluates_the_candidates_inside_the_margin(monkeypatch):
    # on Sigma = I the ratio is 1 + ||tail||^2 / ||head||^2 at N = s; once the
    # tail is nearly gone every candidate scores within the margin of the
    # threshold, so the batch proves nothing and the one-row path decides
    entries = np.eye(6)
    cone = ConeSpec((0, 1), 1.0, 2)
    ix = estimators._cone_index(6, cone)
    beta = np.array([1.0, 0.5, 0.3, -0.2, 0.0, 0.1])
    for variant in ("plain", "adaptive"):
        with monkeypatch.context() as patch:
            values = one_row_log(patch)
            got = estimators._refine_ratio(entries, ix, variant, beta)
        assert same(got, ref_refine_ratio(entries, cone, variant, beta))
        assert rejected_evaluations(values) > 0


def test_sweep_instance_682_evaluates_few_rows_exactly(monkeypatch):
    # sweep-pool instance 682; trying every step size in turn took 545
    # one-row evaluations for the same endpoints
    values = one_row_log(monkeypatch)
    gram = GramMatrix(random_psd_entries(6, 50_682, 0.2))
    bv = restricted_eigenvalue(gram, ConeSpec((3, 4), 1.0, 4), "plain", DEFAULT_CONFIG.reduced())
    assert (bv.upper, bv.lower) == (0.20871743881622967, 0.20783987134431056)
    assert len(values) <= 70


# -- the projected-gradient fallback of the compatibility constant -----------


def ref_projected_gradient_qp(q, c, projection, config, x0, lipschitz):
    lip = max(lipschitz * 1.01, 1e-12)

    def value(x):
        return float(x @ q @ x + c @ x)

    x = projection(x0)
    fx = value(x)
    residual = np.inf
    for _ in range(config.max_iters):
        grad = 2.0 * (q @ x) + c
        nxt = projection(x - grad / lip)
        fn = value(nxt)
        doublings = 0
        while fn > fx + 1e-12 * max(1.0, abs(fx)) and doublings < 60:
            lip *= 2.0
            nxt = projection(x - grad / lip)
            fn = value(nxt)
            doublings += 1
        residual = float(np.max(np.abs(x - nxt)))
        x = nxt
        fx = value(x)
        if residual <= config.tol:
            return x, fx, residual
    raise MaxItersExceeded("reference projected gradient", best=(x, fx, residual))


def ref_equality_tail_qp(gram, ix, tau, config, lipschitz):
    cone = ix.cone
    p, s = gram.p, cone.s
    S = list(cone.S)
    comp = outside(p, S)
    tau = np.asarray(tau, dtype=float)

    def projection(x):
        y = x.copy()
        head = x[S]
        y[S] = head - tau * ((tau @ head - 1.0) / s)
        if comp:
            y[comp] = project_l1_ball(x[comp], cone.L)
        return y

    x0 = np.zeros(p)
    x0[S] = tau / s
    converged = True
    try:
        x, fx, _ = ref_projected_gradient_qp(gram.entries, np.zeros(p), projection, config,
                                             x0, lipschitz)
    except MaxItersExceeded as exc:
        x, fx, _ = exc.best
        converged = False
    return float(fx), tuple(int(v) for v in tau), converged


def fixed_singular_entries():
    # X'X / n with n = 3 < p = 6: Sigma is singular, so every tau takes the
    # projected-gradient path
    return sample_gaussian_design(3, 6, GramMatrix(np.eye(6)), 8)[1].entries


# (Gram, S, configs): the RE_SHAPES Grams, a singular one, S = all but one
# coordinate, and an iteration budget too small to converge
PG_CASES = {
    **{f"re_p{p}": (lambda p=p: random_psd_entries(p, 70 + p, 0.05), S, [SolverConfig()])
       for p, S in RE_SHAPES},
    "singular": (fixed_singular_entries, (0, 2, 5), [SolverConfig(), SolverConfig(max_iters=5)]),
    "all_but_one": (lambda: random_psd_entries(5, 9, 0.0), (0, 1, 2, 4), [SolverConfig()]),
}


def compat_outcome(gram, cone, config):
    bv = compatibility_constant(gram, cone, config)
    return (np.float64(bv.estimate).tobytes(), np.float64(bv.lower).tobytes(),
            np.float64(bv.upper).tobytes(), bv.certificate, bv.provenance)


@pytest.mark.parametrize("name", list(PG_CASES))
def test_compatibility_fallback_matches_the_loop(name, monkeypatch):
    make, S, configs = PG_CASES[name]
    gram = GramMatrix(make())
    lip = 2.0 * max(float(np.linalg.eigvalsh(gram.entries)[-1]), 1e-12)
    signs = np.concatenate([np.ones((2 ** (len(S) - 1), 1)),
                            next(_sign_chunks(len(S) - 1, 2 ** (len(S) - 1)))], axis=1)
    for config in configs:
        for L in RE_L:
            cone = ConeSpec(S, L, len(S))
            ix = estimators._cone_index(gram.p, cone)
            for tau in signs:
                v, t, ok = estimators._equality_tail_qp(gram, ix, tau, config, lip)
                want_v, want_t, want_ok = ref_equality_tail_qp(gram, ix, tau, config, lip)
                assert np.float64(v).tobytes() == np.float64(want_v).tobytes()
                assert (t, ok) == (want_t, want_ok)
            got = compat_outcome(gram, cone, config)
            with monkeypatch.context() as patch:
                patch.setattr(estimators, "_equality_tail_qp", ref_equality_tail_qp)
                assert got == compat_outcome(gram, cone, config)


def test_fallback_cases_reach_every_path():
    # every tau of the singular Gram goes through projected gradient, and the
    # five-step budget leaves each of them unconverged
    make, S, _ = PG_CASES["singular"]
    gram = GramMatrix(make())
    bv = compatibility_constant(gram, ConeSpec(S, 1.0, len(S)))
    assert "closed_form=0, projected_gradient=4," in bv.provenance
    assert bv.certificate is Certificate.INTERVAL
    bv = compatibility_constant(gram, ConeSpec(S, 1.0, len(S)), SolverConfig(max_iters=5))
    assert bv.certificate is Certificate.ESTIMATE and "unconverged=4" in bv.provenance
    # a nonsingular Gram with a positive tail budget splits its signs
    make, S, _ = PG_CASES["re_p5"]
    bv = compatibility_constant(GramMatrix(make()), ConeSpec(S, 1.0, len(S)))
    assert "closed_form=1, projected_gradient=1," in bv.provenance


def counting(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_index_sets_are_built_once_per_call_and_never_per_step(monkeypatch):
    counts = {"_complement": 0, "top_nset": 0}
    counting(monkeypatch, estimators, "_complement", counts)
    counting(monkeypatch, core, "top_nset", counts)

    make, S, _ = PG_CASES["singular"]
    bv = compatibility_constant(GramMatrix(make()), ConeSpec(S, 1.0, len(S)))
    assert "projected_gradient=4," in bv.provenance
    assert counts["_complement"] == 1

    p, S, N = 7, (1, 4), 4
    entries = random_psd_entries(p, 70 + p, 0.05)
    ix = estimators._cone_index(p, ConeSpec(S, 1.0, N))
    counts.update(_complement=0, top_nset=0)
    beta = derived_rng(0, "guard").standard_normal(p)
    start = estimators._project_to_cone(beta, ix, "plain")
    estimators._refine_ratio(entries, ix, "plain", start)
    assert counts == {"_complement": 0, "top_nset": 0}


# -- the restricted-regression search ----------------------------------------


def ref_batch_regression_ratio(entries, cone, B):
    """The regression ratio of each row of B, its head the row on its own
    top_nset: one row at a time, apart from the shared arithmetic.  A
    denominator at most SINGULAR_RTOL * max|Sigma_ij| * ||row||^2 is zero."""
    mask = np.zeros(B.shape, dtype=bool)
    for i, row in enumerate(B):
        mask[i, list(top_nset(row, cone).members)] = True
    head = np.where(mask, B, 0.0)
    tailp = B - head
    g = head @ entries
    denom = np.einsum("ij,ij->i", g, head)
    numer = np.abs(np.einsum("ij,ij->i", g, tailp))
    tiny = SINGULAR_RTOL * float(np.max(np.abs(entries))) * np.einsum("ij,ij->i", B, B)
    out = np.zeros(B.shape[0])
    ok = denom > tiny
    out[ok] = numer[ok] / denom[ok]
    out[(~ok) & (numer > tiny)] = np.inf
    return out


def ref_rr_search(gram, cone, variant, config):
    entries = gram.entries
    p, s = gram.p, cone.s
    S = list(cone.S)
    comp = outside(p, S)
    sig11 = entries[np.ix_(S, S)]
    sig21 = entries[np.ix_(comp, S)] if comp else np.zeros((0, s))

    heads = [np.linalg.eigh(sig11)[1].T]
    try:
        inv = inverse_11(gram, SubsetN(cone.S))
    except SingularBlock:
        inv = None
    rng = derived_rng(config.seed, "rr-search", gram.fingerprint(), variant,
                      cone.S, cone.N)
    if inv is not None:
        signs = []
        if comp:
            m_rows = sig21 @ inv
            signs.append(np.where(m_rows >= 0.0, 1.0, -1.0))
        if 2 ** s <= 4096:
            signs.append(next(_sign_chunks(s, 2 ** s)))
        else:
            signs.append(np.where(rng.random((4096, s)) < 0.5, 1.0, -1.0))
        for T in signs:
            heads.append(T @ inv.T)
    heads.append(rng.standard_normal((min(max(config.samples, 1), 4096), s)))
    H = np.concatenate(heads, axis=0)
    H = H[np.linalg.norm(H, axis=1) > 0.0]

    scores = estimators._rr_value_head_only(sig11, sig21, H, s, variant)
    if cone.N == cone.s:
        best = float(np.max(scores)) if scores.size else 0.0
        return best, "head candidates with exact tail completion"

    best = 0.0
    finite = np.where(np.isfinite(scores))[0]
    order = finite[np.argsort(scores[finite])[::-1][:8]]
    k = min(cone.N - cone.s, len(comp))
    for i in order:
        h = H[i]
        full_budget = (cone.L * float(np.abs(h).sum()) if variant == "plain"
                       else math.sqrt(s) * cone.L * float(np.linalg.norm(h)))
        if full_budget <= 0.0 or k == 0 or not comp:
            continue
        v = np.abs(sig21 @ h) if comp else np.zeros(0)
        low_coords = np.array(comp)[np.argsort(v)[:k]]
        denoms = [len(comp), max(len(comp) - k, 1) + k, 2 * k + 1, k + 1, k]
        for dna in denoms:
            a = full_budget / max(dna, 1)
            beta = np.zeros(p)
            beta[S] = h
            beta[low_coords] = a
            rest = [j for j in comp if j not in set(low_coords)]
            b = full_budget - k * a
            if b < 0.0 or not rest:
                continue
            g = entries[np.ix_(rest, sorted(set(S) | set(low_coords)))] @ \
                beta[sorted(set(S) | set(low_coords))]
            fill_order = np.argsort(-np.abs(g))
            cap_val = a * (1.0 - 1e-9)
            left = b
            for fi in fill_order:
                amt = min(cap_val, left)
                if amt <= 0.0:
                    break
                beta[rest[int(fi)]] = math.copysign(amt, g[int(fi)])
                left -= amt
            val = float(ref_batch_regression_ratio(entries, cone, beta[None, :])[0])
            if val > best:
                best = val
    remaining = config.samples
    while remaining > 0:
        m = min(estimators._SEARCH_CHUNK, remaining)
        remaining -= m
        B = ref_sample_cone_points(rng, cone, p, m, variant)
        vals = ref_batch_regression_ratio(entries, cone, B)
        top = float(np.max(vals)) if vals.size else 0.0
        if top > best:
            best = top
    return best, "spike-and-greedy plus random cone search"


def rr_outcome(gram, cone, variant, config):
    bv = restricted_regression(gram, cone, variant, config)
    return (np.array([bv.estimate, bv.lower, bv.upper]).tobytes(), bv.certificate, bv.provenance)


def rr_cases():
    """The re_cases() shapes plus N = p, and a rank-3 Gram whose Sigma_SS on
    four coordinates is singular, so the inverse-sign heads are skipped."""
    for p, S in RE_SHAPES:
        for N in sorted({*range(len(S), min(len(S) + 3, p) + 1), p}):
            yield pytest.param(lambda p=p: random_psd_entries(p, 70 + p, 0.05), S, N,
                               id=f"p{p}-S{'_'.join(map(str, S))}-N{N}")
    for N in (4, 5, 6):
        yield pytest.param(fixed_singular_entries, (0, 1, 2, 3), N, id=f"singular-N{N}")


@pytest.mark.parametrize("make, S, N", rr_cases())
def test_restricted_regression_matches_the_per_row_search(make, S, N, monkeypatch):
    gram = GramMatrix(make())
    if make is fixed_singular_entries:
        with pytest.raises(SingularBlock):
            inverse_11(gram, SubsetN(S))
    # three sample chunks, the last a partial one
    monkeypatch.setattr(estimators, "_SEARCH_CHUNK", 256)
    config = SolverConfig(samples=600)
    for variant in ("plain", "adaptive"):
        for L in RE_L:
            cone = ConeSpec(S, L, N)
            got = rr_outcome(gram, cone, variant, config)
            with monkeypatch.context() as patch:
                patch.setattr(estimators, "_rr_search", ref_rr_search)
                assert got == rr_outcome(gram, cone, variant, config)


@pytest.mark.parametrize("p, S, N", re_cases())
def test_regression_kernel_matches_its_definition(p, S, N):
    # dense tails inside the budget
    gram = GramMatrix(random_psd_entries(p, 70 + p, 0.05))
    rng = np.random.default_rng(10 * p + N)
    for variant in ("plain", "adaptive"):
        for L in (1.0, 3.0):
            cone = ConeSpec(S, L, N)
            ix = estimators._cone_index(p, cone)
            B = rng.standard_normal((40, p))
            heads = B[:, ix.S]
            if variant == "plain":
                budget = L * np.abs(heads).sum(axis=1)
            else:
                budget = math.sqrt(len(S)) * L * np.linalg.norm(heads, axis=1)
            B[:, ix.comp] *= (0.9 * budget / np.abs(B[:, ix.comp]).sum(axis=1))[:, None]
            got = estimators._batch_regression_ratio(gram.entries, ix, B)
            assert same(got, ref_batch_regression_ratio(gram.entries, cone, B))
            one_row = [evaluate_regression_ratio(gram, cone, b, variant) for b in B]
            np.testing.assert_allclose(got, one_row, rtol=1e-12, atol=0.0)


def ref_rr_value_head_only(sig11, sig21, heads, s, variant):
    """_rr_value_head_only as it scored each head at its own scale."""
    denom = np.einsum("ia,ab,ib->i", heads, sig11, heads)
    w = np.max(np.abs(sig21 @ heads.T), axis=0) if sig21.shape[0] else np.zeros(heads.shape[0])
    if variant == "plain":
        budget = np.abs(heads).sum(axis=1)
    else:
        budget = math.sqrt(s) * np.linalg.norm(heads, axis=1)
    tiny = SINGULAR_RTOL * max(float(np.max(np.abs(sig11))), 1.0)
    out = np.zeros(heads.shape[0])
    ok = denom > tiny
    out[ok] = budget[ok] * w[ok] / denom[ok]
    out[(~ok) & (budget * w > tiny)] = np.inf
    return out


@pytest.mark.parametrize("make, S", [(lambda: random_psd_entries(7, 77, 0.05), (1, 4)),
                                     (lambda: random_psd_entries(9, 5, 0.0), (0, 4, 8)),
                                     (fixed_singular_entries, (0, 1, 2, 3)),
                                     (lambda: np.eye(5), (2,))],
                         ids=["p7", "p9", "singular", "identity"])
def test_head_only_scores_keep_their_bits_at_every_power_of_two(make, S):
    entries = make()
    comp = outside(entries.shape[0], S)
    sig11, sig21 = entries[np.ix_(S, S)], entries[np.ix_(comp, S)]
    s = len(S)
    rng = np.random.default_rng(s)
    w, V = np.linalg.eigh(sig11)
    heads = [V.T, rng.standard_normal((50, s)), np.zeros((1, s))]
    if w[0] > SINGULAR_RTOL * w[-1]:
        heads.append(next(_sign_chunks(s, 2 ** s)) @ ((V / w) @ V.T))
    H = np.concatenate(heads)
    for variant in ("plain", "adaptive"):
        at_one = estimators._rr_value_head_only(sig11, sig21, H, s, variant)
        assert same(at_one, ref_rr_value_head_only(sig11, sig21, H, s, variant))
        for power in (-300, -40, 1, 40, 300):
            assert same(estimators._rr_value_head_only(sig11, sig21, np.ldexp(H, power), s,
                                                        variant), at_one)


@pytest.mark.filterwarnings("error")
def test_tiny_scale_regression_search_has_no_nan():
    # on 1e-160 I the inverse-sign heads reach 1e160, whose squares overflow:
    # the adaptive budget was inf, and inf * 0 a nan score
    gram = GramMatrix(1e-160 * np.eye(4))
    entries = gram.entries
    sig11, sig21 = entries[:1, :1], entries[1:, :1]
    witness = np.array([[1e160]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(ref_rr_value_head_only(sig11, sig21, witness, 1, "adaptive")).all()
    assert same(estimators._rr_value_head_only(sig11, sig21, witness, 1, "adaptive"),
                np.zeros(1))
    for variant in ("plain", "adaptive"):
        for N in (1, 2):
            bv = restricted_regression(gram, ConeSpec((0,), 1.0, N), variant)
            assert (bv.lower, bv.estimate) == (0.0, 0.0)


def test_regression_search_decomposes_sigma_ss_once(monkeypatch):
    counts = {"eigh": 0, "inverse_11": 0, "block": 0}
    eigh = np.linalg.eigh

    def counted_eigh(*args, **kwargs):
        counts["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    counting(monkeypatch, core, "inverse_11", counts)
    counting(monkeypatch, core, "block", counts)
    gram = GramMatrix(random_psd_entries(7, 77, 0.05))
    bv = restricted_regression(gram, ConeSpec((1, 4), 1.0, 3), config=SolverConfig(samples=300))
    assert bv.lower > 0.0 and "spike-and-greedy" in bv.provenance
    assert counts == {"eigh": 1, "inverse_11": 0, "block": 0}


# -- the lower weak-RIP route ------------------------------------------------


def ref_lower_phi_routes(gram, cone, target, variant):
    """lower_phi_routes with its weak_rip route, at the default cap."""
    p, s, L = gram.p, cone.s, cone.L
    rr_variant = "adaptive" if (target == "restricted_eigenvalue" and variant == "adaptive") else "plain"
    found = {}
    vals = gram.spectrum()
    if vals[0] > SINGULAR_RTOL * max(vals[-1], 0.0):
        found["lambda_min"] = float(vals[0])
    if target == "compatibility":
        try:
            irr = irrepresentable_uniform(gram, cone.with_(N=s)).estimate
            if L * irr < 1.0:
                lam2_s = uniform_eigenvalue(gram, cone.with_(N=s)).estimate
                found["uniform_leverage"] = (1.0 - L * irr) ** 2 * max(0.0, lam2_s)
        except SingularBlock:
            pass
    for n_prime in sorted({s, cone.N, min(2 * s, p)}):
        if target == "restricted_eigenvalue" and n_prime < cone.N:
            continue
        c2 = cone.with_(N=n_prime)
        try:
            lam2 = uniform_eigenvalue(gram, c2, ROUTE_CAP).estimate
        except CapExceeded:
            continue
        if lam2 <= 0.0:
            continue
        ru = regression_upper(gram, c2, rr_variant).upper
        if L * ru < 1.0:
            found[f"regression@{n_prime}"] = (1.0 - L * ru) ** 2 * lam2
    if 2 * s <= p and (target == "compatibility" or cone.N <= 2 * s):
        try:
            c2 = cone.with_(N=2 * s)
            lam2 = uniform_eigenvalue(gram, c2, ROUTE_CAP).estimate
            theta = restricted_orthogonality(gram, c2, ROUTE_CAP).estimate
            scale = max(float(np.max(np.diag(gram.entries))), 1.0)
            if lam2 > SINGULAR_RTOL * scale and L * theta / lam2 < 1.0:
                found["weak_rip"] = (1.0 - L * theta / lam2) ** 2 * lam2
        except CapExceeded:
            pass
    return found


LOWER_TARGETS = (("compatibility", "plain"), ("restricted_eigenvalue", "plain"),
                 ("restricted_eigenvalue", "adaptive"))


def lower_phi_pairs(entries, S, N):
    """(reference routes, certified_lower_phi) for each target and variant of
    LOWER_TARGETS, each L of PART2_L and each N' in {s, N, min(2s, p)}."""
    p, s = entries.shape[0], len(S)
    ref_gram, gram = GramMatrix(entries), GramMatrix(entries)
    for n_size in dict.fromkeys((s, N, min(2 * s, p))):
        for target, variant in LOWER_TARGETS:
            for L in PART2_L:
                cone = ConeSpec(S, L, n_size)
                yield (ref_lower_phi_routes(ref_gram, cone, target, variant),
                       certified_lower_phi(gram, cone, target, variant))


@pytest.mark.parametrize("make, S, N", cases())
def test_lower_phi_matches_the_weak_rip_route_loop(make, S, N):
    for want, got in lower_phi_pairs(make(), S, N):
        if not want:
            assert got.provenance == "route=none"
            continue
        best = max(want, key=want.get)
        note = f"route={best}; " + ", ".join(
            f"{k}={v!r}" for k, v in sorted(want.items()) if k != "weak_rip")
        assert got.certificate is Certificate.CERTIFIED_LOWER
        assert np.float64(got.estimate).tobytes() == np.float64(want[best]).tobytes()
        assert got.provenance == note


def test_the_weak_rip_reference_is_reached_and_never_above_regression_at_2s():
    seen = 0
    for make, cones in INSTANCES.values():
        for S, N in cones:
            for want, _ in lower_phi_pairs(make(), S, N):
                if "weak_rip" in want:
                    seen += 1
                    assert want["weak_rip"] <= want[f"regression@{2 * len(S)}"]
    assert seen > 0


# -- the bound-and-prune enumeration kernel ----------------------------------


def ref_first_best(gram, plan, score, maximize, best):
    """constants._first_best before it took a bound: one stacked eigvalsh or
    svd over every row of every chunk."""
    entries = gram.entries
    witness = None
    for base, n, m in plan:
        for nsets, msets in constants._index_chunks(gram.p, base, n, m):
            if msets is None:
                values = score(np.linalg.eigvalsh(entries[nsets[:, :, None], nsets[:, None, :]]))
            else:
                values = score(np.linalg.svd(entries[nsets[:, :, None], msets[:, None, :]],
                                             compute_uv=False))
            i = int(np.argmax(values) if maximize else np.argmin(values))
            value = float(values[i])
            if (value > best) if maximize else (value < best):
                best = value
                witness = (tuple(nsets[i].tolist()) if msets is None
                           else (tuple(nsets[i].tolist()), tuple(msets[i].tolist())))
    return best, witness


def isometry_score(vals):
    return np.maximum(vals[:, -1] - 1.0, 1.0 - vals[:, 0])


def uniform_plan(p, s_size, n_size):
    return [((), n, m) for n, m in constants.theta_uniform_plan(p, s_size, n_size)]


def ref_theta(entries, S, N):
    """(value, witness note) of theta(S, N) by the unpruned kernel."""
    gram = GramMatrix(entries)
    theta = ref_first_best(gram, [(S, n, m) for n, m in constants._ortho_sizes(gram.p, len(S), N)],
                           constants._largest_singular_value, True, 0.0)
    return theta[0], f"argmax pair={theta[1]}"


def ref_pruned_constants(entries, S, N, n_uniform):
    """(value, witness note) of theta(S, N) and delta_N, and (value, witness)
    of theta_{s,n_uniform} and of the smallest eigenvalue over the size-N
    supersets of S, by the unpruned kernel."""
    gram = GramMatrix(entries)
    delta = ref_first_best(gram, [((), N, 0)], isometry_score, True, -math.inf)
    uniform = ref_first_best(gram, uniform_plan(gram.p, len(S), n_uniform),
                             constants._largest_singular_value, True, 0.0)
    lam2 = ref_first_best(gram, [(S, N, 0)], lambda vals: vals[:, 0], False, math.inf)
    return {"theta": ref_theta(entries, S, N),
            "delta": (delta[0], f"argmax nset={delta[1]}"),
            "theta_uniform": uniform,
            "lambda_min": lam2}


def gershgorin_lower(floor):
    """A lower bound on the smallest eigenvalue of each stacked symmetric
    block, none below floor."""
    def bound(blocks):
        rowabs = np.abs(blocks).sum(axis=2)
        return np.maximum(np.min(2.0 * np.diagonal(blocks, axis1=1, axis2=2) - rowabs, axis=1),
                          floor)
    return bound


def pruned_constants(entries, S, N, n_uniform):
    """The same through the public functions, each on a fresh GramMatrix; the
    witness of theta_{s,n_uniform}, which it does not report, from its kernel
    call.  No public search minimizes with a bound, so the smallest
    eigenvalue over the size-N supersets of S, pruned by Gershgorin discs,
    checks that direction of the kernel."""
    theta = restricted_orthogonality(GramMatrix(entries), ConeSpec(S, 1.0, N))
    delta = restricted_isometry(GramMatrix(entries), N)
    gram = GramMatrix(entries)
    uniform = constants._first_best(gram, uniform_plan(gram.p, len(S), n_uniform),
                                    constants._largest_singular_value, True, 0.0,
                                    constants._frobenius_norms)
    assert theta_uniform(GramMatrix(entries), len(S), n_uniform).estimate == uniform[0]
    lam2 = constants._first_best(gram, [(S, N, 0)], lambda vals: vals[:, 0], False, math.inf,
                                 gershgorin_lower(float(gram.spectrum()[0])))
    return {"theta": (theta.estimate, theta.provenance),
            "delta": (delta.estimate, delta.provenance),
            "theta_uniform": uniform,
            "lambda_min": lam2}


def enum_entries():
    # the Gram of the enum benchmark workload: random_psd, p = 16, seed 10000,
    # jitter 0.1
    return random_psd_entries(16, 10_000, 0.1)


def enum_supports():
    """The supports S (|S| = 3) of the enum benchmark's 20 instance keys."""
    return [tuple(sorted(int(j) for j in derived_rng(key, "bench", "enum", "S").choice(
        16, size=3, replace=False))) for key in range(20)]


def test_enum_gram_matches_the_unpruned_kernel():
    entries = enum_entries()
    supports = enum_supports()
    assert len(set(supports)) == 20
    # delta_6 and theta_{3,3} do not depend on S
    assert pruned_constants(entries, supports[0], 6, 3) == ref_pruned_constants(
        entries, supports[0], 6, 3)
    for S in supports[1:]:
        theta = restricted_orthogonality(GramMatrix(entries), ConeSpec(S, 1.0, 6))
        assert (theta.estimate, theta.provenance) == ref_theta(entries, S, 6)


def sweep_like_cases():
    """Instances drawn like the sweep benchmark's: p in 4..8, |S| in 1..2,
    jitter 0, 0.05 or 0.2, |S| <= N <= min(2|S|, p)."""
    for index in range(10):
        rng = derived_rng(index, "kernel-references", "sweep-like")
        p, s = int(rng.integers(4, 9)), int(rng.integers(1, 3))
        jitter = float(rng.choice([0.0, 0.05, 0.2]))
        S = tuple(sorted(int(j) for j in rng.choice(p, size=s, replace=False)))
        N = int(rng.integers(s, min(2 * s, p) + 1))
        yield pytest.param(random_psd_entries(p, 50_000 + index, jitter), S, N, id=f"sweep-{index}")


def scaled_entries(scale):
    return scale * random_psd_entries(9, 6, 0.05)


def rank_one_entries():
    v = random_psd_entries(8, 7, 0.0)[:, 0]
    return np.outer(v, v)


def last_chunk_entries():
    # identity, with the last 4 coordinates equicorrelated at 0.5: delta_4 is
    # attained at the lexicographically last 4-set only, in the last chunk
    sigma = np.eye(10)
    sigma[6:, 6:] = equicorr_entries(4, 0.5)
    return sigma


PRUNE_INSTANCES = {
    "identity": (lambda: np.eye(9), (2, 5), 4),
    "equicorrelation": (lambda: equicorr_entries(9, 0.3), (0, 4, 8), 6),
    "block_equicorrelation": (lambda: block_equicorrelation_entries(9, 3, 0.5), (1, 4), 4),
    "scaled_1e-8": (lambda: scaled_entries(1e-8), (1, 6), 4),
    "scaled_1e8": (lambda: scaled_entries(1e8), (1, 6), 4),
    "rank_deficient": (rank_deficient_entries, (1, 2, 7), 5),
    "rank_one": (rank_one_entries, (0, 3), 4),
    "last_chunk": (last_chunk_entries, (0, 1), 4),
}


def prune_cases():
    yield from sweep_like_cases()
    for name, (make, S, N) in PRUNE_INSTANCES.items():
        yield pytest.param(make(), S, N, id=name)


@pytest.mark.parametrize("entries, S, N", prune_cases())
def test_pruned_constants_match_the_unpruned_kernel(entries, S, N, monkeypatch):
    want = ref_pruned_constants(entries, S, N, N)
    for chunk in CHUNKS + [37]:
        monkeypatch.setattr(constants, "_CHUNK_ENTRIES", chunk)
        assert pruned_constants(entries, S, N, N) == want


def test_unique_maximizer_in_the_last_chunk_survives(monkeypatch):
    entries = last_chunk_entries()
    nsets = np.array(list(itertools.combinations(range(10), 4)))
    scores = isometry_score(np.linalg.eigvalsh(entries[nsets[:, :, None], nsets[:, None, :]]))
    assert np.flatnonzero(scores == np.max(scores)).tolist() == [len(nsets) - 1]
    # 37 rows of 4x4 blocks a chunk: the 210 sets in 6 chunks
    monkeypatch.setattr(constants, "_CHUNK_ENTRIES", 37 * 16)
    assert len(list(constants._index_chunks(10, (), 4, 0))) == 6
    log = linalg_log(monkeypatch)
    delta = restricted_isometry(GramMatrix(entries), 4)
    assert (delta.estimate, delta.provenance) == (float(scores[-1]), "argmax nset=(6, 7, 8, 9)")
    assert sum(shape[0] for _, shape in log) < len(nsets) // 2


def stacked_cases():
    """Stacked blocks of Grams (random, rank one, rank deficient, scaled):
    (gram, principal blocks, cross blocks)."""
    rng = np.random.default_rng(13)
    grams = [random_psd_entries(10, 11, 0.0), rank_one_entries(), rank_deficient_entries(),
             equicorr_entries(8, 0.9), 1e-8 * random_psd_entries(9, 5, 0.0),
             1e8 * random_psd_entries(9, 5, 0.0)]
    for entries in grams:
        gram = GramMatrix(entries)
        p = gram.p
        for n in range(1, p + 1):
            nsets = np.array([np.sort(rng.choice(p, size=n, replace=False)) for _ in range(40)])
            square = gram.entries[nsets[:, :, None], nsets[:, None, :]]
            outside = constants._complements(nsets, p)
            cross = [gram.entries[nsets[:, :, None], outside[:, None, :m]]
                     for m in range(1, p - n + 1)]
            yield gram, square, cross


def test_pruning_bounds_hold_with_room_to_spare():
    # a computed score never exceeds its computed bound by more than a
    # thousandth of the margin _first_best allows, on blocks of Grams and on
    # unstructured random and rank-one matrices
    rng = np.random.default_rng(17)
    worst = -math.inf
    for gram, square, cross in stacked_cases():
        margin = constants._PRUNE_RTOL * max(1.0, float(gram.spectrum()[-1]))
        score = isometry_score(np.linalg.eigvalsh(square))
        bound = constants._isometry_bound(square, float(gram.spectrum()[0]))
        worst = max(worst, float(np.max(score - bound)) / margin)
        for blocks in cross:
            score = np.linalg.svd(blocks, compute_uv=False)[:, 0]
            worst = max(worst, float(np.max(score - constants._frobenius_norms(blocks))) / margin)
    for shape in [(50, 6, 3), (50, 1, 9), (20, 40, 30)]:
        a = rng.standard_normal(shape)
        left, right = rng.standard_normal(shape[:2]), rng.standard_normal(shape[::2])
        rank_one = left[:, :, None] * right[:, None, :]
        for blocks in (a, rank_one, 1e8 * a, 1e-8 * rank_one):
            svals = np.linalg.svd(blocks, compute_uv=False)[:, 0]
            margin = constants._PRUNE_RTOL * max(1.0, float(np.max(svals)))
            worst = max(worst, float(np.max(svals - constants._frobenius_norms(blocks))) / margin)
    assert worst <= 1e-3


def linalg_log(monkeypatch):
    """Record (name, shape) of every stacked eigvalsh and svd call (not the
    PSD check of a new GramMatrix, an eigvalsh of one matrix)."""
    log = []
    for name in ("eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _name=name, _original=original, **kwargs):
            if a.ndim == 3:
                log.append((_name, a.shape))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return log


def test_one_chunk_enumerations_make_the_unpruned_calls(monkeypatch):
    log = linalg_log(monkeypatch)
    for param in sweep_like_cases():
        entries, S, N = param.values
        p = entries.shape[0]
        top_sv = constants._largest_singular_value
        searches = [([(S, n, m) for n, m in constants._ortho_sizes(p, len(S), N)], top_sv, 0.0),
                    ([((), N, 0)], isometry_score, -math.inf),
                    (uniform_plan(p, len(S), N), top_sv, 0.0)]
        assert all(math.comb(p - len(base), n - len(base)) * math.comb(p - n, m)
                   <= constants._chunk_rows(n, m)
                   for plan, _, _ in searches for base, n, m in plan)
        gram = GramMatrix(entries)
        del log[:]
        for plan, score, start in searches:
            ref_first_best(gram, plan, score, True, start)
        want = sorted(log)
        del log[:]
        restricted_orthogonality(GramMatrix(entries), ConeSpec(S, 1.0, N))
        restricted_isometry(GramMatrix(entries), N)
        theta_uniform(GramMatrix(entries), len(S), N)
        assert sorted(log) == want


def test_enum_gram_scores_few_rows(monkeypatch):
    # theta(S, 6) has 34,320 (nset, mset) pairs and delta_6 8,008 sets; pruned,
    # each scores at most a quarter of its rows, incumbent picks included
    log = linalg_log(monkeypatch)
    entries = enum_entries()
    for S in enum_supports():
        del log[:]
        restricted_orthogonality(GramMatrix(entries), ConeSpec(S, 1.0, 6))
        assert {name for name, _ in log} == {"svd"}
        assert sum(shape[0] for _, shape in log) <= 34_320 // 4
    del log[:]
    restricted_isometry(GramMatrix(entries), 6)
    assert sum(shape[0] for _, shape in log) <= 8_008 // 4


@pytest.mark.parametrize("entries", [enum_entries(), np.eye(16)], ids=["enum", "identity"])
def test_each_chunk_is_gathered_once(entries, monkeypatch):
    # theta(S, 6) and delta_6 stream each plan entry's chunks once, whether
    # the bound prunes much (the enum Gram) or nothing (the identity)
    original = constants._index_chunks
    log = []

    def counted(p, base, n, m):
        for chunk in original(p, base, n, m):
            log.append((tuple(base), n, m))
            yield chunk

    monkeypatch.setattr(constants, "_index_chunks", counted)
    searches = [(lambda S=S: restricted_orthogonality(GramMatrix(entries), ConeSpec(S, 1.0, 6)),
                 [(S, n, m) for n, m in constants._ortho_sizes(16, 3, 6)])
                for S in enum_supports()]
    searches.append((lambda: restricted_isometry(GramMatrix(entries), 6), [((), 6, 0)]))
    for search, plan in searches:
        want = {(base, n, m): sum(1 for _ in original(16, base, n, m)) for base, n, m in plan}
        assert max(want.values()) > 1
        del log[:]
        search()
        assert Counter(log) == want


def sorted_superset_chunks(p, base, n, rows):
    """The chunks of constants._supersets as it built them for every base:
    the added indices beside the base, each row sorted."""
    base = np.asarray(base, dtype=np.intp).reshape(1, -1)
    for extra in constants._combinations(constants._complements(base, p)[0], n - base.size, rows):
        stacked = np.broadcast_to(base, (len(extra), base.size))
        yield np.sort(np.concatenate([stacked, extra], axis=1), axis=1)


@pytest.mark.parametrize("p, base, n", [(6, (), 1), (6, (), 3), (7, (), 7), (9, (), 4),
                                        (9, (2, 5), 4), (5, (4,), 2)])
@pytest.mark.parametrize("rows", [1, 4, 1000])
def test_superset_chunks_equal_the_sorted_form(p, base, n, rows):
    got = list(constants._supersets(p, base, n, rows))
    want = list(sorted_superset_chunks(p, base, n, rows))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
    rows_seen = [tuple(row) for chunk in got for row in chunk.tolist()]
    assert rows_seen == [nset.members for nset in supersets(p, base, n)]


# -- the lean sample kernels and the flat gather ------------------------------


def full_sample_cone_points(rng, ix, m, variant):
    """_sample_cone_points as it allocated every intermediate."""
    cone, S, comp = ix.cone, ix.S, ix.comp
    s, r = cone.s, comp.size
    heads = rng.standard_normal((m, s))
    norms = np.linalg.norm(heads, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    heads /= norms
    if r and cone.L > 0.0:
        raw = rng.standard_normal((m, r))
        density = rng.random(m) ** 2
        keep = rng.random((m, r)) < np.maximum(density, 1.0 / r)[:, None]
        raw *= keep
        l1 = np.abs(raw).sum(axis=1)
        if variant == "plain":
            budget = cone.L * np.abs(heads).sum(axis=1)
        else:
            budget = math.sqrt(s) * cone.L * np.ones(m)
        frac = rng.random(m) ** 0.25
        scale = np.zeros(m)
        ok = l1 > 0.0
        scale[ok] = frac[ok] * budget[ok] / l1[ok]
        tails = raw * scale[:, None]
    else:
        tails = np.zeros((m, r))
    B = np.zeros((m, s + r))
    B[:, S] = heads
    B[:, comp] = tails
    return B, heads, tails


def full_restricted_ratio_parts(entries, B, heads, tails, k):
    """_restricted_ratio_parts as it partitioned a copy of |tails|."""
    qs = np.einsum("ij,ij->i", B @ entries, B)
    nsq = (heads ** 2).sum(axis=1)
    if k == 1:
        nsq = nsq + np.abs(tails.T, order="C").max(axis=0) ** 2
    elif k > 1:
        at = np.abs(tails)
        top = np.partition(at, at.shape[1] - k, axis=1)[:, at.shape[1] - k:]
        nsq = nsq + (top ** 2).sum(axis=1)
    return np.divide(qs, nsq, out=np.full(B.shape[0], np.inf), where=nsq > 1e-300)


# (p, S, N): k = 0, k = 1, k = 2 < r, 2 < k < r, k = 2 = r and k = 3 = r
# (N = p), and r = 0 (S = all)
LEAN_SHAPES = [(5, (1, 3), 2), (9, (0, 4, 8), 4), (8, (2, 5), 4), (9, (0, 4, 8), 6),
               (16, (2, 7, 11), 6), (4, (1, 2), 4), (5, (1, 3), 5), (6, (0, 1, 2, 3, 4, 5), 6)]


@pytest.mark.parametrize("p, S, N", LEAN_SHAPES,
                         ids=[f"p{p}-s{len(S)}-N{N}" for p, S, N in LEAN_SHAPES])
def test_lean_sample_kernels_match_the_full_forms(p, S, N):
    entries = random_psd_entries(p, 90 + p, 0.05)
    signed_zero_tails = 0
    for variant in ("plain", "adaptive"):
        for L in (0.0, 1.0, 2.5):
            ix = estimators._cone_index(p, ConeSpec(S, L, N))
            for m in (1, 300):
                rng_full, rng_lean = derived_rng(p, N, L, m), derived_rng(p, N, L, m)
                want = full_sample_cone_points(rng_full, ix, m, variant)
                got = estimators._sample_cone_points(rng_lean, ix, m, variant)
                for g, w in zip(got, want):
                    assert same(g, w)
                assert rng_lean.random() == rng_full.random()
                B, heads, tails = want
                signed_zero_tails += int(np.count_nonzero((tails == 0.0) & np.signbit(tails)))

                rows = [B]
                if ix.comp.size:
                    rows.append(edge_rows(p, list(S), rng_full))
                rows = np.vstack(rows + [3.0 * B[:8]])
                heads, tails = rows[:, ix.S], rows[:, ix.comp]
                assert same(estimators._restricted_ratio_parts(entries, rows, heads, tails, ix.k),
                            full_restricted_ratio_parts(entries, rows, heads, tails, ix.k))
                assert same(estimators._batch_regression_ratio(entries, ix, rows),
                            ref_batch_regression_ratio(entries, ix.cone, rows))
    if p - len(S):
        assert signed_zero_tails > 0


def test_sample_loops_hold_one_chunk_at_a_time(monkeypatch):
    # five chunks per search; every array of chunk i must be freed before
    # chunk i + 1 is drawn
    monkeypatch.setattr(estimators, "_SEARCH_CHUNK", 64)
    real = estimators._sample_cone_points
    alive, draws = [], []

    def tracked(rng, ix, m, variant):
        draws.append(sum(ref() is not None for ref in alive))
        chunk = real(rng, ix, m, variant)
        alive[:] = [weakref.ref(a) for a in chunk]
        return chunk

    monkeypatch.setattr(estimators, "_sample_cone_points", tracked)
    gram = GramMatrix(random_psd_entries(9, 3, 0.1))
    cone = ConeSpec((0, 4, 8), 1.0, 5)
    config = SolverConfig(samples=300)
    for variant in ("plain", "adaptive"):
        for search in (restricted_eigenvalue, restricted_regression):
            del alive[:], draws[:]
            search(gram, cone, variant, config)
            assert draws == [0] * 5


FLAT_GATHER_PLANS = [[((), 3, 0)], [((1, 4), 3, 0)], [((), 2, 0), ((0,), 4, 0)],
                     [((0, 5), 3, 2)], [((), 2, 3)], [((2,), 2, 1), ((2,), 3, 4)]]


@pytest.mark.parametrize("plan", FLAT_GATHER_PLANS, ids=str)
def test_flat_gather_equals_the_two_array_gather(plan, monkeypatch):
    gram = GramMatrix(random_psd_entries(9, 8, 0.1))
    entries = gram.entries
    # several chunks per plan entry, so the kernel hands every block to bound
    monkeypatch.setattr(constants, "_CHUNK_ENTRIES", 40)
    chunks, blocks = [], []
    real = constants._index_chunks

    def recorded(*args):
        for nsets, msets in real(*args):
            chunks.append((nsets, msets))
            yield nsets, msets

    def bound(stacked):
        blocks.append(stacked.copy())
        return np.full(len(stacked), np.inf)

    monkeypatch.setattr(constants, "_index_chunks", recorded)
    constants._first_best(gram, plan, lambda vals: vals[:, 0], True, 0.0, bound)
    assert len(chunks) == len(blocks) > len(plan)
    for (nsets, msets), got in zip(chunks, blocks):
        cols = nsets if msets is None else msets
        assert same(got, entries[nsets[:, :, None], cols[:, None, :]])
