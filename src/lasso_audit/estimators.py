"""Interval estimators for cone-restricted quadratic-form constants.

Three quantities live here, all defined as optima over an l1 cone:

* the compatibility constant (min of s * beta'Sigma beta / ||beta_S||_1^2),
* the restricted eigenvalue (min of beta'Sigma beta / ||beta_nset||_2^2 with
  nset the active-set enlargement by the largest tail magnitudes),
* the restricted regression constant (max of the tail-on-head regression
  ratio |t'Sigma_21 beta_nset| / beta_nset'Sigma_11 beta_nset).

Minima are bracketed from above by feasible points and from below by
certified closed-form routes; maxima the other way around.  The returned
BoundedValue always encloses the true optimum up to the documented
projected-gradient margin.

Each certified closed-form bound has one entry point:

* lower_phi_routes: every applicable lower-bound route for the
  compatibility constant or phi^2(L, S, N), by name; certified_lower_phi
  takes the best of them;
* regression_upper: the upper bound for the restricted regression constant,
  which restricted_regression pairs with its feasible-point search.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import (
    DEFAULT_SIGN_CAP,
    _lambda2_vanishes,
    _sign_chunks,
    block_norm_2q,
    block_norm_maxima,
    coherence,
    irrepresentable_uniform,
    uniform_eigenvalue,
    weak_rip_constant,
)
from .core import (
    DEFAULT_SUBSET_CAP,
    SINGULAR_RTOL,
    BoundedValue,
    Certificate,
    ConeSpec,
    GramMatrix,
    SubsetN,
    _check_variant,
    _complement,
    _nonsingular,
    _top_tail,
    cone_membership,
    derived_rng,
)
from .errors import CapExceeded, InvalidParameter, MaxItersExceeded, SingularBlock
from .solvers import DEFAULT_CONFIG, SolverConfig, _project_l1_ball, projected_gradient_qp

# enumeration budget for bound routes that are optional extras; routes above
# this size are skipped rather than attempted
ROUTE_CAP = 20_000

# relative slack on the tail budget below which the closed-form equality
# solution counts as feasible for the l1-ball constraint
_FAST_FEAS_RTOL = 1e-10

_SEARCH_CHUNK = 8192


def compatibility_constant(gram: GramMatrix, cone: ConeSpec, config: SolverConfig = DEFAULT_CONFIG,
                           sign_cap: int = DEFAULT_SIGN_CAP) -> BoundedValue:
    """phi^2_compat(L, S): min over the plain cone of s * beta'Sigma beta / ||beta_S||_1^2.

    Reduction: with tau ranging over sign vectors on S (first coordinate fixed
    to +1 by symmetry), the constant equals s * min_tau V(tau) where
    V(tau) = min { beta'Sigma beta : tau'beta_S = 1, ||beta_{S^c}||_1 <= L }.
    When Sigma is nonsingular and the unconstrained-tail equality solution
    Sigma^{-1} a / (a'Sigma^{-1} a) already satisfies the tail budget, V(tau)
    is available in closed form; those tau are batched.  The rest, and every
    tau of a singular Sigma, fall back to projected gradient, which brackets
    V(tau) from above.  The result is always an Interval with a 10 * tol
    margin below the found value, downgraded to Estimate if any
    projected-gradient run hits its iteration limit.
    """
    cone.validate_p(gram.p)
    p, s, L = gram.p, cone.s, cone.L
    if 2 ** max(s - 1, 0) > sign_cap:
        raise CapExceeded(2 ** (s - 1), sign_cap, what="compatibility sign enumeration")
    ix = _cone_index(p, cone)
    vals, vecs = np.linalg.eigh(gram.entries)
    nonsingular = _nonsingular(vals)
    if nonsingular:
        inv_cols = (vecs / vals) @ vecs.T[:, ix.S]
        a11 = inv_cols[ix.S, :]
        tail_rows = inv_cols[ix.comp, :]

    best = math.inf
    best_tau = None
    fast = 0
    hard = []
    for T in _sign_chunks(max(s - 1, 0), _SEARCH_CHUNK):
        full = np.concatenate([np.ones((T.shape[0], 1)), T], axis=1)
        if not nonsingular:
            hard.append(full)
            continue
        denom = np.einsum("ia,ab,ib->i", full, a11, full)
        tail_l1 = np.abs(full @ tail_rows.T).sum(axis=1)
        feasible = tail_l1 <= denom * L * (1.0 + _FAST_FEAS_RTOL) + 1e-300
        fast += int(np.count_nonzero(feasible))
        if np.any(feasible):
            i = int(np.argmax(np.where(feasible, denom, -np.inf)))
            if 1.0 / denom[i] < best:
                best = 1.0 / float(denom[i])
                best_tau = tuple(int(v) for v in full[i])
        hard.append(full[~feasible])
    hard = np.concatenate(hard)

    # 2 lambda_max(Sigma) is the gradient's Lipschitz constant; Sigma = 0
    # has gradient 0, and any positive step converges there at once
    lip = 2.0 * float(vals[-1]) if vals[-1] > 0.0 else 1.0
    diverged = 0
    for tau in hard:
        v, tau_t, converged = _equality_tail_qp(gram, ix, tau, config, lip)
        if not converged:
            diverged += 1
        if v < best:
            best = v
            best_tau = tau_t

    value = s * best
    note = (f"signs={2 ** max(s - 1, 0)}, closed_form={fast}, "
            f"projected_gradient={len(hard)}, argmin_tau={best_tau}")
    if diverged:
        return BoundedValue.estimate_only(value, provenance=note + f", unconverged={diverged}")
    lower = max(0.0, value - 10.0 * config.tol * max(1.0, abs(value)))
    return BoundedValue.interval(value, lower, value, provenance=note)


def _equality_tail_qp(gram: GramMatrix, ix: _ConeIndex, tau: np.ndarray, config: SolverConfig,
                      lipschitz: float):
    """V(tau) by projected gradient: the feasible set splits into the affine
    hyperplane tau'beta_S = 1 on S and the l1 ball of radius L off S, so the
    blockwise projection is the exact projection."""
    p, s, L = gram.p, ix.cone.s, ix.cone.L
    S, comp = ix.S, ix.comp
    tau = np.asarray(tau, dtype=float)

    def projection(x):
        y = x.copy()
        head = x[S]
        y[S] = head - tau * ((tau @ head - 1.0) / s)
        if comp.size:
            y[comp] = _project_l1_ball(x[comp], L)
        return y

    x0 = np.zeros(p)
    x0[S] = tau / s
    converged = True
    try:
        x, fx, _ = projected_gradient_qp(gram.entries, np.zeros(p), projection, config,
                                         x0=x0, lipschitz=lipschitz)
    except MaxItersExceeded as exc:
        x, fx, _ = exc.best
        converged = False
    return float(fx), tuple(int(v) for v in tau), converged


class _ConeIndex(NamedTuple):
    """A cone's index sets, built once per search: S and its complement
    S^c as index arrays, and k = min(N - s, |S^c|), the number of tail
    coordinates the top enlargement adds to S."""

    cone: ConeSpec
    S: np.ndarray
    comp: np.ndarray
    k: int


def _cone_index(p: int, cone: ConeSpec) -> _ConeIndex:
    comp = np.array(_complement(p, cone.S), dtype=np.intp)
    return _ConeIndex(cone, np.array(cone.S, dtype=np.intp), comp, min(cone.N - cone.s, comp.size))


# rows from which a column-by-column pass beats numpy's per-row reductions
_COLUMN_ROWS = 128


def _row_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1), bit for bit, for a 2-D array.  numpy sums a C-contiguous
    row of fewer than 8 entries left to right from +0.0 (pairwise from 8 on),
    at a per-row cost that does not shrink with the row; many short rows are
    summed here column by column instead, one vectorized add per column."""
    m, n = a.shape
    if not 0 < n < 8 or m < _COLUMN_ROWS or not a.flags.c_contiguous:
        return a.sum(axis=1)
    out = a[:, 0] + 0.0
    for j in range(1, n):
        out += a[:, j]
    return out


def _restricted_ratio_parts(entries: np.ndarray, B: np.ndarray, heads: np.ndarray,
                            tails: np.ndarray, k: int) -> np.ndarray:
    """beta'Sigma beta / ||beta_nset||_2^2 for each row of B, given its head
    B[:, S] and tail B[:, S^c]; nset adds the k largest tail magnitudes."""
    qs = np.einsum("ij,ij->i", B @ entries, B)
    nsq = _row_sums(heads ** 2)
    if k == 1:
        # the row maxima, taken over a transposed copy: one vectorized
        # maximum per tail column instead of one short reduction per row
        nsq = nsq + np.abs(tails.T, order="C").max(axis=0) ** 2
    elif k == 2 and B.shape[0] >= _COLUMN_ROWS:
        # the two largest magnitudes by running column maxima and minima;
        # x * x + y * y does not depend on the order partition leaves them in
        at = np.abs(tails.T, order="C")
        hi, lo = np.maximum(at[0], at[1]), np.minimum(at[0], at[1])
        below = np.empty_like(hi)
        for col in at[2:]:
            np.minimum(hi, col, out=below)
            np.maximum(hi, col, out=hi)
            np.maximum(lo, below, out=lo)
        nsq = nsq + (hi ** 2 + lo ** 2)
    elif k > 1:
        # partitioned in place: the order np.partition leaves in its copy,
        # which a sum of three or more squares depends on
        at = np.abs(tails)
        at.partition(at.shape[1] - k, axis=1)
        nsq = nsq + (at[:, at.shape[1] - k:] ** 2).sum(axis=1)
    return np.divide(qs, nsq, out=np.full(B.shape[0], np.inf), where=nsq > 1e-300)


def _batch_restricted_ratio(entries: np.ndarray, ix: _ConeIndex, B: np.ndarray) -> np.ndarray:
    """beta'Sigma beta / ||beta_nset||_2^2 for each row, nset = top enlargement."""
    return _restricted_ratio_parts(entries, B, B[:, ix.S], B[:, ix.comp], ix.k)


def evaluate_restricted_ratio(gram: GramMatrix, cone: ConeSpec, beta, variant: str = "plain", *,
                              atol: float = 0.0) -> float:
    """The restricted-eigenvalue objective at one cone point."""
    beta = np.asarray(beta, dtype=float)
    if not cone_membership(beta, cone, variant=variant, atol=atol):
        raise InvalidParameter("beta is not in the requested cone")
    return float(_batch_restricted_ratio(gram.entries, _cone_index(gram.p, cone), beta[None, :])[0])


def _sample_cone_points(rng, ix: _ConeIndex, m: int, variant: str):
    """Feasible cone points with unit-norm heads and randomly sparse tails
    scaled to a random fraction of the budget, as (B, heads, tails) with
    heads = B[:, S] and tails = B[:, S^c].

    The keep uniforms and then the tail magnitudes live in the first m * r
    slots of B until B is filled, which saves two (m, r) arrays."""
    cone, S, comp = ix.cone, ix.S, ix.comp
    s, r = cone.s, comp.size
    B = np.empty((m, s + r))
    heads = rng.standard_normal((m, s))
    # np.linalg.norm(heads, axis=1): the root of the row sums of squares
    norms = np.sqrt(_row_sums(heads * heads))
    norms[norms == 0.0] = 1.0
    heads /= norms[:, None]
    del norms
    if r and cone.L > 0.0:
        tails = rng.standard_normal((m, r))
        density = rng.random(m) ** 2
        scratch = B.reshape(-1)[:m * r].reshape(m, r)
        keep = rng.random((m, r), out=scratch) < np.maximum(density, 1.0 / r)[:, None]
        del density
        tails *= keep
        del keep
        l1 = _row_sums(np.abs(tails, out=scratch))
        if variant == "plain":
            budget = cone.L * _row_sums(np.abs(heads))
        else:
            budget = math.sqrt(s) * cone.L * np.ones(m)
        frac = rng.random(m) ** 0.25
        scale = np.divide(frac * budget, l1, out=np.zeros(m), where=l1 > 0.0)
        tails *= scale[:, None]
    else:
        tails = np.zeros((m, r))
    B[:, S] = heads
    B[:, comp] = tails
    return B, heads, tails


def _cone_samples(rng, ix: _ConeIndex, variant: str, samples: int):
    """samples cone points from _sample_cone_points, in chunks of at most
    _SEARCH_CHUNK rows: the one sample loop of the cone searches.  A loop
    over it drops its chunk at the end of each pass, so that one chunk is
    alive at a time, not two, while the next is drawn."""
    remaining = samples
    while remaining > 0:
        m = min(_SEARCH_CHUNK, remaining)
        remaining -= m
        yield _sample_cone_points(rng, ix, m, variant)


def _project_to_cone(beta: np.ndarray, ix: _ConeIndex, variant: str) -> np.ndarray:
    """Rescale the tail onto the budget; heads are left untouched."""
    out = beta.copy()
    cone, comp = ix.cone, ix.comp
    if not comp.size:
        return out
    head = out[ix.S]
    if variant == "plain":
        budget = cone.L * float(np.abs(head).sum())
    else:
        budget = math.sqrt(cone.s) * cone.L * float(np.linalg.norm(head))
    tail_l1 = float(np.abs(out[comp]).sum())
    if tail_l1 > budget:
        out[comp] *= 0.0 if budget == 0.0 else budget / tail_l1
    return out


def _restricted_ratio_row(entries: np.ndarray, ix: _ConeIndex, b: np.ndarray) -> float:
    """_batch_restricted_ratio of the one row b: the refinement's one-row path."""
    return float(_batch_restricted_ratio(entries, ix, b[None, :])[0])


# candidates per line-search step: eta, eta / 2, ..., eta / 2^24
_LINE_STEPS = 25


def _screen_candidates(entries: np.ndarray, ix: _ConeIndex, variant: str, raw: np.ndarray,
                       thr: float, scale: float) -> np.ndarray:
    """The indices, in order, of the unprojected line-search candidates raw
    that the one-row path must evaluate: those with a nonzero head that a
    batch score cannot prove rejected, fc >= thr.  A zero head is skipped
    unscored, as the line search always did.  scale is max|Sigma_ij|.

    The batch projects and scores all rows at once, as _project_to_cone and
    _restricted_ratio_row do one row, but not bit for bit: its matrix
    products sum in another order, and its adaptive budget takes the root of
    a row sum, not a BLAS dot.  So a row counts as rejected only when its
    score minus a margin is still at least thr.  The margin bounds the gap
    between the two evaluations (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1), with u = 2^-53, c a projected candidate and
    A = |c|'|Sigma||c| <= scale ||c||_1^2:
    * each evaluation of c'Sigma c is within gamma_{2p+2} A of the exact
      value, its sum of squares n >= ||c_S||^2 within gamma_{p+1} n, and its
      quotient within u;
    * the two adaptive budgets are each within (s + 4) u of the exact one,
      so the two projected tails differ by a factor within (p + 8) u of 1,
      which moves c'Sigma c by at most 3 (p + 8) u A and n by 3 (p + 8) u n.
    Together the two values differ by at most (7p + 30) u (|ratio| + A / n)
    to first order.  rel = 16 (p + 8) u is twice that, for the second-order
    terms and the rounding of the margin itself; the 1e-300 terms cover
    underflow.  n is bounded below by max(||c_S||^2, 1e-300), since a finite
    score has n > 1e-300."""
    S, comp, L = ix.S, ix.comp, ix.cone.L
    heads, tails = raw[:, S], raw[:, comp]
    head_l1 = np.abs(heads).sum(axis=1)
    hsq = (heads * heads).sum(axis=1)
    tail_l1 = np.abs(tails).sum(axis=1)
    B = raw
    if comp.size:
        if variant == "plain":
            budget = L * head_l1
        else:
            budget = math.sqrt(ix.cone.s) * L * np.sqrt(hsq)
        over = tail_l1 > budget
        if over.any():
            factor = np.divide(budget, tail_l1, out=np.ones(raw.shape[0]), where=over)
            tails *= factor[:, None]
            tail_l1 *= factor
            B = raw.copy()
            B[:, comp] = tails
    scores = _restricted_ratio_parts(entries, B, heads, tails, ix.k)
    l1 = head_l1 + tail_l1
    rel = (entries.shape[0] + 8) * 2.0 ** -49
    margin = rel * (np.abs(scores) + (scale * l1 * l1 + 1e-300) / np.maximum(hsq, 1e-300)) + 1e-300
    rejected = np.isfinite(scores) & (scores - margin >= thr)
    return np.flatnonzero((head_l1 != 0.0) & ~rejected)


def _refine_ratio(entries: np.ndarray, ix: _ConeIndex, variant: str, beta: np.ndarray,
                  iters: int = 40) -> np.ndarray:
    """Descend the ratio with the enlargement frozen per step, reprojecting
    onto the cone; every accepted iterate stays feasible.

    Each step scores its candidates in one batch and evaluates with the
    one-row path, in order, only those the batch cannot prove rejected
    (_screen_candidates); an accepted point and its value come from the
    one-row path alone, so the iterates are those of trying every step size
    in turn."""
    S, comp = ix.S, ix.comp
    scale = float(np.max(np.abs(entries)))
    halvings = np.full(_LINE_STEPS, 0.5)
    beta = beta.copy()
    f = _restricted_ratio_row(entries, ix, beta)
    for _ in range(iters):
        extra = comp[_top_tail(np.abs(beta[comp])[None, :], ix.k)[0]]
        mask = np.zeros(entries.shape[0])
        mask[S] = 1.0
        mask[extra] = 1.0
        d = float(np.sum((beta * mask) ** 2))
        if d <= 1e-300:
            break
        grad = 2.0 * (entries @ beta - f * beta * mask) / d
        gn = float(np.linalg.norm(grad))
        if gn == 0.0:
            break
        # eta halved step by step, exactly as a running eta /= 2.0
        halvings[0] = 0.2 * float(np.linalg.norm(beta)) / gn
        raw = beta - np.multiply.accumulate(halvings)[:, None] * grad
        thr = f - 1e-15 * max(1.0, abs(f))
        improved = False
        for j in _screen_candidates(entries, ix, variant, raw, thr, scale):
            cand = _project_to_cone(raw[j], ix, variant)
            fc = _restricted_ratio_row(entries, ix, cand)
            if fc < thr:
                beta, f = cand, fc
                improved = True
                break
        if not improved:
            break
    return beta


def restricted_eigenvalue(gram: GramMatrix, cone: ConeSpec, variant: str = "plain",
                          config: SolverConfig = DEFAULT_CONFIG, cap: int = DEFAULT_SUBSET_CAP,
                          sign_cap: int = DEFAULT_SIGN_CAP) -> BoundedValue:
    """phi^2(L, S, N) (or its adaptive-cone version) as an Interval.

    Upper bound: best feasible cone point found (padded eigenvectors of
    Sigma_11(S), random cone samples, local refinement); every evaluation is a
    true objective value, so the minimum is a valid upper bound.  Lower bound:
    the best certified closed-form route (see certified_lower_phi).
    """
    cone.validate_p(gram.p)
    _check_variant(variant)
    entries = gram.entries
    p, s = gram.p, cone.s
    ix = _cone_index(p, cone)

    w, V = np.linalg.eigh(entries[np.ix_(ix.S, ix.S)])
    cands = np.zeros((s, p))
    cands[:, ix.S] = V.T
    ratios = _batch_restricted_ratio(entries, ix, cands)
    best_i = int(np.argmin(ratios))
    best_val = float(ratios[best_i])
    best_beta = cands[best_i]

    rng = derived_rng(config.seed, "re-search", gram.fingerprint(), variant,
                      cone.S, cone.L, cone.N)
    for B, heads, tails in _cone_samples(rng, ix, variant, config.samples):
        ratios = _restricted_ratio_parts(entries, B, heads, tails, ix.k)
        i = int(np.argmin(ratios))
        if float(ratios[i]) < best_val:
            best_val = float(ratios[i])
            best_beta = B[i].copy()
        del B, heads, tails

    refined = _refine_ratio(entries, ix, variant, best_beta)
    best_val = min(best_val, _restricted_ratio_row(entries, ix, refined))

    low = certified_lower_phi(gram, cone, "restricted_eigenvalue", variant, cap, sign_cap)
    lower = min(low.estimate, best_val)
    return BoundedValue.interval(
        best_val, lower, best_val,
        provenance=f"upper: feasible search ({config.samples} samples); lower: {low.provenance}",
    )


def _rr_value_head_only(sig11, sig21, heads, s, variant):
    """Exact inner tail maximization when the enlargement is S itself: the
    numerator is linear in the tail, so the whole budget goes on the
    largest-response coordinate.

    Each head is first scaled by a power of two that brings its largest
    magnitude into [0.5, 1), so that no square overflows.  The scaling is
    exact, and the score has degree 0 in the head, so its bits are those of
    the unscaled head wherever that computation neither overflows nor
    underflows.  The singularity tests have degree 0 in the head and in
    Sigma: denom and budget * w are compared with SINGULAR_RTOL times the
    largest |entry| of Sigma_SS times the squared norm of the head, so a
    head and any power-of-two multiple of it get the same score, and when
    Sigma_SS is nonsingular every head's Rayleigh quotient passes."""
    heads = np.ldexp(heads, -np.frexp(np.max(np.abs(heads), axis=1))[1][:, None])
    denom = np.einsum("ia,ab,ib->i", heads, sig11, heads)
    if sig21.shape[0]:
        w = np.max(np.abs(sig21 @ heads.T), axis=0)
    else:
        w = np.zeros(heads.shape[0])
    # np.linalg.norm(heads, axis=1) squared: its root is the norm, bit for bit
    hsq = (heads * heads).sum(axis=1)
    if variant == "plain":
        budget = np.abs(heads).sum(axis=1)
    else:
        budget = math.sqrt(s) * np.sqrt(hsq)
    tiny = SINGULAR_RTOL * (float(np.max(np.abs(sig11))) if sig11.size else 1.0) * hsq
    return _ratio_or_limit(budget * w, denom, tiny)


def _ratio_or_limit(numer, denom, tiny):
    """numer / denom row by row, where a denominator at most tiny counts as
    zero: the ratio is then inf if the numerator exceeds tiny, else 0."""
    out = np.zeros(numer.shape[0])
    ok = denom > tiny
    out[ok] = numer[ok] / denom[ok]
    out[(~ok) & (numer > tiny)] = np.inf
    return out


def evaluate_regression_ratio(gram: GramMatrix, cone: ConeSpec, beta, variant: str = "plain", *,
                              atol: float = 0.0) -> float:
    """The restricted-regression objective at one cone point:
    |t' Sigma[nset^c, nset] beta_nset| / beta_nset' Sigma_11(nset) beta_nset
    with nset = top_nset(beta, cone) and t the remaining tail."""
    beta = np.asarray(beta, dtype=float)
    if not cone_membership(beta, cone, variant=variant, atol=atol):
        raise InvalidParameter("beta is not in the requested cone")
    return float(_batch_regression_ratio(gram.entries, _cone_index(gram.p, cone), beta[None, :])[0])


def _batch_regression_ratio(entries: np.ndarray, ix: _ConeIndex, B: np.ndarray) -> np.ndarray:
    """evaluate_regression_ratio for each row of B: the head is the row on
    its top enlargement (_top_tail), the tail the rest.  A denominator at
    most SINGULAR_RTOL * max|Sigma_ij| * ||row||^2 counts as zero, so the
    result, like the ratio, has degree 0 in the row."""
    head = B.copy()
    if ix.k < ix.comp.size:
        top = ix.comp[_top_tail(np.abs(B[:, ix.comp]), ix.k)]
        head[:, ix.comp] = 0.0
        np.put_along_axis(head, top, np.take_along_axis(B, top, axis=1), axis=1)
    g = head @ entries
    denom = np.einsum("ij,ij->i", g, head)
    # the tail part, in the head's buffer
    numer = np.abs(np.einsum("ij,ij->i", g, np.subtract(B, head, out=head)))
    tiny = SINGULAR_RTOL * float(np.max(np.abs(entries))) * np.einsum("ij,ij->i", B, B)
    return _ratio_or_limit(numer, denom, tiny)


def _rr_search(gram: GramMatrix, cone: ConeSpec, variant: str, config: SolverConfig):
    """Best feasible value of the regression ratio (a certified lower bound
    for the sup).  When Sigma_SS is nonsingular the heads include the
    inverse-sign witnesses, which make the value at N = s at least the
    uniform leverage constant."""
    entries = gram.entries
    p, s = gram.p, cone.s
    ix = _cone_index(p, cone)
    sig11 = entries[np.ix_(ix.S, ix.S)]
    sig21 = entries[np.ix_(ix.comp, ix.S)]

    # one decomposition of Sigma_SS: the eigenvector heads and the inverse
    w, V = np.linalg.eigh(sig11)
    heads = [V.T]
    rng = derived_rng(config.seed, "rr-search", gram.fingerprint(), variant,
                      cone.S, cone.N)
    if _nonsingular(w):
        inv = (V / w) @ V.T
        signs = [np.where(sig21 @ inv >= 0.0, 1.0, -1.0)]
        if 2 ** s <= 4096:
            signs.append(next(_sign_chunks(s, 2 ** s)))
        else:
            signs.append(np.where(rng.random((4096, s)) < 0.5, 1.0, -1.0))
        for T in signs:
            heads.append(T @ inv.T)
    heads.append(rng.standard_normal((min(max(config.samples, 1), 4096), s)))
    H = np.concatenate(heads, axis=0)
    H = H[np.any(H != 0.0, axis=1)]

    scores = _rr_value_head_only(sig11, sig21, H, s, variant)
    if cone.N == cone.s:
        best = float(np.max(scores)) if scores.size else 0.0
        return best, "head candidates with exact tail completion"

    # N > s, so k >= 1: the best heads seed spike-and-greedy full vectors,
    # plus random cone points evaluated at their own top enlargement
    best = 0.0
    finite = np.where(np.isfinite(scores))[0]
    order = finite[np.argsort(scores[finite])[::-1][:8]]
    k, r = ix.k, ix.comp.size
    for i in order:
        h = H[i]
        full_budget = (cone.L * float(np.abs(h).sum()) if variant == "plain"
                       else math.sqrt(s) * cone.L * float(np.linalg.norm(h)))
        if full_budget <= 0.0:
            continue
        # k spikes on the tail coordinates least correlated with the head;
        # the rest of the budget fills the others greedily
        low_coords = ix.comp[np.argsort(np.abs(sig21 @ h))[:k]]
        rest = np.setdiff1d(ix.comp, low_coords)
        nset = np.union1d(ix.S, low_coords)
        cross = entries[np.ix_(rest, nset)]
        for dna in (r, 2 * k + 1, k + 1, k):
            a = full_budget / dna
            beta = np.zeros(p)
            beta[ix.S] = h
            beta[low_coords] = a
            # k * (budget / k) can round above the budget
            b = full_budget - k * a
            if b < 0.0:
                continue
            g = cross @ beta[nset]
            cap_val = a * (1.0 - 1e-9)
            left = b
            for fi in np.argsort(-np.abs(g)):
                amt = min(cap_val, left)
                if amt <= 0.0:
                    break
                beta[rest[fi]] = math.copysign(amt, g[fi])
                left -= amt
            val = float(_batch_regression_ratio(entries, ix, beta[None, :])[0])
            if val > best:
                best = val
    for B, heads, tails in _cone_samples(rng, ix, variant, config.samples):
        del heads, tails
        top = float(np.max(_batch_regression_ratio(entries, ix, B)))
        del B
        if top > best:
            best = top
    return best, "spike-and-greedy plus random cone search"


def regression_upper(gram: GramMatrix, cone: ConeSpec, variant: str = "plain",
                     cap: int = DEFAULT_SUBSET_CAP, sign_cap: int = DEFAULT_SIGN_CAP) -> BoundedValue:
    """Certified upper bound for the restricted regression constant at L = 1.

    The constant scales linearly in L, so cone.L is not read.  The bound is
    the least of the closed-form routes that apply, each divided by
    Lambda^2(S, N) and so only applicable when that does not vanish
    (constants._lambda2_vanishes):

    * cauchy_schwarz: sqrt(s) sqrt(max_j Sigma_jj) / Lambda(S, N);
    * at N = s: column_norm (sqrt(s) times the largest column 2-norm of
      Sigma_21(S)) and the mutual and cumulative coherence constants;
    * at N = 2s, when the size-2s supersets of S fit min(cap, ROUTE_CAP):
      weak_rip (weak_rip_constant, theta(S, 2s) / Lambda^2(S, 2s)), the
      chunked q = inf, 2 and 1 block-norm maxima and, for the plain variant,
      row_sum.

    Enumerations above min(cap, ROUTE_CAP) are skipped.  With no applicable
    route the bound is inf, noted "no applicable route".  The result is
    memoized per Gram, keyed by S, N, the variant and both caps.
    """
    cone.validate_p(gram.p)
    _check_variant(variant)
    return gram.memoized(("regression_upper", cone.S, cone.N, variant, cap, sign_cap),
                         lambda: _regression_upper(gram, cone, variant, cap, sign_cap))


def _regression_upper(gram: GramMatrix, cone: ConeSpec, variant: str, cap: int,
                      sign_cap: int) -> BoundedValue:
    """regression_upper without the checks and the memo."""
    s = cone.s
    route_cap = min(cap, ROUTE_CAP)
    maxdiag = float(np.max(np.diag(gram.entries)))
    try:
        lam2 = uniform_eigenvalue(gram, cone, route_cap).estimate
    except CapExceeded:
        lam2 = 0.0
    routes = {}
    if not _lambda2_vanishes(gram, lam2):
        routes["cauchy_schwarz"] = math.sqrt(s) * math.sqrt(maxdiag) / math.sqrt(lam2)
        if cone.N == s:
            column = block_norm_2q(gram, SubsetN(cone.S), math.inf, "exact").estimate
            routes["column_norm"] = math.sqrt(s) * column / lam2
            routes["mutual"] = coherence(gram, cone, "mutual").estimate
            routes["cumulative"] = coherence(gram, cone, "cumulative").estimate
        elif cone.N == 2 * s:
            # theta(S, 2s) enumerates far more pairs than the maxima do sets
            try:
                routes["weak_rip"] = weak_rip_constant(gram, cone, route_cap).estimate
            except CapExceeded:
                pass
            maxima = block_norm_maxima(gram, cone, route_cap, sign_cap)
            for name, norm, power in (("chunked_qinf", maxima.col, 1.0),
                                      ("chunked_q2", maxima.spectral, math.sqrt(s)),
                                      ("chunked_q1", maxima.vertex, float(s))):
                routes[name] = math.sqrt(s) * norm / (power * lam2)
            if variant == "plain":
                routes["row_sum"] = maxima.row_sum / (math.sqrt(s) * lam2)
    if not routes:
        return BoundedValue.certified_upper(math.inf, provenance="no applicable route")
    best = min(routes, key=routes.get)
    note = f"route={best}; " + ", ".join(f"{k}={v!r}" for k, v in sorted(routes.items()))
    return BoundedValue.certified_upper(routes[best], provenance=note)


def restricted_regression(gram: GramMatrix, cone: ConeSpec, variant: str = "plain",
                          config: SolverConfig = DEFAULT_CONFIG, cap: int = DEFAULT_SUBSET_CAP,
                          sign_cap: int = DEFAULT_SIGN_CAP) -> BoundedValue:
    """The restricted regression constant as an Interval.

    The constant scales linearly in L (both the budget and the objective
    numerator are linear in the tail), so everything is computed at L = 1 and
    rescaled.  The lower endpoint is the best feasible value the search
    finds, the upper endpoint regression_upper.  At L = 0 or N = p the
    constant is the Exact 0: the tail budget, or the tail outside N, is empty.
    """
    cone.validate_p(gram.p)
    _check_variant(variant)
    if cone.L == 0.0:
        return BoundedValue.exact(0.0, provenance="L=0: empty tail budget")
    if cone.N == gram.p:
        return BoundedValue.exact(0.0, provenance="N=p: no coordinate outside N")
    base = cone.with_(L=1.0)
    upper = regression_upper(gram, base, variant, cap, sign_cap)
    lower, low_note = _rr_search(gram, base, variant, config)
    lower = min(lower, upper.upper)
    bv = BoundedValue.interval(lower, lower, upper.upper,
                               provenance=f"lower: {low_note}; upper: {upper.provenance}")
    return bv.scaled(cone.L)


def lower_phi_routes(gram: GramMatrix, cone: ConeSpec, target: str = "compatibility",
                     variant: str = "plain", cap: int = DEFAULT_SUBSET_CAP,
                     sign_cap: int = DEFAULT_SIGN_CAP) -> dict:
    """Every certified closed-form lower bound for a cone-restricted minimum
    that applies, as {route: value}.

    target "compatibility" bounds the compatibility constant; target
    "restricted_eigenvalue" bounds phi^2(L, S, N) for the given cone (both
    variants, since the adaptive cone contains the plain one).  Routes, in
    this order, which is the order the analyze report lists them in and the
    order certified_lower_phi breaks ties in:

    * lambda_min: the smallest eigenvalue of Sigma; applies only when Sigma is
      nonsingular.
    * uniform_leverage: (1 - L * leverage(S, s))^2 * Lambda^2(S, s), for the
      compatibility target.
    * regression@N': (1 - L * regression_upper(S, N'))^2 * Lambda^2(S, N')
      for N' = s, N, min(2s, p) in that order, repeats dropped,
      variant-matched, and only where Lambda^2(S, N') does not vanish; a
      lower bound for the target at N <= N' by monotonicity, and for
      compatibility at any N'.  At N' = 2s the weak-RIP ratio theta/Lambda^2
      is one of the routes regression_upper minimizes, so regression@2s is
      at least (1 - L * theta/Lambda^2)^2 * Lambda^2.

    Routes whose enumerations exceed min(cap, ROUTE_CAP) are left out, and
    regression_upper enumerates sign vectors up to sign_cap.
    """
    cone.validate_p(gram.p)
    if target not in ("compatibility", "restricted_eigenvalue"):
        raise InvalidParameter(f"unknown target {target!r}")
    _check_variant(variant)
    p, s, L = gram.p, cone.s, cone.L
    route_cap = min(cap, ROUTE_CAP)
    rr_variant = "adaptive" if (target == "restricted_eigenvalue" and variant == "adaptive") else "plain"

    found = {}
    vals = gram.spectrum()
    if _nonsingular(vals):
        found["lambda_min"] = float(vals[0])

    if target == "compatibility":
        try:
            irr = irrepresentable_uniform(gram, cone.with_(N=s), cap).estimate
            if L * irr < 1.0:
                lam2_s = uniform_eigenvalue(gram, cone.with_(N=s)).estimate
                found["uniform_leverage"] = (1.0 - L * irr) ** 2 * max(0.0, lam2_s)
        except SingularBlock:
            pass

    for n_prime in dict.fromkeys((s, cone.N, min(2 * s, p))):
        if target == "restricted_eigenvalue" and n_prime < cone.N:
            continue
        c2 = cone.with_(N=n_prime)
        # inf where Lambda^2(S, N') is over route_cap or vanishes
        ru = regression_upper(gram, c2, rr_variant, cap, sign_cap).upper
        if L * ru < 1.0:
            lam2 = uniform_eigenvalue(gram, c2, route_cap).estimate
            found[f"regression@{n_prime}"] = (1.0 - L * ru) ** 2 * lam2
    return found


def certified_lower_phi(gram: GramMatrix, cone: ConeSpec, target: str = "compatibility",
                        variant: str = "plain", cap: int = DEFAULT_SUBSET_CAP,
                        sign_cap: int = DEFAULT_SIGN_CAP) -> BoundedValue:
    """Best certified closed-form lower bound for a cone-restricted minimum:
    the largest value of lower_phi_routes, its note listing every route.
    When no route applies the result is the trivial lower 0 with certificate
    Estimate, noted "route=none".  The result is memoized per Gram, keyed by
    the target, the variant, S, L, N and both caps; lower_phi_routes checks
    them, and a call it refuses stores nothing.
    """
    return gram.memoized(
        ("certified_lower_phi", target, variant, cone.S, cone.L, cone.N, cap, sign_cap),
        lambda: _best_route(lower_phi_routes(gram, cone, target, variant, cap, sign_cap)))


def _best_route(found: dict) -> BoundedValue:
    """The largest of the routes found by lower_phi_routes, its note listing
    every route; the first of equal routes wins."""
    if not found:
        return BoundedValue(0.0, 0.0, math.inf, Certificate.ESTIMATE, provenance="route=none")
    best = max(found, key=found.get)
    note = f"route={best}; " + ", ".join(f"{k}={v!r}" for k, v in sorted(found.items()))
    return BoundedValue.certified_lower(found[best], provenance=note)
