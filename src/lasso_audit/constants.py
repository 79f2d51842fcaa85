"""Exact design-matrix condition constants.

Every function here returns either a closed-form value or an exhaustive
enumeration over index sets, so results carry Exact certificates (or
CertifiedUpper where a formula is itself an upper bound).  Enumerations are
guarded by explicit caps and fail loudly with CapExceeded.

Minima over enlargements {nset : nset contains S, |nset| <= N} are evaluated
at nset = S and at all |nset| = N; for eigenvalue-type quantities the
intermediate sizes are dominated by eigenvalue interlacing, and for the
leverage minimum this evaluation set is the documented convention.

Every enumeration of index sets runs on one kernel, _index_chunks: stacked
index arrays of the index sets nset (the enlargements of a base, or all sets
of one size), or of the pairs (nset, mset) with mset drawn from the
complement of nset, in lexicographic order.  A chunk gathers at most
_CHUNK_ENTRIES Gram entries (128 kB), so memory does not grow with the
enumeration size.  Its users:

* Lambda^2(S, N), delta_N, theta(S, N) and theta_{s,N} keep the first argmin
  or argmax of one stacked eigvalsh (Sigma[nset, nset]) or singular-value
  call (Sigma[nset, mset]) per chunk (_first_best); delta_N and the theta
  constants also give a certified bound on each row's score (Gershgorin
  discs, Frobenius norms), and an enumeration of several chunks, streamed
  once, scores only the rows whose bound can still reach the running best;
* the leverage constants (irrepresentable_uniform, irrepresentable_signed
  parts 2 and 3) take Sigma_21 Sigma_11^{-1} from one stacked eigh per chunk
  (_leverage_chunks) and visit each nset once for every sign vector;
* block_norm_maxima takes the maxima of the q = inf, 2 and 1 norms and the
  row-sum norm of Sigma[nset, nset^c] in one pass.

Values and witnesses are those of a plain per-subset loop; sign-vector
products are formed one nset at a time, in that loop's shapes.  Values are
memoized on the GramMatrix, keyed by (quantity, S, N) (not the witness
mappings of irrepresentable_signed); every cap is checked before the memo is
consulted and before any block is formed, so a cached value never bypasses a
smaller cap.  Composite constants (rip_constant)
check the costs of all their parts before enumerating any of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_SUBSET_CAP,
    SINGULAR_RTOL,
    BoundedValue,
    ConeSpec,
    GramMatrix,
    SubsetN,
    _complement,
    _jsonable,
    _nonsingular,
    block,
    check_superset_cap,
    superset_count,
)
from .errors import CapExceeded, DenominatorNonPositive, InvalidParameter, SingularBlock

DEFAULT_SIGN_CAP = 2 ** 20

# Gram entries one kernel chunk gathers into its stacked blocks
_CHUNK_ENTRIES = 2 ** 14

# relative margin between a pruning bound and the scores it bounds (_first_best)
_PRUNE_RTOL = 1e-10


def _combinations(pool: np.ndarray, k: int, rows: int):
    """The k-subsets of the ascending index array pool in lexicographic
    order, as stacked (r, k) arrays of at most rows rows."""
    total = math.comb(len(pool), k)
    combos = itertools.combinations(range(len(pool)), k)
    for start in range(0, total, rows):
        r = min(rows, total - start)
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, r)),
                           dtype=np.intp, count=r * k)
        yield pool[flat.reshape(r, k)]


def _complements(nsets: np.ndarray, p: int) -> np.ndarray:
    """Row-wise ascending complements of the stacked index sets."""
    keep = np.ones((len(nsets), p), dtype=bool)
    keep[np.arange(len(nsets))[:, None], nsets] = False
    return np.nonzero(keep)[1].reshape(len(nsets), p - nsets.shape[1])


def _supersets(p: int, base: tuple, n: int, rows: int):
    """The size-n supersets of base, lexicographic in the added indices, as
    stacked ascending (r, n) arrays."""
    if not base:  # the combinations of range(p) are ascending already
        yield from _combinations(np.arange(p, dtype=np.intp), n, rows)
        return
    base = np.asarray(base, dtype=np.intp).reshape(1, -1)
    for extra in _combinations(_complements(base, p)[0], n - base.size, rows):
        stacked = np.broadcast_to(base, (len(extra), base.size))
        yield np.sort(np.concatenate([stacked, extra], axis=1), axis=1)


def _chunk_rows(n: int, m: int) -> int:
    """Rows of a kernel chunk of stacked n x n (m == 0) or n x m blocks."""
    return max(1, _CHUNK_ENTRIES // (n * (m or n)))


def _index_chunks(p: int, base: tuple, n: int, m: int):
    """Stacked index arrays, chunk by chunk, in lexicographic order.

    m == 0: (nsets, None) with nsets the size-n supersets of base.
    m > 0: (nsets, msets), row i the pair of a size-n superset of base and a
    size-m subset of its complement, nset-major.  A chunk holds at most
    _CHUNK_ENTRIES block entries, or the msets of a single nset.
    """
    rows = _chunk_rows(n, m)
    if m == 0:
        for nsets in _supersets(p, base, n, rows):
            yield nsets, None
        return
    per_nset = math.comb(p - n, m)
    for nsets in _supersets(p, base, n, max(1, rows // per_nset)):
        outside = _complements(nsets, p)
        for pos in _combinations(np.arange(p - n), m, rows):
            yield np.repeat(nsets, len(pos), axis=0), outside[:, pos].reshape(-1, m)


def _first_best(gram: GramMatrix, plan, score, maximize: bool, best: float, bound=None):
    """The enumeration kernel: the first extreme score over every index set
    (or pair) of plan, with its witness, starting from best.

    plan is a sequence of (base, n, m) as in _index_chunks; score maps the
    stacked ascending eigenvalues of Sigma[nset, nset] (m == 0) or the
    descending singular values of Sigma[nset, mset] (m > 0) to one value per
    row.  Only a strictly better score replaces best, so ties keep the
    lexicographically first witness, as a per-subset loop would.

    bound, if given, maps the same stacked blocks to a certified bound on the
    score of each row: an upper bound when maximizing, a lower one when
    minimizing.  A plan entry of more than one chunk then streams each chunk
    once and scores only the rows whose bound is no worse than the running
    best by more than margin = _PRUNE_RTOL * max(|best|, lambda_max(Sigma)),
    recomputed per chunk; a chunk with no such row is skipped.

    Rounding cannot let a pruned row be the answer.  Every block is a
    submatrix of Sigma, so its norm and the norms of its rows are at most
    lambda_max(Sigma).  A backward-stable eigvalsh or svd then moves a score
    by a small multiple of n u lambda_max(Sigma) (u = 2^-53, n the block's
    larger side), one eigvalsh of Sigma moves lambda_min(Sigma) by a small
    multiple of p u lambda_max(Sigma), and a bound that sums the k entries of
    a block moves by at most about k^(5/4) u lambda_max(Sigma) (a Frobenius
    norm, the worst case): about 1e-11 lambda_max(Sigma) at k = 2^14, a whole
    chunk, and of order sqrt(k) u in practice.  A score or bound that ends in
    a subtraction from 1 (delta_N's) moves by u times its own size more, and
    a row that could still beat best has a score and a bound of about
    |best| in size.  _PRUNE_RTOL = 1e-10 sits above all of these, so a
    pruned row scores strictly worse than a real score already found, and
    neither the value nor the first witness can change.  The margin scales
    with Sigma, so theta(S, N) and theta_{s,N} on c * Sigma, c a power of
    two, score the same rows as on Sigma.  A plan entry of one chunk keeps
    its single stacked call and computes no bound.
    """
    p = gram.p
    flat = gram.entries.ravel()
    sign = 1.0 if maximize else -1.0
    lam_max = float(gram.spectrum()[-1])
    witness = None
    for base, n, m in plan:
        count = math.comb(p - len(base), n - len(base)) * math.comb(p - n, m)
        prune = bound is not None and count > _chunk_rows(n, m)
        for nsets, msets in _index_chunks(p, base, n, m):
            # Sigma[nset, cols] for each row, gathered through flat indices
            cols = nsets if msets is None else msets
            blocks = np.take(flat, nsets[:, :, None] * p + cols[:, None, :])
            if prune:
                margin = _PRUNE_RTOL * max(abs(best), lam_max)
                keep = np.flatnonzero(sign * bound(blocks) >= sign * best - margin)
                if len(keep) == 0:
                    continue
                nsets, blocks = nsets[keep], blocks[keep]
                msets = None if msets is None else msets[keep]
            values = score(np.linalg.eigvalsh(blocks) if m == 0
                           else np.linalg.svd(blocks, compute_uv=False))
            i = int(np.argmax(values) if maximize else np.argmin(values))
            value = float(values[i])
            if (value > best) if maximize else (value < best):
                best = value
                witness = (tuple(nsets[i].tolist()) if msets is None
                           else (tuple(nsets[i].tolist()), tuple(msets[i].tolist())))
    return best, witness


def uniform_eigenvalue(gram: GramMatrix, cone: ConeSpec, cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """Lambda^2(S, N): the smallest eigenvalue of Sigma_11(nset) minimized over
    enlargements of S up to size N.  By interlacing the minimum over sizes
    <= N is attained at size N, so only nset = S and |nset| = N are visited."""
    cone.validate_p(gram.p)
    plan = [(cone.S, cone.s, 0)]
    if cone.N > cone.s:
        check_superset_cap(cone, gram.p, cap)
        plan.append((cone.S, cone.N, 0))

    def compute():
        best, witness = _first_best(gram, plan, lambda vals: vals[:, 0], False, math.inf)
        return BoundedValue.exact(best, provenance=f"argmin nset={witness}")

    return gram.memoized(("uniform_eigenvalue", cone.S, cone.N), compute)


def _check_isometry(p: int, n_size: int, cap: int) -> None:
    if not (1 <= n_size <= p):
        raise InvalidParameter(f"restricted isometry needs 1 <= N <= p, got N={n_size}")
    count = math.comb(p, n_size)
    if count > cap:
        raise CapExceeded(count, cap, what=f"isometry enumeration C({p},{n_size})")


def _isometry_bound(blocks: np.ndarray, floor: float) -> np.ndarray:
    """Upper bound on max(lambda_max - 1, 1 - lambda_min) of each stacked
    symmetric block whose eigenvalues are all at least floor.

    Gershgorin: every eigenvalue lies within sum_{j != i} |a_ij| of some a_ii,
    so in [min_i 2 a_ii - rowabs_i, max_i rowabs_i] with rowabs_i the sum of
    |a_ij| over the row (the disc ends when a_ii >= 0, wider otherwise).  The
    reductions run along the rows of the (n, r) transpose, which is faster
    than along the short rows of the blocks.
    """
    rowabs = (np.abs(blocks) @ np.ones(blocks.shape[2])).T.copy()
    lowest = np.min(2.0 * np.diagonal(blocks, axis1=1, axis2=2).T - rowabs, axis=0)
    return np.maximum(np.max(rowabs, axis=0) - 1.0, 1.0 - np.maximum(lowest, floor))


def restricted_isometry(gram: GramMatrix, n_size: int, cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """delta_N over all size-N index sets (sizes < N are dominated by interlacing).

    Pruned by _isometry_bound with floor lambda_min(Sigma): by interlacing no
    eigenvalue of a principal block is below it."""
    _check_isometry(gram.p, n_size, cap)

    def compute():
        floor = float(gram.spectrum()[0])
        best, witness = _first_best(
            gram, [((), n_size, 0)],
            lambda vals: np.maximum(vals[:, -1] - 1.0, 1.0 - vals[:, 0]), True, -math.inf,
            lambda blocks: _isometry_bound(blocks, floor))
        return BoundedValue.exact(best, provenance=f"argmax nset={witness}")

    return gram.memoized(("restricted_isometry", None, n_size), compute)


def _ortho_sizes(p: int, s: int, n_size: int):
    """Pair sizes (|nset|, |mset|) that dominate the sup over |nset| <= N,
    |mset| <= s with mset disjoint from nset.  Enlarging nset keeps the
    cross block's singular values nondecreasing, so for each mset size m the
    sup is attained at |nset| = min(N, p - m)."""
    sizes = {}
    for m in range(1, min(s, p - s) + 1):
        n_star = min(n_size, p - m)
        if n_star < s:
            continue
        m_star = min(s, p - n_star)
        sizes[n_star] = max(sizes.get(n_star, 0), m_star)
    return sorted(sizes.items())


def _largest_singular_value(svals: np.ndarray) -> np.ndarray:
    return svals[:, 0]


def _frobenius_norms(blocks: np.ndarray) -> np.ndarray:
    """||A||_F of each stacked block A, an upper bound on its largest
    singular value."""
    return np.sqrt(np.einsum("rij,rij->r", blocks, blocks))


def _ortho_plan(p: int, cone: ConeSpec, cap: int) -> list:
    """The kernel plan of theta(S, N), after checking the cone and the number
    of pairs against cap; raises before any work is done."""
    cone.validate_p(p)
    sizes = _ortho_sizes(p, cone.s, cone.N)
    total = sum(math.comb(p - cone.s, n_star - cone.s) * math.comb(p - n_star, m_star)
                for n_star, m_star in sizes)
    if total > cap:
        raise CapExceeded(total, cap, what="restricted orthogonality enumeration")
    return [(cone.S, n_star, m_star) for n_star, m_star in sizes]


def restricted_orthogonality(gram: GramMatrix, cone: ConeSpec, cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """theta(S, N): the largest singular value of Sigma[nset, mset] over
    enlargements nset of S (|nset| <= N) and disjoint msets with |mset| <= s."""
    plan = _ortho_plan(gram.p, cone, cap)

    def compute():
        best, witness = _first_best(gram, plan, _largest_singular_value, True, 0.0, _frobenius_norms)
        return BoundedValue.exact(best, provenance=f"argmax pair={witness}")

    return gram.memoized(("restricted_orthogonality", cone.S, cone.N), compute)


class BlockNormMaxima(NamedTuple):
    """Maxima over the size-N enlargements nset of S of norms of the cross
    block Sigma_12(nset) = Sigma[nset, nset^c]; all 0 when N = p."""

    col: float  # largest column 2-norm (q = inf)
    spectral: float  # largest singular value (q = 2)
    vertex: float  # the q = 1 norm, exact or its column-norm-sum bound
    row_sum: float  # l2 norm of the row l1 norms


def block_norm_maxima(gram: GramMatrix, cone: ConeSpec, cap: int = DEFAULT_SUBSET_CAP,
                      sign_cap: int = DEFAULT_SIGN_CAP) -> BlockNormMaxima:
    """The block-norm maxima of BlockNormMaxima in one pass of the kernel.

    The q = 1 norm is block_norm_2q's: exact by vertex enumeration when the
    2^(p-N) sign vectors of all the supersets together fit sign_cap,
    otherwise the column-norm sum, an upper bound.  The choice is made once,
    before any work, and is part of the memo key.
    """
    check_superset_cap(cone, gram.p, cap)
    r = gram.p - cone.N
    vertices = superset_count(cone, gram.p) * 2 ** r <= sign_cap

    def compute():
        if r == 0:
            return BlockNormMaxima(0.0, 0.0, 0.0, 0.0)
        best = np.zeros(4)
        signs = next(_sign_chunks(r, 2 ** r)) if vertices else None
        entries = gram.entries
        for nsets, comps in _index_chunks(gram.p, cone.S, cone.N, r):
            cross = entries[nsets[:, :, None], comps[:, None, :]]
            cols = np.linalg.norm(cross, axis=1)
            if vertices:
                vertex = [np.max(np.linalg.norm(c @ signs.T, axis=0)) for c in cross]
            else:
                vertex = np.sum(cols, axis=1)
            # summed down Sigma[nset^c, nset], in the order a per-set loop adds
            row_l1 = np.abs(entries[comps[:, :, None], nsets[:, None, :]]).sum(axis=1)
            spectral = _largest_singular_value(np.linalg.svd(cross, compute_uv=False))
            best = np.maximum(best, [np.max(cols), np.max(spectral), np.max(vertex),
                                     np.max(np.sqrt(np.sum(row_l1 ** 2, axis=1)))])
        return BlockNormMaxima(*best.tolist())

    return gram.memoized(("block_norm_maxima", cone.S, cone.N, vertices), compute)


def theta_uniform_plan(p: int, s_size: int, n_size: int, cap: int = DEFAULT_SUBSET_CAP):
    """The pair sizes theta_{s,N} enumerates, after checking the parameters
    and the number of pairs against cap; raises before any work is done."""
    if not (1 <= s_size <= p):
        raise InvalidParameter("theta_uniform needs 1 <= s <= p")
    plan = _ortho_sizes(p, s_size, min(n_size, p))
    total = sum(math.comb(p, n) * math.comb(p - n, m) for n, m in plan)
    if total > cap:
        raise CapExceeded(total, cap, what="uniform orthogonality enumeration")
    return plan


def theta_uniform(gram: GramMatrix, s_size: int, n_size: int, cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """theta_{s,N} = max over |S| = s of theta(S, N); equivalently the sup of
    the cross-block spectral norm over all disjoint (nset, mset) pairs with
    s <= |nset| <= N and |mset| <= s."""
    plan = theta_uniform_plan(gram.p, s_size, n_size, cap)

    def compute():
        best, _ = _first_best(gram, [((), n, m) for n, m in plan],
                              _largest_singular_value, True, 0.0, _frobenius_norms)
        return BoundedValue.exact(best)

    return gram.memoized(("theta_uniform", s_size, n_size), compute)


def rip_constant(gram: GramMatrix, s_size: int, cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """theta_{s,2s} / (1 - delta_s - theta_{s,s}); the denominator must be positive.

    The costs of delta_s, theta_{s,s} and theta_{s,2s} are all checked, in
    that order, before any of them is enumerated."""
    _check_isometry(gram.p, s_size, cap)
    theta_uniform_plan(gram.p, s_size, s_size, cap)
    theta_uniform_plan(gram.p, s_size, 2 * s_size, cap)
    delta_s = restricted_isometry(gram, s_size, cap).estimate
    t_ss = theta_uniform(gram, s_size, s_size, cap).estimate
    t_s2s = theta_uniform(gram, s_size, 2 * s_size, cap).estimate
    denom = 1.0 - delta_s - t_ss
    if denom <= 0.0:
        raise DenominatorNonPositive(
            f"1 - delta_s - theta_ss = {denom!r} is not positive (delta_s={delta_s!r}, theta_ss={t_ss!r})"
        )
    return BoundedValue.exact(
        t_s2s / denom,
        provenance=f"delta_s={delta_s!r}, theta_ss={t_ss!r}, theta_s2s={t_s2s!r}",
    )


def _lambda2_vanishes(gram: GramMatrix, lam2: float) -> bool:
    """The one rule for a numerically zero Lambda^2(S, N):
    lam2 <= SINGULAR_RTOL * max_j Sigma_jj, so it holds at every scale of Sigma."""
    return lam2 <= SINGULAR_RTOL * float(np.max(np.diag(gram.entries)))


def weak_rip_constant(gram: GramMatrix, cone: ConeSpec, cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """theta(S, N) / Lambda^2(S, N), the only place this ratio is formed
    (regression_upper's weak_rip route calls it).  Raises
    SingularBlock when Lambda^2(S, N) vanishes (_lambda2_vanishes)
    and CapExceeded, before either is enumerated, when either is over cap."""
    if cone.N > cone.s:
        check_superset_cap(cone, gram.p, cap)
    _ortho_plan(gram.p, cone, cap)
    lam2 = uniform_eigenvalue(gram, cone, cap).estimate
    if _lambda2_vanishes(gram, lam2):
        raise SingularBlock(f"Lambda^2(S,N) = {lam2!r} is numerically zero")
    theta = restricted_orthogonality(gram, cone, cap).estimate
    return BoundedValue.exact(theta / lam2, provenance=f"theta={theta!r}, lambda2={lam2!r}")


def _leverage_chunks(gram: GramMatrix, plan):
    """Sigma_21 Sigma_11^{-1} over the index sets of plan, a sequence of
    (base, n) as in _index_chunks, chunk by chunk in kernel order.

    Yields (nsets, lev, skipped): the chunk's nonsingular index sets, their
    stacked leverage matrices (complement rows ascending) and the number of
    singular sets left out.  Singularity and the inverse are those of
    inverse_11, one stacked eigh per chunk.
    """
    entries = gram.entries
    for base, n in plan:
        for nsets, _ in _index_chunks(gram.p, base, n, 0):
            vals, vecs = np.linalg.eigh(entries[nsets[:, :, None], nsets[:, None, :]])
            ok = _nonsingular(vals)
            nsets, vals, vecs = nsets[ok], vals[ok], vecs[ok]
            inv = (vecs / vals[:, None, :]) @ np.swapaxes(vecs, 1, 2)
            comps = _complements(nsets, gram.p)
            lev = entries[comps[:, :, None], nsets[:, None, :]] @ inv
            yield nsets, lev, len(ok) - len(nsets)


def irrepresentable_uniform(gram: GramMatrix, cone: ConeSpec, cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """Uniform leverage constant: min over enlargements of the worst-case
    sup-norm of Sigma_21 Sigma_11^{-1} tau over the unit sup-norm ball, which
    a convexity argument reduces to the largest row l1 norm.  Evaluated at
    nset = S and at every |nset| = N.  Singular Sigma_11 blocks are skipped;
    if every candidate is singular the constant is undefined."""
    cone.validate_p(gram.p)
    sizes = [cone.s]
    if cone.N > cone.s:
        check_superset_cap(cone, gram.p, cap)
        sizes.append(cone.N)

    def compute():
        best, witness, singular, total = math.inf, None, 0, 0
        for nsets, lev, skipped in _leverage_chunks(gram, [(cone.S, n) for n in sizes]):
            singular += skipped
            total += skipped + len(nsets)
            if len(nsets) == 0:
                continue
            worst = np.max(np.sum(np.abs(lev), axis=2), axis=1, initial=0.0)
            i = int(np.argmin(worst))
            if worst[i] < best:
                best, witness = float(worst[i]), tuple(nsets[i].tolist())
        if singular == total:
            raise SingularBlock(f"all {total} candidate Sigma_11 blocks are singular")
        return BoundedValue.exact(best, provenance=f"argmin nset={witness}, singular_skipped={singular}")

    return gram.memoized(("irrepresentable_uniform", cone.S, cone.N), compute)


def _sign_chunks(k: int, chunk: int):
    """{+1,-1}^k in counter order, emitted as (m, k) blocks of at most chunk
    rows; bit i of the counter maps position i to -1 when set.  With
    chunk = 2^k the single block holds every sign vector."""
    total = 2 ** k
    cols = np.arange(k)
    for start in range(0, total, chunk):
        g = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = (g[:, None] >> cols[None, :]) & 1
        yield 1.0 - 2.0 * bits


def irrepresentable_signed(gram: GramMatrix, cone: ConeSpec, part: int,
                           cap: int = DEFAULT_SUBSET_CAP, sign_cap: int = DEFAULT_SIGN_CAP):
    """Sign-vector forms of the leverage condition.

    part=2: exists an enlargement nset (s <= |nset| <= N) with
            ||Sigma_21 Sigma_11^{-1} tau||_inf < 1/L for every sign vector tau
            on nset; returns (holds, witness nset).
    part=3: for every sign vector tau_S on S there exist an enlargement and a
            sign extension with ||Sigma_21 Sigma_11^{-1} tau||_inf <= 1;
            returns (holds, {tau_S: (nset, tau)}) or (False, failing tau_S).

    All enlargement sizes s..N are enumerated (smallest first, lexicographic),
    each once for every tau_S; a tau_S keeps its first nset and, within it,
    its first extension in counter order.
    """
    cone.validate_p(gram.p)
    if part not in (2, 3):
        raise InvalidParameter("part must be 2 or 3")
    p, s = gram.p, cone.s
    if 2 ** cone.N > sign_cap:
        raise CapExceeded(2 ** cone.N, sign_cap, what="sign enumeration")
    subset_total = sum(math.comb(p - s, k - s) for k in range(s, cone.N + 1))
    if subset_total > cap:
        raise CapExceeded(subset_total, cap, what="enlargement enumeration")
    plan = [(cone.S, k) for k in range(s, cone.N + 1)]
    rows = ((nset, m) for nsets, lev, _ in _leverage_chunks(gram, plan) for nset, m in zip(nsets, lev))

    if part == 2:
        limit = math.inf if cone.L == 0 else 1.0 / cone.L
        for nset, m in rows:
            signs = next(_sign_chunks(len(nset), 2 ** len(nset)))
            if np.max(np.abs(m @ signs.T), initial=0.0) < limit:
                return True, SubsetN(tuple(nset.tolist()))
        return False, None

    tau_s_rows = next(_sign_chunks(s, 2 ** s))
    found = {}
    for nset, m in rows:
        in_s = np.isin(nset, cone.S)
        exts = next(_sign_chunks(len(nset) - s, 2 ** (len(nset) - s)))
        # taus[a, b]: tau_S row a on S, extension row b on the rest of nset
        taus = np.empty((len(tau_s_rows), len(exts), len(nset)))
        taus[:, :, in_s] = tau_s_rows[:, None, :]
        taus[:, :, ~in_s] = exts[None, :, :]
        hits = np.max(np.abs(m @ np.swapaxes(taus, 1, 2)), axis=1, initial=0.0) <= 1.0
        for a in np.nonzero(np.any(hits, axis=1))[0].tolist():
            if a not in found:
                found[a] = (SubsetN(tuple(nset.tolist())),
                            tuple(int(v) for v in taus[a, np.argmax(hits[a])]))
        if len(found) == len(tau_s_rows):
            break
    witness = {}
    for a, row in enumerate(tau_s_rows):
        tau_s = tuple(int(v) for v in row)
        if a not in found:
            return False, {"failing_tau_S": tau_s}
        witness[tau_s] = found[a]
    return True, witness


def coherence(gram: GramMatrix, cone: ConeSpec, kind: str) -> BoundedValue:
    """Mutual or cumulative coherence constants relative to Lambda^2(S, s)."""
    cone.validate_p(gram.p)
    s = cone.s
    s_idx = list(cone.S)
    lam2 = uniform_eigenvalue(gram, cone.with_(N=s)).estimate
    if _lambda2_vanishes(gram, lam2):
        raise SingularBlock(f"Lambda^2(S,s) = {lam2!r} is numerically zero")
    outside = _complement(gram.p, cone.S)
    if not outside:
        return BoundedValue.exact(0.0, provenance="empty complement")
    cross = gram.entries[np.ix_(outside, s_idx)]
    if kind == "mutual":
        value = s * float(np.max(np.abs(cross))) / lam2
    elif kind == "cumulative":
        col_abs_sums = np.sum(np.abs(cross), axis=0)
        value = math.sqrt(s) * float(np.sqrt(np.sum(col_abs_sums ** 2))) / lam2
    else:
        raise InvalidParameter(f"unknown coherence kind {kind!r}")
    return BoundedValue.exact(value, provenance=f"lambda2={lam2!r}")


def block_norm_2q(gram: GramMatrix, nset: SubsetN, q, mode: str = "exact",
                  sign_cap: int = DEFAULT_SIGN_CAP) -> BoundedValue:
    """Operator norm of Sigma_12(nset) from the dual-l_r ball into l2,
    1/q + 1/r = 1.

    exact mode: q = inf is the largest column 2-norm, q = 2 the largest
    singular value, q = 1 a sup-norm-ball vertex enumeration (sign cap).
    column_bound mode: the column-norm aggregate (sum_j ||col_j||_2^q)^(1/q),
    an upper bound that is tight at q = inf.
    """
    s12 = block(gram, nset, "12")
    r = s12.shape[1]
    qv = float(q)
    if qv < 1.0:
        raise InvalidParameter("q must satisfy q >= 1")
    if r == 0:
        return BoundedValue.exact(0.0, provenance="empty complement")
    col_norms = np.linalg.norm(s12, axis=0)
    if mode == "column_bound":
        if math.isinf(qv):
            return BoundedValue.exact(float(np.max(col_norms)), provenance="max column 2-norm")
        value = float(np.sum(col_norms ** qv) ** (1.0 / qv))
        return BoundedValue.certified_upper(value, provenance=f"column-norm aggregate q={q}")
    if mode != "exact":
        raise InvalidParameter(f"unknown mode {mode!r}")
    if math.isinf(qv):
        return BoundedValue.exact(float(np.max(col_norms)), provenance="max column 2-norm")
    if qv == 2.0:
        sv = np.linalg.svd(s12, compute_uv=False)
        return BoundedValue.exact(float(sv[0]), provenance="largest singular value")
    if qv == 1.0:
        if 2 ** r > sign_cap:
            raise CapExceeded(2 ** r, sign_cap, what="sup-norm-ball vertex enumeration")
        signs = next(_sign_chunks(r, 2 ** r))
        vals = np.linalg.norm(s12 @ signs.T, axis=0)
        return BoundedValue.exact(float(np.max(vals)), provenance="vertex enumeration")
    raise InvalidParameter("exact mode supports q in {1, 2, inf} only")


def restricted_diagonal_holds(gram: GramMatrix, s_set, varphi: float) -> bool:
    """Whether Sigma - varphi * diag(indicator of s_set) is positive semidefinite.

    Direct eigenvalue test; a negative tolerance of 1e-12 max|Sigma_ij|
    absorbs roundoff.
    """
    members = tuple(sorted(int(j) for j in s_set))
    shifted = gram.entries.copy()
    for j in members:
        shifted[j, j] -= varphi
    scale = float(np.max(np.abs(gram.entries)))
    return float(np.linalg.eigvalsh(shifted)[0]) >= -1e-12 * scale


def alpha_constant(gram: GramMatrix, cone: ConeSpec, phi2_s2s_lower: float,
                   cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """Selection-error constant
    (sqrt(2) theta(S,s) + sqrt((1+delta_s) theta(S,s))) / (phi(S,2s) Lambda(S,s)),
    evaluated with a certified lower bound for phi^2(S,2s), hence an upper bound.
    Raises DenominatorNonPositive when that lower bound is not positive,
    CapExceeded when theta(S, s) or delta_s is over cap, and SingularBlock
    when Lambda^2(S, s) vanishes (_lambda2_vanishes), each before either
    enumeration."""
    cone.validate_p(gram.p)
    if not (phi2_s2s_lower > 0.0):
        raise DenominatorNonPositive(f"phi^2(S,2s) lower bound {phi2_s2s_lower!r} must be positive")
    _ortho_plan(gram.p, cone.with_(N=cone.s), cap)
    _check_isometry(gram.p, cone.s, cap)
    lam2 = uniform_eigenvalue(gram, cone.with_(N=cone.s)).estimate
    if _lambda2_vanishes(gram, lam2):
        raise SingularBlock(f"Lambda^2(S,s) = {lam2!r} is numerically zero")
    theta_s = restricted_orthogonality(gram, cone.with_(N=cone.s), cap).estimate
    delta_s = restricted_isometry(gram, cone.s, cap).estimate
    value = (math.sqrt(2.0) * theta_s + math.sqrt((1.0 + delta_s) * theta_s)) / (
        math.sqrt(phi2_s2s_lower) * math.sqrt(lam2)
    )
    return BoundedValue.certified_upper(
        value,
        provenance=f"theta_s={theta_s!r}, delta_s={delta_s!r}, lambda2={lam2!r}, phi2_lower={phi2_s2s_lower!r}",
    )


@dataclass
class ConditionReport:
    """Named condition constants for one (gram, cone) pair.

    entries maps the stable key names to BoundedValues; boolean conditions are
    encoded as 1.0 / 0.0 with their witnesses kept separately.  Keys whose
    computation failed appear in errors instead of entries.
    """

    context: dict
    entries: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return _jsonable({"context": self.context, "entries": dict(sorted(self.entries.items())),
                          "witnesses": dict(sorted(self.witnesses.items())),
                          "errors": dict(sorted(self.errors.items()))})
