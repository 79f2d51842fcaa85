"""Exact design-matrix condition constants.

Every function here returns either a closed-form value or an exhaustive
enumeration over index sets, so results carry Exact certificates (or
CertifiedUpper where a formula is itself an upper bound).  Enumerations are
guarded by explicit caps and fail loudly with CapExceeded.

Minima over enlargements {nset : nset contains S, |nset| <= N} are evaluated
at nset = S and at all |nset| = N; for eigenvalue-type quantities the
intermediate sizes are dominated by eigenvalue interlacing, and for the
leverage minimum this evaluation set is the documented convention.

Lambda^2(S, N), delta_N, theta(S, N), theta_{s,N} and the largest spectral
norm of Sigma[nset, nset^c] share one enumeration kernel (_first_best).  It
builds stacked index arrays of the index sets nset, or of the pairs
(nset, mset) with mset drawn from the complement of nset, in lexicographic
order; it evaluates each chunk with one stacked eigvalsh (the
Sigma[nset, nset] blocks) or one stacked singular-value call (the
Sigma[nset, mset] blocks) and keeps the first argmin or argmax, so values
and witnesses are those of a plain per-subset loop.  A chunk gathers at most
_CHUNK_ENTRIES Gram entries (128 kB), so memory does not grow with the
enumeration size.  Results are memoized on the GramMatrix, keyed by
(quantity, S, N); caps are checked before the memo is consulted, so a cached
value never bypasses a smaller cap.  Composite constants (rip_constant)
check the costs of all their parts before enumerating any of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_SUBSET_CAP,
    SINGULAR_RTOL,
    BoundedValue,
    ConeSpec,
    GramMatrix,
    SubsetN,
    _complement,
    block,
    check_superset_cap,
    enumerate_supersets,
    inverse_11,
    min_eigen_11,
)
from .errors import (
    AllSubmatricesSingular,
    CapExceeded,
    DenominatorNonPositive,
    InvalidParameter,
    SingularBlock,
    SingularUniformEigenvalue,
)

DEFAULT_SIGN_CAP = 2 ** 20

# Gram entries one kernel chunk gathers into its stacked blocks
_CHUNK_ENTRIES = 2 ** 14


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
    """The size-n supersets of base, lexicographic in the added indices (the
    order of enumerate_supersets), as stacked ascending (r, n) arrays."""
    base = np.asarray(base, dtype=np.intp).reshape(1, -1)
    for extra in _combinations(_complements(base, p)[0], n - base.size, rows):
        stacked = np.broadcast_to(base, (len(extra), base.size))
        yield np.sort(np.concatenate([stacked, extra], axis=1), axis=1)


def _index_chunks(p: int, base: tuple, n: int, m: int):
    """Stacked index arrays, chunk by chunk, in lexicographic order.

    m == 0: (nsets, None) with nsets the size-n supersets of base.
    m > 0: (nsets, msets), row i the pair of a size-n superset of base and a
    size-m subset of its complement, nset-major.  A chunk holds at most
    _CHUNK_ENTRIES block entries, or the msets of a single nset.
    """
    if m == 0:
        for nsets in _supersets(p, base, n, max(1, _CHUNK_ENTRIES // (n * n))):
            yield nsets, None
        return
    rows = max(1, _CHUNK_ENTRIES // (n * m))
    per_nset = math.comb(p - n, m)
    for nsets in _supersets(p, base, n, max(1, rows // per_nset)):
        outside = _complements(nsets, p)
        for pos in _combinations(np.arange(p - n), m, rows):
            yield np.repeat(nsets, len(pos), axis=0), outside[:, pos].reshape(-1, m)


def _first_best(gram: GramMatrix, plan, score, maximize: bool, best: float):
    """The enumeration kernel: the first extreme score over every index set
    (or pair) of plan, with its witness, starting from best.

    plan is a sequence of (base, n, m) as in _index_chunks; score maps the
    stacked ascending eigenvalues of Sigma[nset, nset] (m == 0) or the
    descending singular values of Sigma[nset, mset] (m > 0) to one value per
    row.  Only a strictly better score replaces best, so ties keep the
    lexicographically first witness, as a per-subset loop would.
    """
    entries = gram.entries
    witness = None
    for base, n, m in plan:
        for nsets, msets in _index_chunks(gram.p, base, n, m):
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


def restricted_isometry(gram: GramMatrix, n_size: int, cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """delta_N over all size-N index sets (sizes < N are dominated by interlacing)."""
    _check_isometry(gram.p, n_size, cap)

    def compute():
        best, witness = _first_best(
            gram, [((), n_size, 0)],
            lambda vals: np.maximum(vals[:, -1] - 1.0, 1.0 - vals[:, 0]), True, -math.inf)
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


def restricted_orthogonality(gram: GramMatrix, cone: ConeSpec, cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """theta(S, N): the largest singular value of Sigma[nset, mset] over
    enlargements nset of S (|nset| <= N) and disjoint msets with |mset| <= s."""
    cone.validate_p(gram.p)
    p, s = gram.p, cone.s
    plan = _ortho_sizes(p, s, cone.N)
    total = sum(math.comb(p - s, n_star - s) * math.comb(p - n_star, m_star)
                for n_star, m_star in plan)
    if total > cap:
        raise CapExceeded(total, cap, what="restricted orthogonality enumeration")

    def compute():
        best, witness = _first_best(gram, [(cone.S, n, m) for n, m in plan],
                                    _largest_singular_value, True, 0.0)
        return BoundedValue.exact(best, provenance=f"argmax pair={witness}")

    return gram.memoized(("restricted_orthogonality", cone.S, cone.N), compute)


def max_complement_norm(gram: GramMatrix, cone: ConeSpec, cap: int = DEFAULT_SUBSET_CAP) -> float:
    """The largest spectral norm of Sigma[nset, nset^c] over the size-N
    enlargements nset of S (0 when N = p)."""
    check_superset_cap(cone, gram.p, cap)
    if cone.N == gram.p:
        return 0.0
    best, _ = _first_best(gram, [(cone.S, cone.N, gram.p - cone.N)],
                          _largest_singular_value, True, 0.0)
    return best


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
                              _largest_singular_value, True, 0.0)
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


def weak_rip_constant(gram: GramMatrix, cone: ConeSpec, cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """theta(S, N) / Lambda^2(S, N)."""
    lam2 = uniform_eigenvalue(gram, cone, cap).estimate
    scale = float(gram.spectrum()[-1])
    if lam2 <= SINGULAR_RTOL * max(scale, 1.0):
        raise SingularUniformEigenvalue(f"Lambda^2(S,N) = {lam2!r} is numerically zero")
    theta = restricted_orthogonality(gram, cone, cap).estimate
    return BoundedValue.exact(theta / lam2, provenance=f"theta={theta!r}, lambda2={lam2!r}")


def _candidate_nsets(gram: GramMatrix, cone: ConeSpec, cap: int):
    """nset = S followed by all size-N supersets, lexicographically."""
    yield SubsetN(cone.S)
    if cone.N > cone.s:
        yield from enumerate_supersets(cone, gram.p, cap)


def _max_row_l1(gram: GramMatrix, nset: SubsetN) -> float:
    """max over tau in the sup-norm ball of ||Sigma_21 Sigma_11^{-1} tau||_inf,
    which a convexity argument reduces to the largest row l1 norm."""
    inv = inverse_11(gram, nset)
    s21 = block(gram, nset, "21")
    if s21.shape[0] == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(s21 @ inv), axis=1)))


def irrepresentable_uniform(gram: GramMatrix, cone: ConeSpec, cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """Uniform leverage constant: min over enlargements of the worst-case
    sup-norm of Sigma_21 Sigma_11^{-1} tau over the unit sup-norm ball.
    Singular Sigma_11 blocks are skipped; if every candidate is singular the
    constant is undefined."""
    cone.validate_p(gram.p)
    best = math.inf
    witness = None
    singular = 0
    total = 0
    for nset in _candidate_nsets(gram, cone, cap):
        total += 1
        try:
            val = _max_row_l1(gram, nset)
        except SingularBlock:
            singular += 1
            continue
        if val < best:
            best = val
            witness = nset.members
    if singular == total:
        raise AllSubmatricesSingular(f"all {total} candidate Sigma_11 blocks are singular")
    return BoundedValue.exact(best, provenance=f"argmin nset={witness}, singular_skipped={singular}")


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

    All enlargement sizes s..N are enumerated (smallest first, lexicographic).
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
    others = _complement(p, cone.S)

    def nsets_by_size():
        for k in range(s, cone.N + 1):
            for extra in itertools.combinations(others, k - s):
                yield SubsetN(tuple(sorted(cone.S + extra)))

    if part == 2:
        limit = math.inf if cone.L == 0 else 1.0 / cone.L
        for nset in nsets_by_size():
            try:
                inv = inverse_11(gram, nset)
            except SingularBlock:
                continue
            s21 = block(gram, nset, "21")
            m = s21 @ inv
            signs = next(_sign_chunks(len(nset), 2 ** len(nset)))
            worst = float(np.max(np.abs(m @ signs.T))) if m.shape[0] else 0.0
            if worst < limit:
                return True, nset
        return False, None

    witness = {}
    tau_s_rows = next(_sign_chunks(s, 2 ** s))
    for row in tau_s_rows:
        tau_s = tuple(int(v) for v in row)
        found = None
        for nset in nsets_by_size():
            try:
                inv = inverse_11(gram, nset)
            except SingularBlock:
                continue
            s21 = block(gram, nset, "21")
            m = s21 @ inv
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


def coherence(gram: GramMatrix, cone: ConeSpec, kind: str) -> BoundedValue:
    """Mutual or cumulative coherence constants relative to Lambda^2(S, s)."""
    cone.validate_p(gram.p)
    s = cone.s
    s_idx = list(cone.S)
    lam2 = min_eigen_11(gram, SubsetN(cone.S))
    scale = float(np.max(np.diag(gram.entries)))
    if lam2 <= SINGULAR_RTOL * max(scale, 1.0):
        raise SingularUniformEigenvalue(f"Lambda^2(S,s) = {lam2!r} is numerically zero")
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

    Direct eigenvalue test; a tiny negative tolerance absorbs roundoff.
    """
    members = tuple(sorted(int(j) for j in s_set))
    shifted = gram.entries.copy()
    for j in members:
        shifted[j, j] -= varphi
    scale = max(float(np.max(np.abs(gram.entries))), 1.0)
    return float(np.linalg.eigvalsh(shifted)[0]) >= -1e-12 * scale


def alpha_constant(gram: GramMatrix, cone: ConeSpec, phi2_s2s_lower: float,
                   cap: int = DEFAULT_SUBSET_CAP) -> BoundedValue:
    """Selection-error constant
    (sqrt(2) theta(S,s) + sqrt((1+delta_s) theta(S,s))) / (phi(S,2s) Lambda(S,s)),
    evaluated with a certified lower bound for phi^2(S,2s), hence an upper bound."""
    cone.validate_p(gram.p)
    if not (phi2_s2s_lower > 0.0):
        raise DenominatorNonPositive(f"phi^2(S,2s) lower bound {phi2_s2s_lower!r} must be positive")
    theta_s = restricted_orthogonality(gram, cone.with_(N=cone.s), cap).estimate
    delta_s = restricted_isometry(gram, cone.s, cap).estimate
    lam2 = min_eigen_11(gram, SubsetN(cone.S))
    if lam2 <= 0.0:
        raise DenominatorNonPositive(f"Lambda^2(S,s) = {lam2!r} must be positive")
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
        return {
            "context": self.context,
            "entries": {k: v.to_json_dict() for k, v in sorted(self.entries.items())},
            "witnesses": {k: _jsonable(v) for k, v in sorted(self.witnesses.items())},
            "errors": dict(sorted(self.errors.items())),
        }


def _jsonable(obj):
    if isinstance(obj, SubsetN):
        return list(obj.members)
    if isinstance(obj, (tuple, list)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj
