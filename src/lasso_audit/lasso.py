"""l1-penalized least squares on a Gram matrix, with and without noise.

The noiseless problem is min ||f_beta - f0||^2 + lam * ||beta||_1 where
||f_beta||^2 = beta' Sigma beta and f0 = f_{beta0}.  Everything downstream
of the solver is a verdict: KKT stationarity, the anti-projection identity,
variable-selection claims, basis-pursuit recovery, and the sparsity oracle
inequalities with their l1/l2 companions.  Verdict objects carry both sides
of each inequality so reports can show margins, not just booleans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import irrepresentable_signed, irrepresentable_uniform, uniform_eigenvalue
from .core import (
    SINGULAR_RTOL,
    BoundedValue,
    ConeSpec,
    GramMatrix,
    SubsetN,
    _complement,
    _jsonable,
    block,
    d_infinity,
    inverse_11,
)
from .errors import AuditError, CapExceeded, InvalidParameter, SingularBlock
from .estimators import certified_lower_phi
from .solvers import (
    DEFAULT_CONFIG,
    LPProblem,
    SolverConfig,
    _gamma,
    _stationarity_residual,
    coordinate_descent_lasso,
    simplex_lp,
)

# slack applied when turning an inequality into a boolean verdict
_VERDICT_RTOL = 1e-9


@dataclass(frozen=True)
class LassoSolution:
    """A solved instance: minimizer, KKT subgradient, and its provenance."""

    beta_star: np.ndarray
    tau_star: np.ndarray
    active_set: tuple
    objective: float
    kkt_residual: float
    lam: float
    beta0: np.ndarray

    def to_json_dict(self) -> dict:
        out = _jsonable(self)
        del out["beta0"]
        return out


@dataclass(frozen=True)
class OracleVerdict:
    """Both sides of the sparsity oracle inequality plus its l1/l2 companions.

    lhs = ||f* - f0||^2 + effective_tail_weight * ||beta*_{S^c}||_1 and
    rhs = the certified bound; empirical_phi0 is the largest phi0 with
    lhs <= lam^2 s / phi0^2, so empirical_phi0^2 * lhs == lam^2 s when
    lhs > 0.  l2 fields are None when no certified phi^2(S,2s) lower bound
    was supplied.  For noisy problems premise_ok records lam > lambda0; when
    it is False the bounds are not evaluated and holds is None.
    """

    lhs: Optional[float]
    rhs: Optional[float]
    holds: Optional[bool]
    empirical_phi0: Optional[float]
    l1_error: Optional[float] = None
    l1_bound: Optional[float] = None
    l1_holds: Optional[bool] = None
    l2_error: Optional[float] = None
    l2_bound: Optional[float] = None
    l2_holds: Optional[bool] = None
    premise_ok: bool = True
    lambda0: Optional[float] = None
    big_l: Optional[float] = None

    def to_json_dict(self) -> dict:
        return _jsonable(self)


@dataclass(frozen=True)
class NoisyProblem:
    """Design, responses, and (optionally) the truth and the realized noise.

    lambda0 = 2 max_j |(psi_j, epsilon)_n| is derived from epsilon, never passed
    in; without the noise it stays None and lambda0_of_data raises.
    """

    X: np.ndarray
    Y: np.ndarray
    beta0: Optional[np.ndarray] = None
    epsilon: Optional[np.ndarray] = None
    lambda0: Optional[float] = field(default=None, init=False)

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        y = np.asarray(self.Y, dtype=float).ravel()
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise InvalidParameter("X must be n x p with Y of length n")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)
        if self.beta0 is not None:
            b0 = np.asarray(self.beta0, dtype=float).ravel()
            if b0.shape[0] != x.shape[1]:
                raise InvalidParameter("beta0 must have length p")
            object.__setattr__(self, "beta0", b0)
        if self.epsilon is not None:
            eps = np.asarray(self.epsilon, dtype=float).ravel()
            if eps.shape[0] != x.shape[0]:
                raise InvalidParameter("epsilon must have length n")
            object.__setattr__(self, "epsilon", eps)
        for name in ("X", "Y", "beta0", "epsilon"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise InvalidParameter(f"{name} must be finite")
        if self.epsilon is not None:
            lam0 = 2.0 * float(np.max(np.abs(x.T @ eps))) / x.shape[0] if x.size else 0.0
            object.__setattr__(self, "lambda0", lam0)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def empirical_gram(self) -> GramMatrix:
        sig = self.X.T @ self.X / self.n
        return GramMatrix((sig + sig.T) / 2.0)

    def correlation(self) -> np.ndarray:
        return self.X.T @ self.Y / self.n


@dataclass(frozen=True)
class SelectionReport:
    """Verdicts for the three selection claims on one solved instance.

    Conclusions are reported alongside their premises; a *_holds field is
    True when the implication is respected (vacuously so if the premise
    fails) and None when the premise could not be evaluated.  The sign
    consistency threshold has two published forms that disagree; both are
    reported, the check uses proof_threshold, and metadata records the
    discrepancy.
    """

    s_star: tuple
    false_positives: int
    s_subset_s_star: bool
    s_star_equals_s: bool
    part1_premise: Optional[bool]
    part1_irr_value: Optional[float]
    part1_conclusion: bool
    part1_holds: Optional[bool]
    part2_premise_irr: Optional[bool]
    part2_premise_beta: Optional[bool]
    part2_threshold: Optional[float]
    part2_conclusion: bool
    part2_holds: Optional[bool]
    part3_applicable: bool
    part3_lhs: Optional[float]
    part3_holds: Optional[bool]
    sign_proof_threshold: Optional[float]
    sign_statement_threshold: Optional[float]
    sign_premise: Optional[bool]
    sign_consistent: Optional[bool]
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return _jsonable(self)


def kkt_residual(gram: GramMatrix, beta0_or_correlation, lam: float, beta,
                 is_correlation: bool = False):
    """Stationarity residual and the implied subgradient for a candidate beta.

    residual = max_j |2[Sigma(beta - beta0)]_j + lam * sign(beta_j)| over the
    active coordinates, and max_j max(0, |2[Sigma(beta - beta0)]_j| - lam)
    over the inactive ones.  tau is -2 Sigma(beta - beta0) / lam clipped to
    [-1, 1], with active entries forced to sign(beta_j) exactly.
    """
    beta = np.asarray(beta, dtype=float).ravel()
    given = np.asarray(beta0_or_correlation, dtype=float).ravel()
    corr = given if is_correlation else gram.entries @ given
    grad = 2.0 * (gram.entries @ beta - corr)
    residual = _stationarity_residual(grad, lam, beta)
    if lam == 0.0:
        return residual, np.zeros_like(beta)
    tau = np.clip(-grad / lam, -1.0, 1.0)
    active = beta != 0.0
    tau[active] = np.sign(beta[active])
    return residual, tau


def solve_noiseless(gram: GramMatrix, beta0, lam: float,
                    config: SolverConfig = DEFAULT_CONFIG) -> LassoSolution:
    """Minimize ||f_beta - f0||^2 + lam ||beta||_1 by coordinate descent."""
    if lam <= 0.0:
        raise InvalidParameter("penalty level must be positive")
    beta0 = np.asarray(beta0, dtype=float).ravel()
    if beta0.shape[0] != gram.p:
        raise InvalidParameter("beta0 must have length p")
    corr = gram.entries @ beta0
    beta, _, _ = coordinate_descent_lasso(gram.entries, corr, lam, config)
    residual, tau = kkt_residual(gram, corr, lam, beta, is_correlation=True)
    diff = beta - beta0
    objective = float(diff @ gram.entries @ diff + lam * np.abs(beta).sum())
    active = tuple(int(j) for j in np.nonzero(beta)[0])
    return LassoSolution(beta_star=beta, tau_star=tau, active_set=active,
                         objective=objective, kkt_residual=residual,
                         lam=lam, beta0=beta0)


def antiprojection_identity_check(gram: GramMatrix, solution: LassoSolution, nset: SubsetN):
    """Both sides of the anti-projection identity for the tail outside nset.

    lhs = 2 (b' Sigma_22 b - b' Sigma_21 Sigma_11^{-1} Sigma_12 b) with
    b = beta*_{nset^c}; rhs = lam * b' Sigma_21 Sigma_11^{-1} tau*_{nset}
    - lam * ||b||_1.  Exact (up to KKT residual leakage) whenever the truth
    support lies inside nset and Sigma_11(nset) is invertible.  Returns
    (lhs, rhs, gap).
    """
    comp = _complement(gram.p, nset.members)
    inv = inverse_11(gram, nset)
    head_idx = list(nset.members)
    tau_head = solution.tau_star[head_idx]
    b = solution.beta_star[comp]
    if not comp:
        return 0.0, 0.0, 0.0
    s22 = block(gram, nset, "22")
    s21 = block(gram, nset, "21")
    lhs = 2.0 * float(b @ s22 @ b - b @ s21 @ inv @ (s21.T @ b))
    rhs = float(solution.lam * (b @ s21 @ inv @ tau_head)
                - solution.lam * np.abs(b).sum())
    return lhs, rhs, abs(lhs - rhs)


def _leq(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + _VERDICT_RTOL * max(1.0, abs(rhs))


def selection_report(gram_or_noisy, solution: LassoSolution, cone: ConeSpec, beta0) -> SelectionReport:
    """Check the three variable-selection claims against one solved instance.

    Part 1: the uniform leverage condition (value < 1/L) forces
    |S* \\ S| <= N - s.  Part 2: the sign-enumerated condition plus
    |beta0|_min > lam * s / phi^2_compat forces S inside S* with |S*| <= N.
    Part 3 (converse): S inside S* and |S*| <= N force the selected-set
    leverage of tau*_{S*} to be at most one; with |beta0|_min above the
    sign threshold the signs on S must agree with the truth.
    """
    gram = gram_or_noisy.empirical_gram() if isinstance(gram_or_noisy, NoisyProblem) else gram_or_noisy
    cone.validate_p(gram.p)
    beta0 = np.asarray(beta0, dtype=float).ravel()
    lam = solution.lam
    s, n_size, big_l = cone.s, cone.N, cone.L
    s_set = set(cone.S)
    s_star = solution.active_set
    star_set = set(s_star)
    false_pos = len(star_set - s_set)
    s_subset = s_set <= star_set
    equal = star_set == s_set
    beta_min = float(np.min(np.abs(beta0[list(cone.S)]))) if cone.S else 0.0
    metadata = {
        "sign_threshold_note": (
            "two published forms disagree: the statement reads "
            "lam*sqrt(s)/(2*Lambda(S,N)), the derivation yields "
            "lam*sqrt(N)/(2*Lambda^2(S,N)); the check uses the derivation's form"
        ),
    }

    # Part 1: uniform leverage over enlargements
    part1_premise = None
    part1_value = None
    try:
        irr = irrepresentable_uniform(gram, cone)
        part1_value = float(irr.estimate)
        limit = math.inf if big_l == 0 else 1.0 / big_l
        part1_premise = part1_value < limit
    except (SingularBlock, CapExceeded):
        pass
    part1_conclusion = false_pos <= n_size - s
    part1_holds = None if part1_premise is None else ((not part1_premise) or part1_conclusion)

    # Part 2: sign-enumerated condition plus coefficient-size premise
    part2_irr = None
    try:
        ok, _ = irrepresentable_signed(gram, cone, part=2)
        part2_irr = bool(ok)
    except CapExceeded:
        pass
    phi_low = certified_lower_phi(gram, cone, target="compatibility")
    part2_threshold = (lam * s / phi_low.estimate) if phi_low.estimate > 0 else math.inf
    part2_beta = beta_min > part2_threshold
    part2_conclusion = s_subset and len(star_set) <= n_size
    if part2_irr is None:
        part2_holds = None
    else:
        part2_holds = (not (part2_irr and part2_beta)) or part2_conclusion

    # Part 3 converse: leverage of the selected set
    part3_applicable = s_subset and len(star_set) <= n_size and len(star_set) > 0
    part3_lhs = None
    part3_holds = None
    sign_premise = None
    sign_consistent = None
    proof_threshold = None
    statement_threshold = None
    try:
        lam2 = uniform_eigenvalue(gram, cone)
        if lam2.estimate > 0:
            proof_threshold = lam * math.sqrt(n_size) / (2.0 * lam2.estimate)
            statement_threshold = lam * math.sqrt(s) / (2.0 * math.sqrt(lam2.estimate))
    except CapExceeded:
        pass
    if part3_applicable:
        star = SubsetN(tuple(sorted(star_set)))
        inv = inverse_11(gram, star)
        s21 = block(gram, star, "21")
        tau_star = solution.tau_star[list(star.members)]
        vec = s21 @ (inv @ tau_star)
        part3_lhs = float(np.max(np.abs(vec))) if vec.size else 0.0
        part3_holds = _leq(part3_lhs, 1.0)
        if proof_threshold is not None:
            sign_premise = beta_min > proof_threshold
            agree = np.sign(solution.beta_star[list(cone.S)]) == np.sign(beta0[list(cone.S)])
            sign_consistent = bool(np.all(agree)) if sign_premise else None

    return SelectionReport(
        s_star=s_star, false_positives=false_pos, s_subset_s_star=s_subset,
        s_star_equals_s=equal,
        part1_premise=part1_premise, part1_irr_value=part1_value,
        part1_conclusion=part1_conclusion, part1_holds=part1_holds,
        part2_premise_irr=part2_irr, part2_premise_beta=part2_beta if part2_irr is not None else None,
        part2_threshold=part2_threshold, part2_conclusion=part2_conclusion,
        part2_holds=part2_holds,
        part3_applicable=part3_applicable, part3_lhs=part3_lhs, part3_holds=part3_holds,
        sign_proof_threshold=proof_threshold, sign_statement_threshold=statement_threshold,
        sign_premise=sign_premise, sign_consistent=sign_consistent,
        metadata=metadata,
    )


def oracle_verdict(gram: GramMatrix, solution: LassoSolution, cone: ConeSpec, lam: float,
                   phi_lower: BoundedValue, phi_2s_lower: Optional[BoundedValue] = None) -> OracleVerdict:
    """Evaluate the sparsity oracle inequality and its l1/l2 companions.

    phi_lower must be a certified lower bound for the compatibility constant
    phi^2_compat(1, S); phi_2s_lower, when given, a certified lower bound for
    phi^2(1, S, 2s) and enables the l2 check.
    """
    cone.validate_p(gram.p)
    beta0 = solution.beta0
    s = cone.s
    diff = solution.beta_star - beta0
    pred = float(diff @ gram.entries @ diff)
    comp = _complement(gram.p, cone.S)
    tail_l1 = float(np.abs(solution.beta_star[comp]).sum()) if comp else 0.0
    lhs = pred + lam * tail_l1
    phi2 = max(float(phi_lower.estimate), 0.0)
    rhs = lam * lam * s / phi2 if phi2 > 0 else math.inf
    holds = _leq(lhs, rhs)
    phi0 = lam * math.sqrt(s) / math.sqrt(lhs) if lhs > 0 else math.inf
    l1_error = float(np.abs(diff).sum())
    l1_bound = 2.0 * lam * s / phi2 if phi2 > 0 else math.inf
    l1_holds = _leq(l1_error, l1_bound)
    l2_error = float(diff @ diff)
    l2_bound = None
    l2_holds = None
    if phi_2s_lower is not None and float(phi_2s_lower.estimate) > 0:
        phi2_2s = float(phi_2s_lower.estimate)
        square = phi2_2s * phi2_2s  # 0 when phi^2(S, 2s) underflows on squaring
        l2_bound = 2.0 * lam * lam * s / square if square > 0 else math.inf
        l2_holds = _leq(l2_error, l2_bound)
    return OracleVerdict(lhs=lhs, rhs=rhs, holds=holds, empirical_phi0=phi0,
                         l1_error=l1_error, l1_bound=l1_bound, l1_holds=l1_holds,
                         l2_error=l2_error, l2_bound=l2_bound, l2_holds=l2_holds)


def _dual_certificate_bound(gram: GramMatrix, beta0: np.ndarray) -> float:
    """A certified upper bound on max_{j not in S} |w_j|, where S = supp(beta0),
    tau = sign(beta0_S) and w = Sigma_{.S} Sigma_SS^{-1} tau (Fuchs, IEEE TIT
    2004); 0.0 when beta0 = 0, inf when Sigma_SS is singular.

    w = Sigma z with z = Sigma_SS^{-1} tau on S and 0 elsewhere, and w_S =
    tau.  For h in the kernel of Sigma, <w, h> = z' Sigma h = 0, so
    ||beta0 + h||_1 >= ||beta0||_1 + (1 - max_{j not in S} |w_j|) ||h_{S^c}||_1,
    and h_{S^c} = 0 forces h_S = 0 when Sigma_SS is nonsingular.  A bound
    below one therefore proves beta0 the unique minimizer of ||beta||_1
    subject to Sigma beta = Sigma beta0, which for a PSD Sigma is f_beta =
    f_beta0.

    The bound is |fl(Sigma_{jS} v)| for the computed v ~ Sigma_SS^{-1} tau plus
    two errors: the rounding of that product, gamma_k |Sigma_{jS}| |v|, and
    the residual r = Sigma_SS v - tau carried through Sigma_{jS} Sigma_SS^{-1},
    at most ||Sigma_{jS}||_1 ||Sigma_SS^{-1}||_inf ||r||_inf.  |r| is bounded
    by the computed residual plus its rounding.  With X the computed inverse
    and rho an upper bound on ||I - X Sigma_SS||_inf, ||Sigma_SS^{-1}||_inf <=
    ||X||_inf / (1 - rho), which is at most 2 ||X||_inf when rho <= 1/2 (inf
    otherwise).  The two error terms are doubled to cover the rounding of the
    bound's own arithmetic.
    """
    support = np.flatnonzero(beta0)
    if support.size == 0:
        return 0.0
    try:
        inv = inverse_11(gram, SubsetN(tuple(int(j) for j in support)))
    except SingularBlock:
        return math.inf
    k = support.size
    tau = np.sign(beta0[support])
    cols = gram.entries[:, support]
    head = cols[support]
    abs_head, abs_inv = np.abs(head), np.abs(inv)
    eye = np.eye(k)
    rho = float(np.max((np.abs(eye - inv @ head)
                        + _gamma(k + 1) * (eye + abs_inv @ abs_head)).sum(axis=1)))
    if not rho <= 0.5:
        return math.inf
    v = inv @ tau
    abs_v = np.abs(v)
    residual = float(np.max(np.abs(head @ v - tau) + _gamma(k + 1) * (abs_head @ abs_v + 1.0)))
    inv_norm = 2.0 * float(np.max(abs_inv.sum(axis=1)))
    off = np.ones(gram.p, dtype=bool)
    off[support] = False
    abs_off = np.abs(cols[off])
    bound = (np.abs(cols[off] @ v) + 2.0 * (_gamma(k) * (abs_off @ abs_v)
                                            + abs_off.sum(axis=1) * (inv_norm * residual)))
    return float(np.max(bound, initial=0.0))


def basis_pursuit_recover(gram: GramMatrix, beta0, config: SolverConfig = DEFAULT_CONFIG):
    """min ||beta||_1 subject to f_beta = f_{beta0}; returns (beta_lp,
    recovered, route).

    The dual certificate comes first: when _dual_certificate_bound proves
    beta0 the unique minimizer, the result is (beta0, True,
    "dual_certificate") and no LP is solved.  Otherwise the two-phase simplex
    decides: the constraint ||f_beta - f0|| = 0 is equivalent to
    V'(beta - beta0) = 0 with V spanning the eigenvectors of Sigma above the
    rank cutoff (none for a zero Sigma, whose LP has no rows and gives 0),
    and recovered = ||beta_lp - beta0||_inf <= 1e-6 (route "simplex").
    """
    beta0 = np.asarray(beta0, dtype=float).ravel()
    if beta0.shape[0] != gram.p:
        raise InvalidParameter("beta0 must have length p")
    if not np.all(np.isfinite(beta0)):
        raise InvalidParameter("beta0 must be finite")
    if _dual_certificate_bound(gram, beta0) < 1.0:
        return beta0.copy(), True, "dual_certificate"
    vals, vecs = np.linalg.eigh(gram.entries)
    lam_max = max(float(vals[-1]), 0.0)
    keep = vals > SINGULAR_RTOL * max(lam_max, 1e-300)
    v_r = vecs[:, keep]
    a_eq = np.concatenate([v_r.T, -v_r.T], axis=1)
    b_eq = v_r.T @ beta0
    c = np.ones(2 * gram.p)
    result = simplex_lp(LPProblem(c=c, a_eq=a_eq, b_eq=b_eq), config)
    if result.status != "Optimal":
        raise AuditError(f"basis pursuit LP finished with status {result.status}")
    beta_lp = result.x[:gram.p] - result.x[gram.p:]
    recovered = bool(np.max(np.abs(beta_lp - beta0), initial=0.0) <= 1e-6)
    return beta_lp, recovered, "simplex"


def lambda0_of_data(noisy: NoisyProblem) -> float:
    """2 max_j |(psi_j, epsilon)_n| for the realized noise."""
    if noisy.epsilon is None:
        raise InvalidParameter("epsilon is required to evaluate the noise level")
    return float(noisy.lambda0)


def lambda0_bound(t: float, n: int, p: int) -> float:
    """Noise-level quantile 2 sqrt((2t + 2 log p) / n) for standardized designs."""
    if t <= 0 or n <= 0 or p <= 0:
        raise InvalidParameter("t, n, p must be positive")
    return 2.0 * math.sqrt((2.0 * t + 2.0 * math.log(p)) / n)


def solve_noisy(noisy: NoisyProblem, lam: float, config: SolverConfig = DEFAULT_CONFIG):
    """Solve the noisy problem and (when the truth is known) check its bound.

    The solver runs on the empirical Gram matrix with correlation X'Y/n.  The
    bound check sets L = (lam + lambda0)/(lam - lambda0) and verifies

        ||f_hat - f0||_n^2 + (lam - lambda0) * ||beta_hat_{S^c}||_1
            <= 4 lam^2 s / phi^2_compat(empirical, L, S)

    which is the stated inequality after substituting the identities
    2 lambda0/(L-1) = lam - lambda0 and (L+1)^2 lambda0^2/(L-1)^2 = lam^2.
    Returns (solution, verdict); verdict is None without a truth vector and
    carries premise_ok=False (bounds unevaluated) when lam <= lambda0.
    """
    if lam <= 0.0:
        raise InvalidParameter("penalty level must be positive")
    gram = noisy.empirical_gram()
    corr = noisy.correlation()
    beta, _, _ = coordinate_descent_lasso(gram.entries, corr, lam, config)
    residual, tau = kkt_residual(gram, corr, lam, beta, is_correlation=True)
    active = tuple(int(j) for j in np.nonzero(beta)[0])
    beta0 = noisy.beta0 if noisy.beta0 is not None else np.zeros(gram.p)
    fit = noisy.Y - noisy.X @ beta
    objective = float(fit @ fit / noisy.n + lam * np.abs(beta).sum())
    solution = LassoSolution(beta_star=beta, tau_star=tau, active_set=active,
                             objective=objective, kkt_residual=residual,
                             lam=lam, beta0=beta0)
    if noisy.beta0 is None:
        return solution, None
    lam0 = lambda0_of_data(noisy)
    if lam <= lam0:
        return solution, OracleVerdict(lhs=None, rhs=None, holds=None,
                                       empirical_phi0=None, premise_ok=False,
                                       lambda0=lam0)
    big_l = (lam + lam0) / (lam - lam0)
    support = tuple(int(j) for j in np.nonzero(noisy.beta0)[0]) or (0,)
    cone = ConeSpec(S=support, L=big_l, N=len(support))
    s = cone.s
    diff = beta - noisy.beta0
    pred = float(diff @ gram.entries @ diff)
    comp = _complement(gram.p, support)
    tail_l1 = float(np.abs(beta[comp]).sum()) if comp else 0.0
    lhs = pred + (lam - lam0) * tail_l1
    phi_low = certified_lower_phi(gram, cone, target="compatibility")
    phi2 = max(float(phi_low.estimate), 0.0)
    rhs = 4.0 * lam * lam * s / phi2 if phi2 > 0 else math.inf
    phi0 = lam * math.sqrt(s) / math.sqrt(lhs) if lhs > 0 else math.inf
    verdict = OracleVerdict(lhs=lhs, rhs=rhs, holds=_leq(lhs, rhs), empirical_phi0=phi0,
                            premise_ok=True, lambda0=lam0, big_l=big_l)
    return solution, verdict


@dataclass(frozen=True)
class ApproximationVerdict:
    """Premises and conclusion for replacing the empirical Gram matrix.

    Premises: d_inf(empirical, population) <= lambda_tilde; the population
    compatibility value exceeds (L+1).sqrt(lambda_tilde * s); and the
    resulting transfer ratio is below one.  Conclusion:
    ||(empirical - population)(beta_hat - beta0)||_inf < lam - lambda0.
    """

    d_inf: float
    lambda_tilde: float
    premise_distance: bool
    premise_phi: bool
    premise_ratio: bool
    lhs: float
    rhs: float
    conclusion: bool
    holds: bool

    def to_json_dict(self) -> dict:
        return _jsonable(self)


def approximation_verdict(noisy: NoisyProblem, population: GramMatrix,
                          solution: LassoSolution,
                          lambda_tilde: Optional[float] = None) -> ApproximationVerdict:
    """Check the Gram-approximation implication on one noisy instance."""
    if noisy.beta0 is None:
        raise InvalidParameter("a truth vector is required")
    lam0 = lambda0_of_data(noisy)
    lam = solution.lam
    if lam <= lam0:
        raise InvalidParameter("requires lam > lambda0")
    big_l = (lam + lam0) / (lam - lam0)
    emp = noisy.empirical_gram()
    dist = d_infinity(emp.entries, population.entries)
    tilde = dist if lambda_tilde is None else float(lambda_tilde)
    support = tuple(int(j) for j in np.nonzero(noisy.beta0)[0]) or (0,)
    cone = ConeSpec(S=support, L=big_l, N=len(support))
    s = cone.s
    phi_low = certified_lower_phi(population, cone, target="compatibility")
    phi_pop = math.sqrt(max(float(phi_low.estimate), 0.0))
    margin = (big_l + 1.0) * math.sqrt(tilde * s)
    premise_distance = dist <= tilde * (1.0 + _VERDICT_RTOL)
    premise_phi = phi_pop > margin
    ratio = margin / (phi_pop - margin) if premise_phi else math.inf
    premise_ratio = ratio < 1.0
    diff = solution.beta_star - noisy.beta0
    lhs = float(np.max(np.abs((emp.entries - population.entries) @ diff))) if diff.size else 0.0
    rhs = lam - lam0
    conclusion = lhs < rhs
    premises = premise_distance and premise_phi and premise_ratio
    return ApproximationVerdict(d_inf=dist, lambda_tilde=tilde,
                                premise_distance=premise_distance, premise_phi=premise_phi,
                                premise_ratio=premise_ratio, lhs=lhs, rhs=rhs,
                                conclusion=conclusion, holds=(not premises) or conclusion)
