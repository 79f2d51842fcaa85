"""Numerical audit of the implication graph between design-matrix conditions.

Each catalogued edge is one inequality relating two certified quantities,
evaluated with sound endpoint choices: the side that must be at least as
large uses its certified lower endpoint, the side that must be at most as
large uses its certified upper endpoint.  An edge that holds is therefore
certified to hold (up to the stated tolerance); a reported failure only
means "not certified", since estimation slack alone can cause it.  Edges
whose premises fail on an instance are skipped, not failed: conditional
implications have nothing to say there.

The edge catalogue is a reconstruction assembled from the individual
results rather than from a single authoritative diagram; each entry below
states exactly the inequality it checks.

  E1  regression-to-eigenvalue: phi^2(L,S,N) >= (1 - L theta_rr)^2 Lambda^2(S,N)
      when theta_rr(S,N) < 1/L (plain variant)
  E2  block-norm bounds on the adaptive regression constant at N=s and N=2s
  E3  coherence specializations: mutual (q=inf), cumulative (q=1),
      spectral (q=2)
  E4  leverage-to-regression: irr_uniform(S,s) <= theta_rr_adaptive(S,s)
  E5  weak isometry ratio dominates the adaptive regression constant at 2s
  E6  phi^2(L,S,2s) >= (1 - L theta_wRIP)^2 Lambda^2(S,2s) when
      theta_wRIP(S,2s) < 1/L
  E7  hierarchy: phi^2_adaptive <= phi^2 <= phi^2_compat
  E8  phi^2_compat(L,S) >= (1 - L irr_uniform(S,s))^2 Lambda^2(S,s) when
      irr_uniform(S,s) < 1/L
  E9  theta_wRIP(S,N) <= theta_RIP and 1 - delta_N <= Lambda^2(S,N)
      (first part guaranteed for N <= 2s)
  E10 alpha(S) <= sqrt(2)(theta_{s,s} + sqrt(theta_{s,s})) /
      (1 - delta_s - theta_{s,s} - theta_{s,2s})
  E11 small alpha implies sign-enumerated selection: alpha(S) < 1 forces the
      Part-3 condition at N=2s and < s false positives on a solved instance
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import (
    DEFAULT_SIGN_CAP,
    _lambda2_vanishes,
    alpha_constant,
    block_norm_2q,
    block_norm_maxima,
    coherence,
    irrepresentable_signed,
    irrepresentable_uniform,
    restricted_isometry,
    restricted_orthogonality,
    rip_constant,
    theta_uniform,
    theta_uniform_plan,
    uniform_eigenvalue,
    weak_rip_constant,
)
from .core import (
    DEFAULT_SUBSET_CAP,
    BoundedValue,
    ConeSpec,
    GramMatrix,
    PerturbationPair,
    SubsetN,
    _jsonable,
)
from .errors import CapExceeded, DenominatorNonPositive, InvalidParameter, SingularBlock
from .estimators import (
    ROUTE_CAP,
    compatibility_constant,
    certified_lower_phi,
    lower_phi_routes,
    regression_upper,
    restricted_eigenvalue,
    restricted_regression,
)
from .lasso import solve_noiseless
from .solvers import DEFAULT_CONFIG, SolverConfig

EDGE_IDS = tuple(f"E{k}" for k in range(1, 12))

# relative tolerance when an inequality between certified endpoints is turned
# into a verdict
_EDGE_RTOL = 1e-7

_DIRECTION_NOTE = "certified endpoints: lower on the >=-side, upper on the <=-side"

# errors that mean "could not evaluate on this instance", turned into skips
_SKIP_ERRORS = (CapExceeded, SingularBlock, DenominatorNonPositive)


@dataclass(frozen=True)
class ImplicationVerdict:
    """One edge evaluated on one instance.

    holds is None when the edge was skipped (premise failed or inputs were
    unavailable); the note then starts with "skipped:".  slack is the signed
    margin, positive when the inequality holds strictly.
    """

    edge_id: str
    lhs_value: Optional[float]
    rhs_value: Optional[float]
    holds: Optional[bool]
    slack: Optional[float]
    bound_direction_note: str

    @property
    def skipped(self) -> bool:
        return self.holds is None

    def to_json_dict(self) -> dict:
        return _jsonable(self)


def _skip(edge_id: str, reason: str) -> ImplicationVerdict:
    return ImplicationVerdict(edge_id, None, None, None, None, f"skipped: {reason}")


def _verdict(edge_id: str, lhs: float, rhs: float, relation: str, note: str) -> ImplicationVerdict:
    """relation 'ge' means lhs >= rhs must hold; 'le' means lhs <= rhs.

    An infinite endpoint is no bound at all, so a slack of -inf (or nan)
    decides nothing and the edge is skipped.
    """
    slack = (lhs - rhs) if relation == "ge" else (rhs - lhs)
    if not slack > -math.inf:
        return _skip(edge_id, f"{note}: no finite margin (lhs={lhs!r}, rhs={rhs!r})")
    scale = max([1.0] + [abs(v) for v in (lhs, rhs) if math.isfinite(v)])
    holds = bool(slack >= -_EDGE_RTOL * scale)
    return ImplicationVerdict(edge_id, lhs, rhs, holds, slack,
                              f"{note}; {_DIRECTION_NOTE}")


class _Inputs:
    """Lazy cache of the named quantities of _QUANTITIES on one instance.

    Values supplied under a name win; everything else is computed on demand
    from the Gram matrix.  A supplied key that names no quantity is refused.
    """

    def __init__(self, gram: GramMatrix, cone: ConeSpec, config: SolverConfig,
                 cap: int, sign_cap: int, supplied=None):
        self.gram = gram
        self.cone = cone
        self.s = cone.s
        self.config = config
        self.cap = cap
        self.sign_cap = sign_cap
        self.cache = dict(supplied) if supplied else {}
        unknown = [key for key in self.cache if key not in _QUANTITIES]
        if unknown:
            raise InvalidParameter(f"supplied input {unknown[0]!r} names no quantity")

    def get(self, key: str):
        if key not in self.cache:
            self.cache[key] = _QUANTITIES[key](self)
        return self.cache[key]


def _alpha_phi_lower(q: _Inputs) -> float:
    """The certified phi^2(S,2s) lower estimate that alpha(S) is fed with."""
    if 2 * q.s > q.gram.p:
        raise InvalidParameter("alpha needs 2s <= p")
    return float(q.get("phi_lower_2s").estimate)


# every quantity an edge reads or analyze reports, by name, as its
# computation on the inputs q; a name analyze reports is its report key, and
# its value the entry, except that irr_part2 and irr_part3 are (holds,
# witness) pairs and phi_lower_routes is the {route: value} map
_QUANTITIES = {
    # reported by analyze, in its order
    "lambda2": lambda q: uniform_eigenvalue(q.gram, q.cone, q.cap),
    "delta_N": lambda q: restricted_isometry(q.gram, q.cone.N, q.cap),
    "theta": lambda q: restricted_orthogonality(q.gram, q.cone, q.cap),
    "theta_uniform": lambda q: theta_uniform(q.gram, q.s, q.cone.N, q.cap),
    "rip": lambda q: rip_constant(q.gram, q.s, q.cap),
    "weak_rip": lambda q: weak_rip_constant(q.gram, q.cone, q.cap),
    "irr_uniform": lambda q: irrepresentable_uniform(q.gram, q.cone, q.cap),
    "irr_part2": lambda q: irrepresentable_signed(q.gram, q.cone, part=2, cap=q.cap,
                                                  sign_cap=q.sign_cap),
    "irr_part3": lambda q: irrepresentable_signed(q.gram, q.cone, part=3, cap=q.cap,
                                                  sign_cap=q.sign_cap),
    "mutual": lambda q: coherence(q.gram, q.cone, "mutual"),
    "cumulative": lambda q: coherence(q.gram, q.cone, "cumulative"),
    "alpha": lambda q: alpha_constant(q.gram, q.cone.with_(N=q.s), _alpha_phi_lower(q), q.cap),
    "phi_compat": lambda q: compatibility_constant(q.gram, q.cone, q.config, q.sign_cap),
    "phi_re": lambda q: restricted_eigenvalue(q.gram, q.cone, "plain", q.config, q.cap,
                                              q.sign_cap),
    "phi_re_adaptive": lambda q: restricted_eigenvalue(q.gram, q.cone, "adaptive", q.config,
                                                       q.cap, q.sign_cap),
    "theta_rr": lambda q: restricted_regression(q.gram, q.cone, "plain", q.config, q.cap,
                                                q.sign_cap),
    "theta_rr_adaptive": lambda q: restricted_regression(q.gram, q.cone, "adaptive", q.config,
                                                         q.cap, q.sign_cap),
    "phi_lower_routes": lambda q: lower_phi_routes(q.gram, q.cone, "compatibility", "plain",
                                                   q.cap, q.sign_cap),
    # read by the edges alone
    "lambda2_s": lambda q: uniform_eigenvalue(q.gram, q.cone.with_(N=q.s), q.cap),
    "lambda2_2s": lambda q: uniform_eigenvalue(q.gram, q.cone.with_(N=2 * q.s), q.cap),
    "irr_uniform_s": lambda q: irrepresentable_uniform(q.gram, q.cone.with_(N=q.s), q.cap),
    "irr_part3_2s": lambda q: irrepresentable_signed(q.gram, q.cone.with_(L=1.0, N=2 * q.s),
                                                     part=3, cap=q.cap, sign_cap=q.sign_cap),
    "rr_plain_upper": lambda q: regression_upper(q.gram, q.cone, "plain", q.cap, q.sign_cap),
    "rr_ad_upper_s": lambda q: regression_upper(q.gram, q.cone.with_(N=q.s), "adaptive", q.cap,
                                                q.sign_cap),
    "rr_ad_upper_2s": lambda q: regression_upper(q.gram, q.cone.with_(N=2 * q.s), "adaptive",
                                                 q.cap, q.sign_cap),
    "rr_ad_s": lambda q: restricted_regression(q.gram, q.cone.with_(L=1.0, N=q.s), "adaptive",
                                               q.config, cap=q.cap, sign_cap=q.sign_cap),
    "phi_lower_plain": lambda q: certified_lower_phi(q.gram, q.cone, "restricted_eigenvalue",
                                                     "plain", q.cap, q.sign_cap),
    "phi_lower_plain_2s": lambda q: certified_lower_phi(
        q.gram, q.cone.with_(N=2 * q.s), "restricted_eigenvalue", "plain", q.cap, q.sign_cap),
    "phi_lower_2s": lambda q: certified_lower_phi(
        q.gram, q.cone.with_(L=1.0, N=2 * q.s), "restricted_eigenvalue", "plain", q.cap,
        q.sign_cap),
    # E7 reads only the lower endpoint of the adaptive constant, which the
    # certified route gives without a search
    "phi_lower_adaptive": lambda q: certified_lower_phi(q.gram, q.cone, "restricted_eigenvalue",
                                                        "adaptive", q.cap, q.sign_cap),
    "weak_rip_2s": lambda q: weak_rip_constant(q.gram, q.cone.with_(N=2 * q.s), q.cap),
    "delta_s": lambda q: restricted_isometry(q.gram, q.s, q.cap),
    "theta_ss": lambda q: theta_uniform(q.gram, q.s, q.s, q.cap),
    "theta_s2s": lambda q: theta_uniform(q.gram, q.s, 2 * q.s, q.cap),
    "norm_s_2inf": lambda q: float(block_norm_2q(q.gram, SubsetN(q.cone.S), math.inf).estimate),
    "max_norm_2s_2inf": lambda q: block_norm_maxima(q.gram, q.cone.with_(N=2 * q.s),
                                                    min(q.cap, ROUTE_CAP), q.sign_cap).col,
    "max_norm_2s_22": lambda q: block_norm_maxima(q.gram, q.cone.with_(N=2 * q.s),
                                                  min(q.cap, ROUTE_CAP), q.sign_cap).spectral,
}


def check_edge(edge_id: str, gram: GramMatrix, cone: ConeSpec,
               reports=None, config: SolverConfig = DEFAULT_CONFIG,
               cap: int = DEFAULT_SUBSET_CAP, sign_cap: int = DEFAULT_SIGN_CAP) -> ImplicationVerdict:
    """Evaluate one edge of the implication graph on one instance.

    reports may supply precomputed inputs keyed by the names of
    _QUANTITIES, analyze's report keys among them; they win over the Gram
    matrix, which computes the rest, and a key that names no quantity is
    refused.  Premise failures and refused inputs yield a skip verdict, as
    in check_all.
    """
    if edge_id not in EDGE_IDS:
        raise InvalidParameter(f"unknown edge {edge_id!r}")
    cone.validate_p(gram.p)
    return _evaluate(edge_id, _Inputs(gram, cone, config, cap, sign_cap, reports))


def _evaluate(edge_id: str, inputs: _Inputs) -> ImplicationVerdict:
    """One edge on shared inputs.  An input refused with one of _SKIP_ERRORS
    makes the edge a skip whose reason names the exception's class first,
    so it reads by machine."""
    try:
        return _EDGE_CHECKS[edge_id](edge_id, inputs)
    except _SKIP_ERRORS as exc:
        return _skip(edge_id, f"{type(exc).__name__}: {exc}")


def _transfer(edge_id, inputs, x, premise, lam2_key, phi_key, note):
    """The transfer form phi^2 certified lower >= (1 - L x)^2 Lambda^2, skipped
    with "premise <premise>" unless L x < 1; Lambda^2 is read before phi^2."""
    if not inputs.cone.L * x < 1.0:
        return _skip(edge_id, f"premise {premise}")
    lam2 = float(inputs.get(lam2_key).estimate)
    lhs = float(inputs.get(phi_key).lower)
    return _verdict(edge_id, lhs, (1.0 - inputs.cone.L * x) ** 2 * lam2, "ge", note)


def _edge_e1(edge_id, inputs):
    ru = float(inputs.get("rr_plain_upper").upper)
    return _transfer(edge_id, inputs, ru, f"theta_rr(S,N) < 1/L fails (upper={ru!r})",
                     "lambda2", "phi_lower_plain",
                     "phi^2 certified lower vs (1 - L * theta_rr upper)^2 * Lambda^2")


def _finite_lhs(checks):
    """Drop the sub-checks whose <=-side is infinite and so bounds nothing
    (regression_upper returns inf when no route applies)."""
    return [c for c in checks if math.isfinite(c[0])]


def _regression_bound(edge_id, inputs, what, at_s, at_2s, key, note):
    """theta_rr_adaptive's upper endpoint at N=s and N=2s against the (lhs, rhs,
    which) sub-checks at_s and at_2s form from (upper, Lambda^2) at their N; a
    level whose Lambda^2 vanishes (or N=2s > p) adds none, and of the sub-checks
    with a finite lhs the one with the least key binds, its which put in note."""
    checks = []
    lam2_s = float(inputs.get("lambda2_s").estimate)
    if not _lambda2_vanishes(inputs.gram, lam2_s):
        checks += at_s(float(inputs.get("rr_ad_upper_s").upper), lam2_s)
    if 2 * inputs.s <= inputs.gram.p:
        lam2_2s = float(inputs.get("lambda2_2s").estimate)
        if not _lambda2_vanishes(inputs.gram, lam2_2s):
            checks += at_2s(float(inputs.get("rr_ad_upper_2s").upper), lam2_2s)
    if not checks:
        return _skip(edge_id, f"no applicable {what} bound (singular or 2s > p)")
    checks = _finite_lhs(checks)
    if not checks:
        return _skip(edge_id, "no finite theta_rr_adaptive upper bound")
    lhs, rhs, which = min(checks, key=key)
    return _verdict(edge_id, lhs, rhs, "le", note.format(which))


def _edge_e2(edge_id, inputs):
    root_s = math.sqrt(inputs.s)
    return _regression_bound(
        edge_id, inputs, "block-norm",
        lambda upper, lam2: [(upper, root_s * inputs.get("norm_s_2inf") / lam2,
                              "at N=s: column 2-norm form")],
        lambda upper, lam2: [(upper, root_s * inputs.get("max_norm_2s_2inf") / lam2,
                              "at N=2s: q=inf block-norm form")],
        lambda c: c[1] - c[0], "theta_rr_adaptive upper vs block-norm bound ({})")


def _edge_e3(edge_id, inputs):
    def at_s(upper, lam2):
        intermediate = math.sqrt(inputs.s) * inputs.get("norm_s_2inf") / lam2
        mutual = float(inputs.get("mutual").estimate)
        cumulative = float(inputs.get("cumulative").estimate)
        return [(upper, intermediate, "mutual step 1: rr_ad <= sqrt(s) max col norm / Lambda^2"),
                (intermediate, mutual, "mutual step 2: intermediate <= mutual coherence"),
                (upper, cumulative, "cumulative: rr_ad <= cumulative coherence")]

    return _regression_bound(
        edge_id, inputs, "coherence", at_s,
        lambda upper, lam2: [(upper, inputs.get("max_norm_2s_22") / lam2,
                              "spectral: rr_ad(2s) <= max spectral norm / Lambda^2")],
        lambda c: (c[1] - c[0]) / max(1.0, abs(c[1])), "coherence specializations (binding: {})")


def _edge_e4(edge_id, inputs):
    lhs = float(inputs.get("irr_uniform_s").estimate)
    rhs = float(inputs.get("rr_ad_s").lower)
    return _verdict(edge_id, lhs, rhs, "le",
                    "irr_uniform(S,s) exact vs theta_rr_adaptive(S,s) certified lower")


def _edge_e5(edge_id, inputs):
    gram, cone = inputs.gram, inputs.cone
    if 2 * cone.s > gram.p:
        return _skip(edge_id, "requires 2s <= p")
    lhs = float(inputs.get("rr_ad_upper_2s").upper)
    rhs = float(inputs.get("weak_rip_2s").estimate)
    return _verdict(edge_id, lhs, rhs, "le",
                    "theta_rr_adaptive(S,2s) upper vs weak isometry ratio (exact)")


def _edge_e6(edge_id, inputs):
    if 2 * inputs.s > inputs.gram.p:
        return _skip(edge_id, "requires 2s <= p")
    wr = float(inputs.get("weak_rip_2s").estimate)
    return _transfer(edge_id, inputs, wr, f"theta_wRIP(S,2s) < 1/L fails (value={wr!r})",
                     "lambda2_2s", "phi_lower_plain_2s",
                     "phi^2(L,S,2s) certified lower vs (1 - L * theta_wRIP)^2 * Lambda^2(S,2s)")


def _edge_e7(edge_id, inputs):
    ad = inputs.get("phi_lower_adaptive")
    plain = inputs.get("phi_re")
    compat = inputs.get("phi_compat")
    checks = [
        (float(ad.lower), float(plain.upper), "adaptive lower vs plain upper"),
        (float(plain.lower), float(compat.upper), "plain lower vs compatibility upper"),
    ]
    lhs, rhs, which = min(checks, key=lambda c: c[1] - c[0])
    return _verdict(edge_id, lhs, rhs, "le", f"hierarchy chain (binding: {which})")


def _edge_e8(edge_id, inputs):
    irr = float(inputs.get("irr_uniform_s").estimate)
    return _transfer(edge_id, inputs, irr, f"irr_uniform(S,s) < 1/L fails (value={irr!r})",
                     "lambda2_s", "phi_compat",
                     "phi^2_compat interval lower vs (1 - L * irr_uniform)^2 * Lambda^2(S,s)")


def _edge_e9(edge_id, inputs):
    cone = inputs.cone
    if cone.N > 2 * cone.s:
        return _skip(edge_id, "guaranteed only for N <= 2s")
    rip = float(inputs.get("rip").estimate)
    wr = float(inputs.get("weak_rip").estimate)
    lam2 = float(inputs.get("lambda2").estimate)
    delta_n = float(inputs.get("delta_N").estimate)
    checks = [
        (wr, rip, "theta_wRIP(S,N) <= theta_RIP"),
        (1.0 - delta_n, lam2, "1 - delta_N <= Lambda^2(S,N)"),
    ]
    lhs, rhs, which = min(checks, key=lambda c: c[1] - c[0])
    return _verdict(edge_id, lhs, rhs, "le", f"isometry comparisons (binding: {which})")


def _edge_e10(edge_id, inputs):
    gram, cone = inputs.gram, inputs.cone
    s = cone.s
    if 2 * s > gram.p:
        return _skip(edge_id, "requires 2s <= p")
    delta_s = float(inputs.get("delta_s").estimate)
    if delta_s > 1.0:
        return _skip(edge_id, f"premise delta_s <= 1 fails (value={delta_s!r})")
    # both theta enumerations must fit the cap before either one runs
    for key, n_size in (("theta_ss", s), ("theta_s2s", 2 * s)):
        if key not in inputs.cache:
            theta_uniform_plan(gram.p, s, n_size, inputs.cap)
    theta_ss = float(inputs.get("theta_ss").estimate)
    theta_s2s = float(inputs.get("theta_s2s").estimate)
    denom = 1.0 - delta_s - theta_ss - theta_s2s
    if denom <= 0.0:
        return _skip(edge_id, f"premise 1 - delta_s - theta_ss - theta_s2s > 0 fails ({denom!r})")
    lhs = float(inputs.get("alpha").upper)
    rhs = math.sqrt(2.0) * (theta_ss + math.sqrt(theta_ss)) / denom
    return _verdict(edge_id, lhs, rhs, "le",
                    "alpha(S) certified upper vs uniform-constant assembly bound")


def _edge_e11(edge_id, inputs):
    gram, cone = inputs.gram, inputs.cone
    s = cone.s
    if 2 * s > gram.p:
        return _skip(edge_id, "requires 2s <= p")
    lhs = float(inputs.get("alpha").upper)
    if not lhs < 1.0:
        return _skip(edge_id, f"premise alpha(S) < 1 fails (upper={lhs!r})")
    part3_ok, _ = inputs.get("irr_part3_2s")
    lam = 0.1
    phi2 = float(inputs.get("phi_lower_2s").estimate)
    magnitude = 2.0 * lam * math.sqrt(s) / phi2
    beta0 = np.zeros(gram.p)
    beta0[list(cone.S)] = magnitude
    solution = solve_noiseless(gram, beta0, lam, inputs.config)
    false_pos = len(set(solution.active_set) - set(cone.S))
    conclusion = bool(part3_ok) and false_pos < s
    note = (f"alpha upper {lhs!r} < 1; sign-enumerated Part 3 at N=2s: {bool(part3_ok)}; "
            f"false positives {false_pos} < s on the solved instance")
    return ImplicationVerdict(edge_id, lhs, 1.0, conclusion, 1.0 - lhs,
                              f"{note}; {_DIRECTION_NOTE}")


_EDGE_CHECKS = {
    "E1": _edge_e1, "E2": _edge_e2, "E3": _edge_e3, "E4": _edge_e4,
    "E5": _edge_e5, "E6": _edge_e6, "E7": _edge_e7, "E8": _edge_e8,
    "E9": _edge_e9, "E10": _edge_e10, "E11": _edge_e11,
}


def check_all(gram: GramMatrix, cone: ConeSpec, config: SolverConfig = DEFAULT_CONFIG,
              cap: int = DEFAULT_SUBSET_CAP, sign_cap: int = DEFAULT_SIGN_CAP):
    """Run every edge on one instance, sharing computed inputs.

    Returns one ImplicationVerdict per edge id; unavailable inputs (caps
    exceeded, singular blocks) surface as skip verdicts, never exceptions.
    """
    cone.validate_p(gram.p)
    inputs = _Inputs(gram, cone, config, cap, sign_cap)
    return [_evaluate(edge_id, inputs) for edge_id in EDGE_IDS]


def perturbation_transfer(pair: PerturbationPair, cone: ConeSpec, phi0: BoundedValue) -> BoundedValue:
    """Transfer a certified phi^2 lower bound across an entrywise perturbation.

    phi0 must be a certified lower bound for the squared constant on the
    reference matrix (compatibility, restricted eigenvalue or its adaptive
    form: the bound is the same for each); the result is the certified
    lower bound max(0, sqrt(phi0) - (L+1) sqrt(d_inf * s))^2 for the
    perturbed matrix.
    The provenance also records the relative-change bound
    (L+1)^2 d_inf s / phi0 for reporting.
    """
    phi0_sq = max(float(phi0.estimate), 0.0)
    margin = (cone.L + 1.0) * math.sqrt(pair.d_inf * cone.s)
    root = max(0.0, math.sqrt(phi0_sq) - margin)
    value = root * root
    ratio = (cone.L + 1.0) ** 2 * pair.d_inf * cone.s / phi0_sq if phi0_sq > 0 else math.inf
    note = f"d_inf={pair.d_inf!r}; margin={margin!r}; ratio_bound={ratio!r}"
    return BoundedValue.certified_lower(value, provenance=note)
