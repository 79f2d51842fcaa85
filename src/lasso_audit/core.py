"""Gram-matrix primitives, cone geometry, and certified-value containers.

Conventions used across the package:

* Index sets are 0-based, strictly ascending tuples of ints.
* Coefficient vectors are plain float arrays of length p; block extraction
  keeps ascending index order in both dimensions.
* A Gram matrix is symmetric positive semidefinite, checked at construction
  by one eigenvalue decomposition (smallest eigenvalue at least -1e-9 times
  the entry scale); rank-deficient inputs are first-class, so
  positive-definiteness is never assumed.
* Submatrices are declared singular iff lambda_min <= 1e-10 * lambda_max;
  _nonsingular is the one home of that rule, for one block or a stack.
"""

from __future__ import annotations

import enum
import hashlib
import math
import os
import threading
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import AuditError, CapExceeded, InvalidParameter, SingularBlock

DEFAULT_SUBSET_CAP = 10 ** 6
SINGULAR_RTOL = 1e-10
# the bound on p^1.5 max|entry|: see GramMatrix
_MAX_GRAM_SCALE = 2.0 ** 511
_POOL_MAX_WORKERS = 8


def _pool_workers(tasks: int) -> int:
    """The thread count for a number of independent tasks: at most the CPUs
    this process may run on, the number of tasks and _POOL_MAX_WORKERS.
    The one sizing rule of the package's thread pools."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, tasks, _POOL_MAX_WORKERS))


def _run_lanes(tasks: list) -> list:
    """[(task(), None) or (None, its AuditError) for task in tasks], run on
    _pool_workers(len(tasks)) lanes: the calling thread and a thread pool.

    Lanes take tasks in order from one shared counter and put each outcome
    in the task's own slot, so the list does not depend on the lane count
    or the scheduling.  Once a task raises anything else, no lane starts
    another task; the exception reaches the caller after every lane has
    returned.  With one lane the tasks run in the caller, in order.
    """
    slots = [None] * len(tasks)
    order = iter(range(len(tasks)))
    lock = threading.Lock()
    failed = threading.Event()

    def lane():
        while not failed.is_set():
            with lock:
                i = next(order, None)
            if i is None:
                return
            try:
                slots[i] = (tasks[i](), None)
            except AuditError as exc:
                slots[i] = (None, exc)
            except BaseException:
                failed.set()
                raise

    lanes = _pool_workers(len(tasks))
    if lanes == 1:
        lane()
        return slots
    # imported here: a run on one lane need not pay for the import
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=lanes - 1) as pool:
        futures = [pool.submit(lane) for _ in range(lanes - 1)]
        lane()
        for future in futures:
            future.result()
    return slots


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A fixed 128-bit Philox key as a seed sequence.  Philox asks its seed
    sequence for two 64-bit words and starts at counter 0, which is the
    state Philox(key=key) sets, without the OS-entropy SeedSequence that
    Philox(key=...) builds and ignores."""

    __slots__ = ("_words",)

    def __init__(self, key: int):
        self._words = np.array([key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def derived_rng(seed, *stream) -> np.random.Generator:
    """Counter-based generator keyed by a root seed and a stream label path.

    Distinct labels give statistically independent streams; identical
    (seed, labels) give bit-identical streams on every platform.
    """
    label = "/".join(str(part) for part in stream)
    digest = hashlib.sha256(f"{seed}#{label}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


class Certificate(enum.Enum):
    EXACT = "Exact"
    CERTIFIED_LOWER = "CertifiedLower"
    CERTIFIED_UPPER = "CertifiedUpper"
    INTERVAL = "Interval"
    ESTIMATE = "Estimate"


@dataclass(frozen=True)
class BoundedValue:
    """A scalar with certified enclosure [lower, upper] and a provenance note."""

    estimate: float
    lower: float
    upper: float
    certificate: Certificate
    provenance: str = ""

    def __post_init__(self):
        est, lo, hi = float(self.estimate), float(self.lower), float(self.upper)
        slack = 1e-9 * max(1.0, abs(est))
        if not (lo <= est + slack and est <= hi + slack and lo <= hi + slack):
            raise InvalidParameter(
                f"inconsistent BoundedValue: lower={lo!r} estimate={est!r} upper={hi!r}"
            )

    @classmethod
    def exact(cls, value, provenance=""):
        v = float(value)
        return cls(v, v, v, Certificate.EXACT, provenance)

    @classmethod
    def certified_lower(cls, value, provenance=""):
        v = float(value)
        return cls(v, v, math.inf, Certificate.CERTIFIED_LOWER, provenance)

    @classmethod
    def certified_upper(cls, value, provenance=""):
        v = float(value)
        return cls(v, min(0.0, v), v, Certificate.CERTIFIED_UPPER, provenance)

    @classmethod
    def interval(cls, estimate, lower, upper, provenance=""):
        return cls(float(estimate), float(lower), float(upper), Certificate.INTERVAL, provenance)

    @classmethod
    def estimate_only(cls, value, provenance=""):
        return cls(float(value), -math.inf, math.inf, Certificate.ESTIMATE, provenance)

    def scaled(self, factor: float) -> "BoundedValue":
        """Multiply all endpoints by a nonnegative factor (exact scaling laws)."""
        if factor < 0:
            raise InvalidParameter("scaling factor must be nonnegative")
        return BoundedValue(
            self.estimate * factor,
            self.lower * factor,
            self.upper * factor,
            self.certificate,
            self.provenance,
        )

    def to_json_dict(self) -> dict:
        return _jsonable(self)


def _jsonable(obj):
    """The one JSON encoder of every report record: a dataclass as its
    fields in declaration order, an Enum as its value, a SubsetN as its
    members, tuples, lists and arrays as lists, dict keys as str, numpy
    scalars as Python numbers and a non-finite float as None.  The common
    leaf types are tested first, and an array is turned into a list at once
    unless it holds a non-finite float."""
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        items = obj.tolist()
        if obj.dtype.kind in "biu" or obj.dtype.kind == "f" and np.all(np.isfinite(obj)):
            return items
        return _jsonable(items)
    if isinstance(obj, (tuple, list)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, SubsetN):
        return list(obj.members)
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return obj


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric PSD matrix wrapper.

    The entry scale is max|entry|, with no floor, so every tolerance below
    scales with the matrix.  Symmetry is enforced at construction (asymmetry
    beyond 1e-12 of the entry scale is rejected, below that the matrix is
    symmetrized).  An entry scale with p^1.5 max|entry| above 2^511 is
    rejected, so that every sum of p squares of p-term sums of entries the
    constants form stays below 2^1022.
    A spectrum that is not all finite is rejected too.  Positive
    semidefiniteness is checked on the full spectrum: a smallest eigenvalue
    below -1e-9 times the entry scale is rejected, so rank-deficient matrices
    (eigenvalues at rounding level around 0) pass.
    The spectrum is kept as the memoized spectrum().

    Derived quantities that several callers need (enumerated constants, the
    full spectrum) are memoized per instance; the memo takes no part in
    equality.
    """

    entries: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        raw = np.asarray(self.entries, dtype=float)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise InvalidParameter(f"Gram matrix must be square, got shape {raw.shape}")
        if raw.shape[0] == 0:
            raise InvalidParameter("Gram matrix must be nonempty")
        if not np.all(np.isfinite(raw)):
            raise InvalidParameter("Gram matrix entries must be finite")
        scale = float(np.max(np.abs(raw)))
        limit = _MAX_GRAM_SCALE / raw.shape[0] ** 1.5
        if scale > limit:
            raise InvalidParameter(
                f"Gram matrix entries too large: |entry| {scale!r} exceeds "
                f"2^511 / p^1.5 = {limit!r} at p={raw.shape[0]}")
        if float(np.max(np.abs(raw - raw.T))) > 1e-12 * scale:
            raise InvalidParameter("Gram matrix is not symmetric within 1e-12")
        sym = (raw + raw.T) / 2.0
        if float(np.min(np.diag(sym))) < -1e-12 * scale:
            raise InvalidParameter("Gram matrix has a negative diagonal entry")
        spectrum = np.linalg.eigvalsh(sym)
        # the entry bound keeps the eigenvalues below 2^511: this guards against
        # an eigensolver fault, which would void every bound built on them
        if not np.all(np.isfinite(spectrum)):
            raise InvalidParameter(
                f"Gram matrix spectrum overflows: an eigenvalue is not finite at "
                f"entry scale {scale!r}")
        if float(spectrum[0]) < -1e-9 * scale:
            raise InvalidParameter(
                f"Gram matrix is not PSD: smallest eigenvalue {float(spectrum[0])!r} "
                f"is below -1e-9 * {scale!r}")
        sym.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "entries", sym)
        self._memo["spectrum"] = spectrum

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    def memoized(self, key, compute):
        """compute() on the first request for key, the stored result after.

        Results must be immutable: every caller gets the same object, also
        when two threads compute one key at once (the first stored wins).
        """
        if key in self._memo:
            return self._memo[key]
        return self._memo.setdefault(key, compute())

    def spectrum(self) -> np.ndarray:
        """All eigenvalues in ascending order (read-only), from the PSD check."""
        return self._memo["spectrum"]

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.entries.shape).encode())
        h.update(np.ascontiguousarray(self.entries).tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class ConeSpec:
    """Active set S, budget multiplier L, and enlargement size N."""

    S: tuple
    L: float
    N: int

    def __post_init__(self):
        S = tuple(int(j) for j in self.S)
        if len(S) == 0:
            raise InvalidParameter("S must be nonempty")
        if any(j < 0 for j in S):
            raise InvalidParameter("S indices must be nonnegative")
        if list(S) != sorted(set(S)):
            raise InvalidParameter("S must be strictly ascending without duplicates")
        object.__setattr__(self, "S", S)
        L = float(self.L)
        if not (L >= 0.0) or math.isnan(L):
            raise InvalidParameter("L must be nonnegative")
        object.__setattr__(self, "L", L)
        N = int(self.N)
        if N < len(S):
            raise InvalidParameter(f"N={N} must be at least s={len(S)}")
        object.__setattr__(self, "N", N)

    @property
    def s(self) -> int:
        return len(self.S)

    def validate_p(self, p: int):
        if self.S[-1] >= p:
            raise InvalidParameter(f"S index {self.S[-1]} out of range for p={p}")
        if self.N > p:
            raise InvalidParameter(f"N={self.N} exceeds p={p}")

    def with_(self, L=None, N=None) -> "ConeSpec":
        return ConeSpec(self.S, self.L if L is None else L, self.N if N is None else N)


@dataclass(frozen=True)
class SubsetN:
    """An index set written as a strictly ascending tuple."""

    members: tuple

    def __post_init__(self):
        members = tuple(int(j) for j in self.members)
        if any(j < 0 for j in members):
            raise InvalidParameter("subset indices must be nonnegative")
        if list(members) != sorted(set(members)):
            raise InvalidParameter("subset must be strictly ascending without duplicates")
        object.__setattr__(self, "members", members)

    def __len__(self):
        return len(self.members)

    def complement(self, p: int) -> tuple:
        return tuple(_complement(p, self.members).tolist())

    def contains(self, other) -> bool:
        return set(other).issubset(self.members)


@dataclass(frozen=True)
class PerturbationPair:
    """Two Gram matrices of equal size and their entrywise sup distance."""

    sigma0: GramMatrix
    sigma1: GramMatrix
    d_inf: float = field(init=False)

    def __post_init__(self):
        if self.sigma0.p != self.sigma1.p:
            raise InvalidParameter(
                f"dimension mismatch: {self.sigma0.p} vs {self.sigma1.p}"
            )
        object.__setattr__(self, "d_inf", d_infinity(self.sigma0, self.sigma1))


def _complements(nsets: np.ndarray, p: int) -> np.ndarray:
    """Row-wise ascending complements of the stacked index sets: the one
    code that builds a complement (_complement is its one-row call)."""
    keep = np.ones((len(nsets), p), dtype=bool)
    keep[np.arange(len(nsets))[:, None], nsets] = False
    return np.nonzero(keep)[1].reshape(len(nsets), p - nsets.shape[1])


def _complement(p: int, members) -> np.ndarray:
    """The indices 0..p-1 outside members, as an ascending intp array."""
    return _complements(np.asarray(members, dtype=np.intp).reshape(1, -1), p)[0]


def _as_vector(beta, p=None) -> np.ndarray:
    arr = np.asarray(beta, dtype=float)
    if arr.ndim != 1:
        raise InvalidParameter(f"expected a 1-d coefficient vector, got shape {arr.shape}")
    if p is not None and arr.shape[0] != p:
        raise InvalidParameter(f"dimension mismatch: vector length {arr.shape[0]}, p={p}")
    return arr


def block(gram: GramMatrix, nset: SubsetN, which: str) -> np.ndarray:
    """Extract Sigma_11, Sigma_21, Sigma_12 or Sigma_22 for the given index set.

    "11" is the (nset x nset) block, "21" the (complement x nset) block,
    "12" its transpose and "22" the (complement x complement) block.
    """
    p = gram.p
    idx = np.array(nset.members, dtype=int)
    if idx.size and idx[-1] >= p:
        raise InvalidParameter(f"subset index {idx[-1]} out of range for p={p}")
    comp = _complement(p, nset.members)
    if which == "11":
        return gram.entries[np.ix_(idx, idx)].copy()
    if which == "21":
        return gram.entries[np.ix_(comp, idx)].copy()
    if which == "12":
        return gram.entries[np.ix_(idx, comp)].copy()
    if which == "22":
        return gram.entries[np.ix_(comp, comp)].copy()
    raise InvalidParameter(f"unknown block selector {which!r}")


def _nonsingular(vals):
    """The singularity rule, for the ascending eigenvalues of one block or a
    stack of blocks (last axis): lambda_min > SINGULAR_RTOL * max(lambda_max, 0)."""
    return vals[..., 0] > SINGULAR_RTOL * np.maximum(vals[..., -1], 0.0)


def inverse_11(gram: GramMatrix, nset: SubsetN) -> np.ndarray:
    """Inverse of Sigma_11(nset) via symmetric eigendecomposition.

    Raises SingularBlock when lambda_min <= 1e-10 * lambda_max.
    """
    sub = block(gram, nset, "11")
    vals, vecs = np.linalg.eigh(sub)
    if not _nonsingular(vals):
        raise SingularBlock(f"Sigma_11 block on {nset.members} is singular "
                            f"(lambda_min={float(vals[0])!r}, lambda_max={float(vals[-1])!r})")
    return (vecs / vals) @ vecs.T


def _check_variant(variant: str) -> None:
    """Refuse a cone variant other than "plain" and "adaptive"."""
    if variant not in ("plain", "adaptive"):
        raise InvalidParameter(f"unknown cone variant {variant!r}")


def cone_membership(beta, cone: ConeSpec, nset: SubsetN = None, variant: str = "plain", *, atol: float = 0.0) -> bool:
    """Exact test of the l1 cone constraints, optionally with the nset sup-norm cap.

    plain:    ||beta_{S^c}||_1 <= L * ||beta_S||_1 and ||beta_S||_1 != 0
    adaptive: ||beta_{S^c}||_1 <= sqrt(s) * L * ||beta_S||_2
    With nset strictly larger than S, additionally
    ||beta_{nset^c}||_inf <= min_{j in nset \\ S} |beta_j|; for nset == S that
    constraint is dropped.  atol adds slack for the strict inequalities only.
    """
    _check_variant(variant)
    beta = _as_vector(beta)
    p = beta.shape[0]
    cone.validate_p(p)
    head = beta[np.array(cone.S, dtype=int)]
    tail_l1 = float(np.sum(np.abs(beta[_complement(p, cone.S)])))
    if variant == "plain":
        head_norm = float(np.sum(np.abs(head)))
        if head_norm == 0.0:
            return False
        budget = cone.L * head_norm
    else:
        budget = math.sqrt(cone.s) * cone.L * float(np.linalg.norm(head))
    if tail_l1 > budget + atol:
        return False
    if nset is not None and tuple(nset.members) != cone.S:
        if not nset.contains(cone.S):
            raise InvalidParameter("nset must contain S")
        extra = sorted(set(nset.members) - set(cone.S))
        cap = float(np.min(np.abs(beta[extra])))
        outside = nset.complement(p)
        out_inf = float(np.max(np.abs(beta[list(outside)]))) if outside else 0.0
        if out_inf > cap + atol:
            return False
    return True


def _top_tail(magnitudes: np.ndarray, k: int) -> np.ndarray:
    """The positions of the k largest entries in each row of magnitudes
    (2-D), largest first, ties by ascending position: the one rule that
    picks the top enlargement.  All positions when k is at least the row
    length."""
    # the stable ascending order of the reversed rows, read backwards: ties
    # come out by ascending position, and no negated copy is made
    r = magnitudes.shape[1]
    return r - 1 - np.argsort(magnitudes[:, ::-1], axis=1, kind="stable")[:, ::-1][:, :k]


def top_nset(beta, cone: ConeSpec) -> SubsetN:
    """S joined with the N-s largest-magnitude coordinates of beta off S.

    This is the ratio-minimizing admissible enlargement for the restricted
    eigenvalue: the sup-norm cap holds by construction and the denominator
    ||beta_nset||_2 is maximal.  Ties break by ascending index (_top_tail).
    """
    beta = _as_vector(beta)
    cone.validate_p(beta.shape[0])
    comp = _complement(beta.shape[0], cone.S)
    extra = comp[_top_tail(np.abs(beta[comp])[None, :], cone.N - cone.s)[0]]
    return SubsetN(tuple(sorted(cone.S + tuple(extra.tolist()))))


def d_infinity(a, b) -> float:
    """Entrywise sup distance between two matrices of equal shape."""
    ma = a.entries if isinstance(a, GramMatrix) else np.asarray(a, dtype=float)
    mb = b.entries if isinstance(b, GramMatrix) else np.asarray(b, dtype=float)
    if ma.shape != mb.shape:
        raise InvalidParameter(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return float(np.max(np.abs(ma - mb)))


def superset_count(cone: ConeSpec, p: int) -> int:
    return math.comb(p - cone.s, cone.N - cone.s)


def check_superset_cap(cone: ConeSpec, p: int, cap: int = DEFAULT_SUBSET_CAP) -> None:
    """Raise CapExceeded when the size-N supersets of S outnumber the cap."""
    cone.validate_p(p)
    count = superset_count(cone, p)
    if count > cap:
        raise CapExceeded(count, cap, what=f"superset enumeration (p={p}, s={cone.s}, N={cone.N})")
