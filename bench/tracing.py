"""Outside-in tracing of lasso-audit: wraps public functions, records spans.

``Tracer.install`` replaces every public function of the traced modules, in
every module namespace that bound it, with a wrapper that records a span
(name, start, end, parent span, operation id); ``GramMatrix`` construction
is wrapped through its ``__post_init__``.  NumPy kernels (``svd``,
``eigvalsh``, ``eigh``, ``ix_``) are counters: their calls and time are
added to the enclosing span instead of opening spans of their own.
``Tracer.uninstall`` restores every original object.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import re
import time

LAYERS = ("cli", "core", "constants", "estimators", "solvers", "lasso",
          "implications", "experiments")
KERNELS = (("linalg", "svd"), ("linalg", "eigvalsh"), ("linalg", "eigh"), ("", "ix_"))
REPEAT_LAYERS = ("constants", "estimators")

# span fields
NAME, START, END, PARENT, OP, KCALLS, KSEC, FLAGS = range(8)
RAISED = 1    # ended by raising an AuditError
REPEAT = 2    # same function, Gram fingerprint and arguments as an earlier call

SETUP_OP = -1


def _freeze(value):
    """A hashable, exact stand-in for a call argument."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, str(value.dtype),
                hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_freeze(v) for v in value)
    return repr(value)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.counters = {}
        self.kernel_calls = {name: 0 for _, name in KERNELS}
        self.kernel_s = {name: 0.0 for _, name in KERNELS}
        self.op = SETUP_OP
        self._stack = []
        self._seen = set()
        self._fingerprints = {}
        self._patched = []
        self._audit_error = None
        self._gram_type = None

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Start an operation: later spans carry its id; repeats reset."""
        self.op = op_id
        self._seen.clear()
        self._fingerprints.clear()

    def count(self, name: str, amount=1) -> None:
        """Add to a counter; counters cover operations only, not set-up."""
        if self.op != SETUP_OP:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _repeat_key(self, name, args, kwargs):
        def freeze(value):
            if isinstance(value, self._gram_type):
                fp = self._fingerprints.get(id(value))
                if fp is None:
                    fp = self._fingerprints[id(value)] = (value, value.fingerprint())
                return ("gram", fp[1])
            return _freeze(value)

        return (name, tuple(freeze(v) for v in args),
                tuple((k, freeze(v)) for k, v in sorted(kwargs.items())))

    def _wrap(self, name: str, fn, hook=None, prepare=None):
        tracer = self
        name_id = self._name_id(name)
        check_repeat = name.split(".", 1)[0] in REPEAT_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            flags = 0
            if check_repeat:
                key = tracer._repeat_key(name, args, kwargs)
                if key in tracer._seen:
                    flags = REPEAT
                tracer._seen.add(key)
            if prepare is not None:
                args, kwargs = prepare(tracer, args, kwargs)
            stack = tracer._stack
            span = [name_id, 0.0, 0.0, stack[-1][-1] if stack else -1, tracer.op, 0, 0.0, flags]
            tracer.spans.append(span)
            stack.append((span, len(tracer.spans) - 1))
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                stack.pop()
                if isinstance(exc, tracer._audit_error):
                    span[FLAGS] |= RAISED
                if hook is not None:
                    hook(tracer, args, kwargs, None, exc)
                raise
            span[END] = time.perf_counter()
            stack.pop()
            if hook is not None:
                result = hook(tracer, args, kwargs, result, None)
            return result

        return wrapper

    def _wrap_kernel(self, name: str, fn):
        tracer = self
        calls, secs = self.kernel_calls, self.kernel_s

        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            if tracer.op != SETUP_OP:
                calls[name] += 1
                secs[name] += elapsed
            if tracer._stack:
                span = tracer._stack[-1][0]
                span[KCALLS] += 1
                span[KSEC] += elapsed
            return result

        return kernel

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function; ``uninstall`` undoes it."""
        import numpy as np
        import lasso_audit
        from lasso_audit.core import GramMatrix
        from lasso_audit.errors import AuditError

        if self._patched:
            raise RuntimeError("tracer already installed")
        self._audit_error = AuditError
        self._gram_type = GramMatrix
        owners = [lasso_audit] + [importlib.import_module(f"lasso_audit.{layer}")
                                  for layer in LAYERS]
        wrappers = {}
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if not inspect.isfunction(value) or value.__name__.startswith("_"):
                    continue
                layer = value.__module__.rsplit(".", 1)[-1]
                if not value.__module__.startswith("lasso_audit.") or layer not in LAYERS:
                    continue
                if value not in wrappers:
                    name = f"{layer}.{value.__name__}"
                    hook, prepare = _HOOKS.get(name, (None, None))
                    wrappers[value] = self._wrap(name, value, hook, prepare)
                self._set(owner, attr, wrappers[value])
        self._set(GramMatrix, "__post_init__",
                  self._wrap("core.GramMatrix", GramMatrix.__post_init__))
        for sub, attr in KERNELS:
            owner = getattr(np, sub) if sub else np
            self._set(owner, attr, self._wrap_kernel(attr, getattr(owner, attr)))

    def uninstall(self) -> list:
        """Restore every patched attribute; returns those not restored."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        leftovers = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched
                     if getattr(o, a) is not orig]
        self._patched = []
        return leftovers

    def dump(self, path: str) -> None:
        """Write the span table as JSON lines (names first)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": [
                "name", "start", "end", "parent", "op", "kernel_calls", "kernel_s",
                "flags"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- hooks: counters read from arguments, results and exceptions ------------


def _load_csv(tracer, args, kwargs, result, exc):
    if exc is None:
        path = args[0] if args else kwargs["path"]
        tracer.count("cli.load_csv_mb", os.path.getsize(path) / 1e6)
    return result


def _enumerate(tracer, args, kwargs, result, exc):
    if exc is not None:
        return result

    def counted(items):
        for item in items:
            tracer.count("core.subsets_enumerated")
            yield item

    return counted(result)


def _pg_prepare(tracer, args, kwargs):
    args = list(args)
    projection = args[2] if len(args) > 2 else kwargs["projection"]

    def counted(x):
        tracer.count("solvers.pg_projections")
        return projection(x)

    if len(args) > 2:
        args[2] = counted
    else:
        kwargs = dict(kwargs, projection=counted)
    return tuple(args), kwargs


def _pg(tracer, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "MaxItersExceeded":
        tracer.count("solvers.pg_unconverged")
    return result


def _cd(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("solvers.cd_sweeps", result[2])
    elif getattr(exc, "best", None):
        tracer.count("solvers.cd_sweeps", exc.best[2])
    return result


def _simplex(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("solvers.simplex_pivots", result.pivots)
    else:
        tracer.count("solvers.simplex_failures")
    return result


def _check_all(tracer, args, kwargs, result, exc):
    if exc is None:
        skipped = sum(1 for v in result if v.holds is None)
        tracer.count("implications.edges_skipped", skipped)
        tracer.count("implications.edges_evaluated", len(result) - skipped)
    return result


_SIGNS = re.compile(r"closed_form=(\d+), projected_gradient=(\d+)")


def _compat(tracer, args, kwargs, result, exc):
    if exc is None:
        match = _SIGNS.search(result.provenance)
        if match:
            tracer.count("estimators.compat_closed_form_signs", int(match.group(1)))
            tracer.count("estimators.compat_pg_signs", int(match.group(2)))
    return result


_HOOKS = {
    "cli.load_matrix_csv": (_load_csv, None),
    "core.enumerate_supersets": (_enumerate, None),
    "solvers.projected_gradient_qp": (_pg, _pg_prepare),
    "solvers.coordinate_descent_lasso": (_cd, None),
    "solvers.simplex_lp": (_simplex, None),
    "implications.check_all": (_check_all, None),
    "estimators.compatibility_constant": (_compat, None),
}


# -- analysis ----------------------------------------------------------------


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def _outermost(spans, selected) -> list:
    """Indices of selected spans with no selected ancestor."""
    out = []
    for i, span in enumerate(spans):
        if not selected[i]:
            continue
        parent = span[PARENT]
        while parent >= 0 and not selected[parent]:
            parent = spans[parent][PARENT]
        if parent < 0:
            out.append(i)
    return out


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics: per operation, except set-up figures (per set-up)."""
    spans, names = tracer.spans, tracer.names
    selfs = self_times(spans)
    layer_of = [names[s[NAME]].split(".", 1)[0] for s in spans]
    name_of = [names[s[NAME]] for s in spans]
    in_ops = [s[OP] >= 0 for s in spans]
    per = 1.0 / max(n_ops, 1)

    def inclusive(pred, op_phase=True):
        selected = [in_ops[i] == op_phase and pred(i) for i in range(len(spans))]
        return sum(spans[i][END] - spans[i][START] for i in _outermost(spans, selected))

    def self_sum(pred):
        return sum(selfs[i] for i in range(len(spans)) if in_ops[i] and pred(i))

    def calls(pred):
        return sum(1 for i in range(len(spans)) if in_ops[i] and pred(i))

    def named(fn):
        return lambda i: name_of[i] == fn

    def layer(lay):
        return lambda i: layer_of[i] == lay

    def counter(key):
        return tracer.counters.get(key, 0) * per

    constants = layer("constants")
    constants_total = inclusive(constants)
    discarded = inclusive(lambda i: constants(i) and spans[i][FLAGS] & RAISED)
    repeat_s = inclusive(lambda i: constants(i) and spans[i][FLAGS] & REPEAT)
    linalg_s = sum(tracer.kernel_s[k] for k in ("svd", "eigvalsh", "eigh"))
    m = {
        "cli.load_csv_s": (inclusive(lambda i: name_of[i] in (
            "cli.load_matrix_csv", "cli.load_vector_csv")) * per, "s"),
        "cli.load_csv_mb": (counter("cli.load_csv_mb"), "MB"),
        "cli.save_csv_s": (inclusive(named("cli.save_matrix_csv"), op_phase=False), "s"),
        "core.gram_validate_s": (inclusive(named("core.GramMatrix")) * per, "s"),
        "core.gram_validate_calls": (calls(named("core.GramMatrix")) * per, "count"),
        "core.subsets_enumerated": (counter("core.subsets_enumerated"), "count"),
        "core.block_calls": (calls(named("core.block")) * per, "count"),
        "constants.self_s": (self_sum(constants) * per, "s"),
    }
    for fn in ("theta_uniform", "restricted_orthogonality", "uniform_eigenvalue",
               "irrepresentable_signed"):
        m[f"constants.{fn}_s"] = (self_sum(named(f"constants.{fn}")) * per, "s")
    m.update({
        "constants.repeat_calls": (calls(lambda i: constants(i) and spans[i][FLAGS] & REPEAT)
                                   * per, "count"),
        "constants.repeat_s": (repeat_s * per, "s"),
        "constants.discarded_s": (discarded * per, "s"),
        "constants.useful_ratio": (1.0 - discarded / constants_total
                                   if constants_total > 0 else 1.0, "ratio"),
        "numpy.svd_calls": (tracer.kernel_calls["svd"] * per, "count"),
        "numpy.eigvalsh_calls": (tracer.kernel_calls["eigvalsh"] * per, "count"),
        "numpy.eigh_calls": (tracer.kernel_calls["eigh"] * per, "count"),
        "numpy.ix_calls": (tracer.kernel_calls["ix_"] * per, "count"),
        "numpy.linalg_s": (linalg_s * per, "s"),
    })
    for fn in ("restricted_eigenvalue", "restricted_regression", "certified_lower_phi"):
        m[f"estimators.{fn}_s"] = (inclusive(named(f"estimators.{fn}")) * per, "s")
    m.update({
        "estimators.certified_lower_phi_calls": (
            calls(named("estimators.certified_lower_phi")) * per, "count"),
        "estimators.repeat_calls": (calls(lambda i: layer_of[i] == "estimators"
                                          and spans[i][FLAGS] & REPEAT) * per, "count"),
        "estimators.compatibility_s": (
            inclusive(named("estimators.compatibility_constant")) * per, "s"),
        "estimators.compat_pg_signs": (counter("estimators.compat_pg_signs"), "count"),
        "estimators.compat_closed_form_signs": (
            counter("estimators.compat_closed_form_signs"), "count"),
        "solvers.projected_gradient_s": (
            inclusive(named("solvers.projected_gradient_qp")) * per, "s"),
        "solvers.pg_calls": (calls(named("solvers.projected_gradient_qp")) * per, "count"),
        "solvers.pg_projections": (counter("solvers.pg_projections"), "count"),
        "solvers.pg_unconverged": (counter("solvers.pg_unconverged"), "count"),
        "solvers.coordinate_descent_s": (
            inclusive(named("solvers.coordinate_descent_lasso")) * per, "s"),
        "solvers.cd_sweeps": (counter("solvers.cd_sweeps"), "count"),
        "solvers.simplex_s": (inclusive(named("solvers.simplex_lp")) * per, "s"),
        "solvers.simplex_pivots": (counter("solvers.simplex_pivots"), "count"),
        "solvers.simplex_failures": (counter("solvers.simplex_failures"), "count"),
        "lasso.self_s": (self_sum(layer("lasso")) * per, "s"),
        "implications.check_all_s": (inclusive(named("implications.check_all")) * per, "s"),
        "implications.edges_evaluated": (counter("implications.edges_evaluated"), "count"),
        "implications.edges_skipped": (counter("implications.edges_skipped"), "count"),
        "experiments.concentration_s": (
            inclusive(named("experiments.concentration_experiment")) * per, "s"),
        "experiments.noise_bound_s": (
            inclusive(named("experiments.noise_bound_experiment")) * per, "s"),
        "experiments.generate_s": (inclusive(layer("experiments"), op_phase=False), "s"),
    })
    for value, _ in m.values():
        if not math.isfinite(value):
            raise ValueError("non-finite per-layer metric")
    return m
