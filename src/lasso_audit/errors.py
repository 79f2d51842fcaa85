"""Exception taxonomy shared by all modules.

Every error raised by this package derives from AuditError so callers can
catch one base class at the CLI boundary, and each failure mode has one class.
"""


class AuditError(Exception):
    pass


class InvalidParameter(AuditError):
    pass


class ParseError(AuditError):
    """Malformed input file; carries 1-based line and column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class CapExceeded(AuditError):
    """An enumeration would exceed its configured cap; carries the required count."""

    def __init__(self, required, cap, what="enumeration"):
        self.required = required
        self.cap = cap
        super().__init__(f"{what} needs {required} items, cap is {cap}; raise the cap to proceed")


class MaxItersExceeded(AuditError):
    """Iterative solver hit its iteration budget; carries the best iterate
    found, or None for the simplex, which keeps none."""

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)


class SingularBlock(AuditError):
    """A Sigma block a computation needs is numerically singular: a Sigma_11
    block, every candidate block, Lambda^2(S, N) or a diagonal entry."""


class DenominatorNonPositive(AuditError):
    """A denominator that must be positive, such as 1 - delta_s - theta_ss or
    a certified phi^2 lower bound, is not."""
