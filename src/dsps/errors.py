"""Exception taxonomy shared across the package.

There is one class per way a caller reacts, and no other: a check that needs
no reaction of its own raises :class:`DspsError` itself.  The CLI maps the
classes to exit codes (``DspsError`` 1, :class:`InfeasibleError` 2,
:class:`AllDrawsDegenerate` 3, :class:`SolverFailure` 4), and
:func:`dsps.realize.draw_best` scores a draw that raises
:class:`InsufficientData` as RSSE ``+inf``.
"""

__all__ = [
    "DspsError", "InsufficientData", "InfeasibleError", "AllDrawsDegenerate", "SolverFailure",
]


class DspsError(Exception):
    """Base class for all library errors, and the one raised for bad input."""


class InsufficientData(DspsError):
    """A statistic is undefined: no members, too few members, zero spread, or too little weight."""


class InfeasibleError(DspsError):
    """No probability vector satisfies the constraint system.

    ``violation`` carries the smallest total constraint violation found,
    which is the solver's infeasibility certificate.
    """

    def __init__(self, message: str, violation: float | None = None):
        super().__init__(message)
        self.violation = violation


class AllDrawsDegenerate(DspsError):
    """Every realized draw was unusable (empty or too small to score)."""


class SolverFailure(DspsError):
    """The LP solve broke down numerically, stopped at its iteration limit without an optimum,
    or called a program infeasible without a positive safe bound on its least violation."""
