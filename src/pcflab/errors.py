"""Exception hierarchy shared across the package.

Every error that a command-line run can surface maps to a stable exit code
(see :mod:`pcflab.cli`), so library code raises these instead of bare
ValueError wherever the failure is part of the documented contract.
"""

from __future__ import annotations


class PcfLabError(Exception):
    """Base class for all package-specific errors."""


class NotDivisible(PcfLabError):
    """Exact polynomial division left a nonzero remainder or a non-integer quotient."""


class DegreeCapExceeded(PcfLabError):
    """A requested critical-orbit polynomial exceeds the degree cap (4096)."""


class FactorizationStructureViolated(PcfLabError):
    """An exact division in the critical-orbit factor lattice left a remainder.

    Raised instead of silently mislabeling orbits: any (d, n) for which the
    recursive factor extraction does not divide exactly aborts loudly.
    """


class NonSquarefreeInput(PcfLabError):
    """Root finding was asked to isolate roots of a polynomial with repeated roots."""


class PrecisionExhausted(PcfLabError):
    """Certification failed at the configured maximum working precision."""


class KernelSingular(PcfLabError):
    """A log-distance kernel was evaluated at (or indistinguishably near) a root."""


class HypothesisViolated(PcfLabError):
    """An operation requires a non post-critically finite base point and got one."""


class HypothesisUndecided(PcfLabError):
    """The post-critically-finite gate could not be decided within its budget."""

