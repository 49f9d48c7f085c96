"""Exception hierarchy shared across the package.

Every error that a command-line run can surface carries its stable exit code
as ``exit_code`` (listed in :mod:`pcflab.cli`), so library code raises these
instead of bare ValueError wherever the failure is part of the documented
contract.
"""

from __future__ import annotations


class PcfLabError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 10


class NotDivisible(PcfLabError):
    """Exact polynomial division left a nonzero remainder or a non-integer quotient."""
    exit_code = 8


class DegreeCapExceeded(PcfLabError):
    """A requested critical-orbit polynomial exceeds the degree cap (4096)."""
    exit_code = 3


class FactorizationStructureViolated(PcfLabError):
    """An exact division in the critical-orbit factor lattice left a remainder.

    Raised instead of silently mislabeling orbits: any (d, n) for which the
    recursive factor extraction does not divide exactly aborts loudly.
    """
    exit_code = 6


class NonSquarefreeInput(PcfLabError):
    """Root finding was asked to isolate roots of a polynomial with repeated roots."""
    exit_code = 8


class PrecisionExhausted(PcfLabError):
    """Certification failed at the configured maximum working precision."""
    exit_code = 5


class KernelSingular(PcfLabError):
    """A log-distance kernel was evaluated at (or indistinguishably near) a root."""
    exit_code = 7


class HypothesisViolated(PcfLabError):
    """An operation requires a non post-critically finite base point and got one."""
    exit_code = 4


class HypothesisUndecided(PcfLabError):
    """The post-critically-finite gate could not be decided within its budget."""
    exit_code = 9

