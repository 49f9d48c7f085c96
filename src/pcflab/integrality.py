"""S-integrality of PCF parameters relative to a base point, via resultants.

Two conjugates meet at a finite place exactly when they fall into the same
residue class there. For a monic factor B (PCF parameters are algebraic
integers) and the primitive minimal polynomial A of the base point, the
candidate primes come from the prime support of Res(B, A); where A is
non-integral (p divides its leading coefficient) the resultant normalization
is ambiguous, and the verdict is settled by the exact residue-field test:
B mod p and A mod p share a root in the algebraic closure of F_p iff their
gcd over F_p is nonconstant (the non-integral conjugates of A drop out of the
reduction, which is exactly what the definition requires).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .critical_orbit import enumerate_factors
from .errors import HypothesisViolated
from .heights import AlgebraicNumber, as_algebraic, is_pcf_parameter
from .numtheory import factorize, is_prime
from .polynomials import IntPolynomial, gcd_degree_mod, resultant


@dataclass(frozen=True)
class PrimeSet:
    """Finite set of rational primes; the archimedean place is always implied."""

    primes: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("duplicate primes")
        if list(self.primes) != sorted(self.primes):
            raise ValueError("primes must be sorted")
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    @classmethod
    def of(cls, primes: Iterable[int]) -> "PrimeSet":
        return cls(tuple(sorted(set(int(p) for p in primes))))

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __len__(self) -> int:
        return len(self.primes)


@dataclass(frozen=True)
class IntegralityVerdict:
    meeting_primes: frozenset[int]
    is_S_integral: bool


def meeting_test_exact(B: IntPolynomial, A: IntPolynomial, p: int) -> bool:
    """Whether some integral conjugate pair meets at p (residue-field gcd).

    The reduction of A mod p is, up to a unit, the reduction of its integral
    slope factor, so its roots in the residue field are exactly the
    reductions of the p-integral conjugates; pairs where the base conjugate
    is non-integral can never meet a monic B. The decision is complete --
    no lifting cutoff is involved.
    """
    if not B.is_monic:
        raise ValueError("factor polynomial must be monic")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # A mod p constant (every base conjugate non-integral at p) gives degree 0,
    # A mod p zero gives -1: neither is a meeting
    return gcd_degree_mod(B, A, p) >= 1


def is_S_integral(
    B: IntPolynomial,
    alpha: Union[AlgebraicNumber, Fraction, int],
    S: Union[PrimeSet, Iterable[int]],
) -> IntegralityVerdict:
    """Verdict for one squarefree monic factor B against the base point.

    The meeting primes are the primes of Res(B, A) that do not divide
    lead(A), where the resultant support is exact, and the primes of lead(A)
    where the exact residue test holds.
    """
    if not isinstance(S, PrimeSet):
        S = PrimeSet.of(S)
    A = as_algebraic(alpha).min_poly
    if not B.is_monic:
        raise ValueError("factor polynomial must be monic")
    r = resultant(B, A)
    if r == 0:
        raise ValueError("factor shares a root with the base point")
    lead = abs(A.lead)
    meeting = {p for p in (factorize(r) if abs(r) > 1 else {}) if lead % p}
    if lead > 1:
        meeting.update(p for p in factorize(lead) if meeting_test_exact(B, A, p))
    return IntegralityVerdict(frozenset(meeting), meeting.issubset(S.primes))


@dataclass(frozen=True)
class CensusRow:
    kind: str
    m: Optional[int]
    n: int
    label: str  # the factor's FactorDescriptor.label
    degree: int
    meeting_primes: tuple[int, ...]
    is_S_integral: bool


@dataclass(frozen=True)
class CensusResult:
    d: int
    max_n: int
    alpha_label: str
    S: PrimeSet
    rows: tuple[CensusRow, ...]
    threshold: float  # orbit-size threshold shape C1 |S|^3 D^8 at C1 = 1

    @property
    def s_integral_count(self) -> int:
        return sum(1 for r in self.rows if r.is_S_integral)

    def to_tsv(self) -> str:
        lines = ["kind\tm\tn\tdegree\tmeeting_primes\tS_integral"]
        for r in self.rows:
            primes = ",".join(str(p) for p in r.meeting_primes) if r.meeting_primes else "-"
            lines.append(
                f"{r.kind}\t{r.m if r.m is not None else '-'}\t{r.n}\t{r.degree}"
                f"\t{primes}\t{'yes' if r.is_S_integral else 'no'}"
            )
        return "\n".join(lines) + "\n"


def census(
    d: int,
    max_n: int,
    alpha,
    S: Union[PrimeSet, Iterable[int]],
) -> CensusResult:
    """Integrality verdicts for every factor up to level max_n.

    Strictly enforces the theorem hypothesis: a post-critically finite base
    point is rejected with HypothesisViolated. Misiurewicz rows use the
    strictly-preperiodic part and are skipped when it is trivial.
    """
    if not isinstance(S, PrimeSet):
        S = PrimeSet.of(S)
    alpha = as_algebraic(alpha)
    if is_pcf_parameter(d, alpha):
        raise HypothesisViolated("base point is post-critically finite")
    field_degree = alpha.degree
    from .bounds import thm15_threshold

    rows = []
    for desc in enumerate_factors(d, max_n):
        poly = desc.poly if desc.kind == "exact-period" else desc.strict_poly
        if poly.degree < 1:
            continue
        verdict = is_S_integral(poly, alpha, S)
        rows.append(
            CensusRow(
                kind=desc.kind,
                m=desc.m,
                n=desc.n,
                label=desc.label,
                degree=poly.degree,
                meeting_primes=tuple(sorted(verdict.meeting_primes)),
                is_S_integral=verdict.is_S_integral,
            )
        )
    return CensusResult(
        d=d,
        max_n=max_n,
        alpha_label=alpha.label,
        S=S,
        rows=tuple(rows),
        threshold=thm15_threshold(1.0, max(1, len(S) + 1), field_degree),
    )
