"""Output checks against the reference made at the benchmark's first commit.

- Polynomial files are compared by SHA-256, census TSVs byte for byte.
- Root sets are compared as certified disks, never by sort index: the real
  parts of conjugate pairs tie.  Each disk must meet exactly one reference
  disk and every radius must be at most 2^-(bits/2) (1 + |c|).
- Printed numbers may differ by one unit in the last printed digit of each
  side plus the operation's certified error; every other token must match.
- Census rows for an integer base point are re-derived from the exact
  resultant, independently of pcflab's factoring.
"""

from __future__ import annotations

import hashlib
import math
import re
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

# Reference centers are stored to 13 significant digits; a reference disk of
# this relative radius contains the true root with a wide margin, and the
# reference generator checks that these disks are pairwise disjoint.
REF_DISK_REL = 2.0**-40


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree(root: Path) -> dict[str, Path]:
    """Relative path -> path of every regular file below root."""
    root = Path(root)
    if not root.exists():
        return {}
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*")) if p.is_file()}


def tree_state(root: Path) -> dict[str, tuple[str, int]]:
    """Content hash and mtime of every file, to prove a run changed nothing."""
    return {rel: (sha256_file(p), p.stat().st_mtime_ns) for rel, p in tree(root).items()}


# -- root sets -------------------------------------------------------------------


def _token_float(tok: str) -> float:
    sign, man, exp = tok.split(":")
    value = math.ldexp(int(man, 16), int(exp))
    return -value if sign == "1" else value


def parse_roots(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(precision bits, centers, radii) of a root file; raises ValueError."""
    header = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                header[key] = value
        elif line.strip():
            rows.append(line.split())
    if "precision-bits" not in header:
        raise ValueError("no precision-bits header")
    if "count" in header and int(header["count"]) != len(rows):
        raise ValueError(f"header count {header['count']} but {len(rows)} roots")
    if any(len(r) != 3 for r in rows):
        raise ValueError("a root line does not hold center and radius")
    centers = np.array([complex(_token_float(a), _token_float(b)) for a, b, _ in rows])
    radii = np.array([_token_float(r) for _, _, r in rows])
    return int(header["precision-bits"]), centers, radii


def reference_centers(text: str) -> list[list[float]]:
    _, centers, _ = parse_roots(text)
    return [[float(f"{z.real:.13g}"), float(f"{z.imag:.13g}")] for z in centers]


def disks_disjoint(centers: np.ndarray) -> bool:
    rad = REF_DISK_REL * (1 + np.abs(centers))
    for i0 in range(0, len(centers), 512):
        blk = slice(i0, i0 + 512)
        dist = np.abs(centers[blk, None] - centers[None, :])
        idx = np.arange(i0, min(i0 + 512, len(centers)))
        dist[idx - i0, idx] = np.inf
        if (dist <= rad[blk, None] + rad[None, :]).any():
            return False
    return True


def check_roots(text: str, ref: list[list[float]]) -> list[str]:
    try:
        bits, centers, radii = parse_roots(text)
    except ValueError as exc:
        return [f"unreadable root set: {exc}"]
    refc = np.array([complex(a, b) for a, b in ref])
    if len(centers) != len(refc):
        return [f"{len(centers)} roots, reference has {len(refc)}"]
    problems = []
    limit = 2.0 ** -(bits // 2) * (1 + np.abs(centers))
    if (radii > limit).any() or (radii < 0).any():
        problems.append(f"{int((radii > limit).sum())} radii above 2^-{bits // 2}(1+|c|)")
    ref_rad = REF_DISK_REL * (1 + np.abs(refc))
    per_disk = np.zeros(len(centers), dtype=np.int64)
    per_ref = np.zeros(len(refc), dtype=np.int64)
    for i0 in range(0, len(centers), 512):
        blk = slice(i0, i0 + 512)
        meets = np.abs(centers[blk, None] - refc[None, :]) <= radii[blk, None] + ref_rad[None, :]
        per_disk[blk] = meets.sum(axis=1)
        per_ref += meets.sum(axis=0)
    if (per_disk != 1).any() or (per_ref != 1).any():
        problems.append(
            f"{int((per_disk != 1).sum())} disks do not meet exactly one reference disk"
        )
    return problems


# -- printed text ----------------------------------------------------------------

_SPLIT = re.compile(r"[ \t]+")


def _number(tok: str):
    """A printed floating-point number, or None; integers must match exactly."""
    if not any(ch in tok for ch in ".eE"):
        return None
    try:
        value = Decimal(tok)
    except InvalidOperation:
        return None
    return value if value.is_finite() else None


def _ulp(value: Decimal) -> Decimal:
    return Decimal(1).scaleb(value.as_tuple().exponent)


def compare_text(actual: str, ref: str, abs_err: float) -> list[str]:
    """Token-wise comparison; numbers within one printed unit on each side
    plus abs_err, the certified error of the printed quantities."""
    a_lines, r_lines = actual.splitlines(), ref.splitlines()
    if len(a_lines) != len(r_lines):
        return [f"{len(a_lines)} lines, reference has {len(r_lines)}"]
    err = Decimal(abs_err)
    for k, (a_line, r_line) in enumerate(zip(a_lines, r_lines), 1):
        a_toks, r_toks = _SPLIT.split(a_line), _SPLIT.split(r_line)
        if len(a_toks) != len(r_toks):
            return [f"line {k}: {a_line!r} != {r_line!r}"]
        for a_tok, r_tok in zip(a_toks, r_toks):
            if a_tok == r_tok:
                continue
            a_num, r_num = _number(a_tok), _number(r_tok)
            if a_num is None or r_num is None:
                return [f"line {k}: {a_tok!r} != {r_tok!r}"]
            if abs(a_num - r_num) > _ulp(a_num) + _ulp(r_num) + err:
                return [f"line {k}: {a_tok} differs from {r_tok} beyond tolerance"]
    return []


def check_file(path: Path, spec: dict, abs_err: float) -> list[str]:
    if "sha256" in spec:
        return [] if sha256_file(path) == spec["sha256"] else ["bytes differ from reference"]
    if "roots" in spec:
        return check_roots(path.read_text(), spec["roots"])
    text = path.read_text()
    if spec.get("exact"):
        return [] if text == spec["text"] else ["bytes differ from reference"]
    return compare_text(text, spec["text"], abs_err)


def file_spec(rel: str, path: Path) -> dict:
    """Reference entry for one output file, by the rule for its kind."""
    if rel.endswith(".poly"):
        return {"sha256": sha256_file(path)}
    if rel.endswith(".roots"):
        return {"roots": reference_centers(path.read_text())}
    return {"text": path.read_text(), "exact": "/census-" in "/" + rel}


# -- census verdicts from the exact resultant -----------------------------------


def census_rows_from_resultant(d: int, max_n: int, alpha: int, S: set[int]) -> dict:
    """(kind, m, n) -> (degree, |Res(B, x - alpha)|, S-integral) per census row.

    For a monic integer base point the resultant of a monic factor B with
    x - alpha is +-B(alpha); the row is S-integral exactly when stripping the
    primes of S from it leaves 1.
    """
    from pcflab.critical_orbit import enumerate_factors

    rows = {}
    for desc in enumerate_factors(d, max_n):
        poly = desc.poly if desc.kind == "exact-period" else desc.strict_poly
        if poly is None or poly.degree < 1:
            continue
        res = 0
        for c in reversed(poly.coeffs):
            res = res * alpha + c
        res = abs(res)
        rest = res
        for p in S:
            while rest and rest % p == 0:
                rest //= p
        rows[(desc.kind, desc.m, desc.n)] = (poly.degree, res, rest == 1)
    return rows


def check_census_text(text: str, expected: dict) -> list[str]:
    """Each TSV row of an integral-scan report against the re-derived rows."""
    problems = []
    seen = set()
    for line in text.splitlines():
        parts = line.split("\t")
        if len(parts) != 6 or parts[0] not in ("exact-period", "misiurewicz"):
            continue
        kind, m, n, degree, primes, verdict = parts
        key = (kind, None if m == "-" else int(m), int(n))
        seen.add(key)
        if key not in expected:
            problems.append(f"row {key} not expected")
            continue
        deg, res, s_integral = expected[key]
        if int(degree) != deg or verdict != ("yes" if s_integral else "no"):
            problems.append(f"row {key}: degree {degree}, verdict {verdict} disagree")
            continue
        rest = res
        for p in ([] if primes == "-" else [int(x) for x in primes.split(",")]):
            if p < 2 or rest % p:
                problems.append(f"row {key}: {p} does not divide the resultant")
                break
            while rest % p == 0:
                rest //= p
        if rest != 1:
            problems.append(f"row {key}: meeting primes do not exhaust the resultant")
    missing = set(expected) - seen
    if missing:
        problems.append(f"{len(missing)} census rows missing")
    return problems
