"""Command-line front end: enumeration, scans, reports, plots.

Every command is deterministic for a fixed configuration: caches are written
atomically with content-hash headers, reports use fixed-format numeric
printing, and plot bytes are pure functions of the config. Reruns leave
byte-identical files behind.

Root-cache misses are isolated on this process plus one forked child, when
two or more CPUs are usable; outputs, caches and exit codes are those of a
serial run, and there is no flag for it.

Exit codes:
  0  success
  2  usage or configuration error, a coefficient over 900 bits of a degree >= 2 --alpha included
  3  degree cap exceeded
  4  hypothesis violated (post-critically finite base point)
  5  precision exhausted
  6  factor structure violated
  7  kernel singular (evaluation point collides with the parameter set)
  8  exact-division / squarefree precondition failure
  9  undecidable hypothesis gate at desk-scale budget
 10  other package error
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import mpmath as mp

from . import __version__
from .cacheio import atomic_write_bytes, atomic_write_text, remove_temp_files
from .critical_orbit import (
    check_degree_cap,
    enumerate_factors,
    factor_evaluator,
    gleason,
    gleason_evaluator,
    write_gleason_cache,
)
from .equidist import TSV_HEADER, discrepancy_report, fitted_min_constant
from .errors import (
    DegreeCapExceeded,
    FactorizationStructureViolated,
    HypothesisUndecided,
    HypothesisViolated,
    KernelSingular,
    NonSquarefreeInput,
    NotDivisible,
    PcfLabError,
    PrecisionExhausted,
)
from .heights import AlgebraicNumber
from .integrality import PrimeSet, census
from .bounds import (
    degree_lower_bound_check,
    pcf_modulus_bound,
    pcf_modulus_check,
    separation_check,
    thm15_threshold,
)
from .polynomials import serialize
from .rootfinder import (
    all_roots,
    factor_roots_cache_path,
    read_roots_cache,
    roots_cache_path,
    write_roots_cache,
)

CONFIG_VERSION = "1"
CONFIG_KEYS = ("version", "d", "max_n", "bits", "alpha", "S", "tau", "C", "plot", "cache", "format")

_EXIT_CODES = [
    (DegreeCapExceeded, 3),
    (HypothesisViolated, 4),
    (PrecisionExhausted, 5),
    (FactorizationStructureViolated, 6),
    (KernelSingular, 7),
    (NotDivisible, 8),
    (NonSquarefreeInput, 8),
    (HypothesisUndecided, 9),
    (PcfLabError, 10),
]


@dataclass(frozen=True)
class RunConfig:
    command: str
    d: int = 2
    max_n: int = 5
    bits: int = 256
    alpha_spec: str = "1"
    s_primes: tuple[int, ...] = ()
    tau: float = 0.5
    C: float = 1.0
    plot: bool = False
    cache_dir: Path = Path("cache")
    out_format: str = "tsv"  # "tsv" | "text"

    def validate(self) -> "RunConfig":
        if self.d < 2:
            raise ValueError("--d must be >= 2")
        if self.max_n < 1:
            raise ValueError("--max-n must be >= 1")
        if self.command == "equidist" and self.max_n < 2:
            raise ValueError("equidist needs --max-n >= 2 (its levels start at n = 2)")
        if not 16 <= self.bits <= 4096:
            raise ValueError("--bits must lie in [16, 4096]")
        if not 0 < self.tau < 1:
            raise ValueError("--tau must lie in (0, 1)")
        if not self.C > 0:
            raise ValueError("--C must be > 0")
        if self.out_format not in ("tsv", "text"):
            raise ValueError("format must be tsv or text")
        return self


def parse_alpha(spec: str) -> AlgebraicNumber:
    """Either a rational 'a/b', or minimal-polynomial coefficients
    'c0,c1,...,ck[:root_index]' in ascending order."""
    spec = spec.strip()
    if "," in spec:
        root_index = 0
        body = spec
        if ":" in spec:
            body, _, idx = spec.rpartition(":")
            root_index = int(idx)
        coeffs = [int(tok) for tok in body.split(",")]
        return AlgebraicNumber.from_min_poly(coeffs, root_index)
    try:
        return AlgebraicNumber.from_rational(Fraction(spec))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {spec!r}") from exc


def load_config_file(path: Path) -> dict:
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = val.strip()
    if values.get("version") != CONFIG_VERSION:
        raise ValueError(f"config must declare version={CONFIG_VERSION}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcf-lab",
        description="Laboratory for post-critically finite parameters of z^d + c.",
        epilog="Exit codes:" + __doc__.split("Exit codes:")[1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"pcf-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("enumerate", "generate polynomial/factor/root caches"),
        ("integral-scan", "S-integrality census of PCF factors"),
        ("equidist", "equidistribution discrepancy table"),
        ("bounds", "evaluate and check the explicit bound family"),
        ("plot", "escape-time raster with PCF parameters overlaid"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--d", type=int, default=None, help="family degree (>= 2)")
        p.add_argument("--max-n", type=int, default=None, help="largest orbit level")
        p.add_argument("--bits", type=int, default=None, help="root precision in bits")
        p.add_argument(
            "--alpha",
            type=str,
            default=None,
            help="base point: rational a/b, or min-poly coefficients c0,c1,..[:root]",
        )
        p.add_argument("--S", type=str, default=None, help="comma-separated primes")
        p.add_argument(
            "--tau", type=float, default=None, help="in (0,1): the 1/tau term of the rate-shape bound"
        )
        p.add_argument(
            "--C", type=float, default=None, help="> 0: constant factor of the rate-shape bound and of thm15-threshold"
        )
        p.add_argument("--plot", action="store_true", default=None, help="emit an SVG plot")
        p.add_argument("--cache", type=str, default=None, help="cache directory")
        p.add_argument("--config", type=str, default=None, help="key=value config file")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_vals: dict[str, str] = {}
    if args.config:
        file_vals = load_config_file(Path(args.config))

    def pick(flag, key, cast, default):
        if flag is not None:
            return cast(flag)
        if key in file_vals:
            return cast(file_vals[key])
        return default

    s_raw = pick(args.S, "S", str, "")
    primes = tuple(int(tok) for tok in s_raw.split(",") if tok.strip()) if s_raw else ()
    cfg = RunConfig(
        command=args.command,
        d=pick(args.d, "d", int, 2),
        max_n=pick(args.max_n, "max_n", int, 5),
        bits=pick(args.bits, "bits", int, 256),
        alpha_spec=pick(args.alpha, "alpha", str, "1"),
        s_primes=primes,
        tau=pick(args.tau, "tau", float, 0.5),
        C=pick(args.C, "C", float, 1.0),
        plot=bool(pick(args.plot, "plot", lambda v: str(v).lower() in ("1", "true", "yes"), False)),
        cache_dir=Path(pick(args.cache, "cache", str, "cache")),
        out_format=pick(None, "format", str, "tsv"),
    )
    return cfg.validate()


# -- shared cache-backed root lookup ---------------------------------------------


def cached_root_sets(jobs):
    """Root sets of jobs (path, poly, bits, evaluator), in job order.

    Every cache is read first. With two or more misses and two or more usable
    CPUs (one where os.sched_getaffinity does not exist, as on macOS and
    Windows), the misses are split in two shares by degree, and a forked
    child isolates one share; the caches it writes are its only output. This
    process isolates the other share, reads the child's caches back exactly,
    and isolates here whatever the child left unwritten: every job is
    deterministic, so a job that failed there fails here with the same error.
    Each job runs even after another fails; the error raised is that of the
    lowest-indexed failing job, the one a serial loop raises.
    """
    jobs = list(jobs)
    sets = [read_roots_cache(path, poly, bits) for path, poly, bits, _ in jobs]
    misses = [i for i, ps in enumerate(sets) if ps is None]
    mine, theirs, pid = misses, [], 0
    if len(misses) >= 2 and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
        mine, theirs = _split_by_degree(jobs, misses)
        # both sides isolate on numpy: imported once here, the child
        # inherits it rather than paying its 0.1 s of CPU again
        import numpy

        try:
            # fork, not spawn: the CLI runs no threads, and a spawned child
            # would pay the 0.17 s set-up again and rebuild the polynomials
            pid = os.fork()
        except OSError:  # no process to spare: a serial run
            mine, theirs = misses, []
        else:
            if pid == 0:
                try:
                    _isolate(jobs, theirs, sets)
                finally:
                    # no atexit hooks, and no flush of the buffers inherited
                    # from this process; the child's errors are raised here
                    os._exit(0)
    child = pid
    try:
        errors = _isolate(jobs, mine, sets)
        if pid:
            os.waitpid(pid, 0)
            pid = 0
    finally:
        if pid:
            import signal  # here, so that a run that forks nothing imports nothing new

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        # a child killed inside os.replace leaves its temp file behind
        for i in theirs:
            remove_temp_files(jobs[i][0], child)
    for i in theirs:
        path, poly, bits, _ = jobs[i]
        sets[i] = read_roots_cache(path, poly, bits)
    errors.update(_isolate(jobs, [i for i in theirs if sets[i] is None], sets))
    if errors:
        raise errors[min(errors)]
    return sets


def _split_by_degree(jobs, misses):
    """Two shares of misses, largest degree first, each to the lighter share."""
    shares, loads = ([], []), [0, 0]
    for i in sorted(misses, key=lambda i: -jobs[i][1].degree):
        side = 0 if loads[0] <= loads[1] else 1
        shares[side].append(i)
        loads[side] += jobs[i][1].degree
    return sorted(shares[0]), sorted(shares[1])


def _isolate(jobs, indices, sets) -> dict:
    """Isolate and cache jobs[i] into sets[i]; returns {i: error} of the failures."""
    errors = {}
    for i in indices:
        path, poly, bits, evaluator = jobs[i]
        try:
            sets[i] = all_roots(poly, bits, evaluator=evaluator)
            write_roots_cache(path, poly, sets[i])
        except Exception as exc:
            errors[i] = exc
    return errors


def _gleason_jobs(cfg: RunConfig, levels, bits: int) -> list:
    return [
        (roots_cache_path(cfg.cache_dir, cfg.d, n, bits), gleason(cfg.d, n), bits,
         gleason_evaluator(cfg.d, n))
        for n in levels
    ]


# -- commands -----------------------------------------------------------------------


def cmd_enumerate(cfg: RunConfig) -> int:
    check_degree_cap(cfg.d, cfg.max_n)
    lines = [f"# enumerate d={cfg.d} max-n={cfg.max_n} bits={cfg.bits}"]
    levels = range(1, cfg.max_n + 1)
    for n in levels:
        write_gleason_cache(cfg.cache_dir, cfg.d, n)
    for n, ps in zip(levels, cached_root_sets(_gleason_jobs(cfg, levels, cfg.bits))):
        lines.append(
            f"gleason\tn={n}\tdeg={gleason(cfg.d, n).degree}\troots={len(ps.roots)}"
        )
    for desc in enumerate_factors(cfg.d, cfg.max_n):
        fdir = cfg.cache_dir / "factors" / f"d{cfg.d}"
        atomic_write_text(fdir / f"n{desc.n}-{desc.label}.poly", serialize(desc.poly))
        if desc.strict_poly is not None:
            atomic_write_text(
                fdir / f"n{desc.n}-{desc.label}.strict.poly", serialize(desc.strict_poly)
            )
        lines.append(f"factor\t{desc.label}\tdeg={desc.poly.degree}")
    print("\n".join(lines))
    return 0


def cmd_integral_scan(cfg: RunConfig) -> int:
    check_degree_cap(cfg.d, cfg.max_n)
    alpha = parse_alpha(cfg.alpha_spec)
    result = census(cfg.d, cfg.max_n, alpha, PrimeSet.of(cfg.s_primes))
    body = result.to_tsv()
    summary = (
        f"# alpha={result.alpha_label} S={{{','.join(map(str, result.S.primes))}}}"
        f" S-integral={result.s_integral_count}/{len(result.rows)}"
        f" orbit-threshold={result.threshold:g}\n"
    )
    if cfg.out_format == "text":
        text = summary
        for r in result.rows:
            primes = ",".join(map(str, r.meeting_primes)) or "-"
            text += (
                f"{r.label}: degree {r.degree}, meeting primes {primes}, "
                f"{'S-integral' if r.is_S_integral else 'not S-integral'}\n"
            )
    else:
        text = summary + body
    print(text, end="")
    report_path = cfg.cache_dir / "reports" / f"census-d{cfg.d}-n{cfg.max_n}.tsv"
    atomic_write_text(report_path, summary + body)
    return 0


def cmd_equidist(cfg: RunConfig) -> int:
    # the rational path builds no g_n, but its exact Vieta values grow like
    # d^(n-1) * h(alpha) bits, so the same cap bounds it; checked first, as
    # parsing an algebraic alpha isolates its roots
    check_degree_cap(cfg.d, cfg.max_n)
    alpha = parse_alpha(cfg.alpha_spec)
    levels = range(2, cfg.max_n + 1)
    root_sets = {}

    def roots(n):
        # the first call, after the PCF gate, isolates every level at once
        if not root_sets:
            root_sets.update(zip(levels, cached_root_sets(_gleason_jobs(cfg, levels, cfg.bits))))
        return root_sets[n]

    reports = discrepancy_report(
        cfg.d, levels, alpha, tau=cfg.tau, C=cfg.C, precision_bits=cfg.bits, roots=roots
    )
    fit = fitted_min_constant(reports)
    lines = [TSV_HEADER]
    lines.extend(r.tsv_row() for r in reports)
    lines.append(f"# fitted-min-C\t{fit:.6g}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    report_path = cfg.cache_dir / "reports" / f"equidist-d{cfg.d}-n{cfg.max_n}.tsv"
    atomic_write_text(report_path, text)
    if cfg.plot:
        svg = _discrepancy_svg(reports)
        atomic_write_text(
            cfg.cache_dir / "plots" / f"equidist-d{cfg.d}-n{cfg.max_n}.svg", svg
        )
    return 0


def cmd_bounds(cfg: RunConfig) -> int:
    check_degree_cap(cfg.d, cfg.max_n)
    alpha = parse_alpha(cfg.alpha_spec)
    lines = ["name\tbound\tempirical\tsatisfied"]
    for n in range(1, cfg.max_n + 1):
        lines.append(degree_lower_bound_check(cfg.d, n, 1).line())
    lines.append(
        f"pcf-modulus-value-d{cfg.d}\t{mp.nstr(pcf_modulus_bound(cfg.d), 10)}\t-\t-"
    )
    bits = min(cfg.bits, 128)
    descs = [desc for desc in enumerate_factors(cfg.d, cfg.max_n) if desc.poly.degree >= 1]
    root_sets = cached_root_sets(
        (factor_roots_cache_path(cfg.cache_dir, cfg.d, desc.n, desc.label, bits),
         desc.poly, bits, factor_evaluator(desc))
        for desc in descs
    )
    lines.append(pcf_modulus_check(cfg.d, cfg.max_n, root_sets).line())
    lines.extend(rep.line() for rep in separation_check(descs, root_sets))
    s_size = max(1, len(cfg.s_primes) + 1)
    lines.append(
        f"thm15-threshold\t{thm15_threshold(cfg.C, s_size, alpha.degree):g}\t-\t-"
    )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    atomic_write_text(cfg.cache_dir / "reports" / f"bounds-d{cfg.d}-n{cfg.max_n}.tsv", text)
    return 0


# -- plotting --------------------------------------------------------------------------


def escape_time_grid(d: int, size: int = 800, max_iter: int = 96):
    """Iteration-count grid over the square covering |c| <= 2^(1/(d-1)) + margin.

    Returns (counts, extent): counts[i, j] = first escape iteration (max_iter
    means no escape within budget), row i from top; extent = (xmin, xmax,
    ymin, ymax).
    """
    import numpy as np

    bound = float(2 ** (1.0 / (d - 1)))
    half = bound * 1.15
    # pixel centers include the real and imaginary axes exactly: the antenna
    # filaments of the set are hairlines that an axis-missing grid never hits
    step = 2.0 * half / size
    xs = (np.arange(size) - size // 2) * step
    ys = (size // 2 - np.arange(size)) * step
    c = xs[None, :] + 1j * ys[:, None]
    z = c.copy()
    counts = np.full(c.shape, max_iter, dtype=np.int32)
    alive = np.ones(c.shape, dtype=bool)
    bail = max(2.0, (2.0 * np.abs(c).max()) ** (1.0 / d), bound) + 1e-9
    for k in range(1, max_iter):
        with np.errstate(all="ignore"):
            # not critical_orbit.orbit: each step advances the live pixels only
            z[alive] = z[alive] ** d + c[alive]
            escaped = alive & (np.abs(z) > bail)
        counts[escaped] = k
        alive &= ~escaped
        if not alive.any():
            break
    return counts, (float(xs[0]), float(xs[-1]), float(ys[-1]), float(ys[0]))


def _ppm_bytes(counts: np.ndarray, max_iter: int, dots: Sequence[tuple[int, int]]) -> bytes:
    import numpy as np

    size_y, size_x = counts.shape
    shade = np.where(
        counts >= max_iter,
        0,
        40 + (215.0 * np.sqrt(counts / float(max_iter))).astype(np.int32),
    ).astype(np.uint8)
    rgb = np.stack([shade, shade, shade], axis=-1)
    for px, py in dots:
        x0, x1 = max(0, px - 2), min(size_x, px + 3)
        y0, y1 = max(0, py - 2), min(size_y, py + 3)
        rgb[y0:y1, x0:x1] = (255, 64, 32)
    header = f"P6\n{size_x} {size_y}\n255\n".encode()
    return header + rgb.tobytes()


def _root_pixels(centers, extent, size: int) -> list[tuple[int, int]]:
    xmin, xmax, ymin, ymax = extent
    dots = []
    for x, y in centers:
        px = int(round((x - xmin) / (xmax - xmin) * (size - 1)))
        py = int(round((ymax - y) / (ymax - ymin) * (size - 1)))
        if 0 <= px < size and 0 <= py < size:
            dots.append((px, py))
    return sorted(set(dots))


def _mandel_svg(cfg: RunConfig, extent, dots_xy: Sequence[tuple[float, float]]) -> str:
    xmin, xmax, ymin, ymax = extent
    w = h = 640.0
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{w:.0f}" '
        f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect width="{w:.0f}" height="{h:.0f}" fill="#101018"/>',
        f"<!-- raster companion: mandel-d{cfg.d}.ppm -->",
    ]
    bound = float(2 ** (1.0 / (cfg.d - 1)))
    cx = (0.0 - xmin) / (xmax - xmin) * w
    cy = (ymax - 0.0) / (ymax - ymin) * h
    r = bound / (xmax - xmin) * w
    parts.append(
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="none" '
        'stroke="#3355aa" stroke-width="1"/>'
    )
    for x, y in dots_xy:
        px = (x - xmin) / (xmax - xmin) * w
        py = (ymax - y) / (ymax - ymin) * h
        parts.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="1.6" fill="#ff4020"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _discrepancy_svg(reports) -> str:
    w, h, pad = 640.0, 480.0, 50.0
    pts = []
    for r in reports:
        disc = float(r.discrepancy)
        y = mp.log10(disc) if disc > 0 else mp.mpf(-30)
        pts.append((r.n, float(y)))
    ns = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    ymin, ymax = min(ys) - 0.5, max(ys) + 0.5
    nmin, nmax = min(ns), max(ns)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{w:.0f}" '
        f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect width="{w:.0f}" height="{h:.0f}" fill="white"/>',
        f'<line x1="{pad:.1f}" y1="{h - pad:.1f}" x2="{w - pad:.1f}" y2="{h - pad:.1f}" stroke="black"/>',
        f'<line x1="{pad:.1f}" y1="{pad:.1f}" x2="{pad:.1f}" y2="{h - pad:.1f}" stroke="black"/>',
        f'<text x="{w / 2:.1f}" y="{h - 12:.1f}" text-anchor="middle" font-size="14">level n</text>',
        f'<text x="14" y="{h / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 14 {h / 2:.1f})">log10 discrepancy</text>',
    ]
    for n, y in pts:
        px = pad + (n - nmin) / max(1, nmax - nmin) * (w - 2 * pad)
        py = pad + (ymax - y) / (ymax - ymin) * (h - 2 * pad)
        parts.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="4" fill="#cc3311"/>')
        parts.append(
            f'<text x="{px:.3f}" y="{h - pad + 16:.1f}" text-anchor="middle" font-size="11">{n}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(cfg: RunConfig) -> int:
    check_degree_cap(cfg.d, cfg.max_n)
    size, max_iter = 800, 96
    counts, extent = escape_time_grid(cfg.d, size, max_iter)
    levels = range(1, cfg.max_n + 1)
    centers = [
        (float(b.center.real), float(b.center.imag))
        for ps in cached_root_sets(_gleason_jobs(cfg, levels, min(cfg.bits, 128)))
        for b in ps.roots
    ]
    ppm = _ppm_bytes(counts, max_iter, _root_pixels(centers, extent, size))
    ppm_path = cfg.cache_dir / "plots" / f"mandel-d{cfg.d}.ppm"
    atomic_write_bytes(ppm_path, ppm)
    svg = _mandel_svg(cfg, extent, sorted(set(centers)))
    svg_path = cfg.cache_dir / "plots" / f"mandel-d{cfg.d}.svg"
    atomic_write_text(svg_path, svg)
    print(f"wrote {ppm_path}\nwrote {svg_path}")
    return 0


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "integral-scan": cmd_integral_scan,
    "equidist": cmd_equidist,
    "bounds": cmd_bounds,
    "plot": cmd_plot,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"pcf-lab: config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[cfg.command](cfg)
    except ValueError as exc:
        # bad --alpha / --S values surface here
        print(f"pcf-lab: invalid value: {exc}", file=sys.stderr)
        return 2
    except PcfLabError as exc:
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                print(f"pcf-lab: {type(exc).__name__}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
