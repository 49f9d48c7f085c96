"""CLI behavior: outputs, caches, determinism, exit codes, plots."""

from __future__ import annotations

import errno
import filecmp
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pcflab
import pcflab.cli as cli
from pcflab.cli import escape_time_grid, main, parse_alpha
from pcflab.errors import PrecisionExhausted


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseAlpha:
    def test_rational(self):
        a = parse_alpha("-3/7")
        assert a.is_rational and str(a.as_fraction()) == "-3/7"

    def test_min_poly_with_root(self):
        a = parse_alpha("-1,-1,1:1")
        assert a.degree == 2
        assert float(a.root_selector.center.real) == pytest.approx(1.6180339887, rel=1e-9)

    def test_min_poly_default_root(self):
        a = parse_alpha("-1,-1,1")
        assert float(a.root_selector.center.real) == pytest.approx(-0.6180339887, rel=1e-9)


class TestCommands:
    def test_enumerate_writes_expected_files(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code, out, _ = run(
            ["enumerate", "--d", "2", "--max-n", "3", "--bits", "128", "--cache", str(cache)],
            capsys,
        )
        assert code == 0
        assert (cache / "gleason" / "d2" / "n3.poly").exists()
        assert (cache / "roots" / "d2" / "n3.p128.roots").exists()
        assert "gleason\tn=3\tdeg=4\troots=4" in out

    def test_enumerate_idempotent(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["enumerate", "--d", "2", "--max-n", "3", "--bits", "128", "--cache", str(cache)]
        assert run(args, capsys)[0] == 0
        snapshot = {
            p: p.read_bytes() for p in cache.rglob("*") if p.is_file()
        }
        assert run(args, capsys)[0] == 0
        for p, data in snapshot.items():
            assert p.read_bytes() == data

    def test_enumerate_rewrites_damaged_root_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["enumerate", "--d", "2", "--max-n", "4", "--bits", "128", "--cache", str(cache)]
        assert run(args, capsys)[0] == 0
        n3, n4 = (cache / "roots" / "d2" / f"n{n}.p128.roots" for n in (3, 4))
        good3, good4 = n3.read_bytes(), n4.read_bytes()
        n3.write_bytes(b"\n".join(good3.split(b"\n")[:6]) + b"\n")  # 2 of 4 root lines
        n4.write_bytes(good4.replace(b":", b"!", 1))
        assert run(args, capsys)[0] == 0
        assert n3.read_bytes() == good3 and n4.read_bytes() == good4

    def test_integral_scan_output(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code, out, _ = run(
            ["integral-scan", "--d", "2", "--max-n", "3", "--alpha", "1",
             "--S", "2,5", "--cache", str(cache)],
            capsys,
        )
        assert code == 0
        assert "S-integral=3/4" in out
        assert (cache / "reports" / "census-d2-n3.tsv").exists()
        header = (cache / "reports" / "census-d2-n3.tsv").read_text().splitlines()[1]
        assert header.split("\t") == ["kind", "m", "n", "degree", "meeting_primes", "S_integral"]

    def test_equidist_with_plot(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code, out, _ = run(
            ["equidist", "--d", "2", "--max-n", "5", "--alpha", "1", "--plot",
             "--cache", str(cache)],
            capsys,
        )
        assert code == 0
        rows = [ln for ln in out.splitlines() if ln and not ln.startswith(("d\t", "#"))]
        assert len(rows) == 4  # n = 2..5
        assert all(ln.split("\t")[10] == "pass" for ln in rows)
        svg = (cache / "plots" / "equidist-d2-n5.svg").read_text()
        assert svg.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in svg

    def test_equidist_algebraic_alpha_notes_numeric_path(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code, out, _ = run(
            ["equidist", "--d", "2", "--max-n", "4", "--alpha=-1,-1,1:1",
             "--bits", "192", "--cache", str(cache)],
            capsys,
        )
        assert code == 0
        assert "roots-numeric" in out

    def test_bounds_command(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code, out, _ = run(
            ["bounds", "--d", "2", "--max-n", "4", "--cache", str(cache)], capsys
        )
        assert code == 0
        assert "pcf-modulus-d2-n4" in out
        assert "NO" not in out  # every bound satisfied


def count_calls(monkeypatch, module, name):
    """Replace module.name by a counting wrapper in every loaded pcflab module
    that binds it (modules that imported it by name included); returns the
    list the wrapper appends each call's arguments to."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "pcflab" or mod_name.startswith("pcflab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


class TestOncePerRun:
    # work that depends on (d, alpha) or on the factor lattice, not on the
    # level, is done once per command

    def test_equidist_decides_pcf_once(self, tmp_path, capsys, monkeypatch):
        import pcflab.heights

        calls = count_calls(monkeypatch, pcflab.heights, "is_pcf_parameter")
        code, out, _ = run(
            ["equidist", "--d", "2", "--max-n", "6", "--alpha=-1,-1,1:1",
             "--cache", str(tmp_path / "cache")],
            capsys,
        )
        assert code == 0 and out.count("roots-numeric") == 5  # n = 2..6
        assert len(calls) == 1

    def test_bounds_enumerates_lattice_once(self, tmp_path, capsys, monkeypatch):
        import pcflab.critical_orbit

        calls = count_calls(monkeypatch, pcflab.critical_orbit, "enumerate_factors")
        code, out, _ = run(
            ["bounds", "--d", "2", "--max-n", "4", "--cache", str(tmp_path / "cache")],
            capsys,
        )
        assert code == 0 and "separation-" in out
        assert len(calls) == 1

    def test_equidist_pcf_alpha_fails_before_root_lookup(self, tmp_path, capsys):
        # a root of c^3 + 2c^2 + c + 1 has critical period 3
        cache = tmp_path / "cache"
        code, _, err = run(
            ["equidist", "--d", "2", "--max-n", "4", "--alpha=1,1,2,1:0",
             "--cache", str(cache)],
            capsys,
        )
        assert code == 4 and "HypothesisViolated" in err
        assert not cache.exists()


class TestExitCodes:
    def test_degree_cap(self, tmp_path, capsys):
        # every command whose work grows with deg g_max_n refuses before doing any work
        for extra in (["enumerate"], ["bounds"], ["integral-scan"], ["plot"],
                      ["equidist", "--alpha=-1,-1,1:1"], ["equidist", "--alpha", "1"],
                      ["equidist", "--alpha=1,2,1"]):
            cache = tmp_path / extra[0]
            code, _, err = run(extra + ["--d", "3", "--max-n", "20", "--cache", str(cache)], capsys)
            assert code == 3 and "DegreeCapExceeded" in err, extra
            assert not cache.exists(), extra

    def test_hypothesis_violated(self, tmp_path, capsys):
        code, _, err = run(
            ["integral-scan", "--d", "2", "--max-n", "2", "--alpha", "0",
             "--S", "2", "--cache", str(tmp_path / "c")],
            capsys,
        )
        assert code == 4 and "HypothesisViolated" in err

    def test_alpha_coefficients_over_900_bits(self, tmp_path, capsys):
        # x^2 - 2*10^350: refused before any work, with the limit named
        code, out, err = run(
            ["integral-scan", "--d", "2", "--max-n", "4", "--S", "2",
             f"--alpha={-2 * 10**350},0,1", "--cache", str(tmp_path / "c")],
            capsys,
        )
        assert code == 2 and "900-bit limit" in err

    def test_non_squarefree_alpha(self, tmp_path, capsys):
        # (c + 1)^2: an invalid --alpha, exit 2 as for any bad value, not
        # the library's exit 8, and refused before any work
        for extra in (["integral-scan", "--S", "2"], ["equidist"]):
            cache = tmp_path / extra[0]
            code, _, err = run(
                extra + ["--d", "2", "--max-n", "4", "--alpha=1,2,1", "--cache", str(cache)],
                capsys,
            )
            assert code == 2 and "minimal polynomial must be squarefree" in err, extra
            assert not cache.exists(), extra

    def test_linear_alpha_of_any_width_is_its_rational(self, tmp_path, capsys):
        # the 900-bit refusal is for degree >= 2 only: a linear minimal
        # polynomial is never isolated, and names its rational exactly
        base = ["integral-scan", "--d", "2", "--max-n", "1", "--S", "2"]
        linear = run(base + [f"--alpha={-(2**1000)},1", "--cache", str(tmp_path / "a")], capsys)
        rational = run(base + [f"--alpha={2**1000}", "--cache", str(tmp_path / "b")], capsys)
        assert linear == rational and linear[0] == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_reducible_quartic_alpha_is_undecided(self, tmp_path, capsys):
        # root 2 of (c^2 + c - 1)(c^2 + 1) is i, PCF for d = 2
        # (0 -> i -> i - 1 -> -i -> i - 1); only the other factor's conjugate
        # 0.618... escapes, and it may not decide for i
        code, out, err = run(
            ["integral-scan", "--d", "2", "--max-n", "3", "--alpha=-1,1,0,1,1:2",
             "--S", "2", "--cache", str(tmp_path / "c")],
            capsys,
        )
        assert code == 9 and "HypothesisUndecided" in err
        assert out == ""

    def test_eisenstein_quartic_alpha_is_decided(self, tmp_path, capsys):
        # root 0 of c^4 - 2 is -2^(1/4), whose orbit stays bounded for d = 2;
        # c^4 - 2 is Eisenstein at 2, so irreducible, and the escape of its
        # conjugate 2^(1/4) proves every root non-PCF
        code, out, err = run(
            ["integral-scan", "--d", "2", "--max-n", "3", "--alpha=-2,0,0,0,1:0",
             "--S", "2", "--cache", str(tmp_path / "c")],
            capsys,
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("# alpha=deg4:-2,0,0,0,1 S={2}")
        assert lines[1].startswith("kind\t")
        assert [line.split("\t")[:3] for line in lines[2:]] == [
            ["exact-period", "-", "1"],
            ["exact-period", "-", "2"],
            ["exact-period", "-", "3"],
            ["misiurewicz", "2", "3"],
        ]

    def test_eisenstein_prime_past_the_bound_decides(self, tmp_path, capsys):
        # c^4 + 16411c + 16411 is Eisenstein only at the prime 16411 > 2^14;
        # its root 1, near -1.00006, stays bounded for d = 2
        code, out, err = run(
            ["integral-scan", "--d", "2", "--max-n", "3", "--alpha=16411,16411,0,0,1:1",
             "--S", "2", "--cache", str(tmp_path / "c")],
            capsys,
        )
        assert code == 0 and err == ""
        assert out.startswith("# alpha=deg4:16411,16411,0,0,1 S={2}")

    def test_equidist_needs_two_levels(self, tmp_path, capsys):
        # equidist's levels start at n = 2: --max-n 1 has no level to report
        # or plot, and is refused before anything is written
        cache = tmp_path / "cache"
        code, out, err = run(
            ["equidist", "--d", "2", "--max-n", "1", "--alpha", "1", "--plot",
             "--cache", str(cache)],
            capsys,
        )
        assert code == 2 and "config error" in err and "--max-n" in err
        assert out == "" and not cache.exists()

    def test_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("d=2\n")  # missing version key
        code, _, err = run(["enumerate", "--config", str(bad)], capsys)
        assert code == 2 and "config error" in err

    @pytest.mark.parametrize("spec", ["1/0", "-3/0", "0/0"])
    def test_zero_denominator_alpha(self, tmp_path, capsys, spec):
        code, out, err = run(
            ["integral-scan", "--d", "2", "--max-n", "2", f"--alpha={spec}",
             "--cache", str(tmp_path / "c")],
            capsys,
        )
        assert code == 2 and "invalid value" in err and "Traceback" not in err
        assert out == ""

    def test_bounds_refuses_bad_alpha_before_isolating(self, tmp_path, capsys):
        # --alpha is parsed before any factor is isolated, so no root cache is written
        cache = tmp_path / "cache"
        code, out, err = run(
            ["bounds", "--d", "2", "--max-n", "3", "--alpha", "1/0", "--cache", str(cache)],
            capsys,
        )
        assert code == 2 and "invalid value" in err and "Traceback" not in err
        assert out == "" and not (cache / "roots").exists()

    @pytest.mark.parametrize("C", ["0", "-1"])
    def test_nonpositive_C(self, tmp_path, capsys, C):
        # fitted_min_constant divides by C; refused before anything is written
        cache = tmp_path / "cache"
        code, out, err = run(
            ["equidist", "--d", "2", "--max-n", "3", "--alpha", "1/3", "--C", C,
             "--cache", str(cache)],
            capsys,
        )
        assert code == 2 and "config error" in err and "--C" in err
        assert out == "" and not cache.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("version=1\nmax-n=3\n")  # the file key is max_n
        cache = tmp_path / "cache"
        code, out, err = run(["enumerate", "--config", str(conf), "--cache", str(cache)], capsys)
        assert code == 2 and "config error" in err and "'max-n'" in err
        assert out == "" and not cache.exists()

    @pytest.mark.parametrize(
        "command", [["enumerate"], ["integral-scan", "--alpha", "1", "--S", "2,5"]]
    )
    @pytest.mark.parametrize("below", [False, True])
    def test_cache_that_is_not_a_directory(self, tmp_path, capsys, command, below):
        # a regular file as --cache, or as one of its ancestors, is refused
        # before any work, not after it in mkdir; nothing is created
        blocker = tmp_path / "file"
        blocker.write_text("")
        cache = blocker / "sub" if below else blocker
        code, out, err = run(command + ["--d", "2", "--max-n", "3", "--cache", str(cache)], capsys)
        assert code == 2 and "config error" in err and "not a directory" in err
        assert out == "" and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""

    def test_bounds_checks_S(self, tmp_path, capsys):
        # --S is a prime set for bounds as for integral-scan: a non-prime is
        # refused, and a repeated prime counts once in |S|
        base = ["bounds", "--d", "2", "--max-n", "2", "--cache", str(tmp_path / "c")]
        code, out, err = run(base + ["--S", "4"], capsys)
        assert code == 2 and "invalid value" in err and "4 is not prime" in err
        assert out == ""
        thresholds = []
        for primes in ("2", "2,2"):
            code, out, _ = run(base + ["--S", primes], capsys)
            assert code == 0
            thresholds.append([ln for ln in out.splitlines() if ln.startswith("thm15-threshold\t")])
        assert thresholds[0] == thresholds[1] == [thresholds[0][0]]


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("version=1\nd=2\nmax_n=2\nbits=128\nalpha=1\nS=2,5\n")
        cache = tmp_path / "cache"
        code, out, _ = run(
            ["integral-scan", "--config", str(conf), "--max-n", "3", "--cache", str(cache)],
            capsys,
        )
        assert code == 0
        assert "exact-period\t-\t3" in (cache / "reports" / "census-d2-n3.tsv").read_text()

    def test_text_format_prints_prose_and_keeps_the_tsv_report(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("version=1\nformat=text\n")
        cache = tmp_path / "cache"
        args = ["integral-scan", "--d", "2", "--max-n", "3", "--alpha", "1", "--S", "2,5"]
        code, out, _ = run([*args, "--config", str(conf), "--cache", str(cache)], capsys)
        assert code == 0
        assert out.splitlines()[1:] == [
            "period-1: degree 1, meeting primes -, S-integral",
            "period-2: degree 1, meeting primes 2, S-integral",
            "period-3: degree 3, meeting primes 5, S-integral",
            "misiurewicz-2-3: degree 1, meeting primes 3, not S-integral",
        ]
        tsv = (cache / "reports" / "census-d2-n3.tsv").read_text()
        code, plain, _ = run([*args, "--cache", str(tmp_path / "plain")], capsys)
        assert code == 0 and tsv == plain
        assert tsv.splitlines()[1] == "kind\tm\tn\tdegree\tmeeting_primes\tS_integral"


class TestPlot:
    def test_plot_outputs_and_root_placement(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code, out, _ = run(
            ["plot", "--d", "2", "--max-n", "4", "--bits", "128", "--cache", str(cache)],
            capsys,
        )
        assert code == 0
        ppm = (cache / "plots" / "mandel-d2.ppm").read_bytes()
        assert ppm.startswith(b"P6\n800 800\n255\n")
        assert len(ppm) == len(b"P6\n800 800\n255\n") + 800 * 800 * 3
        svg = (cache / "plots" / "mandel-d2.svg").read_text()
        assert svg.count("<circle") > 8  # bound circle + root dots

        # every overlaid parameter must land in the non-escaping region of the
        # independently recomputed grid, up to one pixel of tolerance
        size, max_iter = 800, 96
        counts, (xmin, xmax, ymin, ymax) = escape_time_grid(2, size, max_iter)
        from pcflab.critical_orbit import gleason, gleason_evaluator
        from pcflab.rootfinder import all_roots

        for n in range(1, 5):
            ps = all_roots(gleason(2, n), 128, evaluator=gleason_evaluator(2, n))
            for b in ps.roots:
                x, y = float(b.center.real), float(b.center.imag)
                px = int(round((x - xmin) / (xmax - xmin) * (size - 1)))
                py = int(round((ymax - y) / (ymax - ymin) * (size - 1)))
                patch = counts[max(0, py - 1) : py + 2, max(0, px - 1) : px + 2]
                assert patch.max() == max_iter  # hits the bounded region

    def test_plot_deterministic(self, tmp_path, capsys):
        c1, c2 = tmp_path / "c1", tmp_path / "c2"
        for c in (c1, c2):
            assert run(
                ["plot", "--d", "2", "--max-n", "3", "--bits", "128", "--cache", str(c)],
                capsys,
            )[0] == 0
        assert filecmp.cmp(
            c1 / "plots" / "mandel-d2.ppm", c2 / "plots" / "mandel-d2.ppm", shallow=False
        )
        assert filecmp.cmp(
            c1 / "plots" / "mandel-d2.svg", c2 / "plots" / "mandel-d2.svg", shallow=False
        )


class TestPlotExtentD3:
    def test_d3_window_tracks_modulus_bound(self):
        # the render window must cover |c| <= sqrt(2) with margin, and not more
        # than the fixed 15% + pixel-quantization slack
        counts, (xmin, xmax, ymin, ymax) = escape_time_grid(3, 200, 48)
        bound = 2**0.5
        assert bound < xmax <= bound * 1.16
        assert bound < -xmin <= bound * 1.16
        assert counts.shape == (200, 200)


class TestCrossProcessDeterminism:
    def test_cache_bytes_do_not_depend_on_hash_seed(self, tmp_path):
        # fresh interpreters share no memo tables, and set/dict iteration
        # order of str keys changes with PYTHONHASHSEED
        src = str(Path(pcflab.__file__).resolve().parent.parent)
        trees = []
        for seed in ("1", "2"):
            cache = tmp_path / f"seed{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            for args in (["enumerate", "--d", "2", "--max-n", "5"],
                         ["bounds", "--d", "2", "--max-n", "4"]):
                subprocess.run(
                    [sys.executable, "-m", "pcflab.cli", *args, "--cache", str(cache)],
                    env=env, check=True, capture_output=True, timeout=300,
                )
            trees.append({
                p.relative_to(cache): p.read_bytes() for p in cache.rglob("*") if p.is_file()
            })
        assert trees[0] and trees[0] == trees[1]


NUMPY_PROBE = """
import sys
import pcflab.cli
code = None
if len(sys.argv) > 1:
    try:
        code = pcflab.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, "numpy" in sys.modules)
"""


class TestNumpyOnlyWhereArraysRun:
    # numpy is a third of the set-up of every CLI run; only the float64
    # stages, the pairwise kernels, the lane arrays and plot import it. The
    # runs are fresh interpreters, since this one has numpy loaded
    @pytest.mark.parametrize("args,code,loaded", [
        ([], None, False),
        (["--help"], 0, False),
        (["enumerate", "--max-n", "0"], 2, False),
        (["enumerate", "--d", "2", "--max-n", "14"], 3, False),
        (["equidist", "--d", "2", "--max-n", "14", "--alpha=-1,-1,1:1"], 3, False),
        (["integral-scan", "--d", "2", "--max-n", "3", "--alpha=3", "--S", "2,5"], 0, False),
        (["integral-scan", "--d", "2", "--max-n", "6", "--alpha=7/3", "--S", "2,3,5"], 0, False),
        (["enumerate", "--d", "2", "--max-n", "3"], 0, True),
    ])
    def test_numpy_loaded_only_by_a_run_that_isolates(self, args, code, loaded, tmp_path):
        self.assert_probe(args, code, loaded, tmp_path)

    def test_warm_run_loads_no_numpy(self, tmp_path):
        # the second run reads every root set from its cache, on both cores
        args = ["enumerate", "--d", "2", "--max-n", "3"]
        self.assert_probe(args, 0, True, tmp_path)
        self.assert_probe(args, 0, False, tmp_path)

    @staticmethod
    def assert_probe(args, code, loaded, tmp_path):
        src = str(Path(pcflab.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if args and args != ["--help"]:
            args = args + ["--cache", str(tmp_path / "cache")]
        res = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, *args],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert res.stdout.splitlines()[-1] == f"{code} {loaded}", res.stderr


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k): the CLI sees k usable CPUs; returns the pids of the children it forks."""
    real_fork = os.fork

    def set_cpus(k):
        forks = []

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        monkeypatch.setattr(os, "fork", fork)
        return forks

    return set_cpus


def run_in(cwd: Path, args, capsys, monkeypatch):
    """run() with cwd as working directory and a relative cache path, so that
    runs in different directories print the same paths; cwd is made unless
    it exists."""
    cwd.mkdir(exist_ok=True)
    monkeypatch.chdir(cwd)
    return run(args + ["--cache", "cache"], capsys)


def warm_copies(tmp_path, args, capsys, monkeypatch, cpus, names):
    """Fill a cache with one serial run of args, then copy it to tmp_path/name
    for each name."""
    cpus(1)
    assert run_in(tmp_path / "cold", args, capsys, monkeypatch)[0] == 0
    for name in names:
        shutil.copytree(tmp_path / "cold", tmp_path / name)


# every command that looks up root sets
ROOT_COMMANDS = [
    ["enumerate", "--d", "2", "--max-n", "9", "--bits", "128"],
    ["bounds", "--d", "2", "--max-n", "6"],
    ["plot", "--d", "2", "--max-n", "3"],
    ["equidist", "--d", "2", "--max-n", "7", "--alpha=-1,-1,1:1"],
]


class TestForkedIsolation:
    # root sets are read or isolated, and summarised, on this process and one
    # forked child; every output, cache byte and exit code is that of a
    # serial run

    @pytest.mark.parametrize("args", ROOT_COMMANDS, ids=lambda args: args[0])
    def test_identical_to_serial(self, tmp_path, capsys, monkeypatch, cpus, args):
        forks = cpus(2)
        forked = run_in(tmp_path / "forked", args, capsys, monkeypatch)
        assert len(forks) == 1
        forks = cpus(1)
        serial = run_in(tmp_path / "serial", args, capsys, monkeypatch)
        assert forks == []
        assert forked == serial and forked[0] == 0
        assert tree_bytes(tmp_path / "forked" / "cache") == tree_bytes(tmp_path / "serial" / "cache")

    def test_no_affinity_call_runs_serial(self, tmp_path, capsys, monkeypatch, cpus):
        # macOS and Windows have no os.sched_getaffinity: one usable CPU
        args = ["enumerate", "--d", "2", "--max-n", "3"]
        forks = cpus(1)
        serial = run_in(tmp_path / "serial", args, capsys, monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity")
        missing = run_in(tmp_path / "missing", args, capsys, monkeypatch)
        assert forks == []
        assert missing == serial and missing[0] == 0
        assert tree_bytes(tmp_path / "missing" / "cache") == tree_bytes(tmp_path / "serial" / "cache")

    @pytest.mark.parametrize("args", ROOT_COMMANDS, ids=lambda args: args[0])
    def test_warm_run_identical_to_serial(self, tmp_path, capsys, monkeypatch, cpus, args):
        # every root set is a cache hit, and the child reads and summarises
        # its share of them
        warm_copies(tmp_path, args, capsys, monkeypatch, cpus, ["forked", "serial"])
        forks = cpus(2)
        forked = run_in(tmp_path / "forked", args, capsys, monkeypatch)
        assert len(forks) == 1
        forks = cpus(1)
        serial = run_in(tmp_path / "serial", args, capsys, monkeypatch)
        assert forks == []
        assert forked == serial and forked[0] == 0
        assert tree_bytes(tmp_path / "forked" / "cache") == tree_bytes(tmp_path / "serial" / "cache")
        assert tree_bytes(tmp_path / "forked" / "cache") == tree_bytes(tmp_path / "cold" / "cache")

    FORK_REFUSALS = pytest.mark.parametrize("error", [
        BlockingIOError(errno.EAGAIN, "fork refused"),
        OSError(errno.ENOMEM, "fork refused"),
    ], ids=["fork-EAGAIN", "fork-ENOMEM"])

    @FORK_REFUSALS
    def test_no_child_to_spare_runs_serial(self, tmp_path, capsys, monkeypatch, cpus, error):
        self.assert_refused_fork_runs_serial(tmp_path, capsys, monkeypatch, cpus, error)

    @FORK_REFUSALS
    def test_no_child_to_spare_warm_runs_serial(self, tmp_path, capsys, monkeypatch, cpus, error):
        self.assert_refused_fork_runs_serial(tmp_path, capsys, monkeypatch, cpus, error, warm=True)

    @staticmethod
    def assert_refused_fork_runs_serial(tmp_path, capsys, monkeypatch, cpus, error, warm=False):
        args = ["enumerate", "--d", "2", "--max-n", "7", "--bits", "128"]
        if warm:
            warm_copies(tmp_path, args, capsys, monkeypatch, cpus, ["serial", "refused"])
        cpus(1)
        serial = run_in(tmp_path / "serial", args, capsys, monkeypatch)
        cpus(2)

        def refuse():
            raise error

        monkeypatch.setattr(os, "fork", refuse)
        refused = run_in(tmp_path / "refused", args, capsys, monkeypatch)
        assert refused == serial and refused[0] == 0
        assert tree_bytes(tmp_path / "refused" / "cache") == tree_bytes(tmp_path / "serial" / "cache")

    # enumerate --d 2 --max-n 5 has root jobs of degrees 1, 2, 4, 8, 16: the
    # degree-16 job stays here, the other four go to the child
    ENUMERATE = ["enumerate", "--d", "2", "--max-n", "5", "--bits", "128"]

    @staticmethod
    def fail_on(monkeypatch, degrees):
        real = cli.all_roots

        def all_roots(poly, *args, **kwargs):
            if poly.degree in degrees:
                raise PrecisionExhausted(f"degree {poly.degree} failed")
            return real(poly, *args, **kwargs)

        monkeypatch.setattr(cli, "all_roots", all_roots)

    @pytest.mark.parametrize("degrees", [{4}, {16}, {4, 16}], ids=["child", "parent", "both"])
    def test_failing_job_exits_as_serial(self, tmp_path, capsys, monkeypatch, cpus, degrees):
        self.fail_on(monkeypatch, degrees)
        forks = cpus(2)
        forked = run_in(tmp_path / "forked", self.ENUMERATE, capsys, monkeypatch)
        assert len(forks) == 1
        cpus(1)
        serial = run_in(tmp_path / "serial", self.ENUMERATE, capsys, monkeypatch)
        assert forked == serial
        code, out, err = forked
        # the lowest-indexed failing job's error wins
        assert code == 5 and out == ""
        assert f"PrecisionExhausted: degree {min(degrees)} failed" in err
        assert tree_bytes(tmp_path / "forked" / "cache") == tree_bytes(tmp_path / "serial" / "cache")

    def test_parent_interrupt_kills_the_child(self, tmp_path, capsys, monkeypatch, cpus):
        parent_pid = os.getpid()

        def all_roots(*args, **kwargs):
            if os.getpid() == parent_pid:
                raise KeyboardInterrupt
            time.sleep(60)  # killed by the parent long before this ends

        monkeypatch.setattr(cli, "all_roots", all_roots)
        forks = cpus(2)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(self.ENUMERATE + ["--cache", str(tmp_path / "cache")])
        assert len(forks) == 1 and time.monotonic() - t0 < 30

    def assert_child_fault_runs_as_serial(self, tmp_path, capsys, monkeypatch, cpus, fault):
        # the child's caches are its only output: whatever it leaves
        # unwritten, this process isolates itself
        parent_pid = os.getpid()
        real = cli.all_roots

        def all_roots(*args, **kwargs):
            if os.getpid() != parent_pid:
                fault()
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "all_roots", all_roots)
        forks = cpus(2)
        forked = run_in(tmp_path / "forked", self.ENUMERATE, capsys, monkeypatch)
        assert len(forks) == 1
        forks = cpus(1)
        serial = run_in(tmp_path / "serial", self.ENUMERATE, capsys, monkeypatch)
        assert forks == []
        assert forked == serial and forked[0] == 0
        assert tree_bytes(tmp_path / "forked" / "cache") == tree_bytes(tmp_path / "serial" / "cache")

    def test_job_failing_only_in_the_child(self, tmp_path, capsys, monkeypatch, cpus):
        def fault():
            raise PrecisionExhausted("only in the child")

        self.assert_child_fault_runs_as_serial(tmp_path, capsys, monkeypatch, cpus, fault)

    def test_child_killed_by_signal(self, tmp_path, capsys, monkeypatch, cpus):
        def fault():
            os.kill(os.getpid(), signal.SIGKILL)

        self.assert_child_fault_runs_as_serial(tmp_path, capsys, monkeypatch, cpus, fault)

    def test_child_killed_inside_os_replace(self, tmp_path, capsys, monkeypatch, cpus):
        # the child dies between mkstemp and os.replace of its first cache,
        # so its temp file is written; this process removes it
        def kill_self(src, dst):
            os.kill(os.getpid(), signal.SIGKILL)

        def fault():
            monkeypatch.setattr(os, "replace", kill_self)  # in the child only

        self.assert_child_fault_runs_as_serial(tmp_path, capsys, monkeypatch, cpus, fault)

    # bounds --d 2 --max-n 4 has 10 factor jobs; warm, the child reads and
    # summarises the five of degrees 1, 1, 6, 2, 4 (indices 0, 1, 3, 5, 9),
    # this process those of degrees 3, 1, 2, 4, 4
    BOUNDS = ["bounds", "--d", "2", "--max-n", "4"]

    def warm_bounds_as_serial(self, tmp_path, capsys, monkeypatch, cpus, summary):
        """The warm BOUNDS run with summary in place of root_set_bounds, forked
        and serial; asserts they agree and returns the forked run."""
        warm_copies(tmp_path, self.BOUNDS, capsys, monkeypatch, cpus, ["forked", "serial"])
        monkeypatch.setattr(cli, "root_set_bounds", summary)
        forks = cpus(2)
        forked = run_in(tmp_path / "forked", self.BOUNDS, capsys, monkeypatch)
        assert len(forks) == 1
        forks = cpus(1)
        serial = run_in(tmp_path / "serial", self.BOUNDS, capsys, monkeypatch)
        assert forks == []
        assert forked == serial
        assert tree_bytes(tmp_path / "forked" / "cache") == tree_bytes(tmp_path / "serial" / "cache")
        return forked

    @pytest.mark.parametrize("degrees", [{6}, {3}, {1}], ids=["child", "parent", "both"])
    def test_failing_summary_exits_as_serial(self, tmp_path, capsys, monkeypatch, cpus, degrees):
        real = cli.root_set_bounds

        def root_set_bounds(ps):
            if len(ps) in degrees:
                raise PrecisionExhausted(f"degree {len(ps)} failed")
            return real(ps)

        code, out, err = self.warm_bounds_as_serial(
            tmp_path, capsys, monkeypatch, cpus, root_set_bounds
        )
        # the lowest-indexed failing job's error wins
        assert code == 5 and out == ""
        assert f"PrecisionExhausted: degree {min(degrees)} failed" in err

    @pytest.mark.parametrize("fault", ["raise", "exit", "signal"])
    def test_warm_child_fault_runs_as_serial(self, tmp_path, capsys, monkeypatch, cpus, fault):
        # a summary that raises only in the child, and a child that exits or
        # is killed before it reports: this process does the child's share
        parent_pid = os.getpid()
        real = cli.root_set_bounds

        def root_set_bounds(ps):
            if os.getpid() != parent_pid:
                if fault == "raise":
                    raise PrecisionExhausted("only in the child")
                if fault == "signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(0)
            return real(ps)

        code, out, _ = self.warm_bounds_as_serial(
            tmp_path, capsys, monkeypatch, cpus, root_set_bounds
        )
        assert code == 0 and out.startswith("name\tbound\tempirical\tsatisfied\n")
