"""The benchmark's three workloads: inputs, one timed pass, and oracles.

A pass runs the workload's whole operation mix once on inputs generated
from (seed, pass index). Every object the program caches on (``Potential``
with its float-keyed solve cache, ``WalkSystem`` with its cached orbit and
step mask, automata parsed from JSON) is built afresh inside the pass, so a
pass times what a CLI user pays, never a warm cache. Outputs are kept and
checked against independent oracles after the pass clock stops.

Every call into the program goes through the module attribute
(``thermo.legendre_spectrum``, not a bound name) so the traced run's patches
see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from multifract import cli, multiplicative, symbolic, telescopic, thermo, walks

LOG2 = math.log(2)
DIMS_TOL = 1e-8


def entropy(t: float) -> float:
    """H(t) in nats; the oracles' own copy, independent of the program's."""
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -t * math.log(t) - (1 - t) * math.log(1 - t)


class Pass:
    """Timings and check results of one pass."""

    def __init__(self):
        self.times = defaultdict(list)  # op kind -> seconds per call
        self.wall = 0.0
        self.spans = None  # traced passes only
        self.attempted = 0
        self.failures: list[str] = []
        self.bytes_out = 0
        self._pending: list = []

    def timed(self, kind, fn, *args):
        """Run fn(*args) as one attempted operation; None when it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # counted as a failed operation, run continues
            self.times[kind].append(time.perf_counter() - start)
            self.failures.append(f"{kind}: {type(e).__name__}: {e}")
            return None
        self.times[kind].append(time.perf_counter() - start)
        return result

    def cli(self, kind, argv, out=None):
        """One in-process CLI call; returns its exit code, or None when it raised.

        The exit code is checked after the clock stops. `out`, the call's
        ``--out`` file, is removed first, so a call that fails to write it
        leaves no stale file behind; its size counts toward ``bytes_out``
        only when the call exits with code 0.
        """
        if out is not None:
            out.unlink(missing_ok=True)

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        res = self.timed(kind, call)
        if res is None:
            return None
        code, text = res
        self.bytes_out += len(text.encode())
        self.check(f"{kind} exit code", lambda: code == 0)
        if code == 0 and out is not None and out.is_file():
            self.bytes_out += out.stat().st_size
        return code, text

    def check(self, label, ok):
        """Defer an oracle comparison (one attempted check) until the pass clock stops."""
        self.attempted += 1
        self._pending.append((label, ok))

    def settle(self):
        for label, ok in self._pending:
            try:
                good = bool(ok())
            except Exception as e:  # a crashing oracle is a failed check
                label = f"{label}: {type(e).__name__}: {e}"
                good = False
            if not good:
                self.failures.append(label)
        self._pending.clear()


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


class Workload:
    """Inputs of pass `index` come from (seed, index); `run` times one pass into a Pass."""

    name = ""
    query = ""  # op kind behind query_ms_p50 and query_ms_tail
    cli = ("", "p50")  # (op kind, statistic) behind cli_ms
    cli2 = ("", "p50")  # (op kind, statistic) behind cli2_ms
    rates: dict = {}  # report name -> (op kinds, work units per call of each, unit)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def run_checks(self, p: Pass):
        """Run-level oracles, once per run and outside every timed call."""


# -- spectra ------------------------------------------------------------------

RADEMACHER = ((2, 2), (2, 3), (3, 2))
SPECTRUM_GRID = "-10:10:401"


class Spectra(Workload):
    """Forward (grid -> P, P') and inverse (alpha -> s) use of the thermo solver."""

    name = "spectra"
    query = "legendre"  # ms per alpha
    cli = ("spectrum_d2", "p50")  # ms per 401-point spectrum call
    cli2 = ("spectrum_d3", "p50")
    rates = {"spectrum_points_per_s": (("spectrum_d2", "spectrum_d3"), 401, "grid points/s")}
    alphas_per_potential = 8
    lr_points = 3

    def inputs(self, index: int) -> dict:
        rng = _rng(self.seed, index, 0)
        return {
            "alphas": {qd: rng.uniform(-0.95, 0.95, self.alphas_per_potential) for qd in RADEMACHER},
            "table": rng.uniform(-1.0, 1.0, (3, 3, 3)),
            "lr_s": rng.uniform(-3.0, 3.0, self.lr_points),
        }

    def run(self, inp: dict, p: Pass):
        for d in (2, 3):
            out = self.workdir / f"spectrum_d{d}.csv"
            argv = ["spectrum", "--potential", "rademacher", "--q", "2", "--d", str(d),
                    f"--grid={SPECTRUM_GRID}", "--out", str(out)]
            if p.cli(f"spectrum_d{d}", argv, out) is not None:
                p.check(f"spectrum d={d} CSV rows", lambda out=out: _csv_rows(out) == 401)
        for (q, d), alphas in inp["alphas"].items():
            potential = thermo.rademacher_potential(q, d)
            for alpha in map(float, alphas):
                got = p.timed("legendre", thermo.legendre_spectrum, potential, alpha)
                p.check(f"legendre q={q} d={d} alpha={alpha!r}",
                        lambda got=got, q=q, d=d, a=alpha: abs(got - _rademacher_dim(q, d, a)) <= 1e-6)
        potential = thermo.Potential(m=3, q=2, d=3, table=inp["table"])
        curve = p.timed("curve", thermo.pressure_curve, potential, np.linspace(-4.0, 4.0, 41))
        p.check("pressure curve convex", lambda: thermo.convexity_defect(curve.P) >= -1e-9)
        for s in map(float, inp["lr_s"]):
            alpha = p.timed("lr", thermo.pressure_derivative, potential, s)
            ruelle = p.timed("lr", thermo.ruelle_dimension, potential, s)
            dual = p.timed("legendre", thermo.legendre_spectrum, potential, alpha)
            p.check(f"legendre-ruelle s={s!r}", lambda r=ruelle, l=dual: abs(r - l) <= 1e-8)

    def warmup(self):
        potential = thermo.rademacher_potential(2, 2)
        thermo.legendre_spectrum(potential, 0.3)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["spectrum", "--potential", "rademacher", "--grid=-1:1:5"])


def _rademacher_dim(q: int, d: int, alpha: float) -> float:
    """1 - 1/q^{d-1} + H((1+alpha)/2) / (q^{d-1} log 2).

    For d=2 this is the closed form of the Rademacher spectrum; for d=3 it is
    the quarter form the machinery satisfies (not the stated 2/3 form, which
    is inconsistent).
    """
    n = q ** (d - 1)
    return 1 - 1 / n + entropy((1 + alpha) / 2) / (n * LOG2)


def _csv_rows(path: Path) -> int:
    lines = path.read_text().splitlines()
    return len(lines) - 1 if lines and lines[0] == "s,pressure,alpha,dim" else -1


# -- dims_walks -----------------------------------------------------------------

AUTOMATA = {
    "fibonacci": (symbolic.fibonacci_automaton, False),
    "forbid111": (lambda: symbolic.forbid_ones_run(3), False),
    "even_ones": (symbolic.even_ones_shift, False),
    "two_regular_ternary": (symbolic.two_regular_ternary, True),
    "full_shift3": (lambda: symbolic.full_shift(3), True),
}
DIMS_MODES = (("--q", "2"), ("--q", "3"), ("--semigroup", "2,3"), ("--semigroup", "2,3,5"))


def _x2_hausdorff() -> float:
    """log_2 of the real root of x^3 - 2x^2 + x - 1 (dim_H of X_2)."""
    roots = np.roots([1.0, -2.0, 1.0, -1.0])
    return math.log(next(r.real for r in roots if abs(r.imag) < 1e-12)) / LOG2


class DimsWalks(Workload):
    """Perron solves of the oriented walks plus KPS/PSSS dimensions; no thermo."""

    name = "dims_walks"
    query = "walk"  # ms per alpha
    cli = ("dims", "p50")  # ms per dims call
    cli2 = ("dims", "tail")  # PSSS sets the tail
    rates = {"dims_per_s": (("dims",), 1, "dims calls/s")}
    case1_alphas = 20
    case2_alphas = 30

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.configs = {}
        for name, (make, _) in AUTOMATA.items():
            path = workdir / f"{name}.json"
            path.write_text(make().to_json())
            self.configs[name] = path

    def inputs(self, index: int) -> dict:
        rng = _rng(self.seed, index, 1)
        return {
            "case1": rng.uniform(-0.95, 0.95, self.case1_alphas),
            "case2": rng.uniform(-0.45, 0.45, (self.case2_alphas, 2)),
        }

    def run(self, inp: dict, p: Pass):
        for a in inp["case1"]:
            a = float(a)
            got = p.timed("walk", lambda a=a: walks.walk_spectrum(walks.case1(), [a]))
            p.check(f"walk case1 alpha={a!r}",
                    lambda got=got, a=a: abs(got - walks.closed_form_case1(a)) <= 1e-6)
        for a, b in inp["case2"]:
            a, b = float(a), float(b)
            got = p.timed("walk", lambda a=a, b=b: walks.walk_spectrum(walks.case2(), [a, b]))
            p.check(f"walk case2 alpha={(a, b)!r}",
                    lambda got=got, a=a, b=b: abs(got - walks.closed_form_case2(a, b)) <= 1e-6)
        for name, path in self.configs.items():
            for flag, value in DIMS_MODES:
                res = p.cli("dims", ["dims", "--config", str(path), flag, value])
                if res is not None:
                    p.check(f"dims {name} {flag} {value}",
                            lambda res=res, name=name, mode=(flag, value): _dims_ok(name, mode, *res))

    def warmup(self):
        walks.walk_spectrum(walks.case2(), [0.1, 0.2])
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["dims", "--config", str(self.configs["fibonacci"]), "--semigroup", "2,3"])

    def run_checks(self, p: Pass):
        """The x2-count oracle: product formula against brute-force enumeration."""
        automaton = symbolic.fibonacci_automaton()
        for n in range(1, 17):
            p.check(f"x2-count n={n}", lambda n=n: multiplicative.exact_count_x2(n)
                    == multiplicative.brute_force_count(automaton, 2, n))


def _dims_ok(name: str, mode, code: int, text: str) -> bool:
    if code != 0:
        return False
    report = json.loads(text)
    dim_h, dim_b = report["dim_H"], report["dim_B"]
    symmetric = AUTOMATA[name][1]
    ok = -DIMS_TOL <= dim_h <= dim_b + DIMS_TOL <= 1 + 2 * DIMS_TOL
    ok = ok and report["symmetric"] == symmetric
    if symmetric:  # spherically symmetric sets have dim_H = dim_B
        ok = ok and abs(dim_h - dim_b) <= DIMS_TOL
    if name == "full_shift3":
        ok = ok and abs(dim_h - 1) <= DIMS_TOL
    if name == "two_regular_ternary":
        ok = ok and abs(dim_h - math.log(2) / math.log(3)) <= DIMS_TOL
    if name == "fibonacci" and mode == ("--q", "2"):
        ok = ok and abs(dim_h - _x2_hausdorff()) <= 1e-9
    return ok


# -- sampling ---------------------------------------------------------------------

SAMPLE_N = 1_000_000
RIESZ_B = 0.5
LEVEL_ALPHA = 0.5
LEVEL_N = 100_000


class Sampling(Workload):
    """Seeded samplers and the CLI writer; thermo only as one slope solve."""

    name = "sampling"
    query = "path"  # ms per level-set path (sample 2n symbols + average)
    cli = ("riesz", "p50")  # ms per 1e6-symbol call, --out write included
    cli2 = ("sample", "p50")
    rates = {
        "riesz_msym_per_s": (("riesz",), SAMPLE_N * 1e-6, "1e6 symbols/s"),
        "sample_msym_per_s": (("sample",), SAMPLE_N * 1e-6, "1e6 symbols/s"),
    }
    paths = 12

    def inputs(self, index: int) -> dict:
        rng = _rng(self.seed, index, 2)
        seeds = rng.integers(0, 2**31, self.paths + 2)
        return {"riesz_seed": int(seeds[0]), "sample_seed": int(seeds[1]),
                "path_seeds": [int(s) for s in seeds[2:]]}

    def run(self, inp: dict, p: Pass):
        out = self.workdir / "riesz.txt"
        res = p.cli("riesz", ["riesz", "--d", "2", "--b", str(RIESZ_B), "--n", str(SAMPLE_N),
                              "--seed", str(inp["riesz_seed"]), "--out", str(out)], out)
        if res is not None:
            size = out.stat().st_size if out.is_file() else -1
            p.check("riesz output bytes", lambda size=size: size == 3 * SAMPLE_N)
            p.check("riesz average near b",
                    lambda res=res: abs(json.loads(res[1])["empirical_average"] - RIESZ_B) <= 0.01)
        out = self.workdir / "sample.txt"
        res = p.cli("sample", ["sample", "--measure", "uniform", "--n", str(SAMPLE_N),
                               "--seed", str(inp["sample_seed"]), "--out", str(out)], out)
        if res is not None:
            size = out.stat().st_size if out.is_file() else -1
            p.check("sample output bytes", lambda size=size: size == SAMPLE_N + 1)
            p.check("sample symbols uniform", lambda out=out: _uniform_digits(out))
        start = time.perf_counter()
        potential = thermo.indicator_potential(2, 2)
        s = p.timed("slope", thermo.solve_pressure_slope, potential, LEVEL_ALPHA)
        spec = p.timed("slope", thermo.markov_measure, potential, s)
        base = telescopic.BaseMeasure.from_markov_spec(spec)
        measure = telescopic.TelescopicMeasure(base=base, q=2)
        devs = []
        for seed in inp["path_seeds"]:
            avg = p.timed("path", lambda seed=seed: telescopic.empirical_multiple_average(
                telescopic.sample(measure, 2 * LEVEL_N, seed), potential, LEVEL_N))
            devs.append(abs(avg - LEVEL_ALPHA) if avg is not None else math.inf)
        p.times["levelset"].append(time.perf_counter() - start)
        p.check("level-set median deviation", lambda: float(np.median(devs)) <= 0.01)

    def warmup(self):
        potential = thermo.indicator_potential(2, 2)
        base = telescopic.BaseMeasure.uniform(2)
        path = telescopic.sample(telescopic.TelescopicMeasure(base=base, q=2), 1000, 0)
        telescopic.empirical_multiple_average(path, potential, 100)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["riesz", "--d", "2", "--b", "0.5", "--n", "1000"])


def _uniform_digits(path: Path) -> bool:
    text = path.read_text()
    digits = np.frombuffer(text.rstrip("\n").encode(), dtype=np.uint8) - ord("0")
    return bool(np.all(digits <= 1)) and abs(float(digits.mean()) - 0.5) <= 0.01


WORKLOADS = {w.name: w for w in (Spectra, DimsWalks, Sampling)}
