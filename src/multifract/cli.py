"""Command-line front end.

Subcommands: spectrum (pressure/spectrum curves), dims (Hausdorff and box
dimensions of an automaton-defined set), walk (oriented-walk spectra and
trajectories), riesz (Riesz-product sampling), sample (telescopic-measure
paths), verify (cross-check suite). Exit codes: 0 success, 2 configuration
error, 3 numeric non-convergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import multiplicative, riesz, symbolic, telescopic, thermo, walks
from .errors import ConvergenceError, ValidationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as e:
        raise ValidationError(f"grid must be start:stop:count, got {text!r}") from e
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"grid endpoints must be finite, got {text!r}")
    if count < 2:
        raise ValidationError(f"grid count must be >= 2, got {count}")
    return np.linspace(start, stop, count)


def _parse_list(text: str, kind: type, flag: str) -> list:
    """The comma-separated values of `kind` given to the option `flag`."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as e:
        raise ValidationError(f"{flag} must be comma-separated {kind.__name__}s, got {text!r}") from e


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ValidationError(f"cannot read config {path}: {e}") from e


def _write(text: str, args) -> None:
    """Write text to --out, or to stdout without it."""
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(rows: list[dict], header: list[str], args) -> None:
    """Write rows as CSV or JSON, to --out or stdout, deterministically.

    JSON has no NaN or infinity, so a non-finite float is written as null.
    """
    if args.format == "json":
        rows = [
            {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in row.items()}
            for row in rows
        ]
        text = json.dumps(rows, indent=2, default=str) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(
                ",".join(
                    "%.17g" % row[h] if isinstance(row[h], float) else str(row[h])
                    for h in header
                )
            )
        text = "\n".join(lines) + "\n"
    _write(text, args)


def _load_potential(args) -> thermo.Potential:
    if args.config:
        ignored = [f"--{name}" for name in ("potential", "q", "d") if getattr(args, name) is not None]
        if ignored:
            raise ValidationError(f"spectrum takes {', '.join(ignored)} only without --config")
        return thermo.Potential.from_json(_read_config(args.config))
    q, d = (2 if value is None else value for value in (args.q, args.d))
    if args.potential == "rademacher":
        return thermo.rademacher_potential(q, d)
    if args.potential == "indicator":
        return thermo.indicator_potential(q, d)
    raise ValidationError("spectrum needs --config FILE or --potential NAME")


def cmd_spectrum(args) -> int:
    potential = _load_potential(args)
    grid = _parse_grid(args.grid)
    curve = thermo.pressure_curve(potential, grid)
    rows = [
        {"s": s, "pressure": p, "alpha": alpha, "dim": dim}
        for s, p, _, alpha, dim in curve.rows()
    ]
    _emit(rows, ["s", "pressure", "alpha", "dim"], args)
    return EXIT_OK


def cmd_dims(args) -> int:
    automaton = symbolic.PrefixAutomaton.from_json(_read_config(args.config))
    spec = None
    if args.semigroup:
        spec = symbolic.SemigroupSpec(tuple(_parse_list(args.semigroup, int, "--semigroup")))
    report = multiplicative.dims_report(automaton, q=args.q, spec=spec, tol=args.tol)
    _write(json.dumps(report, indent=2) + "\n", args)
    return EXIT_OK


def _load_system(args) -> walks.WalkSystem:
    if args.system == "case1":
        return walks.case1()
    if args.system == "case2":
        return walks.case2()
    return walks.WalkSystem.from_json(_read_config(args.system))


def cmd_walk(args) -> int:
    if args.alpha is not None and args.grid is not None:
        raise ValidationError("walk takes --grid only without --alpha")
    system = _load_system(args)
    if args.alpha is not None:
        alpha = np.array(_parse_list(args.alpha, float, "--alpha"))
        if alpha.shape != (system.dim,):
            raise ValidationError(f"alpha needs {system.dim} coordinates")
        dim = walks.walk_spectrum(system, alpha)
        names = ["alpha"] if system.dim == 1 else [f"alpha_{i + 1}" for i in range(system.dim)]
        rows = [{**{name: "%.17g" % a for name, a in zip(names, alpha)}, "dim": dim}]
        _emit(rows, [*names, "dim"], args)
        return EXIT_OK
    if system.dim != 1:
        raise ValidationError("--grid spectra need a one-dimensional system; use --alpha")
    grid = _parse_grid("-3:3:121" if args.grid is None else args.grid)
    rows = []
    for s in grid:
        alpha = float(walks.pressure_gradient(system, [s])[0])
        p = walks.pressure(system, [s])
        rows.append(
            {"s": float(s), "alpha": alpha, "dim": (p - s * alpha) / system.log_base}
        )
    _emit(rows, ["s", "alpha", "dim"], args)
    return EXIT_OK


def cmd_riesz(args) -> int:
    measure = riesz.WalshRieszMeasure(d=args.d, b=args.b)
    if args.n < args.d:
        raise ValidationError(f"--n must be at least --d = {args.d} to average, got {args.n}")
    path = riesz.sample(measure, args.n, args.seed)
    if args.out:
        lines = np.empty((len(path), 3), dtype=np.uint8)  # "+1\n" or "-1\n" per symbol
        lines[:, 0] = np.where(path > 0, ord("+"), ord("-"))
        lines[:, 1] = ord("1")
        lines[:, 2] = ord("\n")
        Path(args.out).write_bytes(lines.tobytes())
    avg = riesz.walsh_average(path, args.d, args.n // args.d)
    sys.stdout.write(
        json.dumps({"d": args.d, "b": args.b, "n": args.n, "seed": args.seed,
                    "empirical_average": avg}) + "\n"
    )
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.measure == "uniform":
        base = telescopic.BaseMeasure.uniform(2 if args.m is None else args.m)
    else:
        base = telescopic.BaseMeasure.from_json(_read_config(args.measure))
        if args.m not in (None, base.m):
            raise ValidationError(f"--m {args.m} does not match the measure file's m = {base.m}")
    digits = np.frombuffer(b"0123456789abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    if base.m > len(digits):
        raise ValidationError(f"sample writes one character 0-9a-z per symbol: m must be <= 36, "
                              f"got {base.m}")
    measure = telescopic.TelescopicMeasure(base=base, q=args.q)
    path = telescopic.sample(measure, args.n, args.seed)
    _write(digits[path.symbols].tobytes().decode("ascii") + "\n", args)
    return EXIT_OK


# -- verification suite --


def _check_thermo_closed_form() -> dict:
    potential = thermo.rademacher_potential(2, 2)
    alphas = np.linspace(-0.9, 0.9, 19)
    worst = 0.0
    for alpha in alphas:
        got = thermo.legendre_spectrum(potential, float(alpha))
        h = riesz.entropy((1 + alpha) / 2)
        want = 0.5 + h / (2 * math.log(2))
        worst = max(worst, abs(got - want))
    return {"check": "thermo-closed-form", "stat": worst, "bound": 1e-6}


def _check_x2_count(n_max: int = 16) -> dict:
    automaton = symbolic.fibonacci_automaton()
    worst = 0
    for n in range(1, n_max + 1):
        exact = multiplicative.exact_count_x2(n)
        brute = multiplicative.brute_force_count(automaton, 2, n)
        worst = max(worst, abs(exact - brute))
    return {"check": "x2-count", "stat": worst, "bound": 0}


def _check_legendre_ruelle() -> dict:
    worst = 0.0
    for potential in (thermo.indicator_potential(2, 2), thermo.rademacher_potential(2, 2)):
        for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
            alpha = thermo.pressure_derivative(potential, s)
            lhs = thermo.ruelle_dimension(potential, s)
            rhs = thermo.legendre_spectrum(potential, alpha)
            worst = max(worst, abs(lhs - rhs))
    return {"check": "legendre-ruelle", "stat": worst, "bound": 1e-8}


def _check_walk_closed_form() -> dict:
    system = walks.case1()
    worst = 0.0
    for alpha in np.linspace(-0.9, 0.9, 13):
        got = walks.walk_spectrum(system, [float(alpha)])
        worst = max(worst, abs(got - walks.closed_form_case1(float(alpha))))
    return {"check": "walk-closed-form", "stat": worst, "bound": 1e-6}


def _check_level_set_sampling() -> dict:
    potential = thermo.indicator_potential(2, 2)
    s = thermo.solve_pressure_slope(potential, 0.5)
    base = thermo.markov_measure(potential, s)
    measure = telescopic.TelescopicMeasure(base=base, q=2)
    n = 20_000
    devs = []
    for seed in range(40):
        path = telescopic.sample(measure, 2 * n, seed)
        avg = telescopic.empirical_multiple_average(path.symbols, potential, n)
        devs.append(abs(avg - 0.5))
    return {"check": "level-set-sampling", "stat": float(np.median(devs)), "bound": 0.01}


_CHECKS = {
    "thermo-closed-form": _check_thermo_closed_form,
    "x2-count": _check_x2_count,
    "legendre-ruelle": _check_legendre_ruelle,
    "walk-closed-form": _check_walk_closed_form,
    "level-set-sampling": _check_level_set_sampling,
}


def cmd_verify(args) -> int:
    names = [args.only] if args.only else list(_CHECKS)
    unknown = [name for name in names if name not in _CHECKS]
    if unknown:
        raise ValidationError(f"unknown checks: {unknown}; available: {sorted(_CHECKS)}")
    failures = 0
    reports = []
    for name in names:
        report = _CHECKS[name]()
        report["pass"] = bool(report["stat"] <= report["bound"])
        failures += not report["pass"]
        reports.append(report)
    _write(json.dumps(reports, indent=2) + "\n", args)
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multifract")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="pressure and spectrum curve over an s-grid")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", default=None, help="potential JSON file")
    p.add_argument("--potential", choices=("indicator", "rademacher"), default=None)
    p.add_argument("--q", type=int, default=None, help="without --config (default 2)")
    p.add_argument("--d", type=int, default=None, help="without --config (default 2)")
    p.add_argument("--grid", default="-10:10:201")

    p = sub.add_parser("dims", help="Hausdorff and box dimensions of an automaton set")
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--config", required=True, help="prefix-automaton JSON file")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--semigroup", default=None, help="comma-separated primes")

    p = sub.add_parser("walk", help="oriented-walk spectrum")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--system", required=True, help="case1, case2, or a JSON file")
    p.add_argument("--alpha", default=None, help="comma-separated drift vector")
    p.add_argument("--grid", default=None, help="s-grid for 1-d systems, without --alpha (default -3:3:121)")

    p = sub.add_parser("riesz", help="sample a Walsh-Riesz product path")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--n", type=int, default=1000)

    p = sub.add_parser("sample", help="sample a telescopic-measure path")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--measure", default="uniform", help="'uniform' or a base-measure JSON file")
    p.add_argument("--m", type=int, default=None, help="default 2; with a file, its m")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--n", type=int, default=10)

    p = sub.add_parser("verify", help="run the cross-check suite")
    p.add_argument("--out", default=None)
    p.add_argument("--only", default=None)
    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "dims": cmd_dims,
    "walk": cmd_walk,
    "riesz": cmd_riesz,
    "sample": cmd_sample,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
