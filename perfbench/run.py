"""Benchmark for multifract: one closed-loop caller, one process, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): ``spectra``,
``dims_walks``, ``sampling``. The seed generates every input the program
receives. The run repeats passes of the workload's operation mix, each on
fresh objects, for about ``--seconds`` seconds, checks every output against
an oracle, prints a readable report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes on the same inputs and reports per-layer counts
and self times, plus the tracing overhead.
"""

import os

# one caller, no helper threads: pin BLAS/OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 2


def declared_units():
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import multifract from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "multifract" / "__init__.py").is_file():
        print(f"error: no multifract sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import multifract

    if not Path(multifract.__file__).resolve().is_relative_to(SRC):
        print(f"error: multifract imported from {multifract.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def tail(values):
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import multifract and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(wl, inp, tracer=None):
    """One pass of the workload, optionally under the tracer; checks settle after the clock."""
    from spans import installed
    from workloads import Pass

    p = Pass()
    with installed(tracer) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        wl.run(inp, p)
        p.wall = time.perf_counter() - start
    p.spans = tracer.spans if tracer else None
    p.settle()
    return p


def timed_passes(wl, seconds):
    """Passes on fresh inputs until the next one would overrun `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, wl.inputs(len(passes))))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def traced_passes(wl, seconds):
    """Alternate untraced and traced passes on identical inputs."""
    from spans import Tracer

    inp = wl.inputs(0)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(wl, inp))
        traced.append(run_pass(wl, inp, Tracer()))
        elapsed = time.perf_counter() - start
        pair = statistics.median(p.wall for p in plain) + statistics.median(p.wall for p in traced)
        if len(traced) >= MIN_PASSES and elapsed + pair > seconds:
            return plain, traced


def fmt(x):
    return f"{x:.6g}"


def e2e_metrics(wl, passes, setup_s, lines):
    """End-to-end metrics plus the report lines that name them per workload."""
    times = {}
    for p in passes:
        for kind, ts in p.times.items():
            times.setdefault(kind, []).extend(ts)
    walls = [p.wall for p in passes]
    lines.append(f"wall_s = {fmt(statistics.median(walls))} s per pass "
                 f"(median of {len(walls)} passes)")
    for kind in sorted(times):
        ts = times[kind]
        line = f"{kind}_ms_p50 = {fmt(1e3 * statistics.median(ts))} ms (n={len(ts)})"
        if len(ts) >= 50:
            pct, top = tail(ts)
            line += f"; {kind}_ms_tail = p{pct:.1f} {fmt(1e3 * top)} ms (10 samples beyond)"
        lines.append(line)
    for name, (kinds, per_call, unit) in wl.rates.items():
        busy = sum(statistics.median(times[k]) for k in kinds)
        lines.append(f"{name} = {fmt(per_call * len(kinds) / busy)} {unit} (from per-call medians)")

    def stat(kind, which):
        ts = times[kind]
        return 1e3 * (statistics.median(ts) if which == "p50" else tail(ts)[1])

    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "query_ms_p50": stat(wl.query, "p50"),
        "query_ms_tail": stat(wl.query, "tail"),
        "cli_ms": stat(*wl.cli),
        "cli2_ms": stat(*wl.cli2),
    }


def layer_metrics(wl, plain, traced, units, lines, checks):
    """Per-layer metrics of the traced passes; the tracer's self-checks go to `checks`.

    Timings (declared in s or Msym/s) are medians over the traced passes;
    the rest are counts, identical on every traced pass of the same inputs.
    """
    from spans import counts, layer_metrics, missing_spans

    first = counts(traced[0].spans)
    same = all(counts(p.spans) == first for p in traced[1:])
    checks.check("traced passes on identical inputs give identical counts", lambda: same)
    missing = missing_spans(traced[0].spans, wl.name)
    checks.check(f"declared spans fire (missing: {missing})", lambda: not missing)
    per_pass = [layer_metrics(p.spans, p.bytes_out) for p in traced]
    metrics = dict(per_pass[0])
    for name, unit in units.items():
        if unit in ("s", "Msym/s") and name in metrics:
            metrics[name] = statistics.median(m[name] for m in per_pass)
    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    lines.append(f"traced wall_s = {fmt(traced_wall)} s, untraced wall_s = {fmt(plain_wall)} s, "
                 f"overhead = {fmt(traced_wall - plain_wall)} s per pass "
                 f"({len(traced)} traced, {len(plain)} untraced passes)")
    return {name: metrics[name] for name in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, Pass

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_run"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.inputs(0)
        if args.setup_only:
            return 0
        setup_s = measure_setup(args)
        wl.warmup()  # untimed: fills OS and numpy state, never the program's caches
        e2e_units, layer_units = declared_units()
        run_level = Pass()
        wl.run_checks(run_level)
        run_level.settle()
        lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}",
                 f"setup_s = {fmt(setup_s)} s (median of {SETUP_REPEATS} fresh interpreters)"]
        if args.trace:
            plain, traced = traced_passes(wl, args.seconds)
            passes = plain + traced
            units = layer_units
            metrics = layer_metrics(wl, plain, traced, units, lines, run_level)
            run_level.settle()
        else:
            passes = timed_passes(wl, args.seconds)
            units = e2e_units
            metrics = e2e_metrics(wl, passes, setup_s, lines)
        attempted = run_level.attempted + sum(p.attempted for p in passes)
        failures = run_level.failures + [f for p in passes for f in p.failures]
        failed = len(failures)
        lines.append(f"error_rate = {failed}/{attempted} = {fmt(failed / attempted)}")
        for label in failures[:20]:
            lines.append(f"FAILED: {label}")
        for line in lines:
            print(line)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
