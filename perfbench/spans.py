"""Span tracer for the benchmark's traced run.

The tracer times calls into multifract's public functions from outside the
package: :func:`installed` replaces each target function, in every
multifract module namespace that binds it, with a wrapper that records one
span (name, start, end, parent, outcome, notes) per call. Spans stay in
memory; :func:`layer_metrics` turns the spans of one pass into per-layer
counts and self times.

Names must be patched where they are looked up: ``multiplicative`` binds
``prefix_counts_up_to`` and ``semigroup_elements`` by name, so patching only
``symbolic.<fn>`` would miss those calls. Patching every namespace that holds
the original function object covers both.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# span name -> workloads on which the span must fire at least once
SPANS = {
    "thermo.solve_psi": ("spectra", "sampling"),
    "thermo.pressure_derivative": ("spectra", "sampling"),
    "thermo.solve_pressure_slope": ("spectra", "sampling"),
    "thermo.level_domain": ("spectra",),
    "thermo.legendre_spectrum": ("spectra",),
    "thermo.pressure_curve": ("spectra",),
    "thermo.markov_measure": ("sampling",),
    "walks.walk_spectrum": ("dims_walks",),
    "walks.solve_gradient": ("dims_walks",),
    "walks.pressure_gradient": ("dims_walks",),
    "walks.walk_pressure": ("dims_walks",),
    "walks.spectral_radius": ("dims_walks",),
    "multiplicative.dims_report": ("dims_walks",),
    "multiplicative.kps_solution": ("dims_walks",),
    "multiplicative.kps_box": ("dims_walks",),
    "multiplicative.psss_solution": ("dims_walks",),
    "multiplicative.psss_box": ("dims_walks",),
    "symbolic.prefix_counts_up_to": ("dims_walks",),
    "symbolic.semigroup_elements": ("dims_walks",),
    "symbolic.spherically_symmetric": ("dims_walks",),
    "telescopic.sample": ("sampling",),
    "telescopic.empirical_multiple_average": ("sampling",),
    "riesz.sample": ("sampling",),
    "riesz.walsh_average": ("sampling",),
}

# CLI spans are named after the subcommand: cli.<argv[0]>
CLI_SPANS = {
    "cli.spectrum": ("spectra",),
    "cli.dims": ("dims_walks",),
    "cli.riesz": ("sampling",),
    "cli.sample": ("sampling",),
}

SPAN_WORKLOADS = {**SPANS, **CLI_SPANS}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _before_solve_psi(args, kwargs):
    # fresh iff the per-potential cache grows; a potential without a cache
    # solves every call afresh
    cache = getattr(_arg(args, kwargs, 0, "potential"), "_cache", None)
    return None if cache is None else len(cache)


def _note_solve_psi(args, kwargs, result, before):
    cache = getattr(_arg(args, kwargs, 0, "potential"), "_cache", None)
    fresh = before is None or cache is None or len(cache) > before
    return {"fresh": int(fresh), "iterations": int(result.iterations) if fresh else 0}


def _note_residual(args, kwargs, result, before):
    return {"residual": float(result.residual)}


def _note_psss(args, kwargs, result, before):
    return {"residual": float(result.residual), "depth": int(result.depth)}


def _note_points(args, kwargs, result, before):
    return {"points": len(_arg(args, kwargs, 1, "s_grid"))}


def _note_symbols(args, kwargs, result, before):
    return {"symbols": int(_arg(args, kwargs, 1, "n"))}


_BEFORE = {"thermo.solve_psi": _before_solve_psi}
_NOTES = {
    "thermo.solve_psi": _note_solve_psi,
    "thermo.pressure_curve": _note_points,
    "multiplicative.kps_solution": _note_residual,
    "multiplicative.psss_solution": _note_psss,
    "telescopic.sample": _note_symbols,
    "riesz.sample": _note_symbols,
}


class Tracer:
    """In-memory span recorder for one thread.

    Each span is a list [name, start, end, parent, ok, notes]; parent is the
    index of the enclosing span, or -1 at top level.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, before=None, note=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, False, None]
        self.spans.append(span)
        self._stack.append(index)
        pre = before(args, kwargs) if before else None
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            span[4] = True
            return result
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if span[4] and note:
                span[5] = note(args, kwargs, result, pre)


def _wrap(tracer, name, fn):
    before, note = _BEFORE.get(name), _NOTES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, before, note)

    return traced


def _wrap_cli(tracer, fn):
    @functools.wraps(fn)
    def traced(argv=None):
        name = f"cli.{argv[0]}" if argv else "cli.main"
        return tracer.call(name, fn, (argv,), {})

    return traced


@contextlib.contextmanager
def installed(tracer):
    """Patch every traced function in every multifract namespace; undo on exit."""
    modules = [m for n, m in sys.modules.items() if n == "multifract" or n.startswith("multifract.")]
    originals = {}
    for name in SPANS:
        modname, fname = name.split(".")
        originals[name] = getattr(sys.modules[f"multifract.{modname}"], fname)
    cli_main = sys.modules["multifract.cli"].main
    replacements = {id(fn): _wrap(tracer, name, fn) for name, fn in originals.items()}
    replacements[id(cli_main)] = _wrap_cli(tracer, cli_main)
    restore = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                restore.append((module, attr, value))
                setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, value in restore:
            setattr(module, attr, value)


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, ok, notes in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def _under(spans, ancestor):
    """For each span, the index of its nearest enclosing span named `ancestor`, or -1."""
    owner = []
    for name, start, end, parent, ok, notes in spans:
        if parent < 0:
            owner.append(-1)
        elif spans[parent][0] == ancestor:
            owner.append(parent)
        else:
            owner.append(owner[parent])
    return owner


def counts(spans) -> dict:
    """Deterministic tallies of one pass: calls per span name plus solver notes."""
    out = Counter(f"{s[0]}.calls" for s in spans)
    out["returns.walks.spectral_radius"] = sum(
        1 for s in spans if s[0] == "walks.spectral_radius" and s[4]
    )
    for s in spans:
        if s[5]:
            for key, value in s[5].items():
                if key in ("fresh", "iterations", "points", "symbols"):
                    out[f"{s[0]}.{key}"] += value
                elif key == "depth":
                    out[f"{s[0]}.depth"] = max(out[f"{s[0]}.depth"], value)
    return dict(out)


def layer_metrics(spans, bytes_out: int) -> dict:
    """Per-layer metric values of one traced pass; names as BENCHMARK.json per_layer."""
    self_s = _self_times(spans)
    busy = defaultdict(float)
    total = defaultdict(float)
    for s, own in zip(spans, self_s):
        busy[s[0]] += own
        total[s[0]] += s[2] - s[1]
    c = counts(spans)

    def calls(name):
        return c.get(f"{name}.calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def max_note(name, key):
        values = [s[5][key] for s in spans if s[0] == name and s[5]]
        return max(values) if values else 0.0

    def per_owner(child, owner_name, key=None):
        """Per call of `owner_name`: child spans inside it (or their summed note `key`)."""
        owner = _under(spans, owner_name)
        per = {i: 0 for i, sp in enumerate(spans) if sp[0] == owner_name}
        for i, sp in enumerate(spans):
            if sp[0] == child and owner[i] >= 0:
                per[owner[i]] += (sp[5] or {}).get(key, 0) if key else 1
        return list(per.values())

    def median(values):
        return statistics.median(values) if values else 0

    solve_calls = calls("thermo.solve_psi")
    fresh = c.get("thermo.solve_psi.fresh", 0)
    per_alpha = per_owner("thermo.solve_psi", "thermo.legendre_spectrum")
    fresh_per_alpha = per_owner("thermo.solve_psi", "thermo.legendre_spectrum", "fresh")
    per_curve = per_owner("thermo.solve_psi", "thermo.pressure_curve")
    perron = per_owner("walks.walk_pressure", "walks.walk_spectrum")

    m = {
        "thermo.legendre_spectrum.calls": calls("thermo.legendre_spectrum"),
        "thermo.solve_psi.calls": solve_calls,
        "thermo.solve_psi.fresh": fresh,
        "thermo.solve_psi.hit_ratio": ratio(solve_calls - fresh, solve_calls),
        "thermo.solve_psi.iterations": c.get("thermo.solve_psi.iterations", 0),
        "thermo.solve_psi.self_s": busy["thermo.solve_psi"],
        "thermo.solves_per_alpha": median(per_alpha),
        "thermo.solves_per_alpha.min": min(per_alpha, default=0),
        "thermo.solves_per_alpha.max": max(per_alpha, default=0),
        "thermo.fresh_per_alpha": median(fresh_per_alpha),
        "thermo.solves_per_point": ratio(sum(per_curve), c.get("thermo.pressure_curve.points", 0)),
        "thermo.pressure_derivative.calls": calls("thermo.pressure_derivative"),
        "thermo.pressure_derivative.self_s": busy["thermo.pressure_derivative"],
        "thermo.solve_pressure_slope.self_s": busy["thermo.solve_pressure_slope"],
        "thermo.level_domain.self_s": busy["thermo.level_domain"],
        "thermo.pressure_curve.self_s": busy["thermo.pressure_curve"],
        "walks.walk_spectrum.calls": calls("walks.walk_spectrum"),
        "walks.walk_pressure.calls": calls("walks.walk_pressure"),
        "walks.perron_per_alpha": median(perron),
        "walks.perron_per_alpha.min": min(perron, default=0),
        "walks.perron_per_alpha.max": max(perron, default=0),
        "walks.spectral_radius.calls": calls("walks.spectral_radius"),
        "walks.spectral_radius.self_s": busy["walks.spectral_radius"],
        "walks.eig_fallbacks": calls("walks.walk_pressure") - c["returns.walks.spectral_radius"],
        "walks.pressure_gradient.calls": calls("walks.pressure_gradient"),
        "walks.solve_gradient.self_s": busy["walks.solve_gradient"],
        "multiplicative.kps_solution.self_s": busy["multiplicative.kps_solution"],
        "multiplicative.kps_solution.residual": max_note("multiplicative.kps_solution", "residual"),
        "multiplicative.psss_solution.self_s": busy["multiplicative.psss_solution"],
        "multiplicative.psss_solution.depth": c.get("multiplicative.psss_solution.depth", 0),
        "multiplicative.psss_solution.residual": max_note("multiplicative.psss_solution", "residual"),
        "multiplicative.kps_box.self_s": busy["multiplicative.kps_box"],
        "multiplicative.psss_box.self_s": busy["multiplicative.psss_box"],
        "symbolic.prefix_counts_up_to.calls": calls("symbolic.prefix_counts_up_to"),
        "symbolic.prefix_counts_up_to.self_s": busy["symbolic.prefix_counts_up_to"],
        "symbolic.semigroup_elements.calls": calls("symbolic.semigroup_elements"),
        "symbolic.semigroup_elements.self_s": busy["symbolic.semigroup_elements"],
        "symbolic.spherically_symmetric.self_s": busy["symbolic.spherically_symmetric"],
        "telescopic.sample.self_s": busy["telescopic.sample"],
        "telescopic.sample.msym_per_s": ratio(
            c.get("telescopic.sample.symbols", 0) / 1e6, total["telescopic.sample"]
        ),
        "telescopic.empirical_multiple_average.self_s": busy["telescopic.empirical_multiple_average"],
        "riesz.sample.self_s": busy["riesz.sample"],
        "riesz.sample.msym_per_s": ratio(c.get("riesz.sample.symbols", 0) / 1e6, total["riesz.sample"]),
        "riesz.walsh_average.self_s": busy["riesz.walsh_average"],
        "cli.spectrum.self_s": busy["cli.spectrum"],
        "cli.dims.self_s": busy["cli.dims"],
        "cli.riesz.self_s": busy["cli.riesz"],
        "cli.sample.self_s": busy["cli.sample"],
        "cli.bytes_out": bytes_out,
        "trace.spans": len(spans),
    }
    return m


def missing_spans(spans, workload: str) -> list[str]:
    """Declared spans for `workload` that never fired (a missed by-name binding)."""
    fired = {s[0] for s in spans}
    return sorted(n for n, wls in SPAN_WORKLOADS.items() if workload in wls and n not in fired)
