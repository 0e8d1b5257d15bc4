"""Dimensions of multiplicatively invariant symbolic sets.

Hausdorff dimension via the per-state fixed-point system, box dimension via
the prefix-count series, the exact product-formula count for the doubling
constraint set, a brute-force counting oracle, and the semigroup
generalization of both dimension formulas. Both box dimensions are one
semigroup series (:func:`symbolic.series_weights`); KPS is its one-generator case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConvergenceError, ValidationError
from .symbolic import (
    PrefixAutomaton,
    SemigroupSpec,
    _ascending_products,
    gamma_of_semigroup,
    lambda_partition,
    prefix_counts_up_to,
    semigroup_elements,
    series_weights,
)
from .thermo import fixed_point, operator_step

_BRUTE_FORCE_BITS = 24  # guard: m^n <= 2^24 states enumerated


@dataclass(frozen=True)
class KpsSolution:
    """Per-state fixed point t with t(state)^q = sum of children, plus the root value."""

    t: np.ndarray
    t_root: float
    q: int
    m: int
    residual: float

    @property
    def dimension(self) -> float:
        return (self.q - 1) * math.log(self.t_root) / math.log(self.m)


@dataclass(frozen=True)
class PsssSolution:
    """Leveled fixed point t(state, level) under the exponent schedule l_{k+1}/l_k."""

    t_root: float
    m: int
    depth: int
    residual: float  # bracket width between the two tail closures, in log_m units

    @property
    def dimension(self) -> float:
        return math.log(self.t_root) / math.log(self.m)


def kps_solution(automaton: PrefixAutomaton, q: int) -> KpsSolution:
    """Solve t(state)^q = sum over enabled symbols of t(next state), from t = 1.

    The iteration t <- (sum of children)^(1/q) is monotone from the
    sub-solution t = 1 and bounded by m^(1/(q-1)), so it converges to the
    unique fixed point in that box.
    """
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    t, residual, _ = fixed_point(*_state_operator(automaton), q, "on the automaton states")
    root = automaton.state_index()[automaton.initial]
    return KpsSolution(t=t, t_root=float(t[root]), q=q, m=automaton.m, residual=float(residual[0]))


def _state_operator(automaton: PrefixAutomaton) -> tuple[np.ndarray, np.ndarray]:
    """0/1 weights (symbol enabled) and child states of the transition table, -1 masked to 0."""
    table = np.array(automaton.transition_table())
    return (table >= 0).astype(float), np.maximum(table, 0)


def kps_hausdorff(automaton: PrefixAutomaton, q: int, m: int | None = None) -> float:
    """(q-1) log_m of the root value of the per-state fixed point."""
    _check_m(automaton, m)
    return kps_solution(automaton, q).dimension


def kps_box(automaton: PrefixAutomaton, q: int, m: int | None = None, tol: float = 1e-10) -> float:
    """(q-1)^2 sum_k log_m |Pref_k| / q^{k+1}: the semigroup series of the one generator q."""
    _check_m(automaton, m)
    return _box_series(automaton, (q,), tol)


def _box_series(automaton: PrefixAutomaton, generators: tuple[int, ...], tol: float) -> float:
    """sum_k w_k log_m |Pref_k| over :func:`symbolic.series_weights`, from one prefix count."""
    weights = series_weights(generators, tol)
    counts = prefix_counts_up_to(automaton, len(weights))
    logm = math.log(automaton.m)
    return math.fsum(w * math.log(c) / logm for w, c in zip(weights, counts[1:]))


def fibonacci_numbers(count: int) -> list[int]:
    """F_0 = 1, F_1 = 2, F_{n+2} = F_{n+1} + F_n."""
    fib = [1, 2]
    while len(fib) <= count:
        fib.append(fib[-1] + fib[-2])
    return fib[: count + 1]


def fibonacci_box_x2(tol: float = 1e-6) -> float:
    """Box dimension of the doubling constraint set: (1/(2 log 2)) sum log F_n / 2^n.

    Truncated once the closed-form tail bound, from log F_n <= log 2 + n log phi
    (F_n <= 2 * phi^n), drops below tol. Kept as an oracle independent of
    :func:`kps_box`.
    """
    if tol <= 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    phi = (1 + math.sqrt(5)) / 2
    # tail sum_{n>N} log(2 phi^n)/2^n = (log 2 + (N+2) log phi) / 2^N
    depth = 1
    while (math.log(2) + (depth + 2) * math.log(phi)) / 2**depth / (2 * math.log(2)) >= tol:
        depth += 1
    fib = fibonacci_numbers(depth)
    return sum(math.log(fib[n]) / 2**n for n in range(1, depth + 1)) / (2 * math.log(2))


def exact_count_x2(n: int) -> int:
    """Number of admissible length-n words for the doubling constraint, exact.

    Product formula by independence of the chains: with n_k = floor(n/2^{k+1} + 1/2)
    and m = floor(log2 n), the count is F_{m+1}^{n_m} * prod F_k^{n_{k-1} - n_k}.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    mtop = n.bit_length() - 1  # floor(log2 n)
    nk = [(n // 2 ** (k + 1)) + (1 if (n % 2 ** (k + 1)) * 2 >= 2 ** (k + 1) else 0) for k in range(mtop + 1)]
    fib = fibonacci_numbers(mtop + 1)
    count = fib[mtop + 1] ** nk[mtop]
    for k in range(1, mtop + 1):
        count *= fib[k] ** (nk[k - 1] - nk[k])
    return count


def brute_force_count(automaton: PrefixAutomaton, q: int, n: int) -> int:
    """Enumerate all m^n words and count those whose chain restrictions are admissible.

    Independent oracle for the product-formula and series counts; guarded so
    the enumeration stays within 2^24 words.
    """
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    m = automaton.m
    if n * math.log(m) > _BRUTE_FORCE_BITS * math.log(2) + 1e-9:
        raise ValidationError(f"m^n too large to enumerate (guard: m^n <= 2^{_BRUTE_FORCE_BITS})")
    table = automaton.transition_table()
    nstates = len(automaton.states)
    sink = nstates
    trans = np.full((nstates + 1, m), sink, dtype=np.int16)
    for s, row in enumerate(table):
        for sym, t in enumerate(row):
            if t >= 0:
                trans[s, sym] = t
    codes = np.arange(m**n, dtype=np.int32)
    init = automaton.state_index()[automaton.initial]
    valid = np.ones(m**n, dtype=bool)
    for chain in lambda_partition(q, n):
        state = np.full(m**n, init, dtype=np.int16)
        for pos in chain.elements:
            sym = (codes // np.int32(m ** (n - pos))) % m
            state = trans[state, sym]
        valid &= state != sink
    return int(valid.sum())


def _check_m(automaton: PrefixAutomaton, m: int | None):
    if m is not None and m != automaton.m:
        raise ValidationError(
            f"alphabet size {m} disagrees with the automaton's ({automaton.m})"
        )


def psss_solution(
    automaton: PrefixAutomaton,
    spec: SemigroupSpec,
    target: float = 1e-10,
) -> PsssSolution:
    """Solve the leveled system t(u)^{l_{k+1}/l_k} = sum of children on (state, level).

    The system is triangular in the level, so it is closed by one backward
    recursion from the truncation depth D of the box series at `target`
    (:func:`symbolic.series_weights`), started from the lower closure t = 1.
    The upper closure t = m^{l_D T}, T = sum_{k>D} 1/l_k, needs no sweep:
    step k is homogeneous of degree l_k/l_{k+1}, so its constant reaches the
    root as m^{T/gamma}. The closures thus bracket log_m t(root) within
    exactly T / gamma, computed in integers and bounded by the series' Abel
    tail, below `target`; a wider bracket raises ConvergenceError. The
    solution is the bracket's midpoint.
    """
    weights, child = _state_operator(automaton)
    m = automaton.m
    gamma = gamma_of_semigroup(spec)
    root = automaton.state_index()[automaton.initial]
    depth = max(len(series_weights(spec.primes, target)), 1)
    elems = semigroup_elements(spec, next(islice(_ascending_products(spec.primes), depth - 1, None)))
    t = np.ones(len(weights))
    for k in range(depth - 1, 0, -1):  # level k uses ratio l_{k+1}/l_k
        t = operator_step(weights, child, t, elems[k] / elems[k - 1])  # elems[k-1] = l_k
    lo = math.log(operator_step(weights, child, t, 1)[root] ** (1.0 / gamma)) / math.log(m)
    # T / gamma with gamma = prod p / prod (p - 1) and den = lcm(l_1..l_D)
    g_num, g_den = math.prod(spec.primes), math.prod(p - 1 for p in spec.primes)
    den = math.lcm(*elems)
    bracket = (g_num * den - g_den * sum(den // l for l in elems)) / (g_num * den)
    if bracket >= target:
        raise ConvergenceError("semigroup truncation did not close the bracket", bracket)
    return PsssSolution(t_root=float(m) ** (lo + bracket / 2), m=m, depth=depth, residual=bracket)


def psss_hausdorff(
    automaton: PrefixAutomaton, spec: SemigroupSpec, m: int | None = None
) -> float:
    """log_m of the root value of the leveled fixed point."""
    _check_m(automaton, m)
    return psss_solution(automaton, spec).dimension


def psss_box(
    automaton: PrefixAutomaton,
    spec: SemigroupSpec,
    m: int | None = None,
    tol: float = 1e-10,
) -> float:
    """gamma^{-1} sum_k (1/l_k - 1/l_{k+1}) log_m |Pref_k|, truncated at the first Abel tail below tol."""
    _check_m(automaton, m)
    return _box_series(automaton, spec.primes, tol)


def dims_report(
    automaton: PrefixAutomaton,
    q: int | None = None,
    spec: SemigroupSpec | None = None,
    tol: float = 1e-9,
) -> dict:
    """Hausdorff + box dimensions with the symmetry flag, as a plain dict."""
    from .symbolic import spherically_symmetric

    if (q is None) == (spec is None):
        raise ValidationError("pass exactly one of q or a semigroup spec")
    if q is not None:
        sol = kps_solution(automaton, q)
        dim_h = sol.dimension
        dim_b = kps_box(automaton, q, tol=tol)
        residual = sol.residual
    else:
        sol = psss_solution(automaton, spec)
        dim_h = sol.dimension
        dim_b = psss_box(automaton, spec, tol=tol)
        residual = sol.residual
    return {
        "dim_H": dim_h,
        "dim_B": dim_b,
        "symmetric": spherically_symmetric(automaton),
        "residual": residual,
    }
