"""Dimensions of multiplicatively invariant symbolic sets.

Hausdorff dimension via the per-state fixed-point system, box dimension via
the prefix-count series, the exact product-formula count for the doubling
constraint set, a brute-force counting oracle, the semigroup generalization
of both dimension formulas, and the KPS optimal measure as a finite-state
source. Both box dimensions are one semigroup series
(:func:`symbolic.series_weights`); KPS is its one-generator case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .symbolic import (
    PrefixAutomaton,
    SemigroupSpec,
    gamma_of_semigroup,
    lambda_partition,
    prefix_counts_up_to,
    semigroup_series,
    series_weights,
    spherically_symmetric,
    transition_matrix,
)
from .telescopic import BaseMeasure
from .thermo import fixed_point

_BRUTE_FORCE_BITS = 24  # guard: m^n <= 2^24 words enumerated
_BRUTE_FORCE_ROWS = 1 << 16  # words extended at once by the enumeration
_SCALE_BLOCK = 32  # levels of the PSSS sweep between moves of t(root) into its log scale


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

    :func:`thermo.fixed_point` with chi = t: Newton on log chi, monotone
    from chi = 1, so every iterate after the first is a sub-solution below
    the unique fixed point in [1, m^(1/(q-1))], and |log t - log t*| <=
    q/(q-1) times the last step in the sup norm. Automata of more than
    `thermo._NEWTON_STATES` states, past the crossover where the n x n
    solves cost more than they save, take the plain step t <- (sum of
    children)^(1/q), also monotone from t = 1.
    """
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    weights, child = _state_operator(automaton)
    (t,), (residual,), _ = fixed_point(weights[None], child, q, "on the automaton states")
    return KpsSolution(t=t, t_root=float(t[automaton.root]), q=q, m=automaton.m, residual=float(residual))


def _state_operator(automaton: PrefixAutomaton) -> tuple[np.ndarray, np.ndarray]:
    """0/1 weights (symbol enabled) and child states of the transition table, -1 masked to 0."""
    return (automaton.table >= 0).astype(float), np.maximum(automaton.table, 0)


def kps_measure(automaton: PrefixAutomaton, q: int) -> BaseMeasure:
    """The optimal measure on X_Omega (Kenyon-Peres-Solomyak), a source on the automaton.

    State u emits an enabled symbol j with probability t(child) / t(u)^q at
    the fixed point t of :func:`kps_solution`, rows renormalised against
    its tolerance; it moves to the child state and starts at the root. Its
    telescopic measure at q has dimension :func:`kps_hausdorff`.
    """
    weights, child = _state_operator(automaton)
    t = kps_solution(automaton, q).t
    kernel = weights * t[child] / t[:, None] ** q
    return BaseMeasure(kernel / kernel.sum(axis=1, keepdims=True), child, automaton.root)


def kps_hausdorff(automaton: PrefixAutomaton, q: int) -> float:
    """(q-1) log_m of the root value of the per-state fixed point."""
    return kps_solution(automaton, q).dimension


def kps_box(automaton: PrefixAutomaton, q: int, tol: float = 1e-10) -> float:
    """(q-1)^2 sum_k log_m |Pref_k| / q^{k+1}: the semigroup series of the one generator q."""
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
    """Count the length-n words whose chain restrictions are all admissible, by enumeration.

    The words grow one position at a time in blocks, depth first, each with one
    automaton state per chain, and drop out where a chain reads a forbidden
    symbol. An oracle independent of the product-formula and series counts.
    """
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n * math.log(automaton.m) > _BRUTE_FORCE_BITS * math.log(2) + 1e-9:
        raise ValidationError(f"m^n too large to enumerate (guard: m^n <= 2^{_BRUTE_FORCE_BITS})")
    table = automaton.table.astype(np.int16)
    chains = lambda_partition(q, n)
    column = np.empty(n + 1, dtype=np.int64)  # the chain of each position
    for i, chain in enumerate(chains):
        column[list(chain.elements)] = i
    count, stack = 0, [(1, np.full((1, len(chains)), automaton.root, dtype=np.int16))]
    while stack:
        pos, states = stack.pop()
        nxt = table[states[:, column[pos]]]  # every word extended by every symbol
        rows, symbols = np.nonzero(nxt >= 0)
        if pos == n:
            count += len(rows)
            continue
        states = states[rows]
        states[:, column[pos]] = nxt[rows, symbols]
        for lo in range(0, len(states), _BRUTE_FORCE_ROWS):
            stack.append((pos + 1, states[lo : lo + _BRUTE_FORCE_ROWS]))
    return count


def psss_solution(
    automaton: PrefixAutomaton,
    spec: SemigroupSpec,
    target: float = 1e-10,
) -> PsssSolution:
    """Solve the leveled system t(u)^{l_{k+1}/l_k} = sum of children on (state, level).

    The system is triangular in the level, so it is closed by one backward
    recursion t <- (M t)^{l_k/l_{k+1}} on the dense transition matrix M,
    from the truncation depth D of the box series at `target`
    (:func:`symbolic.semigroup_series`), started from the lower closure t = 1.
    Step k is homogeneous of degree l_k/l_{k+1}, so t = exp(sigma l_k) t'
    carries a log scale sigma that the steps leave unchanged: every
    _SCALE_BLOCK levels t'(root) moves into sigma, and no level overflows.
    The upper closure t = m^{l_D T}, T = sum_{k>D} 1/l_k, needs no sweep:
    its constant reaches the root as m^{T/gamma}. The closures thus bracket
    log_m t(root) within exactly T / gamma, from the series' exact sum and
    bounded by its Abel tail, below `target`; a wider bracket or a root value
    that is not finite and positive raises ConvergenceError. The solution
    is the bracket's midpoint.
    """
    matrix = transition_matrix(*_state_operator(automaton))
    m, root = automaton.m, automaton.root
    elems, num, den = semigroup_series(spec.primes, target)
    if len(elems) > 1:  # depth D = K - 1 >= 1: drop 1/l_K from the sum
        num -= den // elems.pop()
    # T / gamma = 1 - (num / den) / gamma, with gamma = prod p / prod (p - 1)
    g_num, g_den = math.prod(spec.primes), math.prod(p - 1 for p in spec.primes)
    bracket = (g_num * den - g_den * num) / (g_num * den)
    if bracket >= target:
        raise ConvergenceError(f"semigroup {spec.primes}: truncation did not close the bracket", bracket)
    t, sigma = np.ones(len(matrix)), 0.0
    for k in range(len(elems) - 1, 0, -1):  # level k: t <- (M t)^{l_k/l_{k+1}}, elems[k-1] = l_k
        t = (matrix @ t) ** (elems[k - 1] / elems[k])
        if k % _SCALE_BLOCK == 0:
            scale = t[root]
            t /= scale
            sigma += math.log(scale) / elems[k - 1]
    top = (matrix @ t)[root]
    if not 0.0 < top < math.inf:
        raise ConvergenceError(f"semigroup {spec.primes}: the sweep left the root value {top}", bracket)
    lo = (sigma + math.log(top)) / (gamma_of_semigroup(spec) * math.log(m))
    return PsssSolution(t_root=float(m) ** (lo + bracket / 2), m=m, depth=len(elems), residual=bracket)


def psss_hausdorff(automaton: PrefixAutomaton, spec: SemigroupSpec) -> float:
    """log_m of the root value of the leveled fixed point."""
    return psss_solution(automaton, spec).dimension


def psss_box(automaton: PrefixAutomaton, spec: SemigroupSpec, tol: float = 1e-10) -> float:
    """gamma^{-1} sum_k (1/l_k - 1/l_{k+1}) log_m |Pref_k|, truncated at the first Abel tail below tol."""
    return _box_series(automaton, spec.primes, tol)


def dims_report(
    automaton: PrefixAutomaton,
    q: int | None = None,
    spec: SemigroupSpec | None = None,
    tol: float = 1e-9,
) -> dict:
    """Hausdorff + box dimensions with the symmetry flag, as a plain dict.

    `residual` has two meanings: with q, the last relative step of the KPS
    fixed point (:func:`kps_solution`); with a semigroup spec, the PSSS
    bracket width in log_m units (:func:`psss_solution`).
    """
    if (q is None) == (spec is None):
        raise ValidationError("pass exactly one of q or a semigroup spec")
    if q is not None:
        sol, dim_b = kps_solution(automaton, q), kps_box(automaton, q, tol=tol)
    else:
        sol, dim_b = psss_solution(automaton, spec), psss_box(automaton, spec, tol=tol)
    return {
        "dim_H": sol.dimension,
        "dim_B": dim_b,
        "symmetric": spherically_symmetric(automaton),
        "residual": sol.residual,
    }
