"""Symbolic-dynamics primitives.

Finite words, the geometric-progression partition of the positive integers,
multiplicative semigroups and the weights of their dimension series,
finite-state descriptions of prefix-closed generating sets with exact prefix
counting, and dense (kernel, child) transition matrices.
Indices into sequences are 1-based throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError, json_document, json_int

Word = tuple[int, ...]


def check_word(word: Sequence[int], m: int) -> Word:
    w = tuple(int(a) for a in word)
    for a in w:
        if not 0 <= a < m:
            raise ValidationError(f"symbol {a} outside alphabet of size {m}")
    return w


@dataclass(frozen=True)
class IndexChain:
    """The indices {base * q^j} (or base * l_k for a semigroup) up to a horizon."""

    base: int
    elements: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)


def lambda_partition(q: int, n: int) -> list[IndexChain]:
    """Partition {1..n} into the chains {i*q^j : j >= 0} over i with q not dividing i."""
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    if n < 1:
        raise ValidationError(f"horizon must be >= 1, got {n}")
    chains = []
    for i in range(1, n + 1):
        if i % q == 0:
            continue
        elems = []
        k = i
        while k <= n:
            elems.append(k)
            k *= q
        chains.append(IndexChain(base=i, elements=tuple(elems)))
    return chains


def restrict(x: Sequence[int], chain: IndexChain) -> Word:
    """Read off the subword of x sitting on the chain (1-based positions)."""
    out = []
    for k in chain.elements:
        if not 1 <= k <= len(x):
            raise ValidationError(f"chain index {k} out of range for sequence of length {len(x)}")
        out.append(int(x[k - 1]))
    return tuple(out)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class SemigroupSpec:
    """Multiplicative semigroup of the positive integers generated by distinct primes."""

    primes: tuple[int, ...]

    def __post_init__(self):
        ps = self.primes
        if not ps:
            raise ValidationError("semigroup needs at least one generator")
        if len(set(ps)) != len(ps):
            raise ValidationError(f"duplicate generators in {ps}")
        for p in ps:
            if not _is_prime(p):
                raise ValidationError(f"generator {p} is not prime")
        if tuple(sorted(ps)) != ps:
            object.__setattr__(self, "primes", tuple(sorted(ps)))


def semigroup_elements(spec: SemigroupSpec | Sequence[int], bound: int) -> list[int]:
    """All products of the generators that are <= bound, ascending, starting at 1.

    `spec` is a SemigroupSpec, or generators already checked by
    :func:`series_weights`. Each generator g in turn multiplies every product
    listed so far by g, g^2, ... up to the bound, and one sort orders the
    list. Products of distinct primes (or powers of one q) are distinct, so
    each element appears once.
    """
    if bound < 1:
        raise ValidationError(f"bound must be >= 1, got {bound}")
    elements = [1]
    for g in getattr(spec, "primes", spec):
        layer = elements
        while layer := [w for v in layer if (w := v * g) <= bound]:
            elements += layer
    elements.sort()
    return elements


def gamma_of_semigroup(spec: SemigroupSpec) -> float:
    """Sum of reciprocals of the semigroup elements, via the Euler product."""
    g = 1.0
    for p in spec.primes:
        g *= p / (p - 1)
    return g


def series_weights(generators: Sequence[int], tol: float) -> list[float]:
    """Weights w_k = (1/l_k - 1/l_{k+1}) / gamma, k < K, of the semigroup series sum_k w_k a_k.

    l_1 = 1 < l_2 < ... are the products of `generators` (one integer q >= 2,
    or distinct primes) and gamma = sum_k 1/l_k = prod g/(g-1). With
    0 <= a_k <= k, truncation before K drops at most the Abel tail
    (K/l_K + sum_{k>K} 1/l_k) / gamma, and K is the first depth where it is
    below tol (:func:`semigroup_series`). One generator q gives
    w_k = (q-1)^2/q^{k+1} and the tail q^{-K} ((q-1) K + 1).
    """
    elements, _, _ = semigroup_series(generators, tol)
    g_num = math.prod(generators)  # gamma = g_num / g_den
    g_den = math.prod(g - 1 for g in generators)
    return [(b - a) * g_den / (a * b * g_num) for a, b in zip(elements, elements[1:])]


def semigroup_series(generators: Sequence[int], tol: float) -> tuple[list[int], int, int]:
    """(l_1..l_K, num, den) with num/den = sum_{k<=K} 1/l_k exactly, K as in :func:`series_weights`.

    The Abel tail is compared with tol in exact integer arithmetic, so K is
    exact for every tol > 0, even below the rounding of gamma. A float
    cumulative sum of 1/l_k first skips the depths whose tail stays >= tol
    after a bound on its rounding; the integer test decides from the first
    depth it cannot skip. The products are listed up to a bound guessed from
    tol, raised sixteenfold while no depth below it passes. A tol so small
    that the guess overflows a float raises ValidationError.
    """
    if not 0 < tol < math.inf:  # NaN too: the bound guessed from tol needs a finite log
        raise ValidationError(f"tol must be > 0 and finite, got {tol}")
    if len(generators) != 1 or generators[0] < 2:
        SemigroupSpec(tuple(generators))  # raises unless distinct primes
    g_num = math.prod(generators)  # gamma = g_num / g_den
    g_den = math.prod(g - 1 for g in generators)
    gamma = g_num / g_den
    tol_num, tol_den = float(tol).as_integer_ratio()
    try:
        # a guess at l_K: it held for every set of up to four primes and every tol tried
        bound = 2 + int(4 * (1 + abs(math.log(tol))) ** len(generators) / tol)
        while True:
            elements = semigroup_elements(generators, bound)
            ls = np.array(elements, dtype=float)
            depths = np.arange(1, len(ls) + 1)
            # gamma times the tail at each depth k errs by at most (k + 6) eps gamma in
            # floats (k/l_k <= 1 <= gamma; the running sum of k terms errs by
            # (k + 1) eps gamma); the margin, twice (k + 8) eps gamma, also covers
            # the rounding of tol * gamma on both sides of the test
            tails = depths / ls + (gamma - np.cumsum(1 / ls))
            unsure = np.flatnonzero(tails - (depths + 8) * 2.0**-51 * gamma < tol * gamma)
            first = int(unsure[0]) + 1 if unsure.size else len(elements) + 1
            num, den = 0, 1  # num / den = sum_{k <= depth} 1/l_k, with l_k | den
            for depth, l in enumerate(elements, 1):
                if den % l:
                    lcm = math.lcm(den, l)
                    num, den = num * (lcm // den), lcm
                num += den // l
                # the tail test times gamma * den * g_den * tol_den, all in integers
                if depth >= first and ((depth * (den // l) * g_den + g_num * den - num * g_den) * tol_den
                                       < tol_num * (g_num * den)):
                    return elements[:depth], num, den
            bound *= 16
    except OverflowError as e:  # the bound guess left the floats
        raise ValidationError(f"tol {tol} is too small for the semigroup series: {e}") from e


@dataclass(frozen=True)
class PrefixAutomaton:
    """Deterministic finite-state description of a prefix-closed generating set.

    The language of the automaton (all paths from the initial state) is the
    set of admissible prefixes. Every state must be reachable and must have
    at least one outgoing transition, so the described set is nonempty and
    closed. The named `states` and `transitions` are built once into the
    array form that the counting and dimension routines read: `table`, a
    read-only (states, m) array of next-state indices (-1 for a forbidden
    symbol), and `root`, the index of the initial state.
    """

    m: int
    states: tuple[str, ...]
    initial: str
    transitions: dict[tuple[str, int], str] = field(hash=False)
    table: np.ndarray = field(init=False, repr=False, compare=False)
    root: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 2:
            raise ValidationError(f"alphabet needs at least 2 symbols, got m={self.m}")
        idx = {s: i for i, s in enumerate(self.states)}
        if len(idx) != len(self.states):
            raise ValidationError("duplicate state names")
        if self.initial not in idx:
            raise ValidationError(f"initial state {self.initial!r} not declared")
        table = np.full((len(idx), self.m), -1)
        for (src, sym), dst in self.transitions.items():
            if src not in idx or dst not in idx:
                raise ValidationError(f"transition {(src, sym, dst)} uses undeclared state")
            if not 0 <= sym < self.m:
                raise ValidationError(f"transition symbol {sym} outside alphabet of size {self.m}")
            table[idx[src], sym] = idx[dst]
        rows, reached, level = table.tolist(), set(), {idx[self.initial]}
        while level:  # breadth first: the states first reached by words of each length
            reached |= level
            level = {t for s in level for t in rows[s] if t >= 0} - reached
        if len(reached) < len(rows):
            unreachable = sorted(s for i, s in enumerate(self.states) if i not in reached)
            raise ValidationError(f"unreachable states: {unreachable}")
        dead = [s for s, row in zip(self.states, rows) if max(row) < 0]
        if dead:
            raise ValidationError(f"dead state {dead[0]!r}: no outgoing transition")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "root", idx[self.initial])

    def accepts(self, word: Sequence[int]) -> bool:
        state = self.root
        for a in check_word(word, self.m):
            state = self.table[state, a]
            if state < 0:
                return False
        return True

    @classmethod
    def from_json(cls, text: str) -> "PrefixAutomaton":
        """The automaton of a document {"alphabet", "states", "initial", "transitions"}, names as strings."""
        with json_document(text, "automaton") as doc:
            m, states, initial = json_int(doc, "alphabet"), doc["states"], doc["initial"]
            edges = doc["transitions"]
            if type(states) is not list:  # not a string, which would read as one state per character
                raise TypeError(f"states must be an array of names, got {states!r}")
            for name in [*states, initial, *(t[end] for t in edges for end in ("from", "to"))]:
                if type(name) is not str:
                    raise TypeError(f"state names must be strings, got {name!r}")
            transitions = {}
            for t in edges:
                key = (t["from"], json_int(t, "symbol"))
                if key in transitions:
                    raise ValidationError(f"two transitions from state {key[0]!r} on symbol {key[1]}")
                transitions[key] = t["to"]
            return cls(m=m, states=tuple(states), initial=initial, transitions=transitions)

    def to_json(self) -> str:
        doc = {
            "alphabet": self.m,
            "states": list(self.states),
            "initial": self.initial,
            "transitions": [
                {"from": src, "symbol": sym, "to": dst}
                for (src, sym), dst in sorted(self.transitions.items())
            ],
        }
        return json.dumps(doc, indent=2)


def prefix_count(automaton: PrefixAutomaton, k: int) -> int:
    """Number of admissible prefixes of length k, exact."""
    if k < 0:
        raise ValidationError(f"depth must be >= 0, got {k}")
    return prefix_counts_up_to(automaton, k)[k]


def spherically_symmetric(automaton: PrefixAutomaton) -> bool:
    """Whether all prefixes at every level have the same number of continuations.

    For a finite-state automaton the answer stabilizes once every reachable
    (level, state) pair has been seen, so checking ``len(states) + 1`` levels
    is definitive.
    """
    table = automaton.table.tolist()
    degree = [sum(1 for t in row if t >= 0) for row in table]
    level = {automaton.root}
    for _ in range(len(automaton.states) + 1):  # the states that the prefixes of one length reach
        if len({degree[s] for s in level}) > 1:
            return False
        level = {t for s in level for t in table[s] if t >= 0}
    return True


# -- automata used throughout the examples and tests --


def full_shift(m: int) -> PrefixAutomaton:
    return PrefixAutomaton(
        m=m,
        states=("s",),
        initial="s",
        transitions={("s", a): "s" for a in range(m)},
    )


def forbid_ones_run(run: int) -> PrefixAutomaton:
    """Binary words with no run of `run` consecutive 1s.

    run=2 forbids the factor 11 (the golden-mean / Fibonacci constraint);
    run=3 forbids 111.
    """
    if run < 1:
        raise ValidationError(f"run must be >= 1, got {run}")
    states = tuple(f"r{j}" for j in range(run))
    transitions: dict[tuple[str, int], str] = {}
    for j in range(run):
        transitions[(f"r{j}", 0)] = "r0"
        if j + 1 < run:
            transitions[(f"r{j}", 1)] = f"r{j + 1}"
    return PrefixAutomaton(m=2, states=states, initial="r0", transitions=transitions)


def fibonacci_automaton() -> PrefixAutomaton:
    """Automaton of the generating set of X_2: binary words avoiding 11."""
    return forbid_ones_run(2)


def single_point(m: int, symbol: int = 0) -> PrefixAutomaton:
    if not 0 <= symbol < m:
        raise ValidationError(f"symbol {symbol} outside alphabet of size {m}")
    return PrefixAutomaton(
        m=m, states=("s",), initial="s", transitions={("s", symbol): "s"}
    )


def even_ones_shift() -> PrefixAutomaton:
    """Prefixes of binary sequences whose maximal 1-runs all have even length."""
    return PrefixAutomaton(
        m=2,
        states=("even", "odd"),
        initial="even",
        transitions={("even", 0): "even", ("even", 1): "odd", ("odd", 1): "even"},
    )


def two_regular_ternary() -> PrefixAutomaton:
    """A ternary automaton where every state has exactly two continuations."""
    return PrefixAutomaton(
        m=3,
        states=("A", "B"),
        initial="A",
        transitions={("A", 0): "A", ("A", 1): "B", ("B", 1): "B", ("B", 2): "A"},
    )


def prefix_counts_up_to(automaton: PrefixAutomaton, depth: int) -> list[int]:
    """[|Pref_0|, ..., |Pref_depth|] in one DP sweep."""
    table = automaton.table.tolist()  # Python ints: the counts stay exact
    counts = [0] * len(table)
    counts[automaton.root] = 1
    out = [1]
    for _ in range(depth):
        nxt = [0] * len(counts)
        for s, c in enumerate(counts):
            if c:
                for t in table[s]:
                    if t >= 0:
                        nxt[t] += c
        counts = nxt
        out.append(sum(counts))
    return out


def transition_matrix(kernel: np.ndarray, child: np.ndarray) -> np.ndarray:
    """Dense matrix of a (kernel, child) pair on n states: T[u, child[u, j]] += kernel[u, j].

    child has shape (n, r) and indexes the same n states; kernel has shape
    (..., n, r), and leading axes give a stack of matrices (..., n, n) over
    the one child table. Children repeated within a row add up in the order of j.
    """
    n = len(child)
    matrix = np.zeros(kernel.shape[:-2] + (n, n))
    np.add.at(matrix, (..., np.arange(n)[:, None], child), kernel)
    return matrix
