"""Telescopic product measures.

A base measure on the symbol space, a unifilar finite-state source, is
replicated independently across the chains {i q^j}; cylinder masses factor
over the chains, the dimension is the box dimensions' one semigroup series
(:func:`symbolic.series_weights`) for the one generator q with
a_k = H_k / log m, and sampling draws each chain from the source with a
counter-based seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ValidationError, json_document, json_int
from .symbolic import check_word, lambda_partition, series_weights, transition_matrix

if TYPE_CHECKING:  # thermo imports this module for BaseMeasure
    from .thermo import Potential

_STOCHASTIC_TOL = 1e-12


def markov_tree(m: int, order: int) -> np.ndarray:
    """Child table of the r-step Markov prefix tree, r = order.

    The states are the words of length < r, shortest first and by code from the
    empty word at 0, then the m^r contexts. Word i emits j and moves to 1 + m i + j,
    the word or context uj; a context moves to the context of its last r symbols.
    """
    words, n = (m**order - 1) // (m - 1), m**order
    child = 1 + np.arange(words + n)[:, None] * m + np.arange(m)
    child[words:] = words + (np.arange(n)[:, None] * m + np.arange(m)) % n
    return child


@dataclass(frozen=True)
class BaseMeasure:
    """A unifilar finite-state source on the symbol space.

    State u emits symbol j with probability kernel[u, j] and moves to state
    child[u, j]; every word is read from the state `start`. An r-step Markov
    law is the source :meth:`markov` builds from it.
    """

    kernel: np.ndarray  # (n, m): next-symbol law of each state
    child: np.ndarray  # (n, m): the state after each emission
    start: int

    def __post_init__(self):
        ker = np.asarray(self.kernel, dtype=float)
        child = np.asarray(self.child)
        if ker.ndim != 2 or 0 in ker.shape:
            raise ValidationError(f"kernel must be a nonempty (states, symbols) array, got {ker.shape}")
        if not np.isfinite(ker).all():
            raise ValidationError("probabilities must be finite")
        if np.any(ker < 0):
            raise ValidationError("probabilities must be nonnegative")
        if np.max(np.abs(ker.sum(axis=1) - 1.0)) > _STOCHASTIC_TOL:
            raise ValidationError("kernel rows must sum to 1 within 1e-12")
        n = len(ker)
        if (child.shape != ker.shape or not np.issubdtype(child.dtype, np.integer)
                or child.min() < 0 or child.max() >= n):
            raise ValidationError(f"child must be an integer array of shape {ker.shape} in [0, {n})")
        if not (isinstance(self.start, (int, np.integer)) and 0 <= self.start < n):
            raise ValidationError(f"start must be a state in [0, {n}), got {self.start!r}")
        object.__setattr__(self, "kernel", ker)
        object.__setattr__(self, "child", child.astype(np.int64))
        object.__setattr__(self, "start", int(self.start))

    @property
    def m(self) -> int:
        return self.kernel.shape[1]

    # -- constructors --

    @classmethod
    def markov(cls, m: int, order: int, initial, kernel) -> "BaseMeasure":
        """The r-step Markov law (r = order; 0 is Bernoulli) as a prefix tree of states.

        initial is the law of the first r symbols by base-m word code (for
        r = 0 the single entry 1.0), kernel the next-symbol law given the
        last r symbols, shape (m^r, m). The states are those of
        :func:`markov_tree`, from the empty word (the start 0). A short word
        u emits j with probability P(uj) / P(u) under `initial`, or 1/m
        where P(u) = 0.
        """
        if m < 2:
            raise ValidationError(f"m must be >= 2, got {m}")
        if order < 0:
            raise ValidationError(f"order must be >= 0, got {order}")
        pi = np.asarray(initial, dtype=float)
        ker = np.asarray(kernel, dtype=float)
        n = m**order
        if pi.shape != (n,):
            raise ValidationError(f"initial law must have length {n}, got {pi.shape}")
        if ker.shape != (n, m):
            raise ValidationError(f"kernel must have shape {(n, m)}, got {ker.shape}")
        if not (np.isfinite(pi).all() and np.all(pi >= 0) and abs(pi.sum() - 1.0) <= _STOCHASTIC_TOL):
            raise ValidationError(f"initial law must be finite, >= 0 and sum to 1, got sum {pi.sum()}")
        rows, den = [], np.ones(1)  # den: the law of the words of length k
        for k in range(order):
            num = pi.reshape(m ** (k + 1), -1).sum(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                rows.append(np.where(den[:, None] > 0, num.reshape(-1, m) / den[:, None], 1.0 / m))
            den = num
        return cls(kernel=np.vstack(rows + [ker]), child=markov_tree(m, order), start=0)

    @classmethod
    def bernoulli(cls, probs: Sequence[float]) -> "BaseMeasure":
        p = np.asarray(probs, dtype=float)
        return cls.markov(m=len(p), order=0, initial=np.ones(1), kernel=p[None, :])

    @classmethod
    def uniform(cls, m: int) -> "BaseMeasure":
        return cls.bernoulli(np.full(m, 1.0 / m))

    @classmethod
    def point_mass(cls, m: int, symbol: int) -> "BaseMeasure":
        return cls.bernoulli(np.eye(m)[symbol])

    @classmethod
    def from_markov_spec(cls, spec: "BaseMeasure") -> "BaseMeasure":
        """A copy of the source `spec`, such as :func:`thermo.markov_measure` returns."""
        return cls(kernel=spec.kernel, child=spec.child, start=spec.start)

    @classmethod
    def from_json(cls, text: str) -> "BaseMeasure":
        """The Markov law of a document {"m", "order", "initial", "kernel"} (:meth:`markov`)."""
        with json_document(text, "measure") as doc:
            return cls.markov(
                m=json_int(doc, "m"),
                order=json_int(doc, "order"),
                initial=np.asarray(doc["initial"], dtype=float),
                kernel=np.asarray(doc["kernel"], dtype=float),
            )

    # -- reading the source --

    def word_mass(self, word: Sequence[int]) -> float:
        """Mass of the cylinder [a_1..a_k]: the product of the emissions along its path."""
        mass, state = 1.0, self.start
        for a in check_word(word, self.m):
            mass *= float(self.kernel[state, a])
            state = self.child[state, a]
        return mass

    def word_masses(self, k: int) -> np.ndarray:
        """Masses of all m^k cylinders of length k, ordered by word code."""
        masses, states = np.ones(1), np.array([self.start])
        for _ in range(k):
            # extend every word u by one symbol: mass(ua) = mass(u) * kernel[state(u), a]
            masses = (masses[:, None] * self.kernel[states]).reshape(-1)
            states = self.child[states].reshape(-1)
        return masses

    def step(self, states: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(symbols, next states) of one draw from each state by the uniforms u.

        Each symbol is the number of cumulative row masses below its u,
        clipped to m - 1 against rounding. A one-state source skips the
        gathers: its rows are all the one row, and it never moves.
        """
        symbols = np.zeros(len(u), dtype=np.int64)
        one_state = len(self.kernel) == 1
        for cum in np.cumsum(self.kernel, axis=1).T:
            symbols += u > (cum[0] if one_state else cum[states])
        np.clip(symbols, 0, self.m - 1, out=symbols)
        return symbols, states if one_state else self.child[states, symbols]


@dataclass(frozen=True)
class TelescopicMeasure:
    """Independent copies of a base measure across the chains {i q^j}."""

    base: BaseMeasure
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ValidationError(f"q must be >= 2, got {self.q}")


@dataclass(frozen=True)
class SamplePath:
    """A finite prefix drawn from a measure on the symbol space."""

    symbols: np.ndarray
    seed: int
    n: int

    def __post_init__(self):
        if len(self.symbols) != self.n:
            raise ValidationError("sample path length disagrees with its horizon")


def cylinder_mass(measure: TelescopicMeasure, u: Sequence[int]) -> float:
    """Product over chains of the base-measure mass of the restriction of u."""
    w = check_word(u, measure.base.m)
    if not w:
        return 1.0
    chains = lambda_partition(measure.q, len(w))
    return math.prod((measure.base.word_mass([w[k - 1] for k in c.elements]) for c in chains), start=1.0)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def marginal_entropies_up_to(base: BaseMeasure, depth: int) -> list[float]:
    """[H_0, ..., H_depth], entropies (natural log) of the length-k marginals, in one sweep.

    By the chain rule H_k is H_{k-1} plus the row entropies averaged over
    the state law, which evolves from the start: no m^k enumeration.
    """
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    row_entropy = np.array([_entropy(row) for row in base.kernel])
    transition = transition_matrix(base.kernel, base.child)
    law = np.eye(len(base.kernel))[base.start]
    out, h = [0.0], 0.0
    for _ in range(depth):
        h += float(law @ row_entropy)
        out.append(h)
        law = law @ transition
    return out


def marginal_entropy(base: BaseMeasure, k: int) -> float:
    """Entropy (natural log) of the length-k marginal, by :func:`marginal_entropies_up_to`."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return marginal_entropies_up_to(base, k)[k]


def dimension(measure: TelescopicMeasure, tol: float = 1e-10) -> float:
    """Entropy-series dimension (q-1)^2 / log m * sum_k H_k / q^{k+1}, in [0, 1].

    Truncated at the first depth whose tail bound, with H_k <= k log m, is
    below tol (:func:`symbolic.series_weights` for the one generator q).
    """
    weights = series_weights((measure.q,), tol)
    entropies = marginal_entropies_up_to(measure.base, len(weights))
    return math.fsum(w * h for w, h in zip(weights, entropies[1:])) / math.log(measure.base.m)


def _chain_lengths(q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bases i (not divisible by q, ascending) and the length of each chain within [1, n].

    A chain counts at level L while i q^L <= n, that is i <= n // q^L: a
    prefix of the ascending bases, so the lengths are exact integers.
    """
    bases = np.arange(1, n + 1, dtype=np.int64)
    bases = bases[bases % q != 0]
    lengths = np.zeros(len(bases), dtype=np.int64)
    power = 1
    while power <= n:
        lengths[: np.searchsorted(bases, n // power, side="right")] += 1
        power *= q
    return bases, lengths


def _philox_draws(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms start, ..., start + count - 1 of the Philox(seed) stream."""
    bitgen = np.random.Philox(seed)
    bitgen.advance(start // 4)  # one counter step yields four draws
    rng = np.random.Generator(bitgen)
    rng.random(start % 4)
    return rng.random(count)


def sample(measure: TelescopicMeasure, n: int, seed: int) -> SamplePath:
    """Draw the first n symbols of a telescopic sample, reproducibly.

    All chains are drawn level-synchronously from a fixed-layout table of
    Philox counter-based uniforms, so the output depends only on (n, seed):
    the table is levels x chains in row-major order, and column i is the
    substream of the i-th chain. Each row is drawn only over its active
    prefix of chains: the generator jumps to the row's start with
    ``Philox.advance`` and leaves the inactive tail undrawn.
    """
    if n < 1:
        raise ValidationError(f"horizon must be >= 1, got {n}")
    base, q = measure.base, measure.q
    bases, lengths = _chain_lengths(q, n)
    levels = int(lengths[0])  # the chain of base 1 is the longest
    out = np.empty(n, dtype=np.int64)
    states = np.full(len(bases), base.start)
    for level in range(levels):
        count = int(np.count_nonzero(lengths > level))  # chains sorted by base, active is a prefix
        u = _philox_draws(seed, level * len(bases), count)
        symbols, states[:count] = base.step(states[:count], u)
        out[bases[:count] * q**level - 1] = symbols
    return SamplePath(symbols=out, seed=seed, n=n)


def empirical_multiple_average(x: SamplePath | Sequence[int], potential: Potential, n: int) -> float:
    """Mean of phi over the first n tuples (x_k, x_{qk}, ..., x_{q^{d-1}k})."""
    symbols = x.symbols if isinstance(x, SamplePath) else np.asarray(x, dtype=np.int64)
    q, d = potential.q, potential.d
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if q ** (d - 1) * n > len(symbols):
        raise ValidationError(
            f"need at least q^(d-1)*n = {q ** (d - 1) * n} symbols, got {len(symbols)}"
        )
    k = np.arange(1, n + 1)
    code = np.zeros(n, dtype=np.int64)
    for j in range(d):
        code = code * potential.m + symbols[k * q**j - 1]
    return float(potential.table.reshape(-1)[code].mean())
