"""Telescopic product measures.

A base measure on the symbol space is replicated independently across the
chains {i q^j}; cylinder masses factor over the chains, the dimension is the
box dimensions' one semigroup series (:func:`symbolic.series_weights`) for
the one generator q with a_k = H_k / log m, and sampling draws each chain
from the base measure with a counter-based seeded generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ValidationError
from .symbolic import check_word, lambda_partition, series_weights, transition_matrix

if TYPE_CHECKING:  # thermo imports this module for BaseMeasure
    from .thermo import Potential

_STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True)
class BaseMeasure:
    """An r-step Markov measure on the symbol space (r = 0 is Bernoulli).

    initial: law of the first r symbols, indexed by base-m word code
    (length m^r; for r = 0 the single entry 1.0).
    kernel: next-symbol law given the last r symbols, shape (m^r, m).
    """

    m: int
    order: int
    initial: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        if self.m < 2:
            raise ValidationError(f"m must be >= 2, got {self.m}")
        if self.order < 0:
            raise ValidationError(f"order must be >= 0, got {self.order}")
        pi = np.asarray(self.initial, dtype=float)
        ker = np.asarray(self.kernel, dtype=float)
        n = self.m**self.order
        if pi.shape != (n,):
            raise ValidationError(f"initial law must have length {n}, got {pi.shape}")
        if ker.shape != (n, self.m):
            raise ValidationError(f"kernel must have shape {(n, self.m)}, got {ker.shape}")
        if np.any(pi < 0) or np.any(ker < 0):
            raise ValidationError("probabilities must be nonnegative")
        if abs(pi.sum() - 1.0) > _STOCHASTIC_TOL:
            raise ValidationError(f"initial law sums to {pi.sum()}, not 1")
        if np.max(np.abs(ker.sum(axis=1) - 1.0)) > _STOCHASTIC_TOL:
            raise ValidationError("kernel rows must sum to 1 within 1e-12")
        object.__setattr__(self, "initial", pi)
        object.__setattr__(self, "kernel", ker)

    # -- constructors --

    @classmethod
    def bernoulli(cls, probs: Sequence[float]) -> "BaseMeasure":
        p = np.asarray(probs, dtype=float)
        return cls(m=len(p), order=0, initial=np.ones(1), kernel=p[None, :])

    @classmethod
    def uniform(cls, m: int) -> "BaseMeasure":
        return cls.bernoulli(np.full(m, 1.0 / m))

    @classmethod
    def point_mass(cls, m: int, symbol: int) -> "BaseMeasure":
        p = np.zeros(m)
        p[symbol] = 1.0
        return cls.bernoulli(p)

    @classmethod
    def from_markov_spec(cls, spec: "BaseMeasure") -> "BaseMeasure":
        """A copy of the Markov law `spec`, such as :func:`thermo.markov_measure` returns."""
        return cls(m=spec.m, order=spec.order, initial=spec.initial, kernel=spec.kernel)

    @classmethod
    def from_json(cls, text: str) -> "BaseMeasure":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"invalid measure JSON: {e}") from e
        try:
            return cls(
                m=int(doc["m"]),
                order=int(doc["order"]),
                initial=np.asarray(doc["initial"], dtype=float),
                kernel=np.asarray(doc["kernel"], dtype=float),
            )
        except (KeyError, TypeError) as e:
            raise ValidationError(f"malformed measure document: {e}") from e

    def to_json(self) -> str:
        return json.dumps(
            {
                "m": self.m,
                "order": self.order,
                "initial": self.initial.tolist(),
                "kernel": self.kernel.tolist(),
            }
        )

    # -- marginals --

    def prefix_marginals(self) -> list[np.ndarray]:
        """Laws of the first k symbols for k = 0..order (summing out the tail)."""
        out = [np.ones(1)]
        for k in range(1, self.order + 1):
            marg = self.initial.reshape(self.m**k, -1).sum(axis=1)
            out.append(marg)
        return out

    def word_mass(self, word: Sequence[int]) -> float:
        """Mass of the cylinder [a_1..a_k]."""
        w = check_word(word, self.m)
        k = len(w)
        if k <= self.order:
            marg = self.prefix_marginals()[k]
            code = 0
            for a in w:
                code = code * self.m + a
            return float(marg[code])
        code = 0
        for a in w[: self.order]:
            code = code * self.m + a
        mass = float(self.initial[code])
        for a in w[self.order :]:
            mass *= float(self.kernel[code, a])
            code = (code * self.m + a) % len(self.kernel)  # the last `order` symbols
        return mass

    def word_masses(self, k: int) -> np.ndarray:
        """Masses of all m^k cylinders of length k, ordered by word code."""
        if k <= self.order:
            return self.prefix_marginals()[k]
        masses = self.initial
        for _ in range(self.order, k):
            # extend every word u by one symbol: mass(ua) = mass(u) * kernel[ctx(u), a]
            n = len(masses)
            ctx = np.arange(n) % (self.m**self.order) if self.order > 0 else np.zeros(n, int)
            masses = (masses[:, None] * self.kernel[ctx]).reshape(-1)
        return masses


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
    n = len(w)
    if n == 0:
        return 1.0
    mass = 1.0
    for chain in lambda_partition(measure.q, n):
        mass *= measure.base.word_mass([w[k - 1] for k in chain.elements])
    return mass


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def marginal_entropies_up_to(base: BaseMeasure, depth: int) -> list[float]:
    """[H_0, ..., H_depth], entropies (natural log) of the length-k marginals, in one sweep.

    Beyond the Markov order the chain rule applies: the entropy accumulates
    the context-averaged kernel entropy while the context law evolves, so no
    m^k enumeration is needed.
    """
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    out = [0.0] + [_entropy(p) for p in base.prefix_marginals()[1 : depth + 1]]
    h = _entropy(base.initial)
    kernel_entropy = np.array([_entropy(row) for row in base.kernel])
    n = len(base.kernel)  # context u emits j and moves to context (u m + j) mod m^order
    transition = transition_matrix(base.kernel, (np.arange(n)[:, None] * base.m + np.arange(base.m)) % n)
    context = base.initial
    for _ in range(base.order, depth):
        h += float(context @ kernel_entropy)
        out.append(h)
        context = context @ transition
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
    """Bases i (q coprime, ascending) and the length of each chain within [1, n]."""
    bases = np.array([i for i in range(1, n + 1) if i % q != 0], dtype=np.int64)
    lengths = np.floor(np.log(n / bases) / math.log(q)).astype(np.int64) + 1
    # guard against float rounding at exact powers
    for idx in np.nonzero(bases * q**lengths <= n)[0]:
        lengths[idx] += 1
    for idx in np.nonzero(bases * q ** (lengths - 1) > n)[0]:
        lengths[idx] -= 1
    return bases, lengths


def sample(measure: TelescopicMeasure, n: int, seed: int) -> SamplePath:
    """Draw the first n symbols of a telescopic sample, reproducibly.

    All chains are drawn level-synchronously from a fixed-layout table of
    Philox counter-based uniforms, so the output depends only on (n, seed):
    column i of the table is the substream of the i-th chain.
    """
    if n < 1:
        raise ValidationError(f"horizon must be >= 1, got {n}")
    base, q = measure.base, measure.q
    bases, lengths = _chain_lengths(q, n)
    levels = int(lengths.max())
    rng = np.random.Generator(np.random.Philox(seed))
    table = rng.random((levels, len(bases)))
    out = np.empty(n, dtype=np.int64)
    marginals = base.prefix_marginals()
    context = np.zeros(len(bases), dtype=np.int64)
    for level in range(levels):
        active = lengths > level  # chains sorted by base, active is a prefix
        count = int(active.sum())
        u = table[level, :count]
        ctx = context[:count]
        if level < base.order:
            # conditional of the initial law given the first `level` symbols
            num = marginals[level + 1].reshape(-1, base.m)
            den = marginals[level]
            with np.errstate(invalid="ignore", divide="ignore"):
                probs = np.where(den[:, None] > 0, num / den[:, None], 1.0 / base.m)
            rows = probs[ctx]
        else:
            rows = base.kernel[ctx]
        cum = np.cumsum(rows, axis=1)
        symbols = (u[:, None] > cum).sum(axis=1)
        np.clip(symbols, 0, base.m - 1, out=symbols)
        positions = bases[:count] * q**level
        out[positions - 1] = symbols
        if base.order > 0:  # code of the last min(level + 1, order) symbols
            context[:count] = (ctx * base.m + symbols) % len(base.kernel)
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
