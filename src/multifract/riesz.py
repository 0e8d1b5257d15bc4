"""Riesz products over Walsh characters of the sign space {-1,+1}^N.

The measure mu_b = prod_k (1 + b x_k x_{2k} ... x_{dk}) tilts fair coin
flips so the d-fold products along the arithmetic index blocks k, 2k, ...,
dk average to b.
Includes the closed-form multifractal spectrum of those averages, exact
cylinder masses, Fourier coefficients, seeded sampling, and the
exploratory doubling/tripling averages with their Bessel reference
pressure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError


def entropy(t: float) -> float:
    """H(t) = -t log t - (1-t) log(1-t), natural logs."""
    if t < 0 or t > 1:
        raise ValidationError(f"entropy argument must lie in [0,1], got {t}")
    if t in (0.0, 1.0):
        return 0.0
    return -t * math.log(t) - (1 - t) * math.log(1 - t)


def walsh_spectrum(d: int, alpha: float) -> float:
    """1 - 1/d + H((1+alpha)/2) / (d log 2), for the averages of x_k x_2k ... x_dk.

    The index set is the arithmetic block k, 2k, ..., dk. The d = 1 case is
    the Besicovitch-Eggleston digit-frequency value. At d = 2 the block is
    k, 2k, the geometric block of ``thermo`` with q = 2, and the value equals
    ``thermo.legendre_spectrum`` of ``rademacher_potential(2, 2)``. At d >= 3
    the blocks differ (k, 2k, 3k against k, 2k, 4k), and so do the values:
    ``thermo`` normalises by q^{d-1}, not d. Whether this formula is the
    dimension of the level set for d >= 3 is not checked here.
    """
    if d < 1:
        raise ValidationError(f"arity d must be >= 1, got {d}")
    if not -1.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must lie in [-1, 1], got {alpha}")
    return 1.0 - 1.0 / d + entropy((1 + alpha) / 2) / (d * math.log(2))


@dataclass(frozen=True)
class WalshRieszMeasure:
    """mu_b = prod_k (1 + b x_k x_{2k} ... x_{dk}) on {-1,+1}^N."""

    d: int
    b: float

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"arity d must be >= 1, got {self.d}")
        if not -1.0 <= self.b <= 1.0:
            raise ValidationError(f"coefficient b must lie in [-1, 1], got {self.b}")


def _as_signs(u: Sequence[int]) -> np.ndarray:
    arr = np.asarray(u, dtype=np.int64)
    if arr.ndim != 1:
        raise ValidationError("word must be one-dimensional")
    if arr.size and not np.all(np.abs(arr) == 1):
        raise ValidationError("word symbols must be +1 or -1")
    return arr


def cylinder_mass(measure: WalshRieszMeasure, u: Sequence[int]) -> float:
    """mu_b([u_1..u_n]) = 2^-n prod_{k: dk <= n} (1 + b u_k u_2k ... u_dk).

    Blocks extending past n integrate out to 1, so only completed blocks
    contribute a factor; the masses over {-1,+1}^n sum to 1.
    """
    arr = _as_signs(u)
    n = arr.size
    if n == 0:
        return 1.0
    signs = arr.tolist()  # words are short: Python products beat a numpy call per block
    mass = 2.0 ** (-n)
    d = measure.d
    for k in range(1, n // d + 1):
        mass *= 1.0 + measure.b * math.prod(signs[k - 1 : d * k : k])
    return mass


def block_products(x: Sequence[int], d: int, n: int) -> np.ndarray:
    """The n products x_k x_{2k} ... x_{dk} for k = 1..n, vectorized."""
    arr = _as_signs(x)
    if d < 1 or n < 1:
        raise ValidationError("d and n must be >= 1")
    if d * n > arr.size:
        raise ValidationError(f"need {d * n} symbols for n={n}, d={d}, got {arr.size}")
    out = arr[:n].copy()
    for t in range(2, d + 1):
        out *= arr[t - 1 : t * n : t]  # x_t, x_2t, ..., x_nt
    return out


def walsh_average(x: Sequence[int], d: int, n: int) -> float:
    """(1/n) sum_{k<=n} x_k x_{2k} ... x_{dk}."""
    return float(block_products(x, d, n).mean())


def fourier_coefficient(coeffs: Sequence[float], epsilon: Sequence[int]) -> float:
    """Product-rule Fourier coefficient prod_k a_k^(eps_k) of a Riesz product.

    a_k^(0) = 1 and a_k^(1) = a_k / 2; the trivial character gives 1.
    Characters outside the dissociated span have no such representation and
    integrate to 0 (see character_from_indices).
    """
    if len(epsilon) > len(coeffs):
        raise ValidationError("epsilon word longer than coefficient sequence")
    out = 1.0
    for a_k, e_k in zip(coeffs, epsilon):
        if e_k == 0:
            continue
        if e_k != 1:
            raise ValidationError(f"exponents must be 0 or 1, got {e_k}")
        out *= a_k / 2.0
    return out


def character_from_indices(d: int, indices: Sequence[int]) -> tuple[int, ...] | None:
    """Decode a Walsh character x_{i_1}...x_{i_r} into block exponents.

    Returns the epsilon word over the dissociated generators
    g_k = x_k x_{2k} ... x_{dk}, or None when the index set is not a
    disjoint union of such blocks. Greedy on the smallest remaining index:
    it can only be covered by the block it starts (k = min index).
    """
    if d < 1:
        raise ValidationError(f"arity d must be >= 1, got {d}")
    remaining = set(int(i) for i in indices)
    if any(i < 1 for i in remaining):
        raise ValidationError("indices must be >= 1")
    if len(remaining) != len(list(indices)):
        return None  # repeated index: the character simplifies, not in span form
    eps: dict[int, int] = {}
    while remaining:
        k = min(remaining)
        block = {t * k for t in range(1, d + 1)}
        if not block <= remaining:
            return None
        remaining -= block
        eps[k] = 1
    top = max(eps) if eps else 0
    return tuple(eps.get(k, 0) for k in range(1, top + 1))


def walsh_integral(measure: WalshRieszMeasure, indices: Sequence[int]) -> float:
    """Exact integral of the Walsh character x_{i_1}...x_{i_r} against mu_b.

    b^(number of blocks) when the index set is a disjoint union of
    generator blocks, else 0.
    """
    eps = character_from_indices(measure.d, indices)
    if eps is None:
        return 0.0
    return measure.b ** sum(eps)


def sample(measure: WalshRieszMeasure, n: int, seed: int) -> np.ndarray:
    """Draw (u_1..u_n) from mu_b by exact sequential conditionals.

    Positions off the block-final lattice are fair signs; at position dk
    the sign is biased by b times the product of the earlier block entries.
    Position i takes the i-th Philox draw, so the path depends only on
    (n, seed).

    The conditionals are set a block of k at a time. Among u_tk (t < d),
    the block-final ones are u_dk' with k' <= (d-1)k/d, so every k up to
    (lo d - 1)/(d - 1) depends only on k' < lo: O(log n) array steps, one
    for d = 1.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    rng = np.random.Generator(np.random.Philox(seed))
    uniforms = rng.random(n)
    out = np.where(uniforms < 0.5, 1, -1).astype(np.int64)
    d, b = measure.d, measure.b
    k_max = n // d
    lo = 1
    while lo <= k_max:
        hi = k_max if d == 1 else min(k_max, (lo * d - 1) // (d - 1))
        rest = np.ones(hi - lo + 1, dtype=np.int64)
        for t in range(1, d):
            rest *= out[t * lo - 1 : t * hi : t]  # u_tk for k = lo..hi
        p_plus = (1.0 + b * rest) / 2.0
        final = slice(d * lo - 1, d * hi, d)  # u_dk for k = lo..hi
        out[final] = np.where(uniforms[final] < p_plus, 1, -1)
        lo = hi + 1
    return out


# -- doubling / tripling exploratory averages --


def doubling_tripling_average(a: int, b: int, x, n: int) -> complex:
    """(1/n) sum_{k=1}^n exp(2 pi i (a 2^k + b 3^k) x), exactly in phase.

    x is taken as an exact rational (floats are exact binary rationals), so
    the phases (a 2^k + b 3^k) x mod 1 are computed by modular arithmetic
    with no rounding drift in k.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    frac = Fraction(x)
    if not 0 <= frac < 1:
        raise ValidationError(f"x must lie in [0, 1), got {x}")
    q, p = frac.denominator, frac.numerator
    total = 0j
    for k in range(1, n + 1):
        phase = (a * pow(2, k, q) + b * pow(3, k, q)) * p % q
        total += cmath.exp(2j * cmath.pi * phase / q)
    return total / n


def multiplication_orbit(x, factor: int) -> list[Fraction]:
    """Orbit of x under t -> factor * t mod 1, up to the first return."""
    start = Fraction(x) % 1
    orbit = [start]
    t = start * factor % 1
    while t != start:
        if len(orbit) > 10_000:
            raise ValidationError(f"{x} is not periodic under x{factor} within 10^4 steps")
        orbit.append(t)
        t = t * factor % 1
    return orbit


def common_periodic_points(n: int, m: int) -> list[Fraction]:
    """Rationals periodic under doubling with period | n and tripling with period | m.

    With d = gcd(2^n - 1, 3^m - 1) these are k/d for 1 <= k <= d - 1; each
    point is verified by explicit orbit simulation before being returned.
    """
    if n < 1 or m < 1:
        raise ValidationError("n and m must be >= 1")
    d = math.gcd(2**n - 1, 3**m - 1)
    if d == 1:
        return []
    points = []
    for k in range(1, d):
        x = Fraction(k, d)
        if n % len(multiplication_orbit(x, 2)) != 0:
            raise ValidationError(f"{x} fails the doubling-period check")
        if m % len(multiplication_orbit(x, 3)) != 0:
            raise ValidationError(f"{x} fails the tripling-period check")
        points.append(x)
    return points


@dataclass(frozen=True)
class EmpiricalPressure:
    """Monte Carlo pressure estimate with a delta-method standard error."""

    value: float
    stderr: float
    n: int
    samples: int


def empirical_pressure_23(
    s: float, t: float, n: int, samples: int, seed: int, a: int = 1, b: int = 1
) -> EmpiricalPressure:
    """Monte Carlo estimate of (1/n) log Z_n for the doubling/tripling tilt.

    Z_n = E_x prod_{k<=n} exp(s cos theta_k + t sin theta_k) with
    theta_k = 2 pi (a 2^k + b 3^k) x and x uniform on [0,1). Exploratory:
    the n -> infinity limit is not known to exist, so this only reports the
    finite-n statistic with its sampling error (log-sum-exp stabilized).
    """
    if n < 1 or samples < 1:
        raise ValidationError("n and samples must be >= 1")
    # x is discretized to j/M with M odd (so 2^k x, 3^k x mod 1 stay exact);
    # M < 2^26 keeps the products j * c_k inside exact int64 range.
    modulus = (1 << 26) - 5
    rng = np.random.Generator(np.random.Philox(seed))
    j = rng.integers(0, modulus, size=samples, dtype=np.int64)
    log_weights = np.zeros(samples)
    for k in range(1, n + 1):
        c_k = (a * pow(2, k, modulus) + b * pow(3, k, modulus)) % modulus
        angle = (2 * np.pi / modulus) * ((j * c_k) % modulus)
        log_weights += s * np.cos(angle) + t * np.sin(angle)
    peak = float(np.max(log_weights))
    w = np.exp(log_weights - peak)
    mean = float(w.mean())
    log_z = peak + math.log(mean)
    sd = float(w.std(ddof=1)) if samples > 1 else 0.0
    stderr = sd / (mean * math.sqrt(samples) * n) if mean > 0 else float("inf")
    return EmpiricalPressure(value=log_z / n, stderr=stderr, n=n, samples=samples)


def bessel_pressure(s: float, t: float) -> float:
    """log[(1/2 pi) int_0^{2 pi} exp(r cos x) dx] with r = sqrt(s^2 + t^2).

    The integral is the modified Bessel function I_0(r), summed as
    sum_{n>=0} r^{2n} / ((n!)^2 2^{2n}) until terms fall below 1e-18 of the
    partial sum; depends on (s, t) only through r.
    """
    if not (math.isfinite(s) and math.isfinite(t)):
        raise ValidationError("s and t must be finite")
    r2 = s * s + t * t
    total = 1.0
    term = 1.0
    n = 0
    while True:
        n += 1
        term *= r2 / (4.0 * n * n)
        total += term
        if term < 1e-18 * total:
            break
        if n > 100_000:
            raise ValidationError("series failed to terminate (r too large)")
    return math.log(total)
