"""Nonlinear thermodynamic formalism for multiple ergodic averages.

Solves the fixed-point equation of the nonlinear transfer operator, builds
the pressure function and its Legendre transform (the Hausdorff spectrum of
the averages), the associated Markov measure, and the Ruelle-type dimension
formula. Dimensions are reported normalized to [0, 1].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConvergenceError, ValidationError
from .symbolic import transition_matrix
from .telescopic import BaseMeasure

#: Returned by spectrum queries for levels whose level set is empty.
OUT_OF_DOMAIN = float("nan")

#: Parameter magnitude used to approximate the s -> +/-inf endpoints.
ENDPOINT_S = 40.0

_FIXED_POINT_TOL = 1e-14
_FIXED_POINT_CAP = 100_000


@dataclass(frozen=True)
class Potential:
    """A table phi: A^d -> R driving the average over (x_k, x_{qk}, ..., x_{q^{d-1}k}).

    The table is stored as an array of shape (m,) * d indexed by symbol tuples.
    """

    m: int
    q: int
    d: int
    table: np.ndarray

    def __post_init__(self):
        if self.m < 2:
            raise ValidationError(f"m must be >= 2, got {self.m}")
        if self.q < 2:
            raise ValidationError(f"q must be >= 2, got {self.q}")
        if self.d < 2:
            raise ValidationError(f"d must be >= 2, got {self.d}")
        table = np.asarray(self.table, dtype=float)
        if table.shape != (self.m,) * self.d:
            raise ValidationError(
                f"table must have shape {(self.m,) * self.d}, got {table.shape}"
            )
        if not np.all(np.isfinite(table)):
            raise ValidationError("table contains non-finite entries")
        object.__setattr__(self, "table", table)

    @property
    def alpha_min(self) -> float:
        return float(self.table.min())

    @property
    def alpha_max(self) -> float:
        return float(self.table.max())

    @property
    def is_constant(self) -> bool:
        return self.alpha_min == self.alpha_max

    @classmethod
    def from_values(cls, m: int, q: int, d: int, values) -> "Potential":
        """Build from a dict {symbol tuple: value} or an array."""
        if isinstance(values, dict):
            table = np.empty((m,) * d)
            table.fill(np.nan)
            for key, val in values.items():
                table[tuple(key)] = val
            if np.isnan(table).any():
                raise ValidationError("potential table is incomplete")
        else:
            table = np.asarray(values, dtype=float)
        return cls(m=m, q=q, d=d, table=table)

    @classmethod
    def from_json(cls, text: str) -> "Potential":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"invalid potential JSON: {e}") from e
        try:
            m, q, d = int(doc["m"]), int(doc["q"]), int(doc["d"])
            entries = doc["table"]
        except (KeyError, TypeError) as e:
            raise ValidationError(f"malformed potential document: {e}") from e
        if m > 10:
            raise ValidationError("string-keyed JSON tables support m <= 10")
        values = {}
        for key, val in entries.items():
            if len(key) != d or not all(c.isdigit() for c in key):
                raise ValidationError(f"bad table key {key!r}")
            sym = tuple(int(c) for c in key)
            if any(a >= m for a in sym):
                raise ValidationError(f"table key {key!r} outside alphabet of size {m}")
            values[sym] = float(val)
        if len(values) != m**d:
            raise ValidationError(f"table must have exactly {m ** d} entries, got {len(values)}")
        return cls.from_values(m, q, d, values)

    def to_json(self) -> str:
        entries = {
            "".join(map(str, idx)): float(self.table[idx])
            for idx in np.ndindex(*self.table.shape)
        }
        return json.dumps({"m": self.m, "q": self.q, "d": self.d, "table": entries})


def rademacher_potential(q: int, d: int) -> Potential:
    """Tensor product of 2a-1 factors on the binary alphabet."""
    table = np.ones((2,) * d)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = 2
        table = table * np.array([-1.0, 1.0]).reshape(shape)
    return Potential(m=2, q=q, d=d, table=table)


def indicator_potential(q: int, d: int) -> Potential:
    """Product of the symbols themselves on the binary alphabet (x_k * x_{qk} * ...)."""
    table = np.ones((2,) * d)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = 2
        table = table * np.array([0.0, 1.0]).reshape(shape)
    return Potential(m=2, q=q, d=d, table=table)


@dataclass(frozen=True)
class PsiSolution:
    """Positive level functions psi^(k) on A^k for k = 1..d-1 at parameter s.

    levels[k] is a flat array of length m^k indexed by the base-m code of the
    word a_1..a_k (a_1 most significant). `kernel` is the stochastic kernel
    K = W psi[child] / psi^q on level d-1 and `tangent` the tangent
    g = d log psi / ds on that level; `pressure` and `derivative` are P(s),
    P'(s). P''(s) is not stored: :func:`pressure_second_derivative` builds it
    from `kernel` and `tangent` for the slope solver, so a forward solve pays
    for no second linear system.
    """

    s: float
    levels: dict[int, np.ndarray]
    kernel: np.ndarray
    tangent: np.ndarray
    residual: float
    iterations: int
    pressure: float
    derivative: float


def _operator_data(potential: Potential):
    """Centered table phi - shift as (m^{d-1}, m), the shifted-child codes, and the shift."""
    m, d = potential.m, potential.d
    shift = 0.5 * (potential.alpha_min + potential.alpha_max)
    phi = potential.table.reshape(m ** (d - 1), m) - shift
    codes = np.arange(m ** (d - 1))
    # (a_1..a_{d-1}) -> code of (a_2..a_{d-1}, j): drop leading digit, append j
    tcodes = (codes % (m ** (d - 2))) * m
    child = tcodes[:, None] + np.arange(m)[None, :]
    return phi, child, shift


def operator_step(weights: np.ndarray, child: np.ndarray, psi: np.ndarray, q: float) -> np.ndarray:
    """Image (sum_j weights[u, j] psi[child[u, j]])^(1/q) of psi under psi^q = W psi, per row u."""
    return (weights * psi[child]).sum(axis=1) ** (1.0 / q)


def fixed_point(weights: np.ndarray, child: np.ndarray, q: float, where: str):
    """Fixed point of :func:`operator_step` from psi = 1, as (psi, residual, iterations).

    Raises ConvergenceError naming `where` on the first non-finite iterate or at the cap.
    """
    psi = np.ones(len(weights))
    # overflow and inf/inf reach the explicit non-finite check, not numpy's warnings
    with np.errstate(all="ignore"):
        for it in range(1, _FIXED_POINT_CAP + 1):
            image = operator_step(weights, child, psi, q)
            residual = float(np.max(np.abs(image - psi)) / np.max(image))
            psi = image
            if residual < _FIXED_POINT_TOL:
                return psi, residual, it
            if not math.isfinite(residual):
                raise ConvergenceError(f"non-finite fixed-point iterate {where}", residual, it)
    raise ConvergenceError(f"fixed-point iteration did not converge {where}", residual, it)


def _tangent_matrix(kernel: np.ndarray, child: np.ndarray, q: float) -> np.ndarray:
    """I - K/q over level d-1 codes: the matrix of the tangent systems for g and h."""
    return np.eye(len(kernel)) - transition_matrix(kernel / q, child)


def solve_psi(potential: Potential, s: float) -> PsiSolution:
    """Fixed point of psi -> (L_s psi)^(1/q) from psi = 1, with P(s) and exact P'(s).

    Every call solves afresh. The solver works with the midrange-centered
    table phi - c; the fixed point rescales by kappa = exp(-s c / (q-1)), which
    shifts the raw pressure by exactly -s c, so P gets s c back and P' gets c.
    Differentiating the fixed point, g = d log psi / ds solves the linear
    system g = K (phi + g[child]) / q with K the stochastic kernel (I - K/q is
    invertible as K/q has norm 1/q); g is then carried up the levels with psi.
    """
    if not math.isfinite(s):
        raise ValidationError(f"s must be finite, got {s}")
    m, q, d = potential.m, potential.q, potential.d
    phi, child, shift = _operator_data(potential)
    with np.errstate(all="ignore"):
        weights = np.exp(s * phi)
    psi, residual, iterations = fixed_point(weights, child, q, f"at s={s}")
    kernel = weights * psi[child] / (psi**q)[:, None]
    tangent = np.linalg.solve(_tangent_matrix(kernel, child, q), (kernel * phi).sum(axis=1) / q)
    g = tangent
    levels = {d - 1: psi}
    for k in range(d - 2, 0, -1):
        upper = levels[k + 1].reshape(m**k, m)
        levels[k] = upper.sum(axis=1) ** (1.0 / q)
        g = (upper * g.reshape(m**k, m)).sum(axis=1) / (q * upper.sum(axis=1))
    scale = (q - 1) * q ** (d - 2)
    total = levels[1].sum()
    return PsiSolution(
        s, levels, kernel, tangent, residual, iterations,
        pressure=scale * math.log(total) + s * shift,
        derivative=scale * float(levels[1] @ g / total) + shift,
    )


def operator_residual(potential: Potential, sol: PsiSolution) -> float:
    """Sup-norm defect of the fixed-point equation at the solution, relative."""
    phi, child, _ = _operator_data(potential)
    psi = sol.levels[potential.d - 1]
    image = operator_step(np.exp(sol.s * phi), child, psi, potential.q)
    return float(np.max(np.abs(image - psi)) / np.max(np.abs(psi)))


def pressure(potential: Potential, s: float) -> float:
    """P(s) = (q-1) q^{d-2} log sum_j psi_s(j) for the potential itself (see :func:`solve_psi`)."""
    return solve_psi(potential, s).pressure


def pressure_derivative(potential: Potential, s: float) -> float:
    """P'(s), exact by implicit differentiation of the fixed point (see :func:`solve_psi`)."""
    return solve_psi(potential, s).derivative


def pressure_second_derivative(potential: Potential, sol: PsiSolution) -> float:
    """P''(s) at the solution `sol`, exact, at the cost of one more linear solve.

    Differentiating the tangent system g = K (phi + g[child]) / q once more,
    h = d^2 log psi / ds^2 solves (I - K/q) h = Var_K(phi + g[child]) / q,
    the variance taken per row u under K[u]; the variance is formed as a sum
    of squares, so h and P'' are >= 0 up to the solve's rounding. Up the
    levels h_k = (E_w[h_{k+1}] + Var_w[g_{k+1}]) / q with w proportional to
    psi_{k+1} in each block of m, and P'' = (q-1) q^{d-2} (E_w[h_1] + Var_w[g_1]).
    """
    m, q, d = potential.m, potential.q, potential.d
    phi, child, _ = _operator_data(potential)
    g = sol.tangent
    spread = phi + g[child] - q * g[:, None]
    h = np.linalg.solve(
        _tangent_matrix(sol.kernel, child, q), (sol.kernel * spread**2).sum(axis=1) / q
    )
    # level 0 is psi_0^q = sum_j psi_1(j): one block, and P = (q-1) q^{d-1} log psi_0
    for k in range(d - 2, -1, -1):
        w = sol.levels[k + 1].reshape(m**k, m)
        w = w / w.sum(axis=1, keepdims=True)
        g = g.reshape(m**k, m)
        mean = (w * g).sum(axis=1)
        var = (w * (g - mean[:, None]) ** 2).sum(axis=1)
        h = ((w * h.reshape(m**k, m)).sum(axis=1) + var) / q
        g = mean / q
    return (q - 1) * q ** (d - 1) * float(h[0])


def level_domain(potential: Potential) -> tuple[float, float]:
    """[P'(-S), P'(+S)] at the horizon S = ENDPOINT_S: the levels the slope solve can reach.

    The attainable levels extend to the limits of P' as s -> +/-inf; up to
    rounding, the horizon values fall short of them by e^{-O(S)}.
    """
    return (
        pressure_derivative(potential, -ENDPOINT_S),
        pressure_derivative(potential, ENDPOINT_S),
    )


def solve_pressure_slope(potential: Potential, alpha: float) -> float | None:
    """s in [-ENDPOINT_S, ENDPOINT_S] with P'(s) = alpha, or None when P' misses alpha there.

    The bracket doubles outward from [-1, 1] and is capped at the horizon,
    so every alpha inside :func:`level_domain` is bracketed. Newton steps
    s <- s - (P'(s) - alpha) / P''(s) on the exact P'' then start from the
    secant point of the bracket; each step that would leave the bracket, or
    meets P'' <= 0, is replaced by bisection, and every solve shrinks the
    bracket. It stops when the Newton step falls below 1e-12 (relative to
    max(1, |s|)) or the bracket is that narrow.
    """
    lo, hi = -1.0, 1.0
    while (f_lo := pressure_derivative(potential, lo)) > alpha:
        if lo <= -ENDPOINT_S:
            return None
        lo = max(2 * lo, -ENDPOINT_S)
    while (f_hi := pressure_derivative(potential, hi)) < alpha:
        if hi >= ENDPOINT_S:
            return None
        hi = min(2 * hi, ENDPOINT_S)
    s = lo if f_hi == f_lo else lo + (alpha - f_lo) * (hi - lo) / (f_hi - f_lo)
    for _ in range(200):
        sol = solve_psi(potential, s)
        if sol.derivative < alpha:
            lo = s
        else:
            hi = s
        curvature = pressure_second_derivative(potential, sol)
        step = (sol.derivative - alpha) / curvature if curvature > 0 else math.inf
        if abs(step) < 1e-12 * max(1.0, abs(s)):
            return s - step
        s = s - step if lo < s - step < hi else 0.5 * (lo + hi)
        if hi - lo < 1e-12 * max(1.0, abs(lo) + abs(hi)):
            break
    return s


def legendre_spectrum(potential: Potential, alpha: float) -> float:
    """Normalized Hausdorff spectrum (P(s_a) - s_a * alpha) / (q^{d-1} log m).

    Returns NaN (the out-of-domain marker) when no level set exists at alpha.
    Levels between the horizon :func:`level_domain` and the hard bounds
    [min phi, max phi] are evaluated at the horizon s = +/-ENDPOINT_S, not at
    the s -> +/-inf limit.
    """
    if potential.is_constant:
        return 1.0 if alpha == potential.alpha_min else OUT_OF_DOMAIN
    lo, hi = level_domain(potential)
    if alpha < lo or alpha > hi:
        if potential.alpha_min <= alpha <= potential.alpha_max:
            s_end = -ENDPOINT_S if alpha < lo else ENDPOINT_S
            return (pressure(potential, s_end) - s_end * alpha) / (
                potential.q ** (potential.d - 1) * math.log(potential.m)
            )
        return OUT_OF_DOMAIN
    s_alpha = solve_pressure_slope(potential, alpha)
    if s_alpha is None:
        return OUT_OF_DOMAIN
    value = pressure(potential, s_alpha) - s_alpha * alpha
    return value / (potential.q ** (potential.d - 1) * math.log(potential.m))


def ruelle_dimension(potential: Potential, s: float) -> float:
    """Dimension (in [0,1]) of the telescopic measure built from psi_s."""
    q, d, m = potential.q, potential.d, potential.m
    sol = solve_psi(potential, s)
    return (sol.pressure - s * sol.derivative) / (q ** (d - 1) * math.log(m))


def markov_measure(potential: Potential, s: float) -> BaseMeasure:
    """The (d-1)-step Markov law (pi_s, Q_s) defined by the fixed point at s."""
    m, q, d = potential.m, potential.q, potential.d
    sol = solve_psi(potential, s)
    # initial law pi([a_1..a_{d-1}]) = prod_j psi(a_1..a_j) / psi(a_1..a_{j-1})^q,
    # with psi(empty)^q = sum_j psi(j) so the law is a probability vector.
    order = d - 1
    pi = np.ones(m**order)
    prev = np.array([sol.levels[1].sum() ** (1.0 / q)])  # psi at the empty word
    for k in range(1, order + 1):
        lev = sol.levels[k]
        reps = m ** (order - k)
        pi *= np.repeat(lev / (prev**q).repeat(m), reps)
        prev = lev
    # transition kernel from context (a_1..a_{d-1}) to appended symbol j;
    # both pi and the kernel are invariant under the internal centering shift
    return BaseMeasure(m=m, order=order, initial=pi, kernel=sol.kernel)


@dataclass(frozen=True)
class PressureCurve:
    """Sampled (s, P, P', alpha, dim) records along an s-grid."""

    s: np.ndarray
    P: np.ndarray
    dP: np.ndarray
    dim: np.ndarray

    @property
    def alpha(self) -> np.ndarray:
        return self.dP

    def rows(self) -> Iterable[tuple[float, float, float, float, float]]:
        for i in range(len(self.s)):
            yield (
                float(self.s[i]),
                float(self.P[i]),
                float(self.dP[i]),
                float(self.dP[i]),
                float(self.dim[i]),
            )


def pressure_curve(potential: Potential, s_grid) -> PressureCurve:
    s_grid = np.asarray(s_grid, dtype=float)
    sols = [solve_psi(potential, s) for s in s_grid]
    P = np.array([sol.pressure for sol in sols])
    dP = np.array([sol.derivative for sol in sols])
    norm = potential.q ** (potential.d - 1) * math.log(potential.m)
    dim = (P - s_grid * dP) / norm
    return PressureCurve(s=s_grid, P=P, dP=dP, dim=dim)


def convexity_defect(values: np.ndarray) -> float:
    """Most negative second difference along a uniform grid (>= 0 means convex)."""
    second = np.diff(np.asarray(values, dtype=float), n=2)
    return float(second.min()) if len(second) else 0.0
