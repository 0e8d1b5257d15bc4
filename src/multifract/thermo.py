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

#: Most elements S n (n + m) of one batched solve over S values of s on
#: n = m^{d-1} codes: each stacked array (S, n, n) then takes at most 8 MB.
_STACK_ELEMENTS = 1 << 20


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
    return np.add.reduce(weights * psi[child], axis=1) ** (1.0 / q)


def fixed_point(weights: np.ndarray, child: np.ndarray, q: float, where: str | np.ndarray):
    """Fixed points of S stacked systems psi^q = W psi from psi = 1: (psi, residual, iterations).

    The S systems share the child codes `child` (n, m) and are laid out flat
    as one block-diagonal system: system i owns rows i n .. (i+1) n - 1 of
    `weights` (S n, m), and its child codes are offset by i n. Each iteration
    is one :func:`operator_step` over the systems still active, with one
    residual max|image - psi| / max image per system, over its own block. A
    system is frozen at the iteration where that residual first drops below
    the tolerance and leaves the active set, so each one ends bit for bit
    where it would end alone. Returns psi (S n,), residual (S,) and
    iterations (S,).

    Raises ConvergenceError on the first non-finite iterate or at the cap,
    naming the failing system by `where`: either a string label, or the
    array of the S parameters s, when the error says `at s=<value>` and
    carries that s as its `parameter`.
    """
    n, width = child.shape
    count = len(weights) // n
    blocks = n * np.arange(count)  # first row of each active system
    codes = (child + blocks[:, None, None]).reshape(-1, width)
    psi_out, residual_out = np.empty(len(weights)), np.empty(count)
    iterations_out = np.empty(count, dtype=int)
    active = np.arange(count)  # the systems still iterating, in stack order
    psi = np.ones(len(weights))

    def fail(message, i):
        """ConvergenceError for the i-th active system at the current iteration."""
        value = None if isinstance(where, str) else float(where[active[i]])
        label = where if value is None else f"at s={value}"
        return ConvergenceError(f"{message} {label}", float(residual[i]), it, value)

    it = 0
    # overflow and inf/inf reach the explicit non-finite check, not numpy's warnings
    with np.errstate(all="ignore"):
        while len(active):
            it += 1
            image = operator_step(weights, codes, psi, q)
            residual = np.maximum.reduceat(np.abs(image - psi), blocks) / np.maximum.reduceat(
                image, blocks
            )
            psi = image
            # one reduction per iteration (the ufunc, not the slower method): a NaN
            # residual propagates through the minimum, and an inf one (a zero block)
            # turns NaN on the next iteration
            if not np.minimum.reduce(residual) >= _FIXED_POINT_TOL:
                finite = np.isfinite(residual)
                if not finite.all():
                    raise fail("non-finite fixed-point iterate", int(np.argmin(finite)))
                done = residual < _FIXED_POINT_TOL
                frozen = active[done]
                psi_out.reshape(count, n)[frozen] = psi.reshape(-1, n)[done]
                residual_out[frozen] = residual[done]
                iterations_out[frozen] = it
                keep = ~done
                active, residual = active[keep], residual[keep]
                psi = psi.reshape(-1, n)[keep].ravel()
                weights = weights.reshape(-1, n, width)[keep].reshape(-1, width)
                blocks, codes = blocks[: len(active)], codes[: len(psi)]
            if it == _FIXED_POINT_CAP and len(active):
                raise fail("fixed-point iteration did not converge", 0)
    return psi_out, residual_out, iterations_out


def _tangent_matrix(kernel: np.ndarray, child: np.ndarray, q: float) -> np.ndarray:
    """I - K/q over level d-1 codes (one per leading index of `kernel`): the tangent matrix."""
    return np.eye(len(child)) - transition_matrix(kernel / q, child)


def _solve_stack(potential: Potential, s: np.ndarray):
    """One :func:`fixed_point` call for every s of the 1-D array `s`, with P(s) and exact P'(s).

    Returns (levels, kernel, tangent, residual, iterations, pressure,
    derivative), each with a leading axis over s: levels[k] is (S, m^k),
    kernel (S, m^{d-1}, m) and tangent (S, m^{d-1}). See :func:`solve_psi`.
    """
    bad = ~np.isfinite(s)
    if bad.any():
        raise ValidationError(f"s must be finite, got {float(s[bad][0])}")
    m, q, d = potential.m, potential.q, potential.d
    phi, child, shift = _operator_data(potential)
    with np.errstate(all="ignore"):
        weights = np.exp(s[:, None, None] * phi)
    psi, residual, iterations = fixed_point(weights.reshape(-1, m), child, q, s)
    psi = psi.reshape(len(s), len(child))
    kernel = weights * psi[:, child] / (psi**q)[:, :, None]
    rhs = (kernel * phi).sum(axis=2) / q
    tangent = np.linalg.solve(_tangent_matrix(kernel, child, q), rhs[:, :, None])[:, :, 0]
    g = tangent
    levels = {d - 1: psi}
    for k in range(d - 2, 0, -1):
        upper = levels[k + 1].reshape(len(s), m**k, m)
        levels[k] = upper.sum(axis=2) ** (1.0 / q)
        g = (upper * g.reshape(len(s), m**k, m)).sum(axis=2) / (q * upper.sum(axis=2))
    scale = (q - 1) * q ** (d - 2)
    total = levels[1].sum(axis=1)
    # math.log, not np.log, whose vectorized path may round the last bit differently
    pressure = scale * np.array([math.log(t) for t in total]) + s * shift
    mean_g = np.matmul(levels[1][:, None, :], g[:, :, None])[:, 0, 0] / total
    return levels, kernel, tangent, residual, iterations, pressure, scale * mean_g + shift


def _pressure_stack(potential: Potential, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(s) and P'(s) at every s of the 1-D array `s`, one :func:`_solve_stack` per chunk of s.

    A chunk holds at most _STACK_ELEMENTS // (n (n + m)) values of s, with
    n = m^{d-1}, so the stacked tangent matrices (S, n, n) and weights (S n, m)
    stay within a fixed budget however long the grid is. Rows do not depend
    on their chunk.
    """
    n = potential.m ** (potential.d - 1)
    size = max(1, _STACK_ELEMENTS // (n * (n + potential.m)))
    chunks = np.array_split(s, max(1, -(-len(s) // size)))
    parts = [_solve_stack(potential, chunk)[-2:] for chunk in chunks]
    return np.concatenate([P for P, _ in parts]), np.concatenate([dP for _, dP in parts])


def solve_psi(potential: Potential, s: float) -> PsiSolution:
    """Fixed point of psi -> (L_s psi)^(1/q) from psi = 1, with P(s) and exact P'(s).

    Every call solves afresh; it is the one-row case of the batched solve
    behind :func:`pressure_curve` and array :func:`pressure_derivative`. The
    solver works with the midrange-centered table phi - c; the fixed point
    rescales by kappa = exp(-s c / (q-1)), which shifts the raw pressure by
    exactly -s c, so P gets s c back and P' gets c. Differentiating the fixed
    point, g = d log psi / ds solves the linear system g = K (phi + g[child]) / q
    with K the stochastic kernel (I - K/q is invertible as K/q has norm 1/q);
    g is then carried up the levels with psi.
    """
    levels, kernel, tangent, residual, iterations, P, dP = _solve_stack(
        potential, np.array([s], dtype=float)
    )
    return PsiSolution(
        s, {k: level[0] for k, level in levels.items()}, kernel[0], tangent[0],
        float(residual[0]), int(iterations[0]), pressure=float(P[0]), derivative=float(dP[0]),
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


def pressure_derivative(potential: Potential, s):
    """P'(s), exact by implicit differentiation of the fixed point (see :func:`solve_psi`).

    A scalar s gives a float; a 1-D array of s gives the array of P' from
    batched solves (see :func:`pressure_curve`).
    """
    s = np.asarray(s, dtype=float)
    derivative = _pressure_stack(potential, np.atleast_1d(s))[1]
    return float(derivative[0]) if s.ndim == 0 else derivative


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

    Both ends come from one batched solve. The attainable levels extend to
    the limits of P' as s -> +/-inf; up to rounding, the horizon values fall
    short of them by e^{-O(S)}.
    """
    lo, hi = pressure_derivative(potential, np.array([-ENDPOINT_S, ENDPOINT_S]))
    return float(lo), float(hi)


# Newton bounds, on s times `unit` and on slopes divided by `unit`
_STEP_MAX = 4.0  # least cap on one Newton step; the cap grows as |s| unit
_STEP_TOL = 1e-7  # a step this small leaves an error of order its square
_GRAD_TOL = 1e-10
_NEWTON_CAP = 100
_HALVINGS = 30  # step halvings before Newton gives up on lowering the residual


def newton_slope(derivatives, alpha: np.ndarray, unit: float, box: float) -> np.ndarray | None:
    """s with grad P(s) = alpha by damped Newton from s = 0, or None where it finds none.

    `derivatives(s)` gives grad P(s) and the Hessian of a convex P whose
    gradient has the scale `unit`. Each step is a least-squares solve, capped
    at max(_STEP_MAX, |s| unit) / unit so a saturating gradient sends s out
    geometrically, and halved until |grad P - alpha| falls: plain Newton can
    cycle on a sigmoid gradient. It stops on a residual below _GRAD_TOL unit,
    or a stalled step; the caller checks that s. None: a trial step reached
    |s| unit >= box, no halving lowered the residual, or _NEWTON_CAP steps passed.
    """
    s = np.zeros(len(alpha))
    grad, hess = derivatives(s)
    for _ in range(_NEWTON_CAP):
        residual = grad - alpha
        step = np.linalg.lstsq(hess, residual, rcond=None)[0]
        size = float(np.abs(step).max()) * unit
        step /= max(1.0, size / max(_STEP_MAX, float(np.abs(s).max()) * unit))
        if size < _STEP_TOL or np.abs(residual).max() < _GRAD_TOL * unit:
            return s - step
        norm = residual @ residual
        for _ in range(_HALVINGS):
            trial = s - step
            if np.abs(trial).max() * unit >= box:
                return None
            grad, hess = derivatives(trial)
            if (grad - alpha) @ (grad - alpha) < norm:
                break
            step /= 2
        else:
            return None  # no step lowers the residual
        s = trial
    return None


def solve_pressure_slope(potential: Potential, alpha: float) -> float | None:
    """s in (-ENDPOINT_S, ENDPOINT_S) with P'(s) = alpha, or None when P' misses alpha there.

    :func:`newton_slope` on the exact P' and P'' (:func:`solve_psi`,
    :func:`pressure_second_derivative`), with the table's half-range as the
    unit and the horizon as the box. One :func:`pressure_derivative` call
    checks the s it returns: |P'(s) - alpha| must be below _GRAD_TOL unit.
    """
    unit = 0.5 * (potential.alpha_max - potential.alpha_min) or 1.0  # 1 if P' is constant

    def derivatives(s):
        sol = solve_psi(potential, float(s[0]))
        return np.array([sol.derivative]), np.array([[pressure_second_derivative(potential, sol)]])

    s = newton_slope(derivatives, np.array([float(alpha)]), unit, ENDPOINT_S * unit)
    if s is None or not abs(pressure_derivative(potential, s[0]) - alpha) < _GRAD_TOL * unit:
        return None
    return float(s[0])


def legendre_spectrum(potential: Potential, alpha: float) -> float:
    """Normalized Hausdorff spectrum (P(s_a) - s_a * alpha) / (q^{d-1} log m).

    Returns NaN (the out-of-domain marker) when no level set exists at alpha.
    Levels from the ends of the horizon :func:`level_domain` out to the hard
    bounds [min phi, max phi] are evaluated at the horizon s = +/-ENDPOINT_S,
    not at the s -> +/-inf limit. That value is an upper bound on the
    spectrum, so where it is negative beyond rounding the level set is empty
    and the answer is NaN.
    """
    if potential.is_constant:
        return 1.0 if alpha == potential.alpha_min else OUT_OF_DOMAIN
    lo, hi = level_domain(potential)
    if alpha <= lo or alpha >= hi:
        if potential.alpha_min <= alpha <= potential.alpha_max:
            s_end = -ENDPOINT_S if alpha <= lo else ENDPOINT_S
            bound = (pressure(potential, s_end) - s_end * alpha) / (
                potential.q ** (potential.d - 1) * math.log(potential.m)
            )
            # at alpha = P'(s_end) the bound is the spectrum, >= 0 up to the
            # rounding of S P'(S), some S 1e-14: only below that is the set empty
            return bound if bound > -1e-10 else OUT_OF_DOMAIN
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
    """P, P' and the dimension at every s of a 1-D grid.

    The whole grid is one batched solve unless n (n + m) times its length,
    n = m^{d-1}, exceeds _STACK_ELEMENTS; longer grids go in chunks.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    P, dP = _pressure_stack(potential, s_grid)
    norm = potential.q ** (potential.d - 1) * math.log(potential.m)
    dim = (P - s_grid * dP) / norm
    return PressureCurve(s=s_grid, P=P, dP=dP, dim=dim)


def convexity_defect(values: np.ndarray) -> float:
    """Most negative second difference along a uniform grid (>= 0 means convex)."""
    second = np.diff(np.asarray(values, dtype=float), n=2)
    return float(second.min()) if len(second) else 0.0
