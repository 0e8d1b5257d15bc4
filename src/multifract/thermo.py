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
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ConvergenceError, ValidationError
from .symbolic import transition_matrix
from .telescopic import BaseMeasure

#: Returned by spectrum queries for levels whose level set is empty.
OUT_OF_DOMAIN = float("nan")

#: Ground-state gaps within this many half-ranges of the table are ties (argmax edges).
_TIE_TOL = 1e-12

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
        table = np.array(self.table, dtype=float)  # a read-only copy: `_operator` is cached
        if table.shape != (self.m,) * self.d:
            raise ValidationError(
                f"table must have shape {(self.m,) * self.d}, got {table.shape}"
            )
        if not np.all(np.isfinite(table)):
            raise ValidationError("table contains non-finite entries")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def alpha_min(self) -> float:
        """min phi, a hard bound on the levels; the attainable ones are :func:`level_domain`."""
        return float(self.table.min())

    @property
    def alpha_max(self) -> float:
        """max phi, a hard bound on the levels; the attainable ones are :func:`level_domain`."""
        return float(self.table.max())

    @cached_property
    def _operator(self):
        """(phi, child, shift, gap, drops, top), made on first use.

        phi is the table less shift as (m^{d-1}, m), child the shifted-child codes.
        Max-plus ground states of phi (side 0) and -phi (side 1): q beta = max_j (phi
        + beta[child]) by policy iteration, and beta_k(u) = max_j beta_{k+1}(uj) / q.
        gap = phi + beta[child] - q beta (2, n, m), drops[k] = beta_k less its largest
        sibling (2, m^k), top = max beta_1 (2,); gaps and drops are <= 0, and 0 on ties.
        """
        m, q, d = self.m, self.q, self.d
        shift = 0.5 * (self.alpha_min + self.alpha_max)
        phi = self.table.reshape(m ** (d - 1), m) - shift
        # (a_1..a_{d-1}) -> code of (a_2..a_{d-1}, j): drop leading digit, append j
        child = (np.arange(m ** (d - 1)) % m ** (d - 2) * m)[:, None] + np.arange(m)
        sides, rows, signed = np.arange(2)[:, None], np.arange(len(child)), np.stack([phi, -phi])
        tol, policy = _TIE_TOL * 0.5 * (self.alpha_max - self.alpha_min), signed.argmax(axis=2)
        while True:  # each row moves to an edge that beats its own by more than tol
            system = np.repeat(q * np.eye(len(child))[None], 2, axis=0)
            system[sides, rows, child[rows, policy]] -= 1.0
            beta = np.linalg.solve(system, signed[sides, rows, policy][:, :, None])[:, :, 0]
            value = signed + beta[:, child]
            better = value.max(axis=2) > value[sides, rows, policy] + tol
            if not better.any():
                break
            policy = np.where(better, value.argmax(axis=2), policy)
        gap, drops = value - q * beta[:, :, None], {}
        for k in range(d - 1, 0, -1):
            blocks = beta.reshape(2, -1, m)
            top = blocks.max(axis=2)
            drops[k], beta = (blocks - top[:, :, None]).reshape(2, -1), top / q
        for x in (gap, *drops.values()):
            x[x >= -tol] = 0.0
        return phi, child, shift, gap, drops, top[:, 0]

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
    """Level functions psi^(k) on A^k for k = 1..d-1 at parameter s, as block laws.

    levels[k] is a flat array of length m^k indexed by the base-m code of the
    word a_1..a_k (a_1 most significant): psi^(k) over its sum on the block
    a_1..a_{k-1} j, j in A. `kernel` is the stochastic kernel K = W psi[child]
    / psi^q on level d-1 and `tangent` the tangent g = d log psi / ds on that
    level; `pressure` and `derivative` are P(s), P'(s). P''(s) is not stored:
    :func:`pressure_second_derivative` builds it from `kernel` and `tangent`
    for the slope solver, so a forward solve pays for no second linear system.
    """

    s: float
    levels: dict[int, np.ndarray]
    kernel: np.ndarray
    tangent: np.ndarray
    residual: float
    iterations: int
    pressure: float
    derivative: float


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
    phi, child, shift, gap, drops, top = potential._operator
    side, size = (s < 0).astype(int), np.abs(s)[:, None]
    weights = np.exp(size[:, :, None] * gap[side])
    chi, residual, iterations = fixed_point(weights.reshape(-1, m), child, q, s)
    chi = chi.reshape(len(s), len(child))
    kernel = weights * chi[:, child] / (chi**q)[:, :, None]
    rhs = (kernel * phi).sum(axis=2) / q
    tangent = np.linalg.solve(_tangent_matrix(kernel, child, q), rhs[:, :, None])[:, :, 0]
    g, levels = tangent, {}
    for k in range(d - 2, -1, -1):
        # psi_{k+1} over each block, in units of e^{|s| q beta_k} of the block's word
        upper = (np.exp(size * drops[k + 1][side]) * chi).reshape(len(s), m**k, m)
        total = upper.sum(axis=2)
        levels[k + 1] = (upper / total[:, :, None]).reshape(len(s), m ** (k + 1))
        g = (levels[k + 1] * g).reshape(len(s), m**k, m).sum(axis=2) / q
        chi = total ** (1.0 / q)
    scale = (q - 1) * q ** (d - 2)
    # math.log, not np.log, whose vectorized path may round the last bit differently
    logs = np.array([math.log(t) for t in total[:, 0]])
    pressure = scale * (size[:, 0] * top[side] + logs) + s * shift
    return levels, kernel, tangent, residual, iterations, pressure, scale * q * g[:, 0] + shift


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
    """Fixed point of psi -> (L_s psi)^(1/q), with P(s) and exact P'(s), at any finite s.

    Every call solves afresh; it is the one-row case of the batched solve
    behind :func:`pressure_curve` and array :func:`pressure_derivative`. The
    solver works with the midrange-centered table phi - c; the fixed point
    rescales by kappa = exp(-s c / (q-1)), which shifts the raw pressure by
    exactly -s c, so P gets s c back and P' gets c. It iterates chi = psi e^{-|s| beta}
    from chi = 1, beta the ground state of s phi / |s| (`Potential._operator`):
    its weights exp(|s| gap) lie in [0, 1] at any s. Differentiating the fixed
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
    """Sup-norm defect of the fixed-point equation at the solution, relative, row by row.

    The kernel K = W psi[child] / psi^q has row sums (W psi / psi^q)(u), so
    max_u |(sum_j K[u, j])^(1/q) - 1| is max_u |image(u) - psi(u)| / psi(u).
    """
    return float(np.max(np.abs(sol.kernel.sum(axis=1) ** (1.0 / potential.q) - 1.0)))


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
    levels h_k = (E_w[h_{k+1}] + Var_w[g_{k+1}]) / q with w the block law
    `levels[k+1]`, and P'' = (q-1) q^{d-2} (E_w[h_1] + Var_w[g_1]).
    """
    m, q, d = potential.m, potential.q, potential.d
    phi, child, *_ = potential._operator
    g = sol.tangent
    spread = phi + g[child] - q * g[:, None]
    h = np.linalg.solve(
        _tangent_matrix(sol.kernel, child, q), (sol.kernel * spread**2).sum(axis=1) / q
    )
    # level 0 is psi_0^q = sum_j psi_1(j): one block, and P = (q-1) q^{d-1} log psi_0
    for k in range(d - 2, -1, -1):
        w = sol.levels[k + 1].reshape(m**k, m)
        g = g.reshape(m**k, m)
        mean = (w * g).sum(axis=1)
        var = (w * (g - mean[:, None]) ** 2).sum(axis=1)
        h = ((w * h.reshape(m**k, m)).sum(axis=1) + var) / q
        g = mean / q
    return (q - 1) * q ** (d - 1) * float(h[0])


def level_domain(potential: Potential) -> tuple[float, float]:
    """[lim P'(-inf), lim P'(+inf)], the attainable levels, from the ground states.

    P(s) - (q-1) q^{d-2} |s| top - s shift stays bounded, so the ends are shift
    - (q-1) q^{d-2} top(-phi) and shift + (q-1) q^{d-2} top(phi), clipped to
    [min phi, max phi] against rounding.
    """
    q, (_, _, shift, _, _, top) = potential.q, potential._operator
    hi, lo = shift + (q - 1) * q ** (potential.d - 2) * top * [1, -1]
    return max(potential.alpha_min, float(lo)), min(potential.alpha_max, float(hi))


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
    """s with P'(s) = alpha, or None when Newton finds none, as outside :func:`level_domain`.

    :func:`newton_slope` on the exact P' and P'' (:func:`solve_psi`,
    :func:`pressure_second_derivative`), with the table's half-range as the
    unit and no box: every finite s solves. One :func:`pressure_derivative`
    call checks the s it returns: |P'(s) - alpha| must be below _GRAD_TOL unit.
    """
    unit = 0.5 * (potential.alpha_max - potential.alpha_min) or 1.0  # 1 if P' is constant

    def derivatives(s):
        sol = solve_psi(potential, float(s[0]))
        return np.array([sol.derivative]), np.array([[pressure_second_derivative(potential, sol)]])

    s = newton_slope(derivatives, np.array([float(alpha)]), unit, math.inf)
    if s is None or not abs(pressure_derivative(potential, s[0]) - alpha) < _GRAD_TOL * unit:
        return None
    return float(s[0])


def legendre_spectrum(potential: Potential, alpha: float) -> float:
    """Normalized Hausdorff spectrum (P(s_a) - s_a * alpha) / (q^{d-1} log m).

    NaN (the out-of-domain marker) outside :func:`level_domain`, where no
    level set exists; s_a from :func:`solve_pressure_slope` inside. Within
    _TIE_TOL half-ranges of an end, the s -> +/-inf limit: exp(|s| gap) and
    exp(|s| drop) become 0/1, so it is :func:`fixed_point` on the argmax edges.
    """
    m, q, d = potential.m, potential.q, potential.d
    if potential.is_constant:
        return 1.0 if alpha == potential.alpha_min else OUT_OF_DOMAIN
    lo, hi = level_domain(potential)
    tol = _TIE_TOL * 0.5 * (potential.alpha_max - potential.alpha_min)
    if not lo - tol <= alpha <= hi + tol:
        return OUT_OF_DOMAIN
    if alpha >= hi - tol or alpha <= lo + tol:
        _, child, _, gap, drops, _ = potential._operator
        side = int(alpha < hi - tol)  # 0 at alpha_max, 1 at alpha_min
        chi = fixed_point((gap[side] == 0).astype(float), child, q, "on the argmax edges")[0]
        for k in range(d - 1, 0, -1):
            chi = ((drops[k][side] == 0) * chi).reshape(-1, m).sum(axis=1) ** (1.0 / q)
        return (q - 1) * math.log(chi[0]) / math.log(m)  # as kps_hausdorff, at the root
    s_alpha = solve_pressure_slope(potential, alpha)
    if s_alpha is None:
        return OUT_OF_DOMAIN
    return (pressure(potential, s_alpha) - s_alpha * alpha) / (q ** (d - 1) * math.log(m))


def ruelle_dimension(potential: Potential, s: float) -> float:
    """Dimension (in [0,1]) of the telescopic measure built from psi_s."""
    q, d, m = potential.q, potential.d, potential.m
    sol = solve_psi(potential, s)
    return (sol.pressure - s * sol.derivative) / (q ** (d - 1) * math.log(m))


def markov_measure(potential: Potential, s: float) -> BaseMeasure:
    """The (d-1)-step Markov law (pi_s, Q_s) defined by the fixed point at s."""
    m, d = potential.m, potential.d
    sol = solve_psi(potential, s)
    # initial law pi([a_1..a_{d-1}]) = prod_j psi(a_1..a_j) / psi(a_1..a_{j-1})^q,
    # with psi(empty)^q = sum_j psi(j): the product of the block laws `levels`
    order = d - 1
    pi = np.ones(m**order)
    for k in range(1, order + 1):
        pi *= np.repeat(sol.levels[k], m ** (order - k))
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
