"""Oriented walks driven by an idempotent linear action.

Perron-Frobenius pressure from one dense eigensolve of the log-scaled
transfer matrix, its exact gradient and Hessian (the mean and asymptotic
covariance of the drift under the Perron chain), the multifractal spectrum
of the walk's linear drift by Newton's method on them, the evolution
measure whose cylinder masses track the walk up to a telescoping defect,
trajectories, and the closed second-moment formula for the polymer-chain
model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import riesz
from .errors import ConvergenceError, ValidationError, json_document, json_int
from .symbolic import transition_matrix
from .telescopic import BaseMeasure
from .thermo import _GRAD_TOL, OUT_OF_DOMAIN, newton_slope

_ROW_TOL = 1e-8  # most a row of the Perron chain Q may miss 1 by


@dataclass(frozen=True)
class WalkSystem:
    """An oriented walk S_n(x) = sum_k tau^(x_1+...+x_k) v with tau^p = Id.

    tau is a D x D matrix, v a D-vector, and the steps A are integers whose
    residues generate Z/pZ, that is gcd(p, A) = 1 (which makes the transfer
    matrix irreducible).
    """

    p: int
    tau: np.ndarray
    v: np.ndarray
    steps: tuple[int, ...]

    def __post_init__(self):
        if self.p < 2:
            raise ValidationError(f"order p must be >= 2, got {self.p}")
        tau = np.asarray(self.tau, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if tau.ndim != 2 or tau.shape[0] != tau.shape[1]:
            raise ValidationError(f"tau must be square, got shape {tau.shape}")
        if v.shape != (tau.shape[0],):
            raise ValidationError("v must match tau's dimension")
        if not (np.isfinite(tau).all() and np.isfinite(v).all()):
            raise ValidationError("tau and v must be finite")
        if np.linalg.norm(v) == 0:
            raise ValidationError("v must be nonzero")
        power = np.linalg.matrix_power(tau, self.p)
        if np.max(np.abs(power - np.eye(tau.shape[0]))) >= 1e-10:
            raise ValidationError(f"tau^{self.p} is not the identity")
        try:  # a bool is dropped, so that true, like 1.5, is not read as the step 1
            steps = tuple(int(a) for a in self.steps if not isinstance(a, (bool, np.bool_)))
        except (TypeError, ValueError, OverflowError):  # None, NaN, inf, text
            steps = None
        if steps is None or steps != tuple(self.steps):
            raise ValidationError(f"steps must be integers, got {self.steps!r}")
        if not steps:
            raise ValidationError("step set must be nonempty")
        if math.gcd(self.p, *steps) != 1:  # the residues of A generate gcd(p, A) Z/pZ
            raise ValidationError(f"steps {self.steps} do not generate Z/{self.p}Z")
        if len({a % self.p for a in steps}) != len(steps):
            raise ValidationError("steps must be distinct modulo p")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "steps", steps)

    @property
    def dim(self) -> int:
        return self.tau.shape[0]

    @property
    def log_base(self) -> float:
        """log of the symbol count: dimensions on A^N use the #A-adic metric.

        The base coincides with the order p when the steps cover Z/pZ
        (sign-flip walk) but differs for sparser step sets (quarter-turn
        walk: two steps, order four); only this choice puts the spectrum's
        peak at exactly 1 and matches both closed forms.
        """
        return math.log(len(self.steps))

    @cached_property
    def orbit(self) -> np.ndarray:
        """tau^j v for j = 0..p-1, shape (p, D)."""
        out = np.empty((self.p, self.dim))
        w = self.v.copy()
        for j in range(self.p):
            out[j] = w
            w = self.tau @ w
        return out

    @cached_property
    def child(self) -> np.ndarray:
        """The step graph: child[w, i] = w + A[i] mod p, the residue after step i from w, shape (p, #A)."""
        return (np.arange(self.p)[:, None] + np.array(self.steps)) % self.p

    @cached_property
    def step_mask(self) -> np.ndarray:
        """mask[i, j] = 1 iff j - i is a step residue, shape (p, p)."""
        return transition_matrix(np.ones(self.child.shape), self.child)

    @classmethod
    def from_json(cls, text: str) -> "WalkSystem":
        """The system of a document {"p", "tau", "v", "A": [steps]}; steps follow the constructor's rule."""
        with json_document(text, "walk-system") as doc:
            return cls(
                p=json_int(doc, "p"),
                tau=np.asarray(doc["tau"], dtype=float),
                v=np.asarray(doc["v"], dtype=float),
                steps=tuple(doc["A"]),
            )

    def to_json(self) -> str:
        return json.dumps(
            {"p": self.p, "tau": self.tau.tolist(), "v": self.v.tolist(), "A": list(self.steps)}
        )


def case1() -> WalkSystem:
    """Sign flips: p=2, tau = -1 on the line, steps {0, 1}."""
    return WalkSystem(p=2, tau=np.array([[-1.0]]), v=np.array([1.0]), steps=(0, 1))


def case2() -> WalkSystem:
    """Quarter turns: p=4, tau = rotation by pi/2, steps {-1, +1}."""
    return WalkSystem(
        p=4, tau=np.array([[0.0, -1.0], [1.0, 0.0]]), v=np.array([1.0, 0.0]), steps=(-1, 1)
    )


@dataclass(frozen=True)
class WalkPressure:
    """Spectral data of the transfer matrix M_s(i, j) = [j - i is a step] exp(<s, tau^j v>)."""

    s: np.ndarray
    log_scale: float  # common log factor taken out of the matrix
    lam: float  # spectral radius of the scaled matrix
    t: np.ndarray  # probability right eigenvector over Z/pZ

    @property
    def pressure(self) -> float:
        return self.log_scale + math.log(self.lam)


def spectral_radius(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and its probability eigenvector, from one dense eigensolve.

    The Perron root is the eigenvalue of largest real part: on an irreducible
    nonnegative matrix every other eigenvalue of modulus lambda is lambda
    times a root of unity other than 1.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("matrix must be square")
    if np.any(matrix < 0):
        raise ValidationError("matrix must be nonnegative")
    values, vectors = np.linalg.eig(matrix)
    top = int(np.argmax(values.real))
    t = np.abs(vectors[:, top].real)
    return float(values[top].real), t / t.sum()


def _scaled_matrix(system: WalkSystem, s: np.ndarray) -> tuple[np.ndarray, float]:
    """(M_s exp(-scale), scale) with scale = max_j <s, tau^j v>, so no entry overflows."""
    exponents = system.orbit @ s
    scale = float(exponents.max())
    return system.step_mask * np.exp(exponents - scale)[None, :], scale


def walk_pressure(system: WalkSystem, s) -> WalkPressure:
    """Spectral data at s, computed on a log-rescaled matrix for stability."""
    s = _as_param(system, s)
    matrix, scale = _scaled_matrix(system, s)
    lam, t = spectral_radius(matrix)
    return WalkPressure(s=s, log_scale=scale, lam=lam, t=t)


def pressure(system: WalkSystem, s) -> float:
    """P(s) = log of the spectral radius of the transfer matrix."""
    return walk_pressure(system, s).pressure


def _perron_chain(system: WalkSystem, data: WalkPressure) -> tuple[np.ndarray, np.ndarray]:
    """The stochastic matrix Q = M t / (lambda t) at data.s and its stationary law pi.

    pi is proportional to u t for the left Perron vector u; it comes from
    one p x p solve, pi^T = 1^T (I - Q + 1 1^T)^{-1}.

    Q is stochastic only if t is an accurate Perron vector. Far out in s,
    entries of t fall below rounding and the chain turns reducible; so a
    row of Q missing 1 by more than _ROW_TOL, or a singular solve for pi,
    raises ConvergenceError naming s.
    """
    matrix, _ = _scaled_matrix(system, data.s)
    scaled = data.lam * data.t
    defect = np.abs(matrix @ data.t - scaled)  # row i of Q misses 1 by defect_i / scaled_i
    if (defect < _ROW_TOL * scaled).all():  # false where t has a NaN
        chain = matrix * data.t[None, :] / scaled[:, None]
        try:
            return chain, np.linalg.solve((np.eye(system.p) - chain + 1.0).T, np.ones(system.p))
        except np.linalg.LinAlgError:
            pass
    with np.errstate(all="ignore"):
        miss = float(np.max(defect / scaled))
    raise ConvergenceError(f"Perron vector lost to rounding at s={data.s.tolist()}", miss)


def _derivatives(system: WalkSystem, s) -> tuple[np.ndarray, np.ndarray]:
    """Exact grad P(s) = pi f and Hessian of P at s, from one Perron solve.

    f(j) = tau^j v is the drift the chain Q adds on entering residue j, and
    the Hessian is the asymptotic covariance of f under Q (Kemeny-Snell):
    with the fundamental matrix Z = (I - Q + 1 pi)^{-1} and g = f - pi f,
    it is C + C^T - g^T diag(pi) g for C = g^T diag(pi) Z g.
    """
    chain, pi = _perron_chain(system, walk_pressure(system, s))
    grad = pi @ system.orbit
    centred = system.orbit - grad
    poisson = np.linalg.solve(np.eye(system.p) - chain + pi[None, :], centred)
    cross = centred.T @ (pi[:, None] * poisson)
    return grad, cross + cross.T - centred.T @ (pi[:, None] * centred)


def pressure_gradient(system: WalkSystem, s) -> np.ndarray:
    """grad P(s) = pi f, the mean drift of the Perron chain at s, exact."""
    _, pi = _perron_chain(system, walk_pressure(system, s))
    return pi @ system.orbit


def _as_param(system: WalkSystem, s) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    if arr.shape != (system.dim,):
        raise ValidationError(f"parameter must have {system.dim} coordinates, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("parameter must be finite")
    return arr


_S_MAX = 60.0  # on s times max |f|: this far out, alpha saturates the drift range


def solve_gradient(system: WalkSystem, alpha) -> np.ndarray | None:
    """s with grad P(s) = alpha, or None when alpha is outside the drift range.

    :func:`thermo.newton_slope` on the exact gradient and Hessian, in the
    drift unit max |f| (so scaling v leaves the answer the same) and the
    _S_MAX box. On a drift range of lower dimension the Hessian is singular
    across its affine hull, and the least-squares steps stay in the hull.
    The exact gradient checks the s it returns: alpha off the hull, or on or
    past the range's boundary, sends s to the box or to where the Perron
    chain is lost to rounding (ConvergenceError), and gives None.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    unit = float(np.max(np.abs(system.orbit)))
    try:
        s = newton_slope(lambda s: _derivatives(system, s), alpha, unit, _S_MAX)
        if s is None or not np.abs(pressure_gradient(system, s) - alpha).max() < _GRAD_TOL * unit:
            return None
    except ConvergenceError:
        return None
    return s


def walk_spectrum(system: WalkSystem, alpha) -> float:
    """dim of the level set of S_n/n at alpha: (P(s_a) - <s_a, alpha>) / log #A.

    Returns NaN for alpha outside the drift range or off its affine hull,
    and may return NaN on the range's boundary, where s runs to infinity.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    s = solve_gradient(system, alpha)
    if s is None:
        return OUT_OF_DOMAIN
    return (pressure(system, s) - float(s @ alpha)) / system.log_base


def closed_form_case1(alpha: float) -> float:
    """Sign-flip walk spectrum H((1+alpha)/2) / log 2 for alpha in [-1, 1]."""
    if not -1.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must lie in [-1, 1], got {alpha}")
    return riesz.entropy((1 + alpha) / 2) / math.log(2)


def closed_form_case2(a: float, b: float) -> float:
    """Quarter-turn walk spectrum (H(1/2+a) + H(1/2+b)) / (2 log 2) on the half-square."""
    if abs(a) > 0.5 or abs(b) > 0.5:
        raise ValidationError(f"(a, b) must lie in [-1/2, 1/2]^2, got {(a, b)}")
    return (riesz.entropy(0.5 + a) + riesz.entropy(0.5 + b)) / (2 * math.log(2))


# -- evolution measure --


def _defect_ends(system: WalkSystem, s) -> tuple[np.ndarray, np.ndarray, float]:
    """(first, last, P(s)): the defect of log mu_s at a word is first[w_1] + last[w_n].

    With w_k = x_1 + ... + x_k mod p, the cylinder mass is t_{w_1} / sum_a t_{a mod p}
    times exp(<s, tau^{w_k} v> - P(s)) t_{w_k} / t_{w_{k-1}} for each k > 1. Its t's
    telescope, so log mu_s([x_1..x_n]) = <s, S_n(x)> - n P(s) + first[w_1] + last[w_n]
    with first[w] = P(s) - <s, tau^w v> - log sum_a t_{a mod p} and last = log t.
    """
    data = walk_pressure(system, s)
    denom = math.log(sum(data.t[a % system.p] for a in system.steps))
    return data.pressure - system.orbit @ data.s - denom, np.log(data.t), data.pressure


def evolution_log_mass(system: WalkSystem, s, u: Sequence[int]) -> float:
    """log mu_s([u_1..u_n]) for a word over the step set, from :func:`_defect_ends`."""
    first, last, logp = _defect_ends(system, s)
    w = _residues(system, u)
    if not w.size:
        return 0.0
    increments = system.orbit @ _as_param(system, s) - logp  # <s, tau^w v> - P(s) at residue w
    return float(first[w[0]] + last[w[-1]] + increments[w].sum())


def evolution_measure_mass(system: WalkSystem, s, u: Sequence[int]) -> float:
    """Cylinder mass mu_s([u]) = pi(u_1) * prod Q_k."""
    return math.exp(evolution_log_mass(system, s, u))


def evolution_bound(system: WalkSystem, s) -> float:
    """Uniform bound on |log mu_s([x_1..x_n]) - <s, S_n(x)> + n P(s)|.

    The defect is exactly first[w_1] + last[w_n] (:func:`_defect_ends`); the
    bound is its largest absolute value over first residues w_1 in A mod p
    and last residues w_n in Z/pZ.
    """
    first, last, _ = _defect_ends(system, s)
    return float(np.abs(first[np.array(system.steps) % system.p][:, None] + last).max())


def evolution_measure(system: WalkSystem, s) -> BaseMeasure:
    """mu_s as a finite-state source on step indices (symbol i is the step A[i]).

    States 0..p-1 are the residues w: w takes step a by the Perron chain,
    Q(w -> w + a), and moves to w + a mod p. State p is the start, whose
    step a has probability t_{a mod p} / sum_b t_{b mod p}.
    """
    data = walk_pressure(system, s)
    chain, _ = _perron_chain(system, data)
    child = system.child
    kernel = np.take_along_axis(chain, child, axis=1)
    kernel /= kernel.sum(axis=1, keepdims=True)  # exact identity up to rounding
    first = child[0]  # the start moves as residue 0 does, to A mod p
    start = data.t[first] / data.t[first].sum()
    return BaseMeasure(np.vstack([kernel, start]), np.vstack([child, first]), system.p)


def sample_paths(system: WalkSystem, s, n: int, paths: int, seed: int) -> np.ndarray:
    """`paths` words of length n from :func:`evolution_measure`, shape (paths, n), reproducibly."""
    if n < 1 or paths < 1:
        raise ValidationError("n and paths must be >= 1")
    source = evolution_measure(system, s)
    u = np.random.Generator(np.random.Philox(seed)).random((paths, n))
    out = np.empty((paths, n), dtype=np.int64)
    states = np.full(paths, source.start)
    for k in range(n):
        out[:, k], states = source.step(states, u[:, k])
    return np.array(system.steps)[out]


def trajectory(system: WalkSystem, x, n: int | None = None) -> np.ndarray:
    """Partial sums S_1..S_n of tau^(x_1+...+x_k) v over the first n symbols.

    x is one word, shape (len,), giving shape (n, D), or a stack of words,
    shape (paths, len), giving shape (paths, n, D).
    """
    x = np.asarray(x)
    if n is None:
        n = x.shape[-1]
    if n > x.shape[-1]:
        raise ValidationError(f"need {n} symbols, got {x.shape[-1]}")
    return np.cumsum(system.orbit[_residues(system, x[..., :n])], axis=-2)


def _residues(system: WalkSystem, x) -> np.ndarray:
    """w_k = x_1 + ... + x_k mod p along the last axis of x, whose symbols must be steps."""
    x = np.asarray(x)
    bad = x[~np.isin(x, system.steps)]  # 1.7 is no step, where a cast to int read it as 1
    if bad.size:
        raise ValidationError(f"symbol {bad[0]} is not a step of the system")
    return np.cumsum(x.astype(np.int64), axis=-1) % system.p


# -- polymer-chain second moment --


def feller_second_moment(angle: float, n: int) -> float:
    """E L_n^2 for the planar chain with i.i.d. +/-angle turns, closed form."""
    if not 0 < angle < 2 * math.pi:
        raise ValidationError(f"angle must lie in (0, 2*pi), got {angle}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    c = math.cos(angle)
    return n * (1 + c) / (1 - c) - 2 * c * (1 - c**n) / (1 - c) ** 2


def feller_monte_carlo(angle: float, n: int, trials: int, seed: int) -> float:
    """Monte Carlo estimate of E L_n^2 with a seeded counter-based generator."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not 0 < angle < 2 * math.pi:
        raise ValidationError(f"angle must lie in (0, 2*pi), got {angle}")
    rng = np.random.Generator(np.random.Philox(seed))
    signs = rng.integers(0, 2, size=(trials, n)) * 2 - 1
    phases = np.cumsum(signs * angle, axis=1)
    x = np.cos(phases).sum(axis=1)
    y = np.sin(phases).sum(axis=1)
    return float(np.mean(x**2 + y**2))
