"""Oriented walks driven by an idempotent linear action.

Transfer matrices, Perron-Frobenius pressure, the multifractal spectrum of
the walk's linear drift, the evolution measure whose cylinder masses track
the walk, trajectory simulation, and the closed second-moment formula for
the polymer-chain model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import riesz
from .errors import ConvergenceError, ValidationError
from .symbolic import transition_matrix

OUT_OF_DOMAIN = float("nan")

_POWER_TOL = 1e-14
_POWER_CAP = 100_000
_EXP_GUARD = 600.0  # |<s, tau^j v>| beyond this is solved in the log domain


@dataclass(frozen=True)
class WalkSystem:
    """An oriented walk S_n(x) = sum_k tau^(x_1+...+x_k) v with tau^p = Id.

    tau is a D x D matrix, v a D-vector, and the steps A are integers whose
    residues generate Z/pZ (which makes the transfer matrix irreducible).
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
        if np.linalg.norm(v) == 0:
            raise ValidationError("v must be nonzero")
        power = np.linalg.matrix_power(tau, self.p)
        if np.max(np.abs(power - np.eye(tau.shape[0]))) >= 1e-10:
            raise ValidationError(f"tau^{self.p} is not the identity")
        if not self.steps:
            raise ValidationError("step set must be nonempty")
        # subgroup closure of the residues of A must be all of Z/pZ
        reached = {0}
        frontier = [0]
        while frontier:
            r = frontier.pop()
            for a in self.steps:
                for nxt in ((r + a) % self.p, (r - a) % self.p):
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
        if len(reached) != self.p:
            raise ValidationError(f"steps {self.steps} do not generate Z/{self.p}Z")
        if len({a % self.p for a in self.steps}) != len(self.steps):
            raise ValidationError("steps must be distinct modulo p")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "steps", tuple(int(a) for a in self.steps))

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
    def step_mask(self) -> np.ndarray:
        """mask[i, j] = 1 iff j - i is a step residue, shape (p, p)."""
        child = (np.arange(self.p)[:, None] + np.array(self.steps)) % self.p
        return transition_matrix(np.ones(child.shape), child)

    @classmethod
    def from_json(cls, text: str) -> "WalkSystem":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"invalid walk-system JSON: {e}") from e
        try:
            return cls(
                p=int(doc["p"]),
                tau=np.asarray(doc["tau"], dtype=float),
                v=np.asarray(doc["v"], dtype=float),
                steps=tuple(int(a) for a in doc["A"]),
            )
        except (KeyError, TypeError) as e:
            raise ValidationError(f"malformed walk-system document: {e}") from e

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
    """Spectral data of the transfer matrix at parameter s."""

    s: np.ndarray
    log_scale: float  # common log factor taken out of the matrix
    lam: float  # spectral radius of the scaled matrix
    t: np.ndarray  # probability right eigenvector over Z/pZ

    @property
    def pressure(self) -> float:
        return self.log_scale + math.log(self.lam)

    @property
    def lam_true(self) -> float:
        return math.exp(self.pressure)


def transfer_matrix(system: WalkSystem, s) -> np.ndarray:
    """M_s(i, j) = [j - i is a step] * exp(<s, tau^j v>)."""
    s = _as_param(system, s)
    exponents = system.orbit @ s
    if np.max(np.abs(exponents)) > _EXP_GUARD:
        raise ValidationError(
            "transfer-matrix exponents exceed the floating-point guard; "
            "use walk_pressure (log-domain) instead"
        )
    return system.step_mask * np.exp(exponents)[None, :]


def spectral_radius(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron eigenvalue and probability eigenvector by shifted power iteration.

    Iterates with M + I, which preserves eigenvectors and maps the Perron
    root lambda to lambda + 1, so periodic 0/1 structure cannot stall the
    iteration.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("matrix must be square")
    if np.any(matrix < 0):
        raise ValidationError("matrix must be nonnegative")
    n = matrix.shape[0]
    shifted = matrix + np.eye(n)
    vec = np.ones(n)
    rayleigh = 0.0
    for _ in range(_POWER_CAP):
        image = shifted @ vec
        new_rayleigh = float(image @ vec) / float(vec @ vec)
        vec = image / np.max(np.abs(image))
        if abs(new_rayleigh - rayleigh) < _POWER_TOL * max(1.0, abs(new_rayleigh)):
            rayleigh = new_rayleigh
            break
        rayleigh = new_rayleigh
    else:
        raise ConvergenceError("power iteration did not converge", abs(new_rayleigh - rayleigh))
    vec = vec / vec.sum()
    return rayleigh - 1.0, vec


def walk_pressure(system: WalkSystem, s) -> WalkPressure:
    """Spectral data at s, computed on a log-rescaled matrix for stability."""
    s = _as_param(system, s)
    exponents = system.orbit @ s
    scale = float(np.max(exponents))
    matrix = system.step_mask * np.exp(exponents - scale)[None, :]
    # a tiny Perron root (relative to the +I shift) makes power iteration
    # crawl; extreme parameters get the dense eigensolver instead
    if float(matrix.sum(axis=1).min()) >= 1e-5:
        try:
            lam, t = spectral_radius(matrix)
            return WalkPressure(s=s, log_scale=scale, lam=lam, t=t)
        except ConvergenceError:
            pass
    values, vectors = np.linalg.eig(matrix)
    top = int(np.argmax(values.real))
    lam = float(values[top].real)
    t = np.abs(vectors[:, top].real)
    return WalkPressure(s=s, log_scale=scale, lam=lam, t=t / t.sum())


def pressure(system: WalkSystem, s) -> float:
    """P(s) = log of the spectral radius of the transfer matrix."""
    return walk_pressure(system, s).pressure


def pressure_gradient(system: WalkSystem, s) -> np.ndarray:
    """Gradient of P by coordinate-wise Richardson central differences."""
    s = _as_param(system, s)
    grad = np.empty_like(s)
    for i in range(len(s)):
        h = 1e-4 * max(1.0, abs(s[i]))
        e = np.zeros_like(s)
        e[i] = 1.0
        coarse = (pressure(system, s + h * e) - pressure(system, s - h * e)) / (2 * h)
        fine = (pressure(system, s + h / 2 * e) - pressure(system, s - h / 2 * e)) / h
        grad[i] = (4 * fine - coarse) / 3
    return grad


def _as_param(system: WalkSystem, s) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    if arr.shape != (system.dim,):
        raise ValidationError(f"parameter must have {system.dim} coordinates, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("parameter must be finite")
    return arr


_S_MAX = 60.0


def solve_gradient(system: WalkSystem, alpha) -> np.ndarray | None:
    """s with grad P(s) = alpha, or None when alpha is outside the drift range.

    Damped Newton on the convex dual objective P(s) - <s, alpha>, with a
    finite-difference Hessian; convexity makes descent from s = 0 global.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    s = np.zeros(system.dim)
    objective = lambda z: pressure(system, z) - float(z @ alpha)
    for _ in range(200):
        grad = pressure_gradient(system, s) - alpha
        if np.max(np.abs(grad)) < 1e-10:
            return s
        hess = np.empty((system.dim, system.dim))
        h = 1e-4
        for i in range(system.dim):
            e = np.zeros(system.dim)
            e[i] = h
            hess[:, i] = (
                pressure_gradient(system, s + e) - pressure_gradient(system, s - e)
            ) / (2 * h)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad
        base = objective(s)
        scale = 1.0
        for _ in range(60):
            trial = s - scale * step
            if np.max(np.abs(trial)) <= _S_MAX and objective(trial) < base:
                s = trial
                break
            scale *= 0.5
        else:
            # no descent found: either we are at the optimum up to rounding,
            # or alpha saturates the drift range and s runs off to the box
            return s if np.max(np.abs(grad)) < 1e-7 else None
        if np.max(np.abs(s)) >= _S_MAX * 0.999:
            return None
    return None


def walk_spectrum(system: WalkSystem, alpha) -> float:
    """dim of the level set of S_n/n at alpha: (P(s_a) - <s_a, alpha>) / log #A.

    Returns NaN for alpha outside the closure of the drift range.
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


def evolution_log_mass(system: WalkSystem, s, u: Sequence[int]) -> float:
    """log mu_s([u_1..u_n]) for a word over the step set."""
    s = _as_param(system, s)
    data = walk_pressure(system, s)
    t, logp = data.t, data.pressure
    steps = set(system.steps)
    w = 0
    total = 0.0
    for k, a in enumerate(u):
        if a not in steps:
            raise ValidationError(f"symbol {a} is not a step of the system")
        w_next = (w + a) % system.p
        if k == 0:
            denom = sum(t[b % system.p] for b in system.steps)
            total += math.log(t[w_next] / denom)
        else:
            drive = float(s @ system.orbit[w_next])
            total += math.log(t[w_next]) + drive - logp - math.log(t[w])
        w = w_next
    return total


def evolution_measure_mass(system: WalkSystem, s, u: Sequence[int]) -> float:
    """Cylinder mass mu_s([u]) = pi(u_1) * prod Q_k."""
    if len(u) == 0:
        return 1.0
    return math.exp(evolution_log_mass(system, s, u))


def evolution_bound(system: WalkSystem, s) -> float:
    """Uniform bound on |log mu_s([x_1..x_n]) - <s, S_n(x)> + n P(s)|.

    From the exact identity, the defect equals
    P(s) - <s, tau^{w_1} v> - log sum_a t_a + log t_{w_n}; the bound is the
    maximum of its absolute value over admissible first/last residues.
    """
    s = _as_param(system, s)
    data = walk_pressure(system, s)
    t, logp = data.t, data.pressure
    denom = math.log(sum(t[b % system.p] for b in system.steps))
    drives = system.orbit @ s
    first = [(a % system.p) for a in system.steps]
    worst = 0.0
    for w1 in first:
        for wn in range(system.p):
            value = logp - float(drives[w1]) - denom + math.log(t[wn])
            worst = max(worst, abs(value))
    return worst


def sample_paths(system: WalkSystem, s, n: int, paths: int, seed: int) -> np.ndarray:
    """Draw `paths` words of length n from mu_s, shape (paths, n), reproducibly."""
    if n < 1 or paths < 1:
        raise ValidationError("n and paths must be >= 1")
    s = _as_param(system, s)
    data = walk_pressure(system, s)
    t = data.t
    lam = data.lam_true
    steps = np.array(system.steps)
    drives = np.exp(system.orbit @ s)
    # per-residue step laws Q(w -> w + a)
    kernel = np.empty((system.p, len(steps)))
    for w in range(system.p):
        nxt = (w + steps) % system.p
        kernel[w] = t[nxt] * drives[nxt] / (lam * t[w])
    kernel /= kernel.sum(axis=1, keepdims=True)  # exact identity up to rounding
    first_res = steps % system.p
    pi = t[first_res] / t[first_res].sum()
    rng = np.random.Generator(np.random.Philox(seed))
    out = np.empty((paths, n), dtype=np.int64)
    u = rng.random((paths, n))
    choice = (u[:, 0][:, None] > np.cumsum(pi)[None, :]).sum(axis=1)
    out[:, 0] = steps[choice]
    w = first_res[choice]
    cumk = np.cumsum(kernel, axis=1)
    for k in range(1, n):
        rows = cumk[w]
        choice = (u[:, k][:, None] > rows).sum(axis=1)
        np.clip(choice, 0, len(steps) - 1, out=choice)
        out[:, k] = steps[choice]
        w = (w + out[:, k]) % system.p
    return out


def trajectory(system: WalkSystem, x: Sequence[int], n: int | None = None) -> np.ndarray:
    """Partial sums S_1..S_n of tau^(x_1+...+x_k) v, shape (n, D)."""
    if n is None:
        n = len(x)
    if n > len(x):
        raise ValidationError(f"need {n} symbols, got {len(x)}")
    steps = set(system.steps)
    w = 0
    out = np.empty((n, system.dim))
    acc = np.zeros(system.dim)
    for k in range(n):
        a = int(x[k])
        if a not in steps:
            raise ValidationError(f"symbol {a} is not a step of the system")
        w = (w + a) % system.p
        acc = acc + system.orbit[w]
        out[k] = acc
    return out


def trajectories_batch(system: WalkSystem, words: np.ndarray) -> np.ndarray:
    """Final points S_n for a batch of words, shape (paths, D)."""
    words = np.asarray(words)
    w = np.cumsum(words, axis=1) % system.p
    return system.orbit[w].sum(axis=1)


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
