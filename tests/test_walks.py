import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifract import riesz, walks
from multifract.errors import ConvergenceError, ValidationError

LOG2 = math.log(2)


class TestWalkSystem:
    def test_case1_shape(self):
        system = walks.case1()
        assert system.p == 2
        assert np.array_equal(system.orbit, [[1.0], [-1.0]])

    def test_case2_orbit(self):
        system = walks.case2()
        assert np.allclose(system.orbit, [[1, 0], [0, 1], [-1, 0], [0, -1]])

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError):
            walks.WalkSystem(p=3, tau=np.array([[-1.0]]), v=np.array([1.0]), steps=(0, 1))

    def test_rejects_non_generating_steps(self):
        with pytest.raises(ValidationError):
            walks.WalkSystem(
                p=4,
                tau=np.array([[0.0, -1.0], [1.0, 0.0]]),
                v=np.array([1.0, 0.0]),
                steps=(0, 2),
            )

    def test_steps_generate_together(self):
        # neither 2 nor 3 generates Z/6 alone, but gcd(6, 2, 3) = 1; gcd(6, 2, 4) = 2
        walks.WalkSystem(p=6, tau=np.array([[-1.0]]), v=np.array([1.0]), steps=(2, 3))
        with pytest.raises(ValidationError, match="do not generate"):
            walks.WalkSystem(p=6, tau=np.array([[-1.0]]), v=np.array([1.0]), steps=(2, 4))

    @pytest.mark.parametrize(
        "tau, v",
        [([[math.nan]], [1.0]), ([[-1.0]], [math.nan]), ([[-1.0]], [math.inf])],
    )
    def test_rejects_non_finite(self, tau, v):
        # NaN >= 1e-10 is false, so a NaN tau passed the tau^p = Id check
        with pytest.raises(ValidationError, match="finite"):
            walks.WalkSystem(p=2, tau=np.array(tau), v=np.array(v), steps=(0, 1))

    @pytest.mark.parametrize("steps", [(0, 1.5), (0.5, 1), (0, math.nan), (0, "1"), (0, None)])
    def test_rejects_non_integer_steps(self, steps):
        # 1.5 was once read as the step 1
        with pytest.raises(ValidationError, match="steps must be integers"):
            walks.WalkSystem(p=2, tau=np.array([[-1.0]]), v=np.array([1.0]), steps=steps)

    def test_from_json_rejects_non_integer_steps(self):
        with pytest.raises(ValidationError, match="steps must be integers"):
            walks.WalkSystem.from_json('{"p": 2, "tau": [[-1]], "v": [1], "A": [0, 1.5]}')
        system = walks.WalkSystem.from_json('{"p": 2, "tau": [[-1]], "v": [1], "A": [0, 1.0]}')
        assert system.steps == (0, 1)

    @pytest.mark.parametrize("p", [2.7, "2", True])
    def test_from_json_rejects_non_integer_order(self, p):
        # int() once read the order 2.7 as 2
        text = json.dumps({"p": p, "tau": [[-1]], "v": [1], "A": [0, 1]})
        with pytest.raises(ValidationError, match=f"p must be an integer, got {p!r}"):
            walks.WalkSystem.from_json(text)

    def test_order3_rotation(self):
        tau = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        system = walks.WalkSystem(p=3, tau=tau, v=np.array([1.0, 0.0, 0.0]), steps=(0, 1))
        assert system.orbit.shape == (3, 3)

    def test_json_round_trip(self):
        system = walks.case2()
        again = walks.WalkSystem.from_json(system.to_json())
        assert again.p == 4
        assert np.array_equal(again.tau, system.tau)
        assert again.steps == system.steps


class TestTransferAndPressure:
    def test_spectral_radius_all_ones(self):
        lam, t = walks.spectral_radius(np.ones((2, 2)))
        assert lam == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(t, 0.5)

    def test_spectral_radius_periodic_matrix(self):
        # power iteration oscillates on this one; the dense eigensolve takes the
        # eigenvalue of largest real part, 1, over its -1
        lam, _ = walks.spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_case1_pressure_closed_form(self):
        system = walks.case1()
        for s in (-3.0, -0.5, 0.0, 1.2, 4.0):
            assert walks.pressure(system, [s]) == pytest.approx(
                math.log(2 * math.cosh(s)), abs=1e-12
            )

    def test_eigen_identity(self):
        system = walks.case2()
        s = [0.4, -0.9]
        data = walks.walk_pressure(system, s)
        m = system.step_mask * np.exp(system.orbit @ s)[None, :]
        assert np.allclose(m @ data.t, math.exp(data.pressure) * data.t, atol=1e-12)

    def test_case1_gradient_is_tanh(self):
        system = walks.case1()
        for s in (-2.0, 0.0, 0.8):
            assert walks.pressure_gradient(system, [s])[0] == pytest.approx(
                math.tanh(s), abs=1e-7
            )

    def test_pressure_convex_along_lines(self):
        system = walks.case2()
        rng = np.random.default_rng(5)
        for _ in range(3):
            u, w = rng.normal(size=2), rng.normal(size=2)
            values = np.array(
                [walks.pressure(system, u * r + w) for r in np.linspace(-2, 2, 41)]
            )
            assert np.min(np.diff(values, 2)) >= -1e-9

    def test_log_domain_stability(self):
        # e^700 is within e^10 of the largest float; P comes from the scaled matrix
        assert walks.pressure(walks.case1(), [700.0]) == pytest.approx(700.0, abs=1e-9)


class TestSpectrum:
    def test_case1_closed_form(self):
        system = walks.case1()
        for a in np.linspace(-0.9, 0.9, 13):
            assert walks.walk_spectrum(system, [float(a)]) == pytest.approx(
                walks.closed_form_case1(float(a)), abs=1e-8
            )

    def test_case2_closed_form(self):
        system = walks.case2()
        for a in (-0.3, 0.0, 0.25):
            for b in (-0.4, 0.1):
                assert walks.walk_spectrum(system, [a, b]) == pytest.approx(
                    walks.closed_form_case2(a, b), abs=1e-8
                )

    def test_peak_is_one(self):
        assert walks.walk_spectrum(walks.case1(), [0.0]) == pytest.approx(1.0, abs=1e-12)
        assert walks.walk_spectrum(walks.case2(), [0.0, 0.0]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_out_of_range_marker(self):
        assert math.isnan(walks.walk_spectrum(walks.case1(), [1.2]))
        assert math.isnan(walks.walk_spectrum(walks.case2(), [0.7, 0.0]))

    def test_closed_form_domains(self):
        with pytest.raises(ValidationError):
            walks.closed_form_case1(1.5)
        with pytest.raises(ValidationError):
            walks.closed_form_case2(0.6, 0.0)
        assert walks.closed_form_case1(1.0) == 0.0
        assert walks.closed_form_case2(0.5, 0.5) == 0.0

    @given(a=st.floats(-0.95, 0.95))
    @settings(max_examples=15, deadline=None)
    def test_spectrum_in_unit_interval(self, a):
        value = walks.walk_spectrum(walks.case1(), [a])
        assert 0.0 <= value <= 1.0 + 1e-12


def rotation3() -> walks.WalkSystem:
    """p = 3, tau the cyclic permutation, v = e_0, steps {0, 1}: S_n/n is the
    vector of residue visit frequencies, so the drift range is the triangle
    sum(alpha) = 1, of dimension 2 in R^3."""
    tau = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return walks.WalkSystem(p=3, tau=tau, v=np.array([1.0, 0.0, 0.0]), steps=(0, 1))


def rotation3_oracle(alpha) -> float:
    """max over 0 < c <= min alpha of sum_w alpha_w H(c / alpha_w) / log 2.

    c n of the alpha_w n visits to residue w take the step 1; the concave
    objective peaks where prod_w (alpha_w - c) = c^3, found by bisection.
    """
    lo, hi = 0.0, min(alpha)
    for _ in range(200):
        c = (lo + hi) / 2
        lo, hi = (c, hi) if math.prod(a - c for a in alpha) > c**3 else (lo, c)
    c = (lo + hi) / 2
    return sum(a * riesz.entropy(c / a) for a in alpha) / LOG2


def count_calls(monkeypatch, name: str) -> list[int]:
    """Patch walks.<name> to count its calls into the returned one-item list."""
    calls = [0]
    function = getattr(walks, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return function(*args, **kwargs)

    monkeypatch.setattr(walks, name, counting)
    return calls


class TestExactCalculus:
    def test_case1_gradient_is_tanh_to_rounding(self):
        system = walks.case1()
        for s in np.linspace(-4, 4, 81):
            got = walks.pressure_gradient(system, [s])[0]
            assert abs(got - math.tanh(s)) <= 2 * np.finfo(float).eps, s

    def test_case1_hessian_is_sech_squared(self):
        system = walks.case1()
        for s in np.linspace(-4, 4, 81):
            _, hess = walks._derivatives(system, [s])
            assert abs(hess[0, 0] - 1 / math.cosh(s) ** 2) <= 1e-15, s

    def test_case2_hessian_is_gradient_difference(self):
        system = walks.case2()
        h = 1e-5
        for s in np.random.default_rng(3).uniform(-3, 3, (8, 2)):
            _, hess = walks._derivatives(system, s)
            for i, e in enumerate(np.eye(2) * h):
                column = (
                    walks.pressure_gradient(system, s + e) - walks.pressure_gradient(system, s - e)
                ) / (2 * h)
                assert np.max(np.abs(hess[:, i] - column)) <= 1e-9

    def test_spectrum_equals_closed_forms(self):
        for a in np.linspace(-0.9, 0.9, 13):
            got = walks.walk_spectrum(walks.case1(), [float(a)])
            assert abs(got - walks.closed_form_case1(float(a))) <= 1e-12
        for a in (-0.3, 0.0, 0.25):
            for b in (-0.4, 0.1):
                got = walks.walk_spectrum(walks.case2(), [a, b])
                assert abs(got - walks.closed_form_case2(a, b)) <= 1e-12

    @pytest.mark.parametrize("v", [0.01, 1000.0])
    def test_spectrum_is_scale_free(self, v):
        # scaling v scales the drift range and leaves the spectrum as it is
        system = walks.WalkSystem(p=2, tau=np.array([[-1.0]]), v=np.array([v]), steps=(0, 1))
        for a in (-0.9, 0.5, 0.999):
            assert walks.walk_spectrum(system, [a * v]) == pytest.approx(
                walks.closed_form_case1(a), abs=1e-9
            )
        assert math.isnan(walks.walk_spectrum(system, [1.2 * v]))

    def test_perron_solves_per_alpha(self, monkeypatch):
        calls = count_calls(monkeypatch, "walk_pressure")
        cases = [(walks.case1(), [float(a)]) for a in np.linspace(-0.95, 0.95, 20)]
        cases += [(walks.case2(), [a, b]) for a in (-0.45, 0.0, 0.3) for b in (-0.2, 0.45)]
        for system, alpha in cases:
            calls[0] = 0
            walks.walk_spectrum(system, alpha)
            assert calls[0] <= 10, (alpha, calls[0])

    def test_one_eigensolve_per_pressure(self, monkeypatch):
        calls = count_calls(monkeypatch, "spectral_radius")
        walks.walk_pressure(walks.case2(), [0.3, -0.7])
        assert calls[0] == 1


class TestLowerDimensionalDrift:
    @pytest.mark.parametrize("alpha", [(0.4, 0.3, 0.3), (0.5, 0.3, 0.2)])
    def test_interior_matches_oracle(self, alpha):
        assert walks.walk_spectrum(rotation3(), list(alpha)) == pytest.approx(
            rotation3_oracle(alpha), abs=1e-9
        )

    def test_off_affine_hull_is_nan(self):
        assert math.isnan(walks.walk_spectrum(rotation3(), [0.5, 0.3, 0.3]))

    def test_hull_boundary_returns_nan(self, monkeypatch):
        # the walk leaves each residue about as often as it goes round the
        # cycle, so alpha_2 = 0 allows only o(n) steps 1: the level set has
        # dimension 0, approached only as s runs out to the _S_MAX box, and
        # the solver reports NaN
        calls = count_calls(monkeypatch, "walk_pressure")
        assert math.isnan(walks.walk_spectrum(rotation3(), [0.5, 0.5, 0.0]))
        assert calls[0] <= 200


def parity18() -> walks.WalkSystem:
    """p = 18, tau = -1, steps 0 and the nine odd residues.

    Residue parity lumps M_s onto [[e^s, 9 e^-s], [9 e^s, e^-s]], so
    P(s) = log(cosh s + sqrt(cosh^2 s + 80)): a sigmoid gradient on (-1, 1)
    with P''(0) = 1/9 and its steepest point away from s = 0.
    """
    return walks.WalkSystem(
        p=18, tau=np.array([[-1.0]]), v=np.array([1.0]), steps=(0, *range(1, 18, 2))
    )


def parity18_oracle(alpha: float) -> float:
    """(P(s) - s alpha) / log 10 at the root of the lumped P'(s) = alpha, by bisection."""

    def slope(s):
        c, r = math.cosh(s), math.sqrt(math.cosh(s) ** 2 + 80)
        return math.sinh(s) * (1 + c / r) / (c + r)

    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if slope(mid) < alpha else (lo, mid)
    s = (lo + hi) / 2
    c = math.cosh(s)
    return (math.log(c + math.sqrt(c * c + 80)) - s * alpha) / math.log(10)


class TestSigmoidGradient:
    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.7, -0.6])
    def test_matches_lumped_oracle(self, alpha, monkeypatch):
        # undamped Newton from 0 steps to the cap 4 and back to 0 for ever at
        # alpha = 0.5; the residual test halves the way back instead
        calls = count_calls(monkeypatch, "walk_pressure")
        got = walks.walk_spectrum(parity18(), [alpha])
        assert got == pytest.approx(parity18_oracle(alpha), abs=1e-12)
        assert calls[0] <= 12

    @pytest.mark.parametrize("alpha", [1.1, -1.5])
    def test_outside_range_is_nan(self, alpha):
        # far out the Perron chain is reducible to rounding; that too is NaN
        assert math.isnan(walks.walk_spectrum(parity18(), [alpha]))

    @pytest.mark.parametrize("s", [50.0, 60.0])
    def test_lost_perron_vector_fails_fast(self, s):
        # the odd residues' share of t falls below rounding from s = 20 on,
        # where the gradient read NaN (s = 50) or 0.99999928 (s = 60)
        with pytest.raises(ConvergenceError, match=f"s=\\[{s}\\]"):
            walks.pressure_gradient(parity18(), [s])


class TestEvolutionMeasure:
    def test_zero_parameter_is_uniform(self):
        system = walks.case1()
        assert walks.evolution_measure_mass(system, [0.0], [0, 1, 1, 0]) == pytest.approx(
            2.0**-4, abs=1e-15
        )

    def test_total_mass(self):
        import itertools

        for system, s in [(walks.case1(), [0.9]), (walks.case2(), [0.3, -0.5])]:
            total = sum(
                walks.evolution_measure_mass(system, s, u)
                for u in itertools.product(system.steps, repeat=7)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_extension_consistency(self):
        system = walks.case2()
        s = [0.2, 0.6]
        u = (1, -1, 1, 1)
        children = sum(
            walks.evolution_measure_mass(system, s, u + (a,)) for a in system.steps
        )
        assert walks.evolution_measure_mass(system, s, u) == pytest.approx(
            children, rel=1e-12
        )

    def test_log_mass_identity_bound(self):
        # |log mu([u]) - <s, S_n> + n P(s)| <= C(s) along sampled paths
        for system, s in [(walks.case1(), [0.8]), (walks.case2(), [0.5, -0.2])]:
            s_arr = np.asarray(s)
            bound = walks.evolution_bound(system, s)
            logp = walks.pressure(system, s)
            paths = walks.sample_paths(system, s, n=300, paths=20, seed=7)
            for row in paths:
                for n in (1, 30, 300):
                    u = row[:n]
                    defect = (
                        walks.evolution_log_mass(system, s, u)
                        - float(s_arr @ walks.trajectory(system, u)[-1])
                        + n * logp
                    )
                    assert abs(defect) <= bound + 1e-9

    @pytest.mark.parametrize("name, s", [("case1", [0.8]), ("case2", [0.5, -0.2])])
    def test_source_masses_are_the_evolution_masses(self, name, s):
        system = getattr(walks, name)()
        source = walks.evolution_measure(system, s)
        rng = np.random.default_rng(4)
        for n in (1, 2, 7, 40):
            word = rng.integers(0, len(system.steps), n)
            want = walks.evolution_measure_mass(system, s, np.array(system.steps)[word])
            assert source.word_mass(word) == pytest.approx(want, rel=1e-12)

    def test_sampled_drift(self):
        system = walks.case1()
        s = [0.6]
        paths = walks.sample_paths(system, s, n=50_000, paths=50, seed=2)
        drift = walks.trajectory(system, paths)[:, -1, 0] / 50_000
        target = walks.pressure_gradient(system, s)[0]
        assert float(np.median(np.abs(drift - target))) < 0.02

    def test_sampling_reproducible(self):
        system = walks.case2()
        a = walks.sample_paths(system, [0.1, 0.2], 100, 5, seed=8)
        b = walks.sample_paths(system, [0.1, 0.2], 100, 5, seed=8)
        assert np.array_equal(a, b)


class TestTrajectory:
    def test_case1_constant_zeros(self):
        traj = walks.trajectory(walks.case1(), [0] * 6)
        assert np.array_equal(traj[:, 0], np.arange(1, 7))

    def test_case1_alternating(self):
        traj = walks.trajectory(walks.case1(), [1] * 6)
        assert set(traj[:, 0]) <= {-1.0, 0.0}

    def test_case2_full_rotation(self):
        traj = walks.trajectory(walks.case2(), [1, 1, 1, 1])
        assert np.allclose(traj[-1], [0.0, 0.0])

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValidationError):
            walks.trajectory(walks.case1(), [0, 2])
        with pytest.raises(ValidationError, match="symbol 2 "):
            walks.trajectory(walks.case2(), [[1, -1], [1, 2]])

    def test_rejects_non_integer_symbols(self):
        # 1.7 was once read as the step 1
        with pytest.raises(ValidationError, match="symbol 1.7 "):
            walks.trajectory(walks.case1(), [0, 1.7])
        with pytest.raises(ValidationError, match="symbol 1.7 "):
            walks.evolution_log_mass(walks.case1(), [0.3], [0, 1.7])

    def test_stack_is_each_word(self):
        words = walks.sample_paths(walks.case2(), [0.3, -0.1], n=60, paths=4, seed=5)
        stack = walks.trajectory(walks.case2(), words, 40)
        assert stack.shape == (4, 40, 2)
        for row, word in zip(stack, words):
            assert np.array_equal(row, walks.trajectory(walks.case2(), word[:40]))


class TestFeller:
    def test_angle_pi(self):
        for n in range(1, 9):
            assert walks.feller_second_moment(math.pi, n) == pytest.approx(
                (1 - (-1) ** n) / 2, abs=1e-10
            )

    def test_right_angle(self):
        assert walks.feller_second_moment(math.pi / 2, 100) == pytest.approx(100, abs=1e-9)

    def test_direct_sum_oracle(self):
        # E L_n^2 = sum_{j,k} (cos angle)^{|j-k|}
        angle, n = 1.1, 25
        c = math.cos(angle)
        want = sum(c ** abs(j - k) for j in range(n) for k in range(n))
        assert walks.feller_second_moment(angle, n) == pytest.approx(want, rel=1e-12)

    def test_monte_carlo(self):
        n, trials = 100, 200_000
        got = walks.feller_monte_carlo(math.pi / 2, n, trials, seed=13)
        # L_n^2 has variance ~2n^2 here; 3 sigma of the MC mean
        assert abs(got - n) < 3 * math.sqrt(2.0) * n / math.sqrt(trials)

    def test_rejects_zero_angle(self):
        with pytest.raises(ValidationError):
            walks.feller_second_moment(0.0, 5)
