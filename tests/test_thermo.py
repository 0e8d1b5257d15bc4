import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multifract import thermo
from multifract.errors import ConvergenceError, ValidationError

LOG2 = math.log(2)


def entropy(t):
    if t in (0.0, 1.0):
        return 0.0
    return -t * math.log(t) - (1 - t) * math.log(1 - t)


def seeded_table() -> thermo.Potential:
    """The random three-letter depth-three table whose P' has not saturated at s = 40."""
    return thermo.Potential(m=3, q=2, d=3, table=np.random.default_rng(3).uniform(-1, 1, (3, 3, 3)))


def mp_pressure(phi: thermo.Potential, s) -> mpmath.mpf:
    """P(s) to some 55 digits: psi^q = W psi iterated in 60-digit arithmetic from psi = 1.

    The plain operator, with neither centering nor ground state, carried up
    the levels by psi_k(u) = (sum_j psi_{k+1}(uj))^(1/q).
    """
    m, q, d = phi.m, phi.q, phi.d
    n = m ** (d - 1)
    with mpmath.workdps(60):
        rows = phi.table.reshape(n, m)
        weights = [[mpmath.exp(s * mpmath.mpf(float(v))) for v in row] for row in rows]
        child = [[u % m ** (d - 2) * m + j for j in range(m)] for u in range(n)]
        psi = [mpmath.mpf(1)] * n
        while True:
            image = [
                mpmath.root(mpmath.fsum(w * psi[c] for w, c in zip(weights[u], child[u])), q)
                for u in range(n)
            ]
            change = max(abs(a / b - 1) for a, b in zip(image, psi))
            psi = image
            if change < mpmath.mpf(10) ** -57:
                break
        for k in range(d - 2, 0, -1):
            psi = [mpmath.root(mpmath.fsum(psi[u * m : (u + 1) * m]), q) for u in range(m**k)]
        return (q - 1) * q ** (d - 2) * mpmath.log(mpmath.fsum(psi))


class TestPotential:
    def test_rademacher_values(self):
        phi = thermo.rademacher_potential(2, 2)
        assert phi.table[0, 0] == 1.0
        assert phi.table[0, 1] == -1.0
        assert phi.table[1, 1] == 1.0

    def test_indicator_values(self):
        phi = thermo.indicator_potential(2, 3)
        assert phi.table[1, 1, 1] == 1.0
        assert phi.table.sum() == 1.0

    def test_json_round_trip(self):
        phi = thermo.indicator_potential(2, 2)
        again = thermo.Potential.from_json(phi.to_json())
        assert np.array_equal(again.table, phi.table)
        assert (again.m, again.q, again.d) == (phi.m, phi.q, phi.d)

    def test_table_is_a_read_only_copy(self):
        # the operator data are made once per potential, so the table cannot change
        values = np.zeros((2, 2))
        phi = thermo.Potential(m=2, q=2, d=2, table=values)
        values[0, 0] = 5.0
        assert phi.table[0, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            phi.table[0, 0] = 1.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            thermo.Potential.from_values(2, 2, 2, np.zeros((2, 3)))


class TestPressure:
    def test_value_at_zero(self):
        # with no tilt the operator counts symbols: P(0) = q^{d-1} log m
        for q, d in [(2, 2), (2, 3), (3, 2)]:
            phi = thermo.rademacher_potential(q, d)
            assert thermo.pressure(phi, 0.0) == pytest.approx(
                q ** (d - 1) * math.log(2), abs=1e-12
            )

    def test_case_d2_closed_form(self):
        # independent closed form: P(s) = log(2 cosh s) + log 2 for the
        # two-letter product-of-signs potential at depth two, so P'(s) = tanh s
        phi = thermo.rademacher_potential(2, 2)
        for s in (-2.0, -0.5, 0.0, 1.0, 3.0):
            want = math.log(2 * math.cosh(s)) + LOG2
            assert thermo.pressure(phi, s) == pytest.approx(want, abs=1e-12)
            assert thermo.pressure_derivative(phi, s) == pytest.approx(math.tanh(s), abs=1e-13)

    def test_shift_covariance(self):
        phi = thermo.indicator_potential(2, 2)
        shifted = thermo.Potential.from_values(2, 2, 2, phi.table + 0.7)
        for s in (-1.5, 0.4, 2.0):
            assert thermo.pressure(shifted, s) == pytest.approx(
                thermo.pressure(phi, s) + 0.7 * s, abs=1e-10
            )

    def test_derivative_matches_secant(self):
        phi = thermo.indicator_potential(2, 2)
        h = 1e-6
        for s in (-1.0, 0.3, 2.0):
            secant = (thermo.pressure(phi, s + h) - thermo.pressure(phi, s - h)) / (2 * h)
            assert thermo.pressure_derivative(phi, s) == pytest.approx(secant, abs=1e-7)

    def test_second_derivative_closed_form(self):
        # P'(s) = tanh s on the depth-two product of signs, so P''(s) = sech^2 s
        phi = thermo.rademacher_potential(2, 2)
        for s in (-3.0, -0.7, 0.0, 0.4, 2.5):
            curvature = thermo.pressure_second_derivative(phi, thermo.solve_psi(phi, s))
            assert curvature == pytest.approx(1.0 / math.cosh(s) ** 2, abs=1e-13)

    @pytest.mark.parametrize("s", [-40.0, -10.0, 10.0, 40.0])
    def test_closed_form_to_fifty_digits(self, s):
        # log(2 cosh s) + log 2, tanh s and sech^2 s in 50-digit arithmetic; the
        # unnormalised operator made P''(+/-40) 3.2e-28 against 7.2e-35
        phi = thermo.rademacher_potential(2, 2)
        sol = thermo.solve_psi(phi, s)
        with mpmath.workdps(50):
            x = mpmath.mpf(s)
            assert sol.pressure == pytest.approx(float(mpmath.log(4 * mpmath.cosh(x))), rel=1e-12)
            assert sol.derivative == pytest.approx(float(mpmath.tanh(x)), rel=1e-12)
            curvature = float(mpmath.sech(x) ** 2)
        assert thermo.pressure_second_derivative(phi, sol) == pytest.approx(
            curvature, rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("s", [-300.0, 10.0, 40.0, 300.0])
    def test_random_table_to_fifty_digits(self, s):
        # P from the 50-digit iteration, P' and P'' as its central differences
        # with step 1e-15, whose truncation and rounding are below 1e-20
        phi = seeded_table()
        sol = thermo.solve_psi(phi, s)
        with mpmath.workdps(60):
            h, x = mpmath.mpf(10) ** -15, mpmath.mpf(s)
            left, mid, right = (mp_pressure(phi, x + e) for e in (-h, 0, h))
            slope, curvature = (right - left) / (2 * h), (right - 2 * mid + left) / h**2
        assert sol.pressure == pytest.approx(float(mid), rel=1e-12)
        assert sol.derivative == pytest.approx(float(slope), rel=1e-12)
        flat = thermo.pressure_second_derivative(phi, thermo.solve_psi(phi, 0.0))
        assert thermo.pressure_second_derivative(phi, sol) == pytest.approx(
            float(curvature), abs=1e-12 * flat
        )

    def test_far_parameters_are_finite(self):
        # the weights exp(|s| gap) lie in [0, 1], so no s overflows, and P'
        # reaches the ends of level_domain
        phi = seeded_table()
        lo, hi = thermo.level_domain(phi)
        for s in (-1e5, -2000.0, 2000.0, 1e5):
            sol = thermo.solve_psi(phi, s)
            assert math.isfinite(sol.pressure)
            assert sol.derivative == pytest.approx(hi if s > 0 else lo, abs=1e-12)

    def test_second_derivative_matches_central_difference(self):
        # central difference of the exact P' on a random three-letter depth-three table
        rng = np.random.default_rng(20141)
        phi = thermo.Potential(m=3, q=2, d=3, table=rng.uniform(-1.0, 1.0, (3, 3, 3)))
        h = 1e-5
        for s in (-2.0, -0.3, 0.8, 2.6):
            central = (
                thermo.pressure_derivative(phi, s + h) - thermo.pressure_derivative(phi, s - h)
            ) / (2 * h)
            curvature = thermo.pressure_second_derivative(phi, thermo.solve_psi(phi, s))
            assert curvature == pytest.approx(central, abs=1e-7)

    def test_convexity(self):
        grid = np.linspace(-6, 6, 121)
        for phi in (thermo.indicator_potential(2, 2), thermo.rademacher_potential(2, 3)):
            values = np.array([thermo.pressure(phi, float(s)) for s in grid])
            assert thermo.convexity_defect(values) >= -1e-9

    def test_overflow_fails_fast(self):
        # range 150: exp(s * (phi - 25)) overflows once 75 |s| > 709, but the
        # ground-state weights lie in [0, 1] at every s, so the query solves,
        # and numpy warns of nothing
        phi = thermo.Potential.from_values(2, 2, 2, [[0.0, 100.0], [3.0, -50.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = thermo.legendre_spectrum(phi, 1.0)
        assert 0.0 <= value <= 1.0

    def test_convergence_error_names_parameter(self):
        # a stacked solve reports which s failed, and the automaton solvers,
        # which have no parameter, leave it None
        weights = np.vstack([np.ones((2, 2)), np.full((2, 2), np.inf)])
        child, s = np.array([[0, 1], [0, 1]]), np.array([0.5, 7.0])
        with pytest.raises(ConvergenceError, match="s=") as info:
            thermo.fixed_point(weights, child, 2, s)
        assert info.value.parameter == 7.0
        assert "at s=7.0 " in str(info.value)
        weights, child = np.full((2, 2), np.inf), np.array([[0, 1], [0, 1]])
        with pytest.raises(ConvergenceError, match="on the states") as info:
            thermo.fixed_point(weights, child, 2, "on the states")
        assert info.value.parameter is None

    def test_non_finite_s_rejected(self):
        phi = thermo.indicator_potential(2, 2)
        with pytest.raises(ValidationError, match="finite"):
            thermo.solve_psi(phi, math.inf)
        with pytest.raises(ValidationError, match="finite"):
            thermo.pressure_curve(phi, [0.0, math.nan])

    def test_derivative_accepts_arrays(self):
        phi = thermo.rademacher_potential(2, 2)
        s = np.array([-1.0, 0.5, 2.0, 0.0])
        got = thermo.pressure_derivative(phi, s)
        assert got.shape == s.shape
        one_by_one = [thermo.pressure_derivative(phi, float(x)) for x in s]
        assert got.tolist() == pytest.approx(one_by_one, abs=4.4e-16)
        assert isinstance(thermo.pressure_derivative(phi, 0.5), float)

    @given(s=st.floats(-5, 5))
    @settings(max_examples=20, deadline=None)
    def test_fixed_point_residual(self, s):
        phi = thermo.indicator_potential(2, 2)
        sol = thermo.solve_psi(phi, s)
        assert thermo.operator_residual(phi, sol) < 1e-12


class TestSpectrum:
    def test_depth_one_tables_rejected(self):
        # the formalism starts at depth two; single-coordinate averages are
        # the classical digit-frequency setting, handled elsewhere
        with pytest.raises(ValidationError):
            thermo.indicator_potential(2, 1)

    def test_closed_form_depth_two(self):
        phi = thermo.rademacher_potential(2, 2)
        for a in np.linspace(-0.9, 0.9, 19):
            want = 0.5 + entropy((1 + a) / 2) / (2 * LOG2)
            assert thermo.legendre_spectrum(phi, float(a)) == pytest.approx(want, abs=1e-9)

    def test_peak_location(self):
        # the full-measure level of the product-of-digits average is 1/4
        phi = thermo.indicator_potential(2, 2)
        assert thermo.pressure_derivative(phi, 0.0) == pytest.approx(0.25, abs=1e-9)
        assert thermo.legendre_spectrum(phi, 0.25) == pytest.approx(1.0, abs=1e-10)

    def test_out_of_domain_marker(self):
        phi = thermo.rademacher_potential(2, 2)
        assert math.isnan(thermo.legendre_spectrum(phi, 1.5))
        assert math.isnan(thermo.legendre_spectrum(phi, -1.0001))

    def test_constant_potential(self):
        phi = thermo.Potential.from_values(2, 2, 2, np.full((2, 2), 0.3))
        assert thermo.legendre_spectrum(phi, 0.3) == 1.0
        assert math.isnan(thermo.legendre_spectrum(phi, 0.4))

    def test_ruelle_duality(self):
        for phi in (thermo.indicator_potential(2, 2), thermo.rademacher_potential(2, 2)):
            for s in (-2.0, 0.0, 1.3):
                alpha = thermo.pressure_derivative(phi, s)
                assert thermo.ruelle_dimension(phi, s) == pytest.approx(
                    thermo.legendre_spectrum(phi, alpha), abs=1e-9
                )

    @pytest.mark.parametrize("q, d", [(2, 2), (2, 3), (3, 2)])
    def test_solves_per_level(self, monkeypatch, q, d):
        # damped Newton from s = 0 on the exact P'', with every Newton trial,
        # the closing P' check and the final pressure counted as kernel calls;
        # level_domain reads the ground states and makes none
        solves = 0
        fixed_point = thermo.fixed_point

        def counting(*args, **kwargs):
            nonlocal solves
            solves += 1
            return fixed_point(*args, **kwargs)

        monkeypatch.setattr(thermo, "fixed_point", counting)
        phi = thermo.rademacher_potential(q, d)
        for alpha in (-0.9, -0.3, 0.2, 0.95):
            solves = 0
            thermo.legendre_spectrum(phi, alpha)
            assert solves <= 9, (alpha, solves)

    @given(
        m=st.sampled_from([2, 3]),
        q=st.sampled_from([2, 3]),
        d=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
        s=st.floats(-3, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_legendre_ruelle_duality_random_tables(self, m, q, d, seed, s):
        # asymmetric P' curves are where a Newton step can leave the bracket
        table = np.random.default_rng(seed).uniform(-1.0, 1.0, (m,) * d)
        phi = thermo.Potential(m=m, q=q, d=d, table=table)
        sol = thermo.solve_psi(phi, s)
        assert thermo.pressure_second_derivative(phi, sol) >= 0.0
        assert thermo.legendre_spectrum(phi, sol.derivative) == pytest.approx(
            thermo.ruelle_dimension(phi, s), abs=1e-8
        )

    @given(
        m=st.sampled_from([2, 3]),
        q=st.sampled_from([2, 3]),
        d=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    @example(m=2, q=3, d=3, seed=34)  # both ends round 1 ulp past the hard bounds
    def test_exact_domain_random_tables(self, m, q, d, seed):
        # the ends of level_domain are the limits of P', inside the hard
        # bounds; the spectrum is NaN just past them and in [0, 1] up to them
        table = np.random.default_rng(seed).uniform(-1.0, 1.0, (m,) * d)
        phi = thermo.Potential(m=m, q=q, d=d, table=table)
        lo, hi = thermo.level_domain(phi)
        far = thermo.pressure_derivative(phi, np.array([-40.0, 40.0]))
        assert phi.alpha_min <= lo <= far[0] < far[1] <= hi <= phi.alpha_max
        for alpha in lo + (hi - lo) * np.array([0.05, 0.3, 0.5, 0.7, 0.95]):
            assert 0.0 <= thermo.legendre_spectrum(phi, float(alpha)) <= 1.0 + 1e-12
        unit = 0.5 * (phi.alpha_max - phi.alpha_min)
        assert math.isnan(thermo.legendre_spectrum(phi, hi + 1e-9 * unit))
        assert math.isnan(thermo.legendre_spectrum(phi, lo - 1e-9 * unit))
        for alpha in (lo, hi):
            assert 0.0 <= thermo.legendre_spectrum(phi, alpha) <= 1.0

    @pytest.mark.parametrize(
        "phi, want",
        [
            (thermo.rademacher_potential(2, 2), (0.5, 0.5)),
            (thermo.rademacher_potential(2, 3), (0.75, 0.75)),
            (thermo.rademacher_potential(3, 3), (8 / 9, 8 / 9)),
            (thermo.indicator_potential(2, 3), (None, 0.0)),
            (seeded_table(), (0.0, 0.0)),
        ],
    )
    def test_end_values(self, phi, want):
        # the solve on the argmax edges, against the Ruelle dimension far out
        for s, alpha, value in zip((-2000.0, 2000.0), thermo.level_domain(phi), want):
            end = thermo.legendre_spectrum(phi, alpha)
            assert end == pytest.approx(thermo.ruelle_dimension(phi, s), abs=1e-9)
            if value is not None:
                assert end == pytest.approx(value, abs=1e-12)

    def test_end_values_with_rounded_ties(self):
        # phi(1-a, 1-b, 1-c) = phi(a, b, c), so sibling words tie in the ground
        # state up to the rounding of its linear solves; the ends count those
        # as ties, as the Ruelle dimension far out does
        values = [0.3710839689613894, 0.3009185525356326, 0.37689346114188016, -0.22215715204179243]
        phi = thermo.Potential(m=2, q=3, d=3, table=np.reshape(values + values[::-1], (2, 2, 2)))
        for s, alpha in zip((-1e5, 1e5), thermo.level_domain(phi)):
            assert thermo.legendre_spectrum(phi, alpha) == pytest.approx(
                thermo.ruelle_dimension(phi, s), abs=1e-9
            )

    def test_spectrum_within_unit_interval(self):
        phi = thermo.indicator_potential(2, 2)
        for a in np.linspace(0.01, 0.99, 25):
            value = thermo.legendre_spectrum(phi, float(a))
            assert 0.0 <= value <= 1.0 + 1e-12


def count_fixed_points(monkeypatch) -> list[int]:
    """Patch thermo.fixed_point to count its calls into the returned one-item list."""
    calls = [0]
    fixed_point = thermo.fixed_point

    def counting(*args, **kwargs):
        calls[0] += 1
        return fixed_point(*args, **kwargs)

    monkeypatch.setattr(thermo, "fixed_point", counting)
    return calls


class TestNewtonSlope:
    @staticmethod
    def parity18_derivatives(s):
        # the lumped P(s) = log(cosh s + sqrt(cosh^2 s + 80)) of the p = 18
        # parity walk: P' = sinh s / r and P'' = 81 cosh s / r^3, r = sqrt(cosh^2 s + 80)
        c = math.cosh(s[0])
        r = math.sqrt(c * c + 80)
        return np.array([math.sinh(s[0]) / r]), np.array([[81 * c / r**3]])

    @pytest.mark.parametrize("alpha", [0.5, 0.7, -0.6])
    def test_sigmoid_gradient(self, alpha):
        s = thermo.newton_slope(self.parity18_derivatives, np.array([alpha]), 1.0, 60.0)
        assert abs(self.parity18_derivatives(s)[0][0] - alpha) < 1e-10

    def test_saturated_gradient_leaves_the_box(self):
        assert thermo.newton_slope(self.parity18_derivatives, np.array([1.1]), 1.0, 60.0) is None

    @pytest.mark.parametrize("alpha", [1.5, -1.0001])
    def test_slope_outside_range_is_none(self, alpha):
        assert thermo.solve_pressure_slope(thermo.rademacher_potential(2, 2), alpha) is None

    def test_deep_saturation_in_few_solves(self, monkeypatch):
        # the step cap grows with |s|, so s = 35 is reached geometrically
        table = 6 * np.random.default_rng(3).uniform(-1.0, 1.0, (3, 3, 3))
        phi = thermo.Potential(m=3, q=2, d=3, table=table)
        alpha = thermo.pressure_derivative(phi, 35.0)
        calls = count_fixed_points(monkeypatch)
        s = thermo.solve_pressure_slope(phi, alpha)
        assert s == pytest.approx(35.0, abs=1e-6)
        assert calls[0] <= 25

    @pytest.mark.parametrize("s", [-3.0, -1.0, 0.5, 2.5])
    def test_solves_per_level_random_table(self, monkeypatch, s):
        table = np.random.default_rng(20141).uniform(-1.0, 1.0, (3, 3, 3))
        phi = thermo.Potential(m=3, q=2, d=3, table=table)
        alpha = thermo.pressure_derivative(phi, s)
        calls = count_fixed_points(monkeypatch)
        value = thermo.legendre_spectrum(phi, alpha)
        assert calls[0] <= 10
        assert value == pytest.approx(thermo.ruelle_dimension(phi, s), abs=1e-12)

    def test_negative_horizon_bound_is_nan(self, monkeypatch):
        # P' still rises at s = 40 on this table: its levels run on to the exact
        # limits of P', and past them, as at 0.7, 0.71, 0.7173 and -0.8616, no
        # level set exists
        table = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 3, 3))
        phi = thermo.Potential(m=3, q=2, d=3, table=table)
        calls = count_fixed_points(monkeypatch)
        lo, hi = thermo.level_domain(phi)
        assert calls[0] == 0
        assert lo == pytest.approx(-0.8287016657127513, abs=1e-13)
        assert hi == pytest.approx(0.6986466686661265, abs=1e-13)
        for alpha in (0.7, 0.71, 0.7173, 0.75, phi.alpha_max, -0.8616, -0.8617, phi.alpha_min):
            assert math.isnan(thermo.legendre_spectrum(phi, alpha)), alpha
        # min over s in [0, 450] of (P(s) - 0.69 s) / norm is 0.19633...
        assert 0.0 < thermo.legendre_spectrum(phi, 0.69) <= 0.1964

    def test_horizon_ends_are_the_horizon_values(self):
        # the ends of level_domain read the s -> +/-inf limit of the Ruelle
        # dimension, the solve on the argmax edges: 0 on this table
        table = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 3, 3))
        phi = thermo.Potential(m=3, q=2, d=3, table=table)
        for s, alpha in zip((-2000.0, 2000.0), thermo.level_domain(phi)):
            value = thermo.legendre_spectrum(phi, alpha)
            assert value == pytest.approx(thermo.ruelle_dimension(phi, s), abs=1e-9)
            assert value == pytest.approx(0.0, abs=1e-12)


class TestMarkovMeasure:
    def test_rows_are_stochastic(self):
        phi = thermo.indicator_potential(2, 2)
        spec = thermo.markov_measure(phi, 0.8)
        assert spec.kernel.sum(axis=1) == pytest.approx(np.ones(2), abs=1e-12)
        assert spec.initial.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_tilt_is_uniform(self):
        phi = thermo.rademacher_potential(2, 2)
        spec = thermo.markov_measure(phi, 0.0)
        assert np.allclose(spec.kernel, 0.5)
        assert np.allclose(spec.initial, 0.5)

    def test_centering_invariance(self):
        phi = thermo.indicator_potential(2, 2)
        shifted = thermo.Potential.from_values(2, 2, 2, phi.table - 0.4)
        a = thermo.markov_measure(phi, 1.1)
        b = thermo.markov_measure(shifted, 1.1)
        assert np.allclose(a.kernel, b.kernel, atol=1e-12)
        assert np.allclose(a.initial, b.initial, atol=1e-12)


class TestCurve:
    @given(
        m=st.sampled_from([2, 3]),
        q=st.sampled_from([2, 3]),
        d=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
        grid=st.lists(st.floats(-8, 8), min_size=1, max_size=12).flatmap(
            lambda xs: st.permutations(xs + xs[: len(xs) // 2])
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_matches_one_solve_per_s(self, m, q, d, seed, grid):
        # the oracle is the one-s solve: every row of the batched kernel must
        # end on the same iteration with the same bits, whatever the grid order
        table = np.random.default_rng(seed).uniform(-1.0, 1.0, (m,) * d)
        phi = thermo.Potential(m=m, q=q, d=d, table=table)
        calls = []
        fixed_point = thermo.fixed_point

        def recording(*args, **kwargs):
            calls.append(fixed_point(*args, **kwargs))
            return calls[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thermo, "fixed_point", recording)
            curve = thermo.pressure_curve(phi, grid)
        assert len(calls) == 1
        sols = [thermo.solve_psi(phi, s) for s in grid]
        assert curve.P.tolist() == [sol.pressure for sol in sols]
        for got, sol in zip(curve.dP, sols):
            assert abs(got - sol.derivative) <= 4.4e-16 * max(1.0, abs(sol.derivative))
        assert calls[0][2].tolist() == [sol.iterations for sol in sols]

    def test_curve_rows(self):
        phi = thermo.rademacher_potential(2, 2)
        curve = thermo.pressure_curve(phi, np.linspace(-2, 2, 5))
        rows = list(curve.rows())
        assert len(rows) == 5
        s, p, dp, alpha, dim = rows[2]
        assert s == 0.0
        assert dim == pytest.approx(1.0, abs=1e-9)

    def test_empty_grid(self):
        curve = thermo.pressure_curve(thermo.rademacher_potential(2, 3), [])
        assert curve.P.shape == curve.dP.shape == (0,)
        assert list(curve.rows()) == []

    def test_long_grid_memory_is_bounded(self):
        # n = 128 codes: one solve over all 401 s would stack 401 tangent
        # matrices of 128 KB each, over 100 MB at peak
        phi = thermo.rademacher_potential(2, 8)
        grid = np.linspace(-10, 10, 401)
        tracemalloc.start()
        try:
            curve = thermo.pressure_curve(phi, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        for i in (0, 123, 200, 400):
            assert curve.P[i] == thermo.pressure(phi, grid[i])
