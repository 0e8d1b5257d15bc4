import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifract import thermo
from multifract.errors import ConvergenceError, ValidationError

LOG2 = math.log(2)


def entropy(t):
    if t in (0.0, 1.0):
        return 0.0
    return -t * math.log(t) - (1 - t) * math.log(1 - t)


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
        # range 150: exp(s * (phi - 25)) overflows once 75 |s| > 709, so at
        # |s| = 10 and at the horizon s = +/-40 where every spectrum query starts
        # the explicit non-finite check is the only report: numpy warns of nothing
        phi = thermo.Potential.from_values(2, 2, 2, [[0.0, 100.0], [3.0, -50.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="s=") as info:
                thermo.legendre_spectrum(phi, 1.0)
        assert info.value.iterations < 10

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
        # Newton on the exact P'' from the secant point of the bracket, with
        # level_domain, the bracket and the final pressure all counted
        solves = 0
        solve_psi = thermo.solve_psi

        def counting(*args):
            nonlocal solves
            solves += 1
            return solve_psi(*args)

        monkeypatch.setattr(thermo, "solve_psi", counting)
        phi = thermo.rademacher_potential(q, d)
        for alpha in (-0.9, -0.3, 0.2, 0.95):
            solves = 0
            thermo.legendre_spectrum(phi, alpha)
            assert solves <= 12, (alpha, solves)

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

    def test_spectrum_within_unit_interval(self):
        phi = thermo.indicator_potential(2, 2)
        for a in np.linspace(0.01, 0.99, 25):
            value = thermo.legendre_spectrum(phi, float(a))
            assert 0.0 <= value <= 1.0 + 1e-12


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
    def test_curve_rows(self):
        phi = thermo.rademacher_potential(2, 2)
        curve = thermo.pressure_curve(phi, np.linspace(-2, 2, 5))
        rows = list(curve.rows())
        assert len(rows) == 5
        s, p, dp, alpha, dim = rows[2]
        assert s == 0.0
        assert dim == pytest.approx(1.0, abs=1e-9)
