import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifract import riesz
from multifract.errors import ValidationError

LOG2 = math.log(2)


def all_sign_words(n):
    return itertools.product((1, -1), repeat=n)


def numpy_cylinder_mass(measure, u):
    """The per-block numpy formula that `cylinder_mass` replaced, as a reference."""
    arr = np.asarray(u, dtype=np.int64)
    n = arr.size
    if n == 0:
        return 1.0
    mass = 2.0 ** (-n)
    d = measure.d
    for k in range(1, n // d + 1):
        block = arr[np.arange(1, d + 1) * k - 1]
        mass *= 1.0 + measure.b * float(np.prod(block))
    return mass


def loop_sample(measure, n, seed):
    """The per-position loop that `sample` replaced, as a reference."""
    rng = np.random.Generator(np.random.Philox(seed))
    uniforms = rng.random(n)
    out = np.where(uniforms < 0.5, 1, -1).astype(np.int64)
    d, b = measure.d, measure.b
    for pos in range(d, n + 1, d):
        k = pos // d
        rest = 1
        for t in range(1, d):
            rest *= int(out[t * k - 1])
        p_plus = (1.0 + b * rest) / 2.0
        out[pos - 1] = 1 if uniforms[pos - 1] < p_plus else -1
    return out


def block_edges(d, k_max):
    """First and last k of each array step of `sample` with n // d = k_max."""
    edges, lo = [], 1
    while lo <= k_max:
        hi = k_max if d == 1 else min(k_max, (lo * d - 1) // (d - 1))
        edges += [lo, hi]
        lo = hi + 1
    return edges


class TestWalshSpectrum:
    def test_peak_is_one(self):
        for d in range(1, 7):
            assert riesz.walsh_spectrum(d, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_endpoints(self):
        for d in (1, 2, 3):
            assert riesz.walsh_spectrum(d, 1.0) == pytest.approx(1 - 1 / d, abs=1e-15)
            assert riesz.walsh_spectrum(d, -1.0) == pytest.approx(1 - 1 / d, abs=1e-15)

    def test_interior_value(self):
        # H(3/4) = log 4 - (3/4) log 3
        want = 0.5 + (math.log(4) - 0.75 * math.log(3)) / (2 * LOG2)
        assert riesz.walsh_spectrum(2, 0.5) == pytest.approx(want, abs=1e-12)
        assert riesz.walsh_spectrum(2, 0.5) == pytest.approx(0.9056, abs=5e-5)

    def test_besicovitch_eggleston_case(self):
        for a in (0.2, -0.6):
            h = riesz.entropy((1 + a) / 2)
            assert riesz.walsh_spectrum(1, a) == pytest.approx(h / LOG2, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValidationError):
            riesz.walsh_spectrum(2, 1.5)
        with pytest.raises(ValidationError):
            riesz.walsh_spectrum(0, 0.0)


class TestCylinderMass:
    def test_haar_case(self):
        m = riesz.WalshRieszMeasure(2, 0.0)
        assert riesz.cylinder_mass(m, (1, -1, 1)) == pytest.approx(0.125, abs=1e-15)

    def test_degenerate_pair(self):
        m = riesz.WalshRieszMeasure(2, 1.0)
        assert riesz.cylinder_mass(m, (1, 1)) == pytest.approx(0.5, abs=1e-15)
        assert riesz.cylinder_mass(m, (1, -1)) == 0.0

    def test_inactive_constraint(self):
        m = riesz.WalshRieszMeasure(2, 0.9)
        assert riesz.cylinder_mass(m, (1,)) == pytest.approx(0.5, abs=1e-15)
        assert riesz.cylinder_mass(m, (-1,)) == pytest.approx(0.5, abs=1e-15)

    @given(b=st.floats(-1, 1), n=st.integers(1, 10), d=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_masses_sum_to_one(self, b, n, d):
        m = riesz.WalshRieszMeasure(d, b)
        total = sum(riesz.cylinder_mass(m, u) for u in all_sign_words(n))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_extension_consistency(self):
        m = riesz.WalshRieszMeasure(2, 0.6)
        for n in (1, 3, 7, 11):
            rng = np.random.default_rng(n)
            u = tuple(rng.choice([1, -1], size=n))
            children = riesz.cylinder_mass(m, u + (1,)) + riesz.cylinder_mass(m, u + (-1,))
            assert riesz.cylinder_mass(m, u) == pytest.approx(children, rel=1e-12)

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValidationError):
            riesz.cylinder_mass(riesz.WalshRieszMeasure(2, 0.5), (1, 0))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("b", [-0.8, 0.6, 1.0])
    def test_equals_numpy_formula_bit_for_bit(self, d, b):
        m = riesz.WalshRieszMeasure(d, b)
        for n in range(11):
            for u in all_sign_words(n):
                assert riesz.cylinder_mass(m, u) == numpy_cylinder_mass(m, u)


class TestFourier:
    def test_trivial_character(self):
        assert riesz.fourier_coefficient([0.5, 0.5], []) == 1.0
        assert riesz.fourier_coefficient([0.5, 0.5], [0, 0]) == 1.0

    def test_product_rule(self):
        assert riesz.fourier_coefficient([0.8], [1]) == pytest.approx(0.4)
        assert riesz.fourier_coefficient([0.8, 0.8], [1, 1]) == pytest.approx(0.16)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValidationError):
            riesz.fourier_coefficient([0.5], [2])

    def test_character_decoding(self):
        assert riesz.character_from_indices(2, [1, 2]) == (1,)
        assert riesz.character_from_indices(2, [1, 2, 3, 6]) == (1, 0, 1)
        assert riesz.character_from_indices(2, [1]) is None
        assert riesz.character_from_indices(2, [2, 3]) is None

    def test_integral_by_exhaustive_summation(self):
        # span characters integrate to b^(#blocks); off-span characters to 0
        m = riesz.WalshRieszMeasure(2, 0.7)
        n = 8
        for indices in ([1, 2], [2, 4], [1], [3, 5], [1, 2, 3, 6]):
            direct = 0.0
            for u in all_sign_words(n):
                sign = 1
                for i in indices:
                    sign *= u[i - 1]
                direct += sign * riesz.cylinder_mass(m, u)
            assert riesz.walsh_integral(m, indices) == pytest.approx(direct, abs=1e-12)


class TestSampling:
    def test_reproducible(self):
        m = riesz.WalshRieszMeasure(2, 0.4)
        assert np.array_equal(riesz.sample(m, 200, seed=1), riesz.sample(m, 200, seed=1))
        assert not np.array_equal(riesz.sample(m, 200, seed=1), riesz.sample(m, 200, seed=2))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_equals_loop_near_block_edges(self, d):
        # n < d, n = d, and n = d k - 1, d k, d k + 1 around the first and
        # last k of every array step
        ns = set(range(1, 4 * d + 2))
        for k in block_edges(d, 5000 // d):
            ns |= {d * k - 1, d * k, d * k + 1}
        for b in (0.7, -0.5, 1.0):
            m = riesz.WalshRieszMeasure(d, b)
            for n in sorted(ns - {0}):
                for seed in (0, 5):
                    assert np.array_equal(riesz.sample(m, n, seed), loop_sample(m, n, seed)), (b, n, seed)

    def test_block_products_match_index_matrix(self):
        x = riesz.sample(riesz.WalshRieszMeasure(3, 0.2), 301, seed=2)
        for d in (1, 2, 3, 5):
            n = 301 // d
            idx = np.outer(np.arange(1, n + 1), np.arange(1, d + 1)) - 1
            assert np.array_equal(riesz.block_products(x, d, n), np.prod(x[idx], axis=1))

    def test_fair_case(self):
        path = riesz.sample(riesz.WalshRieszMeasure(2, 0.0), 100_000, seed=3)
        assert abs(float(path.mean())) < 3 / math.sqrt(100_000) * 1.5

    def test_rigid_case(self):
        path = riesz.sample(riesz.WalshRieszMeasure(2, 1.0), 1000, seed=4)
        assert riesz.walsh_average(path, 2, 500) == 1.0

    @given(b=st.sampled_from([-0.8, -0.4, 0.0, 0.4, 0.8]))
    @settings(max_examples=5, deadline=None)
    def test_empirical_average_matches_b(self, b):
        m = riesz.WalshRieszMeasure(2, b)
        path = riesz.sample(m, 200_000, seed=17)
        assert abs(riesz.walsh_average(path, 2, 100_000) - b) < 0.01

    def test_block_average_all_ones(self):
        assert riesz.walsh_average([1] * 40, 2, 20) == 1.0

    def test_block_average_constructed_minus_one(self):
        # symbols -1 at odd positions, +1 at even: every product u_k u_2k
        # with k odd is -1; restrict the average to odd k via d=1 padding
        x = [(-1) ** k for k in range(1, 41)]  # -1 at odd positions
        prods = riesz.block_products(x, 2, 20)
        assert all(p == -1 for p in prods[::2])  # odd k


class TestDoublingTripling:
    def test_at_zero(self):
        assert riesz.doubling_tripling_average(1, 1, 0.0, 10) == pytest.approx(1.0)

    def test_period_four_point(self):
        # (2^k + 3^k)/5 mod 1 cycles with period 4: values 0, 3/5, 0, 2/5
        x = Fraction(1, 5)
        want = (1 + cexp(Fraction(3, 5)) + 1 + cexp(Fraction(2, 5))) / 4
        got = riesz.doubling_tripling_average(1, 1, x, 4)
        assert got == pytest.approx(want, abs=1e-12)

    def test_periodicity_of_limit(self):
        x = Fraction(1, 5)
        a4 = riesz.doubling_tripling_average(1, 1, x, 4)
        a8 = riesz.doubling_tripling_average(1, 1, x, 8)
        assert a8 == pytest.approx(a4, abs=1e-12)

    def test_moduli_bounded(self):
        for x in (0.3, Fraction(2, 7)):
            assert abs(riesz.doubling_tripling_average(2, 3, x, 50)) <= 1.0 + 1e-12


def cexp(frac):
    return complex(math.cos(2 * math.pi * frac), math.sin(2 * math.pi * frac))


class TestCommonPeriodicPoints:
    def test_trivial_gcd(self):
        assert riesz.common_periodic_points(1, 1) == []

    def test_four_four(self):
        points = riesz.common_periodic_points(4, 4)
        assert points == [Fraction(k, 5) for k in range(1, 5)]

    def test_orbit_simulation(self):
        orbit2 = riesz.multiplication_orbit(Fraction(1, 5), 2)
        assert orbit2 == [Fraction(1, 5), Fraction(2, 5), Fraction(4, 5), Fraction(3, 5)]
        orbit3 = riesz.multiplication_orbit(Fraction(1, 5), 3)
        assert orbit3 == [Fraction(1, 5), Fraction(3, 5), Fraction(4, 5), Fraction(2, 5)]

    def test_exhaustive_small_grid(self):
        for n in range(1, 11):
            for m in range(1, 11):
                points = riesz.common_periodic_points(n, m)
                d = math.gcd(2**n - 1, 3**m - 1)
                assert len(points) == max(d - 1, 0)
                for x in points:
                    assert n % len(riesz.multiplication_orbit(x, 2)) == 0
                    assert m % len(riesz.multiplication_orbit(x, 3)) == 0


class TestPressure23:
    def test_zero_parameters(self):
        est = riesz.empirical_pressure_23(0.0, 0.0, n=5, samples=10, seed=1)
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_reproducible(self):
        a = riesz.empirical_pressure_23(0.4, -0.2, n=30, samples=500, seed=6)
        b = riesz.empirical_pressure_23(0.4, -0.2, n=30, samples=500, seed=6)
        assert a == b

    def test_near_bessel_reference(self):
        # exploratory sanity: the finite-n statistic sits in the same range
        # as the i.i.d.-phase reference value
        est = riesz.empirical_pressure_23(0.5, 0.0, n=200, samples=4000, seed=8)
        ref = riesz.bessel_pressure(0.5, 0.0)
        assert abs(est.value - ref) < 0.05


class TestBessel:
    def test_zero(self):
        assert riesz.bessel_pressure(0.0, 0.0) == 0.0

    def test_rotational_invariance(self):
        assert riesz.bessel_pressure(3.0, 4.0) == riesz.bessel_pressure(5.0, 0.0)
        assert riesz.bessel_pressure(-5.0, 0.0) == riesz.bessel_pressure(0.0, 5.0)

    def test_against_quadrature(self):
        for r in (0.5, 2.0, 10.0):
            theta = (np.arange(20_000) + 0.5) * (2 * math.pi / 20_000)
            quad = math.log(float(np.mean(np.exp(r * np.cos(theta)))))
            assert riesz.bessel_pressure(r, 0.0) == pytest.approx(quad, abs=1e-10)

    @given(s=st.floats(-8, 8), t=st.floats(-8, 8))
    @settings(max_examples=25)
    def test_nonnegative_and_even(self, s, t):
        value = riesz.bessel_pressure(s, t)
        assert value >= 0.0
        assert value == riesz.bessel_pressure(-s, -t)
