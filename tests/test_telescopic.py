import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifract import symbolic, telescopic, thermo
from multifract.errors import ValidationError

LOG2 = math.log(2)


def brute_mass(measure, u):
    """Independent oracle: product of base masses over the chain restrictions."""
    out = 1.0
    for chain in symbolic.lambda_partition(measure.q, len(u)):
        out *= measure.base.word_mass(symbolic.restrict(u, chain))
    return out


class TestBaseMeasure:
    def test_uniform_masses(self):
        base = telescopic.BaseMeasure.uniform(3)
        assert base.word_mass((0, 1, 2)) == pytest.approx(27 ** (-1.0), abs=1e-15)

    def test_bernoulli_masses(self):
        base = telescopic.BaseMeasure.bernoulli([0.2, 0.8])
        assert base.word_mass((1, 1, 0)) == pytest.approx(0.8 * 0.8 * 0.2, abs=1e-15)

    def test_markov_masses(self):
        spec = thermo.markov_measure(thermo.indicator_potential(2, 2), 0.9)
        base = telescopic.BaseMeasure.from_markov_spec(spec)
        word = (1, 0, 1, 1)
        want = spec.initial[1]
        ctx = 1
        for a in word[1:]:
            want *= spec.kernel[ctx, a]
            ctx = a
        assert base.word_mass(word) == pytest.approx(want, abs=1e-15)

    def test_word_masses_sum_to_one(self):
        base = telescopic.BaseMeasure.bernoulli([0.3, 0.7])
        for k in (1, 3, 6):
            assert base.word_masses(k).sum() == pytest.approx(1.0, abs=1e-12)

    def test_json_round_trip(self):
        base = telescopic.BaseMeasure.bernoulli([0.25, 0.75])
        again = telescopic.BaseMeasure.from_json(base.to_json())
        assert np.allclose(again.initial, base.initial)
        assert np.allclose(again.kernel, base.kernel)

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValidationError):
            telescopic.BaseMeasure.bernoulli([0.5, 0.6])


class TestCylinderMass:
    def test_uniform_masses(self):
        measure = telescopic.TelescopicMeasure(base=telescopic.BaseMeasure.uniform(2), q=2)
        assert telescopic.cylinder_mass(measure, (0, 1, 1, 0, 1)) == pytest.approx(
            2.0**-5, abs=1e-15
        )

    def test_against_chain_oracle(self):
        base = telescopic.BaseMeasure.bernoulli([0.3, 0.7])
        measure = telescopic.TelescopicMeasure(base=base, q=2)
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = tuple(rng.integers(0, 2, size=9))
            assert telescopic.cylinder_mass(measure, u) == pytest.approx(
                brute_mass(measure, u), rel=1e-12
            )

    @given(q=st.integers(2, 3), n=st.integers(1, 8), seed=st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_masses_sum_to_one(self, q, n, seed):
        rng = np.random.default_rng(seed)
        p = rng.random() * 0.9 + 0.05
        base = telescopic.BaseMeasure.bernoulli([p, 1 - p])
        measure = telescopic.TelescopicMeasure(base=base, q=q)
        total = 0.0
        for code in range(2**n):
            u = tuple((code >> i) & 1 for i in range(n))
            total += telescopic.cylinder_mass(measure, u)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestDimension:
    def test_uniform_dimension_is_one(self):
        measure = telescopic.TelescopicMeasure(base=telescopic.BaseMeasure.uniform(2), q=2)
        assert telescopic.dimension(measure, tol=1e-10) == pytest.approx(1.0, abs=1e-10)

    def test_point_mass_dimension_zero(self):
        measure = telescopic.TelescopicMeasure(
            base=telescopic.BaseMeasure.point_mass(2, 0), q=2
        )
        assert telescopic.dimension(measure, tol=1e-10) == pytest.approx(0.0, abs=1e-10)

    def test_bernoulli_series_oracle(self):
        # direct evaluation of (q-1)^2 / log m * sum H_k / q^{k+1} with the
        # i.i.d. entropy H_k = k * H(p)
        p, q = 0.3, 2
        h = -p * math.log(p) - (1 - p) * math.log(1 - p)
        want = sum((q - 1) ** 2 * k * h / q ** (k + 1) for k in range(1, 200)) / LOG2
        base = telescopic.BaseMeasure.bernoulli([p, 1 - p])
        measure = telescopic.TelescopicMeasure(base=base, q=q)
        assert telescopic.dimension(measure, tol=1e-12) == pytest.approx(want, abs=1e-9)

    def test_tail_bound_decreases(self):
        bounds = [telescopic.dimension_tail_bound(2, k) for k in (5, 10, 20)]
        assert bounds[0] > bounds[1] > bounds[2] > 0

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("tol", [1e-5, 1e-9, 1e-12])
    def test_series_depth_is_first_depth_below_tol(self, q, tol):
        depth = telescopic.series_depth(q, tol)
        assert telescopic.dimension_tail_bound(q, depth) < tol
        assert all(telescopic.dimension_tail_bound(q, k) >= tol for k in range(1, depth))

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_series_depth_rejects_nonpositive_tol(self, tol):
        with pytest.raises(ValidationError):
            telescopic.series_depth(2, tol)

    def test_markov_measure_is_a_base_measure(self):
        phi = thermo.indicator_potential(2, 3)
        base = thermo.markov_measure(phi, 0.7)
        assert isinstance(base, telescopic.BaseMeasure)
        measure = telescopic.TelescopicMeasure(base=base, q=2)
        got = telescopic.dimension(measure, tol=1e-12)
        assert got == pytest.approx(thermo.ruelle_dimension(phi, 0.7), abs=1e-9)

    def test_marginal_entropy_matches_direct_sum(self):
        spec = thermo.markov_measure(thermo.indicator_potential(2, 2), 0.7)
        base = telescopic.BaseMeasure.from_markov_spec(spec)
        for k in (1, 2, 5):
            masses = base.word_masses(k)
            direct = -np.sum(masses[masses > 0] * np.log(masses[masses > 0]))
            assert telescopic.marginal_entropy(base, k) == pytest.approx(direct, abs=1e-10)


class TestSampling:
    def test_reproducible(self):
        measure = telescopic.TelescopicMeasure(base=telescopic.BaseMeasure.uniform(2), q=2)
        a = telescopic.sample(measure, 500, seed=3)
        b = telescopic.sample(measure, 500, seed=3)
        c = telescopic.sample(measure, 500, seed=4)
        assert np.array_equal(a.symbols, b.symbols)
        assert not np.array_equal(a.symbols, c.symbols)

    def test_point_mass_path(self):
        measure = telescopic.TelescopicMeasure(
            base=telescopic.BaseMeasure.point_mass(2, 1), q=2
        )
        path = telescopic.sample(measure, 100, seed=0)
        assert np.all(path.symbols == 1)

    def test_marginal_frequencies(self):
        base = telescopic.BaseMeasure.bernoulli([0.25, 0.75])
        measure = telescopic.TelescopicMeasure(base=base, q=2)
        path = telescopic.sample(measure, 200_000, seed=9)
        # chain starts are i.i.d. draws from the one-symbol marginal
        assert path.symbols.mean() == pytest.approx(0.75, abs=0.01)

    def test_empirical_average_converges(self):
        phi = thermo.indicator_potential(2, 2)
        s = thermo.solve_pressure_slope(phi, 0.4)
        base = telescopic.BaseMeasure.from_markov_spec(thermo.markov_measure(phi, s))
        measure = telescopic.TelescopicMeasure(base=base, q=2)
        n = 50_000
        path = telescopic.sample(measure, 2 * n, seed=21)
        avg = telescopic.empirical_multiple_average(path, phi, n)
        assert avg == pytest.approx(0.4, abs=0.02)

    def test_average_requires_enough_symbols(self):
        phi = thermo.indicator_potential(2, 2)
        with pytest.raises(ValidationError):
            telescopic.empirical_multiple_average([0, 1] * 10, phi, 15)
