import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifract import symbolic, telescopic, thermo
from multifract.errors import ValidationError

LOG2 = math.log(2)


def abel_tails(generators, depth):
    """Elements l_1..l_{depth+1}, gamma, and the tail bound after D = 0..depth terms, exactly.

    The tail is q^{-D-1} ((q-1)(D+1) + 1) in closed form for one generator q,
    else (K/l_K + gamma - sum_{k<=K} 1/l_k) / gamma at K = D + 1 over the
    products p^a q^b ... < 2^63 listed directly from their exponents.
    """
    gamma = math.prod(Fraction(g, g - 1) for g in generators)
    if len(generators) == 1:
        q = generators[0]
        elements = [q**j for j in range(depth + 1)]
        return elements, gamma, [Fraction((q - 1) * (d + 1) + 1, q ** (d + 1)) for d in range(depth + 1)]
    elements = [1]
    for p in generators:
        elements = [v * p**a for v in elements for a in range(64) if v * p**a < 2**63]
    elements = sorted(elements)[: depth + 1]
    assert len(elements) == depth + 1
    tails, partial = [], Fraction(0)
    for k, l in enumerate(elements, 1):
        partial += Fraction(1, l)
        tails.append((Fraction(k, l) + gamma - partial) / gamma)
    return elements, gamma, tails


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
        # with a_k = k, the bound itself, the series sums to 1, so 1 - sum_k w_k k
        # is the Abel tail that the truncation drops
        tols = (1e-3, 1e-6, 1e-9)
        tails = [
            1 - math.fsum(k * w for k, w in enumerate(symbolic.series_weights((2,), tol), 1))
            for tol in tols
        ]
        assert tails[0] > tails[1] > tails[2] > 0
        assert all(tail < tol for tail, tol in zip(tails, tols))

    @pytest.mark.parametrize("q", [2, 3, 5, 4, pytest.param((2, 3), id="2,3")])
    @pytest.mark.parametrize("tol", [1e-5, 1e-9, 1e-12])
    def test_series_depth_is_first_depth_below_tol(self, q, tol):
        self.check_series_depth(q, tol)

    @pytest.mark.parametrize(
        "q, tol",
        [((2, 3, 5), 1e-9), ((2, 3, 5), 1e-10), ((3, 5, 7), 1e-9), ((3, 5, 7), 1e-10),
         (2, 1e-30), (3, 1e-30), (2, 1e-300), (5, 1e-300),
         # each tol lies between the exact tail at the last depth and its float
         # estimate, so a float screen with no rounding margin stops a depth late
         ((2, 3), 0.7222222222222223), ((2, 3), 3.2065274248042147e-13),
         ((2, 3, 5), 0.16708024691358028), ((2, 3, 5), 5.0017684887948564e-11)],
    )
    def test_series_depth_below_float_resolution(self, q, tol):
        # tails below the rounding of gamma and of the float cumulative sum
        self.check_series_depth(q, tol)

    @staticmethod
    def check_series_depth(q, tol):
        generators = q if isinstance(q, tuple) else (q,)
        weights = symbolic.series_weights(generators, tol)
        depth = len(weights)  # K - 1 terms
        elements, gamma, tails = abel_tails(generators, depth)
        assert tails[depth] < tol
        assert all(tail >= tol for tail in tails[:depth])
        for k, w in enumerate(weights, 1):
            want = (Fraction(1, elements[k - 1]) - Fraction(1, elements[k])) / gamma
            if len(generators) == 1:
                assert want == Fraction((q - 1) ** 2, q ** (k + 1))
            assert abs(Fraction(w) - want) <= Fraction(math.ulp(w))

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_series_depth_rejects_nonpositive_tol(self, tol):
        with pytest.raises(ValidationError):
            symbolic.series_weights((2,), tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_series_depth_rejects_non_finite_tol(self, tol):
        # NaN once stopped the series at depth 1, a box dimension of 0
        with pytest.raises(ValidationError):
            symbolic.series_weights((2,), tol)

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


def float_chain_lengths(q, n):
    """The float-log chain lengths with rounding fix-ups that `_chain_lengths` replaced."""
    bases = np.array([i for i in range(1, n + 1) if i % q != 0], dtype=np.int64)
    lengths = np.floor(np.log(n / bases) / math.log(q)).astype(np.int64) + 1
    for idx in np.nonzero(bases * q**lengths <= n)[0]:
        lengths[idx] += 1
    for idx in np.nonzero(bases * q ** (lengths - 1) > n)[0]:
        lengths[idx] -= 1
    return bases, lengths


class TestChainLengths:
    @pytest.mark.parametrize("q, top", [(2, 16), (3, 10), (5, 7)])
    def test_exact_powers(self, q, top):
        # n = q^L and q^L +- 1, where log(n / i) / log q rounds either way
        for n in sorted({q**L + e for L in range(top + 1) for e in (-1, 0, 1)} - {0}):
            bases, lengths = telescopic._chain_lengths(q, n)
            want_bases, want_lengths = float_chain_lengths(q, n)
            assert np.array_equal(bases, want_bases) and np.array_equal(lengths, want_lengths), n
            # every position of [1, n] lies on exactly one chain, and each chain ends inside it
            assert int(lengths.sum()) == n
            assert np.all(bases * q ** (lengths - 1) <= n) and np.all(bases * q**lengths > n)


class TestSampling:
    def test_philox_draws_are_stream_slices(self):
        stream = np.random.Generator(np.random.Philox(13)).random(64)
        for start in range(24):
            for count in (0, 1, 5, 17):
                assert np.array_equal(
                    telescopic._philox_draws(13, start, count), stream[start : start + count]
                )

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
