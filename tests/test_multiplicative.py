import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifract import multiplicative, symbolic
from multifract.errors import ValidationError

LOG2 = math.log(2)

# real root of a^3 - 2 a^2 + a - 1, computed from an independent polynomial
# solver and frozen (see test_cubic_root_oracle)
FIB_ROOT = 1.7548776662466927
FIB_DIM_H = 0.8113704627516504
FIB_DIM_B = 0.8242936057115928


def cubic_root():
    roots = np.roots([1.0, -2.0, 1.0, -1.0])
    real = [r.real for r in roots if abs(r.imag) < 1e-12]
    assert len(real) == 1
    return real[0]


class TestKps:
    def test_cubic_root_oracle(self):
        assert cubic_root() == pytest.approx(FIB_ROOT, abs=1e-12)

    def test_fibonacci_hausdorff(self):
        aut = symbolic.fibonacci_automaton()
        got = multiplicative.kps_hausdorff(aut, 2)
        assert got == pytest.approx(math.log(cubic_root()) / LOG2, abs=1e-9)
        assert got == pytest.approx(FIB_DIM_H, abs=1e-9)

    def test_fixed_point_equation(self):
        # t_v^q = sum over children t_{v'} at every state
        aut = symbolic.fibonacci_automaton()
        sol = multiplicative.kps_solution(aut, 2)
        table = aut.transition_table()
        for i, _ in enumerate(aut.states):
            children = sum(sol.t[j] for j in table[i] if j >= 0)
            assert sol.t[i] ** 2 == pytest.approx(children, rel=1e-12)

    def test_full_shift_dimensions(self):
        aut = symbolic.full_shift(2)
        assert multiplicative.kps_hausdorff(aut, 2) == pytest.approx(1.0, abs=1e-12)
        assert multiplicative.kps_box(aut, 2) == pytest.approx(1.0, abs=1e-10)

    def test_single_point_dimension_zero(self):
        aut = symbolic.single_point(2)
        assert multiplicative.kps_hausdorff(aut, 2) == pytest.approx(0.0, abs=1e-12)

    @given(q=st.integers(2, 4))
    @settings(max_examples=6, deadline=None)
    def test_hausdorff_below_box(self, q):
        aut = symbolic.fibonacci_automaton()
        dim_h = multiplicative.kps_hausdorff(aut, q)
        dim_b = multiplicative.kps_box(aut, q, tol=1e-10)
        assert dim_h <= dim_b + 1e-9


class TestBoxCounting:
    def test_fibonacci_box_series(self):
        got = multiplicative.fibonacci_box_x2(1e-8)
        assert got == pytest.approx(FIB_DIM_B, abs=1e-7)

    def test_box_series_agreement(self):
        aut = symbolic.fibonacci_automaton()
        a = multiplicative.fibonacci_box_x2(1e-8)
        b = multiplicative.kps_box(aut, 2, tol=1e-8)
        assert a == pytest.approx(b, abs=2e-8)

    def test_exact_count_small_cases(self):
        # hand enumeration: words over {0,1}^n with u_k u_{2k} = 11 forbidden
        # along every dyadic chain
        assert multiplicative.exact_count_x2(1) == 2
        assert multiplicative.exact_count_x2(2) == 3
        assert multiplicative.exact_count_x2(3) == 6

    def test_exact_count_matches_brute_force(self):
        aut = symbolic.fibonacci_automaton()
        for n in range(1, 19):
            assert multiplicative.exact_count_x2(n) == multiplicative.brute_force_count(
                aut, 2, n
            )

    def test_brute_force_guard(self):
        aut = symbolic.fibonacci_automaton()
        with pytest.raises(ValidationError):
            multiplicative.brute_force_count(aut, 2, 40)

    @given(n=st.integers(1, 14))
    @settings(max_examples=14, deadline=None)
    def test_brute_force_full_shift(self, n):
        aut = symbolic.full_shift(2)
        assert multiplicative.brute_force_count(aut, 2, n) == 2**n


class TestPsss:
    def test_kps_reduction(self):
        # the semigroup <q> recovers the KPS construction, t_psss = t_kps^{q/(q-1)}
        # at the root: two solvers, one answer
        automata = (
            symbolic.fibonacci_automaton(),
            symbolic.forbid_ones_run(3),
            symbolic.even_ones_shift(),
            symbolic.two_regular_ternary(),
            symbolic.full_shift(3),
            symbolic.full_shift(2),
        )
        for aut in automata:
            for q in (2, 3, 5):
                kps = multiplicative.kps_hausdorff(aut, q)
                psss = multiplicative.psss_hausdorff(aut, symbolic.SemigroupSpec((q,)))
                assert psss == pytest.approx(kps, abs=1e-10)

    def test_full_shift_dimension_one(self):
        aut = symbolic.full_shift(2)
        spec = symbolic.SemigroupSpec((2, 3))
        assert multiplicative.psss_hausdorff(aut, spec) == pytest.approx(1.0, abs=1e-8)
        assert multiplicative.psss_box(aut, spec, tol=1e-6) == pytest.approx(1.0, abs=1e-5)

    def test_x23_dimensions(self):
        aut = symbolic.fibonacci_automaton()
        spec = symbolic.SemigroupSpec((2, 3))
        dim_h = multiplicative.psss_hausdorff(aut, spec)
        dim_b = multiplicative.psss_box(aut, spec, tol=1e-5)
        assert 0.0 < dim_h < 1.0
        assert dim_h <= dim_b + 1e-6

    def test_report(self):
        aut = symbolic.fibonacci_automaton()
        report = multiplicative.dims_report(aut, q=2)
        assert report["dim_H"] == pytest.approx(FIB_DIM_H, abs=1e-8)
        assert report["dim_B"] == pytest.approx(FIB_DIM_B, abs=1e-6)
        assert report["symmetric"] is False

    def test_report_full_shift(self):
        report = multiplicative.dims_report(symbolic.full_shift(2), q=2)
        assert report["dim_H"] == pytest.approx(1.0, abs=1e-9)
        assert report["dim_B"] == pytest.approx(1.0, abs=1e-6)
        assert report["symmetric"] is True

    @pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5)])
    def test_one_truncation_depth(self, primes):
        # the depth is the box series' at the same target, and its bracket
        # closes below that target with no second sweep
        spec = symbolic.SemigroupSpec(primes)
        automata = (
            symbolic.fibonacci_automaton(),
            symbolic.forbid_ones_run(3),
            symbolic.even_ones_shift(),
            symbolic.two_regular_ternary(),
            symbolic.full_shift(3),
        )
        for target in (1e-6, 1e-10):
            depth = len(symbolic.series_weights(primes, target))
            for aut in automata:
                sol = multiplicative.psss_solution(aut, spec, target)
                assert sol.depth == depth
                assert 0.0 <= sol.residual < target

    @pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5), (3, 5)])
    def test_bracket_holds_the_full_shift(self, primes):
        # the full shift has dimension 1, reached by the upper closure: so
        # the bracket [dim - residual/2, dim + residual/2] must end at 1
        spec = symbolic.SemigroupSpec(primes)
        for m in (2, 3):
            sol = multiplicative.psss_solution(symbolic.full_shift(m), spec)
            assert sol.dimension + sol.residual / 2 == pytest.approx(1.0, abs=1e-14)
            assert sol.residual > 1e-12
