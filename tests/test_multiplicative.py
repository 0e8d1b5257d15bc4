import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifract import cli, multiplicative, symbolic, telescopic, thermo
from multifract.errors import ConvergenceError, ValidationError

LOG2 = math.log(2)

# real root of a^3 - 2 a^2 + a - 1, computed from an independent polynomial
# solver and frozen (see test_cubic_root_oracle)
FIB_ROOT = 1.7548776662466927
FIB_DIM_H = 0.8113704627516504
FIB_DIM_B = 0.8242936057115928


# the benchmark's automata and dims modes
DIMS_AUTOMATA = {
    "fibonacci": symbolic.fibonacci_automaton,
    "forbid111": lambda: symbolic.forbid_ones_run(3),
    "even_ones": symbolic.even_ones_shift,
    "two_regular_ternary": symbolic.two_regular_ternary,
    "full_shift3": lambda: symbolic.full_shift(3),
}
DIMS_MODES = {
    "q=2": {"q": 2},
    "q=3": {"q": 3},
    "2,3": {"spec": symbolic.SemigroupSpec((2, 3))},
    "2,3,5": {"spec": symbolic.SemigroupSpec((2, 3, 5))},
}
# (dim_H, dim_B, residual) of dims_report at its default tol, recorded at
# 41ed9d0, before the PSSS sweep moved to the dense matrix with a log scale;
# the q rows since the KPS fixed point takes Newton steps
DIMS_PINS = {
    ("fibonacci", "q=2"): (0.811370462751649, 0.8242936053344875, 0.0),
    ("fibonacci", "q=3"): (0.8632823612520861, 0.8766070386703617, 1.6462784101538142e-16),
    ("fibonacci", "2,3"): (0.7725311888478188, 0.7816193183663609, 6.7014904725601785e-12),
    ("fibonacci", "2,3,5"): (0.7568078275538389, 0.7641744872432212, 9.090537967976882e-12),
    ("forbid111", "q=2"): (0.9566513117546106, 0.9617888968860957, 0.0),
    ("forbid111", "q=3"): (0.9781671887851705, 0.9816307007915193, 7.910089501608729e-16),
    ("forbid111", "2,3"): (0.9286729575885525, 0.9329094407488481, 6.7014904725601785e-12),
    ("forbid111", "2,3,5"): (0.9186537645727363, 0.9221564922325137, 9.090537967976882e-12),
    ("even_ones", "q=2"): (0.811370462751649, 0.8242936053344875, 0.0),
    ("even_ones", "q=3"): (0.8632823612520861, 0.8766070386703617, 1.6462784101538142e-16),
    ("even_ones", "2,3"): (0.7725311888478188, 0.7816193183663609, 6.7014904725601785e-12),
    ("even_ones", "2,3,5"): (0.7568078275538389, 0.7641744872432212, 9.090537967976882e-12),
    ("two_regular_ternary", "q=2"): (0.6309297535714574, 0.6309297532317516, 2.220446049250313e-16),
    ("two_regular_ternary", "q=3"): (0.6309297535714573, 0.6309297532564723, 1.5700924586837752e-16),
    ("two_regular_ternary", "2,3"): (0.6309297535705797, 0.6309297529582508, 6.7014904725601785e-12),
    ("two_regular_ternary", "2,3,5"): (0.6309297535702669, 0.6309297529424827, 9.090537967976882e-12),
    ("full_shift3", "q=2"): (0.9999999999999998, 0.9999999994615791, 0.0),
    ("full_shift3", "q=3"): (0.9999999999999998, 0.9999999995007604, 1.2819751242557095e-16),
    ("full_shift3", "2,3"): (0.9999999999966489, 0.9999999990280907, 6.7014904725601785e-12),
    ("full_shift3", "2,3,5"): (0.9999999999954544, 0.9999999990030985, 9.090537967976882e-12),
}


def six_automata():
    """The automata of `TestPsss::test_kps_reduction`."""
    return (
        symbolic.fibonacci_automaton(),
        symbolic.forbid_ones_run(3),
        symbolic.even_ones_shift(),
        symbolic.two_regular_ternary(),
        symbolic.full_shift(3),
        symbolic.full_shift(2),
    )


def mp_kps_dimension(automaton: symbolic.PrefixAutomaton, q: int) -> mpmath.mpf:
    """(q-1) log_m t(root), t^q = sum of the children iterated in 60-digit arithmetic from t = 1."""
    with mpmath.workdps(60):
        table = automaton.table.tolist()
        t = [mpmath.mpf(1)] * len(table)
        while True:
            image = [mpmath.root(mpmath.fsum(t[c] for c in row if c >= 0), q) for row in table]
            change = max(abs(a / b - 1) for a, b in zip(image, t))
            t = image
            if change < mpmath.mpf(10) ** -57:
                break
        root = t[automaton.root]
        return (q - 1) * mpmath.log(root) / mpmath.log(automaton.m)


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

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("name", sorted(DIMS_AUTOMATA))
    def test_kps_dimension_to_rounding(self, name, q):
        # Newton ends the fixed point on rounding, in at most 8 iterations; the
        # plain iteration's stop at a relative step of 1e-14 left 14 to 57 eps
        automaton = DIMS_AUTOMATA[name]()
        with mpmath.workdps(50):
            closed = {
                ("fibonacci", 2): mpmath.log(mpmath.findroot(lambda a: a**3 - 2 * a**2 + a - 1, 1.75), 2),
                ("two_regular_ternary", 2): mpmath.log(2, 3),
                ("two_regular_ternary", 3): mpmath.log(2, 3),
                ("full_shift3", 2): mpmath.mpf(1),
                ("full_shift3", 3): mpmath.mpf(1),
            }
            want = closed[name, q] if (name, q) in closed else mp_kps_dimension(automaton, q)
        got = multiplicative.kps_hausdorff(automaton, q)
        assert abs(got - float(want)) <= 4 * np.finfo(float).eps
        weights, child = multiplicative._state_operator(automaton)
        iterations = thermo.fixed_point(weights[None], child, q, "x")[2]
        assert iterations[0] <= 8

    def test_fixed_point_equation(self):
        # t_v^q = sum over children t_{v'} at every state
        aut = symbolic.fibonacci_automaton()
        sol = multiplicative.kps_solution(aut, 2)
        table = aut.table.tolist()
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

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_optimal_measure_carries_the_dimension(self, q):
        # the entropy series of the KPS measure checks dim_H apart from the root value
        for aut in six_automata():
            measure = telescopic.TelescopicMeasure(base=multiplicative.kps_measure(aut, q), q=q)
            got = telescopic.dimension(measure, tol=1e-13)
            assert got == pytest.approx(multiplicative.kps_hausdorff(aut, q), abs=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_optimal_measure_paths_lie_in_the_set(self, q):
        n = 5000
        for aut in six_automata():
            measure = telescopic.TelescopicMeasure(base=multiplicative.kps_measure(aut, q), q=q)
            path = telescopic.sample(measure, n, seed=q).symbols
            for chain in symbolic.lambda_partition(q, n):
                assert aut.accepts(symbolic.restrict(path, chain))


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

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("name", sorted(DIMS_AUTOMATA))
    def test_brute_force_matches_chain_product(self, name, q):
        # the chains are independent, so the count is the product over the
        # chains of the prefix counts of their lengths; the oracle uses neither
        aut = DIMS_AUTOMATA[name]()
        top = min(20, int(24 * LOG2 / math.log(aut.m) + 1e-9))  # every n the guard allows
        counts = symbolic.prefix_counts_up_to(aut, top)
        for n in range(1, top + 1):
            want = math.prod(counts[len(chain)] for chain in symbolic.lambda_partition(q, n))
            assert multiplicative.brute_force_count(aut, q, n) == want, n

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

    @pytest.mark.parametrize("name, mode", sorted(DIMS_PINS))
    def test_dims_pins(self, name, mode):
        # the box series and the bracket are exact, so their outputs stay bit for
        # bit; the sweep's rounding may move dim_H in its last bits
        report = multiplicative.dims_report(DIMS_AUTOMATA[name](), **DIMS_MODES[mode])
        dim_h, dim_b, residual = DIMS_PINS[name, mode]
        assert report["dim_B"] == dim_b
        assert report["residual"] == residual
        assert report["dim_H"] == pytest.approx(dim_h, abs=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make, full", [(lambda: symbolic.full_shift(2), True),
                                            (symbolic.fibonacci_automaton, False)],
                             ids=["full_shift2", "fibonacci"])
    def test_four_primes_stay_finite(self, make, full):
        # at depth 24,526 the unscaled sweep reaches t = m^{l_k T_k} past the
        # float range; the carried log scale keeps every level finite
        automaton, spec = make(), symbolic.SemigroupSpec((2, 3, 5, 7))
        sol = multiplicative.psss_solution(automaton, spec)
        dim_b = multiplicative.psss_box(automaton, spec, tol=1e-9)
        assert 0.0 < sol.residual < 1e-10
        assert math.isfinite(sol.dimension) and math.isfinite(dim_b)
        upper = sol.dimension + sol.residual / 2
        if full:  # dimension 1, reached by the upper closure
            assert upper == pytest.approx(1.0, abs=1e-14)
        else:
            assert 0.0 < sol.dimension < upper <= dim_b

    def test_non_finite_root_names_the_semigroup(self, monkeypatch, tmp_path, capsys):
        def nan_matrix(kernel, child):
            return np.full((len(child), len(child)), np.nan)

        monkeypatch.setattr(multiplicative, "transition_matrix", nan_matrix)
        spec = symbolic.SemigroupSpec((2, 3))
        with pytest.raises(ConvergenceError, match=r"semigroup \(2, 3\)"):
            multiplicative.psss_solution(symbolic.full_shift(2), spec)
        cfg = tmp_path / "full.json"
        cfg.write_text(symbolic.full_shift(2).to_json())
        assert cli.main(["dims", "--config", str(cfg), "--semigroup", "2,3"]) == cli.EXIT_NUMERIC
        assert "semigroup (2, 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5), (3, 5)])
    def test_bracket_holds_the_full_shift(self, primes):
        # the full shift has dimension 1, reached by the upper closure: so
        # the bracket [dim - residual/2, dim + residual/2] must end at 1
        spec = symbolic.SemigroupSpec(primes)
        for m in (2, 3):
            sol = multiplicative.psss_solution(symbolic.full_shift(m), spec)
            assert sol.dimension + sol.residual / 2 == pytest.approx(1.0, abs=1e-14)
            assert sol.residual > 1e-12
