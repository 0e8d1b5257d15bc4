"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 1 checks the closed form 1 - 1/N + H((1+a)/2) / (N log 2) of the
Rademacher spectrum at depth 2 and depth 3. Its normaliser N is q^{d-1}, the
same one ``legendre_spectrum`` divides by: the positions k with q^{d-1} | k
are the ones not free on their chain, and they have density 1/q^{d-1}. The
criterion as first stated wrote N = d, which agrees with q^{d-1} only at
q = d = 2; the depth-3 test shows why the N = d form is wrong at (q, d) =
(2, 3).
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from multifract import multiplicative, riesz, symbolic, telescopic, thermo, walks

LOG2 = math.log(2)


def entropy(t):
    if t in (0.0, 1.0):
        return 0.0
    return -t * math.log(t) - (1 - t) * math.log(1 - t)


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_closed_form_spectrum_d2():
    start = time.time()
    phi = thermo.rademacher_potential(2, 2)
    worst = 0.0
    for a in np.linspace(-0.95, 0.95, 101):
        got = thermo.legendre_spectrum(phi, float(a))
        want = 1 - 0.5 + entropy((1 + a) / 2) / (2 * LOG2)
        worst = max(worst, abs(got - want))
    elapsed = time.time() - start
    report("1 (d=2)", worst < 1e-6 and elapsed < 60, f"max_err={worst:.3g}, {elapsed:.1f}s")


def _closed_form_error(phi, normaliser, grid):
    """Max over the grid of |legendre_spectrum - (1 - 1/N + H((1+a)/2) / (N log 2))|."""
    return max(
        abs(
            thermo.legendre_spectrum(phi, float(a))
            - (1 - 1 / normaliser + entropy((1 + a) / 2) / (normaliser * LOG2))
        )
        for a in grid
    )


def _all_ones_chain_automaton():
    """Chains y_0 y_1 ... with y_j y_{j+1} y_{j+2} = +1 for every j (sign of symbol a is 2a-1).

    States are the last (at most two) symbols read; y_0 and y_1 are free and
    every later symbol is forced.
    """
    transitions = {("", 0): "0", ("", 1): "1"}
    for a in (0, 1):
        for b in (0, 1):
            transitions[(str(a), b)] = f"{a}{b}"
            c = (a + b + 1) % 2  # an even number of minus signs among y_j, y_{j+1}, y_{j+2}
            transitions[(f"{a}{b}", c)] = f"{b}{c}"
    states = ("", "0", "1", "00", "01", "10", "11")
    return symbolic.PrefixAutomaton(m=2, states=states, initial="", transitions=transitions)


def test_criterion_01_closed_form_spectrum_d3_as_stated():
    """The stated depth-3 closed form, with its normaliser written as q^{d-1}.

    The criterion was stated as 1 - 1/3 + H((1+a)/2) / (3 log 2) for the
    spectrum of ``rademacher_potential(2, 3)``, the average of
    x_k x_{2k} x_{4k}. It wrote the normaliser as d = 3, but the formalism
    normalises by q^{d-1} = 4. The two agree only at q = d = 2. The N = 3
    value is the right one for ``rademacher_potential(3, 2)``, where
    q^{d-1} = 3. It is also the value ``riesz.walsh_spectrum(3, a)`` gives
    for the arithmetic average of x_k x_{2k} x_{3k}.

    The N = 3 form is wrong at (2, 3), not merely different: the alpha = 1
    level set of x_k x_{2k} x_{4k} contains the set whose every chain
    y_j = x_{i 2^j} (i odd) has y_j y_{j+1} y_{j+2} = +1. That set has Hausdorff
    dimension 3/4 (KPS, q = 2), while the N = 3 form gives 2/3 at alpha = 1.
    """
    grid = np.linspace(-0.95, 0.95, 101)
    q, d = 2, 3
    worst = _closed_form_error(thermo.rademacher_potential(q, d), q ** (d - 1), grid)
    worst_32 = _closed_form_error(thermo.rademacher_potential(3, 2), 3, grid[::5])

    subset = _all_ones_chain_automaton()
    for word in itertools.product((0, 1), repeat=6):
        signs = [2 * a - 1 for a in word]
        forced = all(signs[j] * signs[j + 1] * signs[j + 2] == 1 for j in range(4))
        assert subset.accepts(word) == forced, word
    dim_subset = multiplicative.kps_hausdorff(subset, 2)
    stated_at_one = 1 - 1 / 3 + entropy(1.0) / (3 * LOG2)
    # the endpoints alpha = +/-1: the N = 4 form gives 3/4 there, and each
    # level set contains the subset above or its sign flip
    ends = [thermo.legendre_spectrum(thermo.rademacher_potential(q, d), a) for a in (-1.0, 1.0)]
    ok = (
        worst < 1e-6
        and worst_32 < 1e-6
        and abs(dim_subset - 0.75) < 1e-12
        and stated_at_one < dim_subset
        and all(abs(v - 0.75) < 1e-9 and v >= dim_subset - 1e-12 for v in ends)
    )
    report(
        "1 (d=3, normaliser q^(d-1))",
        ok,
        f"max_err={worst:.3g}, (q,d)=(3,2) N=3 max_err={worst_32:.3g}, "
        f"dim_H(alpha=1 subset)={dim_subset!r} > stated {stated_at_one:.6f}, "
        f"spectrum at alpha=-1, 1: {ends}",
    )


def test_criterion_02_x2_hausdorff():
    roots = np.roots([1.0, -2.0, 1.0, -1.0])
    root = next(r.real for r in roots if abs(r.imag) < 1e-12)
    want = math.log(root) / LOG2
    got = multiplicative.kps_hausdorff(symbolic.fibonacci_automaton(), 2)
    report(2, abs(got - want) < 1e-9, f"dim_H={got:.12f}, err={abs(got - want):.3g}")


def test_criterion_03_x2_box():
    aut = symbolic.fibonacci_automaton()
    series = multiplicative.fibonacci_box_x2(1e-6)
    generic = multiplicative.kps_box(aut, 2, tol=1e-7)
    gap = abs(series - generic)
    counts_ok = all(
        multiplicative.exact_count_x2(n) == multiplicative.brute_force_count(aut, 2, n)
        for n in range(1, 25)
    )
    ok = gap < 2e-6 and abs(series - 0.82429) < 1e-4 and counts_ok
    report(3, ok, f"dim_B={series:.8f}, gap={gap:.3g}, counts n<=24 {'ok' if counts_ok else 'BAD'}")


def test_criterion_04_legendre_ruelle_duality():
    worst_dual = 0.0
    worst_tele = 0.0
    for phi in (thermo.indicator_potential(2, 2), thermo.rademacher_potential(2, 2)):
        for s in range(-3, 4):
            s = float(s)
            alpha = thermo.pressure_derivative(phi, s)
            ruelle = thermo.ruelle_dimension(phi, s)
            worst_dual = max(worst_dual, abs(ruelle - thermo.legendre_spectrum(phi, alpha)))
            base = telescopic.BaseMeasure.from_markov_spec(thermo.markov_measure(phi, s))
            tele = telescopic.dimension(telescopic.TelescopicMeasure(base=base, q=2), 1e-12)
            worst_tele = max(worst_tele, abs(tele - ruelle))
    ok = worst_dual < 1e-8 and worst_tele < 1e-8
    report(4, ok, f"legendre_gap={worst_dual:.3g}, telescopic_gap={worst_tele:.3g}")


def test_criterion_05_uniform_telescopic_dimension():
    measure = telescopic.TelescopicMeasure(base=telescopic.BaseMeasure.uniform(2), q=2)
    got = telescopic.dimension(measure, tol=1e-10)
    report(5, abs(got - 1.0) <= 1e-10, f"dim={got!r}")


def test_criterion_06_level_set_sampling():
    phi = thermo.indicator_potential(2, 2)
    s = thermo.solve_pressure_slope(phi, 0.5)
    base = telescopic.BaseMeasure.from_markov_spec(thermo.markov_measure(phi, s))
    measure = telescopic.TelescopicMeasure(base=base, q=2)
    n = 100_000
    devs = [
        abs(
            telescopic.empirical_multiple_average(
                telescopic.sample(measure, 2 * n, seed), phi, n
            )
            - 0.5
        )
        for seed in range(200)
    ]
    med = float(np.median(devs))
    report(6, med < 0.01, f"median |A_n - 0.5| = {med:.5f} over 200 paths")


def _prop43_max_defect(system, s, paths, length, seed):
    """Max over paths/prefixes of |log mu([x_1..x_n]) - <s,S_n> + n P(s)|."""
    s_arr = np.asarray(s, dtype=float)
    data = walks.walk_pressure(system, s)
    t, logp = data.t, data.pressure
    denom = math.log(sum(t[b % system.p] for b in system.steps))
    words = walks.sample_paths(system, s, length, paths, seed)
    worst = 0.0
    for row in words:
        w = 0
        log_mass = 0.0
        drift = 0.0
        for k, a in enumerate(row):
            w = (w + int(a)) % system.p
            drive = float(s_arr @ system.orbit[w])
            drift += drive
            if k == 0:
                log_mass += math.log(t[w]) - denom
            else:
                log_mass += math.log(t[w]) + drive - logp - math.log(t[prev])
            prev = w
            worst = max(worst, abs(log_mass - drift + (k + 1) * logp))
    return worst


def test_criterion_07_oriented_walks():
    worst1 = max(
        abs(walks.walk_spectrum(walks.case1(), [float(a)]) - walks.closed_form_case1(float(a)))
        for a in np.linspace(-0.95, 0.95, 21)
    )
    worst2 = max(
        abs(walks.walk_spectrum(walks.case2(), [a, b]) - walks.closed_form_case2(a, b))
        for a in np.linspace(-0.45, 0.45, 7)
        for b in np.linspace(-0.45, 0.45, 7)
    )
    prop43_ok = True
    for system, s in [(walks.case1(), [0.8]), (walks.case2(), [0.4, -0.3])]:
        bound = walks.evolution_bound(system, s)
        defect = _prop43_max_defect(system, s, paths=100, length=1000, seed=11)
        prop43_ok = prop43_ok and defect <= bound + 1e-9
    feller_exact = all(
        walks.feller_second_moment(math.pi, n) == pytest.approx((1 - (-1) ** n) / 2, abs=1e-12)
        for n in range(1, 12)
    )
    trials = 200_000
    mc = walks.feller_monte_carlo(math.pi / 2, 100, trials, seed=29)
    # var(L_n^2) ~ 2 n^2 at the right angle; 3 sigma of the MC mean
    mc_ok = abs(mc - 100) < 3 * math.sqrt(2.0) * 100 / math.sqrt(trials)
    ok = worst1 < 1e-6 and worst2 < 1e-6 and prop43_ok and feller_exact and mc_ok
    report(
        7,
        ok,
        f"case1_err={worst1:.3g}, case2_err={worst2:.3g}, prop43={prop43_ok}, "
        f"feller_exact={feller_exact}, mc={mc:.2f}",
    )


def test_criterion_08_riesz_walsh():
    worst_sum = 0.0
    m = riesz.WalshRieszMeasure(2, 0.6)
    for n in (1, 2, 3, 8, 12, 16):
        total = sum(
            riesz.cylinder_mass(m, u) for u in itertools.product((1, -1), repeat=n)
        )
        worst_sum = max(worst_sum, abs(total - 1.0))
    worst_avg = 0.0
    for b in (-0.8, -0.4, 0.0, 0.4, 0.8):
        path = riesz.sample(riesz.WalshRieszMeasure(2, b), 200_000, seed=41)
        worst_avg = max(worst_avg, abs(riesz.walsh_average(path, 2, 100_000) - b))
    ok = worst_sum < 1e-12 and worst_avg < 0.01
    report(8, ok, f"mass_defect={worst_sum:.3g}, avg_err={worst_avg:.4f}")


def test_criterion_09_common_periodic_points():
    points = riesz.common_periodic_points(4, 4)
    exact_ok = points == [Fraction(k, 5) for k in range(1, 5)]
    orbits_ok = True
    for n in range(1, 11):
        for mm in range(1, 11):
            for x in riesz.common_periodic_points(n, mm):
                orbits_ok = orbits_ok and n % len(riesz.multiplication_orbit(x, 2)) == 0
                orbits_ok = orbits_ok and mm % len(riesz.multiplication_orbit(x, 3)) == 0
    report(9, exact_ok and orbits_ok, f"(4,4)->{points}, grid_ok={orbits_ok}")


def test_criterion_10_convexity_and_range():
    worst_defect = 0.0
    for phi in (thermo.indicator_potential(2, 2), thermo.rademacher_potential(2, 3)):
        values = np.array([thermo.pressure(phi, float(s)) for s in np.linspace(-6, 6, 121)])
        worst_defect = min(worst_defect, float(np.min(np.diff(values, 2))))
    rng = np.random.default_rng(3)
    for system in (walks.case1(), walks.case2()):
        for _ in range(3):
            u = rng.normal(size=system.dim)
            w = rng.normal(size=system.dim)
            values = np.array(
                [walks.pressure(system, u * r + w) for r in np.linspace(-2, 2, 41)]
            )
            worst_defect = min(worst_defect, float(np.min(np.diff(values, 2))))
    in_range = True
    phi = thermo.rademacher_potential(2, 2)
    for a in np.linspace(-0.95, 0.95, 39):
        v = thermo.legendre_spectrum(phi, float(a))
        in_range = in_range and 0.0 <= v <= 1.0 + 1e-12
    for a in np.linspace(-0.95, 0.95, 39):
        v = walks.walk_spectrum(walks.case1(), [float(a)])
        in_range = in_range and 0.0 <= v <= 1.0 + 1e-12
    ok = worst_defect >= -1e-9 and in_range
    report(10, ok, f"min_second_diff={worst_defect:.3g}, spectra_in_[0,1]={in_range}")
