import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ldplab import (
    BudgetExceeded,
    DegenerateFit,
    DeviationPoint,
    EmptyInterval,
    IncompatibleSupport,
    Interval,
    MarkovMeasure,
    NoConvergence,
    Potential,
    TiltFamily,
    contraction_check,
    deviation_mass_exact,
    deviation_mass_mc,
    deviation_series,
    equilibrium_measure,
    ergodic_range,
    growth_estimate,
    integrate,
    leaf_measure,
    q_derivative,
    q_value,
    rate_curve,
    rate_fit,
    rate_measure,
    rate_scalar,
    recode,
    recommended_tilt,
    validate_spec,
)
from ldplab import ldp
from ldplab.ldp import _detect_lattice

from conftest import GOLDEN_RATIO, bernoulli_potential, golden_lambda, golden_rate


def fs2_q(t):
    """Closed form for the full 2-shift, flat base, indicator observable."""
    return math.log((1 + math.exp(t)) / 2)


def fs2_rate(alpha):
    return math.log(2) + alpha * math.log(alpha) + (1 - alpha) * math.log(1 - alpha)


# ---------------------------------------------------------------------------
# Scaled cumulant


def test_q_zero_tilt(fs2, gm):
    for spec in (fs2, gm):
        assert q_value(spec, Potential.zero(spec), Potential.indicator(spec, 1), 0.0) == 0.0


def test_q_full_shift_closed_form(fs2):
    z, ind1 = Potential.zero(fs2), Potential.indicator(fs2, 1)
    for t in (-2.0, -0.5, 0.3, 1.0, 2.5):
        assert q_value(fs2, z, ind1, t) == pytest.approx(fs2_q(t), abs=1e-12)
    assert fs2_q(1.0) == pytest.approx(0.6201145, abs=1e-7)


def test_q_golden_mean_lower_limit(gm):
    z, ind1 = Potential.zero(gm), Potential.indicator(gm, 1)
    # As t -> -inf the weighted sum collapses onto 1-free words, whose growth
    # is trivial, so q approaches -log(golden ratio) from above.
    floor = -math.log(GOLDEN_RATIO)
    values = [q_value(gm, z, ind1, t) for t in (-2, -5, -10, -20)]
    assert all(v > floor for v in values)
    assert values[-1] == pytest.approx(floor, abs=1e-8)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_q_golden_mean_large_tilt(gm):
    """At t = 40 the tilted chain is nearly 2-periodic (|lam_2 / lam_1| is
    within 1e-8 of 1), which power iteration alone cannot resolve."""
    z, ind1 = Potential.zero(gm), Potential.indicator(gm, 1)
    start = time.perf_counter()
    q = q_value(gm, z, ind1, 40.0)
    elapsed = time.perf_counter() - start
    assert q == pytest.approx(math.log(golden_lambda(40.0)) - math.log(GOLDEN_RATIO), rel=1e-12)
    assert elapsed < 1.0


def test_q_convex_in_t(gm):
    z, ind1 = Potential.zero(gm), Potential.indicator(gm, 1)
    fam = TiltFamily.of(gm, z, ind1)
    ts = np.linspace(-3, 3, 25)
    vals = [fam.q(t) for t in ts]
    assert (np.diff(vals, 2) >= -1e-9).all()


def test_q_derivative_symmetry_and_log3(fs2):
    z, ind1 = Potential.zero(fs2), Potential.indicator(fs2, 1)
    assert q_derivative(fs2, z, ind1, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert q_derivative(fs2, z, ind1, math.log(3)) == pytest.approx(0.75, abs=1e-12)


def test_q_derivative_constant_observable(fs2):
    z = Potential.zero(fs2)
    c = Potential.constant(fs2, 1.7)
    for t in (-1.0, 0.0, 2.0):
        assert q_derivative(fs2, z, c, t) == pytest.approx(1.7, abs=1e-12)


def test_q_equals_pressure_of_combined_potential(gm):
    from ldplab import combine_potentials, pressure
    z = Potential.zero(gm)
    phi = Potential(2, {(0, 0): 0.4, (0, 1): -0.2, (1, 0): 1.1})
    for t in (-0.8, 1.3):
        combined = combine_potentials(gm, z, phi, weight=t)
        expected = pressure(gm, combined) - pressure(gm, z)
        assert q_value(gm, z, phi, t) == pytest.approx(expected, abs=1e-11)


def test_q_derivative_matches_finite_differences(gm):
    z = Potential.zero(gm)
    phi = Potential(1, {(0,): 0.4, (1,): -1.1})
    fam = TiltFamily.of(gm, z, phi)
    h = 1e-6
    for t in (-1.0, 0.7):
        fd = (fam.q(t + h) - fam.q(t - h)) / (2 * h)
        assert fam.q_prime(t) == pytest.approx(fd, abs=1e-8)


# ---------------------------------------------------------------------------
# Ergodic range


def _brute_cycle_means(spec, phi):
    chain = recode(spec, phi.memory)
    n = chain.num_states
    w = [phi.value(s) for s in chain.states]
    means = []
    for length in range(1, n + 1):
        for cyc in itertools.permutations(range(n), length):
            ok = all(chain.adjacency[cyc[i], cyc[(i + 1) % length]] for i in range(length))
            if ok:
                means.append(sum(w[c] for c in cyc) / length)
    return min(means), max(means)


def test_ergodic_range_examples(fs2, gm):
    assert ergodic_range(fs2, Potential.indicator(fs2, 1)) == (0.0, 1.0)
    lo, hi = ergodic_range(gm, Potential.indicator(gm, 1))
    assert (lo, hi) == (0.0, 0.5)
    c = Potential.constant(fs2, 2.0)
    assert ergodic_range(fs2, c) == (2.0, 2.0)


def test_ergodic_range_matches_cycle_enumeration(fs2, gm):
    rng = np.random.default_rng(2)
    for spec in (fs2, gm):
        for _ in range(10):
            vals = rng.normal(size=spec.alphabet_size)
            phi = Potential(1, {(a,): float(vals[a]) for a in range(spec.alphabet_size)})
            lo, hi = ergodic_range(spec, phi)
            blo, bhi = _brute_cycle_means(spec, phi)
            assert lo == pytest.approx(blo, abs=1e-12)
            assert hi == pytest.approx(bhi, abs=1e-12)


def test_ergodic_range_memory_two(gm):
    phi = Potential(2, {(0, 0): 1.0, (0, 1): -2.0, (1, 0): 4.0})
    lo, hi = ergodic_range(gm, phi)
    blo, bhi = _brute_cycle_means(gm, phi)
    assert (lo, hi) == pytest.approx((blo, bhi), abs=1e-12)


# ---------------------------------------------------------------------------
# Scalar rate function


def test_rate_vanishes_at_the_mean(fs2):
    z, ind1 = Potential.zero(fs2), Potential.indicator(fs2, 1)
    assert rate_scalar(fs2, z, ind1, 0.5) == pytest.approx(0.0, abs=1e-10)


def test_rate_closed_form_grid(fs2):
    z, ind1 = Potential.zero(fs2), Potential.indicator(fs2, 1)
    for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert rate_scalar(fs2, z, ind1, alpha) == pytest.approx(fs2_rate(alpha), abs=1e-8)
    assert fs2_rate(0.75) == pytest.approx(0.1308120, abs=1e-7)


def test_rate_outside_range_is_infinite(fs2, gm):
    z, ind1 = Potential.zero(fs2), Potential.indicator(fs2, 1)
    assert rate_scalar(fs2, z, ind1, 1.2) == math.inf
    assert rate_scalar(fs2, z, ind1, -0.1) == math.inf
    assert rate_scalar(gm, Potential.zero(gm), Potential.indicator(gm, 1), 0.6) == math.inf


def test_rate_endpoints_are_monotone_limits(fs2):
    z, ind1 = Potential.zero(fs2), Potential.indicator(fs2, 1)
    curve = rate_curve(fs2, z, ind1, [0.0, 1.0])
    assert curve.boundary == (True, True)
    assert curve.values[0] == pytest.approx(math.log(2), abs=1e-6)
    assert curve.values[1] == pytest.approx(math.log(2), abs=1e-6)


@pytest.mark.parametrize("alpha, expected", [
    (0.499, golden_rate(0.499)),
    (0.5, math.log(GOLDEN_RATIO)),  # the upper end of the ergodic range
])
def test_rate_golden_mean_near_upper_end(gm, alpha, expected):
    z, ind1 = Potential.zero(gm), Potential.indicator(gm, 1)
    start = time.perf_counter()
    rate = rate_scalar(gm, z, ind1, alpha)
    elapsed = time.perf_counter() - start
    assert rate == pytest.approx(expected, rel=1e-9)
    assert elapsed < 1.0


def test_rate_curve_invariants(gm):
    z, ind1 = Potential.zero(gm), Potential.indicator(gm, 1)
    alphas = np.linspace(0.02, 0.48, 24)
    curve = rate_curve(gm, z, ind1, alphas)
    vals = np.array(curve.values)
    assert (vals >= 0).all()
    assert (np.diff(vals, 2) >= -1e-8).all()  # convex along the grid
    mean = integrate(equilibrium_measure(gm, z), ind1)
    below = vals[np.array(curve.alphas) <= mean]
    above = vals[np.array(curve.alphas) >= mean]
    assert (np.diff(below) <= 1e-10).all()   # nonincreasing below the mean
    assert (np.diff(above) >= -1e-10).all()  # nondecreasing above it


def test_tilt_family_raises_when_perron_vector_underflows(fs3_underflow):
    """q' was NaN here and the rate a silent 0.0."""
    fs3, G = fs3_underflow
    ind1 = Potential.indicator(fs3, 1)
    with pytest.raises(NoConvergence):
        q_derivative(fs3, G, ind1, 0.0)
    with pytest.raises(NoConvergence):
        rate_scalar(fs3, G, ind1, 0.2)


def test_rate_at_range_end_caps_bracket_before_underflowing_tilt():
    """At alpha = min phi the bracket grows until the tilted chain cannot be
    computed (t = -200 here); it is capped there, and the rate is the
    zero-temperature limit, the entropy of the shift (the minimum sits on a
    fixed point with zero entropy)."""
    A = [[0, 0, 0, 1], [0, 0, 1, 1], [1, 0, 1, 1], [1, 1, 0, 0]]
    spec = validate_spec(A)
    phi = Potential(1, {(0,): 2.0, (1,): 2.0, (2,): 0.0, (3,): 0.0})
    curve = rate_curve(spec, Potential.zero(spec), phi, [0.0])
    entropy_A = math.log(max(abs(np.linalg.eigvals(np.array(A, dtype=float)))))
    assert curve.boundary == (True,)
    assert curve.tilts == (-128.0,)
    assert curve.values[0] == pytest.approx(entropy_A, rel=1e-12)


def test_duality_double_transform_recovers_q(fs2, gm):
    for spec in (fs2, gm):
        fam = TiltFamily.of(spec, Potential.zero(spec), Potential.indicator(spec, 1))
        for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
            alpha = fam.q_prime(t)
            ts, _ = fam.solve_mean(alpha)
            value = ts * alpha - fam.q(ts)
            assert t * alpha - value == pytest.approx(fam.q(t), abs=1e-6)


# ---------------------------------------------------------------------------
# Measure-level rate


def test_rate_measure_zero_at_equilibrium(fs2, gm):
    for spec in (fs2, gm):
        pot = bernoulli_potential(spec, 0.3)
        mu = equilibrium_measure(spec, pot)
        assert abs(rate_measure(spec, pot, mu)) <= 1e-10


def test_rate_measure_point_mass(fs2):
    chain = recode(fs2, 1)
    P = np.array([[1.0, 0.0], [1.0, 0.0]])
    nu = MarkovMeasure(chain, P, np.array([1.0, 0.0]))
    assert rate_measure(fs2, Potential.zero(fs2), nu) == pytest.approx(math.log(2), abs=1e-12)


def test_rate_measure_bernoulli_relative_entropy(fs2):
    p = 0.3
    pot = bernoulli_potential(fs2, p)
    chain = recode(fs2, 1)
    for q in (0.1, 0.3, 0.5, 0.9):
        P = np.array([[q, 1 - q], [q, 1 - q]])
        nu = MarkovMeasure(chain, P, np.array([q, 1 - q]))
        expected = q * math.log(q / p) + (1 - q) * math.log((1 - q) / (1 - p))
        assert rate_measure(fs2, pot, nu) == pytest.approx(expected, abs=1e-10)


def test_rate_measure_rejects_bad_support(gm):
    chain = recode(gm, 1)
    P = np.array([[0.5, 0.5], [0.5, 0.5]])  # puts mass on the forbidden 11
    nu = MarkovMeasure(chain, P, np.array([2 / 3, 1 / 3]))
    with pytest.raises(IncompatibleSupport):
        rate_measure(gm, Potential.zero(gm), nu)


def test_contraction_scalar_is_infimum(fs2, gm):
    for spec, alpha in ((fs2, 0.7), (gm, 0.35)):
        rep = contraction_check(spec, Potential.zero(spec), Potential.indicator(spec, 1),
                                alpha, samples=40, seed=1)
        assert rep.passed
        assert rep.min_slack >= -1e-8
        assert rep.equality_gap <= 1e-6
        assert rep.max_constraint_residual <= 1e-6


# ---------------------------------------------------------------------------
# Growth estimates on leaves


def test_growth_zero_observable(fs2):
    mu = leaf_measure(fs2, bernoulli_potential(fs2, 0.3), (1,))
    for n in (1, 5, 20):
        assert growth_estimate(mu, Potential.zero(fs2), n) == pytest.approx(0.0, abs=1e-12)


def test_growth_full_shift_exact_form(fs2):
    # From a flat leaf started at 0 the sum factorizes: only the fixed start
    # symbol contributes a boundary term.
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    q = fs2_q(1.0)
    for n in (1, 3, 10, 40):
        assert growth_estimate(mu, ind1, n) == pytest.approx((n - 1) / n * q, abs=1e-12)


def test_growth_matches_direct_leaf_sum(gm):
    # Oracle: sum cylinder_mass * exp(S_n phi) over leaf words directly.
    from ldplab import birkhoff_sum, cylinder_mass, unstable_leaf_words
    pot = bernoulli_potential(gm, 0.3)
    phi = Potential(1, {(0,): -0.2, (1,): 0.9})
    mu = leaf_measure(gm, pot, (0,))
    for n in (1, 4, 7):
        total = 0.0
        for w in unstable_leaf_words(gm, 0, n):
            total += cylinder_mass(mu, w) * math.exp(birkhoff_sum(gm, w[:n], phi))
        assert growth_estimate(mu, phi, n) == pytest.approx(math.log(total) / n, abs=1e-12)


def test_growth_converges_to_q(gm):
    z, ind1 = Potential.zero(gm), Potential.indicator(gm, 1)
    q = q_value(gm, z, ind1, 1.0)
    mu = leaf_measure(gm, z, (1,))
    d20 = abs(growth_estimate(mu, ind1, 20) - q)
    d40 = abs(growth_estimate(mu, ind1, 40) - q)
    assert d40 < d20
    assert d40 <= 1.0 / 40


# ---------------------------------------------------------------------------
# Exact deviation masses


def binomial_tail_mass(n, interval):
    """Oracle: exact mass of {count of ones among n fair bits: avg in L}."""
    total = Fraction(0)
    for k in range(n + 1):
        avg = Fraction(k, n)
        lo_ok = avg >= Fraction(interval.lo) if interval.closed_lo else avg > Fraction(interval.lo)
        hi_ok = avg <= Fraction(interval.hi) if interval.closed_hi else avg < Fraction(interval.hi)
        if lo_ok and hi_ok:
            total += Fraction(math.comb(n, k), 2 ** n)
    return float(total)


def test_deviation_full_range_has_mass_one(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    p = deviation_mass_exact(mu, Potential.indicator(fs2, 1), Interval(0.0, 1.0), 15)
    assert p.mass == pytest.approx(1.0, abs=1e-12)


def test_deviation_binomial_tail(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    iv = Interval(0.7, 1.0)
    p = deviation_mass_exact(mu, ind1, iv, 20)
    assert p.mass == pytest.approx(60460 / 1048576, abs=1e-15)
    assert p.mass == pytest.approx(binomial_tail_mass(20, iv), abs=1e-15)
    for n in (10, 15, 33):
        p = deviation_mass_exact(mu, ind1, iv, n)
        assert p.mass == pytest.approx(binomial_tail_mass(n, iv), rel=1e-12)


def test_deviation_above_ergodic_max_is_zero(gm):
    # The largest possible average of ones over n symbols is ceil(n/2) / n,
    # which is exactly 1/2 at even n and 1/2 + 1/(2n) at odd n; intervals
    # beyond that bound carry no mass.
    mu = leaf_measure(gm, Potential.zero(gm), (0,))
    ind1 = Potential.indicator(gm, 1)
    for n in (6, 12, 30):
        p = deviation_mass_exact(mu, ind1, Interval(0.51, 1.0), n)
        assert p.mass == 0.0
        assert p.log_mass == -math.inf
    for n in (5, 31):
        top = math.ceil(n / 2) / n
        p = deviation_mass_exact(mu, ind1, Interval(top + 1e-9, 1.0), n)
        assert p.mass == 0.0
        assert deviation_mass_exact(mu, ind1, Interval(top - 1e-9, 1.0), n).mass > 0.0


def test_deviation_enumeration_matches_dp(fs2, gm):
    for spec, past in ((fs2, (0,)), (gm, (0,))):
        mu = leaf_measure(spec, bernoulli_potential(spec, 0.3), past)
        ind1 = Potential.indicator(spec, 1)
        for iv in (Interval(0.3, 0.6), Interval(0.0, 0.2, closed_hi=False)):
            for n in (5, 11, 16):
                dp = deviation_mass_exact(mu, ind1, iv, n, mode="dp")
                en = deviation_mass_exact(mu, ind1, iv, n, mode="enumerate")
                assert dp.mass == pytest.approx(en.mass, rel=1e-12, abs=1e-15)
                assert dp.mass_low == dp.mass_high  # lattice case is exact
                assert dp.method == "dp-lattice"


def test_deviation_detects_lattice_once(fs2, monkeypatch):
    calls = []

    def counting(values):
        calls.append(1)
        return _detect_lattice(values)

    monkeypatch.setattr(ldp, "_detect_lattice", counting)
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    p = deviation_mass_exact(mu, Potential.indicator(fs2, 1), Interval(0.7, 1.0), 40)
    assert p.method == "dp-lattice" and len(calls) == 1


def test_deviation_memory_two_observable(gm):
    phi = Potential(2, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0})
    mu = leaf_measure(gm, Potential.zero(gm), (0, 0), block=2)
    iv = Interval(0.5, 1.0)
    for n in (4, 9):
        dp = deviation_mass_exact(mu, phi, iv, n, mode="dp")
        en = deviation_mass_exact(mu, phi, iv, n, mode="enumerate")
        assert dp.mass == pytest.approx(en.mass, rel=1e-12)


def test_deviation_binned_brackets_contain_truth(fs2):
    # Irrational value table: no exact lattice, certified brackets instead.
    phi = Potential(1, {(0,): 0.0, (1,): math.log(2)})
    assert _detect_lattice(np.array([0.0, math.log(2)])) is None
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    iv = Interval(0.4, 0.52)
    for n in (8, 13):
        en = deviation_mass_exact(mu, phi, iv, n, mode="enumerate")
        dp = deviation_mass_exact(mu, phi, iv, n, mode="dp", bin_width=1e-4)
        assert dp.method == "dp-binned"
        assert dp.mass_low - 1e-12 <= en.mass <= dp.mass_high + 1e-12


def test_deviation_nested_intervals_monotone(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    inner = Interval(0.6, 0.8)
    outer = Interval(0.55, 0.9)
    for n in (10, 20):
        mi = deviation_mass_exact(mu, ind1, inner, n).mass
        mo = deviation_mass_exact(mu, ind1, outer, n).mass
        assert mi <= mo + 1e-15


def test_deviation_rejects_empty_interval(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    with pytest.raises(EmptyInterval):
        deviation_mass_exact(mu, Potential.indicator(fs2, 1), Interval(0.8, 0.2), 10)


def test_deviation_budget_exceeded(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    with pytest.raises(BudgetExceeded):
        deviation_mass_exact(mu, Potential.indicator(fs2, 1), Interval(0.7, 1.0), 30,
                             mode="enumerate", budget=100)


def test_deviation_open_versus_closed_boundary(fs2):
    # At n = 10 the lattice point 0.7 itself carries positive mass.
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    closed = deviation_mass_exact(mu, ind1, Interval(0.7, 1.0), 10).mass
    opened = deviation_mass_exact(mu, ind1, Interval(0.7, 1.0, closed_lo=False), 10).mass
    assert closed - opened == pytest.approx(math.comb(10, 7) / 2 ** 10, rel=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_full_range_is_one(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    p = deviation_mass_mc(mu, Potential.indicator(fs2, 1), Interval(0.0, 1.0), 10, 5000, seed=2)
    assert p.mass == 1.0
    assert p.stderr == 0.0


def test_mc_deterministic_given_seed(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    a = deviation_mass_mc(mu, ind1, Interval(0.6, 1.0), 12, 20000, seed=7)
    b = deviation_mass_mc(mu, ind1, Interval(0.6, 1.0), 12, 20000, seed=7)
    assert a.mass == b.mass and a.stderr == b.stderr


def test_mc_naive_matches_exact(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    iv = Interval(0.7, 1.0)
    exact = deviation_mass_exact(mu, ind1, iv, 12).mass
    p = deviation_mass_mc(mu, ind1, iv, 12, 200000, seed=5)
    assert abs(p.mass - exact) <= 4 * p.stderr


def test_mc_tilted_matches_exact_and_shrinks_error(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    iv = Interval(0.7, 1.0)
    exact = deviation_mass_exact(mu, ind1, iv, 20).mass
    t = recommended_tilt(fs2, Potential.zero(fs2), ind1, iv)
    assert t == pytest.approx(math.log(7 / 3), abs=1e-6)
    tilted = deviation_mass_mc(mu, ind1, iv, 20, 100000, tilt=t, seed=11)
    naive = deviation_mass_mc(mu, ind1, iv, 20, 100000, seed=11)
    assert abs(tilted.mass - exact) <= 4 * tilted.stderr
    assert tilted.stderr < naive.stderr


def test_mc_tilted_and_naive_agree(gm):
    mu = leaf_measure(gm, Potential.zero(gm), (0,))
    ind1 = Potential.indicator(gm, 1)
    iv = Interval(0.4, 0.5)
    t = recommended_tilt(gm, Potential.zero(gm), ind1, iv)
    a = deviation_mass_mc(mu, ind1, iv, 15, 150000, tilt=t, seed=3)
    b = deviation_mass_mc(mu, ind1, iv, 15, 150000, seed=3)
    joint = math.hypot(a.stderr, b.stderr)
    assert abs(a.mass - b.mass) <= 3 * joint


def test_mc_multiseed_unbiasedness(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    iv = Interval(0.7, 1.0)
    exact = deviation_mass_exact(mu, ind1, iv, 14).mass
    t = recommended_tilt(fs2, Potential.zero(fs2), ind1, iv)
    estimates, variances = [], []
    for seed in range(20):
        p = deviation_mass_mc(mu, ind1, iv, 14, 20000, tilt=t, seed=seed)
        estimates.append(p.mass)
        variances.append(p.stderr ** 2)
    avg = float(np.mean(estimates))
    combined = math.sqrt(sum(variances)) / len(estimates)
    assert abs(avg - exact) <= 4 * combined


def test_recommended_tilt_zero_when_interval_contains_mean(fs2):
    z, ind1 = Potential.zero(fs2), Potential.indicator(fs2, 1)
    assert recommended_tilt(fs2, z, ind1, Interval(0.4, 0.6)) == 0.0


# ---------------------------------------------------------------------------
# Rate fitting


def test_fit_recovers_pure_exponential():
    c = 0.375
    pts = [DeviationPoint(n, math.exp(-c * n), -c * n, "dp-binned") for n in range(50, 400, 50)]
    fit = rate_fit(pts)
    assert fit.estimate == pytest.approx(c, abs=1e-10)
    assert fit.b == pytest.approx(0.0, abs=1e-8)
    assert fit.residual <= 1e-12


def test_fit_constant_mass_gives_zero_rate():
    pts = [DeviationPoint(n, 1.0, 0.0, "dp-binned") for n in (10, 20, 30, 40, 50)]
    fit = rate_fit(pts)
    assert fit.estimate == pytest.approx(0.0, abs=1e-12)


def test_fit_needs_four_positive_points():
    pts = [DeviationPoint(n, 0.0, -math.inf, "dp-binned") for n in (10, 20, 30, 40)]
    with pytest.raises(DegenerateFit):
        rate_fit(pts)
    with pytest.raises(DegenerateFit):
        rate_fit([DeviationPoint(10, 0.5, math.log(0.5), "dp-binned")] * 3)


def test_fit_binomial_series_approaches_rate(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    iv = Interval(0.7, 1.0)
    series = deviation_series(mu, ind1, iv, range(100, 301, 50))
    fit = rate_fit(series)
    assert fit.estimate == pytest.approx(fs2_rate(0.7), abs=0.005)
    assert fit.b == pytest.approx(0.5, abs=0.2)  # local-limit prefactor
    assert fit.monotone


def test_sandwich_band_for_tail_rates(fs2):
    """The finite-n decay exponents of a closed upper-tail set settle into
    [rate - 0.01, rate + log(n)/n + 0.01]."""
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    beta = 0.7
    series = deviation_series(mu, ind1, Interval(beta, 1.0), range(200, 501, 50))
    rate = fs2_rate(beta)
    for p in series.points:
        y = -p.log_mass / p.n
        assert rate - 0.01 <= y <= rate + math.log(p.n) / p.n + 0.01


def test_fit_accepts_series_object(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    series = deviation_series(mu, Potential.indicator(fs2, 1), Interval(0.6, 1.0),
                              [20, 30, 40, 50])
    assert rate_fit(series).estimate > 0


# ---------------------------------------------------------------------------
# Interval plumbing


def test_interval_parse_and_membership():
    iv = Interval.parse("0.7:1")
    assert iv == Interval(0.7, 1.0)
    assert iv.contains(0.7) and iv.contains(1.0) and not iv.contains(0.69)
    half_open = Interval(0.2, 0.4, closed_hi=False)
    assert half_open.contains(0.2) and not half_open.contains(0.4)
    assert Interval(0.5, 0.2).is_empty()
    assert Interval(0.3, 0.3, closed_lo=False).is_empty()
    assert not Interval(0.3, 0.3).is_empty()
