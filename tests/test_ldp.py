import dataclasses
import itertools
import math
import time
import tracemalloc
import warnings
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
    LdplabError,
    MarkovMeasure,
    NoConvergence,
    Potential,
    RPFData,
    TiltFamily,
    ValidationError,
    admissible_words,
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
from ldplab import ldp, thermo
from ldplab.ldp import _detect_lattice
from ldplab.thermo import phi_vector

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


def _dense_karp_range(spec, phi):
    """Reference: Karp over the dense adjacency, one loop per node and length."""
    chain = recode(spec, phi.memory)
    adj = chain.adjacency.astype(bool)
    n = chain.num_states

    def min_mean(w):
        D = np.full((n + 1, n), np.inf)
        D[0, 0] = 0.0
        for k in range(n):
            D[k + 1] = np.where(adj, D[k][:, None] + w[:, None], np.inf).min(axis=0)
        return min(max((D[n, v] - D[k, v]) / (n - k) for k in range(n) if np.isfinite(D[k, v]))
                   for v in range(n) if np.isfinite(D[n, v]))

    w = np.array([phi.value(s) for s in chain.states])
    return float(min_mean(w)), float(-min_mean(-w))


def _exact_karp_range(spec, phi):
    """Reference: Karp's ``min_v max_k (D_n(v) - D_k(v)) / (n - k)`` in exact
    rationals, so each end is the exact extreme cycle mean, then rounded."""
    chain = recode(spec, phi.memory)
    n = chain.num_states
    edges = list(zip(*np.nonzero(chain.adjacency)))

    def min_mean(w):
        D = [[None] * n for _ in range(n + 1)]
        D[0][0] = Fraction(0)
        for k in range(n):
            for a, b in edges:
                if D[k][a] is not None and (D[k + 1][b] is None or D[k][a] + w[a] < D[k + 1][b]):
                    D[k + 1][b] = D[k][a] + w[a]
        return min(max((D[n][v] - D[k][v]) / (n - k) for k in range(n) if D[k][v] is not None)
                   for v in range(n) if D[n][v] is not None)

    w = [Fraction(phi.value(s)) for s in chain.states]
    return float(min_mean(w)), float(-min_mean([-x for x in w]))


def test_ergodic_range_examples(fs2, gm):
    assert ergodic_range(fs2, Potential.indicator(fs2, 1)) == (0.0, 1.0)
    assert math.copysign(1.0, ergodic_range(fs2, Potential.indicator(fs2, 1))[0]) == 1.0
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
    words = [w for w in itertools.product((0, 1), repeat=3) if (1, 1) not in (w[:2], w[1:])]
    phi = Potential(3, {w: float(v) for w, v in zip(words, rng.normal(size=len(words)))})
    assert ergodic_range(gm, phi) == pytest.approx(_brute_cycle_means(gm, phi), abs=1e-12)


def test_ergodic_range_is_the_exact_extreme_cycle_mean():
    """Each end is the exact extreme cycle mean, correctly rounded; float
    Karp, a difference of long walk sums, may sit an ulp off it."""
    rng = np.random.default_rng(11)
    A = [[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 1], [1, 0, 1, 0]]
    spec = validate_spec(A)
    for memory in (1, 2, 3):
        words = [w for w in itertools.product(range(4), repeat=memory)
                 if all(A[a][b] for a, b in zip(w, w[1:]))]
        for vals in (rng.normal(size=len(words)), rng.integers(-3, 4, size=len(words))):
            phi = Potential(memory, {w: float(v) for w, v in zip(words, vals)})
            exact = _exact_karp_range(spec, phi)
            assert ergodic_range(spec, phi) == exact
            assert rate_curve(spec, Potential.zero(spec), phi, []).alpha_range == exact
            assert exact == pytest.approx(_dense_karp_range(spec, phi), rel=1e-13)


def test_ergodic_range_raises_at_the_iteration_cap(fs2, monkeypatch):
    """The first policy sends each state to its heaviest successor, the first
    on ties: state 00 loops on itself with mean 0 while 11's loop has mean
    1, so one iteration cannot certify the range."""
    phi = Potential(2, {w: float(w == (1, 1)) for w in itertools.product((0, 1), repeat=2)})
    assert ergodic_range(fs2, phi) == (0.0, 1.0)
    monkeypatch.setattr(ldp, "_HOWARD_MAX_ITER", 1)
    with pytest.raises(NoConvergence):
        ergodic_range(fs2, phi)


def test_ergodic_range_at_eight_thousand_states():
    """Policy iteration keeps O(edges) memory: Karp's table was 2.45 GB here."""
    m = 20
    spec = validate_spec([[1] * m] * m)
    f = np.random.default_rng(7).normal(size=m)
    phi = Potential(3, {w: float(f[w[0]]) for w in itertools.product(range(m), repeat=3)})
    start = time.perf_counter()
    assert ergodic_range(spec, phi) == (f.min(), f.max())
    assert time.perf_counter() - start < 1.0
    chain = recode(spec, 3)
    w = phi_vector(chain, phi)
    tracemalloc.start()
    try:
        ldp._cycle_range(chain, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20


def test_ergodic_range_memory_two(gm):
    phi = Potential(2, {(0, 0): 1.0, (0, 1): -2.0, (1, 0): 4.0})
    lo, hi = ergodic_range(gm, phi)
    blo, bhi = _brute_cycle_means(gm, phi)
    assert (lo, hi) == pytest.approx((blo, bhi), abs=1e-12)


def test_ergodic_range_full_shift_memory_three():
    """Howard over the successor table: 1,728 states and 20,736 edges.  Every
    constant word is a fixed point, so the range of f(w[0]) is its min/max."""
    m = 12
    spec = validate_spec([[1] * m] * m)
    f = np.random.default_rng(7).normal(size=m)
    phi = Potential(3, {w: float(f[w[0]]) for w in itertools.product(range(m), repeat=3)})
    start = time.perf_counter()
    lo, hi = ergodic_range(spec, phi)
    elapsed = time.perf_counter() - start
    assert lo == pytest.approx(f.min(), rel=1e-12)
    assert hi == pytest.approx(f.max(), rel=1e-12)
    assert elapsed < 2.0


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


def _same_rates(spec, base, obs, alphas):
    """``rate_scalar`` against ``rate_curve(...).values[0]`` at each alpha,
    compared with ``==``; a :class:`NoConvergence` must be raised by both."""
    def outcome(call):
        try:
            return call()
        except NoConvergence:
            return "NoConvergence"

    for a in alphas:
        assert outcome(lambda: rate_scalar(spec, base, obs, a)) == \
            outcome(lambda: rate_curve(spec, base, obs, [a]).values[0]), a


def test_rate_scalar_is_rate_curve_bit_for_bit():
    """``rate_scalar`` runs Howard only where q'(-1) and q'(1) do not certify
    alpha interior; its value must still be ``rate_curve``'s to the bit: at
    and one ulp either side of the range ends, at q'(+-1) +- 1e-10 and
    2e-10, outside the range and at interior points on either side of
    q'(1), on random primitive chains of memory 1-3 with 2 to 60 states."""
    rng = np.random.default_rng(20261018)
    checked = 0
    while checked < 8:
        m, k = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        try:
            spec = validate_spec((rng.random((m, m)) < 0.6).astype(int))
        except LdplabError:
            continue
        states = recode(spec, k).states
        if len(states) > 60:
            continue
        checked += 1
        G = Potential(k, dict(zip(states, 2.0 * rng.standard_normal(len(states)))))
        phi = Potential(k, dict(zip(states, rng.standard_normal(len(states)))))
        lo, hi = ergodic_range(spec, phi)
        fam = TiltFamily.of(spec, G, phi)
        qm, qp = fam.q_prime(-1.0), fam.q_prime(1.0)
        ends = [x for e in (lo, hi) for x in (e, np.nextafter(e, -math.inf), np.nextafter(e, math.inf))]
        near_q = [q + d for q in (qm, qp) for d in (-2e-10, -1e-10, 1e-10, 2e-10)]
        inner = [0.5 * (lo + hi), 0.5 * (qm + qp), 0.25 * qm + 0.75 * qp, 0.5 * (qp + hi)]
        _same_rates(spec, G, phi, [float(a) for a in ends + near_q + inner + [lo - 1.0, hi + 1.0]])


def test_rate_of_observable_cohomologous_to_a_constant_is_exactly_zero(gm):
    """obs = c + g(x_1) - g(x_0) has every invariant mean equal to c, so q'
    is c up to rounding at every tilt and cannot certify any alpha interior;
    Howard's range is exactly [c, c] (dyadic values) and the rate at c is 0.0."""
    c, g = 0.75, (3.0, -2.0)
    obs = Potential(2, {(a, b): c + g[b] - g[a] for a, b in itertools.product((0, 1), repeat=2)
                        if (a, b) != (1, 1)})
    G = Potential(1, {(0,): 0.3, (1,): -1.1})
    assert ergodic_range(gm, obs) == (c, c)
    assert rate_scalar(gm, G, obs, c) == 0.0
    _same_rates(gm, G, obs, [c, c - 1e-10, c + 1e-10, c - 1.0, c + 1.0])


def test_rate_at_a_computed_mean_one_ulp_off_a_one_point_range_is_zero(gm):
    """A constant observable's computed q'(0) lands one ulp above its one-point
    range [1.375, 1.375]; the rate there is t q'(t) - q(t) = 0, not inf."""
    base, obs = Potential.zero(gm), Potential.constant(gm, 1.375)
    alpha = q_derivative(gm, base, obs, 0.0)
    assert alpha == 1.3750000000000002 and ergodic_range(gm, obs) == (1.375, 1.375)
    assert rate_scalar(gm, base, obs, alpha) == 0.0
    assert rate_curve(gm, base, obs, [alpha]).values == (0.0,)
    assert rate_scalar(gm, base, obs, 1.375 + 1e-12) == math.inf


def test_rate_scalar_falls_back_to_karp_when_q_prime_fails(fs2):
    """The spec of ``test_rate_bracket_stops_where_perron_vector_underflows``
    with phi scaled by 128, so q'(-1) and q'(1) underflow: outside the range
    both paths return inf, inside both raise."""
    G = Potential(2, dict(zip(itertools.product((0, 1), repeat=2), (-10.0, -38.0, -47.0, -30.0))))
    phi = Potential(1, {(0,): 384.0, (1,): 0.0})
    fam = TiltFamily.of(fs2, G, phi)
    for t in (-1.0, 1.0):
        with pytest.raises(NoConvergence):
            fam.q_prime(t)
    assert rate_scalar(fs2, G, phi, -1.0) == rate_scalar(fs2, G, phi, 400.0) == math.inf
    for a in (0.0, 192.0, 384.0):
        with pytest.raises(NoConvergence):
            rate_scalar(fs2, G, phi, a)
    _same_rates(fs2, G, phi, [-1.0, 0.0, 192.0, 384.0, 400.0])


def test_tilt_family_raises_when_perron_vector_underflows(fs3_underflow):
    """q' was NaN here and the rate a silent 0.0."""
    fs3, G = fs3_underflow
    ind1 = Potential.indicator(fs3, 1)
    with pytest.raises(NoConvergence):
        q_derivative(fs3, G, ind1, 0.0)
    with pytest.raises(NoConvergence):
        rate_scalar(fs3, G, ind1, 0.2)


def test_rate_at_range_end_caps_bracket_before_underflowing_tilt():
    """At alpha = min phi the bracket grows to the tilt cap t = -200.  The
    assembled chain underflows there, but the Perron vectors stay positive
    (smallest entry ~4e-174), so q' is defined.  The rate is the
    zero-temperature limit, the entropy of the shift (the minimum sits on a
    fixed point with zero entropy)."""
    A = [[0, 0, 0, 1], [0, 0, 1, 1], [1, 0, 1, 1], [1, 1, 0, 0]]
    spec = validate_spec(A)
    phi = Potential(1, {(0,): 2.0, (1,): 2.0, (2,): 0.0, (3,): 0.0})
    curve = rate_curve(spec, Potential.zero(spec), phi, [0.0])
    entropy_A = math.log(max(abs(np.linalg.eigvals(np.array(A, dtype=float)))))
    assert curve.boundary == (True,)
    assert curve.tilts == (-200.0,)
    assert curve.values[0] == 0.6493991957832603
    assert curve.values[0] == pytest.approx(entropy_A, rel=1e-12)


def test_rate_bracket_stops_where_perron_vector_underflows(fs2):
    """At alpha = min phi the bracket grows until a Perron vector itself
    underflows (q' raises at t = -128); it stops at t = -64, and the rate is
    the zero-temperature limit P(G) - G(11) = log rho(W_G) + 30."""
    G = Potential(2, dict(zip(itertools.product((0, 1), repeat=2), (-10.0, -38.0, -47.0, -30.0))))
    phi = Potential(1, {(0,): 3.0, (1,): 0.0})
    fam = TiltFamily.of(fs2, G, phi)
    with pytest.raises(NoConvergence):
        fam.q_prime(-128.0)
    curve = rate_curve(fs2, G, phi, [0.0])
    assert curve.boundary == (True,)
    assert curve.tilts == (-64.0,)
    assert curve.values[0] == pytest.approx(math.log(fam.rpf(0.0).eigenvalue) + 30.0, rel=1e-12)
    assert curve.values[0] == pytest.approx(20.0, rel=1e-12)


def test_golden_q_prime_matches_closed_form(gm):
    """q'(t) = lam'(t) / lam(t) = e^t / (lam (2 lam - 1)), from lam^2 = lam + e^t;
    the family's eigendata carries a bracket of lam.  At t <= -40 the tiny
    entry of a Perron vector carries q'; from a flat start power iteration
    stopped before that entry converged, and q'(-40) came out halved
    (``abs=0.0``: approx's default absolute slack of 1e-12 hides that).  The
    dense start solves t = 200 in one step, where the flat start took 155."""
    fam = TiltFamily.of(gm, Potential.zero(gm), Potential.indicator(gm, 1))
    for t in (-200.0, -100.0, -40.0, -2.0, -1.0, 0.0, 1.0, 2.0, 5.0, 10.0, 40.0, 200.0, 500.0):
        lam = golden_lambda(t)
        want = math.exp(t) / (lam * (2 * lam - 1))
        assert fam.q_prime(t) == pytest.approx(want, rel=1e-12, abs=0.0)
        rpf = fam.rpf(t)
        assert isinstance(rpf, RPFData)
        assert rpf.lower <= lam <= rpf.upper
    assert fam.rpf(200.0).iterations <= 2


def test_rate_curve_solves_no_matrix_twice(gm, monkeypatch):
    """Each alpha's bracket revisits the tilts +-1, +-2, +-4, ...; the family
    solves each of them once."""
    calls = []

    def counting(M, *args):
        calls.append(M.matrix.tobytes())
        return solve(M, *args)

    solve = thermo.rpf_solve
    monkeypatch.setattr(thermo, "rpf_solve", counting)
    rate_curve(gm, Potential.zero(gm), Potential.indicator(gm, 1), np.linspace(0.0, 0.5, 61))
    assert calls and len(set(calls)) == len(calls)


def _count_solves(monkeypatch):
    calls = []
    solve = thermo.rpf_solve
    monkeypatch.setattr(thermo, "rpf_solve", lambda *args: calls.append(1) or solve(*args))
    return calls


def test_rate_scalar_skips_decided_midpoints(fs2, monkeypatch):
    """At fs2, alpha = 23/24 the plain bisection solved 33 tilts; solving
    only the midpoints that no solved tilt decides, each after at most one
    interpolated probe, takes at most 12."""
    calls = _count_solves(monkeypatch)
    value = rate_scalar(fs2, Potential.zero(fs2), Potential.indicator(fs2, 1), 23 / 24)
    assert value == pytest.approx(fs2_rate(23 / 24), rel=1e-9)
    assert 0 < len(calls) <= 12


def test_rate_sweep_solve_count(monkeypatch):
    """The sweep whose Perron solves CI prints, golden-mean ``rate_curve``
    over 61 alphas and fs2 ``rate_scalar`` at 23 alphas, takes at most 700
    solves."""
    fs2, gm = validate_spec([[1, 1], [1, 1]]), validate_spec([[1, 1], [1, 0]])
    calls = _count_solves(monkeypatch)
    rate_curve(gm, Potential.zero(gm), Potential.indicator(gm, 1), np.linspace(0.0, 0.5, 61))
    for k in range(1, 24):
        rate_scalar(fs2, Potential.zero(fs2), Potential.indicator(fs2, 1), k / 24)
    assert 0 < len(calls) <= 700


def test_solve_mean_guides_no_early_stop(gm, monkeypatch):
    """``alpha = q'(0.5)`` stops at the second midpoint; probes wait for a
    third undecided one, so a 34-state chain (flat starts) solves the plain
    bisection's 4 tilts: -1, 1, 0 and 0.5."""
    chain = recode(gm, 7)
    pvec = phi_vector(chain, Potential.indicator(gm, 1))

    def family():
        return TiltFamily(chain, chain.adjacency.astype(np.float64), np.zeros(34), pvec)

    alpha = family().q_prime(0.5)
    calls = _count_solves(monkeypatch)
    assert family().solve_mean(alpha) == (0.5, False)
    assert len(calls) == 4


def test_rate_scalar_solves_only_the_end_on_alphas_side(gm, monkeypatch):
    """``rate_scalar`` solves ``q'(0)`` and only the end on ``alpha``'s side,
    and the bisection reuses both: at ``alpha = q'(+-0.5)`` on the 34-state
    chain (flat starts) it solves 0, the near end and 0.5, one tilt fewer
    than solving both ends."""
    base = Potential(7, dict.fromkeys(admissible_words(gm, 7), 0.0))
    obs = Potential.indicator(gm, 1)
    fam = TiltFamily.of(gm, base, obs)
    assert fam.chain.num_states == 34
    cases = [(alpha := fam.q_prime(t), t * alpha - fam.q(t)) for t in (0.5, -0.5)]
    calls = _count_solves(monkeypatch)
    for alpha, rate in cases:
        calls.clear()
        assert rate_scalar(gm, base, obs, alpha) == pytest.approx(rate, abs=1e-12)
        assert len(calls) == 3


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


def test_deviation_memory_two_observable(gm, monkeypatch):
    phi = Potential(2, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0})
    mu = leaf_measure(gm, Potential.zero(gm), (0, 0), block=2)
    iv = Interval(0.5, 1.0)
    for chunk in (ldp._ENUM_CHUNK, 3):  # one slice, then slices of at most 3 words
        monkeypatch.setattr(ldp, "_ENUM_CHUNK", chunk)
        for n in (4, 9):
            dp = deviation_mass_exact(mu, phi, iv, n, mode="dp")
            en = deviation_mass_exact(mu, phi, iv, n, mode="enumerate")
            assert dp.mass == pytest.approx(en.mass, rel=1e-12)


def test_enumeration_memory_is_capped(fs2):
    """The word tree is finished in slices of at most 2**16 words; holding
    all 2**22 words of n = 22 at once took a 240 MiB peak."""
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    iv = Interval(0.7, 1.0)
    tracemalloc.start()
    try:
        en = deviation_mass_exact(mu, ind1, iv, 22, mode="enumerate")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert en.mass == pytest.approx(deviation_mass_exact(mu, ind1, iv, 22, mode="dp").mass,
                                    rel=1e-12)


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


def test_deviation_does_not_snap_values_to_a_nearby_lattice(fs2):
    """1/3 + 1e-14 is not the double nearest 1/3, so it starts no lattice:
    snapped to 1/3 it fell below the interval's left end 1/3 + 5e-15, and
    ``dp`` and ``enumerate`` both gave mass 0 where it is 1/2."""
    third = 1 / 3 + 1e-14
    assert _detect_lattice(np.array([0.0, third])) is None
    assert _detect_lattice(np.array([0.0, 1 / 3, 0.1])) is not None
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    phi = Potential(1, {(0,): 0.0, (1,): third})
    iv = Interval(1 / 3 + 5e-15, 1.0)
    assert deviation_mass_exact(mu, phi, iv, 1, mode="enumerate").mass == 0.5
    assert deviation_mass_exact(mu, phi, iv, 1).mass == 0.5
    dp = deviation_mass_exact(mu, phi, iv, 1, mode="dp")
    assert dp.method == "dp-binned" and dp.mass_low <= 0.5 <= dp.mass_high


def _full_width_masses(mu, z, n):
    """The lattice DP without pruning: the mass of every sum 0 .. n * max z,
    each step in fresh arrays."""
    K = mu.chain.block
    z = np.asarray(z, dtype=np.int64)
    width = n * int(z.max()) + 1
    v = np.zeros((mu.chain.num_states, width))
    v[mu.start_index, 0] = 1.0
    PT = mu.transition.T.copy()
    groups = [(zi, np.flatnonzero(z == zi)) for zi in sorted(set(int(x) for x in z))]
    for j in range(1, n + K):
        v = PT @ v
        if j >= K:
            shifted = np.zeros_like(v)
            for zi, rows in groups:
                if zi == 0:
                    shifted[rows] = v[rows]
                else:
                    shifted[rows, zi:] = v[rows, :-zi] if zi < width else 0.0
            v = shifted
    return v.sum(axis=0)


def _full_width_run(mu, z, n):
    """The library's lattice DP with its band opened to full width: the mass
    of every sum 0 .. F(n), on the same tile grid as any narrower band."""
    masses, exps = ldp._lattice_masses(mu, z, n, 0, n * max(z))
    assert not exps.any()
    return masses


def _reference_mass(mu, phi, interval, n, masses=_full_width_masses):
    """The lattice run's mass from a full-width DP, added in order."""
    lattice = _detect_lattice(phi_vector(mu.chain, phi))
    zlo, zhi = ldp._lattice_inside(interval, lattice, n)
    total = 0.0
    for m in masses(mu, lattice[2], n)[zlo:zhi + 1]:
        total += float(m)
    return total


# An upper tail, a lower tail (cut by zhi), an interior interval, the whole range, open ends.
_DP_INTERVALS = (Interval(0.7, 1.0), Interval(0.0, 0.3), Interval(0.4, 0.55), Interval(0.0, 1.0),
                 Interval(0.3, 0.7, closed_lo=False, closed_hi=False))


@pytest.fixture(scope="module")
def memory3_leaf():
    """A 4-symbol system recoded at memory 3 (36 states), its observable z / 3
    for random labels z in 0..3, and its leaf with a dyadic transition matrix
    (eighths), on which every DP sum up to 17 steps is exact."""
    A = [[1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 1, 0]]
    spec = validate_spec(A)
    rng = np.random.default_rng(3)
    words = [w for w in itertools.product(range(4), repeat=3) if A[w[0]][w[1]] and A[w[1]][w[2]]]
    G = Potential(3, {w: float(rng.normal()) for w in words})
    phi = Potential(3, {w: int(rng.integers(0, 4)) / 3 for w in words})
    mu = leaf_measure(spec, G, words[5])
    dyadic = np.zeros_like(mu.transition)
    for s, row in enumerate(mu.chain.adjacency):
        cuts = np.sort(rng.choice(np.arange(1, 8), size=row.sum() - 1, replace=False))
        dyadic[s, row > 0] = np.diff(np.concatenate(([0], cuts, [8]))) / 8
    assert mu.chain.num_states >= 30
    return mu, dataclasses.replace(mu, transition=dyadic), phi


def test_lattice_dp_equals_full_width_dp(fs2, gm, memory3_leaf):
    """The DP computes only the sums that can still land in the interval; the
    run it sums is bit for bit the same DP's opened to full width (on the
    2-state chains, blocks on a tile grid fixed at sum 0).  On the memory-3
    chain, pre-window steps (j < K) are where an off-by-one would show."""
    mu3, dyadic3, phi3 = memory3_leaf
    cases = [(leaf_measure(fs2, bernoulli_potential(fs2, 0.3), (1,)), Potential.indicator(fs2, 1),
              (1, 2, 7, 60, 301, 1000)),
             (leaf_measure(gm, Potential.zero(gm), (0,)), Potential.indicator(gm, 1),
              (1, 2, 7, 60, 301, 1000)),
             (dyadic3, phi3, (1, 2, 3, 7, 15))]
    for mu, phi, ns in cases:
        for iv in _DP_INTERVALS:
            for n in ns:
                p = deviation_mass_exact(mu, phi, iv, n, mode="dp")
                assert p.method == "dp-lattice"
                assert p.mass == _reference_mass(mu, phi, iv, n, _full_width_run), (iv, n)


def test_lattice_dp_matches_full_width_dp_on_gibbs_leaf(memory3_leaf):
    """On the 36-state Gibbs leaf, dgemm may round a column in the last bit
    differently when the band's width differs from the full table's (OpenBLAS
    picks its kernel for a partial column panel by shape), so this compares
    within 1e-13, above n * eps = 4.4e-14 at n = 200; an off-by-one moves
    the mass by far more."""
    mu, _, phi = memory3_leaf
    for iv in _DP_INTERVALS:
        for n in (1, 2, 3, 40, 200):
            ref = _reference_mass(mu, phi, iv, n)
            assert deviation_mass_exact(mu, phi, iv, n, mode="dp").mass == pytest.approx(ref, rel=1e-13)


def test_lattice_dp_equals_full_width_dp_where_the_max_plus_band_binds(gm, memory3_leaf):
    """The band ends at F(r), the largest sum r windows can add, not at
    r * max z.  The golden mean's largest cycle mean is 1/2 < max z = 1; on
    the dyadic memory-3 leaf, symbol 1 never repeats, so the count of 1s in a
    state's word over 3 has largest cycle mean 1/2 < 2/3.  Intervals that end
    near it are where the bound cuts; the run is the full-width run's, bit for bit."""
    _, dyadic3, _ = memory3_leaf
    ones3 = Potential(3, {w: w.count(1) / 3 for w in dyadic3.chain.states})
    assert ergodic_range(dyadic3.chain.base, ones3) == (0.0, 0.5)
    cases = [(leaf_measure(gm, Potential.zero(gm), (0,)), Potential.indicator(gm, 1), 0.5,
              (1, 2, 7, 60, 301, 1000)),
             (dyadic3, ones3, 0.5, (1, 2, 3, 7, 15))]
    for mu, phi, amax, ns in cases:
        z = _detect_lattice(phi_vector(mu.chain, phi))[2]
        assert ldp._reach_bound(mu.chain, np.asarray(z), 60)[60] < 60 * max(z)
        for iv in (Interval(amax - 0.05, amax), Interval(amax - 0.2, amax + 0.1),
                   Interval(amax - 0.5, amax - 0.1), Interval(0.0, amax)):
            for n in ns:
                p = deviation_mass_exact(mu, phi, iv, n, mode="dp")
                assert p.method == "dp-lattice"
                assert p.mass == _reference_mass(mu, phi, iv, n, _full_width_run), (iv, n)


def _max_plus_reach(adjacency, z, n):
    """F(r), r = 0 .. n, the largest sum of z (on the target state) that r
    steps from any state add, by the max-plus recursion G_r(v) = max over
    successors u of z(u) + G_(r-1)(u) (Baccelli et al. 1992, ch. 3)."""
    G, F = np.zeros(len(z)), [0]
    for _ in range(n):
        G = np.where(adjacency > 0, z + G, -np.inf).max(axis=1)
        F.append(int(G.max()))
    return np.array(F)


def test_reach_bound_is_the_max_plus_reach_or_a_few_sums_above_it():
    """The DP's band ends at F(r) from the maximum cycle mean and its bias;
    on 240 random primitive chains (2-5 symbols, memory 1-3, z up to 4) it
    never lies below the max-plus recursion, so no cell with mass is cut,
    and it lies at most a few sums above it, so the band stays narrow."""
    rng, excess = np.random.default_rng(48), []
    while len(excess) < 240:
        m, k = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        try:
            spec = validate_spec((rng.random((m, m)) < 0.6).astype(int))
        except LdplabError:  # not primitive, or a stranded symbol
            continue
        chain = recode(spec, k)
        z = rng.integers(0, int(rng.integers(1, 5)) + 1, chain.num_states)
        n = int(rng.integers(1, 151))
        F, exact = ldp._reach_bound(chain, z, n), _max_plus_reach(chain.adjacency, z, n)
        assert F[0] == 0 and (F >= exact).all(), (spec, k, z)
        excess.append(int((F - exact).max()))
    assert max(excess) <= 10 and np.median(excess) == 0, excess


def test_enumeration_reads_the_chain_of_a_replaced_leaf(memory3_leaf):
    """A leaf rebuilt with another transition matrix enumerates that chain:
    its log chain is derived from ``transition``, not stored beside it."""
    _, dyadic3, phi3 = memory3_leaf
    for n in (3, 6):
        dp = deviation_mass_exact(dyadic3, phi3, Interval(0.4, 0.6), n, mode="dp").mass
        enum = deviation_mass_exact(dyadic3, phi3, Interval(0.4, 0.6), n, mode="enumerate").mass
        assert enum == pytest.approx(dp, rel=1e-12, abs=0.0), n


def test_lattice_dp_below_2_to_the_minus_960_keeps_the_plain_bits(fs2):
    """A result below 2**-960 is recomputed with column exponents; one that is
    still a normal double equals the plain full-width DP's bit for bit."""
    mu = leaf_measure(fs2, bernoulli_potential(fs2, 0.7), (1,))
    ind1, iv = Potential.indicator(fs2, 1), Interval(0.9, 1.0)
    for n in (850, 870):
        p = deviation_mass_exact(mu, ind1, iv, n, mode="dp")
        assert 2.0 ** -1022 <= p.mass < 2.0 ** -960
        assert p.mass == _reference_mass(mu, ind1, iv, n)
        assert p.log_mass == math.log(p.mass)


def _log_fs2_upper_tail(n, k0):
    """log P(Bin(n, 1/2) >= k0) in log space: lgamma and log-sum-exp."""
    logs = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) - n * math.log(2)
            for k in range(k0, n + 1)]
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


@pytest.fixture(scope="module")
def fs2_upper_tail(fs2):
    """The lattice DP on fs2, ind1 on [0.9, 1], at n = 1,000 .. 10**4."""
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1, iv = Potential.indicator(fs2, 1), Interval(0.9, 1.0)
    return [deviation_mass_exact(mu, ind1, iv, n, mode="dp") for n in range(1000, 10_001, 1000)]


def test_lattice_dp_log_mass_below_the_double_range(fs2_upper_tail):
    """The untilted DP underflowed: -739.5497 at n = 2,000 where the exact
    log mass is -739.5266, and -inf at n = 3,000.  Now the mass reads 0.0
    below the double range and log_mass is within 1e-9 of the binomial's."""
    for p in fs2_upper_tail:
        if p.n in (2000, 3000, 10_000):
            assert p.method == "dp-lattice" and p.mass == 0.0
            assert p.log_mass == pytest.approx(_log_fs2_upper_tail(p.n, 9 * p.n // 10), rel=1e-9)


def test_lattice_dp_log_mass_on_the_golden_mean_at_n_10000(gm):
    """A chain whose masses are not dyadic, below the double range.  On the
    Parry leaf a word's mass telescopes to phi**-n * r(last) / r(start) with
    r = (phi, 1); after a 0, C(n-k, k) words of length n have k ones and end
    in 0, and C(n-k, k-1) end in 1.  Averages 0.4 .. 0.5 are k = 4,000 .. 5,000."""
    n, phi = 10_000, GOLDEN_RATIO
    mu = leaf_measure(gm, Potential.zero(gm), (0,))
    p = deviation_mass_exact(mu, Potential.indicator(gm, 1), Interval(0.4, 0.5), n, mode="dp")

    def log_choose(a, b):
        return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
    logs = [float(np.logaddexp(log_choose(n - k, k), log_choose(n - k, k - 1) - math.log(phi)))
            for k in range(4000, 5001)]
    top = max(logs)
    want = top + math.log(math.fsum(math.exp(x - top) for x in logs)) - n * math.log(phi)
    assert p.method == "dp-lattice" and p.mass == 0.0
    assert p.log_mass == pytest.approx(want, rel=1e-9)


def test_blocked_lattice_dp_matches_the_per_window_dp(fs2, gm, monkeypatch):
    """On small chains (states**2 * max z <= 16) the plain DP advances k
    windows per pair of blocked matrix products, which round otherwise than
    one window at a time.  Seeded Gibbs leaves on 2-4 states (two recoded
    at memory 2, so a pre-step runs), z up to 3, n up to 3000, intervals
    between random quantiles and in an upper tail: the interval mass is
    within 1e-13 of the per-window DP's, and the banded masses equal the
    full-width run's."""
    counts = {"_block": 0, "_window": 0}
    for name, step in [(name, getattr(ldp, name)) for name in counts]:
        def counted(*args, name=name, step=step):
            counts[name] += 1
            return step(*args)
        monkeypatch.setattr(ldp, name, counted)
    rng = np.random.default_rng(43)
    fs3, fs4 = (validate_spec(np.ones((m, m), dtype=int)) for m in (3, 4))
    leaves = [(fs2, 1, 3, 3000), (gm, 1, 2, 700), (fs3, 1, 1, 400), (gm, 2, 1, 1000),
              (fs2, 2, 1, 3000), (fs4, 1, 1, 250), (fs2, 1, 2, 130)]  # spec, memory, max z, n
    for spec, memory, zmax, n in leaves:
        words = admissible_words(spec, memory)
        G = Potential(memory, dict(zip(words, rng.uniform(0.5, 5) * rng.standard_normal(len(words)))))
        mu = leaf_measure(spec, G, words[int(rng.integers(len(words)))])
        z = rng.integers(0, zmax + 1, size=mu.chain.num_states)
        z[rng.permutation(len(z))[:2]] = 0, zmax
        assert mu.chain.block == memory and mu.chain.num_states <= 4
        full, per_window = _full_width_run(mu, z, n), _full_width_masses(mu, z, n)
        cdf, tail = np.cumsum(full), np.cumsum(full[::-1])[::-1]
        u = np.sort(rng.uniform(0.01, 0.99, size=2))
        upper = int(np.flatnonzero(tail > 1e-200)[-1])
        for zlo, zhi in ((*np.searchsorted(cdf, u),), (upper, n * zmax)):
            blocks = counts["_block"]
            masses, exps = ldp._lattice_masses(mu, z, n, zlo, zhi)
            assert counts["_block"] > blocks and not exps.any()
            assert np.array_equal(masses, full[zlo:zhi + 1]), (spec, memory, n, zlo, zhi)
            assert masses.sum() == pytest.approx(per_window[zlo:zhi + 1].sum(), rel=1e-13, abs=0)

    # fs2 at n = 10**4 on an interval whose mass stays a normal double.
    mu, ind1 = leaf_measure(fs2, Potential.zero(fs2), (0,)), Potential.indicator(fs2, 1)
    blocks = counts["_block"]
    p = deviation_mass_exact(mu, ind1, Interval(0.6, 1.0), 10_000, mode="dp")
    assert counts["_block"] > blocks and p.mass > 2.0 ** -960
    assert p.log_mass == pytest.approx(_log_fs2_upper_tail(10_000, 6000), rel=1e-12)

    # Below 2**-960 the blocked plain pass is discarded and the rerun goes one window at a time.
    mu = leaf_measure(fs2, bernoulli_potential(fs2, 0.7), (1,))
    blocks, windows = counts["_block"], counts["_window"]
    p = deviation_mass_exact(mu, ind1, Interval(0.9, 1.0), 870, mode="dp")
    assert p.mass < 2.0 ** -960 and counts["_block"] > blocks
    assert counts["_window"] - windows == ldp._BLOCK_ROW // 2 + 870


def test_lattice_dp_structurally_empty_interval(fs2, gm):
    """No word reaches these intervals: above the golden mean's largest cycle
    mean 1/2, or between two lattice points."""
    for spec, iv, n in ((gm, Interval(0.6, 1.0), 100), (gm, Interval(0.6, 1.0), 3000),
                        (fs2, Interval(0.31, 0.32), 10)):
        mu = leaf_measure(spec, Potential.zero(spec), (0,))
        p = deviation_mass_exact(mu, Potential.indicator(spec, 1), iv, n, mode="dp")
        assert (p.method, p.mass, p.log_mass) == ("dp-lattice", 0.0, -math.inf)


def _binned_reference_bracket(mu, pvec, interval, n, bin_width=1e-3, divide=True):
    """The binned DP's bracket by the per-sum loop it replaced: the full-width
    run on the bins divided by their common factor g, then one ``Fraction``
    bracket per nonzero sum, added in order to ``high`` when it meets the
    interval and to ``low`` when it lies inside.  Unless ``divide``, the loop
    runs over the undivided sums, g * Z holding the divided run's mass of Z."""
    unit = Fraction(bin_width)
    raw = [int(round(float(v) / bin_width)) for v in pvec]
    zmin = min(raw)
    g = math.gcd(*(r - zmin for r in raw)) or 1
    slack = max(abs(Fraction(float(v)) - unit * r) for v, r in zip(pvec, raw))
    masses = _full_width_run(mu, [(r - zmin) // g for r in raw], n)
    if not divide:
        undivided = np.zeros(g * (len(masses) - 1) + 1)
        undivided[::g] = masses
        masses, g = undivided, 1
    low = high = 0.0
    for Z, m in enumerate(masses):
        if m == 0.0:
            continue
        avg = unit * zmin + unit * g * Fraction(Z, n)
        lo_val, hi_val = float(avg - slack), float(avg + slack)
        if ldp._rank(interval, hi_val) > 0 and ldp._rank(interval, lo_val) < 2:
            high += float(m)
            if interval.contains(lo_val) and interval.contains(hi_val):
                low += float(m)
    return low, high


def _bern03_reference_bracket(mu, pvec, interval, n, bin_width=1e-3):
    """The binned DP's bracket over the undivided sums."""
    return _binned_reference_bracket(mu, pvec, interval, n, bin_width, divide=False)


def test_binned_dp_divides_out_the_common_factor(fs2):
    """bern03 (log 0.3, log 0.7) bins to {0, 847}: the DP runs on {0, 1},
    and its brackets are those of the undivided DP."""
    bern03 = bernoulli_potential(fs2, 0.3)
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    iv = Interval(-0.6, -0.3)
    pvec = phi_vector(mu.chain, bern03)
    for n in (100, 200, 300):
        p = deviation_mass_exact(mu, bern03, iv, n, mode="dp")
        assert p.method == "dp-binned" and p.bin_width == 1e-3
        assert (p.mass_low, p.mass_high) == _bern03_reference_bracket(mu, pvec, iv, n)


def test_binned_dp_time_gate(fs2):
    """bern03 at n = 1000 ran 847,001 columns per step before the common
    factor was divided out; now 1,001."""
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    start = time.perf_counter()
    p = deviation_mass_exact(mu, bernoulli_potential(fs2, 0.3), Interval(-0.6, -0.3), 1000, mode="dp")
    elapsed = time.perf_counter() - start
    assert p.method == "dp-binned" and 0.0 < p.mass_low <= p.mass_high
    assert elapsed < 1.0


def test_binned_dp_equals_the_per_sum_fraction_loop(fs2, memory3_leaf):
    """The binned DP bisects for the run of sums whose bracket meets the
    interval and the run whose bracket lies inside it, and adds each in
    order; the loop it replaced tested every sum's bracket.  Bit for bit on
    the 2-state chains and the dyadic leaf, within 1e-13 on the Gibbs leaf,
    where dgemm may round a band in the last bit by its width."""
    mu3, dyadic3, phi3 = memory3_leaf
    mu2 = leaf_measure(fs2, Potential.zero(fs2), (0,))
    off3 = Potential(3, {w: v * math.sqrt(2) / 100 for w, v in phi3.table.items()})
    cases = [(mu2, Potential(1, {(0,): 0.0, (1,): math.log(2)}), True),
             (mu2, bernoulli_potential(fs2, 0.3), True), (dyadic3, off3, True), (mu3, off3, False)]
    for mu, obs, exact in cases:
        pvec = phi_vector(mu.chain, obs)
        assert _detect_lattice(pvec) is None
        a, b = float(pvec.min()), float(pvec.max())
        # _DP_INTERVALS on the values' range, one interval below it and one above it.
        intervals = [Interval(a + (b - a) * iv.lo, a + (b - a) * iv.hi, iv.closed_lo, iv.closed_hi)
                     for iv in _DP_INTERVALS] + [Interval(a - 1, a - 0.5), Interval(b + 0.5, b + 1)]
        for iv, n, width in itertools.product(intervals, (1, 2, 3, 7, 20, 60), (1e-3, 1e-4)):
            p = deviation_mass_exact(mu, obs, iv, n, mode="dp", bin_width=width)
            assert p.method == "dp-binned"
            ref = _binned_reference_bracket(mu, pvec, iv, n, width)
            if exact:
                assert (p.mass_low, p.mass_high) == ref, (iv, n, width)
            else:
                assert (p.mass_low, p.mass_high) == pytest.approx(ref, rel=1e-13, abs=0), (iv, n)


def test_binned_dp_time_gate_on_gibbs_leaf(memory3_leaf):
    """36 states, a standard-normal observable, bin 1e-3, n = 60: 4.4 s when
    every nonzero sum got its own Fraction bracket."""
    mu, _, phi = memory3_leaf
    rng = np.random.default_rng(0)
    obs = Potential(3, {w: float(rng.normal()) for w in phi.table})
    start = time.perf_counter()
    p = deviation_mass_exact(mu, obs, Interval(0.5, 1.0), 60, mode="dp")
    elapsed = time.perf_counter() - start
    assert p.method == "dp-binned" and 0.0 < p.mass_low <= p.mass_high
    assert elapsed < 1.5


@pytest.mark.parametrize("width", [0.0, -1e-3, math.nan, math.inf])
def test_deviation_rejects_bad_bin_width(fs2, width):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    with pytest.raises(ValueError, match="bin_width"):
        deviation_mass_exact(mu, Potential.indicator(fs2, 1), Interval(0.7, 1.0), 10,
                             bin_width=width)


def test_auto_bins_when_lattice_dp_is_over_budget():
    """Denominators near 1e6 put these values on a lattice whose DP needs
    ~4e19 cells; with enumeration over budget too, auto mode bins them.
    k nonzero symbols average just under k / 40, so the exact mass is
    P(13 <= Bin(20, 3/4) <= 16), and the bracket holds P(12 .. 15) too."""
    fs4 = validate_spec(np.ones((4, 4), dtype=int))
    phi = Potential(1, {(0,): 0.0, (1,): 499991 / 999983, (2,): 499989 / 999979,
                        (3,): 499979 / 999961})
    mu = leaf_measure(fs4, Potential.zero(fs4), (0,))
    p = deviation_mass_exact(mu, phi, Interval(0.3, 0.4), 20)
    assert p.method == "dp-binned"

    def binom(lo, hi):
        return sum(math.comb(20, k) * 3 ** k for k in range(lo, hi + 1)) / 4 ** 20

    assert p.mass_low <= binom(12, 15) <= p.mass_high
    assert p.mass_low <= binom(13, 16) <= p.mass_high
    with pytest.raises(BudgetExceeded):
        deviation_mass_exact(mu, phi, Interval(0.3, 0.4), 20, mode="dp")


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


@pytest.mark.parametrize("interval", [Interval(math.nan, 1.0), Interval(0.7, math.nan)])
def test_deviation_rejects_nan_endpoints(fs2, interval):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    with pytest.raises(EmptyInterval):
        deviation_mass_exact(mu, ind1, interval, 10)
    with pytest.raises(EmptyInterval):
        deviation_mass_mc(mu, ind1, interval, 10, samples=10)


def test_deviation_budget_exceeded(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    with pytest.raises(BudgetExceeded):
        deviation_mass_exact(mu, Potential.indicator(fs2, 1), Interval(0.7, 1.0), 30,
                             mode="enumerate", budget=100)


def test_word_count_past_the_double_range_fails_typed_under_the_error_filter(fs2):
    """At n = 1100 the leaf word count overflows a double: enumeration
    raises its typed error, not numpy's overflow warning."""
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BudgetExceeded):
            deviation_mass_exact(mu, Potential.indicator(fs2, 1), Interval(0.7, 1.0), 1100,
                                 mode="enumerate")


def test_auto_bins_past_an_overflowing_word_count_under_the_error_filter(fs2):
    """An off-lattice table at n = 1100: auto mode counts the words, finds
    the count past the double range and runs the binned DP."""
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = deviation_mass_exact(mu, bernoulli_potential(fs2, 0.3), Interval(-0.7803, -0.3), 1100)
    assert p.method == "dp-binned"
    assert 0.0 < p.mass_low <= p.mass <= p.mass_high < 1.0


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


def test_mc_memory_is_capped(fs2):
    """Walks are drawn in sub-blocks of at most 2**20 uniforms; one
    (65,536, 300) draw would take 157 MB."""
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    tracemalloc.start()
    try:
        p = deviation_mass_mc(mu, ind1, Interval(0.7, 1.0), 300, 65536, tilt=math.log(7 / 3), seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.mass > 0.0
    assert peak < 32 << 20


def test_mc_bits_pinned_on_golden_mean(gm):
    """(mass, stderr) pinned bit for bit: the goldens cover MC on fs2 only,
    and a walk kernel that moves one sampled bit shows here."""
    mu = leaf_measure(gm, Potential.zero(gm), (0,))
    p = deviation_mass_mc(mu, Potential.indicator(gm, 1), Interval(0.4, 0.5), 20, 20000,
                          tilt=-0.5, seed=3)
    assert (p.mass, p.stderr) == (0.08059951993735495, 0.004261094982064112)


def test_mc_bits_pinned_on_memory3_chain():
    """Same pin on a 36-state memory-3 chain of degree 3 (so the search pads
    each row to 4 slots) with an integer observable and its tilted walk."""
    A = [[1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 1, 0]]
    spec = validate_spec(A)
    rng = np.random.default_rng(17)
    words = [w for w in itertools.product(range(4), repeat=3) if A[w[0]][w[1]] and A[w[1]][w[2]]]
    G = Potential(3, {w: float(rng.normal()) for w in words})
    phi = Potential(3, {w: int(rng.integers(0, 4)) for w in words})
    mu = leaf_measure(spec, G, words[7])
    iv = Interval(2.0, 3.0)
    tilted = deviation_mass_mc(mu, phi, iv, 16, 20000, tilt=0.75, seed=5)
    assert (tilted.mass, tilted.stderr) == (0.1308197105036385, 0.007768094864133509)
    naive = deviation_mass_mc(mu, phi, iv, 16, 20000, seed=5)
    assert (naive.mass, naive.stderr) == (0.14085, 0.002459850893513856)
    exact = deviation_mass_exact(mu, phi, iv, 16).mass
    assert abs(tilted.mass - exact) <= 4 * tilted.stderr
    assert abs(naive.mass - exact) <= 4 * naive.stderr


@pytest.mark.parametrize("interval, n, exact", [
    (Interval(0.1, 1.0, closed_lo=False), 3, 0.875),
    (Interval(0.1, 1.0), 6, 1.0),
])
def test_methods_share_membership_at_boundary_average(fs2, interval, n, exact):
    """Values 0.1 and 0.2: float sums of n values miss the exact average
    0.1 on either side (0.30000000000000004 / 3 is above it), so every
    method decides membership on the lattice sums instead."""
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    phi = Potential(1, {(0,): 0.1, (1,): 0.2})
    dp = deviation_mass_exact(mu, phi, interval, n, mode="dp")
    assert dp.method == "dp-lattice" and dp.mass == exact
    en = deviation_mass_exact(mu, phi, interval, n, mode="enumerate")
    assert en.mass == pytest.approx(exact, rel=1e-12)  # a wrong rule moves it by 1/8 or 1/64
    mc = deviation_mass_mc(mu, phi, interval, n, 20000, seed=1)
    if exact == 1.0:
        assert mc.mass == 1.0
    else:
        assert abs(mc.mass - exact) <= 6 * mc.stderr


def test_mc_falls_back_to_floats_when_lattice_sums_overflow():
    """Denominators near 1e6 put these values on a lattice of gap ~1e-18, so
    20 steps can sum past int64; such walks accumulate floats instead."""
    fs4 = validate_spec(np.ones((4, 4), dtype=int))
    phi = Potential(1, {(0,): 0.0, (1,): 499991 / 999983, (2,): 499989 / 999979,
                        (3,): 499979 / 999961})
    assert 20 * max(_detect_lattice(phi_vector(recode(fs4, 1), phi))[2]) > 2 ** 63
    mu = leaf_measure(fs4, Potential.zero(fs4), (0,))
    assert deviation_mass_mc(mu, phi, Interval(0.0, 1.0), 20, 2000, seed=1).mass == 1.0


def test_recommended_tilt_zero_when_interval_contains_mean(fs2):
    z, ind1 = Potential.zero(fs2), Potential.indicator(fs2, 1)
    assert recommended_tilt(fs2, z, ind1, Interval(0.4, 0.6)) == 0.0


@pytest.mark.parametrize("interval", [Interval(math.nan, 1.0), Interval(0.8, 0.2)])
def test_recommended_tilt_rejects_empty_interval(fs2, interval):
    with pytest.raises(EmptyInterval):
        recommended_tilt(fs2, Potential.zero(fs2), Potential.indicator(fs2, 1), interval)


@pytest.mark.parametrize("call", [
    lambda *args: rate_scalar(*args, math.nan),
    lambda *args: rate_curve(*args, [0.5, math.nan]),
    lambda *args: q_value(*args, math.nan),
    lambda *args: q_derivative(*args, math.nan),
], ids=["rate_scalar", "rate_curve", "q_value", "q_derivative"])
def test_nan_inputs_raise_before_any_solve(fs2, monkeypatch, call):
    solves = []
    monkeypatch.setattr(thermo, "rpf_solve", lambda *args: solves.append(args))
    with pytest.raises(ValueError, match="NaN"):
        call(fs2, Potential.zero(fs2), Potential.indicator(fs2, 1))
    assert solves == []


@pytest.mark.parametrize("t, error", [
    (math.inf, ValueError), (-math.inf, ValueError), (1e308, ValidationError),
    (800.0, ValidationError),
])
@pytest.mark.parametrize("fn", [q_value, q_derivative])
def test_out_of_range_tilts_raise_before_any_solve(fs2, monkeypatch, fn, t, error):
    """The fs2 weight exp(t) overflows from t = 709.8 on: such a tilt, and
    one that is not finite, is rejected before the solve."""
    solves = []
    monkeypatch.setattr(thermo, "rpf_solve", lambda *args: solves.append(args))
    with pytest.raises(error):
        fn(fs2, Potential.zero(fs2), Potential.indicator(fs2, 1), t)
    assert solves == []


def test_mc_with_an_overflowing_tilt_raises_before_any_solve(fs2, monkeypatch):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    solves = []
    monkeypatch.setattr(thermo, "rpf_solve", lambda *args: solves.append(args))
    with pytest.raises(ValidationError):
        deviation_mass_mc(mu, Potential.indicator(fs2, 1), Interval(0.7, 1.0), 10, 100,
                          tilt=800.0)
    assert solves == []


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


def test_fit_needs_three_distinct_lengths():
    """Four points at two lengths leave the three-term design matrix rank 2."""
    pts = [DeviationPoint(n, math.exp(-0.3 * n), -0.3 * n, "dp-lattice") for n in (10, 10, 20, 20)]
    with pytest.raises(DegenerateFit, match="distinct lengths"):
        rate_fit(pts)


def test_fit_predict_evaluates_the_fitted_model():
    a, b, c = 0.25, 0.5, -1.5
    pts = [DeviationPoint(n, 0.0, -n * (a + b * math.log(n) / n + c / n), "dp-lattice")
           for n in range(100, 1001, 100)]
    fit = rate_fit(pts)
    for n in (100, 550, 1000):
        assert fit.predict(n) == fit.estimate + fit.b * math.log(n) / n + fit.c / n
        assert fit.predict(n) == pytest.approx(a + b * math.log(n) / n + c / n, abs=1e-12)


def test_fit_binomial_series_approaches_rate(fs2):
    mu = leaf_measure(fs2, Potential.zero(fs2), (0,))
    ind1 = Potential.indicator(fs2, 1)
    iv = Interval(0.7, 1.0)
    series = deviation_series(mu, ind1, iv, range(100, 301, 50))
    fit = rate_fit(series)
    assert fit.estimate == pytest.approx(fs2_rate(0.7), abs=0.005)
    assert fit.b == pytest.approx(0.5, abs=0.2)  # local-limit prefactor
    assert fit.monotone


def test_fit_reads_log_masses_below_the_double_range(fs2_upper_tail):
    """From n = 2,000 on the masses are 0.0 in doubles; the fit reads
    log_mass, so the series n = 1,000 .. 10**4 keeps every point and gives
    the rate log 2 - H(0.9) = 0.368064."""
    assert sum(p.mass == 0.0 for p in fs2_upper_tail) == 9
    entropy = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert rate_fit(fs2_upper_tail).estimate == pytest.approx(math.log(2) - entropy, abs=1e-3)


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
    assert Interval(math.nan, 1.0).is_empty() and Interval(0.7, math.nan).is_empty()
    assert Interval(math.nan, math.nan).is_empty()


# ---------------------------------------------------------------------------
# Typed raises


@pytest.mark.parametrize("call, error, match", [
    (lambda fs2, gm: rate_measure(fs2, Potential.zero(fs2),
                                  equilibrium_measure(gm, Potential.zero(gm))),
     IncompatibleSupport, "measure lives on a different subshift"),
], ids=["measure-on-another-subshift"])
def test_typed_raises(call, error, match, fs2, gm):
    with pytest.raises(error, match=match):
        call(fs2, gm)


def test_contraction_check_takes_the_rate_curves_point_on_a_one_point_range(fs2):
    """An ergodic range 1e-14 wide is one point to the rate: value 0 at tilt
    0, as rate_curve reports, not a tilt a bisection of the flat q' ends at."""
    base, obs = Potential.zero(fs2), Potential(1, {(0,): 0.1, (1,): 0.1 + 1e-14})
    alpha = 0.1 + 5e-15
    curve = rate_curve(fs2, base, obs, [alpha])
    rep = contraction_check(fs2, base, obs, alpha, samples=3)
    assert (rep.scalar_rate, rep.tilt) == (curve.values[0], curve.tilts[0]) == (0.0, 0.0)
    assert rep.passed


def test_mc_gives_an_underflowed_edge_weight_zero_without_a_warning():
    """An edge whose probability lies below the double range is 0 in the leaf
    chain.  A Gibbs chain of a potential within +-700 has no such edge (row i
    is h_j / sum of h_k over i's successors), so this leaf is the 3-shift's
    chain for G = (-700, 0, -100) with edge 0 -> 2 (about 3.7e-44) set to 0.
    The chain tilted by 100 on symbol 2 takes that edge about half the time.
    Walks through it get weight 0, with no warning, and (mass, stderr) keep
    their bits."""
    fs3 = validate_spec(np.ones((3, 3), dtype=int))
    G, ind2 = Potential(1, {(0,): -700.0, (1,): 0.0, (2,): -100.0}), Potential.indicator(fs3, 2)
    mu = leaf_measure(fs3, G, (0,))
    P = mu.transition.copy()
    P[0, 2] = 0.0
    mu = dataclasses.replace(mu, transition=P)
    assert TiltFamily.of(fs3, G, ind2).measure(100.0).transition[0, 2] > 0.4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = deviation_mass_mc(mu, ind2, Interval(0.0, 1.0), 5, 200, tilt=100.0, seed=1)
    assert (p.mass, p.stderr) == (1.6000000000000014, 0.4943906456970685)
