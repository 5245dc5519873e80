import math
import tracemalloc

import numpy as np
import pytest

from ldplab import (
    InadmissiblePast,
    InconsistentStart,
    NoConvergence,
    Potential,
    WordTooShort,
    birkhoff_sum,
    bowen_ball_mass,
    cylinder_mass,
    gibbs_ratio_audit,
    leaf_measure,
    sample_path,
    sample_paths,
    unstable_leaf_words,
)

from ldplab.leaf import CHUNK_ROWS

from conftest import GOLDEN_RATIO, bernoulli_potential


@pytest.fixture()
def uniform_leaf(fs2):
    return leaf_measure(fs2, Potential.zero(fs2), (0,))


@pytest.fixture()
def parry_leaf0(gm):
    return leaf_measure(gm, Potential.zero(gm), (0,))


@pytest.fixture()
def parry_leaf1(gm):
    return leaf_measure(gm, Potential.zero(gm), (0, 1))


# ---------------------------------------------------------------------------
# Cylinder masses


def test_uniform_leaf_cylinders(uniform_leaf):
    # Each extra symbol past the fixed start halves the mass.
    assert cylinder_mass(uniform_leaf, (0,)) == 1.0
    assert cylinder_mass(uniform_leaf, (0, 1, 1, 0)) == pytest.approx(2 ** -3, abs=1e-15)


def test_bernoulli_leaf_is_product_measure(fs2):
    mu = leaf_measure(fs2, bernoulli_potential(fs2, 0.3), (0,))
    # Marginal 0.3 on symbol 0, independent of history.
    assert cylinder_mass(mu, (0, 0)) == pytest.approx(0.3, abs=1e-12)
    assert cylinder_mass(mu, (0, 1, 0)) == pytest.approx(0.7 * 0.3, abs=1e-12)


def test_parry_leaf_from_state_one(parry_leaf1):
    # From state 1 the only continuation is 0.
    assert cylinder_mass(parry_leaf1, (1, 0)) == pytest.approx(1.0, abs=1e-12)


def test_parry_leaf_transition_products(parry_leaf0):
    g = GOLDEN_RATIO
    assert cylinder_mass(parry_leaf0, (0, 0, 1)) == pytest.approx(g ** -3, abs=1e-12)
    assert g ** -3 == pytest.approx(0.2360680, abs=1e-7)


def test_cylinder_start_consistency(parry_leaf0):
    with pytest.raises(InconsistentStart):
        cylinder_mass(parry_leaf0, (1, 0))


def test_cylinder_of_forbidden_word_is_empty(parry_leaf0):
    assert cylinder_mass(parry_leaf0, (0, 1, 1)) == 0.0


def test_leaf_requires_admissible_past(gm):
    with pytest.raises(InadmissiblePast):
        leaf_measure(gm, Potential.zero(gm), (1, 1))
    with pytest.raises(InadmissiblePast):
        leaf_measure(gm, Potential(2, {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0}), (1,))


def test_length_one_cylinder_has_mass_one(fs2, gm):
    for spec, past in ((fs2, (1,)), (gm, (0, 1))):
        mu = leaf_measure(spec, bernoulli_potential(spec, 0.4), past)
        assert cylinder_mass(mu, (past[-1],)) == 1.0


@pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
def test_total_mass_one_by_enumeration(fs2, gm, n):
    for spec, past in ((fs2, (0,)), (gm, (0,))):
        mu = leaf_measure(spec, bernoulli_potential(spec, 0.3), past)
        total = sum(cylinder_mass(mu, w) for w in unstable_leaf_words(spec, past[-1], n))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_total_mass_one_at_depth_twenty(fs2):
    # Vectorized: fold transition probabilities level by level.
    mu = leaf_measure(fs2, bernoulli_potential(fs2, 0.3), (0,))
    v = np.zeros(mu.chain.num_states)
    v[mu.start_index] = 1.0
    for _ in range(19):
        v = v @ mu.transition
    assert float(v.sum()) == pytest.approx(1.0, abs=1e-10)


def test_leaf_measure_raises_when_perron_vector_underflows(fs3_underflow):
    fs3, G = fs3_underflow
    with pytest.raises(NoConvergence):
        leaf_measure(fs3, G, (0, 0))


def test_kolmogorov_consistency(fs2, gm):
    rng = np.random.default_rng(23)
    for spec in (fs2, gm):
        mu = leaf_measure(spec, bernoulli_potential(spec, 0.35), (0,))
        for _ in range(50):
            n = int(rng.integers(1, 10))
            words = unstable_leaf_words(spec, 0, n)
            w = words[int(rng.integers(len(words)))]
            lhs = cylinder_mass(mu, w)
            rhs = sum(cylinder_mass(mu, w + (a,)) for a in spec.successors(w[-1]))
            assert abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# Dynamic balls


def test_ball_radius_zero_is_cylinder(parry_leaf0):
    y = (0, 0, 1, 0, 0)
    assert bowen_ball_mass(parry_leaf0, y, 5, 0) == cylinder_mass(parry_leaf0, y)


def test_ball_uniform_depth(uniform_leaf):
    y = (0, 1, 0, 1, 1, 0)
    assert bowen_ball_mass(uniform_leaf, y, 5, 1) == pytest.approx(2 ** -5, abs=1e-15)


def test_ball_parry_product_oracle(gm):
    mu = leaf_measure(gm, Potential.zero(gm), (1,))
    y = (1, 0, 0, 1, 0)
    # Hand oracle: four transition factors 1, 1/g, 1/g^2, 1.
    g = GOLDEN_RATIO
    assert bowen_ball_mass(mu, y, 3, 2) == pytest.approx(g ** -3, abs=1e-12)


def test_ball_requires_enough_symbols(uniform_leaf):
    with pytest.raises(WordTooShort):
        bowen_ball_mass(uniform_leaf, (0, 1), 2, 1)


# ---------------------------------------------------------------------------
# Gibbs ratio audit


def test_audit_uniform_leaf_ratio_is_two(uniform_leaf):
    rep = gibbs_ratio_audit(uniform_leaf, n_max=10, r=0)
    assert rep.k_min == pytest.approx(2.0, abs=1e-12)
    assert rep.k_max == pytest.approx(2.0, abs=1e-12)
    assert rep.drift <= 1e-12


def test_audit_bernoulli_constants(fs2):
    p = 0.3
    mu = leaf_measure(fs2, bernoulli_potential(fs2, p), (0,))
    rep = gibbs_ratio_audit(mu, n_max=10, r=0)
    # Pressure is 0 and masses are products over target symbols, so the
    # ratio collapses to exp(-G(first window)) = 1/p(start), a constant.
    assert rep.k_min == pytest.approx(1 / p, abs=1e-10)
    assert rep.k_max == pytest.approx(1 / p, abs=1e-10)
    assert rep.drift <= 1e-12


def test_audit_golden_mean_eigenvector_bound(parry_leaf0):
    g = GOLDEN_RATIO
    rep = gibbs_ratio_audit(parry_leaf0, n_max=12, r=1)
    assert rep.k_max / rep.k_min <= g * g + 1e-9
    assert 0 < rep.k_min <= rep.k_max < math.inf
    assert rep.drift < 0.05


def test_audit_matches_brute_force(gm):
    """Independent oracle: enumerate leaf words, compute ball masses through
    cylinder_mass and Birkhoff sums through birkhoff_sum, compare extremes."""
    pot = bernoulli_potential(gm, 0.3)
    mu = leaf_measure(gm, pot, (0,))
    n_max, r = 6, 1
    press = mu.pressure
    best_min, best_max = math.inf, -math.inf
    per_n_min = {}
    per_n_max = {}
    for n in range(1, n_max + 1):
        depth = n + max(r, 0)
        for w in unstable_leaf_words(gm, 0, depth):
            ball = bowen_ball_mass(mu, w, n, r)
            s_n = birkhoff_sum(gm, w[:n], pot, continuation=w[n:])
            ratio = ball / math.exp(s_n - n * press)
            per_n_min[n] = min(per_n_min.get(n, math.inf), ratio)
            per_n_max[n] = max(per_n_max.get(n, -math.inf), ratio)
    rep = gibbs_ratio_audit(mu, n_max=n_max, r=r)
    for n in range(1, n_max + 1):
        assert rep.per_n_min[n - 1] == pytest.approx(per_n_min[n], rel=1e-10)
        assert rep.per_n_max[n - 1] == pytest.approx(per_n_max[n], rel=1e-10)
    assert rep.k_min == pytest.approx(min(per_n_min.values()), rel=1e-10)
    assert rep.k_max == pytest.approx(max(per_n_max.values()), rel=1e-10)


def test_audit_memory_two_potential_matches_brute_force(gm):
    pot = Potential(2, {(0, 0): 0.2, (0, 1): -0.5, (1, 0): 0.9})
    mu = leaf_measure(gm, pot, (1, 0))
    n_max, r = 5, 1
    press = mu.pressure
    expected_min, expected_max = math.inf, -math.inf
    for n in range(1, n_max + 1):
        depth = n + max(r, pot.memory - 1)
        for w in unstable_leaf_words(gm, 0, depth):
            ball = bowen_ball_mass(mu, w, n, r)
            s_n = birkhoff_sum(gm, w[:n], pot, continuation=w[n:])
            ratio = ball / math.exp(s_n - n * press)
            expected_min = min(expected_min, ratio)
            expected_max = max(expected_max, ratio)
    rep = gibbs_ratio_audit(mu, n_max=n_max, r=r)
    assert rep.k_min == pytest.approx(expected_min, rel=1e-10)
    assert rep.k_max == pytest.approx(expected_max, rel=1e-10)


def test_audit_witnesses_reproduce_extremes(parry_leaf0):
    rep = gibbs_ratio_audit(parry_leaf0, n_max=8, r=1)
    for witness, n, target in ((rep.k_min_witness, rep.k_min_witness_n, rep.k_min),
                               (rep.k_max_witness, rep.k_max_witness_n, rep.k_max)):
        ball = bowen_ball_mass(parry_leaf0, witness, n, 1)
        s_n = birkhoff_sum(parry_leaf0.chain.base, witness[:n], parry_leaf0.potential,
                           continuation=witness[n:])
        ratio = ball / math.exp(s_n - n * parry_leaf0.pressure)
        assert ratio == pytest.approx(target, rel=1e-10)


def test_audit_budget(uniform_leaf):
    from ldplab import EnumerationTooLarge
    with pytest.raises(EnumerationTooLarge):
        gibbs_ratio_audit(uniform_leaf, n_max=10, r=0, budget=10)


# ---------------------------------------------------------------------------
# Sampling


def test_sample_single_symbol(parry_leaf1):
    assert sample_path(parry_leaf1, 1, seed=9) == (1,)


def test_sampler_deterministic_and_index_consistent(uniform_leaf):
    batch = sample_paths(uniform_leaf, 12, 40, seed=123)
    again = sample_paths(uniform_leaf, 12, 40, seed=123)
    assert (batch == again).all()
    for i in (0, 3, 39):
        assert sample_path(uniform_leaf, 12, seed=123, index=i) == tuple(batch[i])
    other = sample_paths(uniform_leaf, 12, 40, seed=124)
    assert (batch != other).any()
    # Indices on both sides of the first counter-block boundary.
    batch = sample_paths(uniform_leaf, 4, CHUNK_ROWS + 2, seed=123)
    for i in (CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1):
        assert sample_path(uniform_leaf, 4, seed=123, index=i) == tuple(batch[i])


def test_sample_path_draws_only_its_own_row(parry_leaf0):
    # Drawing the rows before the index would take ~104 MB of uniforms here.
    tracemalloc.start()
    try:
        sample_path(parry_leaf0, 200, index=CHUNK_ROWS - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sampler_respects_support(gm):
    mu = leaf_measure(gm, Potential.zero(gm), (1,))
    words = sample_paths(mu, 50, 20000, seed=4)
    assert (words[:, 0] == 1).all()
    pairs = words[:, :-1] * 2 + words[:, 1:]
    assert not (pairs == 3).any()  # no 11 anywhere


def test_sampler_fair_coin_frequency(uniform_leaf):
    n, count = 100, 20000
    words = sample_paths(uniform_leaf, n, count, seed=8)
    freq = words.mean()
    expected = 0.5 * (n - 1) / n  # start symbol 0 is fixed
    sigma = 0.5 / math.sqrt(count * (n - 1))
    assert abs(freq - expected) <= 4 * sigma


def test_sampler_cylinder_frequencies_match_masses(gm):
    mu = leaf_measure(gm, Potential.zero(gm), (0,))
    n, count = 6, 10 ** 6
    words = sample_paths(mu, n, count, seed=31)
    codes = np.zeros(count, dtype=np.int64)
    for j in range(n):
        codes = codes * 2 + words[:, j]
    observed = dict(zip(*np.unique(codes, return_counts=True)))
    for w in unstable_leaf_words(gm, 0, n):
        code = 0
        for a in w:
            code = code * 2 + a
        mass = cylinder_mass(mu, w)
        got = observed.get(code, 0) / count
        se = math.sqrt(mass * (1 - mass) / count)
        assert abs(got - mass) <= 4 * se + 1e-9, (w, got, mass)
    # No mass outside the admissible support.
    admissible = {int("".join(map(str, w)), 2) for w in unstable_leaf_words(gm, 0, n)}
    assert set(observed) <= admissible
