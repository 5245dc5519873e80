import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ldplab import (
    InadmissiblePast,
    InconsistentStart,
    Interval,
    MemoryTooLarge,
    NoConvergence,
    Potential,
    TiltFamily,
    WordTooShort,
    admissible_words,
    birkhoff_sum,
    bowen_ball_mass,
    cylinder_mass,
    deviation_mass_mc,
    gibbs_ratio_audit,
    leaf_measure,
    sample_path,
    sample_paths,
    unstable_leaf_words,
    validate_spec,
)

from ldplab import leaf
from ldplab.leaf import CHUNK_ROWS, MAX_UNIFORMS, _uniform_block
from ldplab.thermo import phi_vector

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


def test_audit_past_the_double_range_fails_typed_under_the_error_filter(uniform_leaf):
    """At n_max = 2000 the leaf word count overflows a double; the audit
    raises its typed error, not numpy's overflow warning."""
    from ldplab import EnumerationTooLarge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnumerationTooLarge):
            gibbs_ratio_audit(uniform_leaf, n_max=2000, r=1)


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


def test_walk_sub_blocks_leave_paths_unchanged(uniform_leaf, monkeypatch):
    """Walks are drawn in row sub-blocks of at most MAX_UNIFORMS uniforms;
    where a counter block splits is invisible in the paths."""
    steps = 39
    count = MAX_UNIFORMS // steps + 2  # two sub-blocks
    batch = sample_paths(uniform_leaf, steps + 1, count, seed=5)
    for i in (0, count - 3, count - 2, count - 1):
        assert sample_path(uniform_leaf, steps + 1, seed=5, index=i) == tuple(batch[i])
    monkeypatch.setattr(leaf, "MAX_UNIFORMS", 100)  # two rows per sub-block
    assert (sample_paths(uniform_leaf, steps + 1, 501, seed=5) == batch[:501]).all()


def test_sample_path_draws_only_its_own_row(parry_leaf0):
    # Drawing the rows before the index would take ~104 MB of uniforms here.
    tracemalloc.start()
    try:
        sample_path(parry_leaf0, 200, index=CHUNK_ROWS - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sample_paths_memory_is_capped(parry_leaf0):
    """Each sub-block's uniforms are drawn into one buffer per call, so a
    sub-block switch holds one 8 MB block, not two; the int16 paths take 8 MB."""
    tracemalloc.start()
    try:
        sample_paths(parry_leaf0, 200, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18 << 20


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


def _random_spec(rng, m, max_degree):
    """A primitive m-symbol shift whose largest out-degree is ``max_degree``:
    each symbol steps to itself, to its successor mod m and to random extras,
    and symbol 0 has exactly ``max_degree`` successors."""
    A = np.zeros((m, m), dtype=int)
    for a in range(m):
        k = max_degree if a == 0 else int(rng.integers(2, max_degree + 1))
        others = [b for b in range(m) if b not in (a, (a + 1) % m)]
        A[a, [a, (a + 1) % m]] = 1
        A[a, rng.choice(others, size=k - 2, replace=False)] = 1
    return validate_spec(A)


def _walk_cases():
    """(leaf, integer observable): the one-symbol shift (one slot, no
    search level), the golden mean (a degree-1 state) and random chains of
    largest degree 3, 5 and 16 (padded rows, up to four search levels)."""
    one = validate_spec([[1]])
    gm = validate_spec([[1, 1], [1, 0]])
    cases = [pytest.param(leaf_measure(one, Potential.zero(one), (0,)), Potential(1, {(0,): 1}),
                          id="one-symbol"),
             pytest.param(leaf_measure(gm, Potential.zero(gm), (0,)), Potential.indicator(gm, 1),
                          id="golden")]
    for m, degree, block in ((5, 3, 1), (7, 5, 2), (20, 16, 1)):
        rng = np.random.default_rng(degree)
        spec = _random_spec(rng, m, degree)
        G = Potential(1, {(a,): float(rng.normal()) for a in range(m)})
        obs = Potential(1, {(a,): int(rng.integers(0, 4)) for a in range(m)})
        mu = leaf_measure(spec, G, (0,) * block, block=block)
        assert int(mu.chain.adjacency.sum(axis=1).max()) == degree
        cases.append(pytest.param(mu, obs, id=f"m={m},degree={degree},block={block}"))
    return cases


def _reference_walks(chain, P, start, steps, count, seed):
    """States of walks 0 .. count - 1, drawn one row and one step at a time by
    inverse-CDF search over each state's successors in increasing order."""
    U = _uniform_block(seed, 0, 0, count, steps, np.empty(count * steps))
    states = np.empty((count, steps + 1), dtype=np.int64)
    for r in range(count):
        s = states[r, 0] = start
        for j in range(steps):
            succ = np.flatnonzero(chain.adjacency[s])
            s = states[r, j + 1] = succ[np.searchsorted(np.cumsum(P[s, succ])[:-1], U[r, j],
                                                        side="right")]
    return states


def _reference_mc(mu, obs, interval, n, count, seed, tilt):
    """``deviation_mass_mc`` recomputed from reference walks: the log ratio is
    accumulated per step in walk order and membership decided on exact sums."""
    chain, K = mu.chain, mu.chain.block
    P = mu.transition
    if tilt is not None:
        fam = TiltFamily(chain, chain.adjacency.astype(np.float64),
                         phi_vector(chain, mu.potential), phi_vector(chain, obs))
        P = fam.measure(tilt).transition
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(np.where(chain.adjacency > 0, mu.transition / P, 1.0))
    states = _reference_walks(chain, P, mu.start_index, n + K - 1, count, seed)
    z = [int(v) for v in phi_vector(chain, obs)]
    loglr = np.zeros(count)
    w = np.empty(count)
    for r in range(count):
        for j in range(1, n + K):
            loglr[r] += log_ratio[states[r, j - 1], states[r, j]]
        w[r] = float(interval.contains(Fraction(sum(z[t] for t in states[r, K:]), n)))
    if tilt is not None:
        w = w * np.exp(loglr)
    est = float(w.sum()) / count
    var = max(float((w * w).sum()) - count * est * est, 0.0) / (count - 1)
    return est, math.sqrt(var / count)


@pytest.mark.parametrize("mu, obs", _walk_cases())
def test_walk_kernel_matches_reference_sampler(mu, obs):
    """The slot-indexed kernel with its binary search draws, bit for bit, the
    walks of a plain per-row inverse-CDF sampler, for paths and for tilted
    and untilted Monte Carlo masses."""
    n, count, seed = 9, 150, 21
    states = _reference_walks(mu.chain, mu.transition, mu.start_index, n - 1, count, seed)
    want = mu.chain.last_symbols()[states]
    assert (sample_paths(mu, n, count, seed=seed) == want).all()
    for i in (0, 77, count - 1):
        assert sample_path(mu, n, seed=seed, index=i) == tuple(want[i])
    iv = Interval(1 / 3, 2.0)
    for tilt in (None, 0.6):
        got = deviation_mass_mc(mu, obs, iv, n, count, tilt=tilt, seed=seed)
        assert (got.mass, got.stderr) == _reference_mc(mu, obs, iv, n, count, seed, tilt)


def _blocked_cases():
    """(name, leaf, integer observable, blocked): fs2 and the golden mean
    (4 and 8 steps per block), fs2 at memory 2 (4 branching states, 2 steps
    per block) and the golden mean at memory 2 (2 branching states), both
    with a Birkhoff sum that starts after a step, and chains just above the
    rule: fs2 at memory 3 (8 branching states) and the 3-shift (3 successors)."""
    rng = np.random.default_rng(45)
    fs2, gm, fs3 = (validate_spec(A) for A in ([[1, 1], [1, 1]], [[1, 1], [1, 0]], np.ones((3, 3), int)))
    cases = []
    for name, spec, memory, blocked in (("fs2", fs2, 1, True), ("golden", gm, 1, True),
                                        ("fs2-m2", fs2, 2, True), ("golden-m2", gm, 2, True),
                                        ("fs2-m3", fs2, 3, False), ("fs3", fs3, 1, False)):
        words = admissible_words(spec, memory)
        G = Potential(memory, {w: float(rng.normal()) for w in words})
        obs = Potential(memory, {w: int(rng.integers(0, 3)) for w in words})
        cases.append(pytest.param(leaf_measure(spec, G, words[-1]), obs, blocked, id=name))
    return cases


def _walk_results(mu, obs, n, count, seed):
    iv = Interval(0.5, 1.5)
    untilted = deviation_mass_mc(mu, obs, iv, n, count, seed=seed)
    tilted = deviation_mass_mc(mu, obs, iv, n, count, tilt=0.4, seed=seed)
    return sample_paths(mu, n, count, seed=seed), (untilted.mass, untilted.stderr), (tilted.mass, tilted.stderr)


@pytest.mark.parametrize("mu, obs, blocked", _blocked_cases())
def test_blocked_walks_match_the_per_step_kernel(mu, obs, blocked, monkeypatch):
    """Walks that take k steps per table lookup are the per-step kernel's
    walks: the same paths, sample_path(i) is row i, the same untilted
    (mass, stderr), and tilted ones within 1e-12 (a block sums its log
    ratios as one table entry)."""
    n, count, seed = 23, 3001, 9
    tables = leaf.walk_tables(mu.chain, mu.transition)
    monkeypatch.setattr(leaf, "_BLOCK_FROM", 1 << 62)
    paths, untilted, tilted = _walk_results(mu, obs, n, count, seed)
    monkeypatch.setattr(leaf, "_BLOCK_FROM", 0)
    assert (leaf._block_plan(*tables, n - 1, count) is not None) == blocked
    got_paths, got_untilted, got_tilted = _walk_results(mu, obs, n, count, seed)
    assert (got_paths == paths).all()
    assert got_untilted == untilted
    assert got_tilted == pytest.approx(tilted, rel=1e-12, abs=0)
    for i in (0, 1500, count - 1):
        assert sample_path(mu, n, seed=seed, index=i) == tuple(paths[i])


def test_import_starts_no_thread_and_loads_no_new_module():
    """``import ldplab``, after numpy and the standard modules the package has
    long imported by name, loads only the package itself and starts no
    thread (``threading`` comes with numpy)."""
    code = ("import __future__, sys, threading, numpy, argparse, bisect, collections, contextlib\n"
            "import dataclasses, fractions, functools, hashlib, json, math, os, typing\n"
            "before = set(sys.modules)\n"
            "import ldplab\n"
            "new = {m for m in set(sys.modules) - before if m.split('.')[0] != 'ldplab'}\n"
            "print(threading.active_count(), *sorted(new))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(leaf.__file__).parents[1])))
    assert out.stdout.split() == ["1"]


# ---------------------------------------------------------------------------
# Typed raises


@pytest.mark.parametrize("call, error, match", [
    (lambda fs2: leaf_measure(fs2, Potential(2, {(a, b): 0.0 for a in (0, 1) for b in (0, 1)}),
                              (0, 0), block=1),
     MemoryTooLarge, "block 1 below potential memory 2"),
    (lambda fs2: cylinder_mass(leaf_measure(fs2, Potential.zero(fs2), (0,)), (0, 5)),
     InconsistentStart, "symbol 5 out of range"),
], ids=["block-below-memory", "cylinder-symbol-out-of-range"])
def test_typed_raises(call, error, match, fs2):
    with pytest.raises(error, match=match):
        call(fs2)
