import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldplab import (
    BracketUndefined,
    EmptyRowOrColumn,
    InadmissibleConcatenation,
    NotPrimitive,
    PointRep,
    Potential,
    ValidationError,
    axioms_check,
    birkhoff_sum,
    bracket,
    distance,
    is_admissible,
    orbital_empirical,
    shift,
    unstable_leaf_words,
    validate_spec,
)
from ldplab.sft import _random_point, first_difference

from conftest import bernoulli_potential


# ---------------------------------------------------------------------------
# validate_spec


def test_full_shift_is_primitive_at_power_one(fs2):
    assert fs2.alphabet_size == 2
    assert fs2.primitivity_power == 1


def test_golden_mean_primitive_at_power_two(gm):
    # Oracle: the square of the matrix is entrywise positive, the matrix is not.
    A = np.array([[1, 1], [1, 0]])
    assert not (A > 0).all()
    assert (A @ A > 0).all()
    assert gm.primitivity_power == 2


def test_period_two_matrix_rejected():
    with pytest.raises(NotPrimitive):
        validate_spec([[0, 1], [1, 0]])


def test_empty_row_rejected():
    with pytest.raises(EmptyRowOrColumn):
        validate_spec([[1, 1], [0, 0]])
    with pytest.raises(EmptyRowOrColumn):
        validate_spec([[1, 0], [1, 0]])


def test_non_binary_entries_rejected():
    with pytest.raises(ValidationError):
        validate_spec([[2, 0], [1, 1]])


def _brute_force_primitive(A, bound):
    P = np.linalg.matrix_power(np.array(A, dtype=np.int64), 0)
    for _ in range(bound):
        P = P @ A
        if (P > 0).all():
            return True
    return False


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_primitivity_matches_brute_force_exhaustively(m):
    """validate_spec accepts exactly the matrices with a positive power
    up to the sharp bound (m-1)**2 + 1, over all 0/1 matrices."""
    bound = (m - 1) ** 2 + 1
    for bits in itertools.product((0, 1), repeat=m * m):
        A = np.array(bits, dtype=np.int64).reshape(m, m)
        expected = _brute_force_primitive(A, bound)
        try:
            spec = validate_spec(A)
            accepted = True
        except (NotPrimitive, EmptyRowOrColumn):
            accepted = False
        assert accepted == expected, f"matrix {A.tolist()}"
        if accepted:
            # primitivity_power is the smallest positive power.
            P = np.linalg.matrix_power(A, spec.primitivity_power)
            assert (P > 0).all()
            if spec.primitivity_power > 1:
                P = np.linalg.matrix_power(A, spec.primitivity_power - 1)
                assert not (P > 0).all()


# ---------------------------------------------------------------------------
# Points, shift, distance, bracket


def point(spec, **kw):
    defaults = dict(left_cycle=(0,), core=(0,), right_cycle=(0,))
    defaults.update(kw)
    return PointRep(spec, **defaults)


def test_shift_identity_and_inverse(fs2):
    x = point(fs2, left_cycle=(0, 1), core=(1, 0, 0), right_cycle=(1,), core_start=-1)
    assert shift(x, 0) == x
    assert shift(shift(x, 3), -3) == x
    assert shift(shift(x, -5), 5) == x


def test_shift_coordinate_bookkeeping(fs2):
    # Zeros in the past, ones from coordinate 0 on.
    x = point(fs2, left_cycle=(0,), core=(1,), right_cycle=(1,))
    y = shift(x, 1)
    assert y.symbol_at(-1) == 1
    assert y.symbol_at(0) == 1
    assert y.symbol_at(-2) == 0
    for i in range(-6, 6):
        assert y.symbol_at(i) == x.symbol_at(i + 1)


def test_shift_far_past_transients_and_cycles(fs2, gm):
    rng = np.random.default_rng(5)
    for spec in (fs2, gm, fs2, gm):
        x = _random_point(spec, rng, 0)
        y = _random_point(spec, rng, 0)
        for s in (-10 ** 4, -997, -13, 13, 997, 10 ** 4):
            z = shift(x, s)
            for i in range(-9, 10):
                assert z.symbol_at(i) == x.symbol_at(i + s)
            assert shift(z, -s) == x
            # The bracket of shifted points still splices past and future.
            if z.symbol_at(0) == shift(y, s).symbol_at(0):
                w = bracket(z, shift(y, s))
                for i in range(-9, 10):
                    assert w.symbol_at(i) == (y if i < 0 else x).symbol_at(i + s)


def test_point_rejects_forbidden_junction(gm):
    with pytest.raises(ValidationError):
        PointRep(gm, left_cycle=(1,), core=(1,), right_cycle=(0,))


def test_distance_definition(fs2):
    x = point(fs2, left_cycle=(0,), core=(0, 0, 0, 0, 0), right_cycle=(0,), core_start=-2)
    y = point(fs2, left_cycle=(1,), core=(0, 0, 0, 0, 0), right_cycle=(1,), core_start=-2)
    # Agreement exactly on coordinates -2..2.
    assert distance(x, y) == 2.0 ** -3
    assert distance(x, x) == 0.0
    assert distance(y, y) == 0.0


def test_distance_shift_doubling_bound(fs2):
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = int(rng.integers(2))
        x = _random_point(fs2, rng, s)
        y = _random_point(fs2, rng, s)
        assert distance(shift(x, 1), shift(y, 1)) <= 2 * distance(x, y) + 1e-15


def test_equality_of_different_representations(fs2):
    # Same all-zero sequence represented with different transients.
    x = point(fs2, left_cycle=(0,), core=(0,), right_cycle=(0,))
    y = point(fs2, left_cycle=(0, 0), core=(0, 0, 0), right_cycle=(0,),
              left_transient=(0, 0), right_transient=(0,), core_start=-1)
    assert x == y
    assert first_difference(x, y) is None


def test_bracket_identity_and_splice(fs2):
    x = point(fs2, left_cycle=(0,), core=(1,), right_cycle=(1,))
    assert bracket(x, x) == x

    # y has an eventually (01)-periodic past ending ...0 1 0, with y_0 = 1
    # and future all zeros; [x, y] takes y's past and x's future.
    y = PointRep(fs2, left_cycle=(1, 0), core=(1,), right_cycle=(0,),
                 left_transient=(), right_transient=())
    z = bracket(x, y)
    for i in range(-8, 0):
        assert z.symbol_at(i) == y.symbol_at(i)
    for i in range(0, 8):
        assert z.symbol_at(i) == x.symbol_at(i)


def test_bracket_undefined_on_mismatch(fs2):
    x = point(fs2, left_cycle=(0,), core=(0,), right_cycle=(0,))
    y = point(fs2, left_cycle=(0,), core=(1,), right_cycle=(1,))
    with pytest.raises(BracketUndefined):
        bracket(x, y)


def test_bracket_composition(fs2, gm):
    rng = np.random.default_rng(11)
    for spec in (fs2, gm):
        for _ in range(200):
            s = int(rng.integers(2))
            x = _random_point(spec, rng, s)
            y = _random_point(spec, rng, s)
            z = _random_point(spec, rng, s)
            assert bracket(bracket(x, y), z) == bracket(x, z)
            assert bracket(x, bracket(y, z)) == bracket(x, z)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_distance_is_ultrametric(seed):
    spec = validate_spec([[1, 1], [1, 0]])
    rng = np.random.default_rng(seed)
    s = int(rng.integers(2))
    x = _random_point(spec, rng, s)
    y = _random_point(spec, rng, s)
    z = _random_point(spec, rng, s)
    assert distance(x, z) <= max(distance(x, y), distance(y, z)) + 1e-15
    assert distance(x, y) == distance(y, x)


# ---------------------------------------------------------------------------
# Leaf words


def test_leaf_words_full_shift(fs2):
    assert unstable_leaf_words(fs2, 0, 2) == [(0, 0), (0, 1)]


def test_leaf_words_golden_mean_forbids_11(gm):
    assert unstable_leaf_words(gm, 1, 3) == [(1, 0, 0), (1, 0, 1)]


def test_leaf_words_fibonacci_count(gm):
    # Independent oracle: filter the full product by admissibility.  Counts
    # from symbol 0 run 1, 2, 3, 5, 8, ... so length 10 gives Fibonacci 89.
    brute = [w for w in itertools.product((0, 1), repeat=10)
             if w[0] == 0 and is_admissible(gm, w)]
    words = unstable_leaf_words(gm, 0, 10)
    assert words == sorted(brute)
    assert len(words) == 89


@pytest.mark.parametrize("n", range(1, 16))
def test_leaf_word_counts_match_matrix_powers(gm, fs2, n):
    for spec in (gm, fs2):
        A = np.array(spec.transitions, dtype=np.int64)
        counts = np.linalg.matrix_power(A, n - 1) @ np.ones(spec.alphabet_size, dtype=np.int64)
        for s in range(spec.alphabet_size):
            assert len(unstable_leaf_words(spec, s, n)) == counts[s]


def test_leaf_words_lexicographic(gm):
    words = unstable_leaf_words(gm, 0, 6)
    assert words == sorted(words)


# ---------------------------------------------------------------------------
# Birkhoff sums and empirical measures


def test_birkhoff_constant(fs2):
    c = Potential.constant(fs2, 2.5)
    assert birkhoff_sum(fs2, (0, 1, 0, 1), c) == pytest.approx(10.0)


def test_birkhoff_indicator_counts_ones(fs2):
    ind1 = Potential.indicator(fs2, 1)
    assert birkhoff_sum(fs2, (0, 1, 1, 0), ind1) == 2.0


def test_birkhoff_memory_two_hand_oracle(fs2):
    # Windows of 010 with continuation 1: 01, 10, 01 -> 1 + 1 + 1.
    phi = Potential(2, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 0.0})
    assert birkhoff_sum(fs2, (0, 1, 0), phi, continuation=(1,)) == 3.0


def test_birkhoff_rejects_forbidden_concatenation(gm):
    phi = Potential(2, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0})
    with pytest.raises(InadmissibleConcatenation):
        birkhoff_sum(gm, (0, 1), phi, continuation=(1,))


def test_birkhoff_requires_continuation_length(fs2):
    phi = Potential(2, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 0.0})
    with pytest.raises(ValueError):
        birkhoff_sum(fs2, (0, 1), phi)


def test_orbital_empirical_examples():
    m = orbital_empirical((0, 0, 0, 0), 1)
    assert m.counts == {(0,): 4} and m.length == 4

    m = orbital_empirical((0, 1, 0, 1), 2)
    assert m.counts == {(0, 1): 2, (1, 0): 1}
    assert m.length == 3

    m = orbital_empirical((0, 1, 1, 0, 1, 0), 1)
    assert m.frequencies() == {(0,): 0.5, (1,): 0.5}


@given(st.lists(st.integers(0, 1), min_size=3, max_size=40), st.integers(1, 3))
def test_orbital_frequencies_sum_to_one(symbols, k):
    if len(symbols) < k:
        return
    m = orbital_empirical(tuple(symbols), k)
    assert sum(m.counts.values()) == m.length
    assert math.isclose(sum(m.frequencies().values()), 1.0, abs_tol=1e-12)


def test_orbital_cycle_repetition_converges():
    cycle = (0, 1, 1)
    target = orbital_empirical(cycle * 50, 2).frequencies()
    # Window frequencies of the infinite cycle: each of the 3 cyclic 2-windows
    # has frequency 1/3.
    for w, f in target.items():
        assert abs(f - 1 / 3) < 0.01


# ---------------------------------------------------------------------------
# Potentials


def test_potential_validation_catches_missing_word(gm):
    with pytest.raises(Exception):
        Potential(1, {(0,): 0.0}).validate(gm)


def test_potential_validation_catches_huge_values(fs2):
    with pytest.raises(ValidationError):
        Potential(1, {(0,): 800.0, (1,): 0.0}).validate(fs2)


def test_bernoulli_potential_has_zero_pressure_normalization(fs2):
    pot = bernoulli_potential(fs2, 0.3)
    pot.validate(fs2)
    assert pot.value((0, 1)) == math.log(0.3)


# ---------------------------------------------------------------------------
# Axioms


@pytest.mark.parametrize("system", ["fs2", "gm"])
def test_axioms_hold_on_random_triples(system, fs2, gm):
    spec = fs2 if system == "fs2" else gm
    report = axioms_check(spec, sample_count=1000, seed=3)
    assert report.ok, report.violations
    assert report.max_stable_ratio <= 0.5
    assert report.max_unstable_ratio <= 0.5
    assert report.checks["identity"] == 1000


def test_axioms_equivariance_spot_case(fs2):
    x = point(fs2, left_cycle=(0,), core=(1,), right_cycle=(1,))
    y = PointRep(fs2, left_cycle=(1, 0), core=(1,), right_cycle=(0,))
    # Defined: both shifted points share coordinate-0 symbol.
    assert x.symbol_at(1) == 1 and y.symbol_at(1) == 0 or True
    if shift(x).symbol_at(0) == shift(y).symbol_at(0):
        assert shift(bracket(x, y)) == bracket(shift(x), shift(y))


def test_axioms_report_is_deterministic(gm):
    a = axioms_check(gm, sample_count=100, seed=5)
    b = axioms_check(gm, sample_count=100, seed=5)
    assert a.checks == b.checks
    assert a.max_stable_ratio == b.max_stable_ratio
