"""Invariants checked on random inputs drawn by hypothesis (derandomized, so
every run draws the same examples)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ldplab import (LdplabError, Potential, admissible_words, ergodic_range, q_derivative, q_value,
                    rate_scalar, validate_spec)


@st.composite
def primitive_specs(draw, max_symbols=4):
    """Primitive 0/1 transition matrices on 2 to ``max_symbols`` symbols,
    each entry 1 with probability 3/4."""
    m = draw(st.integers(2, max_symbols))
    rows = draw(st.lists(st.lists(st.integers(0, 3).map(lambda x: int(x > 0)), min_size=m,
                                  max_size=m), min_size=m, max_size=m))
    try:
        return validate_spec(rows)
    except LdplabError:  # not primitive, or a symbol without successors
        assume(False)


@st.composite
def potentials(draw, spec, max_memory=3, scale=2.0):
    """Locally constant potentials of memory 1 to ``max_memory``, values in ``[-scale, scale]``."""
    k = draw(st.integers(1, max_memory))
    words = admissible_words(spec, k)
    values = draw(st.lists(st.floats(-scale, scale), min_size=len(words), max_size=len(words)))
    return Potential(k, dict(zip(words, values)))


@given(data=st.data(), t=st.floats(-3.0, 3.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_rate_at_a_tilted_mean_is_the_legendre_transform(data, t):
    """``I(q'(t)) = t q'(t) - q(t)``: the rate at the mean of the tilt ``t``
    is the Legendre transform of ``q`` there, within 1e-8.  An observable
    with a one-point ergodic range (a constant, say) is left out: there the
    computed ``q'(t)`` may round to just outside the range, whose rate is
    ``inf``."""
    spec = data.draw(primitive_specs())
    base, obs = data.draw(potentials(spec)), data.draw(potentials(spec))
    lo, hi = ergodic_range(spec, obs)
    assume(hi - lo > 1e-9)
    alpha = q_derivative(spec, base, obs, t)
    want = t * alpha - q_value(spec, base, obs, t)
    assert abs(rate_scalar(spec, base, obs, alpha) - want) <= 1e-8
