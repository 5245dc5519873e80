import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from ldplab import (
    BudgetExceeded,
    LdplabError,
    MarkovMeasure,
    MemoryTooLarge,
    NoConvergence,
    NotPrimitive,
    Potential,
    ValidationError,
    admissible_words,
    birkhoff_sum,
    entropy,
    equilibrium_measure,
    ergodic_range,
    integrate,
    phi_vector,
    pressure,
    q_derivative,
    random_markov_measure,
    rate_scalar,
    recode,
    rpf_solve,
    transfer_matrix,
    unstable_leaf_words,
    validate_spec,
    variational_gap,
)
from ldplab import thermo
from ldplab.cli import load_spec
from ldplab.ldp import _cycle_range
from ldplab.thermo import (_DENSE_START, RecodedChain, RPFData, TiltFamily, WeightedMatrix,
                           _dense_start, stationary_distribution)

from conftest import GOLDEN_RATIO, bernoulli_potential, golden_lambda

SPECS = Path(__file__).resolve().parents[1] / "specs"


# ---------------------------------------------------------------------------
# Recoding


def test_recode_block_one_is_symbol_graph(fs2):
    chain = recode(fs2, 1)
    assert chain.states == ((0,), (1,))
    assert (chain.adjacency == 1).all()


def test_recode_golden_mean_block_two(gm):
    chain = recode(gm, 2)
    assert chain.states == ((0, 0), (0, 1), (1, 0))
    # Overlap rule: 00 -> {00, 01}, 01 -> {10}, 10 -> {00, 01}.
    expected = np.array([[1, 1, 0], [0, 0, 1], [1, 1, 0]], dtype=np.uint8)
    assert (chain.adjacency == expected).all()


def test_recode_golden_mean_block_three_state_count(gm):
    # Oracle: enumerate admissible 3-words directly.
    brute = [w for w in itertools.product((0, 1), repeat=3)
             if all(gm.transitions[w[i], w[i + 1]] for i in range(2))]
    chain = recode(gm, 3)
    assert len(chain.states) == len(brute) == 5


def _primitive_specs(m):
    """Every primitive subshift on ``m`` symbols."""
    specs = []
    for bits in itertools.product((0, 1), repeat=m * m):
        try:
            specs.append(validate_spec(np.array(bits).reshape(m, m)))
        except LdplabError:
            pass
    return specs


def _brute_force_exponent(adjacency):
    """Smallest q with ``adjacency ** q`` entrywise positive, or None."""
    n = adjacency.shape[0]
    A = adjacency.astype(np.int64)
    power = A.copy()
    for q in range(1, (n - 1) ** 2 + 2):
        if (power > 0).all():
            return q
        power = np.minimum(power @ A, 1)
    return None


@pytest.mark.parametrize("m, block", [(m, k) for m in (1, 2, 3) for k in (1, 2, 3, 4)])
def test_recoded_chain_is_primitive(m, block):
    """The exponent recode() records in closed form is the brute-force one."""
    specs = _primitive_specs(m)
    assert specs
    for spec in specs:
        chain = recode(spec, block)
        assert chain.primitivity_power() == _brute_force_exponent(chain.adjacency)
        succ, degree = chain.successor_table
        for s in range(chain.num_states):
            assert succ[s, :degree[s]].tolist() == np.flatnonzero(chain.adjacency[s]).tolist()


def _loop_recode(spec, block):
    """Reference for :func:`recode`: the word-tuple loop over
    ``admissible_words``, with no recorded exponent, so the chain's
    ``primitivity_power`` comes from boolean matrix powers."""
    states = tuple(admissible_words(spec, block))
    index = {w: i for i, w in enumerate(states)}
    n = len(states)
    adjacency = np.zeros((n, n), dtype=np.uint8)
    step = np.full((n, spec.alphabet_size), -1, dtype=np.int64)
    for i, w in enumerate(states):
        for a in spec.successors(w[-1]):
            j = index[w[1:] + (a,)]
            adjacency[i, j] = 1
            step[i, a] = j
    return RecodedChain(spec, block, states, index, adjacency, step)


def _same_chain(chain, want):
    assert chain.states == want.states and chain.index == want.index
    assert all(type(a) is int for w in chain.states for a in w)
    for name in ("adjacency", "step"):
        got, ref = getattr(chain, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    assert chain.primitivity_power() == want.primitivity_power()


def test_recode_matches_the_word_loop_reference():
    """Integer word codes give the loop's states, index, adjacency, step and
    primitivity exponent, on seeded random specs: m <= 4 at blocks 1-4, and
    16 symbols at blocks 2 and 3."""
    rng = np.random.default_rng(20261019)
    cases = [(m, k) for m in (1, 2, 3, 4) for k in (1, 2, 3, 4) for _ in range(4)]
    cases += [(16, k) for k in (2, 3) for _ in range(3)]
    for m, k in cases:
        while True:
            try:
                spec = validate_spec((rng.random((m, m)) < (0.3 if m == 16 else 0.6)).astype(int))
                break
            except LdplabError:
                continue
        _same_chain(recode(spec, k), _loop_recode(spec, k))


def test_recode_rejects_blocks_whose_word_codes_overflow_int64():
    """A 16-cycle with one loop has few words of any length, but 16 ** 16
    codes do not fit in int64: block 16 raises before building anything,
    and block 15 (codes up to 2 ** 60) still matches the loop."""
    A = np.roll(np.eye(16, dtype=int), 1, axis=1)
    A[0, 0] = 1
    spec = validate_spec(A)
    with pytest.raises(ValidationError, match="int64"):
        recode(spec, 16)
    _same_chain(recode(spec, 15), _loop_recode(spec, 15))


# ---------------------------------------------------------------------------
# Transfer matrices


def test_transfer_zero_potential_is_adjacency(gm):
    chain = recode(gm, 1)
    M = transfer_matrix(chain, Potential.zero(gm))
    assert np.array_equal(M.matrix, chain.adjacency.astype(float))


def test_transfer_weights_sit_on_source(fs2):
    chain = recode(fs2, 1)
    M = transfer_matrix(chain, Potential.indicator(fs2, 1))
    assert np.allclose(M.matrix, [[1.0, 1.0], [math.e, math.e]])


def test_transfer_power_equals_word_sum(gm):
    """Row sums of the n-th matrix power accumulate exp(Birkhoff sums) over
    the n symbols following the start state, by brute-force enumeration."""
    phi = Potential(1, {(0,): 0.37, (1,): -0.81})
    chain = recode(gm, 1)
    M = transfer_matrix(chain, phi).matrix
    n = 3
    rowsum = (np.linalg.matrix_power(M, n) @ np.ones(2))[0]
    brute = 0.0
    for w in unstable_leaf_words(gm, 0, n + 1):
        brute += math.exp(birkhoff_sum(gm, w[:n], phi, continuation=w[n:]))
    assert rowsum == pytest.approx(brute, rel=1e-12)


def test_transfer_rejects_large_memory(fs2):
    chain = recode(fs2, 1)
    phi = Potential(2, {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0})
    with pytest.raises(MemoryTooLarge):
        transfer_matrix(chain, phi)


# ---------------------------------------------------------------------------
# Perron data


def test_rpf_full_shift(fs2):
    rpf = rpf_solve(transfer_matrix(recode(fs2, 1), Potential.zero(fs2)))
    assert rpf.eigenvalue == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(rpf.right, [1.0, 1.0], atol=1e-10)
    assert np.allclose(rpf.left, [0.5, 0.5], atol=1e-10)


def test_rpf_golden_mean_eigenvalue(gm):
    rpf = rpf_solve(transfer_matrix(recode(gm, 1), Potential.zero(gm)))
    assert rpf.eigenvalue == pytest.approx(GOLDEN_RATIO, abs=1e-10)


def test_rpf_normalized_bernoulli(fs2):
    for p in (0.1, 0.5, 0.9):
        rpf = rpf_solve(transfer_matrix(recode(fs2, 1), bernoulli_potential(fs2, p)))
        assert rpf.eigenvalue == pytest.approx(1.0, abs=1e-12)


def _golden_tilt(gm, t):
    return transfer_matrix(recode(gm, 1), Potential(1, {(0,): 0.0, (1,): float(t)}))


def test_rpf_residual_invariants(gm):
    """``residual`` is the defect relative to ``lam * max(vector)``; at
    golden t = 200, ``right`` spans 43 orders of magnitude and the defect
    divided by ``lam`` alone read 1.1e29."""
    cases = [transfer_matrix(recode(gm, 2), Potential(1, {(0,): 0.2, (1,): -0.4}))]
    cases += [_golden_tilt(gm, t) for t in (40, 200)]
    for M in cases:
        rpf = rpf_solve(M)
        lam, h, v = rpf.eigenvalue, rpf.right, rpf.left
        assert (h > 0).all() and (v > 0).all()
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(v @ h) == pytest.approx(1.0, abs=1e-12)
        bound = max(rpf.residual, 1e-15) * lam * 1.01
        assert np.max(np.abs(M.matrix @ h - lam * h)) <= bound * np.max(h)
        assert np.max(np.abs(v @ M.matrix - lam * v)) <= bound * np.max(v)
        assert rpf.residual <= 1e-12


def test_rpf_no_convergence_with_tiny_iteration_cap(gm):
    M = transfer_matrix(recode(gm, 1), Potential.zero(gm))
    with pytest.raises(NoConvergence):
        rpf_solve(M, tol=1e-13, max_iter=2)


def test_rpf_bracket_contains_closed_form(fs2, gm):
    cases = [(transfer_matrix(recode(fs2, 1), Potential.zero(fs2)), 2.0)]
    cases += [(_golden_tilt(gm, t), golden_lambda(t)) for t in (0, 10, 40)]
    for M, lam in cases:
        rpf = rpf_solve(M)
        assert rpf.lower <= lam <= rpf.upper
        assert rpf.lower <= rpf.eigenvalue <= rpf.upper
        assert rpf.upper - rpf.lower <= 1e-12 * lam


def test_rpf_nearly_periodic_tilt_converges(gm):
    """At t = 40, |lam_2 / lam_1| is within 1e-8 of 1: power iteration
    stalls and the solve finishes by shifted inverse iteration."""
    M = _golden_tilt(gm, 40)
    rpf = rpf_solve(M)
    lam, h, v = rpf.eigenvalue, rpf.right, rpf.left
    assert lam == pytest.approx(golden_lambda(40), rel=1e-13)
    assert (h > 0).all() and (v > 0).all()
    assert np.max(np.abs(M.matrix @ h - lam * h)) <= 1e-13 * lam * np.max(h)
    assert np.max(np.abs(v @ M.matrix - lam * v)) <= 1e-13 * lam * np.max(v)
    assert rpf.iterations <= 100


def test_rpf_iteration_cap_counts_inverse_steps(gm):
    M = _golden_tilt(gm, 40)
    needed = rpf_solve(M).iterations
    with pytest.raises(NoConvergence):
        rpf_solve(M, max_iter=needed - 1)


def test_rpf_raises_when_the_inverse_phase_stalls(gm, monkeypatch):
    """An inverse step that leaves its vector unchanged narrows neither the
    residual nor the bracket, so the solve gives up with NoConvergence."""
    monkeypatch.setattr(thermo, "_inverse_step", lambda matrix, x, shift, work: x)
    with pytest.raises(NoConvergence, match="stalled"):
        rpf_solve(_golden_tilt(gm, 40))


def test_inverse_phase_certifies_both_vectors_of_a_bottleneck_chain():
    """Complete blocks {0..5} and {6..9} joined by 0->6, 6->0 and 1->6, with
    base -log deg(b) on each 2-word (a, b): every row of the 55-state matrix
    sums to 1, so the flat right vector is exact and the intersected bracket
    is narrow at once while the left vector is still far off.  Each vector's
    own bracket must close: q'(0) is the uniform-successor walk's mean of
    the indicator of {6..9}, and the rate at 0.40 its Legendre transform."""
    A = np.zeros((10, 10), dtype=int)
    A[:6, :6] = A[6:, 6:] = 1
    A[0, 6] = A[6, 0] = A[1, 6] = 1
    spec, deg = validate_spec(A), A.sum(axis=1)
    base = Potential(2, {w: -math.log(deg[w[1]]) for w in admissible_words(spec, 2)})
    obs = Potential(1, {(a,): float(a >= 6) for a in range(10)})
    P, ind = A / deg[:, None], (np.arange(10) >= 6).astype(float)
    vals, vecs = np.linalg.eig(P.T)
    pi = np.abs(vecs[:, vals.real.argmax()].real)
    assert q_derivative(spec, base, obs, 0.0) == pytest.approx(pi @ ind / pi.sum(), abs=1e-12)
    ts = np.linspace(-0.05, 0.0, 5001)  # the maximiser, near -0.0136, is interior
    q = [math.log(np.abs(np.linalg.eigvals(P * np.exp(t * ind)[:, None])).max()) for t in ts]
    assert rate_scalar(spec, base, obs, 0.40) == pytest.approx(max(0.40 * ts - q), rel=1e-6)


def test_inverse_phase_certifies_both_vectors_of_a_stochastic_family():
    """fs2 at block 6 (64 states, flat starts) under the chain that keeps its
    last symbol with probability 1 - eps, eps = 0.01 after a 0 and 0.03
    after a 1: the row sums are 1, and the mean of the last symbol is
    eps_0 / (eps_0 + eps_1) = 0.25."""
    chain, eps = recode(validate_spec([[1, 1], [1, 1]]), 6), (0.01, 0.03)
    last = chain.last_symbols()
    leave = np.array(eps)[last][:, None]
    P = chain.adjacency * np.where(last[None, :] == last[:, None], 1.0 - leave, leave)
    fam = TiltFamily(chain, P, np.zeros(64), last.astype(float))
    assert fam.q_prime(0.0) == pytest.approx(eps[0] / (eps[0] + eps[1]), abs=1e-12)


def test_rpf_rejects_non_primitive_chain(fs2):
    adjacency = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    step = np.array([[-1, 1], [0, -1]], dtype=np.int64)
    chain = RecodedChain(fs2, 1, ((0,), (1,)), {(0,): 0, (1,): 1}, adjacency, step)
    M = transfer_matrix(chain, Potential.zero(fs2))
    with pytest.raises(NotPrimitive):
        rpf_solve(M)


def _same_rpf(a, b):
    assert (a.eigenvalue, a.residual, a.iterations, a.lower, a.upper) == \
        (b.eigenvalue, b.residual, b.iterations, b.lower, b.upper)
    assert np.array_equal(a.right, b.right) and np.array_equal(a.left, b.left)


def test_rpf_drops_a_start_whose_bracket_is_wider_than_tol(gm):
    """A start is kept only if its own Collatz-Wielandt bracket is within
    ``tol``; otherwise the solve is the flat-start solve, bit for bit."""
    M = _golden_tilt(gm, 40)
    for start in ((np.array([1.0, 2.0]), np.array([3.0, 1.0])),
                  (np.array([1.0, 1e-17]), np.array([1.0, 1e-17]))):
        _same_rpf(rpf_solve(M, start=start), rpf_solve(M))


def test_tilt_family_above_dense_start_solves_flat(fs2):
    """A chain above the cutoff gets no start: 64 states, W(t) from random
    potentials, the same eigendata as a flat ``rpf_solve``."""
    chain = recode(fs2, 6)
    assert chain.num_states > _DENSE_START
    rng = np.random.default_rng(11)
    fam = TiltFamily(chain, chain.adjacency.astype(np.float64),
                     rng.standard_normal(64), rng.standard_normal(64))
    for t in (0.0, 2.5, -7.0):
        W = WeightedMatrix(chain, fam.matrix * np.exp(fam.gvec + t * fam.pvec)[:, None])
        _same_rpf(fam.rpf(t), rpf_solve(W, fam.tol))


def test_tilt_family_solves_flat_when_eig_fails(gm, monkeypatch):
    """``_dense_start`` returns no start when LAPACK raises, and the tilt
    solve is then the flat ``rpf_solve``, bit for bit."""
    calls = []

    def failing_eig(a):
        calls.append(a)
        raise np.linalg.LinAlgError("eig did not converge")

    fam = TiltFamily.of(gm, Potential.zero(gm), Potential.indicator(gm, 1))
    monkeypatch.setattr(np.linalg, "eig", failing_eig)
    for t in (0.0, 2.5, 40.0):
        W = WeightedMatrix(fam.chain, fam.matrix * np.exp(fam.gvec + t * fam.pvec)[:, None])
        _same_rpf(fam.rpf(t), rpf_solve(W, fam.tol))
    assert len(calls) == 3


def _small_families(rng, count):
    """Tilt families of random primitive chains of at most ``_DENSE_START``
    states, base potentials scaled by 0.5, 5 and 50 in turn."""
    fams = []
    while len(fams) < count:
        m, k = int(rng.integers(2, 7)), int(rng.integers(1, 3))
        try:
            spec = validate_spec((rng.random((m, m)) < 0.6).astype(int))
        except LdplabError:
            continue
        chain = recode(spec, k)
        n = chain.num_states
        if n <= _DENSE_START:
            scale = (0.5, 5.0, 50.0)[len(fams) % 3]
            fams.append(TiltFamily(chain, chain.adjacency.astype(np.float64),
                                   scale * rng.standard_normal(n), rng.standard_normal(n)))
    return fams


def test_dense_start_solves_whatever_the_flat_start_solves():
    """Where the flat start returns, the dense start returns too, inside its
    bracket; a bracket within 1e-12 stays within it, and two such solves
    agree to 1e-12."""
    rng = np.random.default_rng(20261018)
    for fam in _small_families(rng, 50):
        for t in (1.0, -10.0, 60.0, -120.0):
            M = WeightedMatrix(fam.chain, fam.matrix * np.exp(fam.gvec + t * fam.pvec)[:, None])
            try:
                flat = rpf_solve(M, fam.tol)
            except NoConvergence:
                continue
            dense = fam.rpf(t)
            assert dense.lower <= dense.eigenvalue <= dense.upper
            if flat.upper - flat.lower <= 1e-12 * flat.lower:
                assert dense.upper - dense.lower <= 1e-12 * dense.lower
                assert dense.eigenvalue == pytest.approx(flat.eigenvalue, rel=1e-12, abs=0.0)


def _two_eig_start(matrix):
    """Reference for :func:`_dense_start`: one ``eig`` call per side."""
    try:
        pair = tuple(np.abs(vecs[:, np.argmax(w.real)].real)
                     for w, vecs in map(np.linalg.eig, (matrix, matrix.T)))
    except np.linalg.LinAlgError:
        return None
    return pair if all(np.all((x > 0) & (x < math.inf)) for x in pair) else None


def _masked_bracket(h, v, mh, vm):
    """Reference Collatz-Wielandt bracket: ratios over the positive entries."""
    def bounds(x, mx):
        pos = x > 0
        ratio = mx[pos] / x[pos]
        return float(ratio.min()), (float(ratio.max()) if pos.all() else math.inf)

    (lo_h, hi_h), (lo_v, hi_v) = bounds(h, mh), bounds(v, vm)
    return max(lo_h, lo_v), min(hi_h, hi_v)


def _recomputing_rpf(M, tol, start, every_step=False):
    """Reference for :func:`rpf_solve`: both products at every step and the
    bracket once more after the loop, reusing nothing; a residual stop needs
    a bracket within 1e-10 (relative) or an infinite upper end.  A window
    that keeps the power phase is followed by ``int(_SKIP * remaining)``
    unchecked steps and a fresh window, unless ``every_step`` checks every
    step.  Also returns whether the start was kept and whether the solve
    reached the inverse phase."""
    matrix, n = M.matrix, M.matrix.shape[0]
    h, v = np.full(n, 1.0 / n), np.full(n, 1.0 / n)
    kept = False
    if start is not None:
        lo, hi = _masked_bracket(*start, matrix @ start[0], start[1] @ matrix)
        if hi - lo <= tol * lo:
            (h, v), kept = start, True
    history, work, best_res, best_width, stalls = [], None, math.inf, math.inf, 0
    it = 0
    while it < 10 ** 6:
        it += 1
        mh, vm = matrix @ h, v @ matrix
        lam = float(v @ mh) / float(v @ h)
        if lam <= 0 or not math.isfinite(lam):
            raise NoConvergence("degenerate eigenvalue estimate")
        res = max(float(np.max(np.abs(mh - lam * h))) / (lam * float(np.max(h))),
                  float(np.max(np.abs(vm - lam * v))) / (lam * float(np.max(v))))
        if res <= tol:
            lo, hi = _masked_bracket(h, v, mh, vm)
            if hi == math.inf or hi - lo <= 1e-10 * lo:
                break
        if work is None:
            history = (history + [res])[-thermo._WINDOW - 1:]
            remaining = thermo._power_stalls(history, tol, n)
            if remaining < math.inf:
                h, v = mh / mh.sum(), vm / vm.sum()
                bare = 0 if every_step else int(thermo._SKIP * remaining)
                for _ in range(bare):
                    mh, vm = matrix @ h, v @ matrix
                    h, v = mh / mh.sum(), vm / vm.sum()
                it, history = it + bare, history if bare == 0 else []
                continue
            if not (np.all(h > 0) and np.all(v > 0)):
                raise NoConvergence("Perron vector entries underflow the double range")
            work = np.empty_like(matrix)
        lo, hi = _masked_bracket(h, v, mh, vm)
        width = (hi - lo) / lo
        if width <= tol:
            break
        if res < best_res or width < best_width:
            best_res, best_width, stalls = min(res, best_res), min(width, best_width), 0
        else:
            stalls += 1
            if stalls >= thermo._STALL:
                raise NoConvergence("inverse iteration stalled")
        shift = hi * (1.0 + thermo._SHIFT)
        h = thermo._inverse_step(matrix, h, shift, work)
        v = thermo._inverse_step(matrix.T, v, shift, work)
    lo, hi = _masked_bracket(h, v, mh, vm)
    slack = (n + 2) * float(np.finfo(np.float64).eps)
    v = v / v.sum()
    rpf = RPFData(lam, h / float(v @ h), v, res, it, lo * (1.0 - slack), hi * (1.0 + slack))
    return rpf, kept, work is not None


def test_tilt_solves_match_the_two_eig_recomputing_reference():
    """One batched ``eig`` gives the two ``eig`` calls' start bit for bit, and
    a solve that reuses the start gate's products and bracket, or the bracket
    of an inverse-phase break, returns the reference's eigendata field by
    field, on chains of at most ``_DENSE_START`` states with tilts that keep
    the start, drop it, and reach the inverse phase."""
    rng = np.random.default_rng(20261019)
    seen = {"kept": 0, "dropped": 0, "inverse": 0, "raised": 0}
    for fam in _small_families(rng, 45):
        for t in (1.0, -10.0, 60.0, -120.0):
            M = WeightedMatrix(fam.chain, fam.matrix * np.exp(fam.gvec + t * fam.pvec)[:, None])
            start, want_start = _dense_start(M.matrix), _two_eig_start(M.matrix)
            assert (start is None) == (want_start is None)
            if start is not None:
                assert all(np.array_equal(a, b) for a, b in zip(start, want_start))
            try:
                want, kept, inverse = _recomputing_rpf(M, fam.tol, want_start)
            except NoConvergence:
                seen["raised"] += 1
                with pytest.raises(NoConvergence):
                    fam.rpf(t)
                continue
            _same_rpf(fam.rpf(t), want)
            seen["kept" if kept else "dropped"] += 1
            seen["inverse"] += inverse
    assert min(seen["kept"], seen["dropped"], seen["inverse"]) >= 5, seen


def _ladder_families(rng):
    """Tilt families of seeded random primitive chains of 48 to 400 states,
    two per size band as the benchmark's chain ladder draws them, with
    potentials of scale 0.5."""
    fams = []
    for target, m, k in ((50, 8, 2), (50, 4, 3), (100, 16, 2), (100, 8, 3), (200, 16, 2),
                         (200, 8, 3), (400, 16, 3), (400, 8, 3)):
        density = (target / m) ** (1.0 / (k - 1)) / m
        while True:
            try:
                spec = validate_spec((rng.random((m, m)) < density).astype(int))
            except LdplabError:
                continue
            if 48 <= len(admissible_words(spec, k)) <= 400:
                break
        chain = recode(spec, k)
        n = chain.num_states
        fams.append(TiltFamily(chain, chain.adjacency.astype(np.float64),
                               0.5 * rng.standard_normal(n), 0.5 * rng.standard_normal(n)))
    return fams


def test_flat_solves_above_the_dense_start_match_the_recomputing_reference():
    """Where the stacked power step saves most, on chains of 48 to 400
    states, flat-start tilt solves return the reference's eigendata field
    by field."""
    rng = np.random.default_rng(20261020)
    sizes = set()
    for fam in _ladder_families(rng):
        sizes.add(fam.chain.num_states)
        for t in (0.0, 0.5, -0.5, 1.0, -1.0):
            M = WeightedMatrix(fam.chain, fam.matrix * np.exp(fam.gvec + t * fam.pvec)[:, None])
            want, _, _ = _recomputing_rpf(M, fam.tol, None)
            _same_rpf(fam.rpf(t), want)
    assert min(sizes) >= 48 and max(sizes) > 300, sizes


def _plain_bisection(fam, alpha, tol=1e-10):
    """Reference for :meth:`TiltFamily.solve_mean`: the bisection that solves
    every midpoint, kept verbatim from before midpoints were skipped."""
    cap = fam.t_limit

    def widen(t, q_t, short):
        while short(q_t) and abs(t) < cap:
            nxt = math.copysign(min(2.0 * abs(t), cap), t)
            try:
                q_t = fam.q_prime(nxt)
            except NoConvergence:
                break
            t = nxt
        return t, q_t

    hi, q_hi = widen(1.0, fam.q_prime(1.0), lambda q: q < alpha)
    lo, q_lo = widen(-1.0, fam.q_prime(-1.0), lambda q: q > alpha)
    if q_hi < alpha:
        return hi, True
    if q_lo > alpha:
        return lo, True
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        qm = fam.q_prime(mid)
        if abs(qm - alpha) <= tol:
            return mid, False
        if qm < alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi), False


def _bisection_families():
    """``(family, solve tol)``: fs2 and the golden mean with G in {zero,
    bern03} and phi in {ind1, pair01}, three seeded random systems, the golden
    mean at block 7 (34 states, flat starts) and two contraction-slice
    families (family tol 1e-12, solve tol 1e-9), as ``contraction_check``
    builds them."""
    fams = []
    for name in ("fs2", "golden"):
        spec, pots = load_spec(str(SPECS / f"{name}.json"))
        fams += [(TiltFamily.of(spec, pots[g], pots[p]), 1e-10)
                 for g in ("zero", "bern03") for p in ("ind1", "pair01")]
    rng = np.random.default_rng(20261020)
    while len(fams) < 11:
        m, k = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        try:
            chain = recode(validate_spec((rng.random((m, m)) < 0.6).astype(int)), k)
        except LdplabError:
            continue
        n = chain.num_states
        fams.append((TiltFamily(chain, chain.adjacency.astype(np.float64),
                                rng.standard_normal(n), rng.standard_normal(n)), 1e-10))
    gm = load_spec(str(SPECS / "golden.json"))[0]
    chain = recode(gm, 7)
    fams.append((TiltFamily(chain, chain.adjacency.astype(np.float64), np.zeros(34),
                            phi_vector(chain, Potential.indicator(gm, 1))), 1e-10))
    for fam in (fams[0][0], fams[4][0]):
        for _ in range(2):
            P = random_markov_measure(fam.chain, rng).transition
            fams.append((TiltFamily(fam.chain, P, np.zeros(fam.chain.num_states), fam.pvec,
                                    tol=1e-12), 1e-9))
    return fams


def test_solve_mean_is_the_plain_bisection_bit_for_bit():
    """Skipping the midpoints that solved tilts decide, and the interpolated
    probes solved to decide them, return the plain bisection's
    ``(t, capped)`` with ``==``: on an interior grid of 23 alphas, 1e-6 and
    1e-4 from each end of the ergodic range, and at ``alpha = q'(t)`` for
    seven tilts.  The two share one family, so each tilt is solved once."""
    compared = 0
    for fam, tol in _bisection_families():
        amin, amax = _cycle_range(fam.chain, fam.pvec)
        alphas = [amin + (amax - amin) * k / 24 for k in range(1, 24)]
        alphas += [amin + 1e-6, amin + 1e-4, amax - 1e-4, amax - 1e-6]
        alphas += [fam.q_prime(t) for t in (-1.5, -1.0, -0.5, 0.5, 0.75, 1.0, 2.0)]
        for alpha in alphas:
            assert fam.solve_mean(alpha, tol) == _plain_bisection(fam, alpha, tol), (fam, alpha)
            compared += 1
    assert compared >= 500


def test_solve_mean_reuses_the_solved_tilts_zero_and_one(monkeypatch):
    """A family that already holds the tilts 0 and +-1 returns a fresh
    family's ``(t, capped)`` on every case of the bit-for-bit test, and its
    bisection never solves more tilts, since those three decide midpoints
    and ends without a solve."""
    calls = []
    solve = thermo.rpf_solve
    monkeypatch.setattr(thermo, "rpf_solve", lambda *args: calls.append(1) or solve(*args))

    def solve_mean(fam, alpha, tol, held):
        fresh = TiltFamily(fam.chain, fam.matrix, fam.gvec, fam.pvec, fam.tol)
        for t in held:
            fresh.rpf(t)
        calls.clear()
        return fresh.solve_mean(alpha, tol), len(calls)

    compared = 0
    for fam, tol in _bisection_families():
        amin, amax = _cycle_range(fam.chain, fam.pvec)
        alphas = [amin + (amax - amin) * k / 24 for k in range(1, 24)]
        alphas += [amin + 1e-6, amin + 1e-4, amax - 1e-4, amax - 1e-6]
        alphas += [fam.q_prime(t) for t in (-1.5, -1.0, -0.5, 0.5, 0.75, 1.0, 2.0)]
        for alpha in alphas:
            got, held_solves = solve_mean(fam, alpha, tol, (0.0, -1.0, 1.0))
            want, fresh_solves = solve_mean(fam, alpha, tol, ())
            assert got == want and held_solves <= fresh_solves, (fam, alpha)
            compared += 1
    assert compared >= 500


def test_scheduled_checks_return_certified_eigendata():
    """Residual checks on a schedule still stop only where the stop rule
    holds: recomputed from the returned vectors, the residual is within
    ``tol`` and the Collatz-Wielandt bracket within ``_CERTIFIED``, and the
    eigenvalue is within 1e-13 (relative) of a solve that checks every
    step, on chains of 48 to 400 states and on the 34-state golden mean at
    tilts whose solves reach the inverse phase."""
    gm = load_spec(str(SPECS / "golden.json"))[0]
    chain = recode(gm, 7)
    golden = TiltFamily(chain, chain.adjacency.astype(np.float64), np.zeros(34),
                        phi_vector(chain, Potential.indicator(gm, 1)))
    cases = [(fam, t) for fam in _ladder_families(np.random.default_rng(20261021))
             for t in (0.0, 0.5, -0.5, 1.0, -1.0)]
    for fam, t in cases + [(golden, t) for t in (40.0, 100.0, 150.0)]:
        M = fam._weighted(t)
        rpf = fam.rpf(t)
        lam, h, v = rpf.eigenvalue, rpf.right, rpf.left
        mh, vm = M.matrix @ h, v @ M.matrix
        residual = max(np.abs(mh - lam * h).max() / (lam * h.max()),
                       np.abs(vm - lam * v).max() / (lam * v.max()))
        lo, hi = _masked_bracket(h, v, mh, vm)
        assert residual <= fam.tol and hi - lo <= thermo._CERTIFIED * lo, (fam, t)
        want, _, _ = _recomputing_rpf(M, fam.tol, None, every_step=True)
        assert lam == pytest.approx(want.eigenvalue, rel=1e-13, abs=0.0), (fam, t)


# ---------------------------------------------------------------------------
# Pressure


def test_pressure_oracles(fs2, gm):
    assert pressure(fs2, Potential.zero(fs2)) == pytest.approx(math.log(2), abs=1e-10)
    assert pressure(gm, Potential.zero(gm)) == pytest.approx(math.log(GOLDEN_RATIO), abs=1e-10)
    for p in (0.1, 0.5, 0.9):
        assert pressure(fs2, bernoulli_potential(fs2, p)) == pytest.approx(0.0, abs=1e-10)


def test_pressure_recoding_invariance(fs2, gm):
    phi_f = Potential(1, {(0,): 0.3, (1,): -0.7})
    phi_g = Potential(2, {(0, 0): 0.1, (0, 1): 0.8, (1, 0): -0.2})
    for spec, phi in ((fs2, phi_f), (gm, phi_g)):
        base = pressure(spec, phi)
        for k in range(phi.memory, phi.memory + 3):
            assert pressure(spec, phi, block=k) == pytest.approx(base, abs=1e-10)


def test_pressure_is_certified_where_a_small_residual_is_not():
    """The full 3-shift with this memory-2 potential has the fixed point
    0^inf of weight e^91, so P >= 91.  Three power steps reach a residual
    of 2.2e-14 on the block of 2-words near 22, whose bracket spans e^90 to
    e^91; a residual stop alone returned 90.00000000000003."""
    fs3 = validate_spec(np.ones((3, 3), dtype=int))
    H = Potential(2, {(0, 0): 91.0, (0, 1): -77.0, (0, 2): -20.0, (1, 0): -135.0, (1, 1): -5.0,
                      (1, 2): 1.0, (2, 0): 16.0, (2, 1): 126.0, (2, 2): 90.0})
    assert pressure(fs3, H) >= 91.0
    M = transfer_matrix(recode(fs3, 2), H)
    rpf = rpf_solve(M)
    h, v = rpf.right, rpf.left
    ratios = (M.matrix @ h / h, v @ M.matrix / v)
    lo, hi = max(r.min() for r in ratios), min(r.max() for r in ratios)
    assert math.log(hi) >= 91.0 and hi - lo <= 1e-10 * lo


def test_no_pressure_below_the_maximum_cycle_mean(fs2):
    """P(H) >= max cycle mean of H (the measure on a periodic orbit has
    entropy 0), on 1,000 seeded integer tables in [-150, 150] each on fs3
    at memory 2 and on fs2 at memory 3.  A solve may fail with a typed
    ``NoConvergence``, but not return a root its bracket does not certify."""
    fs3 = validate_spec(np.ones((3, 3), dtype=int))
    rng = np.random.default_rng(20261019)
    raised = 0
    for spec, k in ((fs3, 2), (fs2, 3)):
        words = admissible_words(spec, k)
        for _ in range(1000):
            H = Potential(k, dict(zip(words, rng.integers(-150, 151, len(words)).astype(float).tolist())))
            top = ergodic_range(spec, H)[1]
            try:
                P = pressure(spec, H)
            except NoConvergence:
                raised += 1
                continue
            assert P >= top - 1e-12 * max(1.0, abs(top)), H.table
    assert raised <= 10


def test_pressure_convex_along_tilts(fs2, gm):
    ind = {s.alphabet_size: Potential.indicator(s, 1) for s in (fs2, gm)}
    for spec in (fs2, gm):
        phi = Potential.indicator(spec, 1)
        ts = np.linspace(-2, 2, 21)
        vals = [pressure(spec, Potential(1, {k: t * v for k, v in phi.table.items()}))
                for t in ts]
        second = np.diff(vals, 2)
        assert (second >= -1e-8).all()


def test_finite_n_growth_bound(fs2, gm):
    """Kifer-style growth: the n-th root of the weighted word sum approaches
    the pressure at speed C/n."""
    for spec in (fs2, gm):
        phi = Potential(1, {(0,): 0.4, (1,): -0.3})
        chain = recode(spec, 1)
        M = transfer_matrix(chain, phi).matrix
        weights = np.exp([phi.value(w) for w in chain.states])
        P = pressure(spec, phi)
        devs = []
        for n in range(5, 31):
            total = float(np.ones(2) @ np.linalg.matrix_power(M, n - 1) @ weights)
            devs.append((n, abs(math.log(total) / n - P)))
        C = max(n * d for n, d in devs)
        assert math.isfinite(C)
        assert all(d <= C / n + 1e-12 for n, d in devs)
        # Full-shift sums are exact at every n (rank-1 matrix); only require
        # non-increase from first to last.
        assert devs[-1][1] <= devs[0][1] + 1e-15


# ---------------------------------------------------------------------------
# Gibbs measures


def test_gibbs_full_shift_is_uniform(fs2):
    mu = equilibrium_measure(fs2, Potential.zero(fs2))
    assert np.allclose(mu.transition, 0.5, atol=1e-12)
    assert np.allclose(mu.stationary, 0.5, atol=1e-12)


def test_gibbs_chain_keeps_every_admissible_edge_where_m_h_underflows():
    """On the full 3-shift with G = (-700, 0, -100), M[i, j] h[j] underflows
    on three admissible edges before the division by lam h[i] brings it back
    into range.  Recomputed in logs, every row is exp(G) / sum(exp(G)), as for
    any memory-1 potential on a full shift, and no admissible edge is 0."""
    fs3 = validate_spec(np.ones((3, 3), dtype=int))
    G = np.array([-700.0, 0.0, -100.0])
    mu = equilibrium_measure(fs3, Potential(1, {(a,): G[a] for a in range(3)}))
    assert (mu.transition[mu.chain.adjacency > 0] > 0).all()
    want = np.exp(G - np.logaddexp.reduce(G))
    assert np.allclose(mu.transition, want[None, :], rtol=1e-12, atol=0)


def test_gibbs_golden_mean_is_parry(gm):
    g = GOLDEN_RATIO
    mu = equilibrium_measure(gm, Potential.zero(gm))
    assert mu.transition[0, 0] == pytest.approx(1 / g, abs=1e-12)
    assert mu.transition[0, 1] == pytest.approx(1 / g ** 2, abs=1e-12)
    assert mu.transition[1, 0] == pytest.approx(1.0, abs=1e-12)
    assert mu.transition[1, 1] == 0.0


def test_gibbs_bernoulli(fs2):
    for p in (0.2, 0.5, 0.8):
        mu = equilibrium_measure(fs2, bernoulli_potential(fs2, p))
        assert np.allclose(mu.transition[:, 0], p, atol=1e-12)
        assert np.allclose(mu.stationary, [p, 1 - p], atol=1e-12)


def test_gibbs_stochasticity_and_stationarity(fs2, gm):
    for spec in (fs2, gm):
        for pot in (Potential.zero(spec), Potential.indicator(spec, 0),
                    Potential(1, {(0,): -1.3, (1,): 2.2})):
            mu = equilibrium_measure(spec, pot)
            assert np.max(np.abs(mu.transition.sum(axis=1) - 1)) < 1e-12
            assert np.max(np.abs(mu.stationary @ mu.transition - mu.stationary)) < 1e-12
            assert np.all((mu.transition > 0) == (mu.chain.adjacency > 0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [22, 23, 55, 92])
def test_equilibrium_measure_on_extreme_potentials_returns_or_raises_typed(seed):
    """Memory-3 potentials of scale 300 on random 4-symbol specs: seeds 22
    and 23 reach ``v @ h == 0`` in the solve, and 55 and 92 overflow the
    chain's products.  Each returns a measure or raises an LdplabError, with
    no bare ``ZeroDivisionError`` or ``RuntimeWarning``."""
    rng = np.random.default_rng(seed)
    A = (rng.random((4, 4)) < 0.7).astype(int)
    if seed % 2:
        np.fill_diagonal(A, 1)
    spec = validate_spec(A)
    words = admissible_words(spec, 3)
    H = Potential(3, dict(zip(words, np.clip(rng.normal(0, 300, len(words)), -700, 700).tolist())))
    try:
        mu = equilibrium_measure(spec, H)
    except LdplabError:
        return
    assert np.isfinite(mu.transition).all() and np.isfinite(mu.stationary).all()


def test_gibbs_raises_when_perron_vector_underflows(fs3_underflow):
    """The chain would come out NaN (with a silent NaN entropy); it raises."""
    fs3, G = fs3_underflow
    assert pressure(fs3, G) == 0.0
    with pytest.raises(NoConvergence):
        equilibrium_measure(fs3, G)


# ---------------------------------------------------------------------------
# Entropy and integrals


def test_entropy_bernoulli_half(fs2):
    mu = equilibrium_measure(fs2, Potential.zero(fs2))
    assert entropy(mu) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_deterministic_cycle_is_zero(fs2):
    chain = recode(fs2, 1)
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu = MarkovMeasure(chain, P, np.array([0.5, 0.5]))
    assert entropy(mu) == 0.0


def test_entropy_parry_equals_log_golden_ratio(gm):
    mu = equilibrium_measure(gm, Potential.zero(gm))
    assert entropy(mu) == pytest.approx(math.log(GOLDEN_RATIO), abs=1e-10)


def test_integrate_constant(fs2):
    mu = equilibrium_measure(fs2, Potential.zero(fs2))
    assert integrate(mu, Potential.constant(fs2, 3.25)) == pytest.approx(3.25, abs=1e-12)


def test_integrate_bernoulli_marginal(fs2):
    # Under the Bernoulli(p) equilibrium measure symbol 0 has frequency p.
    for p in (0.2, 0.7):
        mu = equilibrium_measure(fs2, bernoulli_potential(fs2, p))
        assert integrate(mu, Potential.indicator(fs2, 0)) == pytest.approx(p, abs=1e-12)
        assert integrate(mu, Potential.indicator(fs2, 1)) == pytest.approx(1 - p, abs=1e-12)


def test_integrate_parry_indicator(gm):
    g = GOLDEN_RATIO
    mu = equilibrium_measure(gm, Potential.zero(gm))
    assert integrate(mu, Potential.indicator(gm, 1)) == pytest.approx(1 / (g * g + 1), abs=1e-10)
    assert 1 / (g * g + 1) == pytest.approx(0.2763932, abs=1e-7)


# ---------------------------------------------------------------------------
# Variational principle


def test_variational_gap_zero_at_equilibrium(fs2, gm):
    for spec in (fs2, gm):
        for pot in (Potential.zero(spec), bernoulli_potential(spec, 0.3)):
            mu = equilibrium_measure(spec, pot)
            assert abs(variational_gap(spec, pot, mu)) <= 1e-8


def test_variational_gap_bernoulli_closed_form(fs2):
    # Markov measure with symbol-0 probability 3/4 against the flat potential.
    chain = recode(fs2, 1)
    P = np.array([[0.75, 0.25], [0.75, 0.25]])
    mu = MarkovMeasure(chain, P, np.array([0.75, 0.25]))
    expected = math.log(2) + 0.75 * math.log(0.75) + 0.25 * math.log(0.25)
    assert variational_gap(fs2, Potential.zero(fs2), mu) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.1308120, abs=1e-7)


def test_variational_gap_nonnegative_over_random_measures(fs2, gm):
    rng = np.random.default_rng(17)
    for spec in (fs2, gm):
        chain = recode(spec, 1)
        pot = bernoulli_potential(spec, 0.3)
        for _ in range(200):
            mu = random_markov_measure(chain, rng)
            assert variational_gap(spec, pot, mu) >= -1e-8


def test_random_markov_measure_is_stationary(gm):
    rng = np.random.default_rng(5)
    mu = random_markov_measure(recode(gm, 2), rng)
    assert np.max(np.abs(mu.transition.sum(axis=1) - 1)) < 1e-12
    assert np.max(np.abs(mu.stationary @ mu.transition - mu.stationary)) < 1e-12


def test_stationary_distribution_two_state():
    P = np.array([[0.9, 0.1], [0.4, 0.6]])
    pi = stationary_distribution(P)
    assert np.allclose(pi, [0.8, 0.2], atol=1e-12)


def test_gibbs_measure_carries_its_pressure(gm, fs2):
    """A Gibbs measure keeps the log Perron eigenvalue it was built from;
    other Markov measures carry none."""
    zero = Potential.zero(gm)
    mu = equilibrium_measure(gm, zero)
    assert mu.pressure == pressure(gm, zero)
    assert mu.pressure == pytest.approx(math.log(GOLDEN_RATIO), abs=1e-14)
    assert random_markov_measure(mu.chain, np.random.default_rng(0)).pressure is None
    pair01 = Potential(2, {(a, b): float(a != b) for a in range(2) for b in range(2)})
    assert equilibrium_measure(fs2, pair01, block=3).pressure == pressure(fs2, pair01, block=3)


def test_recode_stops_typed_past_the_state_cap(fs2):
    """fs2 at block 13 has exactly ``MAX_STATES`` states; one block more
    raises before the next level of words is built."""
    assert len(recode(fs2, 13).states) == thermo.MAX_STATES
    with pytest.raises(BudgetExceeded, match="block 14 needs more than"):
        recode(fs2, 14)


# ---------------------------------------------------------------------------
# Typed raises


@pytest.mark.parametrize("call, error, match", [
    (lambda fs2: pressure(fs2, Potential(1, {(0,): 800.0, (1,): 0.0})), ValidationError,
     "potential values exceed magnitude 700"),
    (lambda fs2: pressure(fs2, Potential(2, {w: 0.0 for w in admissible_words(fs2, 2)}), block=1),
     MemoryTooLarge, "block 1 below potential memory 2"),
], ids=["unvalidated-huge-value", "block-below-memory"])
def test_typed_raises(call, error, match, fs2):
    with pytest.raises(error, match=match):
        call(fs2)


def test_solve_mean_stops_when_the_bracket_collapses(gm):
    """A q' that jumps by 2e-9 across alpha at t* = 0.3 never comes within
    tol of alpha: the bisection ends on the bracket's width.  Every solved d
    is +-1e-9, so each probe divides by a zero difference and is dropped."""
    fam = TiltFamily.of(gm, Potential.zero(gm), Potential.indicator(gm, 1))
    calls = []
    fam.q_prime = lambda t: calls.append(t) or 0.25 + (1e-9 if t >= 0.3 else -1e-9)
    t, capped = fam.solve_mean(0.25)
    assert capped is False
    assert abs(t - 0.3) <= 1e-14
    assert len(calls) < 200  # stopped on the width, not on the iteration count
