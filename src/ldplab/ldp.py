"""Rate functions and deviation-set masses on expanding leaves.

The scaled cumulant ``q(t) = pressure(base + t * obs) - pressure(base)`` is
convex with derivative equal to the observable's mean under the tilted
equilibrium measure.  Its Legendre transform is the scalar rate function;
the measure-level rate of an invariant Markov measure is
``pressure - integral - entropy``.  Deviation-set masses on a leaf are
computed exactly (enumeration or a lattice dynamic program), with certified
brackets for off-lattice observables, or by tilted Monte Carlo.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceeded, DegenerateFit, EmptyInterval, IncompatibleSupport, NoConvergence
from .leaf import LeafMeasure, expand_word_tree, leaf_word_counts, markov_walks, walk_tables
from .sft import Potential, SubshiftSpec
from .thermo import (MarkovMeasure, RecodedChain, TiltFamily, entropy, integrate, phi_vector,
                     pressure, random_markov_measure, recode)

DEFAULT_BUDGET = 10 ** 7


# ---------------------------------------------------------------------------
# Tilted pressure family


def _not_nan(name: str, x: float) -> float:
    if math.isnan(x := float(x)):
        raise ValueError(f"{name} must not be NaN")
    return x


def q_value(spec: SubshiftSpec, base: Potential, obs: Potential, t: float) -> float:
    """Scaled cumulant ``pressure(base + t*obs) - pressure(base)``; convex, q(0)=0."""
    return TiltFamily.of(spec, base, obs).q(_not_nan("t", t))


def q_derivative(spec: SubshiftSpec, base: Potential, obs: Potential, t: float) -> float:
    """Derivative of the scaled cumulant: the mean of ``obs`` under the tilted
    equilibrium measure (no finite differences)."""
    return TiltFamily.of(spec, base, obs).q_prime(_not_nan("t", t))


# ---------------------------------------------------------------------------
# Ergodic range (min/max mean cycle)


#: Policy iterations :func:`_cycle_range` runs before it raises NoConvergence.
_HOWARD_MAX_ITER = 1000
#: Slack the stop test allows per edge, relative to the largest |weight| and |bias|.
_HOWARD_SLACK = 2.0 ** -40


def _cycle_range(chain: RecodedChain, w: np.ndarray) -> tuple[float, float]:
    """Minimum and maximum mean cycle of ``w`` (weights on the source state)
    by Howard's policy iteration on two copies of the successor table, with
    ``w`` and ``-w``, in O(edges) memory.  A state moves to a successor whose
    cycle mean is larger, or when none is (the chain is strongly connected,
    so the means are then equal) whose bias is larger by more than the slack.
    The stop test certifies that no cycle mean exceeds ``eta + slack``; each
    end is the mean of the final policy's cycle, correctly rounded."""
    succ, _ = chain.successor_table
    n = chain.num_states
    S = np.concatenate((succ, succ + n))
    wts, idx = np.concatenate((w, -w)), np.arange(2 * n)
    flat, scale = idx * S.shape[1], float(np.abs(w).max())
    levels = (2 * n - 1).bit_length()  # 2**levels steps reach a cycle and go round it
    pol = S.ravel().take(flat + wts.take(S).argmax(axis=1))  # heaviest next state
    for _ in range(_HOWARD_MAX_ITER):
        # Pointer doubling: rep[v] is the least node of the cycle v reaches.
        cyc, low = pol, idx
        for _ in range(levels):
            low, cyc = np.minimum(low, low.take(cyc)), cyc.take(cyc)
        rep = low.take(cyc)
        on = np.zeros(2 * n, dtype=bool)
        on[cyc] = True
        eta = (np.bincount(rep[on], wts[on], 2 * n).take(rep)
               / np.bincount(rep[on], None, 2 * n).take(rep))  # mean of v's cycle
        nxt = eta.take(S)
        move = nxt.max(axis=1) > eta
        if not move.any():
            # Bias x[v] = wts[v] - eta + x[pol[v]], 0 at rep: sums of the walks to rep.
            root = rep == idx
            jump, x = np.where(root, idx, pol), np.where(root, 0.0, wts - eta)
            for _ in range(levels):
                x += x.take(jump)
                jump = jump.take(jump)
            nxt = x.take(S)
            gain = wts - eta + nxt.max(axis=1) - x  # largest slack of v's edges
            slack = _HOWARD_SLACK * (scale + float(np.abs(x).max()))
            if gain.max() <= slack:
                break
            move = gain > slack
        pol = np.where(move, S.ravel().take(flat + nxt.argmax(axis=1)), pol)
    else:
        raise NoConvergence(f"policy iteration did not stop within {_HOWARD_MAX_ITER} iterations")
    hi, neg_lo = (float(sum(map(Fraction, vals.tolist()), Fraction(0)) / len(vals))
                  for vals in (wts[on & (rep == rep[v])] for v in (0, n)))
    return 0.0 - neg_lo, hi  # +0.0, not -0.0, for a zero minimum


def _alpha_range(fam: TiltFamily, alpha: float) -> tuple[float, float]:
    """The range of ``q'`` over 0 and the end of ``[-1, 1]`` on ``alpha``'s
    side (both ends if ``alpha`` is within 1e-10 of ``q'(0)``) if ``alpha`` lies
    more than ``solve_mean``'s tolerance 1e-10 inside it, else (or if a solve
    fails) the ergodic range.  Each q'(t) is an invariant mean, so in the first
    case ``alpha`` is strictly inside the ergodic range, wider than 1e-13."""
    try:
        mid = fam.q_prime(0.0)
        ends = [mid] + [fam.q_prime(t) for t in (-1.0, 1.0) if (alpha - mid) * t >= -1e-10]
    except NoConvergence:
        pass
    else:
        if min(ends) + 1e-10 < alpha < max(ends) - 1e-10:
            return min(ends), max(ends)
    return _cycle_range(fam.chain, fam.pvec)


def ergodic_range(spec: SubshiftSpec, obs: Potential) -> tuple[float, float]:
    """Smallest and largest possible ergodic averages of the observable.

    Extremes of the integral over invariant measures are attained on
    periodic orbits, i.e. on min/max mean cycles of the recoded state graph.
    """
    chain = recode(spec, obs.memory)
    return _cycle_range(chain, phi_vector(chain, obs))


# ---------------------------------------------------------------------------
# Scalar and measure-level rate functions


@dataclass(frozen=True)
class RateCurve:
    """Samples of the scalar rate function on a grid of target averages."""

    alphas: tuple[float, ...]
    values: tuple[float, ...]
    tilts: tuple[float | None, ...]
    boundary: tuple[bool, ...]
    alpha_range: tuple[float, float]


def _rate_point(fam: TiltFamily, alpha_range: tuple[float, float],
                alpha: float) -> tuple[float, float | None, bool]:
    """``(value, tilt, boundary)`` of the rate at ``alpha``."""
    amin, amax = alpha_range
    if amax - amin <= 1e-13:  # one point; a computed q' may land a few ulp off it
        slack = 4.0 * math.ulp(max(abs(amin), abs(amax)))
        return (0.0, 0.0, True) if amin - slack <= alpha <= amax + slack else (math.inf, None, True)
    if alpha < amin or alpha > amax:
        return math.inf, None, True
    t, capped = fam.solve_mean(alpha)
    value = t * alpha - fam.q(t)
    return max(value, 0.0), t, capped or alpha in (amin, amax)


def rate_scalar(spec: SubshiftSpec, base: Potential, obs: Potential, alpha: float) -> float:
    """Rate of deviations of the observable average to ``alpha``.

    Computed as the Legendre transform ``sup_t (t * alpha - q(t))`` by
    solving ``q'(t) = alpha``; ``+inf`` outside the closed ergodic range,
    and the monotone limit (evaluated at the capped bracket) at its ends.
    The value is ``rate_curve``'s, but the ergodic range is computed only if
    ``alpha`` is not more than 1e-10 inside the range of ``q'`` over ``0``
    and the end of ``[-1, 1]`` on ``alpha``'s side, which the bisection
    reuses, or if one of those solves fails.  NaN raises ValueError.
    """
    alpha = _not_nan("alpha", alpha)
    fam = TiltFamily.of(spec, base, obs)
    return _rate_point(fam, _alpha_range(fam, alpha), alpha)[0]


def rate_curve(spec: SubshiftSpec, base: Potential, obs: Potential,
               alphas: Sequence[float]) -> RateCurve:
    alphas = tuple(_not_nan("alpha", a) for a in alphas)
    fam = TiltFamily.of(spec, base, obs)
    alpha_range = _cycle_range(fam.chain, fam.pvec)
    pts = [_rate_point(fam, alpha_range, a) for a in alphas]
    return RateCurve(alphas, tuple(p[0] for p in pts), tuple(p[1] for p in pts),
                     tuple(p[2] for p in pts), alpha_range)


def _check_support(spec: SubshiftSpec, nu: MarkovMeasure) -> None:
    if nu.chain.base != spec:
        raise IncompatibleSupport("measure lives on a different subshift")
    if np.any(nu.transition[nu.chain.adjacency == 0] != 0):
        raise IncompatibleSupport("measure puts mass on forbidden transitions")


def _rate_measure_given(log_pressure: float, base: Potential, nu: MarkovMeasure) -> float:
    return log_pressure - integrate(nu, base) - entropy(nu)


def rate_measure(spec: SubshiftSpec, base: Potential, nu: MarkovMeasure) -> float:
    """Measure-level rate ``pressure - integral - entropy`` of an invariant
    Markov measure; non-negative, zero exactly at the equilibrium measure."""
    _check_support(spec, nu)
    return _rate_measure_given(pressure(spec, base), base, nu)


@dataclass
class ContractionReport:
    """Scalar rate vs measure rates over the constraint slice ``mean == alpha``."""

    alpha: float
    tilt: float
    scalar_rate: float
    samples: int
    min_slack: float
    equality_gap: float
    max_constraint_residual: float
    passed: bool


def contraction_check(spec: SubshiftSpec, base: Potential, obs: Potential, alpha: float,
                      samples: int = 100, seed: int = 0) -> ContractionReport:
    """Check that the scalar rate is the infimum of measure rates at mean alpha.

    Random fully supported Markov measures are exponentially tilted onto the
    constraint slice; each must have measure rate at least the scalar rate,
    with equality (within 1e-6) at the tilted equilibrium measure itself.
    """
    fam = TiltFamily.of(spec, base, obs)
    amin, amax = _alpha_range(fam, alpha)
    if not amin < alpha < amax:
        raise ValueError(f"alpha {alpha} outside the open ergodic range ({amin}, {amax})")
    scalar, t, _ = _rate_point(fam, (amin, amax), alpha)
    tilted = fam.measure(t)
    equality_gap = abs(_rate_measure_given(fam.base_log, base, tilted) - scalar)

    rng = np.random.default_rng(seed)
    zero = np.zeros(fam.chain.num_states)
    min_slack = math.inf
    max_resid = 0.0
    for _ in range(samples):
        # Exponential tilts of a random chain, solved onto mean == alpha.
        random_chain = random_markov_measure(fam.chain, rng).transition
        slice_fam = TiltFamily(fam.chain, random_chain, zero, fam.pvec, tol=1e-12)
        nu = slice_fam.measure(slice_fam.solve_mean(alpha, tol=1e-9)[0])
        min_slack = min(min_slack, _rate_measure_given(fam.base_log, base, nu) - scalar)
        max_resid = max(max_resid, abs(float(nu.stationary @ fam.pvec) - alpha))

    return ContractionReport(
        alpha=alpha,
        tilt=t,
        scalar_rate=scalar,
        samples=samples,
        min_slack=float(min_slack),
        equality_gap=float(equality_gap),
        max_constraint_residual=float(max_resid),
        passed=bool(min_slack >= -1e-8 and equality_gap <= 1e-6),
    )


# ---------------------------------------------------------------------------
# Leaf growth estimate


def growth_estimate(mu: LeafMeasure, obs: Potential, n: int) -> float:
    """Exact ``(1/n) log`` of the leaf integral of ``exp(S_n obs)``.

    The sum over depth-enough cylinders of mass times ``exp`` of the
    Birkhoff sum (windows anchored at the leaf's start coordinate) is
    accumulated by weighted matrix-vector products in the log domain; as n
    grows it converges to ``q(obs)`` at speed O(1/n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    chain = mu.chain
    K = chain.block
    weights = np.exp(phi_vector(chain, obs))
    v = np.zeros(chain.num_states)
    v[mu.start_index] = 1.0
    log_acc = 0.0
    for j in range(n + K - 1):
        if j > 0:
            v = v @ mu.transition
        if j >= K - 1:
            v = v * weights
        s = float(v.sum())
        log_acc += math.log(s)
        v = v / s
    return log_acc / n


# ---------------------------------------------------------------------------
# Deviation-set masses


@dataclass(frozen=True)
class Interval:
    """A real interval with independently open or closed ends."""

    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def is_empty(self) -> bool:
        return not (self.lo < self.hi or (self.lo == self.hi and self.closed_lo and self.closed_hi))

    def contains(self, x: float) -> bool:
        return bool(self.contains_array(x))

    def contains_array(self, x: np.ndarray) -> np.ndarray:
        lo_ok = x >= self.lo if self.closed_lo else x > self.lo
        hi_ok = x <= self.hi if self.closed_hi else x < self.hi
        return lo_ok & hi_ok

    @classmethod
    def parse(cls, text: str) -> "Interval":
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"interval must look like 'lo:hi', got {text!r}")
        return cls(float(parts[0]), float(parts[1]))

    def __str__(self) -> str:
        return f"{'[' if self.closed_lo else '('}{self.lo}, {self.hi}{']' if self.closed_hi else ')'}"


@dataclass(frozen=True)
class DeviationPoint:
    """One (n, mass) sample of a deviation-set decay series.  Below the
    normal double range the DP's ``mass`` is 0.0 and its ``log_mass`` stays
    finite; elsewhere ``log_mass`` is ``log(mass)``."""

    n: int
    mass: float
    log_mass: float
    method: str
    stderr: float | None = None
    mass_low: float | None = None
    mass_high: float | None = None
    bin_width: float | None = None
    samples: int | None = None
    tilt: float | None = None


@dataclass(frozen=True)
class DeviationSeries:
    interval: Interval
    points: tuple[DeviationPoint, ...]


def _log_or_neg_inf(mass: float) -> float:
    return math.log(mass) if mass > 0 else -math.inf


def _rank(interval: Interval, x: float) -> int:
    """0 if ``x`` lies below the (non-empty) interval, 1 inside, 2 above."""
    return 1 if interval.contains(x) else 2 * (x > interval.lo)


#: Lattice detection tries rationals up to this denominator, and accepts one
#: only if it rounds to the stored double itself.
_LATTICE_DENOMINATOR = 10 ** 6


def _detect_lattice(values: np.ndarray):
    """Exact rational-lattice reconstruction of a value table.

    Returns ``(offset, gap, z)`` with ``values[i] == offset + gap * z[i]``
    exactly (as rationals reproducing the floats), or None when the values
    do not sit on a common lattice with denominator <= _LATTICE_DENOMINATOR.
    """
    fracs = []
    for v in values:
        f = Fraction(float(v)).limit_denominator(_LATTICE_DENOMINATOR)
        if float(f) != float(v):
            return None
        fracs.append(f)
    base = min(fracs)
    diffs = [f - base for f in fracs]
    nonzero = [d for d in diffs if d]
    if not nonzero:
        return base, Fraction(0), [0] * len(fracs)
    g = nonzero[0]
    for d in nonzero[1:]:
        g = Fraction(
            math.gcd(g.numerator * d.denominator, d.numerator * g.denominator),
            g.denominator * d.denominator,
        )
    return base, g, [int(d / g) for d in diffs]


def _lattice_inside(interval: Interval, lattice, n: int, slack=Fraction(0)) -> tuple[int, int]:
    """Lattice sums ``zlo .. zhi`` whose bracket ``[avg - slack, avg + slack]``
    about ``avg = offset + gap * Z / n`` the interval contains, by the rule
    every method shares: each end, exact and correctly rounded to a double,
    against the double endpoints (what decimal bounds on a command line
    denote).  The rounded ends do not decrease with ``Z``, so bisection over
    ``0 .. n * max z`` finds them.  A negative slack gives the sums whose
    bracket meets the interval.
    """
    offset, gap, z = lattice

    def rank(Z: int, shift: Fraction) -> int:
        return _rank(interval, float(offset + gap * Fraction(Z, n) + shift))

    sums = range(n * max(z) + 1)
    return (bisect.bisect_left(sums, 1, key=lambda Z: rank(Z, -slack)),
            bisect.bisect_left(sums, 2, key=lambda Z: rank(Z, slack)) - 1)


def _walk_sums(pvec: np.ndarray, lattice, interval: Interval, n: int):
    """``(values, inside)``: what ``n``-step walks accumulate, and the
    membership of the accumulated sums.  Lattice tables accumulate integer
    ``z`` (when every sum fits in int64) under :func:`_lattice_inside`."""
    if lattice is None or n * max(lattice[2]) >= np.iinfo(np.int64).max:
        return pvec, lambda sums: interval.contains_array(sums / n)
    zlo, zhi = _lattice_inside(interval, lattice, n)
    return np.asarray(lattice[2], dtype=np.int64), lambda sums: (sums >= zlo) & (sums <= zhi)


def _max_plus_reach(chain: RecodedChain, z: np.ndarray, n: int) -> np.ndarray:
    """``F[r]``, r = 0 .. n: at least the largest sum of ``z`` (on the target
    state) that r steps from any state add, by the max-plus recursion ``G_r =
    max over successors of (z + G_{r-1})`` (Baccelli et al. 1992, ch. 3), exact
    once ``G_r - G_{r-p}`` is constant; past r = 64 ``F(a + b) <= F(a) + F(b)``."""
    succ, _ = chain.successor_table
    zs, G = z[succ], np.zeros((min(n, 64) + 1, chain.num_states), dtype=np.int64)
    for r in range(1, len(G)):
        G[r] = (zs + G[r - 1].take(succ)).max(axis=1)
        d = G[r] - G[:r]
        if (flat := np.flatnonzero(d.min(axis=1) == d.max(axis=1))).size:
            break
    F = G[:r + 1].max(axis=1)
    p, c = (r - flat[-1], d[flat[-1], 0]) if flat.size else (r, F[r])
    k = (np.arange(r + 1, n + 1) - r + p - 1) // p
    return np.concatenate((F, F[np.arange(r + 1, n + 1) - k * p] + k * c))


#: A lattice DP result below _DP_SCALE_BELOW is recomputed with column exponents; they rise
#: at most _DP_SLOPE over max z columns and are renormalized at most _DP_RENORM steps apart.
_DP_SCALE_BELOW, _DP_RENORM, _DP_SLOPE = 2.0 ** -960, 16, 896
_NORMAL = float(np.finfo(float).tiny)  # the smallest normal double
#: The plain DP on s states runs in blocks of k = _BLOCK_ROW // (s * max z) windows when
#: s * s * max z <= _BLOCK_WORK and n >= _BLOCK_FROM * k: measured at n = 3000, blocks took
#: 0.2-0.75 of the per-window time where s * s * max z <= 16, and 1.0-3.4 times it from 18 to 64.
_BLOCK_ROW, _BLOCK_WORK, _BLOCK_FROM = 64, 16, 3


def _window(PT: np.ndarray, groups, v: np.ndarray, out: np.ndarray, lo: int, hi: int,
            new_lo: int, new_hi: int, scale: np.ndarray | None = None) -> None:
    """One window of the lattice DP, states on ``v``'s second-last axis and
    sum columns on its last: ``out = PT @ v`` on columns ``lo .. hi``, then
    each z-group's rows of ``out``, shifted up by the group's z, into ``v`` on
    columns ``new_lo .. new_hi``."""
    np.matmul(PT, v[..., lo:hi + 1], out=out[..., lo:hi + 1])
    for g, (zi, rows) in enumerate(groups):
        src = out[..., rows, new_lo - zi:new_hi + 1 - zi]
        v[..., rows, new_lo:new_hi + 1] = src if scale is None else src * scale[g, new_lo:new_hi + 1]


def _block(A: np.ndarray, B: np.ndarray, x: np.ndarray, y: np.ndarray, t0: int, t1: int) -> None:
    """One block of k windows of the lattice DP on tiles ``t0 .. t1 - 1``:
    ``y[t] = x[t] @ A + x[t - 1] @ B``."""
    np.matmul(x[t0:t1], A, out=y[t0:t1])
    y[t0:t1] += x[t0 - 1:t1 - 1] @ B


def _lattice_masses(mu: LeafMeasure, z: Sequence[int], n: int, zlo: int, zhi: int,
                    scaled: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Masses of the integer weight sums ``zlo .. zhi`` (``0 <= zlo``,
    ``zhi <= n * max z``) accumulated over the n windows after the start, as
    ``(m, e)``: sum ``zlo + i`` has mass ``m[i] * 2**-e[i]``.

    Weights are >= 0.  With d windows done and L left, only the sums from
    ``zlo - F[L]`` to ``min(F[d], zhi)`` are computed (F from
    :func:`_max_plus_reach`): one below never reaches ``zlo``, one above has
    mass exactly zero.  Column ``max z + Z`` holds sum ``Z``; the ``max z``
    columns below sum 0 stay zero, so each z-group's shift is one copy.

    On s states with ``s * s * max z <= _BLOCK_WORK``, from ``n >= _BLOCK_FROM
    * k``, the plain DP advances k windows at a time by blocked matrix
    products (Goto & van de Geijn 2008).  k window steps from the unit starts
    give the k-window kernel T; the ``n mod k`` windows before the first
    block read it part-way.  The sums sit in tiles of ``k * max z`` rows, one
    row per sum and one column per state, on a grid fixed at sum 0, and a
    block maps tile t to ``x[t] @ A + x[t - 1] @ B``, A and B the
    block-Toeplitz halves of T, on the tiles of the band after its last
    window, at least two (numpy sends a one-row product to gemv, which rounds
    otherwise).  Cells below the band only feed cells that cannot reach
    ``zlo``, so a sum's bits do not depend on the interval.

    ``e`` is zero unless the result is below ``_DP_SCALE_BELOW``, where cells
    that matter may have left the normal range.  Then the DP reruns
    ``scaled``, one window at a time: column c holds its masses times
    ``2**E[c]`` with E >= 0, a shift multiplies by ``2**(E[c] - E[c - z])``,
    and renormalizing moves each column's largest entry into [1/2, 1).
    Powers of two commute with the matmul, so a result in the normal range
    has the bits of the plain DP run one window at a time.
    """
    chain = mu.chain
    K, s = chain.block, chain.num_states
    z = np.asarray(z, dtype=np.int64)
    zmax = int(z.max())
    reach = _max_plus_reach(chain, z, n)
    zhi = min(zhi, int(reach[n]))
    los = np.maximum.accumulate(np.maximum(zmax + zlo - reach[n - 1::-1], zmax))
    his = np.minimum(zmax + reach[1:], zmax + zhi)  # the band after windows d = 1 .. n
    if (los > his).any():  # no cell reaches the interval
        return np.zeros(0), np.zeros(0, dtype=np.intc)
    los, his, width = los.tolist(), his.tolist(), zmax + zhi + 1
    v = np.zeros((s, width))
    out = np.zeros_like(v)
    v[mu.start_index, zmax] = 1.0
    PT = mu.transition.T.copy()
    groups = []
    for zi in sorted(set(z.tolist())):
        rows = np.flatnonzero(z == zi)
        contiguous = rows[-1] - rows[0] + 1 == len(rows)
        groups.append((zi, slice(rows[0], rows[-1] + 1) if contiguous else rows))
    spread = len(groups) - int(np.log2(PT[PT > 0].min()))  # bits a step moves an entry, unshifted
    E, scale, renorm = np.zeros(width, dtype=np.intc), None, 1  # scale: 2**(E[c] - E[c - z_g])
    lo = hi = zmax  # the live band of columns
    for _ in range(K - 1):  # the steps before the first window add nothing
        np.matmul(PT, v[:, lo:hi + 1], out=out[:, lo:hi + 1])
        v, out = out, v
    k = _BLOCK_ROW // (s * zmax) if 0 < s * s * zmax <= _BLOCK_WORK else 0
    if not scaled and k and n >= _BLOCK_FROM * k:
        L, r = k * zmax, n % k
        T = np.zeros((s, s, zmax + L + 1))  # T[i, j, zmax + w]: from state i to j, adding w
        T[range(s), range(s), zmax] = 1.0
        T_out, x = np.zeros_like(T), np.zeros((zhi // L + 3, L * s))  # tile 0: sums -L .. -1
        for w in range(k):
            if w == r:  # the band after the windows before the first block
                x[1] = np.einsum("i,ijc->cj", v[:, zmax], T[:, :, zmax:zmax + L]).ravel()
            _window(PT, groups, T, T_out, 0, zmax + L, zmax, zmax + L)
        W = np.pad(T[:, :, zmax:], ((0, 0), (0, 0), (L, L - 1)))  # W[..., L + w] = T[..., zmax + w]
        h, a, i, b, j = np.ogrid[1:3, :L, :s, :L, :s]  # A (h = 1) and B (h = 2): sum row a to b
        A, B = W[i, j, h * L + b - a].reshape(2, L * s, L * s)
        y = np.zeros_like(x)
        for d in range(r + k, n + 1, k):
            t0 = (los[d - 1] - zmax) // L + 1
            _block(A, B, x, y, t0, max((his[d - 1] - zmax) // L + 2, t0 + 2))
            x, y = y, x
        m = x.reshape(-1, s)[L + los[-1] - zmax:L + his[-1] - zmax + 1].sum(axis=1)
        if m.sum() >= _DP_SCALE_BELOW:
            return m, np.zeros(len(m), dtype=np.intc)
        return _lattice_masses(mu, z, n, zlo, zhi, scaled=True)
    for d, (lo_d, hi_d) in enumerate(zip(los, his), 1):
        _window(PT, groups, v, out, lo, hi, lo_d, hi_d, scale)
        left, lo, hi = lo, lo_d, hi_d
        if scaled:  # stale columns below the band only feed cells that cannot reach zlo,
            out[:, left:lo] = 0.0  # but they would sway the renormalization
        if not scaled or d < renorm:
            continue
        # A column without mass takes the exponent of the nearest lower one with mass.
        top = (band := v[:, lo:hi + 1]).max(axis=0)
        near = np.maximum.accumulate(np.where(top > 0, np.arange(len(top)), (top > 0).argmax()))
        rise = np.arange(len(top)) * (_DP_SLOPE / zmax)
        new = (E[lo:hi + 1] - np.frexp(top)[1]).take(near) - rise
        new = np.maximum(np.minimum.accumulate(new) + rise, 0).astype(np.intc)
        band[...] = np.ldexp(band, new - E[lo:hi + 1])
        E[:lo], E[lo:hi + 1], E[hi + 1:] = new[0], new, new[-1]
        shift = E - E.take(np.maximum(np.arange(width) - np.array([[zi] for zi, _ in groups]), 0))
        scale = np.ldexp(1.0, shift)  # exact, and finite: E rises at most _DP_SLOPE over max z
        # The next renormalization comes before an entry can leave the double range.
        renorm = d + max(1, min(_DP_RENORM, 900 // (2 * int(np.abs(shift).max()) + spread)))
    m = v[:, lo:hi + 1].sum(axis=0)
    if not scaled and m.sum() < _DP_SCALE_BELOW:
        return _lattice_masses(mu, z, n, zlo, zhi, scaled=True)
    return m, E[lo:hi + 1]


def _dp_point(mu: LeafMeasure, pvec: np.ndarray, lattice, interval: Interval, n: int,
              budget: float, bin_width: float) -> DeviationPoint:
    """Lattice DP on ``lattice`` (from :func:`_detect_lattice`), or when it is
    None the same DP on ``bin_width`` bins, each sum's true average within
    ``slack`` of the bins' (zero on a lattice): ``mass_high`` adds the sums
    whose bracket meets the interval, ``mass_low`` those it contains."""
    binned, slack = lattice is None, Fraction(0)
    if binned:
        unit = Fraction(bin_width)
        raw = [int(round(float(v) / bin_width)) for v in pvec]
        zmin = min(raw)
        # The common factor of the bins changes no bracket; dividing it out shrinks the DP.
        g = math.gcd(*(r - zmin for r in raw)) or 1
        lattice = unit * zmin, unit * g, [(r - zmin) // g for r in raw]
        slack = max(abs(Fraction(float(v)) - unit * r) for v, r in zip(pvec, raw))
    _, gap, z = lattice
    cells = mu.chain.num_states * (n * max(z) + 1)
    if cells > budget:
        raise BudgetExceeded(f"lattice dynamic program needs {cells} cells, budget {budget:.3g}")

    zlo, zhi = _lattice_inside(interval, lattice, n, -slack)
    masses, exps = _lattice_masses(mu, z, n, zlo, zhi)
    ilo, ihi = _lattice_inside(interval, lattice, n, slack) if slack else (zlo, zhi)
    # Added one by one in order, as np.sum's pairwise order would round differently;
    # below the double range the log is taken of the masses over 2**k (largest in [1/2, 1)).
    k = int((np.frexp(masses)[1] - exps)[masses > 0].max()) if masses.any() else 0
    run = slice(ilo - zlo, ihi - zlo + 1)
    true, over_k = np.ldexp(masses, -exps), np.ldexp(masses, -exps - k)
    low, high, low_k, high_k = (float(np.cumsum(np.r_[0.0, x])[-1])
                                for x in (true[run], true, over_k[run], over_k))
    mass = 0.5 * (low + high)
    log_mass = (math.log(mass) if mass >= _NORMAL
                else _log_or_neg_inf(0.5 * (low_k + high_k)) + k * math.log(2))
    return DeviationPoint(
        n=n, mass=mass if mass >= _NORMAL else 0.0, log_mass=log_mass,
        method="dp-binned" if binned else "dp-lattice",
        mass_low=low, mass_high=high, bin_width=bin_width if binned else float(gap),
    )


#: Most leaf words one slice of the enumeration holds at its last level.
_ENUM_CHUNK = 1 << 16


def _enum_point(mu: LeafMeasure, pvec: np.ndarray, lattice, interval: Interval,
                n: int) -> DeviationPoint:
    chain = mu.chain
    K = chain.block
    depth = n + K - 1
    vals, member = _walk_sums(pvec, lattice, interval, n)

    def expand(state, logmass, birk, levels):
        for j in levels:
            par, state, logmass = expand_word_tree(chain, mu.log_transition, state, logmass)
            birk = birk[par] + (vals[state] if j >= K else 0)
        return logmass, birk, state

    # Breadth-first until the subtrees below hold at most _ENUM_CHUNK words each
    # (sizes[s] words `rest` levels below state s), then slice by slice.
    A, sizes, rest = chain.adjacency.astype(np.float64), np.ones(chain.num_states), 0
    while rest < depth and (nxt := A @ sizes).max() <= _ENUM_CHUNK:
        sizes, rest = nxt, rest + 1
    logmass, birk, state = expand(np.array([mu.start_index]), np.zeros(1),
                                  np.zeros(1, dtype=vals.dtype), range(1, depth - rest + 1))
    step = int(_ENUM_CHUNK // sizes.max())
    masses = []
    for i in range(0, len(state), step):
        lm, b, _ = expand(state[i:i + step], logmass[i:i + step], birk[i:i + step],
                          range(depth - rest + 1, depth + 1))
        masses.append(float(np.exp(lm[member(b)]).sum()))
    mass = math.fsum(masses)
    return DeviationPoint(
        n=n, mass=mass, log_mass=_log_or_neg_inf(mass), method="exact-enumeration",
        mass_low=mass, mass_high=mass,
    )


def deviation_mass_exact(mu: LeafMeasure, obs: Potential, interval: Interval, n: int,
                         budget: float | None = None, mode: str = "auto",
                         bin_width: float = 1e-3) -> DeviationPoint:
    """Exact leaf mass of ``{averaged S_n obs in interval}``.

    The average runs over the ``n`` coordinates after the leaf's start
    coordinate (the start symbol is conditioning, not data), so the set is
    a union of depth ``n + memory`` cylinders.  ``mode``:

    * ``enumerate``: sum cylinder masses over all admissible leaf words, 2**16 at a time;
    * ``dp``: dynamic program over (state, accumulated value).  Exact when
      the observable values sit on a common rational lattice (detected by
      exact rational reconstruction, denominator <= 1e6); otherwise values
      are rounded to a ``bin_width`` lattice (finite, > 0) and the same DP
      returns certified brackets: ``mass_high`` adds the sums whose average
      may lie in the interval, ``mass_low`` those whose average must;
    * ``auto``: lattice dp when available within budget, else enumeration
      within budget, else binned dp.
    """
    if interval.is_empty():
        raise EmptyInterval(f"interval {interval} is empty")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin_width must be finite and > 0, got {bin_width}")
    budget = DEFAULT_BUDGET if budget is None else float(budget)
    pvec = phi_vector(mu.chain, obs)

    if mode not in ("auto", "dp", "enumerate"):
        raise ValueError(f"unknown mode {mode!r}")
    lattice = _detect_lattice(pvec)
    lattice_fits = lattice is not None and mu.chain.num_states * (n * max(lattice[2]) + 1) <= budget
    if mode == "auto" and lattice_fits:
        mode = "dp"
    if mode != "dp":
        # No level of the word tree outgrows the last: every state has a successor.
        count = leaf_word_counts(mu.chain, mu.start_index, n + mu.chain.block - 1)[-1]
        if count <= budget:
            return _enum_point(mu, pvec, lattice, interval, n)
        if mode == "enumerate":
            raise BudgetExceeded(f"enumeration needs about {count:.3g} words, budget {budget:.3g}")
        lattice = None  # auto: the lattice DP is over budget, so bin
    return _dp_point(mu, pvec, lattice, interval, n, budget, bin_width)


def deviation_series(mu: LeafMeasure, obs: Potential, interval: Interval,
                     lengths: Iterable[int], **kwargs) -> DeviationSeries:
    pts = tuple(deviation_mass_exact(mu, obs, interval, n, **kwargs) for n in lengths)
    return DeviationSeries(interval, pts)


def recommended_tilt(spec: SubshiftSpec, base: Potential, obs: Potential,
                     interval: Interval) -> float:
    """Tilt whose equilibrium mean sits at the interval endpoint nearest the
    untilted mean (zero when the interval already contains the mean)."""
    if interval.is_empty():
        raise EmptyInterval(f"interval {interval} is empty")
    fam = TiltFamily.of(spec, base, obs)
    mean = fam.q_prime(0.0)
    if interval.contains(mean):
        return 0.0
    target = interval.lo if mean < interval.lo else interval.hi
    amin, amax = _alpha_range(fam, target)
    target = min(max(target, amin), amax)
    t, _ = fam.solve_mean(target)
    return t


def deviation_mass_mc(mu: LeafMeasure, obs: Potential, interval: Interval, n: int,
                      samples: int, tilt: float | None = None,
                      seed: int = 0) -> DeviationPoint:
    """Monte Carlo estimate of the deviation-set mass, optionally tilted.

    With a tilt ``t``, paths are drawn from the equilibrium chain of
    ``potential + t * obs`` and reweighted by the exact per-step transition
    probability ratio, so the estimator stays unbiased for any t.  The
    estimate and standard error are deterministic given (seed, parameters);
    sample i consumes a fixed slice of a counter-based stream.  A block of
    k walk steps adds its log ratios as one sum, so tilted bits can move in
    the last places against per-step sums; untilted ones do not.
    """
    if interval.is_empty():
        raise EmptyInterval(f"interval {interval} is empty")
    if n < 1 or samples < 1:
        raise ValueError("need n >= 1 and samples >= 1")
    chain = mu.chain
    K = chain.block
    pvec = phi_vector(chain, obs)
    vals, member = _walk_sums(pvec, _detect_lattice(pvec), interval, n)
    P_sim = mu.transition
    if tilt is not None and tilt != 0.0:
        fam = TiltFamily(chain, chain.adjacency.astype(np.float64),
                         phi_vector(chain, mu.potential), pvec)
        P_sim = fam.measure(tilt).transition

    tables = walk_tables(chain, P_sim)
    W, dst, _ = tables
    vals = vals[dst]  # per edge slot from here on, as is log_ratio
    log_ratio = None
    if P_sim is not mu.transition:
        src = np.arange(len(dst)) // W
        sim = P_sim[src, dst]
        ratio = np.divide(mu.transition[src, dst], sim, out=np.ones_like(sim), where=sim > 0)
        # An edge whose untilted probability underflowed to 0 gets weight 0.
        log_ratio = np.log(ratio, out=np.full_like(ratio, -np.inf), where=ratio > 0)

    steps = n + K - 1
    total = total_sq = 0.0
    per_span = {}  # (span, steps before the Birkhoff sum starts) -> per-key tables
    for _, j, key, paths in markov_walks(tables, mu.start_index, steps, samples, seed):
        span = paths.shape[1]
        if j == 1:  # first step of a sub-block of walks
            birk, loglr = np.zeros(len(key), dtype=vals.dtype), np.zeros(len(key))
        skip = min(max(K - j, 0), span)
        if (span, skip) not in per_span:
            part = vals[paths[:, skip:]]  # integer sums add a block at once, floats in walk order
            per_span[span, skip] = ([part.sum(axis=1)] if vals.dtype.kind == "i" else list(part.T.copy()),
                                    None if log_ratio is None else log_ratio[paths].sum(axis=1))
        parts, lr = per_span[span, skip]
        for part in parts:
            birk += part.take(key)
        if lr is not None:
            loglr += lr.take(key)
        if j + span > steps:
            w = member(birk).astype(np.float64)
            if lr is not None:
                w = w * np.exp(loglr)
            total += float(w.sum())
            total_sq += float((w * w).sum())
    est = total / samples
    var = max(total_sq - samples * est * est, 0.0) / (samples - 1) if samples > 1 else 0.0
    stderr = math.sqrt(var / samples)
    return DeviationPoint(
        n=n, mass=est, log_mass=_log_or_neg_inf(est), method="monte-carlo",
        stderr=stderr, samples=samples, tilt=tilt,
    )


# ---------------------------------------------------------------------------
# Asymptotic rate fitting


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of ``-(1/n) log m_n`` against ``a + b log(n)/n + c/n``,
    over the points with a finite ``log_mass`` (which stays finite where the
    mass falls below the double range).

    ``estimate`` is the asymptotic rate ``a``; the ``log(n)/n`` term absorbs
    the local-limit prefactor that a plain ``a + c/n`` model would push into
    the rate at desk scales.
    """

    estimate: float
    b: float
    c: float
    residual: float
    monotone: bool

    def predict(self, n: float) -> float:
        return self.estimate + self.b * math.log(n) / n + self.c / n


def rate_fit(series: DeviationSeries | Sequence[DeviationPoint]) -> RateFit:
    points = series.points if isinstance(series, DeviationSeries) else tuple(series)
    usable = [(p.n, p.log_mass) for p in points if math.isfinite(p.log_mass)]
    if len(usable) < 4:
        raise DegenerateFit(f"need at least 4 points with a finite log mass, got {len(usable)}")
    ns = np.array([n for n, _ in usable], dtype=np.float64)
    y = np.array([-lm / n for n, lm in usable])
    X = np.column_stack([np.ones_like(ns), np.log(ns) / ns, 1.0 / ns])
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < 3:
        raise DegenerateFit("degenerate design matrix (need >= 3 distinct lengths)")
    residual = float(np.sqrt(np.mean((X @ coef - y) ** 2)))
    grid = np.linspace(ns.min(), ns.max(), 64)
    vals = coef[0] + coef[1] * np.log(grid) / grid + coef[2] / grid
    diffs = np.diff(vals)
    monotone = bool((diffs >= -1e-12).all() or (diffs <= 1e-12).all())
    return RateFit(float(coef[0]), float(coef[1]), float(coef[2]), residual, monotone)
