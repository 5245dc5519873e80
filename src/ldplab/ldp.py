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
    succ, degree = chain.successor_table
    n = chain.num_states
    succ = np.where(np.arange(succ.shape[1]) < degree[:, None], succ, succ[:, :1])
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
    """``(q'(-1), q'(1))`` if ``alpha`` lies more than ``solve_mean``'s
    tolerance 1e-10 inside it, else (or if either solve fails) the ergodic
    range.  Each q'(t) is an invariant mean, so in the first case ``alpha``
    is strictly inside the ergodic range, which is wider than 1e-13."""
    try:
        lo, hi = fam.q_prime(-1.0), fam.q_prime(1.0)
    except NoConvergence:
        pass
    else:
        if lo + 1e-10 < alpha < hi - 1e-10:
            return lo, hi
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
    if alpha < amin or alpha > amax:
        return math.inf, None, True
    if amax - amin <= 1e-13:
        return 0.0, 0.0, True
    t, capped = fam.solve_mean(alpha)
    value = t * alpha - fam.q(t)
    return max(value, 0.0), t, capped or alpha in (amin, amax)


def rate_scalar(spec: SubshiftSpec, base: Potential, obs: Potential, alpha: float) -> float:
    """Rate of deviations of the observable average to ``alpha``.

    Computed as the Legendre transform ``sup_t (t * alpha - q(t))`` by
    solving ``q'(t) = alpha``; ``+inf`` outside the closed ergodic range,
    and the monotone limit (evaluated at the capped bracket) at its ends.
    The value is ``rate_curve``'s, but the ergodic range is computed only if
    ``alpha`` is not more than 1e-10 inside ``(q'(-1), q'(1))``, solved
    first anyway, or if either of those solves fails.  NaN raises ValueError.
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
    t, _ = fam.solve_mean(alpha)
    scalar = max(t * alpha - fam.q(t), 0.0)
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
    if K == 1:
        v = v * weights
    total = float(v.sum())
    log_acc = math.log(total)
    v = v / total
    for j in range(1, n + K - 1):
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
    """One (n, mass) sample of a deviation-set decay series."""

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


def _lattice_masses(mu: LeafMeasure, z: Sequence[int], n: int, zlo: int, zhi: int) -> np.ndarray:
    """Masses of the integer weight sums ``zlo .. zhi`` (``0 <= zlo``,
    ``zhi <= n * max z``) accumulated over the n windows after the start.

    Weights are >= 0, so a sum above ``zhi`` never comes back, and one below
    ``zlo - r * max z`` with r windows left never reaches ``zlo``: only the
    band between them is computed.  Column ``max z + Z`` holds sum ``Z``; the
    ``max z`` columns below sum 0 stay zero, so each z-group's shift is one
    copy out of the matmul buffer.
    """
    chain = mu.chain
    K = chain.block
    z = np.asarray(z, dtype=np.int64)
    zmax = int(z.max())
    if zlo > zhi:
        return np.zeros(0)
    v = np.zeros((chain.num_states, zmax + zhi + 1))
    out = np.zeros_like(v)
    v[mu.start_index, zmax] = 1.0
    PT = mu.transition.T.copy()
    groups = []
    for zi in sorted(set(z.tolist())):
        rows = np.flatnonzero(z == zi)
        contiguous = rows[-1] - rows[0] + 1 == len(rows)
        groups.append((zi, slice(rows[0], rows[-1] + 1) if contiguous else rows))
    lo = hi = zmax  # the live band of columns
    for j in range(1, n + K):
        np.matmul(PT, v[:, lo:hi + 1], out=out[:, lo:hi + 1])
        if j < K:
            v, out = out, v
            continue
        lo = max(lo, zmax + zlo - (n + K - 1 - j) * zmax)
        hi = min(hi + zmax, zmax + zhi)
        for zi, rows in groups:
            v[rows, lo:hi + 1] = out[rows, lo - zi:hi + 1 - zi]
    return v[:, lo:hi + 1].sum(axis=0)


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
    masses = _lattice_masses(mu, z, n, zlo, zhi)
    ilo, ihi = _lattice_inside(interval, lattice, n, slack) if slack else (zlo, zhi)
    # Added one by one in order, as np.sum's pairwise order would round differently.
    low, high = (float(np.cumsum(m)[-1]) if m.size else 0.0
                 for m in (masses[ilo - zlo:ihi - zlo + 1], masses))
    mass = 0.5 * (low + high)
    return DeviationPoint(
        n=n, mass=mass, log_mass=_log_or_neg_inf(mass),
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
    sample i consumes a fixed slice of a counter-based stream.
    """
    if interval.is_empty():
        raise EmptyInterval(f"interval {interval} is empty")
    if n < 1 or samples < 1:
        raise ValueError("need n >= 1 and samples >= 1")
    chain = mu.chain
    K = chain.block
    pvec = phi_vector(chain, obs)
    vals, member = _walk_sums(pvec, _detect_lattice(pvec), interval, n)
    if tilt is None or tilt == 0.0:
        P_sim = mu.transition
        log_ratio = None
    else:
        fam = TiltFamily(chain, chain.adjacency.astype(np.float64),
                         phi_vector(chain, mu.potential), pvec)
        P_sim = fam.measure(tilt).transition
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.where(chain.adjacency > 0,
                                 np.log(np.where(P_sim > 0, mu.transition / P_sim, 1.0)), 0.0)

    tables = walk_tables(chain, P_sim)
    W, dst, _ = tables
    vals = vals[dst]  # per edge slot from here on, as is log_ratio
    if log_ratio is not None:
        log_ratio = log_ratio[np.arange(len(dst)) // W, dst]

    steps = n + K - 1
    total = 0.0
    total_sq = 0.0
    for _, j, slot in markov_walks(tables, mu.start_index, steps, samples, seed):
        if j == 1:  # first step of a sub-block of walks
            birk = np.zeros(len(slot), dtype=vals.dtype)
            loglr = np.zeros(len(slot))
        if log_ratio is not None:
            loglr += log_ratio.take(slot)
        if j >= K:
            birk += vals.take(slot)
        if j == steps:
            w = member(birk).astype(np.float64)
            if log_ratio is not None:
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
    """Least-squares fit of ``-(1/n) log m_n`` against ``a + b log(n)/n + c/n``.

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
    usable = [(p.n, p.mass) for p in points if p.mass > 0 and math.isfinite(p.mass)]
    if len(usable) < 4:
        raise DegenerateFit(f"need at least 4 points with positive mass, got {len(usable)}")
    ns = np.array([n for n, _ in usable], dtype=np.float64)
    y = np.array([-math.log(m) / n for n, m in usable])
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
