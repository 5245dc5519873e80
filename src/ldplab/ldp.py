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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateFit,
    EmptyInterval,
    IncompatibleSupport,
)
from .leaf import LeafMeasure, expand_word_tree, leaf_word_counts, markov_walks
from .sft import Potential, SubshiftSpec
from .thermo import (
    MarkovMeasure,
    RecodedChain,
    TiltFamily,
    entropy,
    integrate,
    phi_vector,
    pressure,
    random_markov_measure,
    recode,
)

DEFAULT_BUDGET = 10 ** 7


# ---------------------------------------------------------------------------
# Tilted pressure family


def q_value(spec: SubshiftSpec, base: Potential, obs: Potential, t: float) -> float:
    """Scaled cumulant ``pressure(base + t*obs) - pressure(base)``; convex, q(0)=0."""
    return TiltFamily.of(spec, base, obs).q(t)


def q_derivative(spec: SubshiftSpec, base: Potential, obs: Potential, t: float) -> float:
    """Derivative of the scaled cumulant: the mean of ``obs`` under the tilted
    equilibrium measure (no finite differences)."""
    return TiltFamily.of(spec, base, obs).q_prime(t)


# ---------------------------------------------------------------------------
# Ergodic range (min/max mean cycle)


def _min_mean_cycle(adj: np.ndarray, weights: np.ndarray) -> float:
    """Minimum mean cycle with per-edge weight taken from the source node.

    Karp's algorithm on a strongly connected graph: with ``D_k(v)`` the
    minimum weight of a k-edge walk from a fixed source to ``v``, the answer
    is ``min_v max_k (D_n(v) - D_k(v)) / (n - k)``.
    """
    n = adj.shape[0]
    D = np.full((n + 1, n), np.inf)
    D[0, 0] = 0.0
    for k in range(n):
        cand = np.where(adj, D[k][:, None] + weights[:, None], np.inf)
        D[k + 1] = cand.min(axis=0)
    best = np.inf
    for v in range(n):
        if not np.isfinite(D[n, v]):
            continue
        worst = -np.inf
        for k in range(n):
            if np.isfinite(D[k, v]):
                worst = max(worst, (D[n, v] - D[k, v]) / (n - k))
        best = min(best, worst)
    return float(best)


def _cycle_range(chain: RecodedChain, w: np.ndarray) -> tuple[float, float]:
    adj = chain.adjacency.astype(bool)
    return _min_mean_cycle(adj, w), float(-_min_mean_cycle(adj, -w))


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
class RatePoint:
    alpha: float
    value: float
    tilt: float | None
    boundary: bool


@dataclass(frozen=True)
class RateCurve:
    """Samples of the scalar rate function on a grid of target averages."""

    alphas: tuple[float, ...]
    values: tuple[float, ...]
    tilts: tuple[float | None, ...]
    boundary: tuple[bool, ...]
    alpha_range: tuple[float, float]


def _rate_point(fam: TiltFamily, alpha_range: tuple[float, float], alpha: float) -> RatePoint:
    amin, amax = alpha_range
    if alpha < amin or alpha > amax:
        return RatePoint(alpha, math.inf, None, True)
    if amax - amin <= 1e-13:
        return RatePoint(alpha, 0.0, 0.0, True)
    t, capped = fam.solve_mean(alpha)
    value = t * alpha - fam.q(t)
    return RatePoint(alpha, max(value, 0.0), t, capped or alpha in (amin, amax))


def rate_scalar(spec: SubshiftSpec, base: Potential, obs: Potential, alpha: float) -> float:
    """Rate of deviations of the observable average to ``alpha``.

    Computed as the Legendre transform ``sup_t (t * alpha - q(t))`` by
    solving ``q'(t) = alpha``; ``+inf`` outside the closed ergodic range,
    and the monotone limit (evaluated at the capped bracket) at its ends.
    """
    return rate_curve(spec, base, obs, [alpha]).values[0]


def rate_curve(spec: SubshiftSpec, base: Potential, obs: Potential,
               alphas: Sequence[float]) -> RateCurve:
    fam = TiltFamily.of(spec, base, obs)
    alpha_range = _cycle_range(fam.chain, fam.pvec)
    pts = [_rate_point(fam, alpha_range, float(a)) for a in alphas]
    return RateCurve(
        alphas=tuple(p.alpha for p in pts),
        values=tuple(p.value for p in pts),
        tilts=tuple(p.tilt for p in pts),
        boundary=tuple(p.boundary for p in pts),
        alpha_range=alpha_range,
    )


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
    amin, amax = _cycle_range(fam.chain, fam.pvec)
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
        return self.lo > self.hi or (self.lo == self.hi and not (self.closed_lo and self.closed_hi))

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


def _interval_meets(interval: Interval, lo_val: float, hi_val: float) -> bool:
    """Range [lo_val, hi_val] possibly intersects the interval."""
    lo_ok = hi_val >= interval.lo if interval.closed_lo else hi_val > interval.lo
    hi_ok = lo_val <= interval.hi if interval.closed_hi else lo_val < interval.hi
    return lo_ok and hi_ok


def _detect_lattice(values: np.ndarray, max_denominator: int = 10 ** 6,
                    tol: float = 1e-13):
    """Exact rational-lattice reconstruction of a value table.

    Returns ``(offset, gap, z)`` with ``values[i] == offset + gap * z[i]``
    exactly (as rationals reproducing the floats), or None when the values
    do not sit on a common lattice with denominator <= max_denominator.
    """
    fracs = []
    for v in values:
        f = Fraction(float(v)).limit_denominator(max_denominator)
        if abs(float(f) - float(v)) > tol * max(1.0, abs(float(v))):
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


def _lattice_masses(mu: LeafMeasure, z: Sequence[int], n: int) -> np.ndarray:
    """Mass per accumulated integer weight over the n windows after the start."""
    chain = mu.chain
    K = chain.block
    z = np.asarray(z, dtype=np.int64)
    width = n * int(z.max()) + 1
    v = np.zeros((chain.num_states, width))
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


def _dp_point(mu: LeafMeasure, pvec: np.ndarray, lattice, interval: Interval, n: int,
              budget: float, bin_width: float) -> DeviationPoint:
    """Lattice DP on ``lattice`` (from :func:`_detect_lattice`), or the
    certified binned DP at ``bin_width`` when it is None."""
    if lattice is not None:
        offset, gap, z = lattice
        slack = Fraction(0)
    else:
        gap = Fraction(bin_width)
        raw = [int(round(float(v) / bin_width)) for v in pvec]
        zmin = min(raw)
        z = [zi - zmin for zi in raw]
        offset = gap * zmin
        slack = n * max((abs(Fraction(float(v)) - gap * r) for v, r in zip(pvec, raw)), default=Fraction(0))
    cells = mu.chain.num_states * (n * max(z) + 1)
    if cells > budget:
        raise BudgetExceeded(f"lattice dynamic program needs {cells} cells, budget {budget:.3g}")

    masses = _lattice_masses(mu, z, n)
    # Membership convention shared by all methods: the exact average,
    # correctly rounded to a double, is compared against the double
    # endpoints (which is what decimal bounds on a command line denote).
    avg_slack = slack / n
    low = 0.0
    high = 0.0
    for Z, m in enumerate(masses):
        if m == 0.0:
            continue
        avg = offset + gap * Fraction(Z, n)
        if slack == 0:
            if interval.contains(float(avg)):
                low += float(m)
                high += float(m)
            continue
        lo_val, hi_val = float(avg - avg_slack), float(avg + avg_slack)
        if _interval_meets(interval, lo_val, hi_val):
            high += float(m)
            if interval.contains(lo_val) and interval.contains(hi_val):
                low += float(m)
    mass = 0.5 * (low + high)
    return DeviationPoint(
        n=n, mass=mass, log_mass=_log_or_neg_inf(mass),
        method="dp-binned" if lattice is None else "dp-lattice",
        mass_low=low, mass_high=high, bin_width=float(gap),
    )


def _enum_point(mu: LeafMeasure, pvec: np.ndarray, interval: Interval, n: int) -> DeviationPoint:
    chain = mu.chain
    K = chain.block
    state = np.array([mu.start_index], dtype=np.int64)
    logmass = np.zeros(1)
    birk = np.zeros(1)
    for j in range(1, n + K):
        par, new_state, logmass = expand_word_tree(chain, mu.log_transition, state, logmass)
        birk = birk[par] + (pvec[new_state] if j >= K else 0.0)
        state = new_state
    inside = interval.contains_array(birk / n)
    mass = float(np.exp(logmass[inside]).sum()) if inside.any() else 0.0
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

    * ``enumerate``: sum cylinder masses over all admissible leaf words;
    * ``dp``: dynamic program over (state, accumulated value).  Exact when
      the observable values sit on a common rational lattice (detected by
      exact rational reconstruction, denominator <= 1e6); otherwise values
      are rounded to a ``bin_width`` lattice and certified lower/upper mass
      brackets are returned, with boundary cells assigned pessimistically;
    * ``auto``: lattice dp when available within budget, else enumeration
      within budget, else binned dp.
    """
    if interval.is_empty():
        raise EmptyInterval(f"interval {interval} is empty")
    if n < 1:
        raise ValueError("n must be >= 1")
    budget = DEFAULT_BUDGET if budget is None else float(budget)
    pvec = phi_vector(mu.chain, obs)

    if mode not in ("auto", "dp", "enumerate"):
        raise ValueError(f"unknown mode {mode!r}")
    lattice = None if mode == "enumerate" else _detect_lattice(pvec)
    if mode == "auto" and lattice is not None and (
            mu.chain.num_states * (n * max(lattice[2]) + 1) <= budget):
        mode = "dp"
    if mode != "dp":
        # No level of the word tree outgrows the last: every state has a successor.
        count = leaf_word_counts(mu.chain, mu.start_index, n + mu.chain.block - 1)[-1]
        if count <= budget:
            return _enum_point(mu, pvec, interval, n)
        if mode == "enumerate":
            raise BudgetExceeded(f"enumeration needs about {count:.3g} words, budget {budget:.3g}")
    return _dp_point(mu, pvec, lattice, interval, n, budget, bin_width)


def deviation_series(mu: LeafMeasure, obs: Potential, interval: Interval,
                     lengths: Iterable[int], **kwargs) -> DeviationSeries:
    pts = tuple(deviation_mass_exact(mu, obs, interval, n, **kwargs) for n in lengths)
    return DeviationSeries(interval, pts)


def recommended_tilt(spec: SubshiftSpec, base: Potential, obs: Potential,
                     interval: Interval) -> float:
    """Tilt whose equilibrium mean sits at the interval endpoint nearest the
    untilted mean (zero when the interval already contains the mean)."""
    fam = TiltFamily.of(spec, base, obs)
    mean = fam.q_prime(0.0)
    if interval.contains(mean):
        return 0.0
    target = interval.lo if mean < interval.lo else interval.hi
    amin, amax = _cycle_range(fam.chain, fam.pvec)
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

    steps = n + K - 1
    total = 0.0
    total_sq = 0.0
    for _, j, cur, nxt in markov_walks(chain, P_sim, mu.start_index, steps, samples, seed):
        if j == 1:  # first step of a counter block
            birk = np.zeros(len(cur))
            loglr = np.zeros(len(cur))
        if log_ratio is not None:
            loglr += log_ratio[cur, nxt]
        if j >= K:
            birk += pvec[nxt]
        if j == steps:
            w = interval.contains_array(birk / n).astype(np.float64)
            if log_ratio is not None:
                w = w * np.exp(loglr)
            total += float(w.sum())
            total_sq += float((w * w).sum())
    est = total / samples
    if samples > 1:
        var = max(total_sq - samples * est * est, 0.0) / (samples - 1)
        stderr = math.sqrt(var / samples)
    else:
        stderr = 0.0
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
