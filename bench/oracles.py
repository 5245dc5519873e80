"""Independent reference values the benchmark checks library results against.

Nothing here calls into ``ldplab``: closed forms for the full 2-shift and
the golden-mean shift, a Collatz-Wielandt-certified power iteration, a
sparse Karp minimum-mean cycle, log-space binomial tails and an
exponentially tilted lattice dynamic program.  Systems are given as plain
arrays: potential values per recoded state and a 0/1 adjacency matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


# ---------------------------------------------------------------------------
# Closed forms (G = zero, phi = indicator of symbol 1)


def fs2_q(t: float) -> float:
    """Scaled cumulant of the full 2-shift: log((1 + e^t) / 2)."""
    return math.log1p(math.exp(t)) - math.log(2.0)


def fs2_q_prime(t: float) -> float:
    return 1.0 / (1.0 + math.exp(-t))


def fs2_rate(alpha: float) -> float:
    """Binary-entropy rate: relative entropy of Bernoulli(alpha) to Bernoulli(1/2)."""
    def xlog2x(x: float) -> float:
        return x * math.log(2.0 * x) if x > 0 else 0.0
    return xlog2x(alpha) + xlog2x(1.0 - alpha)


def fs2_tilt(alpha: float) -> float:
    return math.log(alpha / (1.0 - alpha))


def golden_lambda(t: float) -> float:
    """Perron root of [[1, 1], [e^t, 0]]: (1 + sqrt(1 + 4 e^t)) / 2."""
    return (1.0 + math.sqrt(1.0 + 4.0 * math.exp(t))) / 2.0


def golden_q(t: float) -> float:
    return math.log(golden_lambda(t)) - LOG_GOLDEN


def golden_q_prime(t: float) -> float:
    lam = golden_lambda(t)
    return (lam - 1.0) / (2.0 * lam - 1.0)


def golden_tilt(alpha: float) -> float:
    """Tilt with q'(t) = alpha, from lambda = (1 - alpha) / (1 - 2 alpha)."""
    lam = (1.0 - alpha) / (1.0 - 2.0 * alpha)
    return math.log(lam * lam - lam)


def golden_rate(alpha: float) -> float:
    if alpha == 0.0:
        return LOG_GOLDEN
    lam = (1.0 - alpha) / (1.0 - 2.0 * alpha)
    return alpha * math.log(lam * lam - lam) - math.log(lam) + LOG_GOLDEN


# ---------------------------------------------------------------------------
# Log-space binomial masses


def log_binomial_mass(n: int, ks, p: float = 0.5) -> float:
    """log P(K in ks) for K ~ Binomial(n, p), by log-sum-exp over ks."""
    ks = list(ks)
    if not ks:
        return -math.inf
    lp, lq = math.log(p), math.log1p(-p)
    terms = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                      + k * lp + (n - k) * lq for k in ks])
    top = float(terms.max())
    return top + math.log(float(np.exp(terms - top).sum()))


def counts_in(interval, n: int, value_of_count) -> list[int]:
    """Counts k in 0..n whose average value_of_count(k) lies in the interval."""
    return [k for k in range(n + 1) if interval.contains(value_of_count(k))]


# ---------------------------------------------------------------------------
# Transfer matrices and Perron data


def weighted(adjacency: np.ndarray, values: np.ndarray) -> np.ndarray:
    return adjacency.astype(np.float64) * np.exp(values)[:, None]


def perron(M: np.ndarray, rel_tol: float = 1e-14, max_iter: int = 200_000):
    """Perron root and positive right/left vectors by power iteration.

    Stops on the Collatz-Wielandt bracket min(Mh/h) <= lambda <= max(Mh/h)
    (and the same for the left vector): at ``rel_tol``, or at the rounding
    floor, when the bracket has not narrowed for 5000 steps and is below
    1e-11.  Returns (lam, h, v) with ``sum(v) == 1`` and ``v @ h == 1``.
    """
    n = M.shape[0]
    h = np.full(n, 1.0 / n)
    v = np.full(n, 1.0 / n)
    best, best_step = math.inf, 0
    for step in range(max_iter):
        mh = M @ h
        ratio = mh / h
        lo, hi = float(ratio.min()), float(ratio.max())
        vm = v @ M
        vr = vm / v
        width = max(hi - lo, float(vr.max() - vr.min())) / hi
        if width < best:
            best, best_step = width, step
        if width <= rel_tol or (width <= 1e-11 and step - best_step >= 5000):
            lam = 0.5 * (lo + hi)
            v = vm / vm.sum()
            h = mh / float(v @ mh)
            return lam, h, v
        h = mh / mh.sum()
        v = vm / vm.sum()
    raise RuntimeError("reference power iteration did not converge")


def log_spectral_radius(M: np.ndarray) -> float:
    """log of the largest |eigenvalue|, from numpy.linalg.eigvals."""
    return math.log(float(np.max(np.abs(np.linalg.eigvals(M)))))


def gibbs_chain(M: np.ndarray):
    """Equilibrium transition matrix, stationary vector and log Perron root."""
    lam, h, v = perron(M)
    P = M * h[None, :] / (lam * h[:, None])
    P = P / P.sum(axis=1, keepdims=True)
    pi = v * h
    return P, pi / pi.sum(), math.log(lam)


def tilted_mean(adjacency, g: np.ndarray, phi: np.ndarray, t: float) -> float:
    """q'(t): the mean of phi under the equilibrium measure of g + t phi."""
    _, pi, _ = gibbs_chain(weighted(adjacency, g + t * phi))
    return float(pi @ phi)


def legendre_point(adjacency, g: np.ndarray, phi: np.ndarray, t: float) -> tuple[float, float]:
    """(alpha, rate) with alpha = q'(t) and rate = t alpha - q(t)."""
    _, pi, log_lam = gibbs_chain(weighted(adjacency, g + t * phi))
    _, _, log_base = gibbs_chain(weighted(adjacency, g))
    alpha = float(pi @ phi)
    return alpha, t * alpha - (log_lam - log_base)


def tilt_for_rate(adjacency, g: np.ndarray, phi: np.ndarray, rate: float) -> float:
    """The tilt t > 0 whose Legendre pair has the given rate, by bisection
    (the rate t q'(t) - q(t) increases with t > 0)."""
    lo, hi = 0.0, 1.0
    while legendre_point(adjacency, g, phi, hi)[1] < rate:
        lo, hi = hi, 2.0 * hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if legendre_point(adjacency, g, phi, mid)[1] < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def entropy_rate(P: np.ndarray, pi: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0)), 0.0)
    return float(-(pi @ plogp.sum(axis=1)))


# ---------------------------------------------------------------------------
# Ergodic range


def min_mean_cycle(adjacency: np.ndarray, weights: np.ndarray) -> float:
    """Karp's minimum mean cycle over the edge list, O(n * edges).

    Edge weights are the source-node weights; the graph must be strongly
    connected (node 0 is the walk source).
    """
    n = adjacency.shape[0]
    src, dst = np.nonzero(adjacency)
    edge_w = weights[src]
    D = np.full((n + 1, n), np.inf)
    D[0, 0] = 0.0
    for k in range(n):
        nxt = np.full(n, np.inf)
        np.minimum.at(nxt, dst, D[k][src] + edge_w)
        D[k + 1] = nxt
    finite = np.isfinite(D[:n])
    with np.errstate(invalid="ignore"):
        ratios = (D[n][None, :] - D[:n]) / (n - np.arange(n))[:, None]
    ratios[~finite] = -np.inf
    worst = ratios.max(axis=0)
    worst[~np.isfinite(D[n])] = np.inf
    return float(worst.min())


def ergodic_range(adjacency: np.ndarray, phi: np.ndarray) -> tuple[float, float]:
    return min_mean_cycle(adjacency, phi), -min_mean_cycle(adjacency, -phi)


# ---------------------------------------------------------------------------
# Counting


def walk_counts(adjacency: np.ndarray, start: int, steps: int) -> list[int]:
    """Exact numbers of walks of length 0..steps from ``start`` (Python ints)."""
    succ = [np.flatnonzero(row).tolist() for row in adjacency]
    u = [0] * adjacency.shape[0]
    u[start] = 1
    out = [1]
    for _ in range(steps):
        nxt = [0] * len(u)
        for i, c in enumerate(u):
            if c:
                for j in succ[i]:
                    nxt[j] += c
        u = nxt
        out.append(sum(u))
    return out


# ---------------------------------------------------------------------------
# Leaf deviation masses for integer-valued observables


def lattice_log_masses(P: np.ndarray, start: int, block: int, z, offset: Fraction,
                       gap: Fraction, interval, lengths, theta: float) -> dict[int, float]:
    """log leaf mass of {offset + gap * Z / n in interval} for each n in lengths.

    Z sums the integer labels ``z`` of the states at times block .. n+block-1
    (the windows after the start coordinate).  The dynamic program runs on
    the exponentially tilted weights ``P[s, s'] * exp(theta * z[s'])``,
    renormalized every step with the scale kept in log form; with ``theta``
    putting the tilted mean near the interval, the cells that carry the
    interval's mass stay far above the float underflow threshold, and the
    tilt is undone exactly in log space.
    """
    z = np.asarray(z, dtype=np.int64)
    lengths = sorted(set(int(n) for n in lengths))
    n_max = lengths[-1]
    zmax = int(z.max())
    width = n_max * zmax + 1
    v = np.zeros((P.shape[0], width))
    v[start, 0] = 1.0
    log_scale = 0.0
    PT = P.T.copy()
    groups = [(zi, np.flatnonzero(z == zi), math.exp(theta * zi)) for zi in sorted(set(int(x) for x in z))]
    out = {}
    for j in range(1, n_max + block):
        v = PT @ v
        if j >= block:
            shifted = np.zeros_like(v)
            for zi, rows, w in groups:
                if zi == 0:
                    shifted[rows] = v[rows] * w
                else:
                    shifted[rows, zi:] = v[rows, :-zi] * w
            v = shifted
        total = float(v.sum())
        log_scale += math.log(total)
        v /= total
        n = j - block + 1
        if n in lengths:
            masses = v.sum(axis=0)
            inside = np.array([Z for Z in range(n * zmax + 1)
                               if masses[Z] > 0 and interval.contains(float(offset + gap * Fraction(Z, n)))],
                              dtype=np.int64)
            if len(inside) == 0:
                out[n] = -math.inf
                continue
            terms = np.log(masses[inside]) - theta * inside
            top = float(terms.max())
            out[n] = log_scale + top + math.log(float(np.exp(terms - top).sum()))
    return out
