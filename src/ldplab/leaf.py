"""Conditional Gibbs measures on expanding (unstable) leaves.

The leaf through a point is the set of futures extending its past; after
recoding, only the last ``block`` symbols of the past matter.  The
conditional measure is the equilibrium Markov chain started at that state:
cylinder masses are products of transition probabilities, and the ratio of
a dynamic-ball mass to ``exp(S_n G - n * pressure)`` telescopes against
eigenvector factors, so it stays pinched between positive constants.  The
audit below measures those constants instead of assuming them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EnumerationTooLarge,
    InadmissiblePast,
    InconsistentStart,
    MemoryTooLarge,
    WordTooShort,
)
from .sft import Potential, SubshiftSpec, Word, is_admissible
from .thermo import RecodedChain, gibbs_measure, phi_vector, recode, rpf_solve, transfer_matrix

#: Rows per counter block of the path sampler; sample index i always maps to
#: block i // CHUNK_ROWS, row i % CHUNK_ROWS, independent of consumption order.
CHUNK_ROWS = 1 << 16


@dataclass(eq=False)
class LeafMeasure:
    """Conditional equilibrium measure on the leaf of futures of a fixed past.

    ``start_state`` is the last ``chain.block`` symbols of the past; leaf
    words begin with its final symbol.  ``transition`` is the transition
    matrix of the equilibrium measure of ``potential`` and ``pressure`` its
    log Perron eigenvalue.
    """

    chain: RecodedChain
    start_state: Word
    start_index: int
    transition: np.ndarray
    log_transition: np.ndarray
    pressure: float
    potential: Potential

    @property
    def start_symbol(self) -> int:
        return self.start_state[-1]


def leaf_measure(spec: SubshiftSpec, pot: Potential, past: Sequence[int],
                 block: int | None = None) -> LeafMeasure:
    """Conditional measure on the leaf of futures extending ``past``.

    ``block`` defaults to the potential memory; pass a larger block when the
    leaf will be integrated against observables with more memory.
    """
    past = tuple(past)
    k = max(pot.memory, 1) if block is None else block
    if k < pot.memory:
        raise MemoryTooLarge(f"block {k} below potential memory {pot.memory}")
    if len(past) < k:
        raise InadmissiblePast(f"past of length {len(past)} is shorter than block {k}")
    if not is_admissible(spec, past):
        raise InadmissiblePast(f"past {past} is not admissible")
    M = transfer_matrix(recode(spec, k), pot)
    rpf = rpf_solve(M)
    mu = gibbs_measure(rpf, M)
    start = past[-k:]
    with np.errstate(divide="ignore"):
        logP = np.where(mu.transition > 0, np.log(np.where(mu.transition > 0, mu.transition, 1.0)), -np.inf)
    return LeafMeasure(
        chain=mu.chain,
        start_state=start,
        start_index=mu.chain.index[start],
        transition=mu.transition,
        log_transition=logP,
        pressure=math.log(rpf.eigenvalue),
        potential=pot,
    )


def cylinder_mass(mu: LeafMeasure, w: Sequence[int]) -> float:
    """Mass of the leaf cylinder indexed by ``w`` (which includes the start symbol).

    The mass is the product of transition probabilities along ``w``
    conditioned on the start state; all cylinders of a fixed length sum
    to 1.  Words with a forbidden pair have empty cylinders and mass 0.
    """
    w = tuple(w)
    if not w or w[0] != mu.start_symbol:
        raise InconsistentStart(f"word must start at leaf symbol {mu.start_symbol}")
    idx = mu.start_index
    mass = 1.0
    for a in w[1:]:
        if not 0 <= a < mu.chain.base.alphabet_size:
            raise InconsistentStart(f"symbol {a} out of range")
        nxt = mu.chain.step[idx, a]
        if nxt < 0:
            return 0.0
        mass *= mu.transition[idx, nxt]
        idx = nxt
    return mass


def bowen_ball_mass(mu: LeafMeasure, y: Sequence[int], n: int, r: int) -> float:
    """Mass of the dynamic leaf ball of radius ``2**-r`` around ``y`` at time ``n``.

    On the leaf metric ``2**-(first disagreement)``, staying within ``2**-r``
    of ``y`` for ``n`` steps pins exactly the first ``n + r`` coordinates, so
    the ball is the cylinder of depth ``n + r``.
    """
    y = tuple(y)
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    if len(y) < n + r:
        raise WordTooShort(f"word of length {len(y)} cannot anchor a ball of depth {n + r}")
    return cylinder_mass(mu, y[: n + r])


@dataclass
class GibbsRatioReport:
    """Observed pinching constants of ball masses against exp(S_n G - n P).

    ``k_min``/``k_max`` are the extreme ratios over all leaf words and all
    ``n <= n_max``; the ``_half`` values stop at ``n_max // 2`` and measure
    drift (a growing or shrinking envelope would falsify the pinching).
    """

    epsilon_exponent: int
    n_max: int
    k_min: float
    k_max: float
    k_min_witness: Word
    k_min_witness_n: int
    k_max_witness: Word
    k_max_witness_n: int
    per_n_min: tuple[float, ...]
    per_n_max: tuple[float, ...]
    k_min_half: float
    k_max_half: float
    drift: float


def leaf_word_counts(chain: RecodedChain, start_index: int, depth: int) -> list[float]:
    """Numbers of leaf words from ``start_index`` of lengths ``1 .. depth + 1``,
    as floats; the list stops early at the first count that overflows."""
    u = np.zeros(chain.num_states)
    u[start_index] = 1.0
    A = chain.adjacency.astype(np.float64)
    counts = [1.0]
    for _ in range(depth):
        u = u @ A
        counts.append(float(u.sum()))
        if not math.isfinite(counts[-1]):
            break
    return counts


def expand_word_tree(chain: RecodedChain, log_transition: np.ndarray, state: np.ndarray,
                     logmass: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One level of the leaf word tree, children grouped by parent in
    successor order: returns each child's parent index, state and log mass."""
    succ, degree = chain.successor_table
    deg = degree[state]
    par = np.repeat(np.arange(len(state)), deg)
    new_state = succ[state][np.arange(succ.shape[1]) < deg[:, None]]
    return par, new_state, logmass[par] + log_transition[state[par], new_state]


def gibbs_ratio_audit(mu: LeafMeasure, n_max: int, r: int,
                      budget: float = 10 ** 8) -> GibbsRatioReport:
    """Exhaustively audit the conditional Gibbs pinching on the leaf.

    For every leaf word ``y`` long enough and every ``n <= n_max``, the ratio

        ball_mass(y, n, 2**-r) / exp(S_n G(y) - n * pressure)

    is computed (ball masses by accumulated transition products, Birkhoff
    sums by accumulated state values).  The report carries the extremes,
    their witnesses and the half-depth drift.
    """
    if n_max < 1 or r < 0:
        raise ValueError("need n_max >= 1 and r >= 0")
    chain = mu.chain
    k = chain.block
    T = max(r, k - 1)
    depth = n_max + T - 1  # final level index; level d holds words of length d + 1
    total = sum(leaf_word_counts(chain, mu.start_index, depth))
    if total > budget:
        raise EnumerationTooLarge(f"audit would visit about {total:.3g} words, budget {budget:.3g}")

    gvec = phi_vector(chain, mu.potential)
    logP = mu.log_transition
    lam_log = mu.pressure
    lag_ball = T - r
    lag_birk = T - (k - 1)
    hist_len = max(lag_ball, lag_birk) + 1

    last_sym = chain.last_symbols()

    state = np.array([mu.start_index], dtype=np.int64)
    logmass = np.zeros(1)
    gsum = np.array([gvec[mu.start_index]])
    g_base = np.zeros(1)
    hist_mass: list[np.ndarray] = []
    hist_gsum: list[np.ndarray] = []
    level_symbols: list[np.ndarray] = [np.array([mu.start_symbol], dtype=np.int16)]
    level_parents: list[np.ndarray] = [np.array([-1], dtype=np.int64)]

    per_n_min = np.full(n_max, np.inf)
    per_n_max = np.full(n_max, -np.inf)
    argmin: list[tuple[int, int] | None] = [None] * n_max
    argmax: list[tuple[int, int] | None] = [None] * n_max

    for d in range(depth + 1):
        if k >= 2 and d == k - 2:
            g_base = gsum.copy()
        hist_mass.append(logmass)
        hist_gsum.append(gsum)
        if len(hist_mass) > hist_len:
            hist_mass.pop(0)
            hist_gsum.pop(0)

        n = d - T + 1
        if 1 <= n <= n_max:
            ball = hist_mass[-1 - lag_ball]
            birk = hist_gsum[-1 - lag_birk] - g_base
            ratio = np.exp(ball - birk + n * lam_log)
            i_min = int(np.argmin(ratio))
            i_max = int(np.argmax(ratio))
            if ratio[i_min] < per_n_min[n - 1]:
                per_n_min[n - 1] = ratio[i_min]
                argmin[n - 1] = (d, i_min)
            if ratio[i_max] > per_n_max[n - 1]:
                per_n_max[n - 1] = ratio[i_max]
                argmax[n - 1] = (d, i_max)

        if d == depth:
            break
        par, new_state, logmass = expand_word_tree(chain, logP, state, logmass)
        gsum = gsum[par] + gvec[new_state]
        g_base = g_base[par]
        hist_mass = [a[par] for a in hist_mass]
        hist_gsum = [a[par] for a in hist_gsum]
        state = new_state
        level_symbols.append(last_sym[new_state].astype(np.int16))
        level_parents.append(par)

    def reconstruct(pos: tuple[int, int]) -> Word:
        d, i = pos
        out = []
        while d >= 0:
            out.append(int(level_symbols[d][i]))
            i = int(level_parents[d][i])
            d -= 1
        return tuple(reversed(out))

    n_best_min = int(np.argmin(per_n_min))
    n_best_max = int(np.argmax(per_n_max))
    k_min = float(per_n_min[n_best_min])
    k_max = float(per_n_max[n_best_max])
    half = n_max // 2
    if half >= 1:
        k_min_half = float(per_n_min[:half].min())
        k_max_half = float(per_n_max[:half].max())
    else:
        k_min_half, k_max_half = k_min, k_max
    drift = max(abs(k_min_half - k_min) / k_min, abs(k_max_half - k_max) / k_max)

    return GibbsRatioReport(
        epsilon_exponent=r,
        n_max=n_max,
        k_min=k_min,
        k_max=k_max,
        k_min_witness=reconstruct(argmin[n_best_min]),
        k_min_witness_n=n_best_min + 1,
        k_max_witness=reconstruct(argmax[n_best_max]),
        k_max_witness_n=n_best_max + 1,
        per_n_min=tuple(float(v) for v in per_n_min),
        per_n_max=tuple(float(v) for v in per_n_max),
        k_min_half=k_min_half,
        k_max_half=k_max_half,
        drift=float(drift),
    )


# ---------------------------------------------------------------------------
# Counter-based path sampling


def _uniform_block(seed: int, chunk_index: int, first_row: int, rows: int,
                   steps: int) -> np.ndarray:
    """Uniforms for rows ``first_row .. first_row + rows - 1`` of one counter
    block, as a (rows, steps) array.

    Each block owns a disjoint 2**128 slice of the Philox counter space, so
    draws for sample index i depend only on (seed, i, steps).  Row ``r``
    starts ``r * steps`` doubles into the block; Philox yields four per
    counter step, so the generator advances the counter and then discards
    the remainder, reading exactly the values a draw from row 0 would.
    """
    key = int(seed) & ((1 << 128) - 1)
    bg = np.random.Philox(key=key, counter=chunk_index << 128)
    offset = first_row * steps
    bg.advance(offset // 4)
    gen = np.random.Generator(bg)
    gen.random(offset % 4)
    return gen.random((rows, steps))


def _sampling_tables(chain: RecodedChain, transition: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded successors and cumulative probabilities for sampling.

    ``cum[s, i]`` is the cumulative probability of the first ``i + 1``
    successors for ``i < deg - 1`` and ``+inf`` beyond, so the successor
    index is the count of thresholds below the uniform draw.
    """
    succ, degree = chain.successor_table
    cum = np.full((chain.num_states, max(succ.shape[1] - 1, 1)), np.inf)
    for s, d in enumerate(degree):
        cum[s, : d - 1] = np.cumsum(transition[s, succ[s, :d]])[:-1]
    return succ, cum


def markov_walks(chain: RecodedChain, transition: np.ndarray, start_index: int, steps: int,
                 count: int, seed: int = 0, first: int = 0):
    """Walks of ``steps`` transitions from ``start_index``, one per sample
    index ``first .. first + count - 1``.

    Index ``i`` reads row ``i % CHUNK_ROWS`` of counter block ``i // CHUNK_ROWS``,
    so its walk depends only on (seed, i, steps).  Per counter block, one
    ``(rows, steps)`` array of uniforms is drawn for the requested rows only,
    and ``(rows, j, cur, nxt)`` yielded for ``j = 1 .. steps``: ``rows``
    slices the block's walks (counted from ``first``), ``cur``/``nxt`` are
    their states before/after step ``j``.
    """
    succ, cum = _sampling_tables(chain, transition)
    lo, end = first, first + count
    while lo < end:
        block, row = divmod(lo, CHUNK_ROWS)
        hi = min(end, (block + 1) * CHUNK_ROWS)
        U = _uniform_block(seed, block, row, hi - lo, steps)
        rows = slice(lo - first, hi - first)
        cur = np.full(hi - lo, start_index, dtype=np.int64)
        for j in range(1, steps + 1):
            nxt = succ[cur, (U[:, j - 1, None] >= cum[cur]).sum(axis=1)]
            yield rows, j, cur, nxt
            cur = nxt
        lo = hi


def sample_paths(mu: LeafMeasure, n: int, count: int, seed: int = 0) -> np.ndarray:
    """Sample ``count`` leaf words of length ``n`` as a (count, n) symbol array.

    Column 0 is the fixed start symbol; row ``i`` is drawn from counter
    block ``i // CHUNK_ROWS`` and is a pure function of (seed, i, n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty((count, n), dtype=np.int16)
    out[:, 0] = mu.start_symbol
    last_sym = mu.chain.last_symbols()
    for rows, j, _, nxt in markov_walks(mu.chain, mu.transition, mu.start_index, n - 1, count, seed):
        out[rows, j] = last_sym[nxt]
    return out


def sample_path(mu: LeafMeasure, n: int, seed: int = 0, index: int = 0) -> Word:
    """One leaf word of length ``n``, drawn with its cylinder mass.

    Equals row ``index`` of any batch drawn with the same seed: the draw
    reads a fixed slice of the counter stream regardless of call order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    last_sym = mu.chain.last_symbols()
    walk = markov_walks(mu.chain, mu.transition, mu.start_index, n - 1, 1, seed, first=index)
    return (mu.start_symbol,) + tuple(int(last_sym[nxt[0]]) for _, _, _, nxt in walk)
