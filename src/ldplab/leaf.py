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
from .thermo import RecodedChain, equilibrium_measure, phi_vector

#: Rows per counter block of the path sampler; sample index i always maps to
#: block i // CHUNK_ROWS, row i % CHUNK_ROWS, independent of consumption order.
CHUNK_ROWS = 1 << 16

#: Most uniforms one draw of the path sampler holds; a counter block's walks
#: are drawn in row sub-blocks of at most this many doubles (8 MB).
MAX_UNIFORMS = 1 << 20

#: Calls with fewer walk steps (count * steps) times steps per block step
#: singly: the block tables cost more than they save (measured break-even
#: near 8k walk steps at 4 and 8 steps per block, 32k at 2).
_BLOCK_FROM = 1 << 16


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
    mu = equilibrium_measure(spec, pot, k)
    start = past[-k:]
    logP = np.where(mu.transition > 0, np.log(np.where(mu.transition > 0, mu.transition, 1.0)), -np.inf)
    return LeafMeasure(
        chain=mu.chain,
        start_state=start,
        start_index=mu.chain.index[start],
        transition=mu.transition,
        log_transition=logP,
        pressure=mu.pressure,
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
        with np.errstate(over="ignore"):  # an overflowing count ends the list below
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
    last_sym = chain.last_symbols()
    lag_ball = T - r
    lag_birk = T - (k - 1)

    state = np.array([mu.start_index], dtype=np.int64)
    logmass = np.zeros(1)
    gsum = np.array([gvec[mu.start_index]])
    g_base = np.zeros(1)
    hist: list[tuple[np.ndarray, np.ndarray]] = []  # (log mass, Birkhoff sum) of recent levels
    levels = [(np.array([mu.start_symbol], dtype=np.int16), np.array([-1], dtype=np.int64))]

    # Per-n minima (row 0) and maxima (row 1); n is reached at level n + T - 1 only.
    extreme = (np.argmin, np.argmax)
    per_n = np.empty((2, n_max))
    where = np.empty((2, n_max, 2), dtype=np.int64)

    for d in range(depth + 1):
        if k >= 2 and d == k - 2:
            g_base = gsum.copy()
        hist = (hist + [(logmass, gsum)])[-1 - max(lag_ball, lag_birk):]
        n = d - T + 1
        if n >= 1:
            ball = hist[-1 - lag_ball][0]
            birk = hist[-1 - lag_birk][1] - g_base
            ratio = np.exp(ball - birk + n * mu.pressure)
            for row, arg in enumerate(extreme):
                i = int(arg(ratio))
                per_n[row, n - 1] = ratio[i]
                where[row, n - 1] = d, i
        if d == depth:
            break
        par, state, logmass = expand_word_tree(chain, mu.log_transition, state, logmass)
        gsum = gsum[par] + gvec[state]
        g_base = g_base[par]
        hist = [(m[par], g[par]) for m, g in hist]
        levels.append((last_sym[state].astype(np.int16), par))

    def witness(d: int, i: int) -> Word:
        word = []
        for symbols, parents in reversed(levels[:d + 1]):
            word.append(int(symbols[i]))
            i = int(parents[i])
        return tuple(reversed(word))

    best = [int(arg(vals)) for arg, vals in zip(extreme, per_n)]
    k_ext = [float(vals[b]) for vals, b in zip(per_n, best)]
    half = n_max // 2 or n_max
    k_half = [float(vals[arg(vals[:half])]) for arg, vals in zip(extreme, per_n)]
    drift = max(abs(h - v) / v for h, v in zip(k_half, k_ext))

    return GibbsRatioReport(
        epsilon_exponent=r,
        n_max=n_max,
        k_min=k_ext[0],
        k_max=k_ext[1],
        k_min_witness=witness(*where[0, best[0]]),
        k_min_witness_n=best[0] + 1,
        k_max_witness=witness(*where[1, best[1]]),
        k_max_witness_n=best[1] + 1,
        per_n_min=tuple(float(v) for v in per_n[0]),
        per_n_max=tuple(float(v) for v in per_n[1]),
        k_min_half=k_half[0],
        k_max_half=k_half[1],
        drift=float(drift),
    )


# ---------------------------------------------------------------------------
# Counter-based path sampling


def _uniform_block(seed: int, chunk_index: int, first_row: int, rows: int,
                   steps: int, buf: np.ndarray) -> np.ndarray:
    """Uniforms for rows ``first_row .. first_row + rows - 1`` of one counter
    block, as a (rows, steps) view of a prefix of ``buf``, filled in place.

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
    return gen.random(out=buf[:rows * steps].reshape(rows, steps))


def walk_tables(chain: RecodedChain, transition: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Edge-slot tables of the walk kernel: ``(W, dst, cum)``.

    ``W`` is the largest degree rounded up to a power of two.  Slot
    ``s * W + i`` is state ``s``'s ``i``-th successor ``dst[slot]`` (a
    successor again from ``i = deg(s)`` on: every slot is an edge), and
    ``cum[slot]`` the cumulative probability of its first ``i + 1``
    successors, ``+inf`` from ``i = deg(s) - 1`` on.  So a row of ``cum``
    never decreases, and a binary search counts the thresholds at or below
    a uniform exactly as comparing the whole row would.
    """
    succ, degree = chain.successor_table
    W = 1 << (int(degree.max()) - 1).bit_length()
    dst = np.pad(succ, ((0, 0), (0, W - succ.shape[1])), mode="edge")
    cum = np.cumsum(np.take_along_axis(transition, dst, axis=1), axis=1)
    cum[np.arange(W) >= degree[:, None] - 1] = np.inf
    return W, dst.ravel(), cum.ravel()


def _block_plan(W: int, dst: np.ndarray, cum: np.ndarray, steps: int, count: int):
    """``(k, thresholds, paths, nxt)`` of the blocked walk, or None above its
    rule or below ``_BLOCK_FROM``.  Where b <= 4 states branch, each in two,
    a step's choice is the b bits ``u >= thresholds[p]`` (+inf pads b to a
    power of two); k = 8 // b steps pack into one byte ``code``, and key
    ``state << 8 | code`` takes the k slots ``paths[key]`` to ``nxt[key]``."""
    deg = np.isfinite(cum.reshape(-1, W)).sum(axis=1) + 1
    branching = np.flatnonzero(deg > 1)
    b = 1 << (len(branching) - 1).bit_length()
    k = 8 // b
    if deg.max() != 2 or b > 4 or steps < k or count * steps * k < _BLOCK_FROM:
        return None
    pos = np.maximum(np.cumsum(deg > 1) - 1, 0)  # bit of each branching state
    state, code = np.arange(len(deg) << 8) >> 8, np.arange(len(deg) << 8) & 255
    paths = np.empty((len(code), k), dtype=np.intp)
    for t in range(k):
        paths[:, t] = slot = state * W + ((code >> (t * b + pos[state])) & (deg[state] - 1))
        state = dst[slot]
    return k, np.pad(cum[branching * W], (0, b - len(branching)), constant_values=np.inf), paths, state


def markov_walks(tables: tuple[int, np.ndarray, np.ndarray], start_index: int, steps: int,
                 count: int, seed: int = 0, first: int = 0):
    """Walks of ``steps`` transitions from ``start_index``, one per sample
    index ``first .. first + count - 1``, on the :func:`walk_tables` ``tables``.

    Index ``i`` reads row ``i % CHUNK_ROWS`` of counter block ``i // CHUNK_ROWS``,
    so its walk depends only on (seed, i, steps).  A counter block's rows are
    drawn in sub-blocks of at most ``MAX_UNIFORMS`` uniforms into one buffer,
    each yielding ``(rows, j, key, paths)``: the walks ``rows`` (counted from
    ``first``) took the edge slots ``paths[key]`` from step ``j`` on.  A
    :func:`_block_plan` block takes k steps per lookup; any other step is a
    branchless binary search of ``log2 W`` levels over ``cum``, with
    ``paths[slot] == [slot]``.  Every walk is bit for bit that of a plain
    inverse-CDF draw.
    """
    W, dst, cum = tables
    base = dst * W
    levels = [(h, cum[h - 1:]) for h in (W >> i for i in range(1, W.bit_length()))]
    one = np.arange(len(dst))[:, None]
    plan = _block_plan(W, dst, cum, steps, count)
    k, thresholds, paths, nxt = plan or (steps + 1, None, None, None)  # without a plan, no blocks
    m = steps // k * k  # steps walked in blocks
    lo, end = first, first + count
    sub_rows = max(1, MAX_UNIFORMS // max(steps, 1))
    buf = np.empty(min(count, CHUNK_ROWS, sub_rows) * steps)
    if plan is not None:  # bits of 2^16 // m rows at a time, so they add little to ``buf``
        bits = np.empty((max(1, (1 << 16) // m), m, len(thresholds)), dtype=bool)
        codes = np.empty((min(count, CHUNK_ROWS, sub_rows), m // k), dtype=np.uint8)
    while lo < end:
        block, row = divmod(lo, CHUNK_ROWS)
        hi = min(end, (block + 1) * CHUNK_ROWS, lo + sub_rows)
        U = _uniform_block(seed, block, row, hi - lo, steps, buf)
        rows = slice(lo - first, hi - first)
        state = np.full(hi - lo, start_index, dtype=np.intp)
        if plan is not None:  # bit t * b + p of code c is u >= thresholds[p] at step c * k + t
            for r in range(0, hi - lo, len(bits)):
                part = U[r:r + len(bits), :m]
                for p, c in enumerate(thresholds):
                    np.greater_equal(part, c, out=bits[:len(part), :, p])
                codes[r:r + len(part)] = np.packbits(bits[:len(part)], bitorder="little").reshape(len(part), -1)
        for c in range(m // k):
            key = (state << 8) | codes[:hi - lo, c]
            yield rows, c * k + 1, key, paths
            state = nxt.take(key)
        slot = np.multiply(state, W, out=state)
        del state  # in place and dropped: the search holds no extra array of walks
        for j in range(m + 1, steps + 1):
            u = np.ascontiguousarray(U[:, j - 1])  # read once per search level
            for h, c in levels:
                slot += h * (u >= c.take(slot))
            yield rows, j, slot, one
            slot = base.take(slot)
        lo = hi


def _leaf_rows(mu: LeafMeasure, n: int, count: int, seed: int, first: int) -> np.ndarray:
    """Rows ``first .. first + count - 1`` of the leaf words of length ``n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty((count, n), dtype=np.int16)
    out[:, 0] = mu.start_symbol
    tables = walk_tables(mu.chain, mu.transition)
    sym = mu.chain.last_symbols()[tables[1]].astype(np.int16)
    per_span = {}  # each key's symbols along its slots, as one item of 2 * span bytes
    for rows, j, key, paths in markov_walks(tables, mu.start_index, n - 1, count, seed, first):
        item = f"V{2 * paths.shape[1]}"
        if item not in per_span:
            per_span[item] = sym[paths].view(item)[:, 0]
        out[rows, j:j + paths.shape[1]].view(item)[:, 0] = per_span[item].take(key)
    return out


def sample_paths(mu: LeafMeasure, n: int, count: int, seed: int = 0) -> np.ndarray:
    """Sample ``count`` leaf words of length ``n`` as a (count, n) symbol array.

    Column 0 is the fixed start symbol; row ``i`` is drawn from counter
    block ``i // CHUNK_ROWS`` and is a pure function of (seed, i, n).
    """
    return _leaf_rows(mu, n, count, seed, 0)


def sample_path(mu: LeafMeasure, n: int, seed: int = 0, index: int = 0) -> Word:
    """One leaf word of length ``n``, drawn with its cylinder mass.

    Equals row ``index`` of any batch drawn with the same seed: the draw
    reads a fixed slice of the counter stream regardless of call order.
    """
    return tuple(int(a) for a in _leaf_rows(mu, n, 1, seed, index)[0])
