"""Transfer-operator thermodynamics for locally constant potentials.

Higher-block recoding turns any memory-``k`` potential into a memory-1
function on a chain whose states are the admissible ``k``-words.  The
weighted transition matrix then carries the full transfer operator, and
pressure, equilibrium (Gibbs) Markov measures, entropy and integrals all
come from its Perron eigendata.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
import numpy as np

from .errors import MemoryTooLarge, NoConvergence, NotPrimitive, ValidationError
from .sft import (MAX_POTENTIAL_VALUE, Potential, SubshiftSpec, Word, admissible_words,
                  primitivity_exponent)


@dataclass(eq=False)
class RecodedChain:
    """Higher-block presentation of a subshift.

    States are the admissible ``block``-words; state ``w`` may step to ``w'``
    iff they overlap in ``block - 1`` symbols and the merged
    ``(block+1)``-word is admissible.  The state at time ``t`` of a point is
    its coordinate window ``t .. t+block-1``.
    """

    base: SubshiftSpec
    block: int
    states: tuple[Word, ...]
    index: dict[Word, int] = field(repr=False)
    adjacency: np.ndarray = field(repr=False)
    #: step[s, a] = state index reached from s by shifting in symbol a, or -1.
    step: np.ndarray = field(repr=False)
    _primitivity: int | None = field(default=None, repr=False)

    @property
    def num_states(self) -> int:
        return len(self.states)

    def last_symbols(self) -> np.ndarray:
        return np.array([w[-1] for w in self.states], dtype=np.int64)

    @cached_property
    def successor_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(succ, degree)``: ``succ[s, :degree[s]]`` are the successors of
        state ``s`` in increasing order, padded with 0 to the largest degree.

        Read off ``step``, whose rows already ascend: states are ordered
        lexicographically and the targets of a row share their prefix.
        """
        degree = (self.step >= 0).sum(axis=1)
        order = np.argsort(self.step < 0, axis=1, kind="stable")[:, : int(degree.max())]
        return np.maximum(np.take_along_axis(self.step, order, axis=1), 0), degree

    def primitivity_power(self) -> int:
        """Smallest q with (adjacency ** q) entrywise positive.

        :func:`recode` records it in closed form; a chain built by hand gets
        it from boolean matrix powers, and raises :class:`NotPrimitive` if no
        power up to the sharp bound works.
        """
        if self._primitivity is None:
            self._primitivity = primitivity_exponent(self.adjacency)
            if self._primitivity is None:
                raise NotPrimitive("recoded state graph is not primitive")
        return self._primitivity


def recode(spec: SubshiftSpec, block: int) -> RecodedChain:
    """Build the ``block``-word chain presentation of the subshift.

    The chain is primitive with exponent ``p + block - 1``, where ``p`` is
    the spec's primitivity power: a path of ``q >= block`` steps between two
    ``block``-words is a base path of ``q - block + 1`` steps between the
    last symbol of one and the first of the other, and with two or more
    symbols no shorter path joins every pair.  One symbol gives one state.
    """
    if block < 1:
        raise ValueError("recoding block must be >= 1")
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
    power = 1 if spec.alphabet_size == 1 else spec.primitivity_power + block - 1
    return RecodedChain(spec, block, states, index, adjacency, step, _primitivity=power)


def phi_vector(chain: RecodedChain, phi: Potential) -> np.ndarray:
    """Evaluate a potential on every chain state (the state is the window)."""
    if phi.memory > chain.block:
        raise MemoryTooLarge(f"potential memory {phi.memory} exceeds recoding block {chain.block}")
    vec = np.array([phi.value(w) for w in chain.states], dtype=np.float64)
    if np.any(np.abs(vec) > MAX_POTENTIAL_VALUE):
        raise ValidationError(f"potential values exceed magnitude {MAX_POTENTIAL_VALUE}")
    return vec


@dataclass(eq=False)
class WeightedMatrix:
    """Transfer matrix ``M[w, w'] = adjacency(w, w') * exp(phi(w))``.

    Weights sit on the source state, so the row sums of ``M**n`` starting at
    a state accumulate ``exp`` of Birkhoff sums over all words extending it.
    """

    chain: RecodedChain
    matrix: np.ndarray


def transfer_matrix(chain: RecodedChain, phi: Potential) -> WeightedMatrix:
    matrix = chain.adjacency.astype(np.float64) * np.exp(phi_vector(chain, phi))[:, None]
    return WeightedMatrix(chain, matrix)


def recoded_transfer_matrix(spec: SubshiftSpec, phi: Potential,
                            block: int | None = None) -> WeightedMatrix:
    """Transfer matrix of ``phi`` on the ``block``-word chain (default: its memory)."""
    k = phi.memory if block is None else block
    if k < phi.memory:
        raise MemoryTooLarge(f"block {k} below potential memory {phi.memory}")
    return transfer_matrix(recode(spec, k), phi)


@dataclass
class RPFData:
    """Perron eigendata of a primitive non-negative matrix.

    ``right`` and ``left`` are entrywise positive with ``sum(left) == 1``
    and ``left @ right == 1``; ``residual`` is the achieved relative
    eigen-equation defect.  ``lower <= eigenvalue <= upper`` is the
    Collatz-Wielandt bracket of the returned vectors, widened by the
    rounding error of its evaluation, so it certifies the Perron root of
    the matrix as stored unless products in ``M @ right`` or ``left @ M``
    underflow; ``upper`` is ``inf`` if both vectors have underflowed
    entries.
    """

    eigenvalue: float
    right: np.ndarray
    left: np.ndarray
    residual: float
    iterations: int
    lower: float
    upper: float


#: Residual contraction is measured over this many power steps.
_WINDOW = 8
#: Power iteration continues while it predicts at most
#: ``max(_POWER_STEPS, n * n / _INVERSE_COST)`` more steps.  One inverse step
#: (two dense solves) costs about ``n * n / 2000`` power steps with one BLAS
#: thread at n = 100 to 400, and the inverse phase is charged four steps.
_POWER_STEPS = 48
_INVERSE_COST = 500.0
#: The shift sits this far (relatively) above the Collatz-Wielandt upper
#: bound, far above its rounding error, so (shift * I - M) stays invertible
#: with a positive inverse.
_SHIFT = 1e-12
#: Inverse steps that narrow neither the residual nor the relative bracket
#: width to a new low before giving up.
_STALL = 8


def _collatz_wielandt(h: np.ndarray, v: np.ndarray, mh: np.ndarray,
                      vm: np.ndarray) -> tuple[float, float]:
    """Bracket of the Perron root from non-negative vectors ``h`` and ``v``.

    For positive ``h``, ``min (Mh)_i / h_i <= lam <= max (Mh)_i / h_i``
    (Collatz 1942, Wielandt 1950); the same holds for ``v`` and ``vM``, and
    the two brackets intersect.  The lower bound still holds with the
    minimum taken over ``h_i > 0``; the upper bound needs every entry
    positive and is ``inf`` when one has underflowed to zero.
    """
    def bounds(x: np.ndarray, mx: np.ndarray) -> tuple[float, float]:
        pos = x > 0
        ratio = mx[pos] / x[pos]
        return float(ratio.min()), (float(ratio.max()) if pos.all() else math.inf)

    lo_h, hi_h = bounds(h, mh)
    lo_v, hi_v = bounds(v, vm)
    return max(lo_h, lo_v), min(hi_h, hi_v)


def _power_stalls(history: deque[float], tol: float, n: int) -> bool:
    """Whether the residual contraction over the last ``_WINDOW`` power steps
    predicts more remaining steps than the inverse phase would cost."""
    if len(history) <= _WINDOW:
        return False
    rate = (history[-1] / history[0]) ** (1.0 / _WINDOW)
    if not rate < 1.0:
        return True
    remaining = math.log(tol / history[-1]) / math.log(rate)
    return remaining > max(_POWER_STEPS, n * n / _INVERSE_COST)


def _inverse_step(matrix: np.ndarray, x: np.ndarray, shift: float, work: np.ndarray) -> np.ndarray:
    """``(shift * I - matrix)^-1 x``, normalized, from the diagonally scaled
    system ``(shift * I - D^-1 matrix D) y = 1`` with ``D = diag(x)``.

    The scaled matrix is non-negative with row sums ``(matrix x)_i / x_i``,
    all below the shift, so every entry of ``y`` is at least ``1 / shift``
    however widely the entries of ``x`` spread.  Rounding in the solve then
    cannot flip the sign of small entries, as it does when solving for
    ``(shift * I - matrix)^-1 x`` directly.
    """
    np.multiply(matrix, x[None, :], out=work)
    work /= x[:, None]
    np.negative(work, out=work)
    work.flat[:: len(x) + 1] += shift
    try:
        y = x * np.linalg.solve(work, np.ones(len(x)))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"inverse iteration hit a singular shift: {exc}") from None
    y /= y.sum()
    if not (np.all(np.isfinite(y)) and np.all(y > 0)):
        raise NoConvergence("inverse iteration lost positivity of the Perron vector")
    return y


def _perron(matrix: np.ndarray, tol: float, max_iter: int) -> tuple[float, np.ndarray, np.ndarray, float, int]:
    """Perron eigendata of a primitive matrix and its transpose.

    Starts with power iteration and renormalization; the eigenvalue estimate
    is the Rayleigh quotient of the current pair, and the solve stops once
    the relative residual of both vectors is at most ``tol``.  Power
    iteration contracts at rate ``|lam_2 / lam_1|``, which tends to 1 when a
    tilt concentrates on a periodic orbit.  Once the contraction observed
    over the last ``_WINDOW`` steps predicts more remaining steps than a few
    dense solves cost, the solver switches to shifted inverse iteration, as
    in Noda's iteration: each step shifts to just above the Collatz-Wielandt
    upper bound of the current vectors, so ``(shift * I - M)`` has a
    positive inverse, and the shift falls towards ``lam`` with the bracket.
    The inverse phase stops on the same residual test or once the
    Collatz-Wielandt bracket is narrower than ``tol`` (relative), and
    raises :class:`NoConvergence` if a vector loses positivity or
    finiteness, or if ``_STALL`` steps narrow neither residual nor bracket.
    ``max_iter`` caps the power and inverse steps together.
    """
    n = matrix.shape[0]
    h = np.full(n, 1.0 / n)
    v = np.full(n, 1.0 / n)
    history: deque[float] = deque(maxlen=_WINDOW + 1)
    work = None  # allocated on switching to inverse iteration
    best_res = best_width = math.inf
    stalls = 0
    for it in range(1, max_iter + 1):
        mh = matrix @ h
        vm = v @ matrix
        lam = float(v @ mh) / float(v @ h)
        if lam <= 0 or not math.isfinite(lam):
            raise NoConvergence(f"degenerate eigenvalue estimate {lam}")
        res_h = float(np.max(np.abs(mh - lam * h))) / (lam * float(np.max(h)))
        res_v = float(np.max(np.abs(vm - lam * v))) / (lam * float(np.max(v)))
        res = max(res_h, res_v)
        if res <= tol:
            return lam, h, v, res, it
        if work is None:
            history.append(res)
            if not _power_stalls(history, tol, n):
                h = mh / mh.sum()
                v = vm / vm.sum()
                continue
            if not (np.all(h > 0) and np.all(v > 0)):
                raise NoConvergence("Perron vector entries underflow the double range")
            work = np.empty_like(matrix)
        lo, hi = _collatz_wielandt(h, v, mh, vm)
        width = (hi - lo) / lo
        if width <= tol:
            return lam, h, v, res, it
        # From a poor vector the shift starts far above lam; the bracket
        # then narrows step by step while the residual stays near 1.
        if res < best_res or width < best_width:
            best_res, best_width, stalls = min(res, best_res), min(width, best_width), 0
        else:
            stalls += 1
            if stalls >= _STALL:
                raise NoConvergence(f"inverse iteration stalled at residual {best_res:.3g} above {tol}")
        shift = hi * (1.0 + _SHIFT)
        h = _inverse_step(matrix, h, shift, work)
        v = _inverse_step(matrix.T, v, shift, work)
    raise NoConvergence(f"Perron solve did not reach residual {tol} in {max_iter} steps")


def rpf_solve(M: WeightedMatrix, tol: float = 1e-13, max_iter: int = 10 ** 6) -> RPFData:
    """Perron eigenvalue and positive left/right eigenvectors of a transfer matrix."""
    M.chain.primitivity_power()  # raises NotPrimitive on hand-built chains
    lam, h, v, _, it = _perron(M.matrix, tol, max_iter)
    v = v / v.sum()
    h = h / float(v @ h)
    mh = M.matrix @ h
    vm = v @ M.matrix
    res = max(float(np.max(np.abs(mh - lam * h))), float(np.max(np.abs(vm - lam * v)))) / lam
    # Each ratio is a sum of at most n non-negative products and a division.
    lo, hi = _collatz_wielandt(h, v, mh, vm)
    slack = (len(h) + 2) * float(np.finfo(np.float64).eps)
    return RPFData(lam, h, v, res, it, lo * (1.0 - slack), hi * (1.0 + slack))


def pressure(spec: SubshiftSpec, phi: Potential, block: int | None = None) -> float:
    """Topological pressure: log of the Perron eigenvalue of the transfer matrix.

    The value is independent of the recoding block as long as
    ``block >= phi.memory``.
    """
    rpf = rpf_solve(recoded_transfer_matrix(spec, phi, block))
    return math.log(rpf.eigenvalue)


@dataclass(eq=False)
class MarkovMeasure:
    """A shift-invariant Markov measure presented on a recoded chain.

    ``transition`` is a stochastic matrix supported on the chain adjacency;
    ``stationary`` is its stationary probability vector.
    """

    chain: RecodedChain
    transition: np.ndarray
    stationary: np.ndarray


def _polish_stationary(pi: np.ndarray, P: np.ndarray, rounds: int = 64) -> np.ndarray:
    pi = pi / pi.sum()
    for _ in range(rounds):
        nxt = pi @ P
        nxt = nxt / nxt.sum()
        if float(np.max(np.abs(nxt - pi))) < 1e-16:
            return nxt
        pi = nxt
    return pi


def _markov_measure(chain: RecodedChain, W: np.ndarray, lam: float, h: np.ndarray,
                    v: np.ndarray) -> MarkovMeasure:
    """``P[w, w'] = W[w, w'] h[w'] / (lam h[w])`` with stationary vector
    ``v * h``, from Perron eigendata ``(lam, h, v)`` of ``W``.

    Raises :class:`NoConvergence` when entries of ``h`` have underflowed so
    far that the chain comes out NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        P = W * h[None, :] / (lam * h[:, None])
        P = P / P.sum(axis=1, keepdims=True)
        pi = _polish_stationary(v * h, P)
    if not (np.isfinite(P).all() and np.isfinite(pi).all()):
        raise NoConvergence("Perron vector entries underflow, so the Markov chain is undefined")
    return MarkovMeasure(chain, P, pi)


def gibbs_measure(rpf: RPFData, M: WeightedMatrix) -> MarkovMeasure:
    """The equilibrium Markov measure built from Perron eigendata.

    ``P[w, w'] = M[w, w'] h[w'] / (lam h[w])`` with stationary vector
    ``pi = left * right``; this measure maximizes entropy plus the integral
    of the potential.
    """
    return _markov_measure(M.chain, M.matrix, rpf.eigenvalue, rpf.right, rpf.left)


def equilibrium_measure(spec: SubshiftSpec, phi: Potential, block: int | None = None) -> MarkovMeasure:
    """Convenience: recode, weight, solve and assemble the Gibbs measure."""
    M = recoded_transfer_matrix(spec, phi, block)
    return gibbs_measure(rpf_solve(M), M)


@dataclass(eq=False)
class TiltFamily:
    """Perron eigendata of ``W(t) = matrix * exp(gvec + t * pvec)``, weights
    on the source state, as ``t`` varies.

    ``q(t) = log lam(t) - log lam(0)`` is convex with ``q'(t)`` the mean of
    ``pvec`` under the Markov measure of ``W(t)``.  :meth:`of` builds the
    family of the potential ``base + t * obs``, whose ``q`` is the scaled
    cumulant of ``obs``; a stochastic ``matrix`` with ``gvec = 0`` gives the
    exponential tilts of that chain.
    """

    chain: RecodedChain
    matrix: np.ndarray
    gvec: np.ndarray
    pvec: np.ndarray
    tol: float = 1e-13

    @classmethod
    def of(cls, spec: SubshiftSpec, base: Potential, obs: Potential) -> "TiltFamily":
        """The family of ``base + t * obs`` on the chain recoded at their memory."""
        chain = recode(spec, max(base.memory, obs.memory))
        return cls(chain, chain.adjacency.astype(np.float64), phi_vector(chain, base),
                   phi_vector(chain, obs))

    @property
    def t_limit(self) -> float:
        """Largest ``|t|`` tried; keeps the tilted values inside the exp() range."""
        pmax = float(np.max(np.abs(self.pvec)))
        gmax = float(np.max(np.abs(self.gvec)))
        return min(200.0, 0.999 * (MAX_POTENTIAL_VALUE - gmax) / pmax) if pmax > 0 else 200.0

    @cached_property
    def base_log(self) -> float:
        return self._log_eig(0.0)

    def _weighted(self, t: float) -> np.ndarray:
        return self.matrix * np.exp(self.gvec + t * self.pvec)[:, None]

    def _log_eig(self, t: float) -> float:
        lam, _, _, _, _ = _perron(self._weighted(t), self.tol, 10 ** 6)
        return math.log(lam)

    def q(self, t: float) -> float:
        return self._log_eig(t) - self.base_log

    def measure(self, t: float) -> MarkovMeasure:
        W = self._weighted(t)
        lam, h, v, _, _ = _perron(W, self.tol, 10 ** 6)
        return _markov_measure(self.chain, W, lam, h, v)

    def q_prime(self, t: float) -> float:
        """Exact pressure derivative: the observable mean under the tilt."""
        return float(self.measure(t).stationary @ self.pvec)

    def solve_mean(self, alpha: float, tol: float = 1e-10) -> tuple[float, bool]:
        """Bisection for ``q'(t) == alpha``; second value marks a capped bracket.

        Near the ends of the ergodic range the solution runs off to
        ``+-infinity``; the bracket is then capped and the capped endpoint
        returned, which realizes the monotone limit of the rate values.  The
        bracket also stops short of the cap at a tilt so large that its
        chain cannot be computed (:class:`NoConvergence`).
        """
        cap = self.t_limit

        def widen(t: float, q_t: float, short) -> tuple[float, float]:
            while short(q_t) and abs(t) < cap:
                nxt = math.copysign(min(2.0 * abs(t), cap), t)
                try:
                    q_t = self.q_prime(nxt)
                except NoConvergence:
                    break
                t = nxt
            return t, q_t

        hi, q_hi = widen(1.0, self.q_prime(1.0), lambda q: q < alpha)
        lo, q_lo = widen(-1.0, self.q_prime(-1.0), lambda q: q > alpha)
        if q_hi < alpha:
            return hi, True
        if q_lo > alpha:
            return lo, True
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            qm = self.q_prime(mid)
            if abs(qm - alpha) <= tol:
                return mid, False
            if qm < alpha:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
                break
        return 0.5 * (lo + hi), False


def entropy(mu: MarkovMeasure) -> float:
    """Entropy rate ``-sum_w pi_w sum_w' P log P`` with ``0 log 0 = 0``."""
    P = mu.transition
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0)), 0.0)
    return float(-(mu.stationary @ plogp.sum(axis=1)))


def integrate(mu: MarkovMeasure, phi: Potential) -> float:
    """Integral of a potential: stationary average of its state values."""
    return float(mu.stationary @ phi_vector(mu.chain, phi))


def variational_gap(spec: SubshiftSpec, pot: Potential, mu: MarkovMeasure) -> float:
    """Pressure minus (integral + entropy) of ``mu``; non-negative, zero only
    at the equilibrium measure of ``pot`` among Markov measures."""
    return pressure(spec, pot) - integrate(mu, pot) - entropy(mu)


def random_markov_measure(chain: RecodedChain, rng: np.random.Generator) -> MarkovMeasure:
    """Random fully supported Markov measure on the chain (Dirichlet rows)."""
    succ, degree = chain.successor_table
    P = np.zeros((chain.num_states, chain.num_states))
    for i, d in enumerate(degree):
        P[i, succ[i, :d]] = rng.dirichlet(np.ones(d))
    return MarkovMeasure(chain, P, stationary_distribution(P))


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible stochastic matrix (linear solve)."""
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.maximum(pi, 0.0)
    return _polish_stationary(pi, P)
