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
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
import numpy as np

from .errors import MemoryTooLarge, NoConvergence, NotPrimitive, ValidationError
from .sft import MAX_POTENTIAL_VALUE, Potential, SubshiftSpec, Word, primitivity_exponent


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

    States are built as base-``m`` integer codes in ascending, that is
    lexicographic, order; ``m ** block`` past int64 raises :class:`ValidationError`.

    The chain is primitive with exponent ``p + block - 1``, where ``p`` is
    the spec's primitivity power: a path of ``q >= block`` steps between two
    ``block``-words is a base path of ``q - block + 1`` steps between the
    last symbol of one and the first of the other, and with two or more
    symbols no shorter path joins every pair.  One symbol gives one state.
    """
    if block < 1:
        raise ValueError("recoding block must be >= 1")
    m = spec.alphabet_size
    if m ** block > np.iinfo(np.int64).max:
        raise ValidationError(f"{block}-words on {m} symbols overflow the int64 word codes")
    codes = np.arange(m, dtype=np.int64)
    src, sym = np.nonzero(spec.transitions[codes])
    for _ in range(block - 1):
        codes = codes[src] * m + sym
        src, sym = np.nonzero(spec.transitions[codes % m])
    # Edge (src, sym) drops the first symbol of state src and appends sym.
    dst = np.searchsorted(codes, codes[src] % m ** (block - 1) * m + sym)
    n = len(codes)
    adjacency = np.zeros((n, n), dtype=np.uint8)
    adjacency[src, dst] = 1
    step = np.full((n, m), -1, dtype=np.int64)
    step[src, sym] = dst
    states = tuple(map(tuple, (codes[:, None] // m ** np.arange(block - 1, -1, -1) % m).tolist()))
    power = 1 if m == 1 else spec.primitivity_power + block - 1
    return RecodedChain(spec, block, states, dict(zip(states, range(n))), adjacency, step,
                        _primitivity=power)


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
    and ``left @ right == 1``; ``residual`` is the larger of their defects
    ``max |Mx - lam x| / (lam max x)``.  ``lower <= eigenvalue <= upper``
    is the Collatz-Wielandt bracket of the final iterate (the returned
    vectors before scaling), widened by the rounding error of its
    evaluation, so it certifies the Perron root of the matrix as stored
    unless products in ``M @ x`` underflow; ``upper`` is ``inf`` if both
    vectors have underflowed entries.
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
#: :class:`TiltFamily` starts the solve of a chain with at most this many
#: states from :func:`_dense_start`.  With one BLAS thread on a 2-core x86
#: VM, random tilted chains of 30 to 32 states solve in 0.66-0.95 ms from
#: that start, its one ``eig`` call included, against 0.84-1.16 ms from a
#: flat one; the two tie at 34 to 42 states, and at 60 to 64 states the
#: ``eig`` call alone costs 1.4 times a flat solve.
_DENSE_START = 32
#: A residual stop also needs a Collatz-Wielandt bracket this narrow (relative).
_CERTIFIED = 1e-10


def _collatz_wielandt(x: np.ndarray, mx: np.ndarray) -> tuple[float, float]:
    """Bracket of the Perron root from the non-negative rows ``x = (h, v)``
    and ``mx = (Mh, vM)``.

    For positive ``h``, ``min (Mh)_i / h_i <= lam <= max (Mh)_i / h_i``
    (Collatz 1942, Wielandt 1950); the same holds for ``v`` and ``vM``, and
    the two brackets intersect.  The lower bound still holds with the
    minimum taken over ``h_i > 0``; the upper bound needs every entry
    positive and is ``inf`` when one has underflowed to zero.
    """
    if x.min() > 0:
        ratio = mx / x
        return float(ratio.min(axis=1).max()), float(ratio.max(axis=1).min())
    ratios = [m[pos] / r[pos] for r, m, pos in zip(x, mx, x > 0)]
    return (max(float(r.min()) for r in ratios),
            min(float(r.max()) if len(r) == x.shape[1] else math.inf for r in ratios))


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


def _dense_start(matrix: np.ndarray) -> np.ndarray | None:
    """Right and left Perron vectors from one batched ``np.linalg.eig`` call,
    as the rows of a ``(2, n)`` array: the eigenvector of the eigenvalue with
    the largest real part, as the absolute value of its real part; ``None``
    if LAPACK fails or an entry is not finite and positive."""
    try:
        vals, vecs = np.linalg.eig(np.stack((matrix, matrix.T)))
    except np.linalg.LinAlgError:
        return None
    pair = np.abs(vecs[[0, 1], :, vals.real.argmax(axis=1)].real)
    return pair if np.all((pair > 0) & (pair < math.inf)) else None


def rpf_solve(M: WeightedMatrix, tol: float = 1e-13,
              start: np.ndarray | tuple[np.ndarray, ...] | None = None,
              max_iter: int = 10 ** 6) -> RPFData:
    """Perron eigenvalue and positive left/right eigenvectors of a transfer matrix.

    Starts with power iteration and renormalization; the eigenvalue estimate
    is the Rayleigh quotient of the current pair, and the solve stops once
    the relative residual of both vectors is at most ``tol`` and their
    Collatz-Wielandt bracket is within ``_CERTIFIED`` (relative), since an
    iterate on a nearly invariant block of states passes the residual test
    alone with a wrong root; a bracket whose upper end is ``inf`` because an
    entry underflowed stops it as it stands (see :class:`RPFData`).  Power
    iteration contracts at rate ``|lam_2 / lam_1|``, which tends to 1 when a
    tilt concentrates on a periodic orbit.  Once the contraction observed
    over the last ``_WINDOW`` steps predicts more remaining steps than a few
    dense solves cost, the solver switches to shifted inverse iteration, as
    in Noda's iteration: each step shifts to just above the Collatz-Wielandt
    upper bound of the current vectors, so ``(shift * I - M)`` has a
    positive inverse, and the shift falls towards ``lam`` with the bracket.
    The inverse phase also stops once the bracket is narrower than ``tol``
    (relative).  The solve raises :class:`NoConvergence` if ``v @ h``
    vanishes, if a vector loses positivity or finiteness, or if ``_STALL``
    inverse steps narrow neither residual nor bracket.  ``max_iter`` caps
    the power and inverse steps together.  The residual and bracket are
    those of the iterate the solve stopped on.

    ``start`` is an optional pair of positive right and left vectors (two
    arrays, or the rows of one) to iterate from instead of the flat ones.
    It is kept only if its own Collatz-Wielandt bracket is already narrower
    than ``tol`` (relative); otherwise it costs two matvecs and the solve is
    the flat-start solve, bit for bit.  A kept start usually passes the residual test at once and
    returns after that one check, with its own products and bracket.
    """
    M.chain.primitivity_power()  # raises NotPrimitive on hand-built chains
    matrix = M.matrix
    n = matrix.shape[0]
    x = mx = bracket = None  # (h, v), (M h, v M) and bracket of x, once known
    if start is not None:
        x = np.asarray(start)
        mx = np.array((matrix @ x[0], x[1] @ matrix))
        lo, hi = _collatz_wielandt(x, mx)
        x, mx, bracket = (x, mx, (lo, hi)) if hi - lo <= tol * lo else (None, None, None)
    if x is None:
        x = np.full((2, n), 1.0 / n)
    history: deque[float] = deque(maxlen=_WINDOW + 1)
    work = None  # allocated on switching to inverse iteration
    best_res = best_width = math.inf
    stalls = 0
    for it in range(1, max_iter + 1):
        h, v = x
        if mx is None:
            mx = np.array((matrix @ h, v @ matrix))
        vh = float(v @ h)
        if vh == 0:
            raise NoConvergence("v @ h underflowed to 0, so the Rayleigh quotient is undefined")
        lam = float(v @ mx[0]) / vh
        if lam <= 0 or not math.isfinite(lam):
            raise NoConvergence(f"degenerate eigenvalue estimate {lam}")
        (d_h, d_v), (x_h, x_v) = np.abs(mx - lam * x).max(axis=1).tolist(), x.max(axis=1).tolist()
        res = max(d_h / (lam * x_h), d_v / (lam * x_v))
        if res <= tol:
            lo, hi = bracket = bracket or _collatz_wielandt(x, mx)
            if hi == math.inf or hi - lo <= _CERTIFIED * lo:
                break
        if work is None:
            history.append(res)
            if not _power_stalls(history, tol, n):
                x, mx, bracket = mx / mx.sum(axis=1, keepdims=True), None, None
                continue
            if not x.min() > 0:
                raise NoConvergence("Perron vector entries underflow the double range")
            work = np.empty_like(matrix)
        lo, hi = bracket or _collatz_wielandt(x, mx)
        width = (hi - lo) / lo
        if width <= tol:
            bracket = lo, hi
            break
        # From a poor vector the shift starts far above lam; the bracket
        # then narrows step by step while the residual stays near 1.
        if res < best_res or width < best_width:
            best_res, best_width, stalls = min(res, best_res), min(width, best_width), 0
        else:
            stalls += 1
            if stalls >= _STALL:
                raise NoConvergence(f"inverse iteration stalled at residual {best_res:.3g} above {tol}")
        shift = hi * (1.0 + _SHIFT)
        x = np.array((_inverse_step(matrix, h, shift, work), _inverse_step(matrix.T, v, shift, work)))
        mx = bracket = None
    else:
        raise NoConvergence(f"Perron solve did not reach residual {tol} in {max_iter} steps")
    # Each ratio is a sum of at most n non-negative products and a division.
    lo, hi = bracket
    slack = (n + 2) * float(np.finfo(np.float64).eps)
    v = v / v.sum()
    return RPFData(lam, h / float(v @ h), v, res, it, lo * (1.0 - slack), hi * (1.0 + slack))


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


#: Power steps ``pi <- pi @ P`` that polish a stationary vector at most.
_POLISH_ROUNDS = 64


def _polish_stationary(pi: np.ndarray, P: np.ndarray) -> np.ndarray:
    pi = pi / pi.sum()
    for _ in range(_POLISH_ROUNDS):
        nxt = pi @ P
        nxt = nxt / nxt.sum()
        if float(np.max(np.abs(nxt - pi))) < 1e-16:
            return nxt
        pi = nxt
    return pi


def gibbs_measure(rpf: RPFData, M: WeightedMatrix) -> MarkovMeasure:
    """The equilibrium Markov measure built from Perron eigendata.

    ``P[w, w'] = M[w, w'] h[w'] / (lam h[w])`` with stationary vector
    ``pi = left * right``; this measure maximizes entropy plus the integral
    of the potential.  Raises :class:`NoConvergence` when entries of ``h``
    have underflowed or overflowed so far that the chain comes out NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        P = M.matrix * rpf.right[None, :] / (rpf.eigenvalue * rpf.right[:, None])
        P = P / P.sum(axis=1, keepdims=True)
        pi = _polish_stationary(rpf.left * rpf.right, P)
    if not (np.isfinite(P).all() and np.isfinite(pi).all()):
        raise NoConvergence("Perron vector entries leave the double range, so the chain is undefined")
    return MarkovMeasure(M.chain, P, pi)


def equilibrium_measure(spec: SubshiftSpec, phi: Potential, block: int | None = None) -> MarkovMeasure:
    """Convenience: recode, weight, solve and assemble the Gibbs measure."""
    M = recoded_transfer_matrix(spec, phi, block)
    return gibbs_measure(rpf_solve(M), M)


@dataclass(eq=False)
class TiltFamily:
    """Perron eigendata of ``W(t) = matrix * exp(gvec + t * pvec)``, weights
    on the source state, as ``t`` varies.

    All values come from :meth:`rpf`, which solves each tilt once, from
    LAPACK's Perron vectors on a chain of at most ``_DENSE_START`` states.
    ``q(t) = log lam(t) - log lam(0)`` is convex with ``q'(t)`` the mean of
    ``pvec`` under the stationary vector ``left * right`` of ``W(t)``'s
    Markov measure.  :meth:`of` builds the family of ``base + t * obs``,
    whose ``q`` is the scaled cumulant of ``obs``; a stochastic ``matrix``
    with ``gvec = 0`` gives the exponential tilts of that chain.
    """

    chain: RecodedChain
    matrix: np.ndarray
    gvec: np.ndarray
    pvec: np.ndarray
    tol: float = 1e-13
    #: Eigendata of each tilt solved so far; a solve that raises is not kept.
    _solved: dict[float, RPFData] = field(default_factory=dict, init=False, repr=False)

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

    @property
    def base_log(self) -> float:
        return math.log(self.rpf(0.0).eigenvalue)

    def _weighted(self, t: float) -> WeightedMatrix:
        """``W(t)``; a tilt that is not finite, or that overflows a weight, raises."""
        if not math.isfinite(t):
            raise ValueError(f"tilt {t} is not finite")
        with np.errstate(over="ignore"):
            weights = np.exp(self.gvec + t * self.pvec)
        if not np.isfinite(weights).all():
            raise ValidationError(f"tilt {t} overflows the weights exp(gvec + t * pvec)")
        return WeightedMatrix(self.chain, self.matrix * weights[:, None])

    def rpf(self, t: float) -> RPFData:
        """Perron eigendata of ``W(t)`` from :func:`rpf_solve`, solved once per
        tilt; on a chain of at most ``_DENSE_START`` states the solve starts
        from :func:`_dense_start`'s vectors where their bracket allows."""
        if t not in self._solved:
            M = self._weighted(t)
            start = _dense_start(M.matrix) if self.chain.num_states <= _DENSE_START else None
            self._solved[t] = rpf_solve(M, self.tol, start)
        return self._solved[t]

    def q(self, t: float) -> float:
        return math.log(self.rpf(t).eigenvalue) - self.base_log

    def measure(self, t: float) -> MarkovMeasure:
        return gibbs_measure(self.rpf(t), self._weighted(t))

    def q_prime(self, t: float) -> float:
        """Exact pressure derivative ``left @ (right * pvec)``; raises
        :class:`NoConvergence` if a Perron vector entry underflowed to 0."""
        rpf = self.rpf(t)
        if not (rpf.right.min() > 0 and rpf.left.min() > 0):
            raise NoConvergence("Perron vector entries underflow, so the tilted mean is undefined")
        return float(rpf.left @ (rpf.right * self.pvec))

    def solve_mean(self, alpha: float, tol: float = 1e-10) -> tuple[float, bool]:
        """Bisection for ``q'(t) == alpha``; second value marks a capped bracket.

        Near the ends of the ergodic range the solution runs off to
        ``+-infinity``; the bracket is then capped and the capped endpoint
        returned, which realizes the monotone limit of the rate values.  The
        bracket also stops short of the cap at a tilt so large that its
        chain cannot be computed (:class:`NoConvergence`).

        A midpoint is solved only if no tilt solved in this call decides its
        branch: one at ``s >= mid`` with ``q'(s) < alpha - 2 tol`` moves ``lo``,
        one at ``s <= mid`` with ``q'(s) > alpha + 2 tol`` moves ``hi``.  If
        computed ``q'`` is monotone to within ``tol / 2``, the result is the
        plain bisection's bit for bit, but it may return where a skipped
        midpoint's solve would have raised :class:`NoConvergence`.  After the
        third solved midpoint that does not stop, one guide pass finds ``c``
        with ``|q'(c) - alpha| <= tol`` by Illinois regula falsi, then solves
        on each side of ``c`` the last midpoint of the bisection's path that a
        secant predicts more than ``2.5 tol`` off; a raising solve ends it.
        """
        cap = self.t_limit
        known: dict[float, float] = {}  # q'(t) - alpha at each tilt t solved in this call
        below, above, solved = -math.inf, math.inf, 0  # midpoints <= below, >= above are decided

        def solve(t: float) -> float:
            nonlocal below, above
            d = known[t] = self.q_prime(t) - alpha
            if abs(d) > 2.0 * tol:
                below, above = (max(below, t), above) if d < 0 else (below, min(above, t))
            return d

        def widen(t: float, d: float) -> tuple[float, float]:
            while d * t < 0 and abs(t) < cap:  # q'(t) falls short of alpha on t's side
                nxt = math.copysign(min(2.0 * abs(t), cap), t)
                try:
                    d = solve(nxt)
                except NoConvergence:
                    break
                t = nxt
            return t, d

        def guide(lo: float, hi: float) -> None:
            a = max((s for s, d in known.items() if d < 0), default=lo)  # else q'(lo) == alpha
            b = min((s for s, d in known.items() if d > 0), default=hi)  # else q'(hi) == alpha
            fa, fb, last = known[a], known[b], 0.0
            for _ in range(20):
                c = a - fa * (b - a) / (fb - fa)
                fc = solve(c)
                if abs(fc) <= tol:
                    break
                keep = 0.5 if fc * last > 0 else 1.0  # Illinois: halve an end kept twice in a row
                a, fa, b, fb = (c, fc, b, keep * fb) if fc < 0 else (a, keep * fa, c, fc)
                last = fc
            for _ in range(2):  # the second walk takes its slope from the first's solves
                near = min((s for s in known if s != c and abs(known[s]) > tol),
                           key=lambda s: abs(s - c))
                slope, l, h, targets = (known[near] - fc) / (near - c), lo, hi, {}
                for _ in range(200):
                    mid = 0.5 * (l + h)
                    off = slope * (mid - c)
                    if abs(off) <= tol:
                        break
                    if abs(off) > 2.5 * tol:
                        targets[off < 0] = mid
                    l, h = (mid, h) if off < 0 else (l, mid)
                for mid in [m for m in targets.values() if below < m < above]:
                    solve(mid)

        hi, d_hi = widen(1.0, solve(1.0))
        lo, d_lo = widen(-1.0, solve(-1.0))
        if d_hi < 0:
            return hi, True
        if d_lo > 0:
            return lo, True
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            d = -math.inf if mid <= below else math.inf if mid >= above else solve(mid)
            if abs(d) <= tol:
                return mid, False
            lo, hi = (mid, hi) if d < 0 else (lo, mid)
            if math.isfinite(d) and (solved := solved + 1) == 3:
                with suppress(NoConvergence):
                    guide(lo, hi)
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
