"""Subshifts of finite type as concrete hyperbolic systems.

A subshift is the space of bi-infinite symbol sequences whose adjacent
pairs are allowed by a primitive 0/1 transition matrix, together with the
left shift.  This module provides

* :class:`SubshiftSpec` -- the validated system description,
* :class:`PointRep` -- exact arithmetic on eventually periodic points,
* the shift map, the ``2**-k`` metric and the splice bracket,
* locally constant potentials and Birkhoff sums,
* sliding-window empirical measures,
* a randomized checker for the bracket/contraction axioms.

Words are plain tuples of symbol indices throughout.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BracketUndefined,
    EmptyRowOrColumn,
    InadmissibleConcatenation,
    IncompleteTable,
    NotPrimitive,
    ValidationError,
)

Word = tuple[int, ...]

#: Potential table entries beyond this magnitude would overflow exp().
MAX_POTENTIAL_VALUE = 700.0


@dataclass(frozen=True, eq=False)
class SubshiftSpec:
    """A mixing subshift of finite type on symbols ``0 .. m-1``.

    ``transitions[a, b] == 1`` means symbol ``b`` may follow symbol ``a``.
    The matrix is required to be primitive (some power is entrywise
    positive); ``primitivity_power`` is the smallest such exponent.
    """

    alphabet_size: int
    transitions: np.ndarray
    primitivity_power: int
    symbols: tuple[str, ...]
    succs: tuple[tuple[int, ...], ...] = field(repr=False)
    preds: tuple[tuple[int, ...], ...] = field(repr=False)

    def successors(self, a: int) -> tuple[int, ...]:
        return self.succs[a]

    def predecessors(self, a: int) -> tuple[int, ...]:
        return self.preds[a]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubshiftSpec):
            return NotImplemented
        return self.alphabet_size == other.alphabet_size and np.array_equal(
            self.transitions, other.transitions
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rows = ["".join(str(int(v)) for v in row) for row in self.transitions]
        return f"SubshiftSpec(m={self.alphabet_size}, A={'/'.join(rows)}, q={self.primitivity_power})"


def validate_spec(matrix: Iterable[Iterable[int]], symbols: Sequence[str] | None = None) -> SubshiftSpec:
    """Validate a 0/1 transition matrix and return the subshift it defines.

    Raises :class:`EmptyRowOrColumn` if a symbol is stranded and
    :class:`NotPrimitive` if no power up to ``(m-1)**2 + 1`` is entrywise
    positive (the sharp bound for primitive matrices), i.e. if the shift is
    not topologically mixing.
    """
    A = np.asarray(matrix, dtype=np.int64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValidationError(f"transition matrix must be square and non-empty, got shape {A.shape}")
    if not np.isin(A, (0, 1)).all():
        raise ValidationError("transition matrix entries must be 0 or 1")
    m = A.shape[0]
    for a in range(m):
        if not A[a].any():
            raise EmptyRowOrColumn(f"symbol {a} has no allowed successor")
        if not A[:, a].any():
            raise EmptyRowOrColumn(f"symbol {a} has no allowed predecessor")

    q = primitivity_exponent(A)
    if q is None:
        raise NotPrimitive(f"no power of the transition matrix up to {(m - 1) ** 2 + 1} is entrywise positive")

    if symbols is None:
        symbols = tuple(str(a) for a in range(m))
    else:
        symbols = tuple(symbols)
        if len(symbols) != m:
            raise ValidationError(f"{len(symbols)} symbol names for a {m}-symbol alphabet")

    stored = A.astype(np.uint8)
    stored.setflags(write=False)
    succs = tuple(tuple(int(b) for b in np.flatnonzero(A[a])) for a in range(m))
    preds = tuple(tuple(int(b) for b in np.flatnonzero(A[:, a])) for a in range(m))
    return SubshiftSpec(m, stored, q, symbols, succs, preds)


def primitivity_exponent(adjacency: np.ndarray) -> int | None:
    """Smallest ``q`` with ``adjacency ** q`` entrywise positive, or None if
    no power up to the sharp bound ``(n-1)**2 + 1`` for primitive matrices is."""
    A = np.asarray(adjacency, dtype=np.int64)
    power = A.astype(bool)
    for k in range(1, (A.shape[0] - 1) ** 2 + 2):
        if power.all():
            return k
        power = (power.astype(np.uint8) @ A) > 0
    return None


def is_admissible(spec: SubshiftSpec, word: Sequence[int]) -> bool:
    """True iff every symbol is in range and every adjacent pair is allowed."""
    w = tuple(word)
    if any(not 0 <= a < spec.alphabet_size for a in w):
        return False
    return all(spec.transitions[w[i], w[i + 1]] for i in range(len(w) - 1))


def admissible_words(spec: SubshiftSpec, length: int) -> list[Word]:
    """All admissible words of the given length, in lexicographic order."""
    return list(_lex_words(spec, range(spec.alphabet_size), length))


def unstable_leaf_words(spec: SubshiftSpec, start_symbol: int, n: int) -> list[Word]:
    """Admissible words of length ``n`` starting at ``start_symbol``.

    These index the depth-``n`` cylinders of the expanding leaf through any
    point whose coordinate 0 carries ``start_symbol``; the count equals the
    ``start_symbol`` row sum of the (n-1)-th matrix power.
    """
    if not 0 <= start_symbol < spec.alphabet_size:
        raise ValueError(f"start symbol {start_symbol} out of range")
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(_lex_words(spec, (start_symbol,), n))


def _lex_words(spec: SubshiftSpec, starts: Sequence[int], length: int) -> Iterator[Word]:
    """Admissible ``length``-words from ``starts``, one at a time in lexicographic order."""
    if length < 1:
        raise ValueError("word length must be >= 1")
    stack = [(a,) for a in reversed(starts)]
    while stack:
        w = stack.pop()
        if len(w) == length:
            yield w
        else:
            stack.extend(w + (b,) for b in reversed(spec.succs[w[-1]]))


class PointRep:
    """An eventually periodic bi-infinite point, supporting exact arithmetic.

    The denoted sequence is::

        ... L L | W | P P ...

    where ``L = left_cycle`` repeats into the past, ``W = word`` is a finite
    word whose first symbol sits at coordinate ``start``, and
    ``P = right_cycle`` repeats into the future.  The shift only moves
    ``start``; the word need not cover coordinate 0.

    The constructor takes the word in three pieces, ``left_transient``,
    ``core`` and ``right_transient``, where ``core`` starts at coordinate
    ``core_start`` and must contain coordinate 0.

    Eventually periodic points are dense and closed under the shift and the
    bracket, and make equality and the metric exactly computable.
    """

    __slots__ = ("spec", "left_cycle", "word", "right_cycle", "start")

    def __init__(self, spec: SubshiftSpec, left_cycle: Sequence[int], core: Sequence[int],
                 right_cycle: Sequence[int], left_transient: Sequence[int] = (),
                 right_transient: Sequence[int] = (), core_start: int = 0):
        left_cycle, right_cycle, core = tuple(left_cycle), tuple(right_cycle), tuple(core)
        left_transient = tuple(left_transient)
        if not left_cycle or not right_cycle:
            raise ValidationError("left and right cycles must be non-empty")
        if not core:
            raise ValidationError("core must be non-empty")
        if not (core_start <= 0 < core_start + len(core)):
            raise ValidationError("core must contain coordinate 0")
        self._init(spec, left_cycle, left_transient + core + tuple(right_transient),
                   right_cycle, core_start - len(left_transient))

    def _init(self, spec: SubshiftSpec, left_cycle: Word, word: Word, right_cycle: Word,
              start: int) -> "PointRep":
        self.spec = spec
        self.left_cycle = left_cycle
        self.word = word
        self.right_cycle = right_cycle
        self.start = start
        # One extra cycle length on each side covers all wrap-around pairs.
        for i in range(start - len(left_cycle) - 1, self.end + len(right_cycle)):
            a, b = self.symbol_at(i), self.symbol_at(i + 1)
            if not (0 <= a < spec.alphabet_size) or not (0 <= b < spec.alphabet_size):
                raise ValidationError(f"symbol out of range at coordinate {i}")
            if not spec.transitions[a, b]:
                raise ValidationError(f"forbidden pair ({a},{b}) at coordinate {i}")
        return self

    @property
    def end(self) -> int:
        """Coordinate from which on the sequence is purely right-cycle periodic."""
        return self.start + len(self.word)

    def symbol_at(self, i: int) -> int:
        j = i - self.start
        if j < 0:
            return self.left_cycle[j % len(self.left_cycle)]
        if j < len(self.word):
            return self.word[j]
        return self.right_cycle[(j - len(self.word)) % len(self.right_cycle)]

    def window(self, start: int, length: int) -> Word:
        return tuple(self.symbol_at(start + i) for i in range(length))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointRep):
            return NotImplemented
        return self.spec == other.spec and first_difference(self, other) is None

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        j = lambda w: "".join(str(s) for s in w)
        return f"...({j(self.left_cycle)})[{j(self.word)}@{self.start}]({j(self.right_cycle)})..."


def first_difference(x: PointRep, y: PointRep) -> int | None:
    """Smallest ``|i|`` with ``x_i != y_i``, or None if the sequences agree.

    Outside their words both sequences are periodic, so agreement on one
    full common period in each direction decides global equality.
    """
    right_period = math.lcm(len(x.right_cycle), len(y.right_cycle))
    right_bound = max(x.end, y.end, 0) + right_period
    left_period = math.lcm(len(x.left_cycle), len(y.left_cycle))
    left_bound = min(x.start, y.start, 0) - left_period
    for rad in range(max(right_bound, -left_bound) + 1):
        if rad <= right_bound and x.symbol_at(rad) != y.symbol_at(rad):
            return rad
        if rad > 0 and -rad >= left_bound and x.symbol_at(-rad) != y.symbol_at(-rad):
            return rad
    return None


def distance(x: PointRep, y: PointRep) -> float:
    """The metric ``d(x, y) = 2**-min{|i| : x_i != y_i}`` (0 for equal points)."""
    rad = first_difference(x, y)
    return 0.0 if rad is None else 2.0 ** (-rad)


def shift(x: PointRep, steps: int = 1) -> PointRep:
    """Left shift: ``shift(x, s)_i == x_{i+s}``.  ``steps`` may be negative."""
    return PointRep.__new__(PointRep)._init(x.spec, x.left_cycle, x.word, x.right_cycle,
                                            x.start - steps)


def bracket(x: PointRep, y: PointRep) -> PointRep:
    """The point with the past of ``y`` and the future of ``x``.

    Defined iff ``x_0 == y_0`` (distance below 1), which makes the splice
    admissible: the result ``z`` has ``z_i = y_i`` for ``i <= 0`` and
    ``z_i = x_i`` for ``i >= 0``.
    """
    s0 = x.symbol_at(0)
    if s0 != y.symbol_at(0):
        raise BracketUndefined(f"bracket needs matching coordinate-0 symbols, got {s0} and {y.symbol_at(0)}")
    lo, hi = min(y.start, 0), max(x.end, 1)
    # Below lo only y's left cycle and from hi on only x's right cycle remain.
    return PointRep.__new__(PointRep)._init(
        x.spec, y.window(lo - len(y.left_cycle), len(y.left_cycle)),
        y.window(lo, -lo) + x.window(0, hi), x.window(hi, len(x.right_cycle)), lo)


@dataclass(frozen=True)
class Potential:
    """A locally constant function reading a fixed window of coordinates.

    ``table`` maps every admissible ``memory``-word to a real value; a point
    is evaluated on its coordinates ``0 .. memory-1`` only.  Locally constant
    functions are Lipschitz in the ``2**-k`` metric, and every regular
    potential on a subshift is a uniform limit of them.
    """

    memory: int
    table: dict[Word, float]

    def value(self, window: Sequence[int]) -> float:
        key = tuple(window[: self.memory])
        try:
            return self.table[key]
        except KeyError:
            raise IncompleteTable(f"potential table has no entry for word {key}") from None

    def validate(self, spec: SubshiftSpec) -> None:
        for w in _lex_words(spec, range(spec.alphabet_size), self.memory):
            if w not in self.table:
                raise IncompleteTable(f"missing admissible {self.memory}-word {w}")
        for w, v in self.table.items():
            if not is_admissible(spec, w) or len(w) != self.memory:
                raise ValidationError(f"table key {w} is not an admissible {self.memory}-word")
            if not math.isfinite(v):
                raise ValidationError(f"non-finite value for word {w}")
            if abs(v) > MAX_POTENTIAL_VALUE:
                raise ValidationError(f"value {v} for word {w} exceeds magnitude {MAX_POTENTIAL_VALUE}")

    @classmethod
    def constant(cls, spec: SubshiftSpec, c: float) -> "Potential":
        return cls(1, {(a,): float(c) for a in range(spec.alphabet_size)})

    @classmethod
    def zero(cls, spec: SubshiftSpec) -> "Potential":
        return cls.constant(spec, 0.0)

    @classmethod
    def indicator(cls, spec: SubshiftSpec, symbol: int) -> "Potential":
        return cls(1, {(a,): 1.0 if a == symbol else 0.0 for a in range(spec.alphabet_size)})


def combine_potentials(spec: SubshiftSpec, base: Potential, other: Potential,
                       weight: float = 1.0) -> Potential:
    """The potential ``base + weight * other`` on the common memory block."""
    k = max(base.memory, other.memory)
    table = {w: base.value(w) + weight * other.value(w) for w in admissible_words(spec, k)}
    return Potential(k, table)


def birkhoff_sum(spec: SubshiftSpec, w: Sequence[int], phi: Potential,
                 continuation: Sequence[int] = ()) -> float:
    """Sum of ``phi`` over the ``len(w)`` windows starting at each coordinate of ``w``.

    Windows reaching past the end of ``w`` read into ``continuation``, which
    must carry at least ``phi.memory - 1`` symbols.
    """
    w = tuple(w)
    cont = tuple(continuation)
    if len(cont) < phi.memory - 1:
        raise ValueError(f"continuation needs at least {phi.memory - 1} symbols, got {len(cont)}")
    joint = w + cont
    if not is_admissible(spec, joint):
        raise InadmissibleConcatenation(f"word {w} with continuation {cont} is not admissible")
    return sum(phi.value(joint[i:i + phi.memory]) for i in range(len(w)))


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Sliding-window word frequencies of a finite orbit segment.

    ``counts`` holds the number of occurrences of each ``window``-word among
    the ``length`` windows (no wrap-around); counts sum to ``length``.
    """

    window: int
    counts: dict[Word, int]
    length: int

    def frequencies(self) -> dict[Word, float]:
        return {w: c / self.length for w, c in self.counts.items()}


def orbital_empirical(w: Sequence[int], window: int) -> EmpiricalMeasure:
    """Empirical measure of the ``len(w) - window + 1`` sliding windows of ``w``."""
    w = tuple(w)
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(w) < window:
        raise ValueError(f"word of length {len(w)} is shorter than window {window}")
    counts = Counter(w[i:i + window] for i in range(len(w) - window + 1))
    return EmpiricalMeasure(window, dict(counts), len(w) - window + 1)


# ---------------------------------------------------------------------------
# Axiom checking


@dataclass
class AxiomReport:
    """Result of randomized bracket/contraction axiom checks."""

    sample_count: int
    checks: dict[str, int]
    violations: list[str]
    max_stable_ratio: float
    max_unstable_ratio: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_point(spec: SubshiftSpec, rng: np.random.Generator, symbol0: int) -> PointRep:
    """Random eventually periodic point with the given coordinate-0 symbol.

    Forward and backward random walks are run until a symbol repeats; the
    piece between the repeats becomes the periodic tail.
    """
    def walk(start: int, neighbours) -> tuple[Word, Word]:
        path = [start]
        for _ in range(int(rng.integers(0, 4))):
            options = neighbours(path[-1])
            path.append(options[int(rng.integers(len(options)))])
        seen: dict[int, int] = {}
        while path[-1] not in seen:
            seen[path[-1]] = len(path) - 1
            options = neighbours(path[-1])
            path.append(options[int(rng.integers(len(options)))])
        i = seen[path[-1]]
        last = len(path) - 1
        if i == 0:
            # The repeat closes on the core symbol itself; anchor the block
            # one step in so the periodic part starts right after the core.
            return (), tuple(path[1:last + 1])
        return tuple(path[1:i]), tuple(path[i:last])

    rt, rc = walk(symbol0, spec.successors)
    lt_rev, lc_rev = walk(symbol0, spec.predecessors)
    lt = tuple(reversed(lt_rev))
    lc = tuple(reversed(lc_rev))
    return PointRep(spec, lc, (symbol0,), rc, lt, rt, 0)


def axioms_check(spec: SubshiftSpec, sample_count: int = 1000, seed: int = 0) -> AxiomReport:
    """Randomized verification of the bracket and contraction axioms.

    Generates random eventually periodic triples sharing the coordinate-0
    symbol and checks, exactly:

    * ``[x, x] == x``,
    * composition: ``[[x,y], z] == [x,z]`` and ``[x, [y,z]] == [x,z]``,
    * shift equivariance ``f([x,y]) == [f(x), f(y)]`` whenever both sides
      are defined,

    and with contraction constant ``1/2`` (exact for the ``2**-k`` metric):

    * points sharing a future contract under the shift,
    * points sharing a past contract under the inverse shift.

    Violations indicate implementation bugs; the report also carries the
    largest observed contraction ratios.
    """
    if sample_count < 0:
        raise ValueError(f"sample_count must be >= 0, got {sample_count}")
    rng = np.random.default_rng(seed)
    checks = {"identity": 0, "compose_left": 0, "compose_right": 0,
              "equivariance": 0, "stable_contraction": 0, "unstable_contraction": 0}
    violations: list[str] = []
    largest = {"stable": 0.0, "unstable": 0.0}

    for trial in range(sample_count):
        s0 = int(rng.integers(spec.alphabet_size))
        x = _random_point(spec, rng, s0)
        y = _random_point(spec, rng, s0)
        z = _random_point(spec, rng, s0)

        checks["identity"] += 1
        if bracket(x, x) != x:
            violations.append(f"trial {trial}: [x,x] != x")

        checks["compose_left"] += 1
        if bracket(bracket(x, y), z) != bracket(x, z):
            violations.append(f"trial {trial}: [[x,y],z] != [x,z]")

        checks["compose_right"] += 1
        if bracket(x, bracket(y, z)) != bracket(x, z):
            violations.append(f"trial {trial}: [x,[y,z]] != [x,z]")

        if x.symbol_at(1) == y.symbol_at(1):
            checks["equivariance"] += 1
            if shift(bracket(x, y)) != bracket(shift(x), shift(y)):
                violations.append(f"trial {trial}: f([x,y]) != [f(x),f(y)]")

        # Stable: u and v share x's future (coordinates >= 0) and contract under
        # the shift.  Unstable: they share its past and contract under its inverse.
        for (u, v), steps, side in (((bracket(x, y), bracket(x, z)), 1, "stable"),
                                    ((bracket(y, x), bracket(z, x)), -1, "unstable")):
            d0 = distance(u, v)
            if d0 > 0.0:
                checks[f"{side}_contraction"] += 1
                ratio = distance(shift(u, steps), shift(v, steps)) / d0
                largest[side] = max(largest[side], ratio)
                if ratio > 0.5 + 1e-15:
                    violations.append(f"trial {trial}: {side} contraction ratio {ratio}")

    return AxiomReport(sample_count, checks, violations, largest["stable"], largest["unstable"])
