"""Benchmark systems: the checked-in specs and seeded random primitive systems.

A :class:`System` pairs the library objects (spec, potentials) with the
plain arrays the oracles need (recoded states, adjacency, potential values),
built here without calling the library's recoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from ldplab import Potential, ValidationError


@dataclass(eq=False)
class System:
    name: str
    spec: object                       # ldplab.SubshiftSpec
    pots: dict                         # name -> ldplab.Potential
    block: int                         # recoding block of the potentials
    states: list = field(repr=False)   # admissible block-words, library order
    adjacency: np.ndarray = field(repr=False)
    attempts: int = 1

    def values(self, pot: Potential) -> np.ndarray:
        """The potential on every recoded state (its window is the state prefix)."""
        return np.array([pot.table[w[:pot.memory]] for w in self.states], dtype=np.float64)

    def index(self, word) -> int:
        return self.states.index(tuple(word))

    def record(self) -> dict:
        """What the run output records about the system."""
        return {"name": self.name, "m": int(self.spec.alphabet_size), "memory": self.block,
                "states": len(self.states), "edges": int(self.adjacency.sum()),
                "attempts": self.attempts}


def block_words(A: np.ndarray, k: int) -> list[tuple[int, ...]]:
    """Admissible k-words of the 0/1 matrix A, in lexicographic order."""
    words = [(a,) for a in range(A.shape[0])]
    for _ in range(k - 1):
        words = [w + (int(b),) for w in words for b in np.flatnonzero(A[w[-1]])]
    return words


def block_adjacency(A: np.ndarray, words: list) -> np.ndarray:
    """State graph of the k-word presentation: w -> w' iff they overlap and chain."""
    index = {w: i for i, w in enumerate(words)}
    adj = np.zeros((len(words), len(words)), dtype=np.uint8)
    for i, w in enumerate(words):
        for b in np.flatnonzero(A[w[-1]]):
            adj[i, index[w[1:] + (int(b),)]] = 1
    return adj


def word_count(A: np.ndarray, k: int) -> int:
    """Number of admissible k-words: the entry sum of A^(k-1)."""
    u = np.ones(A.shape[0], dtype=np.int64)
    for _ in range(k - 1):
        u = A.T.astype(np.int64) @ u
    return int(u.sum())


def from_spec(name: str, spec, pots: dict, block: int) -> System:
    A = np.asarray(spec.transitions, dtype=np.int64)
    words = block_words(A, block)
    return System(name, spec, pots, block, words, block_adjacency(A, words))


def draw_random(rng: np.random.Generator, name: str, m: int, k: int, density: float,
                states_lo: int, states_hi: int, validate, values) -> System:
    """Draw m-symbol 0/1 matrices until one is primitive with states in [lo, hi].

    ``validate`` is ``ldplab.validate_spec`` (wrapped by the caller's tracer).
    ``values(rng, words)`` returns one table per potential name; each becomes
    a memory-k potential on the admissible k-words.
    """
    for attempt in range(1, 100_001):
        A = (rng.random((m, m)) < density).astype(np.int64)
        if not states_lo <= word_count(A, k) <= states_hi:
            continue
        try:
            spec = validate(A)
        except ValidationError:  # not primitive, or a stranded symbol
            continue
        words = block_words(A, k)
        pots = {}
        for pname, table in values(rng, words).items():
            pots[pname] = Potential(k, table)
            pots[pname].validate(spec)
        return System(name, spec, pots, k, words, block_adjacency(A, words), attempts=attempt)
    raise RuntimeError(f"no primitive {m}-symbol system with {states_lo}..{states_hi} states "
                       f"at density {density}")


def normal_tables(scale: float):
    """Value generator for potentials "G" and "phi": independent N(0, scale^2)
    entries per word."""
    def values(rng, words):
        return {pname: {w: float(scale * rng.standard_normal()) for w in words} for pname in ("G", "phi")}
    return values


def write_spec(path: str, system: System) -> None:
    """Write a system description file the CLI can load."""
    m = system.spec.alphabet_size
    names = [str(a) for a in range(m)]
    sep = "." if m > 10 else ""

    def key(w):
        return sep.join(names[a] for a in w)

    body = {
        "alphabet": names,
        "transitions": np.asarray(system.spec.transitions).astype(int).tolist(),
        "potentials": {pname: {"memory": pot.memory,
                               "table": {key(w): v for w, v in pot.table.items()}}
                       for pname, pot in system.pots.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh)


def density_for(m: int, k: int, states: float) -> float:
    """Edge density p with m * (m p)^(k-1) ~ states, clipped to (0.05, 0.95)."""
    p = (states / m) ** (1.0 / (k - 1)) / m if k > 1 else 0.9
    return float(min(0.95, max(0.05, p)))

