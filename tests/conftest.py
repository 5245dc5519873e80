import math

import pytest

from ldplab import Potential, validate_spec

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def golden_lambda(t):
    """Perron root of the golden-mean transfer matrix for ``t * ind1``:
    the larger root of ``lam**2 = lam + exp(t)``."""
    return (1 + math.sqrt(1 + 4 * math.exp(t))) / 2


def golden_rate(alpha):
    """Rate of the same family at ``0 < alpha < 1/2``: the tilt solving
    ``q'(t) = alpha`` has Perron root ``(1 - alpha) / (1 - 2 alpha)``."""
    lam = (1 - alpha) / (1 - 2 * alpha)
    return alpha * math.log(lam * lam - lam) - math.log(lam) + math.log(GOLDEN_RATIO)


@pytest.fixture(scope="session")
def fs2():
    """Full shift on two symbols."""
    return validate_spec([[1, 1], [1, 1]])


@pytest.fixture(scope="session")
def gm():
    """Golden-mean shift: the pair 11 is forbidden."""
    return validate_spec([[1, 1], [1, 0]])


@pytest.fixture(scope="session")
def fs3_underflow():
    """Full 3-shift with the memory-2 potential G(a, b) = (0, -350, -700)[a],
    whose right Perron vector has entries that underflow to 0."""
    fs3 = validate_spec([[1, 1, 1]] * 3)
    G = Potential(2, {(a, b): (0.0, -350.0, -700.0)[a] for a in range(3) for b in range(3)})
    return fs3, G


def bernoulli_potential(spec, p):
    """Memory-1 potential with value log p on symbol 0 and log (1-p) on symbol 1."""
    return Potential(1, {(0,): math.log(p), (1,): math.log(1 - p)})
