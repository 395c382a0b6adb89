"""Shared fixtures and seeded corpus builders."""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import entropy_lab as el
from entropy_lab.decompositions import Decomposition, _axis_sums, _marginals
from entropy_lab.entropy import relative_entropy_rows

# One profile for every property test: no deadline, since a draw's run time
# follows the size it draws, and the blob that replays a failing draw.
settings.register_profile("entropy-lab", deadline=None, print_blob=True)
settings.load_profile("entropy-lab")

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(kind: str, name: str) -> str:
    return str(FIXTURE_DIR / kind / name)


def load_fixture(kind: str, name: str) -> dict:
    return json.loads((FIXTURE_DIR / kind / name).read_text())


@contextlib.contextmanager
def int_str_limit(digits: int):
    """Set Python's int-string limit to ``digits`` (0 for none) inside the block."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def random_system(rng: np.random.Generator, n: int) -> el.StochasticSystem:
    """Random irreducible chain: dirichlet rows are strictly positive a.s."""
    return el.make_markov(n, rng.dirichlet(np.ones(n), size=n))


def random_partition(rng: np.random.Generator, n: int, k: int) -> el.PartitionOfUnity:
    return el.PartitionOfUnity(rng.dirichlet(np.ones(k), size=n))


def random_prob(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n))


def marginal(dec: Decomposition, axis: int) -> Decomposition:
    """Marginal decomposition of one index axis, from the code ``cnt_functional`` runs."""
    w, sizes = dec.weights, dec.index_sizes
    return Decomposition(*_marginals(w, dec.components, sizes, _axis_sums(w, sizes))[axis])


def kl(p, q) -> float:
    """Relative entropy of p against q by the library's row form ``relative_entropy_rows``."""
    return float(relative_entropy_rows(np.array([p], dtype=float), np.asarray(q, dtype=float))[0])


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d))
    m = a @ a.T + 1e-12 * np.eye(d)
    return m / np.trace(m)


@pytest.fixture
def two_state_chain() -> el.StochasticSystem:
    return el.make_markov(
        ("a", "b"), [[0.9, 0.1], [0.2, 0.8]], [2.0 / 3.0, 1.0 / 3.0]
    )


@pytest.fixture
def blur_partition() -> el.PartitionOfUnity:
    return el.PartitionOfUnity([[0.8, 0.2], [0.3, 0.7]], ("L", "R"))


@pytest.fixture
def coin_extremal() -> el.PartitionOfUnity:
    return el.sharp_partition([[0], [1]], 2)


@pytest.fixture
def fair_coin() -> el.StochasticSystem:
    return el.make_bernoulli([0.5, 0.5])


@pytest.fixture
def biased_coin() -> el.StochasticSystem:
    return el.make_bernoulli([0.75, 0.25])


@pytest.fixture
def three_cycle() -> el.StochasticSystem:
    return el.make_deterministic([1, 2, 0], [1 / 3, 1 / 3, 1 / 3])


@pytest.fixture
def doubly_stochastic() -> el.StochasticSystem:
    return el.make_markov(3, [[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]])
