"""One zoo of systems, partitions and depths for every property test.

Every ``@given`` input that is a system, a partition or a depth is drawn
here, so each kind means one thing across the suite.  A caller passes its
own bounds (the state count, the largest outcome count, a cap, the
partition and depth kinds it allows) and gets only the kinds those bounds
can hold.

Systems, ``systems(n)``:

- ``dense``: every row a flat Dirichlet draw, so every entry is positive.
- ``sparse``: a random n-cycle plus one jump per row to a random state;
  the jump takes a weight from 0.01 to 0.9, so near-deterministic chains
  occur.
- ``deterministic``: a random permutation with the uniform measure.
- ``periodic``: the states split at random into 2 or 3 groups (period 3
  needs n >= 3); each row is a random law, positive on the whole next group.
- ``tiny``: one state of stationary mass 1e-9 or 1e-13, either as an
  independent source or as a Markov chain whose measure is solved by
  ``make_markov`` (needs n >= 2).

Partitions, ``partitions(n, max_k)``:

- ``unsharp``: every row a flat Dirichlet draw over 2 to ``max_k`` outcomes.
- ``zeros``: unsharp rows with exact zeros.
- ``sharp``: every row a unit vector.
- ``mixing``: every row uniform (totally mixing).
- ``one``: a single outcome.

Depths, ``depths(k, cap)``, where the last depth under a cap is the
deepest N with k^N <= cap, and ``cap.bit_length()`` for k = 1:

- ``inner``: a depth below the last;
- ``last``: the last depth under the cap;
- ``past``: the first depth past it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

import entropy_lab as el

SYSTEM_KINDS = ("dense", "sparse", "deterministic", "periodic", "tiny")
PARTITION_KINDS = ("unsharp", "zeros", "sharp", "mixing", "one")
DEPTH_KINDS = ("inner", "last", "past")
TINY_MASSES = (1e-9, 1e-13)

SEEDS = st.integers(0, 2**32 - 1)


def _periodic(rng: np.random.Generator, n: int, period: int) -> el.StochasticSystem:
    groups = np.array_split(rng.permutation(n), period)
    p = np.zeros((n, n))
    for here, there in zip(groups, groups[1:] + groups[:1]):
        p[np.ix_(here, there)] = rng.dirichlet(np.ones(there.size), size=here.size)
    return el.make_markov(n, p)


def _tiny(rng: np.random.Generator, n: int, mass: float, chain: bool) -> el.StochasticSystem:
    rest = rng.dirichlet(np.ones(n - 1), size=n if chain else None)
    if not chain:
        return el.make_bernoulli(np.concatenate(([mass], (1.0 - mass) * rest)))
    # State 0 leaves to a random law and every other state enters it with
    # weight e, so mu_0 = e / (1 + e) = mass.
    enter = mass / (1.0 - mass)
    p = np.zeros((n, n))
    p[0, 1:] = rest[0]
    p[1:, 0] = enter
    p[1:, 1:] = (1.0 - enter) * rest[1:]
    return el.make_markov(n, p)


@st.composite
def systems(draw, n: int):
    """A chain on exactly n states, of any kind that n states can hold."""
    kind = draw(st.sampled_from(SYSTEM_KINDS if n >= 2 else ("dense", "sparse", "deterministic")))
    rng = np.random.default_rng(draw(SEEDS))
    if kind == "dense":
        return el.make_markov(n, rng.dirichlet(np.ones(n), size=n))
    if kind == "sparse":
        order = rng.permutation(n)
        jump = rng.uniform(0.01, 0.9, size=n)
        p = np.zeros((n, n))
        p[order, np.roll(order, -1)] = 1.0 - jump[order]
        np.add.at(p, (np.arange(n), rng.integers(0, n, size=n)), jump)
        return el.make_markov(n, p)
    if kind == "deterministic":
        return el.make_deterministic(rng.permutation(n), np.full(n, 1.0 / n))
    if kind == "periodic":
        return _periodic(rng, n, draw(st.sampled_from((2, 3) if n >= 3 else (2,))))
    return _tiny(rng, n, draw(st.sampled_from(TINY_MASSES)), draw(st.booleans()))


@st.composite
def partitions(draw, n: int, max_k: int = 6, kinds=PARTITION_KINDS):
    """A partition of n states with at most ``max_k`` outcomes, of a kind in ``kinds``."""
    kind = draw(st.sampled_from([c for c in kinds if max_k >= 2 or c == "one"]))
    if kind == "one":
        return el.PartitionOfUnity(np.ones((n, 1)))
    k = draw(st.integers(2, max_k))
    rng = np.random.default_rng(draw(SEEDS))
    if kind == "sharp":
        return el.PartitionOfUnity(np.eye(k)[rng.integers(0, k, size=n)])
    if kind == "mixing":
        return el.uniform_unsharp(n, k)
    response = rng.dirichlet(np.ones(k), size=n)
    if kind == "zeros":
        response[rng.random((n, k)) < 0.3] = 0.0
        response[np.arange(n), rng.integers(0, k, size=n)] += 0.1
        response /= response.sum(axis=1, keepdims=True)
    return el.PartitionOfUnity(response)


def last_depth(k: int, cap: int) -> int:
    """The deepest N whose k^N words fit under ``cap``; 0 if not even one does."""
    if k == 1:  # one word at every depth: the library bounds the depth itself
        return cap.bit_length()
    depth = 0
    while k ** (depth + 1) <= cap:
        depth += 1
    return depth


def depths(k: int, cap: int, kinds=DEPTH_KINDS):
    """A depth for k outcomes under ``cap``: inner, the last under it, or the first past it."""
    last = last_depth(k, cap)
    drawn = {
        "inner": st.integers(1, last - 1) if last >= 2 else None,
        "last": st.just(last) if last >= 1 else None,
        "past": st.just(last + 1),
    }
    return st.one_of([drawn[kind] for kind in kinds if drawn[kind] is not None])
