"""Monte Carlo sampling of outcome words.

Samples are exchangeable, so the word counts depend only on how many
samples share each (current state, word prefix) pair.  ``sample_words``
therefore keeps groups of samples instead of trajectories.  The start
counts are one multinomial draw over the stationary measure.  At each time
but the last, every occupied group splits by one multinomial over its
response row, and its word code becomes ``code * k + symbol``.  Between
those times every group splits by one multinomial over its transition row,
and the groups that share (next state, code) merge.  The merge sums the
group sizes into a dense array indexed by ``state * k^t + code`` after t
symbols and reads the occupied keys off it in ascending order, the order a
sort would give, without sorting.

The last time is fused with the transition into it.  No state after the
last transition is ever read, only its symbol, and given the current state
x that symbol has the law ``(T f)[x] = sum_y T[x, y] f[y]``, row x of
``evolve(system, f)``.  So at depth N >= 2 the last step splits each group
once over the evolved response, instead of a transition split, a merge and
a response split.  Given the state at time N-2 and the past, each sample's
last symbol is independent with that law, so by the splitting property of
the multinomial the counts still have exactly the law of ``n_samples``
independent trajectories.  The fusion stops at one step on purpose: fusing
more would split over rows of ``refine_afl``, the analytic word law that
sampling exists to check, and the check would become circular.

The cost is O(depth * min(n_samples, n * k^depth)) group splits, against
O(depth * n_samples) draws for trajectory-wise sampling.  No array has one
entry per sample; the largest, the last merge array, has n * k^(depth-2)
entries, 1/k^2 of the n * k^depth elements ``refine_afl`` builds at the
same depth.  So the sampler pays off when n * k^depth is well below
``n_samples``.  Where it is not, it can be slower than drawing
trajectories, but there the reference ``tv_bound`` is near 1.  All draws
come from one generator seeded with ``SeedSequence(seed)``, in a fixed
order: groups are visited sorted by (state, code).  Seeded reruns give the
same counts.
"""

from __future__ import annotations

import numpy as np

from ._errors import ValidationError
from .partitions import DEFAULT_WORD_CAP, PartitionOfUnity, _check_refine_args, evolve
from .systems import StochasticSystem

__all__ = ["sample_words", "empirical_distribution", "tv_distance", "tv_bound"]


def _split(rng, rows: np.ndarray, states: np.ndarray, sizes: np.ndarray):
    """Split each group over the row of its state.

    Returns, for every occupied part, its group index, its column and its size,
    in row-major order.
    """
    parts = rng.multinomial(sizes, rows[states])
    group, column = np.nonzero(parts)
    return group, column, parts[group, column]


def _sum_by(index: np.ndarray, sizes: np.ndarray, length: int) -> np.ndarray:
    """Integer sums of ``sizes`` per index; bincount would sum in floats."""
    sums = np.zeros(length, dtype=np.int64)
    np.add.at(sums, index, sizes)
    return sums


def sample_words(
    system: StochasticSystem,
    f: PartitionOfUnity,
    depth: int,
    n_samples: int,
    seed: int,
    *,
    word_cap: int = DEFAULT_WORD_CAP,
) -> np.ndarray:
    """Sample outcome words of the given depth; returns counts per word code.

    A sample has the law of drawing the start state from the stationary
    measure, an outcome from the current response row at each of ``depth``
    times, and a transition between consecutive times.  The samples are
    drawn together, as groups that share state and word, and the last
    outcome comes from the row of ``evolve(system, f)`` at the state before
    the last transition, so no group ever holds the last state (see the
    module docstring; fusing further would draw from ``refine_afl``, the
    law the samples check).  The merge array has at most n * k^(depth-2)
    int64 entries, 1/k^2 of the n * k^depth elements ``refine_afl`` builds
    at the same depth.
    """
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    if n_samples > np.iinfo(np.int64).max:  # the counts are int64
        raise ValidationError(f"need at most {np.iinfo(np.int64).max} samples, got {n_samples}")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    n_words = _check_refine_args(system, f, depth, word_cap, "would count {n} words, cap is {cap}")
    k = f.n_outcomes
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sizes = rng.multinomial(n_samples, system.stationary)
    states = np.flatnonzero(sizes)
    sizes = sizes[states]
    codes = np.zeros(states.shape[0], dtype=np.int64)
    for step in range(depth - 1):
        # Groups stay sorted by (state, code): appending a symbol keeps that order.
        group, symbols, sizes = _split(rng, f.response, states, sizes)
        codes = codes[group] * k + symbols
        states = states[group]
        if step < depth - 2:
            group, states, sizes = _split(rng, system.transition, states, sizes)
            stride = k ** (step + 1)
            merged = _sum_by(states * stride + codes[group], sizes, system.n_states * stride)
            keys = np.flatnonzero(merged)
            sizes = merged[keys]
            states, codes = np.divmod(keys, stride)
    # From depth 2 on, the last symbol is drawn from the state before the last transition.
    last = f.response if depth == 1 else evolve(system, f).response
    group, symbols, sizes = _split(rng, last, states, sizes)
    codes = codes[group] * k + symbols
    return _sum_by(codes, sizes, n_words)


def empirical_distribution(counts) -> np.ndarray:
    """Normalize word counts to a probability vector."""
    arr = np.asarray(counts, dtype=float)
    total = arr.sum()
    if arr.ndim != 1 or total <= 0 or np.any(arr < 0):
        raise ValidationError("counts must be non-negative with positive total")
    return arr / total


def tv_distance(p, q) -> float:
    """Total variation distance, half the l1 gap."""
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValidationError(f"dimension mismatch: {pa.shape} vs {qa.shape}")
    return 0.5 * float(np.sum(np.abs(pa - qa)))


def tv_bound(n_words: int, n_samples: int) -> float:
    """Reference deviation scale 1.5 sqrt(n_words / n_samples).

    The expected TV distance of an empirical measure is below
    sqrt(n_words / (4 n_samples)); the factor 1.5 gives comfortable
    concentration headroom for a pass/fail reference.
    """
    if n_words < 1 or n_samples < 1:
        raise ValidationError("need positive word and sample counts")
    return 1.5 * float(np.sqrt(n_words / n_samples))
