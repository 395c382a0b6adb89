"""Monte Carlo sampling of outcome words.

Samples state trajectories from the stationary chain and outcome symbols
from the response rows, in independent blocks of at most ``BLOCK_SIZE``
draws.  Each block gets its own child generator spawned from one seed
sequence, so results are bit-reproducible.

Each draw is an inverse CDF: the picked index is the number of cumulative
weights of the current row that lie below a uniform u.  The cumulative
tables are kept as threshold columns, one per index but the last (that one
is 1.0, and u < 1 never exceeds it), so one sample-step costs about
n + k - 2 gathers and compares over the block and never builds an array
wider than the block.  A block draws ``rng.random(m)`` once for the start
state and then, at each time, once for the symbol and (except after the
last symbol) once for the transition; that fixed draw order is what keeps
the counts for a given seed the same.
"""

from __future__ import annotations

import numpy as np

from ._errors import ValidationError
from .partitions import DEFAULT_WORD_CAP, PartitionOfUnity, _check_refine_args
from .systems import StochasticSystem

BLOCK_SIZE = 1 << 16

__all__ = ["BLOCK_SIZE", "sample_words", "empirical_distribution", "tv_distance", "tv_bound"]


def _threshold_columns(matrix: np.ndarray) -> np.ndarray:
    """Cumulative row weights, one contiguous row per column but the last."""
    return np.cumsum(matrix, axis=1).T[:-1].copy()


def _pick(columns: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse CDF per sample: how many thresholds of its row lie below u.

    ``columns[j][rows[i]]`` is the cumulative weight of indices 0..j in row
    ``rows[i]``; the count is the smallest index whose cumulative weight
    exceeds ``u[i]``.  Every temporary has the length of ``u``.
    """
    picked = np.zeros(u.shape[0], dtype=np.intp)
    for column in columns:
        picked += column.take(rows) < u
    return picked


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

    A sample is produced by drawing the start state from the stationary
    measure, an outcome from the current response row at each of ``depth``
    times, and a transition between consecutive times.
    """
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    n_words = _check_refine_args(system, f, depth, word_cap, "would count {n} words, cap is {cap}")
    k = f.n_outcomes
    cum_mu = np.cumsum(system.stationary)
    cum_mu[-1] = 1.0
    cols_p = _threshold_columns(system.transition)
    cols_f = _threshold_columns(f.response)
    counts = np.zeros(n_words, dtype=np.int64)
    n_blocks = (n_samples + BLOCK_SIZE - 1) // BLOCK_SIZE
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    remaining = n_samples
    for child in children:
        rng = np.random.default_rng(child)
        m = min(BLOCK_SIZE, remaining)
        remaining -= m
        x = np.searchsorted(cum_mu, rng.random(m), side="right")
        codes = np.zeros(m, dtype=np.int64)
        for step in range(depth):
            symbols = _pick(cols_f, x, rng.random(m))
            codes = codes * k + symbols
            if step < depth - 1:
                x = _pick(cols_p, x, rng.random(m))
        counts += np.bincount(codes, minlength=n_words)
    return counts


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
