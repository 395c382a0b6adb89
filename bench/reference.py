"""Reference values the benchmark checks command output against.

Nothing here calls into ``entropy_lab``.  The word law runs the forward
(path-sum) recursion from the initial measure, where the library nests
backwards from the last symbol; the ``mak`` entropy is read off the n x n
Gram side ``D^1/2 R R^T D^1/2`` instead of the k^N x k^N Gram state the
library diagonalizes.  All values are in nats.
"""

from __future__ import annotations

import math

import numpy as np


def stationary(transition: np.ndarray) -> np.ndarray:
    """Invariant probability vector of an irreducible chain, by a linear solve."""
    n = transition.shape[0]
    system = transition.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def eta_sum(values) -> float:
    """sum -v log v over the positive entries."""
    v = np.asarray(values, dtype=float).ravel()
    v = v[v > 0.0]
    return float(-np.sum(v * np.log(v)))


def path_weights(initial: np.ndarray, transition: np.ndarray, response: np.ndarray, depth: int):
    """Forward recursion over outcome words, one row per initial measure.

    ``out[i, code(w)] = sum over state paths x_0..x_{N-1} of
    initial[i, x_0] * prod_t response[x_t, w_t] * prod_t P[x_t, x_{t+1}]``,
    with words coded big-endian (the time-0 symbol most significant).
    """
    # alpha[word, i, x]: weight of the word prefix ending in state x.
    alpha = response.T[:, None, :] * initial[None, :, :]
    for _ in range(depth - 1):
        moved = alpha @ transition
        alpha = (moved[:, None, :, :] * response.T[None, :, None, :]).reshape(
            -1, initial.shape[0], transition.shape[0]
        )
    return alpha.sum(axis=2).T


def word_law(mu, transition, response, depth) -> np.ndarray:
    """Stationary probability of every depth-N outcome word."""
    return path_weights(mu[None, :], transition, response, depth)[0]


def kow(mu, transition, response, depth) -> float:
    """Shannon entropy of the depth-N word law."""
    return eta_sum(word_law(mu, transition, response, depth))


def mak(mu, transition, response, depth) -> float:
    """Von Neumann entropy of the depth-N Gram state, from its n x n side."""
    n = transition.shape[0]
    elements = path_weights(np.eye(n), transition, response, depth)
    side = np.sqrt(mu)[:, None] * np.sqrt(elements)
    gram = side @ side.T
    return eta_sum(np.clip(np.linalg.eigvalsh(gram), 0.0, 1.0))


def hud(mu, response) -> float:
    """One-time closed form S(mu o f) - sum_x mu_x S(f(x))."""
    return eta_sum(mu @ response) - float(
        sum(m * eta_sum(row) for m, row in zip(mu, response))
    )


def markov_rate(mu, transition) -> float:
    """Entropy rate sum_x mu_x sum_y eta(P_xy) of the stationary chain."""
    return float(sum(m * eta_sum(row) for m, row in zip(mu, transition)))


def bell(n: int) -> int:
    """Number of set partitions of an n-element set."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def tv_bound(n_words: int, n_samples: int) -> float:
    """Pass/fail scale 1.5 sqrt(words / samples) for an empirical word law."""
    return 1.5 * math.sqrt(n_words / n_samples)
