"""Finite-state stochastic dynamical systems.

A system bundles state labels, a row-stochastic transition matrix P
(``transition[x, y]`` is the probability of jumping from x to y) and a
strictly positive stationary measure.  The dual action on observables maps
f to P @ f, a positive unital map that preserves the stationary measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import ValidationError
from .entropy import SUM_TOL, as_prob_vector, as_stochastic_matrix

STATIONARY_TOL = 1e-10

__all__ = [
    "StochasticSystem",
    "stationary_measure",
    "make_markov",
    "make_bernoulli",
    "make_deterministic",
]


@dataclass(frozen=True, eq=False)
class StochasticSystem:
    """Immutable (states, transition, stationary) triple.

    Rows of ``transition`` are normalized to sum to 1 exactly and
    ``stationary`` to total 1 exactly, so unitality and measure invariance
    hold to machine precision, not just to validation tolerance.
    """

    states: tuple[str, ...]
    transition: np.ndarray
    stationary: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, label: str) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise ValidationError(f"unknown state label {label!r}") from None


def _state_labels(states, n: int) -> tuple[str, ...]:
    if states is None:
        return tuple(f"s{i}" for i in range(n))
    if isinstance(states, int):
        if states != n:
            raise ValidationError(f"state count {states} does not match matrix size {n}")
        return tuple(f"s{i}" for i in range(n))
    labels = tuple(str(s) for s in states)
    if len(labels) != n:
        raise ValidationError(f"{len(labels)} labels for {n} states")
    if len(set(labels)) != len(labels):
        raise ValidationError("state labels must be distinct")
    return labels


def stationary_measure(transition) -> np.ndarray:
    """Stationary probability vector of a row-stochastic matrix.

    A chain is accepted exactly when it is irreducible, periodic or not:
    every state must reach every state along positive entries of P, which
    is read from the support of P alone.  A reducible chain raises; supply
    its intended measure explicitly.

    Solves (P^T - I) mu = 0 with its last equation replaced by sum(mu) = 1,
    which has one strictly positive solution for an irreducible chain.
    Masses far below 1e-12 are kept as solved.  A solved entry at or below 0
    means the mass lies below what the solve resolves (around 1e-16) and
    raises, asking for the measure.  The result is accepted only if
    |mu P - mu| <= 1e-10.
    """
    p = as_stochastic_matrix(transition, "transition")
    n = p.shape[0]
    if p.shape[1] != n:
        raise ValidationError(f"transition must be square, got {p.shape}")
    # After s squarings, reach[x, y] says whether y is reachable in at most 2^s steps.
    reach = ((p > 0.0) | np.eye(n, dtype=bool)).astype(float)
    for _ in range((n - 1).bit_length()):
        reach = (reach @ reach > 0.0).astype(float)
    if not reach.all():
        raise ValidationError(
            "some state cannot reach another; the chain is reducible, "
            "pass the intended measure explicitly"
        )
    unresolved = (
        "a stationary mass is below what the solve resolves; "
        "pass the intended measure explicitly"
    )
    system = p.T - np.eye(n)
    system[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        mu = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        raise ValidationError(unresolved) from None
    np.clip(mu, 0.0, None, out=mu)
    mu /= mu.sum()
    if not np.all(mu > 0.0):  # also false for the NaN of an all-zero solve
        raise ValidationError(unresolved)
    residual = float(np.max(np.abs(mu @ p - mu)))
    if residual > STATIONARY_TOL:
        raise ValidationError(f"stationary residual {residual:.3e} exceeds {STATIONARY_TOL:.0e}")
    return mu


def make_markov(states, transition, stationary=None) -> StochasticSystem:
    """Build a system from a transition matrix and optional stationary measure.

    Parameters
    ----------
    states:
        Sequence of distinct labels, an integer state count (labels are then
        generated), or None.
    transition:
        Square row-stochastic matrix, rows summing to 1 within 1e-9.
    stationary:
        Probability vector with strictly positive entries, invariant under
        the transition within 1e-9.  If omitted, it is solved for directly
        by ``stationary_measure``, which accepts any irreducible chain,
        periodic ones and ones with stationary masses far below 1e-12
        included; only a mass below what the solve resolves (around
        1e-16) needs the measure supplied.
    """
    p = as_stochastic_matrix(transition, "transition")
    n = p.shape[0]
    if p.shape[1] != n:
        raise ValidationError(f"transition must be square, got {p.shape}")
    labels = _state_labels(states, n)
    # Normalize rows exactly so the dual action P @ f is unital to machine precision.
    p = p / p.sum(axis=1, keepdims=True)
    if stationary is None:
        mu = stationary_measure(p)
    else:
        mu = as_prob_vector(stationary, "stationary")
        if mu.shape[0] != n:
            raise ValidationError(f"stationary has {mu.shape[0]} entries for {n} states")
        residual = float(np.max(np.abs(mu @ p - mu)))
        if residual > SUM_TOL:
            raise ValidationError(
                f"measure is not invariant: max |mu P - mu| = {residual:.3e} > {SUM_TOL:.0e}"
            )
        # A solved measure is strictly positive already (stationary_measure raises otherwise).
        if np.any(mu <= 0.0):
            dead = [labels[i] for i in np.flatnonzero(mu <= 0.0)]
            raise ValidationError(f"states with zero stationary mass are rejected: {dead}")
    # Kept on the solved path too: stationary_measure has divided by the sum
    # once, but dividing again still moves an entry by an ulp on about 4 % of
    # random dense chains on 2-8 states, so dropping it would change outputs.
    mu = mu / mu.sum()
    p.setflags(write=False)
    mu.setflags(write=False)
    return StochasticSystem(states=labels, transition=p, stationary=mu)


def make_bernoulli(probabilities, states=None) -> StochasticSystem:
    """Independent repetition of one fixed distribution: every row equals p."""
    p = as_prob_vector(probabilities, "probabilities")
    if np.any(p <= 0.0):
        raise ValidationError("independent source requires strictly positive probabilities")
    transition = np.tile(p, (p.shape[0], 1))
    return make_markov(states, transition, p)


def make_deterministic(mapping, stationary, states=None) -> StochasticSystem:
    """Deterministic dynamics from a state map.

    ``mapping[x]`` is the index the point x moves to.  The supplied measure
    must be invariant under the map within 1e-9.
    """
    idx = np.asarray(mapping, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ValidationError("mapping must be a non-empty index sequence")
    n = idx.size
    if np.any(idx < 0) or np.any(idx >= n):
        raise ValidationError("mapping has image indices outside the state range")
    transition = np.zeros((n, n))
    transition[np.arange(n), idx] = 1.0
    return make_markov(states, transition, stationary)
