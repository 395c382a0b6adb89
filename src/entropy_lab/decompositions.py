"""Convex decompositions of a probability measure.

A decomposition writes mu as sum_a weights[a] * components[a], each
component itself a probability vector.  The component index may be a
product of finite index sets: the optional ``index_sizes`` field records
that shape and defaults to one index over all components.  The marginals of
a multi-index decomposition are one-index decompositions, and the entropy
defect measures how far the weight tensor is from a product of its
marginals.

Every decomposition built from a response matrix g is the one g induces,
weights mu(g_a) and components mu * g_a / mu(g_a), computed by ``_induced``.
Pruning is the policy of the one-index builders and the marginals: they drop
indices of weight below ``PRUNE_TOL``, which add nothing to any entropy (eta
is continuous at 0) and would force divisions by ~0 when normalizing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._errors import CapExceededError, ValidationError
from .entropy import SUM_TOL, _eta, as_prob_vector, as_stochastic_matrix

PRUNE_TOL = 1e-15
DEFAULT_ENUMERATION_CAP = 10**6

__all__ = [
    "PRUNE_TOL",
    "DEFAULT_ENUMERATION_CAP",
    "Decomposition",
    "trivial_decomposition",
    "from_densities",
    "to_densities",
    "multi_marginal",
    "extremal_decompositions",
    "entropy_defect",
]


@dataclass(eq=False)
class Decomposition:
    """Weights and component measures of a finite convex decomposition.

    ``index_sizes`` shapes the component index as a product of index sets,
    flat in C order (last index fastest); it defaults to
    ``(n_components,)``, a one-index decomposition.
    """

    weights: np.ndarray
    components: np.ndarray
    index_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        w = as_prob_vector(self.weights, "weights")
        c = as_stochastic_matrix(self.components, "component")
        if c.shape[0] != w.shape[0]:
            raise ValidationError(
                f"components must be ({w.shape[0]}, n_states), got {c.shape}"
            )
        sizes = (w.shape[0],) if self.index_sizes is None else tuple(map(int, self.index_sizes))
        if not sizes or any(s < 1 for s in sizes):
            raise ValidationError(f"index sizes must be positive, got {sizes}")
        if math.prod(sizes) != w.shape[0]:
            raise ValidationError(
                f"index sizes {sizes} need {math.prod(sizes)} weights, got {w.shape[0]}"
            )
        w.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", c)
        object.__setattr__(self, "index_sizes", sizes)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def n_states(self) -> int:
        return self.components.shape[1]

    @property
    def arity(self) -> int:
        return len(self.index_sizes)

    def mixture(self) -> np.ndarray:
        """The recombined measure sum_a weights[a] * components[a]."""
        return self.weights @ self.components

    def check_recombines(self, mu) -> np.ndarray:
        """Return mu checked by ``as_prob_vector``, tiny negatives clamped to 0.

        Raises unless the decomposition reassembles mu within SUM_TOL.
        """
        target = as_prob_vector(mu, "mu")
        if target.shape[0] != self.n_states:
            raise ValidationError("measure dimension does not match components")
        gap = float(np.max(np.abs(self.mixture() - target)))
        if gap > SUM_TOL:
            raise ValidationError(
                f"decomposition recombines to the wrong measure: max gap {gap:.3e} > {SUM_TOL:.0e}"
            )
        return target


def trivial_decomposition(mu, arity: int = 1) -> Decomposition:
    """Single-component decomposition mu = 1 * mu with all index sizes 1."""
    if arity < 1:
        raise ValidationError("arity must be >= 1")
    muv = as_prob_vector(mu, "mu")
    return Decomposition(np.ones(1), muv[None, :], (1,) * arity)


def _induced(muv: np.ndarray, response: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights mu(g_a) and components mu * g_a / mu(g_a) that g induces.

    g is a response matrix (states x indices) and muv a checked measure.
    The weights are not normalized; an index of zero weight keeps muv as
    its placeholder component.
    """
    weights = muv @ response
    components = np.tile(muv, (weights.shape[0], 1))
    occupied = weights > 0.0
    components[occupied] = (muv[None, :] * response.T[occupied]) / weights[occupied, None]
    return weights, components


def _pruned(weights: np.ndarray, components: np.ndarray) -> Decomposition:
    """One-index decomposition of the indices with weight above PRUNE_TOL."""
    keep = np.flatnonzero(weights > PRUNE_TOL)
    if keep.size == 0:
        raise ValidationError("every outcome has zero mass under mu")
    kept = weights[keep]
    return Decomposition(kept / kept.sum(), components[keep])


def from_densities(mu, f) -> Decomposition:
    """Decomposition induced by a partition of unity.

    Component a is mu conditioned on response column a:
    weights[a] = mu(f_a), components[a] = mu * f_a / mu(f_a).
    Outcomes with weight below PRUNE_TOL are dropped.
    """
    from .partitions import PartitionOfUnity  # local import, avoids a cycle

    if not isinstance(f, PartitionOfUnity):
        f = PartitionOfUnity(f)
    muv = as_prob_vector(mu, "mu")
    if muv.shape[0] != f.n_states:
        raise ValidationError("measure and partition sizes differ")
    return _pruned(*_induced(muv, f.response))


def to_densities(decomposition: Decomposition, mu):
    """Inverse of from_densities where mu is strictly positive.

    Returns the partition of unity with columns
    g_a(x) = weights[a] * components[a, x] / mu(x).
    """
    from .partitions import PartitionOfUnity

    muv = decomposition.check_recombines(mu)
    if np.any(muv <= 0.0):
        raise ValidationError("densities require a strictly positive measure")
    response = (decomposition.weights[:, None] * decomposition.components / muv[None, :]).T
    return PartitionOfUnity(response)


def _marginal(decomposition: Decomposition, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights and components of ``multi_marginal`` for an axis in range."""
    sizes, w = decomposition.index_sizes, decomposition.weights
    wc = (w[:, None] * decomposition.components).reshape(*sizes, decomposition.n_states)
    other = tuple(i for i in range(len(sizes)) if i != axis)
    marg_w = w.reshape(sizes).sum(axis=other)
    keep = np.flatnonzero(marg_w > PRUNE_TOL)
    if keep.size == 0:
        raise ValidationError("marginal lost all its mass")
    marg_w = marg_w[keep]
    return marg_w / marg_w.sum(), wc.sum(axis=other)[keep] / marg_w[:, None]


def multi_marginal(decomposition: Decomposition, axis: int) -> Decomposition:
    """Marginal decomposition along one index axis (0-based).

    Marginal weights sum the weight tensor over all other axes; marginal
    components are the weight-averaged components, renormalized.  Indices
    whose marginal weight falls below PRUNE_TOL are dropped.
    """
    if not 0 <= axis < decomposition.arity:
        raise ValidationError(f"axis {axis} outside range(0, {decomposition.arity})")
    return Decomposition(*_marginal(decomposition, axis))


def entropy_defect(decomposition: Decomposition) -> float:
    """Shannon entropy gap sum_n S(marginal weights) - S(joint weights).

    Zero exactly when the weight tensor is a product measure; the joint
    entropy never exceeds the sum of its marginals, so the defect is >= 0
    up to floating point noise.  The weights were checked at construction,
    so the entropies sum the unchecked ``_eta`` directly.
    """
    sizes = decomposition.index_sizes
    w = decomposition.weights.reshape(sizes)
    total = 0.0
    for axis in range(len(sizes)):
        other = tuple(i for i in range(len(sizes)) if i != axis)
        total += float(np.sum(_eta(w.sum(axis=other))))
    return total - float(np.sum(_eta(decomposition.weights)))


def extremal_decompositions(mu, n_outcomes: int, *, cap: int = DEFAULT_ENUMERATION_CAP):
    """Iterate the decompositions induced by all maps states -> outcomes.

    Each map assigns every state one outcome; the decomposition restricts mu
    to the level sets.  These are exactly the extreme points among the
    decompositions coarser than the point decomposition.  Yields
    ``(assignment, Decomposition)`` pairs; empty level sets are pruned.
    Raises CapExceededError if n_outcomes ** n_states exceeds ``cap``.
    """
    muv = as_prob_vector(mu, "mu")
    n = muv.shape[0]
    if n_outcomes < 1:
        raise ValidationError("need at least one outcome")
    total = n_outcomes**n
    if total > cap:
        raise CapExceededError(
            f"extremal enumeration would visit {total} maps, cap is {cap}"
        )
    indicators = np.eye(n_outcomes)
    for assignment in itertools.product(range(n_outcomes), repeat=n):
        yield assignment, _pruned(*_induced(muv, indicators[list(assignment)]))
