"""Convex decompositions of a probability measure, and the arithmetic of their functional.

A decomposition writes mu as sum_a weights[a] * components[a], each
component itself a probability vector.  The component index may be a
product of finite index sets: the optional ``index_sizes`` field records
that shape and defaults to one index over all components.  The marginals of
a multi-index decomposition are one-index decompositions, and the entropy
defect measures how far the weight tensor is from a product of its
marginals.

Every decomposition built from a response matrix g is the one g induces,
weights mu(g_a) and components mu * g_a / mu(g_a), built for a stack of g
and checked once by ``_induced_stack``; ``_identifications`` builds map
tuples' decompositions through it.  Each quantity has one implementation:
``_information`` the information an index carries about an outcome, checked
in two forms (``dynamical.hud_functional`` and each marginal of ``_cnt_value``
call it), and ``_stack_terms`` the marginals and the entropy defect.  Those
two depend on the decomposition alone, not on mu or a partition, so they are
computed once per checked stack, for all its rows together, and each
``Decomposition`` carries its row (a public one is a stack of one); a
``cnt_functional`` call then pays only for the information terms.  Marginals
drop indices of weight below ``PRUNE_TOL``, which add nothing to any entropy
(eta is continuous at 0) and would force divisions by ~0.

Marginals repeat across an identification scan.  The time-0 marginal of the
decomposition of a map pair (a, b) is induced by a alone and the time-1
marginal by b alone, so the n^(2n) pairs meet about n^n distinct marginals
per time (27 against 729 pairs at n = 3).  While ``dynamical.cnt_search``
scans that family it opens a memo in ``_MARGINALS``, keyed by the bytes of
every input of ``_information``: the marginal weights, the marginal outcome
rows with their outcome count, and the base law mu @ matrix.  A distinct
marginal then goes through both information forms and their cross-check
once, and every repeat gets the float the same bytes gave.  Weight sums of
a map's marginal can differ by an ulp with the other map, so a few more keys
than 2 n^n occur; the memo stores at most 2 n^n + 2 and computes the rest
unstored.  Random trials and direct ``cnt_functional`` calls run unmemoized.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from ._errors import InequalityViolationError, ValidationError
from .entropy import (
    MI_FORM_TOL,
    SUM_TOL,
    _eta,
    as_prob_vector,
    as_stochastic_matrix,
    relative_entropy_rows,
)

PRUNE_TOL = 1e-15
# (entries, capacity) of the marginal memo while ``dynamical.cnt_search`` scans its
# identification family, else None; see ``_marginal_information``.
_MARGINALS: ContextVar[tuple[dict, int] | None] = ContextVar("marginals", default=None)

__all__ = [
    "PRUNE_TOL",
    "Decomposition",
    "trivial_decomposition",
    "entropy_defect",
]


@dataclass(eq=False, frozen=True)
class Decomposition:
    """Weights and component measures of a finite convex decomposition.

    ``index_sizes`` shapes the component index as a product of index sets,
    flat in C order (last index fastest); it defaults to one index over all
    components.  Construction also computes the decomposition's marginals and
    entropy defect as a stack of one: ``_terms`` is the pair (stack terms, row)
    that ``_row_terms`` reads (see ``_stack_terms``).  The fields are frozen, so
    those terms always belong to the weights and components beside them.
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
        sizes = _index_sizes(self.index_sizes, w.shape[0])
        w.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", c)
        object.__setattr__(self, "index_sizes", sizes)
        object.__setattr__(self, "_terms", (_stack_terms(w[None], c[None], sizes), 0))

    @classmethod
    def _wrap(cls, weights: np.ndarray, components: np.ndarray, sizes: tuple[int, ...], terms):
        """Decomposition of read-only arrays the caller checked, and its ``_terms``."""
        decomposition = object.__new__(cls)
        object.__setattr__(decomposition, "weights", weights)
        object.__setattr__(decomposition, "components", components)
        object.__setattr__(decomposition, "index_sizes", sizes)
        object.__setattr__(decomposition, "_terms", terms)
        return decomposition

    @property
    def n_states(self) -> int:
        return self.components.shape[1]

    @property
    def arity(self) -> int:
        return len(self.index_sizes)

    def check_recombines(self, mu) -> np.ndarray:
        """Return mu checked by ``as_prob_vector``, tiny negatives clamped to 0.

        Raises unless the recombined measure sum_a weights[a] * components[a]
        reassembles mu within SUM_TOL.
        """
        target = as_prob_vector(mu, "mu")
        if target.shape[0] != self.n_states:
            raise ValidationError("measure dimension does not match components")
        gap = float(np.abs(self.weights @ self.components - target).max())
        if gap > SUM_TOL:
            raise ValidationError(
                f"decomposition recombines to the wrong measure: max gap {gap:.3e} > {SUM_TOL:.0e}"
            )
        return target


def _index_sizes(index_sizes, n_components: int) -> tuple[int, ...]:
    """Checked index shape of ``n_components`` components; None means one index."""
    sizes = (n_components,) if index_sizes is None else tuple(map(int, index_sizes))
    if not sizes or any(s < 1 for s in sizes):
        raise ValidationError(f"index sizes must be positive, got {sizes}")
    if math.prod(sizes) != n_components:
        raise ValidationError(
            f"index sizes {sizes} need {math.prod(sizes)} weights, got {n_components}"
        )
    return sizes


def _checked_stack(weights, components, index_sizes) -> list[Decomposition]:
    """One read-only Decomposition per row of a stack, all checked at once.

    ``weights`` is (m, n_components) and ``components`` is (m, n_components,
    n_states).  Every weight row and every component row goes through
    ``as_stochastic_matrix``, the row check ``Decomposition`` applies to
    each of its rows, and the index sizes are checked once; so the stack is
    accepted exactly when each ``Decomposition(weights[i], components[i],
    index_sizes)`` would be.  The rows are then wrapped unchecked, each
    with its row of ``_stack_terms``, computed for the whole stack at once.
    """
    w = as_stochastic_matrix(weights, "weights")
    c = np.asarray(components, dtype=float)
    if c.ndim != 3 or c.shape[:2] != w.shape:
        raise ValidationError(f"components must be {w.shape} x n_states, got {c.shape}")
    c = as_stochastic_matrix(c.reshape(-1, c.shape[2]), "component").reshape(c.shape)
    sizes = _index_sizes(index_sizes, w.shape[1])
    w.setflags(write=False)
    c.setflags(write=False)
    stack = _stack_terms(w, c, sizes)
    return [
        Decomposition._wrap(w_row, c_rows, sizes, (stack, row))
        for row, (w_row, c_rows) in enumerate(zip(w, c))
    ]


def trivial_decomposition(mu, arity: int = 1) -> Decomposition:
    """Single-component decomposition mu = 1 * mu with all index sizes 1."""
    if arity < 1:
        raise ValidationError("arity must be >= 1")
    muv = as_prob_vector(mu, "mu")
    return Decomposition(np.ones(1), muv[None, :], (1,) * arity)


def _induced_stack(muv: np.ndarray, responses: np.ndarray, sizes) -> list[Decomposition]:
    """The decompositions that a stack of response matrices (m, states, prod(sizes)) induce.

    Row i has weights mu(g_a), normalized per row, and components mu * g_a / mu(g_a), its
    multi-index flat in C order; a zero-weight index carries muv as its placeholder component.
    Each matrix gives the same floats as it would alone, and the stack is checked once.
    """
    weights = muv @ responses
    components = np.broadcast_to(muv, (*weights.shape, muv.shape[0])).copy()
    occupied = weights > 0.0
    components[occupied] = (muv * responses.swapaxes(-1, -2)[occupied]) / weights[occupied, None]
    return _checked_stack(weights / weights.sum(axis=1, keepdims=True), components, sizes)


def _identifications(muv: np.ndarray, maps, sizes) -> list[Decomposition]:
    """Decompositions that a stack of map tuples (m, time indices, states) induces."""
    codes = np.ravel_multi_index(tuple(np.moveaxis(maps, 1, 0)), sizes)
    return _induced_stack(muv, np.eye(math.prod(sizes))[codes], sizes)


def _pruned_marginals(sums: np.ndarray, summed: np.ndarray) -> tuple:
    """One axis' marginal decompositions of every row of a stack, row after row.

    ``sums`` (m, size) holds each row's weight sums over the axis' indices and
    ``summed`` (m, size, states) their summed products weights * components.
    The indices whose sum is above PRUNE_TOL are kept, in order: their sums,
    renormalized, are the marginal weights, and their summed products divided
    by the sums are the components.  Returns the weights and the components of
    all rows, row after row, and the row bounds: row i's marginal is the block
    ``bounds[i]:bounds[i + 1]`` of both.  Each row is renormalized by the sum of
    its kept sums alone, taken for all rows that keep as many indices as one
    block, so it is the float the row's own sum gives.
    """
    keep = sums > PRUNE_TOL
    counts = keep.sum(axis=1)
    if not counts.all():
        raise ValidationError("marginal lost all its mass")
    bounds = np.concatenate(([0], np.cumsum(counts)))
    kept = sums[keep]
    totals = np.empty(counts.shape)
    for count in set(counts.tolist()):
        rows = np.flatnonzero(counts == count)
        totals[rows] = kept[bounds[rows, None] + np.arange(count)].sum(axis=1)
    return kept / np.repeat(totals, counts), summed[keep] / kept[:, None], bounds.tolist()


def _stack_terms(weights: np.ndarray, components: np.ndarray, sizes: tuple[int, ...]) -> tuple:
    """The terms no partition enters, for every row of a checked stack at once.

    ``weights`` is (m, prod(sizes)) and ``components`` (m, prod(sizes), states).
    Returns ``(per_axis, defects)``: per index axis, the marginals of all rows
    from ``_pruned_marginals``, and per row the entropy defect sum_axis S(axis
    weight sums) - S(weights) as a float.  Each axis' weight sums and summed
    products ``weights * components`` come from one stacked sum over its other
    axes, so every row gets the floats it would get as a stack of one.
    """
    m = weights.shape[0]
    joint = weights.reshape(m, *sizes)
    products = (weights[:, :, None] * components).reshape(m, *sizes, components.shape[2])
    axes = range(1, len(sizes) + 1)
    defects = np.zeros(m)
    per_axis = []
    for axis in axes:
        others = tuple(other for other in axes if other != axis)
        sums = joint.sum(axis=others)
        defects += _eta(sums).sum(axis=1)
        per_axis.append(_pruned_marginals(sums, products.sum(axis=others)))
    defects -= _eta(weights).sum(axis=1)
    return per_axis, defects.tolist()


def _row_terms(terms) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
    """The marginals, (weights, components) per axis, and the defect of a ``_terms`` pair."""
    (per_axis, defects), row = terms
    marginals = [(w[b[row] : b[row + 1]], c[b[row] : b[row + 1]]) for w, c, b in per_axis]
    return marginals, defects[row]


def entropy_defect(decomposition: Decomposition) -> float:
    """Shannon entropy gap sum_n S(marginal weights) - S(joint weights).

    Zero exactly when the weight tensor is a product measure; the joint
    entropy never exceeds the sum of its marginals, so the defect is >= 0
    up to floating point noise.  It is the defect ``_stack_terms`` computed
    when the decomposition was built.
    """
    return _row_terms(decomposition._terms)[1]


def _information(weights: np.ndarray, base: np.ndarray, outcome_rows: np.ndarray) -> float:
    """Information an index carries about an outcome, on arrays the caller checked.

    Returns the difference form S(mu o f) - sum_a w_a S(mu_a o f) once the relative form
    sum_a w_a S(mu_a o f | mu o f) agrees within ``MI_FORM_TOL``, and raises otherwise.
    ``base`` is mu o f and ``outcome_rows`` each component's outcome law.
    """
    difference_form = float(_eta(base).sum()) - float(weights @ _eta(outcome_rows).sum(axis=1))
    relative_form = float(weights @ relative_entropy_rows(outcome_rows, base))
    if abs(difference_form - relative_form) > MI_FORM_TOL:
        raise InequalityViolationError(
            "mutual information forms disagree: "
            f"difference {difference_form!r} vs relative {relative_form!r}"
        )
    return difference_form


def _marginal_information(memo, weights: np.ndarray, base: np.ndarray, rows: np.ndarray) -> float:
    """``_information`` of one marginal, looked up in and stored to ``memo`` unless it is None.

    ``memo`` is the (entries, capacity) pair of ``_MARGINALS``.  The key holds every input
    as bytes, so a hit is the float the same computation gave on the same bytes; once
    ``capacity`` entries are stored, a miss is computed and not kept.  A raise is not stored.
    """
    if memo is None:
        return _information(weights, base, rows)
    entries, capacity = memo
    key = (weights.tobytes(), rows.tobytes(), rows.shape[1], base.tobytes())
    information = entries.get(key)
    if information is None:
        information = _information(weights, base, rows)
        if len(entries) < capacity:
            entries[key] = information
    return information


def _cnt_value(muv: np.ndarray, terms, matrices: list[np.ndarray]) -> float:
    """``cnt_functional`` of a checked mu, a decomposition's ``_terms`` and response matrices.

    The marginals and the defect were computed with the decomposition's stack, so
    only the information terms remain: each marginal's comes from
    ``_marginal_information``, through the memo that ``_MARGINALS`` holds inside an
    identification scan.
    """
    marginals, defect = _row_terms(terms)
    memo = _MARGINALS.get()
    total = 0.0
    for (marg_w, marg_c), matrix in zip(marginals, matrices):
        total += _marginal_information(memo, marg_w, muv @ matrix, marg_c @ matrix)
    return total - defect
