"""Partitions of unity (unsharp measurements) and their dynamical refinements.

A partition of unity is a finite family of non-negative observables summing
pointwise to one, stored as a response matrix: ``response[x, k]`` is the
weight outcome k receives at state x.  Sharp partitions have 0/1 responses
and are ordinary cell partitions.

Two refinement schemes over N time steps both yield one element per
length-N outcome word, encoded big-endian (the time-0 symbol is the most
significant digit):

* ``refine_mak``: products of independently evolved responses,
  element(w) = f_{w0} * theta(f_{w1}) * theta^2(f_{w2}) * ...
* ``refine_afl``: nested evolution,
  element(w) = f_{w0} * theta(f_{w1} * theta(f_{w2} * ...)).

The schemes agree at depth <= 2 and for deterministic dynamics at every
depth; they genuinely differ from depth 3 on for stochastic dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import CapExceededError, ValidationError
from .entropy import CLAMP_TOL, as_prob_vector, as_stochastic_matrix
from .systems import StochasticSystem

DEFAULT_WORD_CAP = 2**20
_REFINE_CAP = "refinement would materialize {n} words, cap is {cap}"

__all__ = [
    "DEFAULT_WORD_CAP",
    "PartitionOfUnity",
    "RefinedPartition",
    "sharp_partition",
    "uniform_unsharp",
    "join",
    "evolve",
    "refine_mak",
    "refine_afl",
    "word_from_code",
    "distribution",
    "word_label",
]


@dataclass(eq=False)
class PartitionOfUnity:
    """Response matrix of an unsharp measurement, rows indexed by state.

    Rows are checked by ``as_stochastic_matrix``, entries must not exceed
    1 + 1e-12, and rows are then normalized to sum to 1 exactly.
    """

    response: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = as_stochastic_matrix(self.response, "response")
        if np.any(arr > 1.0 + CLAMP_TOL):
            raise ValidationError("response entries must lie in [0, 1] up to 1e-12")
        # As for transitions in make_markov: exact rows keep joins and
        # refinements row-stochastic instead of compounding the tolerance.
        arr /= arr.sum(axis=1, keepdims=True)
        arr.setflags(write=False)
        object.__setattr__(self, "response", arr)
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(str(k) for k in range(arr.shape[1])))
        else:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != arr.shape[1]:
                raise ValidationError(
                    f"{len(labels)} outcome labels for {arr.shape[1]} outcomes"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n_states(self) -> int:
        return self.response.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.response.shape[1]

    def is_sharp(self) -> bool:
        """True when every response value is exactly 0 or 1."""
        r = self.response
        return bool(np.all((r == 0.0) | (r == 1.0)))


def sharp_partition(cells, n_states: int, labels=None) -> PartitionOfUnity:
    """Indicator partition from disjoint covering cells of state indices."""
    seen: set[int] = set()
    cell_list = [tuple(int(x) for x in cell) for cell in cells]
    if not cell_list:
        raise ValidationError("at least one cell is required")
    for cell in cell_list:
        if not cell:
            raise ValidationError("empty cells are not allowed")
        for x in cell:
            if x < 0 or x >= n_states:
                raise ValidationError(f"state index {x} outside range(0, {n_states})")
            if x in seen:
                raise ValidationError(f"state index {x} appears in two cells")
            seen.add(x)
    if len(seen) != n_states:
        missing = sorted(set(range(n_states)) - seen)
        raise ValidationError(f"cells do not cover states {missing}")
    response = np.zeros((n_states, len(cell_list)))
    for k, cell in enumerate(cell_list):
        response[list(cell), k] = 1.0
    return PartitionOfUnity(response, labels)


def uniform_unsharp(n_states: int, n_outcomes: int) -> PartitionOfUnity:
    """Totally mixing measurement: every outcome has constant weight 1/k."""
    if n_outcomes < 1:
        raise ValidationError("need at least one outcome")
    if n_states < 1:
        raise ValidationError("need at least one state")
    return PartitionOfUnity(np.full((n_states, n_outcomes), 1.0 / n_outcomes))


def join(f: PartitionOfUnity, g: PartitionOfUnity) -> PartitionOfUnity:
    """Pointwise product partition; outcome (k, l) is stored at index k * |g| + l."""
    if f.n_states != g.n_states:
        raise ValidationError("partitions live on different state spaces")
    prod = np.einsum("xk,xl->xkl", f.response, g.response)
    labels = tuple(f"{a}.{b}" for a in f.labels for b in g.labels)
    return PartitionOfUnity(prod.reshape(f.n_states, -1), labels)


def evolve(system: StochasticSystem, f: PartitionOfUnity) -> PartitionOfUnity:
    """Apply the dual dynamics to every response column at once."""
    if f.n_states != system.n_states:
        raise ValidationError("partition does not match the system's state count")
    return PartitionOfUnity(system.transition @ f.response, f.labels)


@dataclass(eq=False)
class RefinedPartition:
    """Materialized refinement: one element column per length-``depth`` word.

    ``elements[x, c]`` is the element of word ``word_from_code(c,
    base_outcomes, depth)`` evaluated at state x.  Column order is the
    big-endian word code, so slicing columns by leading symbol is contiguous.
    """

    base_outcomes: int
    depth: int
    elements: np.ndarray

    def __post_init__(self):
        if self.depth < 1:
            raise ValidationError("depth must be >= 1")
        arr = as_stochastic_matrix(self.elements, "elements")
        expected = self.base_outcomes**self.depth
        if arr.shape[1] != expected:
            raise ValidationError(
                f"elements must have {expected} columns, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

    @property
    def n_states(self) -> int:
        return self.elements.shape[0]

    @property
    def n_words(self) -> int:
        return self.elements.shape[1]


def word_from_code(code: int, base: int, depth: int) -> tuple[int, ...]:
    """Outcome word of a big-endian integer code; symbol 0 is most significant."""
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    if code < 0 or code >= base**depth:
        raise ValidationError(f"code {code} outside range(0, {base**depth})")
    out = []
    for _ in range(depth):
        out.append(code % base)
        code //= base
    return tuple(reversed(out))


def word_label(f: PartitionOfUnity, word) -> str:
    """Human-readable label of a word, built from the base outcome labels."""
    return ".".join(f.labels[int(k)] for k in word)


def _power_text(base: int, exponent: int) -> int | str:
    """``base**exponent`` for a message, or ``"base^exponent"`` past the int-string limit.

    Python prints at most 4 300 digits of an int by default.  ``base`` must be >= 2.
    """
    return base**exponent if exponent < 4300 / math.log10(base) else f"{base}^{exponent}"


def _check_refine_args(
    system: StochasticSystem,
    f: PartitionOfUnity,
    depth: int,
    cap: int,
    message: str = _REFINE_CAP,
    cap_name: str = "word_cap",
) -> int:
    """Check the arguments of a depth-N word object; return its word count n = k^N.

    A cap below 1 admits no word object at all, so it is a ValidationError
    naming ``cap_name``, not a cap that is hit.
    """
    if f.n_states != system.n_states:
        raise ValidationError("partition does not match the system's state count")
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    if cap < 1:
        raise ValidationError(f"{cap_name} must be >= 1, got {cap}")
    k, bound = f.n_outcomes, int(cap).bit_length()
    if depth > bound and k == 1:  # one word at every depth, so the cap bounds the depth itself
        raise CapExceededError(
            f"depth {depth} is past {bound}, the deepest a {cap_name} of {cap} allows"
        )
    if depth > bound:  # k^N >= 2^N > cap
        raise CapExceededError(message.format(n=_power_text(k, depth), cap=cap))
    n_words = k**depth
    if n_words > cap:
        raise CapExceededError(message.format(n=n_words, cap=cap))
    return n_words


def refine_mak(
    system: StochasticSystem,
    f: PartitionOfUnity,
    depth: int,
    *,
    word_cap: int = DEFAULT_WORD_CAP,
) -> RefinedPartition:
    """Join of the independently evolved copies f, theta(f), ..., theta^(depth-1)(f)."""
    _check_refine_args(system, f, depth, word_cap)
    n = system.n_states
    elements = f.response.copy()
    evolved = f.response
    for _ in range(depth - 1):
        evolved = system.transition @ evolved
        # Append the newest symbol as the least significant digit.
        elements = (elements[:, :, None] * evolved[:, None, :]).reshape(n, -1)
    return RefinedPartition(f.n_outcomes, depth, elements)


def refine_afl(
    system: StochasticSystem,
    f: PartitionOfUnity,
    depth: int,
    *,
    word_cap: int = DEFAULT_WORD_CAP,
) -> RefinedPartition:
    """Nested refinement f ∨ theta(f ∨ theta(f ∨ ...)), one element per word."""
    _check_refine_args(system, f, depth, word_cap)
    n = system.n_states
    elements = f.response.copy()
    for _ in range(depth - 1):
        # Prepend the newest symbol: element(k0 w) = f_{k0} * theta(element(w)).
        inner = system.transition @ elements
        elements = (f.response[:, :, None] * inner[:, None, :]).reshape(n, -1)
    return RefinedPartition(f.n_outcomes, depth, elements)


def _response_of(f, n_states: int) -> np.ndarray:
    """Response matrix of a partition or refinement over n_states states."""
    if isinstance(f, RefinedPartition):
        matrix = f.elements
    elif isinstance(f, PartitionOfUnity):
        matrix = f.response
    else:
        raise ValidationError(f"expected a partition, got {type(f).__name__}")
    if matrix.shape[0] != n_states:
        raise ValidationError("measure and partition sizes differ")
    return matrix


def distribution(mu, f) -> np.ndarray:
    """Outcome distribution mu(f_k) of a partition or refinement under mu."""
    muv = as_prob_vector(mu, "mu")
    return as_prob_vector(muv @ _response_of(f, muv.shape[0]), "outcome distribution")
