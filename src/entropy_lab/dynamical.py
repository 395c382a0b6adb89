"""Dynamical entropy functionals, their depth sequences, and the sup over partitions.

Four entropy notions are computed from a system and a partition of unity,
all reducing to the classical dynamical entropy on sharp partitions of
deterministic dynamics but ordered strictly on unsharp or stochastic input:

* ``hud``: mean conditional information of states about outcome words,
* ``mak``: von Neumann entropy of the Gram-matrix state of the refinement,
* ``afl``: von Neumann entropy of the nested-evolution operational state,
* ``kow``: Shannon entropy of the outcome word distribution.

At every depth N the chain hud <= mak, hud <= afl <= kow holds; kow - afl
measures decoherence lost to the diagonal, mak - hud is a Holevo-type gap.
A rate is the tail of an ``EntropySequence``: its last increment and its
last ratio, which agree in the limit but differ in finite-size bias.
Of the decomposition functional, whose builder and arithmetic live in
``decompositions``, this module keeps the public boundary and the scan.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from ._errors import CapExceededError, InequalityViolationError, ValidationError
from .decompositions import (
    _MARGINALS,
    Decomposition,
    _cnt_value,
    _identifications,
    _induced_stack,
    _information,
    trivial_decomposition,
)
from .entropy import MI_FORM_TOL, _eta, as_prob_vector, von_neumann_entropy
from .partitions import (
    DEFAULT_WORD_CAP,
    PartitionOfUnity,
    RefinedPartition,
    _check_refine_args,
    _power_text,
    _response_of,
    evolve,
    join,
    refine_afl,
    sharp_partition,
)
from .systems import StochasticSystem

DEFAULT_DIM_CAP = 2048
DEFAULT_ENUMERATION_CAP = 10**6
# Candidates per stacked build of the cnt search, for both families.  Chunks
# bound the memory: one stack of all 65 536 map tuples at n = 4 peaks at
# 161 MB RSS, chunks of 256 at 36 MB, in the same time.
SCAN_CHUNK = 256

__all__ = [
    "DEFAULT_DIM_CAP",
    "DEFAULT_ENUMERATION_CAP",
    "EntropyKind",
    "EntropySequence",
    "CntSearchResult",
    "SupResult",
    "hud_functional",
    "cnt_functional",
    "cnt_search",
    "rho_afl",
    "entropy_sequence",
    "sup_over_sharp",
    "iter_set_partitions",
]


class EntropyKind(enum.Enum):
    HUD = "hud"
    MAK = "mak"
    AFL = "afl"
    KOW = "kow"


def hud_functional(mu, f) -> float:
    """Average information outcomes carry about the underlying state.

    S(mu o f) - sum_x mu_x S(delta_x o f), by ``_information``, which checks it against
    the relative entropy of the point outcome rows to the mean row, weighted by mu; so it
    is non-negative and bounded by S(mu).  It is also the one-time decomposition entropy:
    the supremum of ``cnt_functional(mu, dec, [f])``, attained at extremal decompositions,
    which the oracle ``extremal_maximum`` in ``tests/oracles.py`` scans.
    """
    muv = as_prob_vector(mu, "mu")
    matrix = _response_of(f, muv.shape[0])
    rows = slice(None) if muv.all() else muv > 0.0  # a massless row may leave mu o f's support
    return _information(muv[rows], muv @ matrix, matrix[rows])


def cnt_functional(mu, decomposition: Decomposition, partitions) -> float:
    """Decomposition functional: marginal information minus entropy defect.

    sum_n I(marginal_n; partitions[n]) - (sum_n S(marginal weights) - S(weights)).
    The trivial decomposition gives exactly 0; the supremum over all
    decompositions defines the multi-time entropy of the partition family.
    After one ``check_recombines`` of mu the value comes from one fused pass
    over the checked arrays, equal float for float to the sum of each
    marginal's ``_information`` alone minus ``entropy_defect``.
    """
    parts = list(partitions)
    if len(parts) != decomposition.arity:
        raise ValidationError(
            f"{len(parts)} partitions for a {decomposition.arity}-index decomposition"
        )
    muv = decomposition.check_recombines(mu)
    matrices = [_response_of(part, muv.shape[0]) for part in parts]
    return _cnt_value(
        muv, decomposition.weights, decomposition.components, decomposition.index_sizes, matrices
    )


@dataclass(eq=False)
class CntSearchResult:
    """Outcome of a decomposition search for the two-time functional."""

    best_value: float
    witness: Decomposition
    witness_label: str
    negative_identifications: int
    identifications: int
    random_trials: int


def _candidates(mu, n: int, budget: int, seed: int):
    """Chunks ``(family, keys, decompositions)`` of the two-time search, in scan order.

    First every identification decomposition, keyed by its pair of maps
    range(n) -> range(n) in lexicographic order; then ``budget`` random
    decompositions, keyed by trial number, each induced by n Dirichlet rows
    over the n * n cells from ``SeedSequence(seed)``.  Each chunk holds at
    most ``SCAN_CHUNK`` candidates, built as one stack: the map pairs by
    ``decompositions._identifications``, the draws by ``_induced_stack``.
    """
    sizes = (n, n)
    single_maps = list(itertools.product(range(n), repeat=n))
    map_pairs = itertools.product(single_maps, repeat=2)
    while chunk := list(itertools.islice(map_pairs, SCAN_CHUNK)):
        yield "identification", chunk, _identifications(mu, chunk, sizes)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for start in range(0, budget, SCAN_CHUNK):
        trials = range(start, min(start + SCAN_CHUNK, budget))
        draws = rng.dirichlet(np.ones(n * n), size=(len(trials), n))
        yield "random", trials, _induced_stack(mu, draws, sizes)


def cnt_search(
    system: StochasticSystem,
    f: PartitionOfUnity,
    g: PartitionOfUnity | None = None,
    *,
    budget: int = 200,
    seed: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CntSearchResult:
    """Search decompositions for the two-time functional of (f, g).

    The second partition defaults to the evolved copy of the first; the one-time
    supremum is the closed form ``hud_functional``.  Three candidate families are
    scanned deterministically: the trivial decomposition, every identification
    decomposition (one outcome map per time index, alphabet size = number of
    states), and ``budget`` random density decompositions drawn from a seeded
    generator.  Because the functional is not concave for two or more times,
    identification values can be negative; the search reports how many were.
    ``cap`` bounds the number of map tuples, n^(2n), and must be at least 1.

    Both stacked families come from ``_candidates``, in chunks of at most
    ``SCAN_CHUNK`` decompositions, each built as one stack and validated
    once.  Every candidate gets one ``cnt_functional`` call, and a later
    candidate replaces the witness only when its value is strictly larger.
    A map pair's time-0 marginal depends on its first map alone and its
    time-1 marginal on its second, so over the identification family each
    distinct marginal's checked information is computed once and reused from
    a memo keyed by the bytes of its inputs (see ``decompositions``).  The
    memo holds at most 2 n^n + 2 entries, whatever the budget: random trials,
    continuous draws that never repeat, run without it.  It is dropped when
    the search returns or raises, and a raise is never stored.
    No decomposition's value exceeds the information I(X; f, g) that both
    outcomes carry together, hud_functional(mu, join(f, g)); a best value
    above it by more than ``MI_FORM_TOL`` raises InequalityViolationError.
    """
    if budget < 0:
        raise ValidationError("budget must be >= 0")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    parts = [f, g if g is not None else evolve(system, f)]
    for p in parts:
        if p.n_states != system.n_states:
            raise ValidationError("partition does not match the system's state count")
    mu = system.stationary
    n = system.n_states
    map_count = n ** (2 * n)
    if map_count > cap:  # n >= 2 here, since a one-state system has one map tuple
        raise CapExceededError(
            f"identification enumeration would visit {_power_text(n, 2 * n)} map tuples, "
            f"cap is {cap}"
        )

    best_witness = trivial_decomposition(mu, 2)
    best_value = cnt_functional(mu, best_witness, parts)
    best_label = "trivial"

    memo = ({}, 2 * n**n + 2)  # the identification family's marginals, dropped on return
    negative = 0
    for family, keys, decompositions in _candidates(mu, n, budget, seed):
        identification = family == "identification"
        scope = _MARGINALS.set(memo if identification else None)
        try:
            for key, dec in zip(keys, decompositions):
                value = cnt_functional(mu, dec, parts)
                if identification and value < -MI_FORM_TOL:
                    negative += 1
                if value > best_value:
                    best_value, best_witness, best_label = value, dec, f"{family}:{key}"
        finally:
            _MARGINALS.reset(scope)

    bound = hud_functional(mu, join(*parts))
    if best_value > bound + MI_FORM_TOL:
        raise InequalityViolationError(
            f"cnt search value {best_value!r} exceeds the two-time bound "
            f"hud(f v g) = {bound!r}"
        )
    return CntSearchResult(
        best_value=best_value,
        witness=best_witness,
        witness_label=best_label,
        negative_identifications=negative,
        identifications=map_count,
        random_trials=budget,
    )


def rho_afl(
    system: StochasticSystem,
    f: PartitionOfUnity,
    depth: int,
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> np.ndarray:
    """Operational state of depth-N nested measurement.

    rho[w, v] = mu( sqrt(f_{w0} f_{v0}) * theta( sqrt(f_{w1} f_{v1}) *
    theta( ... ))) over word pairs.  For sharp partitions all off-diagonal
    square roots vanish, so the state is the diagonal word distribution and
    the pair recursion is skipped.

    The result is exactly symmetric by construction: each pair-root block is
    symmetric in (a, b), and every step computes entry (a, b) and entry
    (b, a) with the same floating-point operations in the same order.
    """
    _check_refine_args(
        system, f, depth, dim_cap, "state would be {n} x {n}, cap is {cap}", "dim_cap"
    )
    if f.is_sharp():
        refined = refine_afl(system, f, depth, word_cap=dim_cap)
        return np.diag(system.stationary @ refined.elements)
    k = f.n_outcomes
    pair_roots = np.sqrt(f.response[:, :, None] * f.response[:, None, :])
    grams = pair_roots
    for _ in range(depth - 1):
        inner = np.einsum("xy,yab->xab", system.transition, grams)
        side = grams.shape[1]
        grams = (
            pair_roots[:, :, None, :, None] * inner[:, None, :, None, :]
        ).reshape(system.n_states, k * side, k * side)
    return np.einsum("x,xab->ab", system.stationary, grams)


@dataclass(eq=False)
class EntropySequence:
    """Finite-depth entropy values s_1, ..., s_N of one entropy kind.

    ``truncated_at`` records the first depth whose computation hit a
    resource cap; values stop just before it.  Increments use the s_0 = 0
    convention, so the first increment equals the first value.  From depth 2
    on, the last increment s_N - s_{N-1} and the last ratio s_N / N are the
    two rate estimates.
    """

    kind: EntropyKind
    values: np.ndarray
    truncated_at: int | None = None

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValidationError("sequence values must be one-dimensional")
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < -MI_FORM_TOL)):
            raise ValidationError("sequence values must be finite and non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_max(self) -> int:
        return self.values.shape[0]

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, prepend=0.0)

    @property
    def ratios(self) -> np.ndarray:
        return self.values / np.arange(1, self.values.shape[0] + 1)


def _mak_state_side(mu: np.ndarray, refined: RefinedPartition, dim_cap: int) -> np.ndarray:
    """n x n Gram side S S^T of the mak state, S = sqrt(mu) sqrt(elements).

    The mak state is the k^N x k^N Gram matrix S^T S, which has the same
    nonzero spectrum, so both give one entropy.  The result is exactly
    symmetric by construction: numpy computes ``S @ S.T`` as one symmetric
    rank-k update, which fills one triangle and mirrors it.
    """
    n = refined.n_states
    if n > dim_cap:
        raise CapExceededError(f"Gram side would be {n} x {n}, cap is {dim_cap}")
    side = np.sqrt(mu)[:, None] * np.sqrt(refined.elements)
    return side @ side.T


def _sequence_value(
    system: StochasticSystem,
    f: PartitionOfUnity,
    kind: EntropyKind,
    depth: int,
    word_cap: int,
    dim_cap: int,
) -> float:
    if kind is EntropyKind.AFL:
        # The afl state is indexed by the k^N words, so both caps bound it.
        return von_neumann_entropy(rho_afl(system, f, depth, dim_cap=min(word_cap, dim_cap)))
    mu = system.stationary
    refined = refine_afl(system, f, depth, word_cap=word_cap)
    if kind is EntropyKind.HUD:
        return hud_functional(mu, refined)
    if kind is EntropyKind.MAK:
        return von_neumann_entropy(_mak_state_side(mu, refined, dim_cap))
    return float(np.sum(_eta(mu @ refined.elements)))


def entropy_sequence(
    system: StochasticSystem,
    f: PartitionOfUnity,
    kind: EntropyKind,
    n_max: int,
    *,
    word_cap: int = DEFAULT_WORD_CAP,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> EntropySequence:
    """Entropy values of one kind for depths 1..n_max, stopping at caps.

    ``mak`` diagonalizes the n x n side of a Gram factorization of its
    state, which has the same nonzero spectrum; ``afl`` diagonalizes its
    k^N x k^N state, which for a sharp f is diagonal and needs no LAPACK
    call.  ``dim_cap`` bounds the diagonalized side: n for ``mak``, k^N for
    ``afl``; ``hud`` and ``kow`` diagonalize nothing, so it never stops them.
    ``word_cap`` bounds the k^N words of every kind, ``afl`` included, whose
    state is indexed by words.  Both caps must be at least 1 for every kind.

    ``hud``, ``afl`` and ``kow`` are nondecreasing in depth, ``hud`` by data processing:
    summing the depth-N elements over the last symbol gives the depth-(N - 1) ones, as
    f's rows sum to 1 and T is unital.  A decrease beyond ``MI_FORM_TOL`` means an
    internal fault and raises; ``mak``, with no such proof, is not checked.
    """
    if not isinstance(kind, EntropyKind):
        raise ValidationError(f"unknown entropy kind {kind!r}")
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    for name, cap in (("word_cap", word_cap), ("dim_cap", dim_cap)):
        if cap < 1:
            raise ValidationError(f"{name} must be >= 1, got {cap}")
    values: list[float] = []
    truncated_at: int | None = None
    for depth in range(1, n_max + 1):
        try:
            values.append(_sequence_value(system, f, kind, depth, word_cap, dim_cap))
        except CapExceededError:
            truncated_at = depth
            break
    if kind is not EntropyKind.MAK:
        for i in range(1, len(values)):
            if values[i] < values[i - 1] - MI_FORM_TOL:
                raise InequalityViolationError(
                    f"{kind.value} sequence decreased at depth {i + 1}: "
                    f"{values[i - 1]!r} -> {values[i]!r}"
                )
    return EntropySequence(kind=kind, values=np.asarray(values), truncated_at=truncated_at)


def iter_set_partitions(n: int):
    """Iterate set partitions of range(n) in canonical order.

    Canonical form: cells sorted internally, listed by smallest member;
    generation uses restricted growth strings, so the first partition is
    the single-cell one and the last is the partition into singletons.
    """
    if n < 1:
        raise ValidationError("need at least one state")

    def grow(cells, x):
        # State x joins each existing cell in turn, then opens a new one.
        if x == n:
            yield cells
            return
        for c in range(len(cells)):
            yield from grow(cells[:c] + (cells[c] + (x,),) + cells[c + 1 :], x + 1)
        yield from grow(cells + ((x,),), x + 1)

    yield from grow((), 0)


@dataclass(eq=False)
class SupResult:
    """Winning sharp partition of a rate-maximization sweep and its sequence."""

    cells: tuple[tuple[int, ...], ...]
    sequence: EntropySequence
    candidates: int


MAX_EXHAUSTIVE_STATES = 8


def sup_over_sharp(
    system: StochasticSystem,
    kind: EntropyKind,
    n_max: int,
    *,
    word_cap: int = DEFAULT_WORD_CAP,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> SupResult:
    """Maximize the last increment of the sequence over all sharp partitions.

    Exhaustive over set partitions (feasible up to 8 states; 4140
    candidates at 8).  Every candidate is ranked at one depth D: the length
    of the sequence of the partition into singletons under the caps.  A
    partition with c cells has c^N words, and the singletons have the most
    (c = n), so they hit ``word_cap`` or the ``afl`` ``dim_cap`` first; the
    ``mak`` side is n for every candidate.  No candidate therefore stops
    before depth D.  When the singletons stop before depth 2, no candidate
    has an increment to rank at D and CapExceededError is raised.  The
    winner has the largest last increment at D; ties within 1e-12 go to the
    lexicographically smallest canonical cell list, so results are
    reproducible.  Its sequence carries the singletons' ``truncated_at``.
    The singletons, last in canonical order, reuse the sequence that found
    D (each depth is computed on its own, so its values are those of a
    sequence to D): each of the Bell(n) candidates is evaluated once.
    """
    n = system.n_states
    if n > MAX_EXHAUSTIVE_STATES:
        raise ValidationError(
            f"exhaustive sweep supports at most {MAX_EXHAUSTIVE_STATES} states, got {n}"
        )
    if n_max < 2:
        raise ValidationError("n_max must be >= 2 so a rate can be estimated")
    caps = {"word_cap": word_cap, "dim_cap": dim_cap}
    singletons = sharp_partition([(x,) for x in range(n)], n)
    reach = entropy_sequence(system, singletons, kind, n_max, **caps)
    if reach.n_max < 2:
        raise CapExceededError(
            "the partition into singletons stopped before depth 2 "
            f"(word_cap {word_cap}, dim_cap {dim_cap})"
        )
    best = None  # (cells, sequence, last increment) of the leading candidate
    candidates = 0
    for cells in iter_set_partitions(n):
        sequence = (
            reach if len(cells) == n
            else entropy_sequence(system, sharp_partition(cells, n), kind, reach.n_max, **caps)
        )
        candidates += 1
        rate = sequence.increments[-1]
        if (
            best is None
            or rate > best[2] + 1e-12
            or (abs(rate - best[2]) <= 1e-12 and cells < best[0])
        ):
            best = (cells, sequence, rate)
    cells, sequence, _ = best
    sequence = EntropySequence(kind=kind, values=sequence.values, truncated_at=reach.truncated_at)
    return SupResult(cells, sequence, candidates)
