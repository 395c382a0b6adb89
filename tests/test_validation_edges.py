"""Accept sets of the row-stochastic checks at their tolerance edges.

Every object that stores rows of probabilities is accepted exactly when each
of its rows passes ``as_prob_vector``, plus the bound of its own call site.
The matrices drawn here put entries within 2e-12 of 0 and of 1, row sums
within 2e-9 of 1, and now and then a NaN or an infinity.  A stack of
decompositions checked at once is accepted exactly when each of its
decompositions would be accepted alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entropy_lab as el
from entropy_lab import ValidationError
from entropy_lab.decompositions import Decomposition, _checked_stack
from entropy_lab.entropy import CLAMP_TOL, as_prob_vector

from strategies import systems

NEAR_ZERO = st.sampled_from([0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12]) | st.floats(
    -2e-12, 2e-12
)
SUM_SHIFT = st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, -2e-9]) | st.floats(-2e-9, 2e-9)
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def edge_rows(draw, n_rows, n_cols, cycle=False):
    """Rows near a probability vector: sharp rows (one entry near 1) or spread rows.

    With ``cycle``, sharp row i puts its mass on column i + 1 and spread
    rows are strictly positive, so a square draw is an irreducible chain.
    """
    m = np.empty((n_rows, n_cols))
    for i in range(n_rows):
        if draw(st.booleans()):
            m[i] = [draw(NEAR_ZERO) for _ in range(n_cols)]
            top = (i + 1) % n_cols if cycle else draw(st.integers(0, n_cols - 1))
            m[i, top] += 1.0
        else:
            raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n_cols, max_size=n_cols)))
            m[i] = raw / raw.sum()
        m[i, int(np.argmax(m[i]))] += draw(SUM_SHIFT)
    if draw(st.integers(0, 9)) == 0:
        m[draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))] = draw(NON_FINITE)
    return m


def rows_pass(m) -> bool:
    try:
        for row in m:
            as_prob_vector(row)
    except ValidationError:
        return False
    return True


def accepted(build, *args) -> bool:
    try:
        build(*args)
    except ValidationError:
        return False
    return True


@settings(max_examples=150)
@given(st.integers(2, 4).flatmap(lambda n: edge_rows(n, n, cycle=True)))
def test_make_markov_accepts_exactly_valid_rows(m):
    assert accepted(el.make_markov, m.shape[0], m) == rows_pass(m)


@settings(max_examples=150)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda s: edge_rows(*s))
)
def test_partition_of_unity_adds_only_its_upper_bound(m):
    in_range = not np.any(m > 1.0 + CLAMP_TOL)
    assert accepted(el.PartitionOfUnity, m) == (rows_pass(m) and in_range)


@settings(max_examples=150)
@given(
    st.tuples(st.integers(1, 4), st.integers(2, 3), st.integers(1, 2)).flatmap(
        lambda s: st.tuples(st.just(s), edge_rows(s[0], s[1] ** s[2]))
    )
)
def test_refined_partition_accepts_exactly_valid_rows(args):
    (_, k, depth), m = args
    assert accepted(el.RefinedPartition, k, depth, m) == rows_pass(m)


@settings(max_examples=60)
@given(
    st.tuples(st.integers(2, 4), st.integers(2, 3)).flatmap(
        lambda s: st.tuples(edge_rows(s[0], s[1]), systems(s[0]), st.integers(1, 4))
    )
)
def test_refine_afl_of_an_accepted_partition_is_accepted(args):
    m, system, depth = args
    if not accepted(el.PartitionOfUnity, m):
        return
    refined = el.refine_afl(system, el.PartitionOfUnity(m), depth)
    assert rows_pass(refined.elements)


@settings(max_examples=150)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda s: edge_rows(*s))
)
def test_decomposition_accepts_exactly_valid_components(c):
    weights = np.full(c.shape[0], 1.0 / c.shape[0])
    assert accepted(Decomposition, weights, c) == rows_pass(c)


@st.composite
def decomposition_stacks(draw):
    """Edge-row weights (m, K) and components (m, K, n) with index sizes of product K."""
    m, k, n = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    weights = draw(edge_rows(m, k))
    components = draw(edge_rows(m * k, n)).reshape(m, k, n)
    sizes = draw(st.sampled_from([(k,), (1, k), (k, 1)]))
    return weights, components, sizes


@settings(max_examples=150)
@given(decomposition_stacks())
def test_checked_stack_accepts_exactly_what_each_decomposition_accepts(stack):
    weights, components, sizes = stack
    each = all(
        accepted(Decomposition, w, c, sizes) for w, c in zip(weights, components)
    )
    assert accepted(_checked_stack, weights, components, sizes) == each
    if not each:
        return
    for row, dec in enumerate(_checked_stack(weights, components, sizes)):
        alone = Decomposition(weights[row], components[row], sizes)
        assert np.array_equal(dec.weights, alone.weights)
        assert np.array_equal(dec.components, alone.components)
        assert dec.index_sizes == alone.index_sizes
        assert not dec.weights.flags.writeable and not dec.components.flags.writeable
    with pytest.raises(ValidationError, match="index sizes"):
        _checked_stack(weights, components, (weights.shape[1] + 1,))
