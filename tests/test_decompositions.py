"""Convex decompositions, marginals, entropy defect, extremal enumeration."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entropy_lab as el
from entropy_lab import ValidationError
from entropy_lab.decompositions import (
    PRUNE_TOL,
    Decomposition,
    _identifications,
    _induced_stack,
    _row_terms,
)

import oracles
from conftest import marginal, random_partition, random_prob
from strategies import SEEDS, systems


class TestDecomposition:
    def test_mixture(self):
        dec = Decomposition([0.25, 0.75], [[1.0, 0.0], [0.0, 1.0]])
        assert dec.weights @ dec.components == pytest.approx([0.25, 0.75], abs=1e-15)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            Decomposition([0.5, 0.4], [[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_bad_component(self):
        with pytest.raises(ValidationError, match="component 1"):
            Decomposition([0.5, 0.5], [[1.0, 0.0], [0.4, 0.7]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            Decomposition([1.0], [[0.5, 0.5], [0.5, 0.5]])

    def test_check_recombines(self):
        dec = Decomposition([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        dec.check_recombines([0.5, 0.5])
        with pytest.raises(ValidationError, match="wrong measure"):
            dec.check_recombines([0.9, 0.1])

    def test_check_recombines_returns_clamped_measure(self):
        dec = Decomposition([1.0], [[0.0, 1.0]])
        mu = [-5e-13, 1.0 + 5e-13]
        checked = dec.check_recombines(mu)
        assert isinstance(checked, np.ndarray)
        assert checked[0] == 0.0
        assert checked[1] == mu[1]
        with pytest.raises(ValidationError, match="wrong measure"):
            dec.check_recombines([0.5, 0.5])

    def test_fields_are_frozen_with_their_terms(self):
        dec = Decomposition([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], (2, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.weights = np.array([1.0, 0.0])
        assert np.array_equal(dec.weights, [0.5, 0.5])

    def test_check_recombines_rejects_dimension_mismatch(self):
        dec = Decomposition([1.0], [[0.5, 0.5]])
        with pytest.raises(ValidationError, match="measure dimension does not match"):
            dec.check_recombines([1 / 3, 1 / 3, 1 / 3])


class TestTrivialDecomposition:
    def test_exact_zero_arity_sizes(self):
        mu = [0.3, 0.7]
        dec = el.trivial_decomposition(mu, 2)
        assert dec.index_sizes == (1, 1)
        assert dec.weights[0] == 1.0
        assert np.array_equal(dec.weights @ dec.components, np.asarray(mu))

    def test_rejects_bad_arity(self):
        with pytest.raises(ValidationError):
            el.trivial_decomposition([1.0], 0)


def induced(mu, response) -> Decomposition:
    """The one-index decomposition that one response matrix induces."""
    (decomposition,) = _induced_stack(mu, response[None], (response.shape[1],))
    return decomposition


class TestInduced:
    """``_induced_stack``, the one builder of every decomposition a response matrix induces."""

    def test_weights_and_mixture(self, blur_partition):
        mu = np.array([0.4, 0.6])
        dec = induced(mu, blur_partition.response)
        weights = mu @ blur_partition.response
        assert np.array_equal(dec.weights, weights / weights.sum())
        assert np.max(np.abs(dec.weights @ dec.components - mu)) <= 1e-15

    def test_zero_weight_index_keeps_mu_as_placeholder(self):
        mu = np.array([0.5, 0.5])
        dec = induced(mu, np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(dec.weights, [1.0, 0.0])
        assert np.array_equal(dec.components[1], mu)

    def test_components_recover_the_response(self):
        # mu-densities of the components, times their weights, are the response columns.
        rng = np.random.default_rng(6)
        mu = random_prob(rng, 4)
        part = random_partition(rng, 4, 3)
        dec = induced(mu, part.response)
        densities = (dec.weights[:, None] * dec.components / mu).T
        assert np.max(np.abs(densities - part.response)) <= 1e-12

    def test_stack_gives_each_matrix_its_own_floats(self):
        rng = np.random.default_rng(13)
        mu = random_prob(rng, 3)
        stack = np.stack([random_partition(rng, 3, 4).response for _ in range(3)])
        stack[1, :, 0] += stack[1, :, 3]
        stack[1, :, 3] = 0.0  # one index of zero weight inside the stack
        decompositions = _induced_stack(mu, stack, (4,))
        for i in range(3):
            alone = induced(mu, stack[i])
            assert np.array_equal(decompositions[i].weights, alone.weights)
            assert np.array_equal(decompositions[i].components, alone.components)


class TestMultiDecomposition:
    def test_shape_validation(self):
        with pytest.raises(ValidationError, match="need 4 weights"):
            Decomposition([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], (2, 2))

    def test_default_index_is_one_axis(self):
        dec = Decomposition([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        assert dec.index_sizes == (2,)
        assert dec.arity == 1

    @pytest.mark.parametrize("sizes", [(), (2, 0), (-2, -2)])
    def test_rejects_non_positive_index_sizes(self, sizes):
        weights = np.full(4, 0.25)
        comps = np.tile([0.5, 0.5], (4, 1))
        with pytest.raises(ValidationError, match="positive"):
            Decomposition(weights, comps, sizes)

    def test_marginal_of_product_weights(self):
        a = np.array([0.3, 0.7])
        b = np.array([0.6, 0.4])
        weights = np.outer(a, b).ravel()
        comps = np.tile([0.5, 0.5], (4, 1))
        dec = Decomposition(weights, comps, (2, 2))
        m0 = marginal(dec, 0)
        m1 = marginal(dec, 1)
        assert m0.weights == pytest.approx(a, abs=1e-15)
        assert m1.weights == pytest.approx(b, abs=1e-15)
        assert el.entropy_defect(dec) == pytest.approx(0.0, abs=1e-12)

    def test_marginal_components_are_weighted_averages(self):
        weights = np.array([0.25, 0.25, 0.25, 0.25])
        comps = np.array(
            [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.25, 0.75]]
        )
        dec = Decomposition(weights, comps, (2, 2))
        m0 = marginal(dec, 0)
        assert m0.components[0] == pytest.approx([0.5, 0.5], abs=1e-15)
        assert m0.components[1] == pytest.approx([0.375, 0.625], abs=1e-15)

    def test_marginal_of_a_joined_decomposition_is_induced_by_its_factor(self):
        rng = np.random.default_rng(17)
        mu = random_prob(rng, 4)
        f, g = random_partition(rng, 4, 2), random_partition(rng, 4, 3)
        (dec,) = _induced_stack(mu, el.join(f, g).response[None], (2, 3))
        for axis, part in enumerate((f, g)):
            alone = induced(mu, part.response)
            m = marginal(dec, axis)
            assert np.max(np.abs(m.weights - alone.weights)) <= 1e-12
            assert np.max(np.abs(m.components - alone.components)) <= 1e-12
            assert np.max(np.abs(m.weights @ m.components - mu)) <= 1e-12

    def test_entropy_defect_positive_when_correlated(self):
        # Perfectly correlated indices: defect = S(joint marginal pair).
        weights = np.array([0.5, 0.0, 0.0, 0.5])
        comps = np.tile([1.0], (4, 1))
        dec = Decomposition(weights, comps, (2, 2))
        assert el.entropy_defect(dec) == pytest.approx(
            el.shannon_entropy([0.5, 0.5]), abs=1e-12
        )

    def test_defect_nonnegative_random(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            weights = random_prob(rng, 6)
            comps = rng.dirichlet(np.ones(3), size=6)
            dec = Decomposition(weights, comps, (2, 3))
            assert el.entropy_defect(dec) >= -1e-12


@st.composite
def stacks(draw):
    """A stack of identification or Dirichlet decompositions and its index sizes.

    The measure is a zoo chain's stationary law on 1 to 3 states; the index sizes
    are (1, 1), (n, n) or (2, 3, 2); a stack holds 1, 7 or 256 rows.  With a tiny
    mass the first state's mass is set in (0, PRUNE_TOL] and the first row sends
    that state alone to index 0 of the first axis (of every axis for maps), so
    that axis' weight sum falls in (0, PRUNE_TOL] and is pruned.  Returns the
    stack, the sizes and whether that prune was forced.
    """
    n = draw(st.integers(1, 3))
    mu = draw(systems(n)).stationary.copy()
    sizes = draw(st.sampled_from(((1, 1), (n, n), (2, 3, 2))))
    rows = draw(st.sampled_from((1, 7, 256)))
    tiny = draw(st.sampled_from((None, 1e-18, 1e-16, 0.9 * PRUNE_TOL)))
    forced = tiny is not None and n >= 2 and sizes[0] >= 2
    if forced:
        mu[1:] *= (1.0 - tiny) / mu[1:].sum()
        mu[0] = tiny
    rng = np.random.default_rng(draw(SEEDS))
    if draw(st.booleans()):
        maps = np.stack([rng.integers(0, size, size=(rows, n)) for size in sizes], axis=1)
        if forced:
            maps[0] = np.minimum(1, np.arange(n))[None, :] * (np.array(sizes)[:, None] > 1)
        return _identifications(mu, maps, sizes), sizes, forced
    cells = math.prod(sizes)
    draws = rng.dirichlet(np.ones(cells), size=(rows, n))
    if forced:
        first = np.unravel_index(np.arange(cells), sizes)[0] == 0
        draws[0, 1:, first] = 0.0
        draws[0, 0] = first / first.sum()
        draws[0] /= draws[0].sum(axis=1, keepdims=True)
    return _induced_stack(mu, draws, sizes), sizes, forced


def same_floats(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedTerms:
    """The marginals and defect computed once per stack are the one-decomposition floats."""

    @settings(max_examples=80)
    @given(stacks())
    def test_every_row_equals_the_oracles_bit_for_bit(self, stack):
        decompositions, sizes, forced = stack
        pruned = False
        for dec in decompositions:
            sums = oracles.axis_sums(dec.weights, sizes)
            pruned |= any(((s > 0.0) & (s <= PRUNE_TOL)).any() for s in sums)
            want = oracles.marginals(dec.weights, dec.components, sizes, sums)
            got, defect = _row_terms(dec._terms)
            assert len(got) == len(want) == len(sizes)
            for (got_w, got_c), (want_w, want_c) in zip(got, want):
                assert same_floats(got_w, want_w)
                assert same_floats(got_c, want_c)
            assert defect.hex() == oracles.defect(sums, dec.weights).hex()
            public = Decomposition(dec.weights, dec.components, sizes)
            assert el.entropy_defect(public).hex() == defect.hex()
            for (public_w, public_c), (want_w, want_c) in zip(_row_terms(public._terms)[0], want):
                assert same_floats(public_w, want_w)
                assert same_floats(public_c, want_c)
        assert pruned or not forced
