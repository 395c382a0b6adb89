"""Convex decompositions, marginals, entropy defect, extremal enumeration."""

import numpy as np
import pytest

import entropy_lab as el
from entropy_lab import ValidationError
from entropy_lab.decompositions import Decomposition, _induced_stack

from conftest import marginal, random_partition, random_prob


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
