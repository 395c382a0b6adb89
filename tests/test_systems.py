"""System construction, stationary measures, and the dual dynamics contract."""

import numpy as np
import pytest

import entropy_lab as el
from entropy_lab import ValidationError

from conftest import load_fixture, random_system


class TestStationaryMeasure:
    def test_two_state_chain(self):
        mu = el.stationary_measure([[0.9, 0.1], [0.2, 0.8]])
        assert mu == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-11)

    def test_doubly_stochastic_gives_uniform(self):
        mu = el.stationary_measure([[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]])
        assert mu == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_period_two_swap_converges_from_uniform_start(self):
        mu = el.stationary_measure([[0.0, 1.0], [1.0, 0.0]])
        assert mu == pytest.approx([0.5, 0.5], abs=0.0)

    def test_periodic_bipartite_chain_is_accepted(self):
        # Period 2 and classes of unequal mass: the measure is still unique.
        mu = el.stationary_measure([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        assert mu == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_three_cycle_fixture_loads_without_stationary(self, three_cycle):
        doc = {k: v for k, v in load_fixture("systems", "three_cycle.json").items()
               if k != "stationary"}
        system = el.parse_system(doc)
        assert system.stationary == pytest.approx([1 / 3] * 3, abs=1e-15)
        assert np.array_equal(system.transition, three_cycle.transition)

    def test_reducible_chain_raises(self):
        with pytest.raises(ValidationError, match="reducible"):
            el.stationary_measure([[1.0, 0.0], [0.5, 0.5]])

    def test_two_closed_classes_raise(self):
        # Every mixture of the two class measures is stationary.
        with pytest.raises(ValidationError, match="reducible"):
            el.stationary_measure(np.eye(2))

    def test_transient_state_raises_as_reducible(self):
        # State 0 leaves and never returns: its solved mass is exactly 0.
        with pytest.raises(ValidationError, match="reducible"):
            el.stationary_measure([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])

    @pytest.mark.parametrize("t", [1e-13, 1e-15])
    def test_tiny_stationary_mass_is_kept_as_solved(self, t):
        # Irreducible, with mu_0 = t / (1 + t): far below 1e-12, still resolved.
        mu = el.stationary_measure([[0.0, 1.0], [t, 1.0 - t]])
        assert mu[0] == pytest.approx(t / (1.0 + t), rel=1e-6)
        system = el.make_markov(2, [[0.0, 1.0], [t, 1.0 - t]])
        assert np.array_equal(system.stationary, mu)

    def test_mass_below_the_solve_resolution_asks_for_the_measure(self):
        # mu_0 is about 6e-17: the solve returns an entry at or below 0.
        p = [[0.1, 0.0, 0.9], [5e-17, 0.1, 0.9], [5e-17, 0.5, 0.5]]
        for build in (el.stationary_measure, lambda m: el.make_markov(3, m)):
            with pytest.raises(ValidationError, match="below what the solve resolves") as info:
                build(p)
            assert "reducible" not in str(info.value)

    def test_invariance_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4), size=4)
            mu = el.stationary_measure(p)
            assert np.max(np.abs(mu @ p - mu)) <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            el.stationary_measure(np.ones((2, 3)) / 3.0)


class TestMakeMarkov:
    def test_labels_from_int(self):
        system = el.make_markov(2, [[0.5, 0.5], [0.5, 0.5]])
        assert system.states == ("s0", "s1")

    def test_explicit_labels(self, two_state_chain):
        assert two_state_chain.states == ("a", "b")
        assert two_state_chain.state_index("b") == 1
        with pytest.raises(ValidationError, match="unknown state"):
            two_state_chain.state_index("c")

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError, match="distinct"):
            el.make_markov(("a", "a"), [[0.5, 0.5], [0.5, 0.5]])

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValidationError):
            el.make_markov(("a",), [[0.5, 0.5], [0.5, 0.5]])

    def test_rows_normalized_exactly(self, two_state_chain):
        sums = two_state_chain.transition.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-15

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError, match="row"):
            el.make_markov(2, [[0.5, 0.49], [0.5, 0.5]])

    def test_rejects_non_invariant_measure(self):
        with pytest.raises(ValidationError, match="not invariant"):
            el.make_markov(2, [[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])

    def test_rejects_zero_mass_state(self):
        with pytest.raises(ValidationError, match="zero stationary mass"):
            el.make_markov(2, [[1.0, 0.0], [0.5, 0.5]], [1.0, 0.0])

    def test_arrays_are_frozen(self, two_state_chain):
        with pytest.raises(ValueError):
            two_state_chain.transition[0, 0] = 0.0
        with pytest.raises(ValueError):
            two_state_chain.stationary[0] = 0.0

    def test_accepts_measure_within_tolerance(self):
        mu = [2.0 / 3.0 + 5e-10, 1.0 / 3.0 - 5e-10]
        system = el.make_markov(2, [[0.9, 0.1], [0.2, 0.8]], mu)
        assert float(system.stationary.sum()) == pytest.approx(1.0, abs=1e-15)


class TestMakeBernoulli:
    def test_rows_all_equal_source(self, biased_coin):
        assert np.all(biased_coin.transition == biased_coin.transition[0])
        assert biased_coin.stationary == pytest.approx([0.75, 0.25], abs=1e-15)

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            el.make_bernoulli([1.0, 0.0])

    def test_default_labels(self, fair_coin):
        assert fair_coin.states == ("s0", "s1")


class TestMakeDeterministic:
    def test_three_cycle(self, three_cycle):
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 2] = expected[2, 0] = 1.0
        assert np.array_equal(three_cycle.transition, expected)

    def test_rejects_non_invariant(self):
        with pytest.raises(ValidationError, match="not invariant"):
            el.make_deterministic([1, 2, 0], [0.5, 0.25, 0.25])

    def test_identity_keeps_any_positive_measure(self):
        system = el.make_deterministic([0, 1], [0.3, 0.7])
        assert system.stationary == pytest.approx([0.3, 0.7], abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="outside"):
            el.make_deterministic([0, 2], [0.5, 0.5])


class TestDualAction:
    """f -> P @ f is unital, positive, measure preserving and a sup-norm contraction."""

    def test_unital_to_machine_precision(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            system = random_system(rng, int(rng.integers(2, 6)))
            ones = np.ones(system.n_states)
            assert np.max(np.abs(system.transition @ ones - 1.0)) <= 1e-12

    def test_positive(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            system = random_system(rng, 4)
            f = rng.random(4)
            assert np.all(system.transition @ f >= 0.0)

    def test_measure_preserving(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            system = random_system(rng, int(rng.integers(2, 6)))
            f = rng.random(system.n_states) * 3.0 - 1.0
            lhs = float(system.stationary @ (system.transition @ f))
            rhs = float(system.stationary @ f)
            assert abs(lhs - rhs) <= 1e-10

    def test_contraction_in_sup_norm(self):
        rng = np.random.default_rng(30)
        system = random_system(rng, 5)
        f = rng.random(5)
        assert np.max(np.abs(system.transition @ f)) <= np.max(np.abs(f)) + 1e-15
