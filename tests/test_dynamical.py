"""Entropy functionals, Gram states, sequences, rates, and searches."""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entropy_lab as el
from entropy_lab import (
    CapExceededError,
    InequalityViolationError,
    ValidationError,
    decompositions,
    dynamical,
)
from entropy_lab.cli import _estimate_doc
from entropy_lab.decompositions import PRUNE_TOL, Decomposition, _identification_decomposition
from entropy_lab.dynamical import (
    DEFAULT_DIM_CAP,
    DEFAULT_ENUMERATION_CAP,
    _mak_state_side,
    iter_set_partitions,
)
from entropy_lab.partitions import DEFAULT_WORD_CAP

from conftest import int_str_limit, marginal, random_partition, random_prob, random_system
from oracles import (
    BELL_NUMBERS,
    cnt_value,
    conditional_information,
    extremal_maximum,
    gram_state,
    identification_scan,
    index_information,
    induced_decomposition,
    markov_block_entropy,
    path_rho_afl,
    set_partitions_by_product,
    shannon,
)
from strategies import depths, last_depth, partitions, systems

S_MU_CHAIN = 0.6365141682948128
H_CHAIN = 0.38352279010702806
WITNESS_VALUE = -0.2876820724517809


class TestMutualInformation:
    """The one-index functional is the information the index carries about f."""

    def test_trivial_is_zero(self, blur_partition):
        mu = np.array([0.5, 0.5])
        dec = Decomposition([1.0], [mu])
        assert el.cnt_functional(mu, dec, [blur_partition]) == 0.0

    def test_point_decomposition_of_sharp_is_full_entropy(self):
        mu = np.array([0.25, 0.75])
        dec = Decomposition([0.25, 0.75], np.eye(2))
        part = el.sharp_partition([[0], [1]], 2)
        assert el.cnt_functional(mu, dec, [part]) == pytest.approx(
            el.shannon_entropy(mu), abs=1e-12
        )

    def test_rejects_wrong_measure(self, blur_partition):
        dec = Decomposition([1.0], [[0.9, 0.1]])
        with pytest.raises(ValidationError, match="wrong measure"):
            el.cnt_functional([0.5, 0.5], dec, [blur_partition])

    def test_bounded_by_weight_entropy(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            mu = random_prob(rng, n)
            part = random_partition(rng, n, k)
            dec = induced_decomposition(mu, random_partition(rng, n, 3).response, None)
            value = el.cnt_functional(mu, dec, [part])
            assert -1e-12 <= value
            assert value <= el.shannon_entropy(dec.weights) + 1e-9
            base = el.distribution(mu, part)
            assert value <= el.shannon_entropy(base) + 1e-9


    def test_mass_outside_base_support_raises(self):
        # The component puts 1e-12 on a state mu gives no mass to: within the
        # recombination tolerance, but the relative form is infinite.
        mu = np.array([1.0, 0.0])
        dec = Decomposition([1.0], [[1.0 - 1e-12, 1e-12]])
        part = el.sharp_partition([[0], [1]], 2)
        with pytest.raises(InequalityViolationError, match="forms disagree"):
            el.cnt_functional(mu, dec, [part])

    def test_zero_weight_component_is_ignored(self):
        mu = np.array([1.0, 0.0])
        dec = Decomposition([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        part = el.sharp_partition([[0], [1]], 2)
        assert el.cnt_functional(mu, dec, [part]) == 0.0


class TestHudFunctional:
    def test_frozen_blur_value(self, two_state_chain, blur_partition):
        assert el.hud_functional(
            two_state_chain.stationary, blur_partition
        ) == pytest.approx(0.1199347117869175, abs=1e-12)

    def test_sharp_extremal_saturates(self, two_state_chain, coin_extremal):
        assert el.hud_functional(
            two_state_chain.stationary, coin_extremal
        ) == pytest.approx(S_MU_CHAIN, abs=1e-12)

    def test_totally_mixing_is_zero(self, two_state_chain):
        part = el.uniform_unsharp(2, 3)
        assert el.hud_functional(two_state_chain.stationary, part) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            n, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            mu = random_prob(rng, n)
            part = random_partition(rng, n, k)
            assert el.hud_functional(mu, part) == pytest.approx(
                conditional_information(mu, part.response), abs=1e-12
            )


class TestCntFunctional:
    def test_trivial_is_exact_zero(self, doubly_stochastic):
        part = el.sharp_partition([[0, 1], [2]], 3)
        dec = el.trivial_decomposition(doubly_stochastic.stationary, 2)
        value = el.cnt_functional(
            doubly_stochastic.stationary, dec, [part, part]
        )
        assert abs(value) <= 1e-12

    def test_frozen_negative_witness(self, doubly_stochastic):
        part = el.sharp_partition([[0, 1], [2]], 3)
        dec = _identification_decomposition(
            doubly_stochastic.stationary, ((0, 1, 1), (0, 1, 1)), (3, 3)
        )
        value = el.cnt_functional(doubly_stochastic.stationary, dec, [part, part])
        assert value == pytest.approx(WITNESS_VALUE, abs=1e-12)

    def test_identification_of_non_surjective_maps(self):
        # Each map misses outcomes, every joint cell holds at most two states
        # (so its mass is one float in any summation order), and cell 24
        # holds only the massless state 4.
        mu = np.array([0.15, 0.3, 0.2, 0.35, 0.0])
        maps = ((0, 0, 2, 2, 4), (1, 3, 1, 1, 4))
        codes = np.ravel_multi_index(maps, (5, 5))
        dec = _identification_decomposition(mu, maps, (5, 5))
        counts = np.bincount(codes, weights=mu, minlength=25)
        assert dec.index_sizes == (5, 5)
        assert np.array_equal(dec.weights, counts / counts.sum())
        for cell in range(25):
            if counts[cell] == 0.0:
                assert np.array_equal(dec.components[cell], mu)
            else:
                restriction = np.where(codes == cell, mu, 0.0)
                assert np.array_equal(dec.components[cell], restriction / counts[cell])
        assert counts[24] == 0.0 and np.count_nonzero(counts) == 3

    def test_arity_mismatch(self, doubly_stochastic):
        part = el.sharp_partition([[0, 1], [2]], 3)
        dec = el.trivial_decomposition(doubly_stochastic.stationary, 2)
        with pytest.raises(ValidationError, match="partitions"):
            el.cnt_functional(doubly_stochastic.stationary, dec, [part])

    def test_single_time_reduces_to_mutual_information(self, two_state_chain, blur_partition):
        mu = two_state_chain.stationary
        dec = induced_decomposition(mu, blur_partition.response, None)
        assert el.cnt_functional(mu, dec, [blur_partition]) == pytest.approx(
            index_information(mu, dec, blur_partition), abs=1e-12
        )


@st.composite
def cnt_cases(draw):
    """A measure, a decomposition of it and one partition per index.

    Decompositions: one-index and two-index random density decompositions,
    and two-time identification decompositions whose non-surjective maps
    leave zero-weight indices.  Each index gets its own partition from the
    zoo in ``strategies``.
    """
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    mu = random_prob(rng, n)
    family = draw(st.sampled_from(("one_index", "two_index", "identification")))
    if family == "identification":
        maps = tuple(tuple(rng.integers(0, n, size=n).tolist()) for _ in range(2))
        dec = _identification_decomposition(mu, maps, (n, n))
    else:
        sizes = (int(rng.integers(1, 5)),)
        if family == "two_index":
            sizes = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        response = rng.dirichlet(np.ones(math.prod(sizes)), size=n)
        weights = mu @ response
        components = (mu[None, :] * response.T) / weights[:, None]
        dec = Decomposition(weights / weights.sum(), components, sizes)
    return mu, dec, [draw(partitions(n)) for _ in range(dec.arity)]


def _prune_case():
    # Index (1, 1) has weight 1e-16 <= PRUNE_TOL: the axis-1 marginal drops
    # it, while the defect keeps its eta in the axis-1 sums and the joint.
    mu = np.array([0.5, 0.5])
    weights = [0.5, 0.0, 0.5 - 1e-16, 1e-16]
    components = [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.0, 1.0]]
    dec = Decomposition(weights, components, (2, 2))
    g = el.PartitionOfUnity([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
    return mu, dec, [el.sharp_partition([[0], [1]], 2), g]


def _zero_index_case():
    # Both maps miss outcomes: the joint and both marginals hold exact zeros.
    mu = np.array([0.2, 0.3, 0.5])
    dec = _identification_decomposition(mu, ((0, 0, 2), (1, 1, 1)), (3, 3))
    f = el.PartitionOfUnity([[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]])
    return mu, dec, [f, el.sharp_partition([[0], [1], [2]], 3)]


def _outcome_case(outcomes):
    # f and g with different outcome counts on a (2, 3) density decomposition.
    rng = np.random.default_rng(83)
    mu = random_prob(rng, 3)
    response = rng.dirichlet(np.ones(6), size=3)
    weights = mu @ response
    components = (mu[None, :] * response.T) / weights[:, None]
    dec = Decomposition(weights / weights.sum(), components, (2, 3))
    return mu, dec, [random_partition(rng, 3, k) for k in outcomes]


def _one_by_one_case():
    mu = np.array([0.25, 0.75])
    g = el.PartitionOfUnity([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
    return mu, el.trivial_decomposition(mu, 2), [el.sharp_partition([[0], [1]], 2), g]


PRUNE_CASE = _prune_case()
ZERO_INDEX_CASE = _zero_index_case()
ONE_BY_ONE_CASE = _one_by_one_case()
CNT_EDGE_CASES = (
    PRUNE_CASE,
    ZERO_INDEX_CASE,
    _outcome_case((2, 3)),
    _outcome_case((3, 2)),
    ONE_BY_ONE_CASE,
)


def _with_edge_cases(test):
    """Run a ``cnt_cases`` test on every CNT_EDGE_CASES input as well."""
    for case in CNT_EDGE_CASES:
        test = example(case)(test)
    return test


class TestCntDecomposition:
    @settings(max_examples=120)
    @given(cnt_cases())
    @_with_edge_cases
    def test_equals_marginal_information_minus_defect(self, case):
        mu, dec, parts = case
        expected = sum(
            index_information(mu, marginal(dec, axis), parts[axis])
            for axis in range(dec.arity)
        ) - el.entropy_defect(dec)
        assert el.cnt_functional(mu, dec, parts) == expected

    @settings(max_examples=120)
    @given(cnt_cases())
    @_with_edge_cases
    def test_matches_loop_oracle(self, case):
        mu, dec, parts = case
        expected = cnt_value(
            mu, dec.weights, dec.components, dec.index_sizes, [p.response for p in parts]
        )
        assert abs(el.cnt_functional(mu, dec, parts) - expected) <= 1e-12


class TestCntEdgeCases:
    def test_weight_below_prune_tol_counts_in_defect_only(self):
        _, dec, _ = PRUNE_CASE
        tiny = dec.weights[3]
        assert 0.0 < tiny <= PRUNE_TOL
        assert marginal(dec, 0).weights.shape[0] == 2
        assert marginal(dec, 1).weights.shape[0] == 1
        # Leaving eta(1e-16) ~ 3.7e-15 out of the axis-1 sums would move it by more than 1e-15.
        defect = shannon([0.5, 0.5]) + shannon([1.0 - tiny, tiny]) - shannon(dec.weights)
        assert abs(el.entropy_defect(dec) - defect) <= 1e-15

    def test_zero_index_case_prunes_both_axes(self):
        _, dec, _ = ZERO_INDEX_CASE
        assert np.count_nonzero(dec.weights) == 2
        assert marginal(dec, 0).weights.shape[0] == 2
        assert marginal(dec, 1).weights.shape[0] == 1

    def test_index_sizes_one_by_one(self):
        mu, dec, parts = ONE_BY_ONE_CASE
        assert dec.index_sizes == (1, 1)
        assert abs(el.cnt_functional(mu, dec, parts)) <= 1e-15

    @pytest.mark.parametrize("axis", [0, 1])
    def test_mass_outside_base_support_raises(self, axis):
        # The component puts 1e-12 on a state mu gives no mass to: within the
        # recombination tolerance, but the relative form of a sharp partition
        # is infinite.  The totally mixing partition sees no difference.
        mu = np.array([1.0, 0.0])
        dec = Decomposition([1.0], [[1.0 - 1e-12, 1e-12]], (1, 1))
        mixing = el.uniform_unsharp(2, 2)
        assert abs(el.cnt_functional(mu, dec, [mixing, mixing])) <= 1e-12
        parts = [mixing, mixing]
        parts[axis] = el.sharp_partition([[0], [1]], 2)
        with pytest.raises(InequalityViolationError, match="forms disagree"):
            el.cnt_functional(mu, dec, parts)


@st.composite
def scan_cases(draw):
    """A system, f, an optional g, a random budget and seed, and a scan chunk size.

    f and g have at most 3 outcomes; g is either left to default to theta f
    or drawn like f.  Budgets of 8 and 15 split the random family across
    chunks of 1 and 7.
    """
    n = draw(st.integers(1, 3))
    system = draw(systems(n))
    f = draw(partitions(n, 3))
    g = draw(st.none() | partitions(n, 3))
    budget = draw(st.sampled_from((0, 1, 8, 15)))
    seed = draw(st.integers(0, 2**31 - 1))
    chunk = draw(st.sampled_from((1, 7, dynamical.SCAN_CHUNK)))
    return system, f, g, budget, seed, chunk


@st.composite
def onetime_cases(draw):
    """A chain on 1 to 4 states and one partition f of it."""
    n = draw(st.integers(1, 4))
    return draw(systems(n)), draw(partitions(n))


class TestCntOnetime:
    def test_brute_force_agrees(self):
        rng = np.random.default_rng(71)
        for _ in range(6):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            mu = random_prob(rng, n)
            part = random_partition(rng, n, k)
            assert abs(extremal_maximum(mu, part) - el.hud_functional(mu, part)) <= 1e-9

    @settings(max_examples=60)
    @given(onetime_cases())
    def test_identification_maximum_is_hud(self, case):
        """Over all n^n maps, the one-index functional peaks at hud(f), at an injective map."""
        system, f = case
        mu, n = system.stationary, system.n_states
        closed = el.hud_functional(mu, f)
        values = {
            a: el.cnt_functional(mu, _identification_decomposition(mu, (a,), (n,)), [f])
            for a in itertools.product(range(n), repeat=n)
        }
        assert abs(max(values.values()) - closed) <= 1e-9
        injective = [v for a, v in values.items() if len(set(a)) == n]
        assert any(abs(v - closed) <= 1e-9 for v in injective)


class TestCntSearch:
    @settings(max_examples=30)
    @given(scan_cases())
    def test_scan_equals_identification_oracle(self, case):
        system, f, g, budget, seed, chunk = case
        parts = [f, el.evolve(system, f) if g is None else g]
        with mock.patch.object(dynamical, "SCAN_CHUNK", chunk):
            result = el.cnt_search(system, f, g, budget=budget, seed=seed)
        best, label, witness, negative, count = identification_scan(
            system.stationary, parts, system.n_states, budget, seed
        )
        assert result.best_value == best
        assert result.witness_label == label
        assert result.negative_identifications == negative
        assert result.identifications == count == system.n_states ** (2 * system.n_states)
        assert result.random_trials == budget
        assert result.witness.index_sizes == witness.index_sizes
        assert np.array_equal(result.witness.weights, witness.weights)
        assert np.array_equal(result.witness.components, witness.components)

    @settings(max_examples=30)
    @given(scan_cases())
    def test_every_candidate_stays_under_the_hud_bound_of_the_join(self, case):
        """The functional is at most I(X; Y_1 Y_2) = hud(f v g), as the README proves."""
        system, f, g, budget, seed, chunk = case
        mu = system.stationary
        parts = [f, el.evolve(system, f) if g is None else g]
        bound = el.hud_functional(mu, el.join(*parts)) + dynamical.MI_FORM_TOL
        with mock.patch.object(dynamical, "SCAN_CHUNK", chunk):
            values = [
                el.cnt_functional(mu, dec, parts)
                for _, _, decompositions in dynamical._candidates(mu, system.n_states, budget, seed)
                for dec in decompositions
            ]
            result = el.cnt_search(system, f, g, budget=budget, seed=seed)
        assert max(values) <= bound
        assert result.best_value <= bound

    @pytest.mark.parametrize("chunk", [1, 7, dynamical.SCAN_CHUNK])
    def test_random_family_equals_per_trial_draws(self, doubly_stochastic, chunk):
        mu = doubly_stochastic.stationary
        with mock.patch.object(dynamical, "SCAN_CHUNK", chunk):
            trials = [
                (key, dec)
                for family, keys, decompositions in dynamical._candidates(mu, 3, 15, 9)
                if family == "random"
                for key, dec in zip(keys, decompositions)
            ]
        assert [key for key, _ in trials] == list(range(15))
        rng = np.random.default_rng(np.random.SeedSequence(9))
        for _, dec in trials:
            expected = induced_decomposition(mu, rng.dirichlet(np.ones(9), size=3), (3, 3))
            assert dec.index_sizes == expected.index_sizes
            assert np.array_equal(dec.weights, expected.weights)
            assert np.array_equal(dec.components, expected.components)

    def test_fixture_landscape(self, doubly_stochastic):
        part = el.sharp_partition([[0, 1], [2]], 3)
        result = el.cnt_search(doubly_stochastic, part, part, budget=50, seed=11)
        assert result.best_value >= -1e-12
        assert result.negative_identifications >= 1
        assert result.identifications == 3**3 * 3**3
        assert result.random_trials == 50

    def test_deterministic_given_seed(self, doubly_stochastic):
        part = el.sharp_partition([[0, 1], [2]], 3)
        a = el.cnt_search(doubly_stochastic, part, budget=20, seed=5)
        b = el.cnt_search(doubly_stochastic, part, budget=20, seed=5)
        assert a.best_value == b.best_value
        assert a.witness_label == b.witness_label
        assert np.array_equal(a.witness.weights, b.witness.weights)

    def test_default_second_partition_is_evolved(self, two_state_chain, blur_partition):
        explicit = el.cnt_search(
            two_state_chain,
            blur_partition,
            el.evolve(two_state_chain, blur_partition),
            budget=0,
            seed=0,
        )
        default = el.cnt_search(two_state_chain, blur_partition, budget=0, seed=0)
        assert explicit.best_value == default.best_value

    def test_cap(self, doubly_stochastic):
        part = el.sharp_partition([[0, 1], [2]], 3)
        with pytest.raises(CapExceededError):
            el.cnt_search(doubly_stochastic, part, budget=0, seed=0, cap=100)

    @pytest.mark.parametrize("n", [748, 760])
    def test_cap_message_past_the_int_string_limit(self, n):
        # 748^1496 has 4 300 digits, Python's default int-string limit, and
        # prints in full; 760^1520 is past it and prints as a power.  The
        # explicit measure skips the solve, so the chain is cheap to build.
        system = el.make_bernoulli(np.full(n, 1 / n))
        with pytest.raises(CapExceededError) as info:
            el.cnt_search(system, el.uniform_unsharp(n, 2), budget=0, seed=0)
        count = str(n ** (2 * n)) if n == 748 else "760^1520"
        assert str(info.value) == (
            f"identification enumeration would visit {count} map tuples, "
            f"cap is {DEFAULT_ENUMERATION_CAP}"
        )

    @pytest.mark.parametrize(
        "limit, n, count",
        [
            (640, 147, str(147**294)),
            (640, 148, "148^296"),
            (640, 300, "300^600"),
            (0, 760, "760^1520"),
        ],
        ids=["640-fits", "640-past", "640-300-states", "unlimited"],
    )
    def test_cap_message_under_the_int_string_limit_in_force(self, limit, n, count):
        # Under a limit of 640 digits, 147^294 (638 digits) prints in full, and
        # 148^296 (643 digits) and 300^600 (1 487) as powers; no limit at all
        # counts as 4 300 digits.
        system = el.make_bernoulli(np.full(n, 1 / n))
        with int_str_limit(limit), pytest.raises(CapExceededError) as info:
            el.cnt_search(system, el.uniform_unsharp(n, 2), budget=0, seed=0)
        assert str(info.value) == (
            f"identification enumeration would visit {count} map tuples, "
            f"cap is {DEFAULT_ENUMERATION_CAP}"
        )

    def test_negative_seed_rejected(self, two_state_chain, coin_extremal):
        with pytest.raises(ValidationError, match="seed"):
            el.cnt_search(two_state_chain, coin_extremal, budget=2, seed=-3)

    def test_budget_zero(self, two_state_chain, coin_extremal):
        result = el.cnt_search(two_state_chain, coin_extremal, budget=0, seed=0)
        assert result.random_trials == 0
        assert result.best_value >= -1e-12


def _recorded_search(system, f, g, budget, seed, chunk=dynamical.SCAN_CHUNK):
    """Run ``cnt_search`` and record, per ``cnt_functional`` call, its arguments, its value
    and the memo open at the time (None outside the identification scan)."""
    real, calls = dynamical.cnt_functional, []

    def recorded(mu, decomposition, partitions):
        value = real(mu, decomposition, partitions)
        calls.append((decomposition, list(partitions), value, decompositions._MARGINALS.get()))
        return value

    with (
        mock.patch.object(dynamical, "cnt_functional", recorded),
        mock.patch.object(dynamical, "SCAN_CHUNK", chunk),
    ):
        result = el.cnt_search(system, f, g, budget=budget, seed=seed)
    return result, calls


class TestMarginalMemo:
    """The identification scan computes each distinct marginal's information once."""

    @settings(max_examples=30)
    @given(scan_cases())
    def test_scan_values_equal_fresh_calls_bit_for_bit(self, case):
        system, f, g, budget, seed, chunk = case
        _, calls = _recorded_search(system, f, g, budget, seed, chunk)
        n = system.n_states
        assert len(calls) == 1 + n ** (2 * n) + budget
        assert decompositions._MARGINALS.get() is None
        for decomposition, parts, value, _ in calls:
            fresh = el.cnt_functional(system.stationary, decomposition, parts)
            assert fresh.hex() == value.hex()

    @settings(max_examples=30)
    @given(scan_cases().filter(lambda case: case[3] > 0))
    def test_memo_spans_the_identifications_and_stays_bounded(self, case):
        """Open for every identification, closed for the trivial decomposition and every
        random trial, and never above 2 n^n + 2 entries, whatever the budget."""
        system, f, g, budget, seed, chunk = case
        _, calls = _recorded_search(system, f, g, budget, seed, chunk)
        n = system.n_states
        memos = [memo for *_, memo in calls]
        assert memos[0] is None and memos[1 + n ** (2 * n) :] == [None] * budget
        scan = memos[1 : 1 + n ** (2 * n)]
        assert all(memo is scan[0] for memo in scan)
        entries, capacity = scan[0]
        assert capacity == 2 * n**n + 2
        assert 1 <= len(entries) <= capacity

    def test_each_stored_marginal_is_computed_once(self, doubly_stochastic):
        real, misses = decompositions._information, []

        def counted(*args):
            misses.append(decompositions._MARGINALS.get() is not None)
            return real(*args)

        part = el.sharp_partition([[0, 1], [2]], 3)
        with mock.patch.object(decompositions, "_information", counted):
            _, calls = _recorded_search(doubly_stochastic, part, None, budget=5, seed=3)
        entries, capacity = calls[1][3]
        assert len(entries) < capacity
        assert sum(misses) == len(entries) < 2 * 3**6
        assert len(misses) - sum(misses) == 2 * (1 + 5)

    def test_a_full_memo_computes_a_miss_without_storing_it(self):
        base = np.array([0.5, 0.5])
        weights = np.array([0.5, 0.5])
        rows = [np.array([[0.2, 0.8], [0.8, 0.2]]), np.array([[0.4, 0.6], [0.6, 0.4]])]
        memo = ({}, 1)
        values = [decompositions._marginal_information(memo, weights, base, r) for r in rows]
        assert len(memo[0]) == 1
        again = decompositions._marginal_information(memo, weights, base, rows[1])
        assert len(memo[0]) == 1
        for r, value in zip(rows, values):
            assert decompositions._information(weights, base, r).hex() == value.hex()
        assert again.hex() == values[1].hex()

    def test_memo_closed_after_a_cap(self, doubly_stochastic):
        part = el.sharp_partition([[0, 1], [2]], 3)
        with mock.patch.object(dynamical, "cnt_functional") as evaluate:
            with pytest.raises(CapExceededError):
                el.cnt_search(doubly_stochastic, part, budget=0, seed=0, cap=728)
        evaluate.assert_not_called()
        assert decompositions._MARGINALS.get() is None

    def test_memo_closed_after_a_raise_mid_scan(self, doubly_stochastic):
        real, calls = dynamical.cnt_functional, []

        def fails_at_the_hundredth(mu, decomposition, partitions):
            calls.append(decompositions._MARGINALS.get())
            if len(calls) == 100:
                raise InequalityViolationError("forced")
            return real(mu, decomposition, partitions)

        part = el.sharp_partition([[0, 1], [2]], 3)
        with mock.patch.object(dynamical, "cnt_functional", fails_at_the_hundredth):
            with pytest.raises(InequalityViolationError, match="forced"):
                el.cnt_search(doubly_stochastic, part, budget=4, seed=0)
        assert calls[-1] is not None and calls[-1][0]
        assert decompositions._MARGINALS.get() is None

    def test_form_disagreement_on_a_miss_raises_inside_the_scan(self, doubly_stochastic):
        """A miss after the memo holds entries still runs the two-form cross-check."""
        real, skewed = decompositions.relative_entropy_rows, []

        def skew_once_stored(rows, q):
            values = real(rows, q)
            memo = decompositions._MARGINALS.get()
            if memo is not None and len(memo[0]) >= 5:
                skewed.append(len(memo[0]))
                return values + 1e-6
            return values

        part = el.sharp_partition([[0, 1], [2]], 3)
        with mock.patch.object(decompositions, "relative_entropy_rows", skew_once_stored):
            with pytest.raises(InequalityViolationError, match="forms disagree"):
                el.cnt_search(doubly_stochastic, part, budget=0, seed=0)
        assert skewed == [5]
        assert decompositions._MARGINALS.get() is None


class TestRhoAfl:
    def test_frozen_blur(self, two_state_chain, blur_partition):
        rho = el.rho_afl(two_state_chain, blur_partition, 1)
        base = el.distribution(two_state_chain.stationary, blur_partition)
        assert np.diagonal(rho) == pytest.approx(base, abs=1e-15)
        assert rho[0, 1] == pytest.approx(0.4194191898318613, abs=1e-15)

    def test_depth_one_equals_gram(self, two_state_chain, blur_partition):
        a = el.rho_afl(two_state_chain, blur_partition, 1)
        m = gram_state(two_state_chain.stationary, blur_partition.response)
        assert np.max(np.abs(a - m)) <= 1e-12

    def test_matches_path_oracle(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            n, k, depth = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
            system = random_system(rng, n)
            part = random_partition(rng, n, k)
            lib = el.rho_afl(system, part, depth)
            ref = path_rho_afl(system, part.response, depth)
            assert np.max(np.abs(lib - ref)) <= 1e-12

    def test_sharp_shortcut_matches_path_oracle(self, two_state_chain, coin_extremal):
        for depth in (1, 2, 3):
            lib = el.rho_afl(two_state_chain, coin_extremal, depth)
            ref = path_rho_afl(two_state_chain, coin_extremal.response, depth)
            assert np.max(np.abs(lib - ref)) <= 1e-12
            off = lib - np.diag(np.diagonal(lib))
            assert np.max(np.abs(off)) == 0.0

    def test_totally_mixing_is_pure(self, two_state_chain):
        part = el.uniform_unsharp(2, 2)
        rho = el.rho_afl(two_state_chain, part, 3)
        assert el.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_is_density_matrix(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            system = random_system(rng, 3)
            part = random_partition(rng, 3, 2)
            rho = el.rho_afl(system, part, 3)
            assert np.max(np.abs(rho - rho.T)) == 0.0
            assert abs(float(np.trace(rho)) - 1.0) <= 1e-10
            assert el.symmetric_eigenvalues(rho)[-1] >= -1e-10

    def test_dim_cap(self, two_state_chain, blur_partition):
        with pytest.raises(CapExceededError):
            el.rho_afl(two_state_chain, blur_partition, 12)


class TestEntropySequence:
    def test_markov_block_entropy_closed_form(self, two_state_chain, coin_extremal):
        seq = el.entropy_sequence(
            two_state_chain, coin_extremal, el.EntropyKind.KOW, 6
        )
        for depth in range(1, 7):
            assert seq.values[depth - 1] == pytest.approx(
                markov_block_entropy(two_state_chain, depth), abs=1e-10
            )

    def test_increment_convention(self, two_state_chain, coin_extremal):
        seq = el.entropy_sequence(two_state_chain, coin_extremal, el.EntropyKind.KOW, 3)
        assert seq.increments[0] == seq.values[0]
        assert seq.increments[2] == pytest.approx(
            float(seq.values[2] - seq.values[1]), abs=1e-15
        )
        assert seq.ratios[1] == pytest.approx(float(seq.values[1]) / 2.0, abs=1e-15)

    def test_truncation_marker(self, two_state_chain, coin_extremal):
        seq = el.entropy_sequence(
            two_state_chain, coin_extremal, el.EntropyKind.KOW, 6, word_cap=8
        )
        assert seq.truncated_at == 4
        assert seq.n_max == 3

    def test_rejects_values_that_are_not_a_vector(self):
        with pytest.raises(ValidationError, match="one-dimensional"):
            el.EntropySequence(el.EntropyKind.KOW, [[0.1, 0.2]])

    @pytest.mark.parametrize("bad", [-1e-6, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_rejects_values_that_are_not_finite_and_non_negative(self, bad):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            el.EntropySequence(el.EntropyKind.KOW, [0.1, bad])

    def test_rejects_bad_nmax(self, two_state_chain, coin_extremal):
        with pytest.raises(ValidationError):
            el.entropy_sequence(two_state_chain, coin_extremal, el.EntropyKind.KOW, 0)

    def test_hud_mak_saturate_for_sharp_extremal(self, two_state_chain, coin_extremal):
        for kind in (el.EntropyKind.HUD, el.EntropyKind.MAK):
            seq = el.entropy_sequence(two_state_chain, coin_extremal, kind, 4)
            assert np.max(np.abs(seq.values - S_MU_CHAIN)) <= 1e-10


    def test_dim_cap_bounds_the_diagonalized_side(self, two_state_chain, blur_partition):
        # mak diagonalizes the 2 x 2 side; afl diagonalizes its 2^N word side.
        mak = el.entropy_sequence(
            two_state_chain, blur_partition, el.EntropyKind.MAK, 4, dim_cap=2
        )
        afl = el.entropy_sequence(
            two_state_chain, blur_partition, el.EntropyKind.AFL, 4, dim_cap=4
        )
        assert mak.truncated_at is None
        assert afl.truncated_at == 3
        assert el.entropy_sequence(
            two_state_chain, blur_partition, el.EntropyKind.MAK, 1, dim_cap=1
        ).truncated_at == 1

    @pytest.mark.parametrize("sharp", [False, True], ids=["unsharp", "sharp"])
    def test_word_cap_bounds_afl(self, two_state_chain, blur_partition, coin_extremal, sharp):
        # The afl state is indexed by the k^N words; its sharp branch refines them.
        part = coin_extremal if sharp else blur_partition
        full = el.entropy_sequence(two_state_chain, part, el.EntropyKind.AFL, 4)
        capped = el.entropy_sequence(two_state_chain, part, el.EntropyKind.AFL, 4, word_cap=4)
        assert full.truncated_at is None
        assert capped.truncated_at == 3
        assert list(capped.values) == list(full.values[:2])

    @pytest.mark.parametrize("kind", list(el.EntropyKind))
    @pytest.mark.parametrize(
        "caps, message",
        [
            ({"word_cap": 0}, "word_cap must be >= 1, got 0"),
            ({"word_cap": -3}, "word_cap must be >= 1, got -3"),
            ({"dim_cap": 0}, "dim_cap must be >= 1, got 0"),
        ],
    )
    def test_caps_below_one_are_rejected_for_every_kind(
        self, two_state_chain, blur_partition, kind, caps, message
    ):
        # Each kind reads only one of the caps, but both are checked for all.
        with pytest.raises(ValidationError, match=message):
            el.entropy_sequence(two_state_chain, blur_partition, kind, 3, **caps)

    def test_word_objects_reject_a_cap_below_one(self, two_state_chain, blur_partition):
        for refine in (el.refine_afl, el.refine_mak):
            with pytest.raises(ValidationError, match="word_cap must be >= 1, got 0"):
                refine(two_state_chain, blur_partition, 2, word_cap=0)
        with pytest.raises(ValidationError, match="dim_cap must be >= 1, got -1"):
            el.rho_afl(two_state_chain, blur_partition, 2, dim_cap=-1)
        with pytest.raises(ValidationError, match="word_cap must be >= 1, got 0"):
            el.sample_words(two_state_chain, blur_partition, 2, 10, 1, word_cap=0)


CAPS = st.integers(1, 6) | st.integers(7, 256)


def _kind_cap(kind, word_cap: int, dim_cap: int) -> int:
    """The cap on k^N for one kind: afl's state is indexed by words, so both caps bound it."""
    return min(word_cap, dim_cap) if kind is el.EntropyKind.AFL else word_cap


@st.composite
def cap_cases(draw):
    """A chain, a partition, a kind, both caps and a depth at the edge of the kind's cap.

    The caps are at most 256, so the afl state stays at most 256 wide.
    """
    n = draw(st.integers(1, 4))
    part = draw(partitions(n))
    kind = draw(st.sampled_from(list(el.EntropyKind)))
    word_cap, dim_cap = draw(CAPS), draw(CAPS)
    depth = draw(depths(part.n_outcomes, _kind_cap(kind, word_cap, dim_cap)))
    return draw(systems(n)), part, kind, word_cap, dim_cap, depth


class TestCapBoundaries:
    @settings(max_examples=150)
    @given(cap_cases())
    def test_every_kind_stops_at_the_first_depth_past_its_cap(self, case):
        system, part, kind, word_cap, dim_cap, depth = case
        k = part.n_outcomes
        last = last_depth(k, _kind_cap(kind, word_cap, dim_cap))
        if kind is el.EntropyKind.MAK and system.n_states > dim_cap:
            last = 0  # the n x n Gram side is over the cap at every depth
        seq = el.entropy_sequence(system, part, kind, depth, word_cap=word_cap, dim_cap=dim_cap)
        if depth > last:
            assert seq.truncated_at == last + 1
            assert seq.n_max == seq.truncated_at - 1
        else:
            assert seq.truncated_at is None
            assert seq.n_max == depth
        # The word objects read word_cap alone.
        last_word = last_depth(k, word_cap)
        if last_word >= 1:
            assert el.refine_afl(system, part, last_word, word_cap=word_cap).n_words == k**last_word
            assert el.sample_words(system, part, last_word, 5, 0, word_cap=word_cap).sum() == 5
        with pytest.raises(CapExceededError):
            el.refine_afl(system, part, last_word + 1, word_cap=word_cap)
        with pytest.raises(CapExceededError):
            el.sample_words(system, part, last_word + 1, 5, 0, word_cap=word_cap)


@st.composite
def sharp_chains(draw):
    """A chain, a sharp partition of it and a depth with k^depth at most 256."""
    n = draw(st.integers(1, 4))
    part = draw(partitions(n, kinds=("sharp", "one")))
    return draw(systems(n)), part, draw(depths(part.n_outcomes, 256, ("inner", "last")))


class TestSharpAfl:
    """A sharp afl state is its diagonal word law: its entropy needs no LAPACK call."""

    def test_sequence_runs_without_eigh(self, doubly_stochastic):
        part = el.sharp_partition([[0], [1, 2]], 3)
        with (
            mock.patch("numpy.linalg.eigh", side_effect=AssertionError("eigh was called")),
            mock.patch(
                "entropy_lab.entropy.symmetric_eigenvalues",
                wraps=el.symmetric_eigenvalues,
            ) as spectra,
        ):
            afl = el.entropy_sequence(doubly_stochastic, part, el.EntropyKind.AFL, 7)
        assert afl.n_max == 7 and afl.truncated_at is None
        assert spectra.call_count == 7
        kow = el.entropy_sequence(doubly_stochastic, part, el.EntropyKind.KOW, 7)
        assert np.max(np.abs(afl.values - kow.values)) <= 1e-12

    @settings(max_examples=60)
    @given(sharp_chains())
    def test_afl_equals_kow_on_sharp_chains(self, case):
        system, part, depth = case
        with mock.patch("numpy.linalg.eigh", side_effect=AssertionError("eigh was called")):
            afl = el.entropy_sequence(system, part, el.EntropyKind.AFL, depth)
        kow = el.entropy_sequence(system, part, el.EntropyKind.KOW, depth)
        assert afl.n_max == kow.n_max == depth
        assert np.max(np.abs(afl.values - kow.values)) <= 1e-12


@st.composite
def gram_cases(draw):
    """A chain on 2 to 4 states, a partition and a depth with k^depth at most 128.

    Outcome counts reach 6, so k > n occurs.
    """
    n = draw(st.integers(2, 4))
    part = draw(partitions(n))
    return draw(systems(n)), part, draw(depths(part.n_outcomes, 128, ("inner", "last")))


class TestMakStateSide:
    @settings(max_examples=80)
    @given(gram_cases())
    def test_mak_state_side_matches_gram_state(self, case):
        system, part, depth = case
        refined = el.refine_afl(system, part, depth)
        side = _mak_state_side(system.stationary, refined, DEFAULT_DIM_CAP)
        assert side.shape == (system.n_states, system.n_states)
        full = el.von_neumann_entropy(gram_state(system.stationary, refined.elements))
        assert abs(el.von_neumann_entropy(side) - full) <= 1e-12
        seq = el.entropy_sequence(system, part, el.EntropyKind.MAK, depth)
        assert abs(seq.values[-1] - full) <= 1e-12

    @settings(max_examples=80)
    @given(gram_cases())
    def test_afl_and_mak_states_are_exactly_symmetric(self, case):
        # Both states are returned as built, so symmetric_eigenvalues takes
        # its exact path on them; its tolerance symmetrization is for outside input.
        system, part, max_depth = case
        for depth in range(1, max_depth + 1):
            rho = el.rho_afl(system, part, depth)
            assert np.array_equal(rho, rho.T)
            refined = el.refine_afl(system, part, depth)
            side = _mak_state_side(system.stationary, refined, DEFAULT_DIM_CAP)
            assert np.array_equal(side, side.T)

    def test_frozen_blur(self, two_state_chain, blur_partition):
        mu = two_state_chain.stationary
        side = _mak_state_side(mu, el.refine_afl(two_state_chain, blur_partition, 1), 2)
        assert np.diagonal(side) == pytest.approx(mu, abs=1e-15)
        assert side[0, 1] == pytest.approx(0.4073235284134896, abs=1e-15)
        assert el.von_neumann_entropy(side) == pytest.approx(0.22668532164552682, abs=1e-14)

    def test_spectrum_matches_gram_oracle(self):
        # S S^T and S^T S share their nonzero eigenvalues; the rest are zeros.
        rng = np.random.default_rng(83)
        for _ in range(20):
            n, k, depth = (int(v) for v in rng.integers((2, 2, 1), (5, 5, 4)))
            system = random_system(rng, n)
            refined = el.refine_afl(system, random_partition(rng, n, k), depth)
            side = el.symmetric_eigenvalues(
                _mak_state_side(system.stationary, refined, DEFAULT_DIM_CAP)
            )
            full = el.symmetric_eigenvalues(gram_state(system.stationary, refined.elements))
            size = max(side.size, full.size)
            side, full = np.pad(side, (0, size - side.size)), np.pad(full, (0, size - full.size))
            assert np.max(np.abs(side - full)) <= 1e-13

    def test_is_density_matrix(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            system = random_system(rng, n)
            refined = el.refine_afl(system, random_partition(rng, n, k), 3)
            side = _mak_state_side(system.stationary, refined, DEFAULT_DIM_CAP)
            assert np.array_equal(side, side.T)
            assert abs(float(np.trace(side)) - 1.0) <= 1e-12
            assert el.symmetric_eigenvalues(side)[-1] >= -1e-10

    def test_sharp_gives_diagonal(self, two_state_chain, coin_extremal):
        mu = two_state_chain.stationary
        for depth in (1, 2, 3):
            refined = el.refine_afl(two_state_chain, coin_extremal, depth)
            side = _mak_state_side(mu, refined, DEFAULT_DIM_CAP)
            assert side[0, 1] == 0.0 and side[1, 0] == 0.0
            assert np.diagonal(side) == pytest.approx(mu, abs=1e-15)

    def test_dim_cap(self, two_state_chain, coin_extremal):
        refined = el.refine_afl(two_state_chain, coin_extremal, 12)
        with pytest.raises(CapExceededError, match="Gram side would be 2 x 2, cap is 1"):
            _mak_state_side(two_state_chain.stationary, refined, 1)


class TestSequenceValues:
    @settings(max_examples=80)
    @given(gram_cases())
    def test_hud_and_kow_equal_their_public_functionals(self, case):
        system, part, depth = case
        mu = system.stationary
        hud = el.entropy_sequence(system, part, el.EntropyKind.HUD, depth).values
        kow = el.entropy_sequence(system, part, el.EntropyKind.KOW, depth).values
        for n in range(1, depth + 1):
            refined = el.refine_afl(system, part, n)
            assert hud[n - 1] == el.hud_functional(mu, refined)
            assert kow[n - 1] == el.shannon_entropy(el.distribution(mu, refined))

    def test_unknown_kind_raises_before_refining(
        self, monkeypatch, two_state_chain, blur_partition
    ):
        monkeypatch.setattr("entropy_lab.dynamical.refine_afl", lambda *a, **k: pytest.fail())
        with pytest.raises(ValidationError, match="unknown entropy kind"):
            el.entropy_sequence(two_state_chain, blur_partition, "kow", 2)


class TestRateEstimate:
    """A rate estimate is the tail of its sequence, as ``cli._estimate_doc`` reports it."""

    def test_markov_rate(self, two_state_chain, coin_extremal):
        seq = el.entropy_sequence(two_state_chain, coin_extremal, el.EntropyKind.KOW, 8)
        est = _estimate_doc(seq, "nats")
        assert est["last_increment"] == pytest.approx(H_CHAIN, abs=1e-10)
        assert est["last_ratio"] == pytest.approx(
            (S_MU_CHAIN + 7 * H_CHAIN) / 8.0, abs=1e-10
        )
        assert est["depth"] == 8

    @settings(max_examples=100)
    @given(
        st.sampled_from(list(el.EntropyKind)),
        st.lists(
            st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False), min_size=2, max_size=12
        ).map(sorted),
    )
    def test_estimate_is_the_sequence_tail(self, kind, values):
        est = _estimate_doc(el.EntropySequence(kind, values), "nats")
        n = len(values)
        assert est["kind"] == kind.value
        assert est["depth"] == n
        assert est["last_increment"] == values[-1] - values[-2]
        assert est["last_ratio"] == values[-1] / n

    @pytest.mark.parametrize("values", [[], [0.5]])
    def test_no_estimate_below_two_values(self, values):
        assert _estimate_doc(el.EntropySequence(el.EntropyKind.KOW, values), "nats") is None


@st.composite
def sweep_cases(draw):
    """A chain on at most 5 states, a kind, an nmax and small caps for the sharp sweep."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(list(el.EntropyKind)))
    return draw(systems(n)), kind, draw(st.integers(2, 7)), draw(CAPS), draw(CAPS)


class TestIterSetPartitions:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bell_counts(self, n):
        assert sum(1 for _ in iter_set_partitions(n)) == BELL_NUMBERS[n]

    def test_canonical_order_endpoints(self):
        parts = list(iter_set_partitions(3))
        assert parts[0] == ((0, 1, 2),)
        assert parts[-1] == ((0,), (1,), (2,))

    def test_cells_are_canonical(self):
        for cells in iter_set_partitions(4):
            firsts = [cell[0] for cell in cells]
            assert firsts == sorted(firsts)
            for cell in cells:
                assert list(cell) == sorted(cell)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("cells", ["none", 1, 2, "n"])
    def test_order_equals_filtered_product(self, n, cells):
        # sup_over_sharp breaks rate ties by this order, so all of it is pinned,
        # and so is its restriction to the partitions of at most 1 or 2 cells.
        limit = {"none": n, "n": n}.get(cells, cells)
        ours = [p for p in iter_set_partitions(n) if len(p) <= limit]
        assert ours == [p for p in set_partitions_by_product(n) if len(p) <= limit]


class TestSupOverSharp:
    def test_chain_winner_is_extremal(self, two_state_chain):
        result = el.sup_over_sharp(two_state_chain, el.EntropyKind.KOW, 6)
        assert result.cells == ((0,), (1,))
        assert result.sequence.increments[-1] == pytest.approx(H_CHAIN, abs=1e-9)
        assert result.candidates == 2

    def test_deterministic_cycle_all_rates_zero(self, three_cycle):
        result = el.sup_over_sharp(three_cycle, el.EntropyKind.KOW, 5)
        assert result.sequence.increments[-1] == pytest.approx(0.0, abs=1e-10)
        # tie on rate 0 resolves to the lexicographically smallest cell list,
        # which among canonical partitions is the one into singletons
        assert result.cells == ((0,), (1,), (2,))
        assert result.candidates == BELL_NUMBERS[3]

    def test_word_cap_ranks_every_candidate_at_the_singletons_depth(self, doubly_stochastic):
        # The singletons have 9 words at depth 2 and 27 at depth 3, so word_cap 9 stops
        # them at depth 3, and all five candidates are ranked at depth 2.
        result = el.sup_over_sharp(doubly_stochastic, el.EntropyKind.KOW, 3, word_cap=9)
        assert result.candidates == BELL_NUMBERS[3]
        assert result.sequence.n_max == 2
        assert result.sequence.truncated_at == 3

    @pytest.mark.parametrize("kind", list(el.EntropyKind))
    @pytest.mark.parametrize("caps", [{}, {"word_cap": 9}])
    def test_each_candidate_is_evaluated_once(self, doubly_stochastic, kind, caps):
        # The partition into singletons finds the sweep depth and is then ranked on
        # that same sequence, so the sweep computes Bell(3) = 5 sequences in all.
        wrapped = dynamical.entropy_sequence
        with mock.patch.object(dynamical, "entropy_sequence", wraps=wrapped) as counted:
            result = el.sup_over_sharp(doubly_stochastic, kind, 3, **caps)
        assert counted.call_count == BELL_NUMBERS[3]
        assert result.candidates == BELL_NUMBERS[3]

    @pytest.mark.parametrize(
        "kind, caps",
        [("kow", {"word_cap": 1}), ("mak", {"dim_cap": 1}), ("afl", {"dim_cap": 1})],
    )
    def test_caps_that_stop_every_candidate(self, doubly_stochastic, kind, caps):
        # The singletons stop before depth 2, so no candidate is ranked.
        caps = {"word_cap": DEFAULT_WORD_CAP, "dim_cap": DEFAULT_DIM_CAP} | caps
        with pytest.raises(CapExceededError) as info:
            el.sup_over_sharp(doubly_stochastic, el.EntropyKind(kind), 3, **caps)
        assert str(info.value) == (
            "the partition into singletons stopped before depth 2 "
            f"(word_cap {caps['word_cap']}, dim_cap {caps['dim_cap']})"
        )

    @settings(max_examples=200)
    @given(sweep_cases())
    def test_no_candidate_stops_before_the_singletons(self, case):
        system, kind, n_max, word_cap, dim_cap = case
        n = system.n_states
        caps = {"word_cap": word_cap, "dim_cap": dim_cap}
        sequences = {
            cells: el.entropy_sequence(system, el.sharp_partition(cells, n), kind, n_max, **caps)
            for cells in iter_set_partitions(n)
        }
        reach = sequences[tuple((x,) for x in range(n))]
        assert all(seq.n_max >= reach.n_max for seq in sequences.values())
        if reach.n_max < 2:
            with pytest.raises(CapExceededError, match="singletons stopped before depth 2"):
                el.sup_over_sharp(system, kind, n_max, **caps)
            return
        result = el.sup_over_sharp(system, kind, n_max, **caps)
        assert result.candidates == BELL_NUMBERS[n]
        assert result.sequence.n_max == reach.n_max
        assert result.sequence.truncated_at == reach.truncated_at
        depth = reach.n_max
        assert np.array_equal(result.sequence.values, sequences[result.cells].values[:depth])
        rates = [seq.values[depth - 1] - seq.values[depth - 2] for seq in sequences.values()]
        assert result.sequence.increments[-1] >= max(rates) - 1e-12

    def test_result_fields(self):
        assert [f.name for f in dataclasses.fields(el.SupResult)] == [
            "cells", "sequence", "candidates"
        ]

    def test_rejects_large_systems(self):
        system = el.make_bernoulli(np.full(9, 1.0 / 9.0))
        with pytest.raises(ValidationError, match="at most 8"):
            el.sup_over_sharp(system, el.EntropyKind.KOW, 3)

    def test_rejects_short_horizon(self, two_state_chain):
        with pytest.raises(ValidationError):
            el.sup_over_sharp(two_state_chain, el.EntropyKind.KOW, 1)
