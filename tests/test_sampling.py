"""Word sampling, empirical distributions, and total-variation checks."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entropy_lab as el

from entropy_lab import (
    empirical_distribution,
    refine_afl,
    sample_words,
    tv_bound,
    tv_distance,
)
from entropy_lab.partitions import distribution
from entropy_lab._errors import CapExceededError, ValidationError

from conftest import fixture_path, random_system, random_partition
from oracles import path_word_distribution, sample_words_by_groups, sample_words_rowwise
from strategies import partitions, systems


class TestSampleWords:
    def test_same_seed_same_counts(self, two_state_chain, blur_partition):
        a = sample_words(two_state_chain, blur_partition, 3, 500, 7)
        b = sample_words(two_state_chain, blur_partition, 3, 500, 7)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self, two_state_chain, blur_partition):
        a = sample_words(two_state_chain, blur_partition, 3, 500, 7)
        b = sample_words(two_state_chain, blur_partition, 3, 500, 8)
        assert not np.array_equal(a, b)

    def test_counts_shape_and_total(self, two_state_chain, blur_partition):
        counts = sample_words(two_state_chain, blur_partition, 4, 1000, 0)
        assert counts.shape == (2 ** 4,)
        assert counts.dtype == np.int64
        assert counts.min() >= 0
        assert counts.sum() == 1000

    def test_sharp_coin_frequency_near_half(self, fair_coin, coin_extremal):
        counts = sample_words(fair_coin, coin_extremal, 1, 200000, 11)
        assert abs(counts[0] / counts.sum() - 0.5) < 0.01

    def test_word_cap_enforced(self, two_state_chain, blur_partition):
        with pytest.raises(CapExceededError, match="cap"):
            sample_words(two_state_chain, blur_partition, 5, 10, 0, word_cap=16)

    def test_sample_count_validated(self, two_state_chain, blur_partition):
        with pytest.raises(ValidationError, match="sample"):
            sample_words(two_state_chain, blur_partition, 2, 0, 0)

    def test_sample_count_beyond_int64_rejected(self, two_state_chain, blur_partition):
        with pytest.raises(ValidationError, match=f"at most {2**63 - 1} samples"):
            sample_words(two_state_chain, blur_partition, 2, 2**63, 0)

    def test_depth_validated(self, two_state_chain, blur_partition):
        with pytest.raises(ValidationError, match="depth"):
            sample_words(two_state_chain, blur_partition, 0, 10, 0)

    def test_partition_must_match_system(self, doubly_stochastic, blur_partition):
        with pytest.raises(ValidationError, match="state count"):
            sample_words(doubly_stochastic, blur_partition, 2, 10, 0)

    def test_negative_seed_rejected(self, two_state_chain, blur_partition):
        with pytest.raises(ValidationError, match="seed"):
            sample_words(two_state_chain, blur_partition, 2, 10, -1)

    def test_rows_that_sum_to_one_plus_1e_10(self, tmp_path):
        # numpy's multinomial rejects rows whose leading entries sum above
        # 1 + 1e-12; documents accept row sums within 1e-9 and normalize them.
        row = [0.5 + 5e-11, 0.5 + 5e-11, 0.0]
        (tmp_path / "system.json").write_text(
            json.dumps({"transition": [row, [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]]})
        )
        (tmp_path / "partition.json").write_text(
            json.dumps({"response": [row, [0.1, 0.2, 0.7], [0.4, 0.4, 0.2]]})
        )
        with pytest.raises(ValueError, match="pvals"):
            np.random.default_rng(0).multinomial(10, row)
        system = el.load_system(str(tmp_path / "system.json"))
        part = el.load_partition(str(tmp_path / "partition.json"), system)
        counts = sample_words(system, part, 3, 5000, 1)
        assert counts.sum() == 5000


class TestFrozenStream:
    """Counts pinned to the draw order of ``sample_words`` for a given seed.

    From depth 2 on the last symbol is drawn from the evolved response.
    Depth 1 has no transition to fuse, so its draws must not move.
    """

    def test_unsharp_two_state_chain(self, two_state_chain, blur_partition):
        counts = sample_words(two_state_chain, blur_partition, 3, 65543, 7)
        assert counts.tolist() == [20897, 8091, 7308, 5191, 8035, 4557, 5306, 6158]

    def test_sharp_split_of_the_doubly_stochastic_chain(self):
        system = el.load_system(fixture_path("systems", "three_state_doubly.json"))
        part = el.load_partition(fixture_path("partitions", "three_split.json"), system)
        counts = sample_words(system, part, 2, 65543, 7)
        assert counts.tolist() == [26120, 17458, 17557, 4408]

    def test_depth_one_draws_unchanged(self, two_state_chain, blur_partition):
        counts = sample_words(two_state_chain, blur_partition, 1, 65543, 7)
        assert counts.tolist() == [41487, 24056]


@st.composite
def sampling_cases(draw):
    """A chain on 2 to 6 states, a partition, a depth up to 4, a sample count and a seed.

    The sample count is 1 or lies below, at or above n * k^depth, the most
    (state, word) groups there can be.
    """
    n = draw(st.integers(2, 6))
    system, part = draw(systems(n)), draw(partitions(n))
    depth = draw(st.integers(1, 4))
    groups = n * part.n_outcomes**depth
    n_samples = draw(st.sampled_from((1, groups // 3 + 1, groups, 40 * groups)))
    return system, part, depth, n_samples, draw(st.integers(0, 2**32))


def chain_case(n: int, k: int, depth: int, n_samples: int):
    """A dense chain on n states and an unsharp partition with k outcomes."""
    rng = np.random.default_rng(n * 100 + k)
    return random_system(rng, n), random_partition(rng, n, k), depth, n_samples, 3


class TestAgainstGroupOracle:
    @settings(max_examples=60)
    @given(sampling_cases())
    # n * k^depth far exceeds the sample count: most merge entries are never occupied.
    @example(chain_case(3, 2, 8, 50))
    @example(chain_case(6, 6, 5, 200))
    # Depth 1 has no fused step; depth 2 has the fused step and no merge.
    @example(chain_case(4, 3, 1, 5000))
    @example(chain_case(4, 3, 2, 5000))
    def test_counts_equal_the_per_group_loop(self, case):
        system, part, depth, n_samples, seed = case
        counts = sample_words(system, part, depth, n_samples, seed)
        oracle = sample_words_by_groups(
            system.transition, system.stationary, part.response, depth, n_samples, seed
        )
        assert counts.dtype == np.int64
        assert np.array_equal(counts, oracle)


class TestEmpiricalDistribution:
    def test_normalizes_counts(self):
        emp = empirical_distribution(np.array([1, 3, 0, 4]))
        np.testing.assert_allclose(emp, [0.125, 0.375, 0.0, 0.5], atol=0)
        assert emp.sum() == 1.0

    def test_rejects_negative_or_empty(self):
        with pytest.raises(ValidationError):
            empirical_distribution(np.array([1, -1, 2]))
        with pytest.raises(ValidationError):
            empirical_distribution(np.array([0, 0]))
        with pytest.raises(ValidationError):
            empirical_distribution(np.zeros((2, 2)))


class TestTvDistance:
    def test_frozen_value(self):
        assert tv_distance([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.25, abs=1e-15)

    def test_zero_on_identical(self, two_state_chain, blur_partition):
        ref = refine_afl(two_state_chain, blur_partition, 3)
        d = distribution(two_state_chain.stationary, ref)
        assert tv_distance(d, d) == 0.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValidationError, match="mismatch"):
            tv_distance([1.0], [0.5, 0.5])


class TestTvBound:
    def test_formula(self):
        assert tv_bound(4, 10000) == pytest.approx(1.5 * np.sqrt(4 / 10000), abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            tv_bound(0, 100)
        with pytest.raises(ValidationError):
            tv_bound(4, 0)


class TestAgreementWithAnalyticLaw:
    def test_empirical_within_bound_on_chain(self, two_state_chain, blur_partition):
        depth, n = 2, 200000
        counts = sample_words(two_state_chain, blur_partition, depth, n, 19)
        emp = empirical_distribution(counts)
        ref = refine_afl(two_state_chain, blur_partition, depth)
        analytic = distribution(two_state_chain.stationary, ref)
        assert tv_distance(emp, analytic) <= tv_bound(2 ** depth, n)

    def test_empirical_matches_path_oracle_entrywise(self, fair_coin, coin_extremal):
        depth, n = 3, 400000
        counts = sample_words(fair_coin, coin_extremal, depth, n, 2)
        emp = empirical_distribution(counts)
        exact = path_word_distribution(fair_coin, coin_extremal.response, depth)
        assert np.max(np.abs(emp - exact)) < 0.01

    def test_random_unsharp_system_within_bound(self):
        rng = np.random.default_rng(42)
        system = random_system(rng, 3)
        f = random_partition(rng, 3, 2)
        depth, n = 3, 100000
        counts = sample_words(system, f, depth, n, 23)
        emp = empirical_distribution(counts)
        analytic = distribution(system.stationary, refine_afl(system, f, depth))
        assert tv_distance(emp, analytic) <= tv_bound(2 ** depth, n)

    @pytest.mark.parametrize(
        "n, k, depth, n_samples, seed",
        [(2, 2, 3, 20000, 5), (4, 3, 3, 50000, 6), (3, 5, 2, 30000, 8)],
    )
    def test_both_samplers_within_bound_of_the_law(self, n, k, depth, n_samples, seed):
        # the group oracle shares the sampler's algorithm; the trajectory-wise
        # sampler does not, so both meeting the analytic law checks the splitting
        rng = np.random.default_rng(seed)
        system = random_system(rng, n)
        f = random_partition(rng, n, k)
        analytic = distribution(system.stationary, refine_afl(system, f, depth))
        bound = tv_bound(k**depth, n_samples)
        grouped = sample_words(system, f, depth, n_samples, seed)
        rowwise = sample_words_rowwise(
            system.transition, system.stationary, f.response, depth, n_samples, seed
        )
        for counts in (grouped, rowwise):
            assert counts.sum() == n_samples
            assert tv_distance(empirical_distribution(counts), analytic) <= bound

    @settings(max_examples=60)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(systems(n), partitions(n))),
           st.integers(2, 4), st.integers(0, 2**32))
    def test_zoo_within_bound_of_the_path_law(self, pair, depth, seed):
        system, part = pair
        n_samples = 20000
        counts = sample_words(system, part, depth, n_samples, seed)
        exact = path_word_distribution(system, part.response, depth)
        assert counts.sum() == n_samples
        bound = tv_bound(part.n_outcomes**depth, n_samples)
        assert tv_distance(empirical_distribution(counts), exact) <= bound
