"""Partitions of unity, refinements, the word codec, and their oracles."""

import itertools
import time

import numpy as np
import pytest

import entropy_lab as el
from entropy_lab import CapExceededError, ValidationError

from conftest import int_str_limit, random_partition, random_system
from oracles import mak_elements_by_powers, path_word_distribution


class TestPartitionOfUnity:
    def test_valid_response(self, blur_partition):
        assert blur_partition.n_states == 2
        assert blur_partition.n_outcomes == 2
        assert blur_partition.labels == ("L", "R")
        assert not blur_partition.is_sharp()

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError, match="row 0"):
            el.PartitionOfUnity([[0.5, 0.4], [0.5, 0.5]])

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValidationError):
            el.PartitionOfUnity([[1.2, -0.2], [0.5, 0.5]])

    def test_clamps_band(self):
        part = el.PartitionOfUnity([[1.0 + 1e-13, -1e-13], [0.5, 0.5]])
        assert part.response[0, 1] == 0.0

    def test_rows_normalized_exactly(self):
        part = el.PartitionOfUnity([[0.5, 0.5 - 9e-10], [0.3, 0.7]])
        assert np.max(np.abs(part.response.sum(axis=1) - 1.0)) <= 1e-15
        # The accepted row-sum slack does not compound through products.
        assert el.join(part, part).n_outcomes == 4

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValidationError):
            el.PartitionOfUnity([[0.5, 0.5]], labels=("only",))

    def test_default_labels(self):
        part = el.PartitionOfUnity([[0.5, 0.5]])
        assert part.labels == ("0", "1")

    def test_response_frozen(self, blur_partition):
        with pytest.raises(ValueError):
            blur_partition.response[0, 0] = 0.0


class TestSharpPartition:
    def test_indicator_rows(self):
        part = el.sharp_partition([[0, 2], [1]], 3)
        assert part.is_sharp()
        assert np.array_equal(part.response, [[1, 0], [0, 1], [1, 0]])

    def test_rejects_overlap(self):
        with pytest.raises(ValidationError, match="two cells"):
            el.sharp_partition([[0, 1], [1]], 2)

    def test_rejects_missing_state(self):
        with pytest.raises(ValidationError, match="cover"):
            el.sharp_partition([[0]], 2)

    def test_rejects_empty_cell(self):
        with pytest.raises(ValidationError, match="empty"):
            el.sharp_partition([[0, 1], []], 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            el.sharp_partition([[0, 5]], 2)


class TestUniformUnsharp:
    def test_rows_constant(self):
        part = el.uniform_unsharp(3, 4)
        assert np.all(part.response == 0.25)

    def test_single_outcome_is_sharp(self):
        assert el.uniform_unsharp(2, 1).is_sharp()

    def test_rejects_zero_outcomes(self):
        with pytest.raises(ValidationError):
            el.uniform_unsharp(2, 0)


class TestJoin:
    def test_first_factor_major(self):
        f = el.PartitionOfUnity([[0.6, 0.4]], labels=("x", "y"))
        g = el.PartitionOfUnity([[0.1, 0.9]], labels=("u", "v"))
        joined = el.join(f, g)
        assert joined.labels == ("x.u", "x.v", "y.u", "y.v")
        assert joined.response[0] == pytest.approx([0.06, 0.54, 0.04, 0.36], abs=1e-15)

    def test_row_sums(self):
        rng = np.random.default_rng(4)
        f = random_partition(rng, 3, 2)
        g = random_partition(rng, 3, 3)
        joined = el.join(f, g)
        assert joined.n_outcomes == 6
        assert np.max(np.abs(joined.response.sum(axis=1) - 1.0)) <= 1e-12

    def test_rejects_state_mismatch(self):
        with pytest.raises(ValidationError):
            el.join(el.uniform_unsharp(2, 2), el.uniform_unsharp(3, 2))


class TestEvolve:
    def test_matches_transition_action(self, two_state_chain, blur_partition):
        evolved = el.evolve(two_state_chain, blur_partition)
        expected = two_state_chain.transition @ blur_partition.response
        assert np.max(np.abs(evolved.response - expected)) == 0.0

    def test_preserves_labels(self, two_state_chain, blur_partition):
        assert el.evolve(two_state_chain, blur_partition).labels == ("L", "R")


class TestWordCodec:
    def test_big_endian(self):
        assert el.word_from_code(11, 3, 3) == (1, 0, 2)

    def test_round_trip_all(self):
        # The word, read as base-3 digits, is its code again.
        for code in range(3**4):
            assert int("".join(map(str, el.word_from_code(code, 3, 4))), 3) == code

    def test_leading_symbol_most_significant(self):
        assert el.word_from_code(4, 2, 3) == (1, 0, 0)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValidationError, match="depth must be >= 1"):
            el.word_from_code(0, 3, 0)
        with pytest.raises(ValidationError, match=r"code -1 outside range\(0, 9\)"):
            el.word_from_code(-1, 3, 2)

    def test_rejects_bad_code(self):
        with pytest.raises(ValidationError):
            el.word_from_code(8, 2, 3)

    def test_word_label(self, blur_partition):
        assert el.word_label(blur_partition, (0, 1, 0)) == "L.R.L"


class TestRefinements:
    def test_depth_one_is_response(self, two_state_chain, blur_partition):
        for refine in (el.refine_afl, el.refine_mak):
            refined = refine(two_state_chain, blur_partition, 1)
            assert np.array_equal(refined.elements, blur_partition.response)

    def test_schemes_agree_at_depth_two(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            system = random_system(rng, n)
            part = random_partition(rng, n, k)
            a = el.refine_afl(system, part, 2).elements
            m = el.refine_mak(system, part, 2).elements
            assert np.max(np.abs(a - m)) <= 1e-15

    def test_schemes_differ_at_depth_three_for_stochastic(
        self, two_state_chain, blur_partition
    ):
        a = el.refine_afl(two_state_chain, blur_partition, 3).elements
        m = el.refine_mak(two_state_chain, blur_partition, 3).elements
        assert np.max(np.abs(a - m)) > 1e-6

    def test_schemes_agree_for_deterministic(self, three_cycle):
        rng = np.random.default_rng(23)
        part = random_partition(rng, 3, 2)
        for depth in (2, 3, 4):
            a = el.refine_afl(three_cycle, part, depth).elements
            m = el.refine_mak(three_cycle, part, depth).elements
            assert np.max(np.abs(a - m)) <= 1e-12

    def test_pointwise_sums_one(self, two_state_chain, blur_partition):
        refined = el.refine_afl(two_state_chain, blur_partition, 5)
        assert np.max(np.abs(refined.elements.sum(axis=1) - 1.0)) <= 1e-12

    def test_nested_matches_path_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n, k, depth = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 5))
            system = random_system(rng, n)
            part = random_partition(rng, n, k)
            lib = el.distribution(
                system.stationary, el.refine_afl(system, part, depth)
            )
            ref = path_word_distribution(system, part.response, depth)
            assert np.max(np.abs(lib - ref)) <= 1e-12

    def test_independent_scheme_matches_power_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n, k, depth = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 5))
            system = random_system(rng, n)
            part = random_partition(rng, n, k)
            lib = el.refine_mak(system, part, depth).elements
            ref = mak_elements_by_powers(system, part.response, depth)
            assert np.max(np.abs(lib - ref)) <= 1e-12

    def test_sharp_refinement_of_deterministic_is_sharp(self, three_cycle):
        part = el.sharp_partition([[0], [1], [2]], 3)
        refined = el.refine_afl(three_cycle, part, 3)
        assert np.all((refined.elements == 0.0) | (refined.elements == 1.0))

    def test_word_cap(self, two_state_chain, coin_extremal):
        with pytest.raises(CapExceededError, match="cap"):
            el.refine_afl(two_state_chain, coin_extremal, 21)
        with pytest.raises(CapExceededError):
            el.refine_afl(two_state_chain, coin_extremal, 4, word_cap=8)

    @pytest.mark.parametrize(
        "k, depth",
        [(2, 21), (2, 30), (2, 14284), (2, 14285), (2, 10**20), (2, 10**400),
         (1, 22), (1, 30), (1, 10**20), (1, 10**400)],
        ids=["21", "30", "14284", "14285", "1e20", "1e400",
             "one-outcome-22", "one-outcome-30", "one-outcome-1e20", "one-outcome-1e400"],
    )
    def test_depth_past_the_cap_fails_at_once(self, two_state_chain, coin_extremal, k, depth):
        # 2^14284 has 4 300 digits, Python's default int-string limit, and
        # prints in full; 2^14285 and beyond are written as powers, never formed.
        # A one-outcome partition has one word at every depth, so its depth is
        # bounded by the cap's bit length (21 for 2^20) like that of k = 2.
        part = coin_extremal if k == 2 else el.uniform_unsharp(2, 1)
        if k == 1:
            message = f"depth {depth} is past 21, the deepest a word_cap of 1048576 allows"
        else:
            count = str(2**depth) if depth < 14285 else f"2^{depth}"
            message = f"refinement would materialize {count} words, cap is 1048576"
        start = time.perf_counter()
        with pytest.raises(CapExceededError) as info:
            el.refine_afl(two_state_chain, part, depth)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == message

    @pytest.mark.parametrize("depth, count", [(4299, str(10**4299)), (4300, "10^4300")])
    def test_count_within_the_cap_bits_past_the_int_string_limit(
        self, two_state_chain, depth, count
    ):
        # A cap of depth digits keeps the depth under the cap's bit length, so the
        # exact count 10^depth is compared; 10^4299 has 4 300 digits and prints in
        # full, 10^4300 has one more and prints as a power.
        cap = 10 ** (depth - 1)
        with pytest.raises(CapExceededError) as info:
            el.refine_afl(two_state_chain, el.uniform_unsharp(2, 10), depth, word_cap=cap)
        assert str(info.value) == f"refinement would materialize {count} words, cap is {cap}"

    @pytest.mark.parametrize(
        "limit, depth, count",
        [(640, 639, str(10**639)), (640, 640, "10^640"), (0, 4300, "10^4300")],
    )
    def test_count_under_the_int_string_limit_in_force(self, two_state_chain, limit, depth, count):
        # The limit in force decides, and no limit at all counts as 4 300 digits.
        with int_str_limit(limit), pytest.raises(CapExceededError) as info:
            el.refine_afl(two_state_chain, el.uniform_unsharp(2, 10), depth, word_cap=8)
        assert str(info.value) == f"refinement would materialize {count} words, cap is 8"

    def test_one_outcome_reaches_the_depth_bound(self, two_state_chain):
        refined = el.refine_afl(two_state_chain, el.uniform_unsharp(2, 1), 21)
        assert refined.n_words == 1
        assert np.array_equal(refined.elements, np.ones((2, 1)))

    def test_rejects_depth_zero(self, two_state_chain, coin_extremal):
        with pytest.raises(ValidationError):
            el.refine_afl(two_state_chain, coin_extremal, 0)

    def test_column_of_each_code_is_its_nested_element(self, two_state_chain, blur_partition):
        refined = el.refine_afl(two_state_chain, blur_partition, 3)
        response, transition = blur_partition.response, two_state_chain.transition
        for code in range(refined.n_words):
            word = el.word_from_code(code, 2, 3)
            # element(k0 w) = f_k0 * theta(element(w)), from the last symbol outward
            element = response[:, word[-1]]
            for k in reversed(word[:-1]):
                element = response[:, k] * (transition @ element)
            assert np.max(np.abs(refined.elements[:, code] - element)) <= 1e-15

    def test_codes_of_the_columns_are_every_word_once(self, two_state_chain):
        three = el.PartitionOfUnity(np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]]))
        refined = el.refine_mak(two_state_chain, three, 2)
        words = [el.word_from_code(c, 3, 2) for c in range(refined.n_words)]
        assert words == sorted(itertools.product(range(3), repeat=2))

    def test_code_past_the_last_column_is_rejected(self, two_state_chain, blur_partition):
        refined = el.refine_afl(two_state_chain, blur_partition, 2)
        with pytest.raises(ValidationError, match=r"code 4 outside range\(0, 4\)"):
            el.word_from_code(refined.n_words, 2, 2)

    def test_rejects_element_count_not_base_to_depth(self):
        with pytest.raises(ValidationError, match=r"must have 4 columns, got shape \(2, 2\)"):
            el.RefinedPartition(2, 2, np.eye(2))


class TestDistributions:
    def test_distribution_sums_one(self, two_state_chain, blur_partition):
        dist = el.distribution(two_state_chain.stationary, blur_partition)
        assert float(dist.sum()) == pytest.approx(1.0, abs=1e-12)
        assert dist == pytest.approx([2 / 3 * 0.8 + 1 / 3 * 0.3, 2 / 3 * 0.2 + 1 / 3 * 0.7])

    def test_size_mismatch(self, blur_partition):
        with pytest.raises(ValidationError):
            el.distribution([1 / 3, 1 / 3, 1 / 3], blur_partition)

    @pytest.mark.parametrize(
        "call",
        [
            lambda mu: el.distribution(mu, np.eye(2)),
            lambda mu: el.hud_functional(mu, np.eye(2)),
            lambda mu: el.cnt_functional(mu, el.trivial_decomposition(mu), [np.eye(2)]),
        ],
        ids=["distribution", "hud_functional", "cnt_functional"],
    )
    def test_rejects_a_bare_matrix(self, call):
        with pytest.raises(ValidationError, match="expected a partition, got ndarray"):
            call([0.5, 0.5])
