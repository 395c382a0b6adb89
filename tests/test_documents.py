"""Round trips and failure modes for the JSON document layer."""

import json

import numpy as np
import pytest

from entropy_lab import (
    DocumentError,
    PartitionOfUnity,
    ValidationError,
    load_partition,
    load_system,
    parse_partition,
    parse_system,
    system_to_document,
)
from entropy_lab.documents import load_json

from conftest import fixture_path, load_fixture


class TestLoadJson:
    def test_reads_fixture(self):
        doc = load_json(fixture_path("systems", "two_state_chain.json"))
        assert doc["states"] == ["a", "b"]

    def test_missing_file_raises_document_error(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            load_json(tmp_path / "absent.json")

    def test_bad_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"transition": [[1.0,\n  }')
        with pytest.raises(DocumentError, match=r"line 2 column"):
            load_json(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(DocumentError, match="object"):
            load_json(path)


class TestParseSystem:
    def test_transition_with_stationary(self):
        doc = load_fixture("systems", "two_state_chain.json")
        system = parse_system(doc)
        assert system.states == ("a", "b")
        np.testing.assert_allclose(system.stationary, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_transition_without_stationary_solves_for_it(self):
        doc = {"transition": [[0.9, 0.1], [0.2, 0.8]]}
        system = parse_system(doc)
        np.testing.assert_allclose(system.stationary, [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)
        assert system.states == ("s0", "s1")

    def test_bernoulli_form(self):
        doc = load_fixture("systems", "bernoulli_biased.json")
        system = parse_system(doc)
        np.testing.assert_allclose(system.stationary, [0.75, 0.25], atol=0)
        # every row of a bernoulli kernel equals the weight vector
        np.testing.assert_allclose(system.transition, [[0.75, 0.25]] * 2, atol=0)

    def test_transition_and_bernoulli_conflict(self):
        doc = {"transition": [[1.0]], "bernoulli": [1.0]}
        with pytest.raises(DocumentError, match="exactly one"):
            parse_system(doc)

    def test_neither_form_present(self):
        with pytest.raises(DocumentError, match="exactly one"):
            parse_system({"states": ["a"]})

    def test_bernoulli_rejects_stationary_key(self):
        doc = {"bernoulli": [0.5, 0.5], "stationary": [0.5, 0.5]}
        with pytest.raises(DocumentError, match="stationary"):
            parse_system(doc)

    def test_unknown_key_rejected(self):
        doc = {"transition": [[1.0]], "transitoin": [[1.0]]}
        with pytest.raises(DocumentError, match="unknown system keys"):
            parse_system(doc)

    def test_bad_row_sum_names_the_row(self):
        doc = {"transition": [[0.5, 0.5], [0.6, 0.6]]}
        with pytest.raises(ValidationError, match="row 1"):
            parse_system(doc)

    def test_null_stationary_solves_for_it(self):
        doc = {"transition": [[0.9, 0.1], [0.2, 0.8]]}
        solved = parse_system(doc)
        again = parse_system({**doc, "stationary": None})
        assert np.array_equal(again.stationary, solved.stationary)

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"transition": [[0.5, 0.5], [1.0]]}, "transition"),
            ({"transition": [[0.5, 0.5], 1.0]}, "transition"),
            ({"transition": []}, "transition"),
            ({"transition": [["1.0"]]}, "transition"),
            ({"transition": [[True]]}, "transition"),
            ({"transition": [[1.0]], "stationary": {"a": 1}}, "stationary"),
            ({"transition": [[1.0]], "stationary": [None]}, "stationary"),
            ({"bernoulli": 0.5}, "bernoulli"),
            ({"bernoulli": [0.5, [0.5]]}, "bernoulli"),
        ],
    )
    def test_malformed_numeric_field_names_the_key(self, doc, key):
        with pytest.raises(DocumentError, match=f"'{key}' must be"):
            parse_system(doc)

    def test_states_must_match_matrix_size(self):
        doc = {"transition": [[0.5, 0.5], [0.5, 0.5]], "states": ["a"]}
        with pytest.raises(ValidationError):
            parse_system(doc)


class TestParsePartition:
    def test_cells_form_uses_state_labels(self, two_state_chain):
        doc = load_fixture("partitions", "two_state_extremal.json")
        f = parse_partition(doc, two_state_chain)
        assert f.is_sharp()
        assert f.labels == ("a", "b")
        np.testing.assert_allclose(f.response, np.eye(2), atol=0)

    def test_cells_default_labels_join_members(self, doubly_stochastic):
        doc = {"cells": [["s0", "s1"], ["s2"]]}
        f = parse_partition(doc, doubly_stochastic)
        assert f.labels == ("s0+s1", "s2")

    def test_unknown_state_label(self, two_state_chain):
        doc = {"cells": [["a"], ["z"]]}
        with pytest.raises(ValidationError, match="unknown state label"):
            parse_partition(doc, two_state_chain)

    def test_response_form(self, two_state_chain):
        doc = load_fixture("partitions", "two_state_blur.json")
        f = parse_partition(doc, two_state_chain)
        assert f.labels == ("L", "R")
        np.testing.assert_allclose(f.response, [[0.8, 0.2], [0.3, 0.7]], atol=0)

    def test_response_row_count_must_match_system(self, doubly_stochastic):
        doc = {"response": [[0.8, 0.2], [0.3, 0.7]]}
        with pytest.raises(ValidationError, match="rows"):
            parse_partition(doc, doubly_stochastic)

    def test_ragged_response_is_a_document_error(self, two_state_chain):
        with pytest.raises(DocumentError, match="'response' must be"):
            parse_partition({"response": [[0.5, 0.5], [1.0]]}, two_state_chain)

    def test_uniform_form(self, two_state_chain):
        f = parse_partition({"uniform": 3}, two_state_chain)
        np.testing.assert_allclose(f.response, np.full((2, 3), 1.0 / 3.0), atol=0)

    def test_uniform_rejects_bool_and_nonpositive(self, two_state_chain):
        with pytest.raises(DocumentError, match="integer outcome count"):
            parse_partition({"uniform": True}, two_state_chain)
        with pytest.raises(ValidationError, match="outcome"):
            parse_partition({"uniform": 0}, two_state_chain)

    def test_uniform_rejects_count_above_word_cap(self, two_state_chain):
        # fails before numpy is asked for 2 x 99999999999 floats
        with pytest.raises(ValidationError, match="count 99999999999 exceeds the word cap 1048576"):
            parse_partition({"uniform": 99999999999}, two_state_chain)

    def test_exactly_one_form(self, two_state_chain):
        doc = {"cells": [["a"], ["b"]], "uniform": 2}
        with pytest.raises(DocumentError, match="exactly one"):
            parse_partition(doc, two_state_chain)

    def test_unknown_key_rejected(self, two_state_chain):
        doc = {"uniform": 2, "labls": ["u", "v"]}
        with pytest.raises(DocumentError, match="unknown partition keys"):
            parse_partition(doc, two_state_chain)

    def test_label_count_must_match(self, two_state_chain):
        doc = {"uniform": 2, "labels": ["only-one"]}
        with pytest.raises(ValidationError):
            parse_partition(doc, two_state_chain)

    def test_empty_label_list_rejected(self, two_state_chain):
        doc = {"uniform": 2, "labels": []}
        with pytest.raises(ValidationError, match="0 outcome labels for 2 outcomes"):
            parse_partition(doc, two_state_chain)


class TestRoundTrips:
    def test_system_document_round_trip_is_exact(self, two_state_chain):
        doc = system_to_document(two_state_chain)
        again = parse_system(doc)
        assert again.states == two_state_chain.states
        assert np.array_equal(again.transition, two_state_chain.transition)
        assert np.array_equal(again.stationary, two_state_chain.stationary)

    def test_partition_document_round_trip_is_exact(self, two_state_chain):
        # A random response survives JSON text: float repr and row normalization are exact.
        part = PartitionOfUnity(np.random.default_rng(5).dirichlet(np.ones(3), size=2))
        text = json.dumps({"response": part.response.tolist(), "labels": list(part.labels)})
        again = parse_partition(json.loads(text), two_state_chain)
        assert again.labels == part.labels
        assert np.array_equal(again.response, part.response)

    def test_round_trip_survives_json_text(self, tmp_path, two_state_chain):
        # serialize through actual text, not just dicts
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(system_to_document(two_state_chain)))
        again = load_system(path)
        assert np.array_equal(again.transition, two_state_chain.transition)

    def test_load_partition_from_file(self, two_state_chain):
        f = load_partition(fixture_path("partitions", "two_state_uniform.json"), two_state_chain)
        np.testing.assert_allclose(f.response, np.full((2, 2), 0.5), atol=0)
