"""The JSON renderer: the C encoder's output laid out exactly as ``indent=2``."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entropy_lab.reports import Report, _json

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)

# Lists and dicts of scalars, lists of lists and empty containers, nested to any depth.
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=5) | st.dictionaries(st.text(), children, max_size=5)
    ),
    max_leaves=40,
)


class TestJsonRenderer:
    @settings(max_examples=300)
    @given(JSON_VALUES)
    @example({"é\x00\n\t \U0001f600": ["ü\x1f\x7f", '"\\/', "\r"], "\x01": {"ß": "ÿ"}})
    @example([-0.0, 5e-324, 1e308, -1e308, 2**64 + 1, -(2**70), True, False, None])
    @example({"a": [[], {}, [[]], [{}], {"b": {}}], "c": {"d": [-0.0, 2**100, None]}})
    @example([])
    @example({})
    @example(-0.0)
    @example("\x00")
    # Non-str keys, which json writes as strings.
    @example({1: [1], 2.5: {"a": 1}, None: [[]], False: [], 2**70: 0})
    def test_equals_indent_two(self, value):
        assert _json(value, "") == json.dumps(value, indent=2, allow_nan=False)

    def test_render_writes_the_document_and_a_newline(self):
        doc = {"counts": [1, 2], "config": {"units": "bits"}, "empty": []}
        assert Report(doc).render("json") == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda v: v,
            lambda v: [1.0, v],
            lambda v: {"a": v},
            lambda v: {"a": [[0.5], {"b": v}]},
        ],
        ids=["scalar", "list", "dict", "nested"],
    )
    def test_non_finite_floats_raise(self, bad, wrap):
        with pytest.raises(ValueError):
            _json(wrap(bad), "")
