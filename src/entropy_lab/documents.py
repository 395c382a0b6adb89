"""JSON documents describing systems and partitions.

A system document provides either a transition matrix or an independent
source distribution, plus optional state labels and stationary measure:

    {"states": ["a", "b"],
     "transition": [[0.9, 0.1], [0.2, 0.8]],
     "stationary": [0.6666666666666666, 0.3333333333333333]}

    {"bernoulli": [0.75, 0.25]}

A partition document provides exactly one of a response matrix, sharp
cells of state labels, or a uniform outcome count:

    {"response": [[0.8, 0.2], [0.3, 0.7]], "labels": ["L", "R"]}
    {"cells": [["a"], ["b"]]}
    {"uniform": 2}

Structural problems (a file that is not UTF-8, bad JSON, an integer literal
longer than Python's int-string limit, nesting past the parser's recursion
limit, wrong types, missing or conflicting keys, and numeric fields that are
ragged, hold a non-number or hold an integer beyond float range) raise
DocumentError; semantic problems (row sums, unknown labels, size mismatches,
a ``uniform`` count above DEFAULT_WORD_CAP) raise ValidationError.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ._errors import DocumentError, ValidationError
from .partitions import DEFAULT_WORD_CAP, PartitionOfUnity, sharp_partition, uniform_unsharp
from .systems import StochasticSystem, make_bernoulli, make_markov

__all__ = [
    "load_json",
    "parse_system",
    "parse_partition",
    "load_system",
    "load_partition",
    "system_to_document",
]

_SYSTEM_KEYS = {"name", "description", "states", "transition", "bernoulli", "stationary"}
_PARTITION_KEYS = {"name", "description", "labels", "response", "cells", "uniform"}


def load_json(path) -> dict:
    """Read one JSON object from a file, reporting position on syntax errors."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {p}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{p}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # a huge integer literal, or deep nesting
        raise DocumentError(f"{p}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DocumentError(f"{p}: top level must be a JSON object")
    return obj


def _numeric(obj: dict, key: str, ndim: int) -> np.ndarray:
    """Float array of a list (ndim 1) or non-empty list of equal-length rows (ndim 2) of numbers."""
    value = obj[key]
    rows = value if ndim == 2 else [value]
    shape = "a list" if ndim == 1 else "a non-empty list of equal-length rows"
    if not (
        isinstance(value, list)
        and rows
        and all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows)
        and all(type(v) in (int, float) for row in rows for v in row)
    ):
        raise DocumentError(f"{key!r} must be {shape} of numbers")
    try:
        return np.array(value, dtype=float)
    except OverflowError as exc:
        raise DocumentError(f"{key!r} must be {shape} of numbers within float range") from exc


def parse_system(obj: dict) -> StochasticSystem:
    """Build a system from a parsed document object."""
    if not isinstance(obj, dict):
        raise DocumentError("system document must be a JSON object")
    unknown = set(obj) - _SYSTEM_KEYS
    if unknown:
        raise DocumentError(f"unknown system keys: {sorted(unknown)}")
    has_transition = "transition" in obj
    has_bernoulli = "bernoulli" in obj
    if has_transition == has_bernoulli:
        raise DocumentError("provide exactly one of 'transition' or 'bernoulli'")
    states = obj.get("states")
    if states is not None and (
        not isinstance(states, list) or not all(isinstance(s, str) for s in states)
    ):
        raise DocumentError("'states' must be a list of strings")
    if has_bernoulli:
        probabilities = _numeric(obj, "bernoulli", 1)
        if "stationary" in obj:
            raise DocumentError("'stationary' is implied by 'bernoulli'")
        return make_bernoulli(probabilities, states)
    transition = _numeric(obj, "transition", 2)
    stationary = None if obj.get("stationary") is None else _numeric(obj, "stationary", 1)
    return make_markov(states, transition, stationary)


def parse_partition(obj: dict, system: StochasticSystem) -> PartitionOfUnity:
    """Build a partition of unity from a parsed document object.

    Cells are given as lists of state labels of the target system.
    """
    if not isinstance(obj, dict):
        raise DocumentError("partition document must be a JSON object")
    unknown = set(obj) - _PARTITION_KEYS
    if unknown:
        raise DocumentError(f"unknown partition keys: {sorted(unknown)}")
    modes = [k for k in ("response", "cells", "uniform") if k in obj]
    if len(modes) != 1:
        raise DocumentError("provide exactly one of 'response', 'cells', 'uniform'")
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)
    ):
        raise DocumentError("'labels' must be a list of strings")
    mode = modes[0]
    if mode == "uniform":
        k = obj["uniform"]
        if not isinstance(k, int) or isinstance(k, bool):
            raise DocumentError("'uniform' must be an integer outcome count")
        if k > DEFAULT_WORD_CAP:
            # k outcomes are the depth-1 words, which the default word cap bounds.
            raise ValidationError(
                f"'uniform' outcome count {k} exceeds the word cap {DEFAULT_WORD_CAP}"
            )
        part = uniform_unsharp(system.n_states, k)
        return part if labels is None else PartitionOfUnity(part.response, labels)
    if mode == "cells":
        cells = obj["cells"]
        if not isinstance(cells, list) or not all(isinstance(c, list) for c in cells):
            raise DocumentError("'cells' must be a list of lists of state labels")
        index_cells = [[system.state_index(str(lbl)) for lbl in cell] for cell in cells]
        if labels is None:
            labels = ["+".join(str(lbl) for lbl in cell) for cell in cells]
        return sharp_partition(index_cells, system.n_states, labels)
    part = PartitionOfUnity(_numeric(obj, "response", 2), labels)
    if part.n_states != system.n_states:
        raise ValidationError(
            f"response has {part.n_states} rows for {system.n_states} states"
        )
    return part


def load_system(path) -> StochasticSystem:
    return parse_system(load_json(path))


def load_partition(path, system: StochasticSystem) -> PartitionOfUnity:
    return parse_partition(load_json(path), system)


def system_to_document(system: StochasticSystem) -> dict:
    """Serialize a system; parse_system(system_to_document(s)) reproduces s exactly."""
    return {
        "states": list(system.states),
        "transition": system.transition.tolist(),
        "stationary": system.stationary.tolist(),
    }
