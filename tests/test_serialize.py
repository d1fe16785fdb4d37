"""Deterministic serialization round trips."""

import json

import numpy as np
import pytest

from multihess import GeneratorSequence, InvalidInputError, decompose
from multihess.serialize import (format_float, matrix_to_csv,
                                 spectrum_to_csv, to_json)


def test_format_float_round_trip():
    for v in (0.1, 1.0 / 3.0, 1e-300, 2.0 ** 52 + 1, -0.0):
        assert float(format_float(v)) == v
    with pytest.raises(InvalidInputError):
        format_float(float("nan"))
    with pytest.raises(InvalidInputError):
        format_float(float("inf"))


def test_to_json_deterministic_and_parseable():
    doc = {"b": [1, 2.5, None, True], "a": {"x": "quote\"d"},
           "m": np.array([[1.0, 2.0], [3.0, 4.0]])}
    s1 = to_json(doc)
    s2 = to_json(doc)
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed["b"] == [1, 2.5, None, True]
    assert parsed["a"]["x"] == 'quote"d'
    assert parsed["m"] == [[1.0, 2.0], [3.0, 4.0]]
    # insertion order is preserved, not sorted
    assert s1.index('"b"') < s1.index('"a"')


def test_matrix_csv_round_trip():
    M = np.array([[0.25, 0.75], [1.0 / 3.0, 2.0 / 3.0]])
    lines = matrix_to_csv(M).strip().splitlines()
    assert lines[0] == "i,j,value"
    rebuilt = np.zeros_like(M)
    for line in lines[1:]:
        i, j, v = line.split(",")
        rebuilt[int(i), int(j)] = float(v)
    assert np.array_equal(rebuilt, M)


def test_spectrum_csv_shape():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=90)
    dec = decompose(g, 5)
    text = spectrum_to_csv(np.asarray(dec.lams, dtype=float),
                           np.asarray(dec.mu, dtype=float))
    lines = text.strip().splitlines()
    assert lines[0] == "k,lambda,mu_1,mu_2"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(float(dec.lams[0]))


def test_format_float_is_shortest_repr():
    assert format_float(0.1) == "0.1"
    assert format_float(np.float64(1e-300)) == "1e-300"
    assert format_float(0.0) == "0.0"


@pytest.mark.parametrize("value", [float("nan"), float("-inf"),
                                   np.array([1.0, np.inf]), np.float32("nan"),
                                   object(), {1.5j}])
def test_to_json_refuses_non_finite_and_unknown_values(value):
    with pytest.raises(InvalidInputError):
        to_json({"x": [value]})


def test_to_json_writes_numpy_values_as_plain_ones():
    doc = {"i": np.int64(3), "b": np.bool_(True), "f": np.float32(0.5),
           "a": np.arange(3), "m": np.eye(2, dtype=bool), "e": np.zeros(0)}
    assert json.loads(to_json(doc)) == {
        "i": 3, "b": True, "f": 0.5, "a": [0, 1, 2],
        "m": [[True, False], [False, True]], "e": []}
    assert to_json([]) == "[]\n" and to_json({}) == "{}\n"
