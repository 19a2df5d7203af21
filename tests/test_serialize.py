import json

import numpy as np
import pytest

from octavib._serialize import dumps, format_float, format_rows


class TestStrings:
    def test_control_characters_round_trip(self):
        doc = {"k": "a\nb\x01\t"}
        assert json.loads(dumps(doc)) == doc

    def test_escapes_match_json_dumps(self):
        text = "".join(chr(c) for c in range(0x20)) + '"\\ D_2^{D_1} x S_4^p'
        assert dumps(text) == json.dumps(text)
        assert json.loads(dumps(text)) == text

    def test_keys_are_escaped(self):
        assert dumps({"a\tb": 1}) == '{"a\\tb":1}'


class TestNumbers:
    def test_floats(self):
        got = dumps([1.0, 0.1, -2.5e-20])
        assert got == "[1.0,0.10000000000000001,-2.4999999999999999e-20]"

    def test_non_finite_refused(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))


# format_float's edges: signed zero, integral values on both sides of 1e16,
# and values one ulp off an integer
EDGES = [0.0, -0.0, 1.0, -3.0, 1e16, 9999999999999998.0, -1e16, 1e300,
         0.1, 2.5, 1 + 2 ** -52, 3 - 2 ** -51, 5e-324, -1e-300]


class TestArrays:
    """A float ndarray is written as the nested lists of its values."""

    @pytest.mark.parametrize("shape", [(18, 18), (3, 14), (1, 1), (0, 5), (4, 0), (2, 70)])
    def test_matches_the_nested_lists(self, shape):
        rng = np.random.default_rng(sum(shape))
        data = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 18, size=shape)
        # about a third of the cells integral, some of them edge values
        data[rng.random(shape) < 0.3] = 7.0
        data.ravel()[: len(EDGES)] = EDGES[: data.size]
        assert dumps(data) == dumps([list(row) for row in data])

    def test_transposed_view(self):
        data = np.arange(36.0).reshape(6, 6) / 4
        assert dumps(data.T) == dumps([list(col) for col in data.T])

    def test_inside_a_document(self):
        data = np.array([[1.0, 0.5], [-0.0, 1e17]])
        doc = {"b": data, "a": [data[0, 0]]}
        assert dumps(doc) == '{"a":[1.0],"b":[[1.0,0.5],[-0.0,1e+17]]}'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_refused(self, bad):
        data = np.ones((3, 3))
        data[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dumps(data)

    def test_rows_match_format_float(self):
        data = np.array([EDGES, EDGES[::-1]])
        rows = list(format_rows(data))
        assert rows == [",".join(format_float(v) for v in row) for row in data]


def per_value_rows(data):
    """``format_float`` on every cell (oracle for ``format_rows``)."""
    return [",".join(format_float(v) for v in row) for row in data.tolist()]


# a mode's cells repeat, negated or not: each bit pattern is formatted once
REPEATS = [0.0, -0.0, 2.0 ** 53, -(2.0 ** 53), 9999999999999998.0, 1e16, -1e16,
           5e-324, -5e-324, 0.1, -0.1, 1e17, -7.0]


class TestDistinctValues:
    @pytest.mark.parametrize("rows", [1, 2, 255, 256, 257, 600])
    def test_signed_repeats_match_format_float(self, rows):
        rng = np.random.default_rng(rows)
        data = rng.choice(REPEATS, size=(rows, 19))
        assert list(format_rows(data)) == per_value_rows(data)

    def test_every_repeat_in_one_row(self):
        data = np.array([REPEATS, REPEATS[::-1]])
        rows = list(format_rows(data))
        assert rows == per_value_rows(data)
        # signed zero keeps its sign; the magnitudes on both sides of 1e16
        # keep their own branch of the rule
        assert rows[0].split(",")[:6] == [
            "0.0", "-0.0", "9007199254740992.0", "-9007199254740992.0",
            "9999999999999998.0", "10000000000000000",
        ]

    @pytest.mark.parametrize("value", [0.0, -0.0, 2.5, -1e16, 5e-324])
    def test_all_equal(self, value):
        data = np.full((300, 4), value)
        assert list(format_rows(data)) == per_value_rows(data)

    @pytest.mark.parametrize("shape", [(0, 19), (3, 0), (0, 0)])
    def test_empty(self, shape):
        assert list(format_rows(np.zeros(shape))) == [""] * shape[0]

    def test_strided_view(self):
        data = np.random.default_rng(5).choice(REPEATS, size=(40, 30))[::3, ::-2]
        assert list(format_rows(data)) == per_value_rows(data)
