import json
import subprocess
import sys

import numpy as np
import pytest

from octavib import _serialize
from octavib._serialize import dumps, format_float, format_rows, format_values


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
    """Few distinct values: ``format_rows`` formats them one at a time."""

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cells_left_to_the_caller(self, bad):
        data = np.random.default_rng(9).normal(size=(10, 19))
        data[3, 4] = bad
        rows = list(format_rows(data))
        assert rows[3].split(",")[4] == str(bad)  # nan, inf, -inf
        assert rows[:3] + rows[4:] == per_value_rows(np.delete(data, 3, axis=0))


class TestDistinctValuesOnTheKernel(TestDistinctValues):
    """The same cases with ``format_rows`` on the array kernel."""

    @pytest.fixture(autouse=True)
    def kernel_at_any_size(self, monkeypatch):
        monkeypatch.setattr(_serialize, "KERNEL_MIN_VALUES", 0)


def kernel_text(values):
    return [text.decode() for text in format_values(values).tolist()]


def oracle_text(values):
    return [format_float(v) for v in values.tolist()]


def random_doubles(n, seed):
    """n seeded random bit patterns of finite doubles, subnormals included."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64)
    values = bits.view(float)
    return values[np.isfinite(values)]


def powers_of_ten():
    """10^k for k in [-323, 308], each with its neighbours either side."""
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate((p, np.nextafter(p, 0), np.nextafter(p, np.inf)))


# an odd m / 2^18 has 18 digits after the point, the last a 5, so %.17g
# rounds an exact tie to an even 17th digit, up or down, e.g.
# 26215 / 2^18 = 0.100002288818359375
TIES = np.arange(26215, 262144) / 2.0**18


class TestKernel:
    """``format_values`` against ``format_float``, value by value."""

    def test_random_bit_patterns(self):
        values = random_doubles(300_000, seed=20)
        assert len(values) > 299_000
        assert np.count_nonzero(np.abs(values) < 2.2250738585072014e-308) > 50
        assert kernel_text(values) == oracle_text(values)

    def test_powers_of_ten_and_their_neighbours(self):
        values = powers_of_ten()
        values = np.concatenate((values, -values))
        assert kernel_text(values) == oracle_text(values)

    def test_exact_ties(self):
        values = np.concatenate((TIES, -TIES))
        text = kernel_text(values)
        assert text == oracle_text(values)
        # ...375 rounds up to an even 8, ...625 down to an even 2, and an
        # even m is exact in 17 digits
        assert text[:3] == ["0.10000228881835938", "0.100006103515625", "0.10000991821289062"]

    def test_edges(self):
        values = np.array(EDGES + REPEATS + [2.0**53 + 2, 1e16 + 2, -1e16 - 2, 1.0 - 2**-53])
        assert kernel_text(values) == oracle_text(values)

    def test_non_finite_values(self):
        values = np.array([float("nan"), float("inf"), float("-inf"), 0.5])
        assert kernel_text(values) == ["nan", "inf", "-inf", "0.5"]

    def test_empty(self):
        assert kernel_text(np.zeros(0)) == []

    def test_certified_values_stay_in_the_kernel(self, monkeypatch):
        # the scalar rule takes the integral values below 1e16 and the ties
        # (181 of these 100,000 patterns, most of them 1e13 to 1e16), not
        # the bulk of the values
        seen = []

        def per_value(values):
            seen.append(len(values))
            return scalar(values)

        scalar = _serialize._per_value
        monkeypatch.setattr(_serialize, "_per_value", per_value)
        kernel_text(random_doubles(100_000, seed=21))
        kernel_text(TIES)
        kernel_text(powers_of_ten())
        assert seen[0] < 1000
        # odd m: 18 digits ending in 5, an exact tie; even m: exact in 17
        assert seen[1] == np.count_nonzero(np.arange(26215, 262144) % 2)
        # log10 lands a decade off for about half of these 1,896 values; the
        # second pass certifies them, leaving the 17 integral values below
        # 1e16, the tie 999999999999999.875 and at most a few exact powers
        assert seen[2] <= 20

    def test_tables_built_on_first_use(self):
        # a cold CLI process pays for neither the 10^k table nor the glyphs
        code = (
            "import octavib.cli, octavib._serialize as s; "
            "print(s._pow10.cache_info().currsize, s._glyphs.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["0", "0"]
