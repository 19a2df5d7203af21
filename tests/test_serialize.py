import json
import re
import subprocess
import sys

import numpy as np
import pytest

from octavib import _kernels, _serialize, modes
from octavib._kernels import format_values, parse_values
from octavib._serialize import (
    RowWidthError,
    distinct_bits,
    dumps,
    format_float,
    format_rows,
)


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


def unique_oracle(data):
    """``np.unique`` of the bit patterns, the inverse shaped like the data."""
    data = np.ascontiguousarray(data, dtype=float)
    bits, index = np.unique(data.view(np.uint64), return_inverse=True)
    return bits, index.reshape(data.shape)


class TestDistinctBits:
    """The run-aware dedupe against ``np.unique(..., return_inverse=True)``."""

    @pytest.mark.parametrize(
        "data",
        [
            np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]]),
            np.full((300, 4), -0.0),
            np.full((7, 19), 2.5),
            np.array([REPEATS]),
            np.array([REPEATS]).T,
            np.random.default_rng(3).choice(REPEATS, size=(600, 19)),
            np.random.default_rng(4).normal(size=(50, 19)),
            np.sin(np.arange(1200) / 100.0)[:, None] * np.arange(-9.0, 10.0),
            np.zeros((0, 19)),
            np.zeros((3, 0)),
            np.zeros((0, 0)),
            np.random.default_rng(5).choice(REPEATS, size=(40, 30))[::3, ::-2],
        ],
        ids=["signed_zeros", "all_negative_zero", "all_equal", "one_row", "one_column",
             "repeats", "random", "sinusoids", "0x19", "3x0", "0x0", "strided_view"],
    )
    def test_equals_np_unique(self, data):
        bits, index = distinct_bits(data)
        want_bits, want_index = unique_oracle(data)
        assert bits.dtype == want_bits.dtype and bits.tobytes() == want_bits.tobytes()
        assert index.shape == data.shape
        assert np.array_equal(index, want_index)

    def test_every_mode(self):
        shop = modes.ModeWorkshop()
        for j in ("0", "4", "7", "7*", "8", "9"):
            for k in range(1, len(shop.types_for(j)) + 1):
                traj = shop.build_mode(j, k, 0.05, 1200)
                data = np.column_stack((traj.times, traj.samples))
                bits, index = distinct_bits(data)
                want_bits, want_index = unique_oracle(data)
                assert np.array_equal(bits, want_bits), (j, k)
                assert np.array_equal(index, want_index), (j, k)


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
        # a cold CLI process serving `invariant` loads neither the kernels
        # nor fractions and decimal; the kernels, once imported, build
        # neither the 10^k table nor the glyphs before a call
        code = "\n".join((
            "import contextlib, io, sys",
            "import octavib.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert octavib.cli.main(['invariant', '--j', '8']) == 0",
            "print(*(m in sys.modules for m in ('octavib._kernels', 'fractions', 'decimal')))",
            "import octavib._kernels as k",
            "print(k._pow10.cache_info().currsize, k._glyphs.cache_info().currsize)",
        ))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines() == ["False False False", "0 0"]


def parse_text(texts):
    """``parse_values`` of ASCII cells, one per line."""
    return parse_values(b"\n".join(texts) + b"\n").ravel()


def float_text(texts):
    """``float()`` of each cell (oracle for ``parse_values``)."""
    return np.array([float(text) for text in texts])


@pytest.fixture
def per_cell(monkeypatch):
    """The cells ``parse_values`` leaves to ``float()``, as they are read."""
    seen = []
    scalar = _kernels._per_cell

    def recording(data, first, end):
        seen.extend(data[i:j] for i, j in zip(first.tolist(), end.tolist()))
        return scalar(data, first, end)

    monkeypatch.setattr(_kernels, "_per_cell", recording)
    return seen


def powers_of_two():
    """2^k for every finite double's exponent, each with its neighbours."""
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate((p, np.nextafter(p, 0), np.nextafter(p, np.inf)))


def subnormals(n, seed):
    """n seeded random subnormal bit patterns and the edges of the range."""
    bits = np.random.default_rng(seed).integers(1, 2**52, size=n, dtype=np.uint64)
    least_normal = 2.2250738585072014e-308
    return np.concatenate((bits.view(float), [5e-324, least_normal, np.nextafter(least_normal, 0)]))


# decimals of at most 24 bytes that lie exactly halfway between two doubles:
# odd integers between 2^53 and 2^54, 2 mod 4 between 2^54 and 2^55, ...
TIE_INTEGERS = [
    *(2**53 + 1 + 2 * i for i in range(0, 2000, 7)),
    2**54 + 2, 2**55 + 4, 2**56 + 8, 2**57 + 16, 2**60 + 2**7, 2**62 + 2**9,
]


def tie_texts():
    for m in TIE_INTEGERS:
        digits = str(m)
        yield digits.encode()
        yield f"-{digits}.0".encode()
        yield f"{digits[0]}.{digits[1:]}e+{len(digits) - 1:02d}".encode()


class TestParseKernel:
    """``parse_values`` against ``float()``, cell by cell, bit for bit."""

    def round_trip(self, values):
        """parse(format(x)) is x, and format(parse(t)) is t."""
        texts = format_values(values).tolist()
        got = parse_text(texts)
        assert got.tobytes() == values.tobytes()
        assert format_values(got).tolist() == texts

    def test_random_bit_patterns(self, per_cell):
        values = random_doubles(200_000, seed=22)
        self.round_trip(values)
        # the subnormal patterns take float(), the bulk does not
        subnormal = np.count_nonzero(np.abs(values) < 2.2250738585072014e-308)
        assert subnormal > 50
        assert subnormal <= len(per_cell) < 2 * subnormal

    def test_powers_of_ten_and_their_neighbours(self):
        values = powers_of_ten()
        self.round_trip(np.concatenate((values, -values)))

    def test_powers_of_two_and_their_neighbours(self, per_cell):
        values = powers_of_two()
        self.round_trip(np.concatenate((values, -values)))
        # the subnormal ones take float()
        assert len(per_cell) >= 2 * 52

    def test_format_kernel_value_sets(self):
        self.round_trip(np.concatenate((TIES, -TIES)))
        self.round_trip(np.array(EDGES + REPEATS + [2.0**53 + 2, 1e16 + 2, -1e16 - 2, 1.0 - 2**-53]))

    def test_signed_zero(self):
        got = parse_text([b"0.0", b"-0.0", b"0", b"-0", b"-0e+00", b"00.000"])
        assert np.signbit(got).tolist() == [False, True, False, True, True, False]
        assert not got.any()

    def test_exact_decimal_ties(self, per_cell):
        # float() rounds a tie to the even double; every tie takes float()
        texts = list(tie_texts())
        assert parse_text(texts).tobytes() == float_text(texts).tobytes()
        assert sorted(per_cell) == sorted(texts)
        assert parse_text([b"9007199254740993"])[0] == 2.0**53

    def test_subnormals(self, per_cell):
        values = subnormals(5000, seed=23)
        self.round_trip(np.concatenate((values, -values)))
        assert len(per_cell) >= 2 * 5000
        # near the least subnormal and past the table: 0.0, 5e-324 or 0.0
        texts = [b"5e-324", b"4.9406564584124654e-324", b"2.4703282292062328e-324",
                 b"2.4703282292062327e-324", b"1e-999", b"-1e-400",
                 b"2.2250738585072011e-308", b"0.0000000000000001e-292"]
        assert parse_text(texts).tobytes() == float_text(texts).tobytes()

    def test_largest_doubles_and_overflow(self):
        texts = [b"1.7976931348623157e+308", b"1.7976931348623158e+308",
                 b"1.7976931348623159e+308", b"-1e+309", b"1e+999", b"9e+307"]
        got = parse_text(texts)
        assert got.tobytes() == float_text(texts).tobytes()
        assert got[0] == got[1] == np.finfo(float).max and np.isinf(got[2:5]).all()

    def test_more_digits_than_the_writer_prints(self, per_cell):
        # up to 18 digits below 9.2e17 fit the kernel's 63 bits; more take float()
        long = [b"1234567890123456789", b"1.000000000000000000001", b"123456789012345678901234"]
        texts = [b"123456789012345678", b"0.123456789012345678", b"-9.19999999999999999",
                 b"0.0000000000000000000001", b"000000000000000000000007",
                 b"0.0000000000000001e-99", *long]
        assert parse_text(texts).tobytes() == float_text(texts).tobytes()
        assert per_cell == long

    @pytest.mark.parametrize(
        "cell",
        [b"+1.0", b" 1.0", b"1.0 ", b"1e5", b"1e+5", b"1e-0005", b".5", b"1.", b"-",
         b"--1", b"1-", b"1.2.3", b"e+05", b"1.0e+05e+05", b"nan", b"inf", b"0x1p-3",
         b"1_0", b"1E+05", b"\xd9\xa1", b"", b"-1.23456789012345678e-300"],
    )
    def test_refuses_what_the_writer_never_writes(self, cell):
        for row in ([cell], [b"0.5", cell, b"-2e-05"]):
            with pytest.raises(ValueError) as info:
                parse_values(b",".join(row) + b"\n", width=len(row))
            assert not isinstance(info.value, RowWidthError)

    def test_random_spellings_against_float_and_the_grammar(self):
        # seeded cells in the grammar, spelled as the writer never does, and
        # random text: each row is read as float() reads it exactly when
        # every cell matches the grammar, and refused otherwise
        rng = np.random.default_rng(24)
        grammar = re.compile(rb"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]{2,3})?")

        def digits(lo, hi):
            return bytes(rng.choice(list(b"0123456789"), size=rng.integers(lo, hi + 1)))

        def spelled():
            cell = (b"-" if rng.random() < 0.4 else b"") + digits(1, 12)
            if rng.random() < 0.7:
                cell += b"." + digits(1, 12)
            if rng.random() < 0.5:
                cell += b"e" + bytes([rng.choice(list(b"+-"))]) + digits(2, 3)
            return cell

        def junk():
            return bytes(rng.choice(list(b"0123456789.-+eE _x"), size=rng.integers(0, 27)))

        for _ in range(3000):
            cells = [spelled() if rng.random() < 0.7 else junk() for _ in range(rng.integers(1, 5))]
            data = b",".join(cells) + b"\n"
            if all(len(c) <= 24 and grammar.fullmatch(c) for c in cells):
                got = parse_values(data, width=len(cells)).ravel()
                assert got.tobytes() == float_text(cells).tobytes(), cells
            else:
                with pytest.raises(ValueError):
                    parse_values(data, width=len(cells))

    def test_rows(self):
        got = parse_values(b"1.0,2.5\n-3.0,4e-05\n", width=2)
        assert got.tolist() == [[1.0, 2.5], [-3.0, 4e-05]]
        for bad in (b"1.0,2.5\n3.0\n", b"1.0\n2.5\n", b"1.0,2.5,3.0\n4.0\n"):
            with pytest.raises(RowWidthError):
                parse_values(bad, width=2)
        with pytest.raises(ValueError):
            parse_values(b"1.0,2.5", width=2)  # no final newline
        assert parse_values(b"", width=3).shape == (0, 3)

    def test_bytes_before_start_are_skipped(self):
        data = b"anything at all\n1.5\n-2.0\n"
        assert parse_values(data, start=16).ravel().tolist() == [1.5, -2.0]
        # an "e" just before a short first cell is not its exponent
        for prefix in (b"e", b"e,", b"e+", b"e-0", b"x" * 30 + b"e,1"):
            data = prefix + b"\n5\n-7\n"
            assert parse_values(data, start=len(prefix) + 1).ravel().tolist() == [5.0, -7.0]

    def test_parse_tables_built_on_first_use(self):
        code = (
            "import octavib.cli, octavib._kernels as k; "
            "print(k._parse_tables.cache_info().currsize, k._scales.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["0", "0"]
