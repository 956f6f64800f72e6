"""The CSV kernel against Python's own text: ``repr`` of each float and
``str`` of each int, cell by cell."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efq import csvtext


def float_lines(values) -> list[str]:
    return csvtext.chunk_bytes([np.asarray(values, dtype=np.float64)]).decode().split("\n")[:-1]


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    expected = list(map(repr, values.tolist()))
    got = float_lines(values)
    wrong = [(v, g, e) for v, g, e in zip(values.view(np.uint64).tolist(), got, expected) if g != e]
    assert len(got) == len(expected) and wrong == [], f"{len(wrong)} wrong, the first (bits, kernel, repr): {wrong[:5]}"


def test_a_million_random_bit_patterns():
    # Every class of double: both signs, subnormals (1 in 2048 of these),
    # inf and nan are among the patterns, and more of each are added.
    rng = np.random.default_rng(20261019)
    for _ in range(8):
        bits = rng.integers(0, 2**64, 1 << 17, dtype=np.uint64)
        bits[:4096] &= np.uint64(0x800F_FFFF_FFFF_FFFF)  # subnormal or zero
        bits[4096:4200] |= np.uint64(0x7FF0_0000_0000_0000)  # nan, and inf where the fraction is 0
        bits[4200] = np.uint64(0x7FF0_0000_0000_0000)
        bits[4201] = np.uint64(0xFFF0_0000_0000_0000)
        assert_reprs(bits.view(np.float64))


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -math.inf), values, np.nextafter(values, math.inf)])


def test_powers_of_two_and_ten_and_their_neighbours():
    assert_reprs(with_neighbours([math.ldexp(1.0, k) for k in range(-1074, 1024)]))
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    assert_reprs(with_neighbours(tens + [-t for t in tens]))


def test_integers_near_two_to_the_53():
    near = np.arange(-4096, 4097, dtype=np.float64)
    assert_reprs(np.concatenate([2.0**53 + near, 2.0**53 + 2 * near, -(2.0**53) - near, 2.0**52 + near / 2]))


@pytest.mark.parametrize(
    "value, text",
    [
        (1e16, "1e+16"),
        (9999999999999998.0, "9999999999999998.0"),
        (1e-4, "0.0001"),
        (1e-5, "1e-05"),
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (math.nan, "nan"),
        (-math.nan, "nan"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (2.2250738585072014e-308, "2.2250738585072014e-308"),
        (2.225073858507201e-308, "2.225073858507201e-308"),
        (5e-324, "5e-324"),
        (-5e-324, "-5e-324"),
        (123456789012345.6, "123456789012345.6"),
        (0.1 + 0.2, "0.30000000000000004"),
        (-1.5e-300, "-1.5e-300"),
    ],
)
def test_where_the_notation_switches_and_the_extremes(value, text):
    # fixed notation for decimal exponents from -4 to 15, at least two
    # exponent digits, ".0" on integral values
    assert float_lines([value]) == [text] == [repr(value)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float_reads_as_repr(values):
    assert float_lines(values) == list(map(repr, values))


def int_lines(col) -> list[str]:
    return csvtext.chunk_bytes([col]).decode().split("\n")[:-1]


def test_int64_extremes_negatives_bools_and_ranges():
    ints = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1, -10, 10**18, -(10**18), 99999999, -100000000])
    assert int_lines(ints) == [str(v) for v in ints.tolist()]
    assert int_lines(np.array([np.iinfo(np.uint64).max, 0], dtype=np.uint64)) == [str(2**64 - 1), "0"]
    assert int_lines(np.array([-128, 127, -1], dtype=np.int8)) == ["-128", "127", "-1"]
    assert int_lines(np.array([True, False, True])) == ["1", "0", "1"]
    assert int_lines(range(999_990, 1_000_010)) == [str(k) for k in range(999_990, 1_000_010)]
    assert int_lines(range(5, -5, -3)) == ["5", "2", "-1", "-4"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=64))
def test_any_int64_reads_as_str(values):
    assert int_lines(np.array(values, dtype=np.int64)) == list(map(str, values))


def test_mixed_columns_across_blocks_with_few_and_many_distinct_values():
    # Three blocks of rows; `levels` has few distinct values, so each is
    # formatted once and gathered, and `x` many.
    rng = np.random.default_rng(3)
    n = 2 * csvtext.BLOCK_ROWS + 5
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n)
    levels = rng.integers(-3, 4, n) * 0.1
    flags = rng.random(n) < 0.5
    ints = rng.integers(-(10**12), 10**12, n)
    columns = [range(n), x, levels, flags, ints]
    rows = zip(range(n), x.tolist(), levels.tolist(), flags.tolist(), ints.tolist())
    expected = "".join(f"{k},{a!r},{b!r},{int(c)},{d}\n" for k, a, b, c, d in rows)
    assert csvtext.chunk_bytes(columns).decode().split("\n") == expected.split("\n")


def test_import_efq_does_not_load_the_kernel_and_the_table_waits_for_first_use():
    code = (
        "import sys, efq; loaded = 'efq.csvtext' in sys.modules\n"
        "import efq.cli, efq.csvtext\n"
        "print(loaded, efq.csvtext._tables.cache_info().currsize)"
    )
    src = str(Path(csvtext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0"]
