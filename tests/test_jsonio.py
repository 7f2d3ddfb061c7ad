"""Parity of the bulk value emitter and loader with per-value references.

``dumps`` writes a flat complex array block by block with one ``%`` format
per block, and the loaders convert a values list with numpy.  The
references below do the same one value at a time, as expann's per-value
code did: every written byte, every loaded bit and every error text must
match them.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expann import jsonio
from expann.errors import FileFormatError, RangeOverflowError

BLOCK = jsonio._BLOCK


def _number_text(x: float) -> str:
    if not math.isfinite(x):
        raise RangeOverflowError(f"cannot write the non-finite number {x}")
    return f"{x:.17g}"


def reference_text(values) -> str:
    """Values one Python float at a time: [re, im] only where im is nonzero."""
    tokens = []
    for v in np.asarray(values, dtype=np.complex128).ravel().tolist():
        if v.imag == 0.0:
            tokens.append(_number_text(v.real))
        else:
            tokens.append(f"[{_number_text(v.real)}, {_number_text(v.imag)}]")
    return f"[{', '.join(tokens)}]"


def _accepted(x) -> bool:
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def reference_load(raw: list) -> np.ndarray:
    """complex(v) per value; the first value that is neither a finite number
    nor a pair of them is named by index."""
    out = []
    for i, v in enumerate(raw):
        if _accepted(v):
            out.append(complex(v))
        elif type(v) is list and len(v) == 2 and _accepted(v[0]) and _accepted(v[1]):
            out.append(complex(v[0], v[1]))
        else:
            raise FileFormatError(
                f"series file: values[{i}]: expected a finite number or [re, im] pair, got {v!r}"
            )
    return np.array(out, dtype=np.complex128)


def _bits(a: np.ndarray) -> list:
    return np.ascontiguousarray(a, dtype=np.complex128).ravel().view(np.uint64).tolist()


# --- emitter -----------------------------------------------------------------

EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
    1e16, 1e17, 1.2345678901234567e17, 3e100, -7.5e300, 1e300,
    1e-4, 9.999999999999999e-5, 1e-5, -3.3e-200,
    1.0, -2.0, 3.0, 2.0**53, 2.0**53 + 2, -(2.0**70), 123456789.0,
    1j, -0.5j, complex(0.0, 1e-310), complex(-0.0, 2.5), complex(1e300, -1e-300),
    complex(1.5, 0.0), complex(1.5, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0),
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_edge_value_bytes(value):
    arr = np.array([value, 1.0, value], dtype=np.complex128)
    assert jsonio.dumps(arr) == reference_text(arr)


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
def test_block_boundaries(n, kind):
    rng = np.random.default_rng(n)
    re = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    im = {"real": np.zeros(n),
          "complex": rng.standard_normal(n),
          "mixed": np.where(rng.random(n) < 0.5, rng.choice([0.0, -0.0], n), re[::-1])}[kind]
    arr = re + 1j * im
    assert jsonio.dumps(arr) == reference_text(arr)
    # the list branch, which writes documents read back from JSON, agrees too
    plain = [v.real if v.imag == 0.0 else v for v in arr.tolist()]
    assert jsonio.dumps(plain) == jsonio.dumps(arr)


def test_array_inside_documents():
    grid_values = np.array([[1.0, 2j], [-0.0, 1e-5]])
    doc = {"level": 1, "values": grid_values.ravel(), "nested": [grid_values.ravel()]}
    ref = reference_text(grid_values)
    assert jsonio.dumps(doc) == f'{{"level": 1, "values": {ref}, "nested": [{ref}]}}'


def test_strided_array():
    arr = np.arange(12, dtype=np.complex128) * (1 + 0.5j)
    arr[::3] = arr[::3].real
    assert jsonio.dumps(arr[::2]) == reference_text(arr[::2])


def test_other_arrays_rejected():
    for arr in (np.zeros(3), np.zeros((2, 2), dtype=np.complex128)):
        with pytest.raises(TypeError, match="cannot write ndarray as JSON"):
            jsonio.dumps(arr)


def _reference_error(values) -> str:
    with pytest.raises(RangeOverflowError) as exc:
        reference_text(values)
    return str(exc.value)


@pytest.mark.parametrize("bad", [
    complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, 0.0),
    complex(math.nan, 1.0), complex(-math.inf, 1.0), complex(1.0, math.nan),
    complex(1.0, math.inf), complex(-0.0, -math.inf), complex(math.inf, math.nan),
    complex(-math.inf, math.inf), complex(math.nan, -math.inf),
], ids=repr)
@pytest.mark.parametrize("at", [0, 5, BLOCK - 1, BLOCK, 2 * BLOCK + 2])
def test_non_finite_error_text(bad, at):
    arr = np.linspace(-1.0, 1.0, 2 * BLOCK + 3) * (1 + 0.25j)
    arr[1::3] = arr[1::3].real
    arr[at] = bad
    if at < len(arr) - 1:
        arr[-1] = complex(1.0, -math.inf)  # a later non-finite part is never the one named
    with pytest.raises(RangeOverflowError) as exc:
        jsonio.dumps(arr)
    assert str(exc.value) == _reference_error(arr)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(finite, st.one_of(finite, st.sampled_from([0.0, -0.0]))),
                max_size=40))
def test_random_arrays(parts):
    arr = np.array([complex(re, im) for re, im in parts], dtype=np.complex128)
    assert jsonio.dumps(arr) == reference_text(arr)


# --- loader ------------------------------------------------------------------

def _series(values_text: str) -> str:
    return f'{{"level": 0, "values": {values_text}}}'


VALID_TEXTS = [
    "[1, 2.5, -0, -0.0, 0]",
    f"[{2**53 + 1}, {2**64 + 1}, {-(2**63) - 1}, {2**70}, {2**1023 + 2**970}]",
    "[5e-324, -5e-324, 2.2250738585072014e-308, 1e-320, 1.7976931348623157e308]",
    "[[1, 2], [-0, -0.0], [-0.0, 0], [5e-324, -1e300], [1.7976931348623157e308, 1]]",
    f"[1.5, [0, 2], 3, [{2**70}, -0.0], -0.0, [1e-310, 1e300], 7]",
    f"[{int(sys.float_info.max)}, -1.7976931348623157e308]",
]


@pytest.mark.parametrize("text", VALID_TEXTS)
def test_loaded_bits_match_reference(text):
    raw = json.loads(text)
    values, _, _ = jsonio.load_series(_series(text))
    assert _bits(values) == _bits(reference_load(raw))
    n = len(raw)
    grid = jsonio.load_grid(
        f'{{"level": 0, "origin": [0, 0], "width": {n}, "height": 1, "values": {text}}}'
    )
    assert _bits(grid.values) == _bits(reference_load(raw))


BAD_TOKENS = [
    "true", "false", "null", '"1.5"', "[1.0]", "[1, 2, 3]", "[]", "[1.0, true]",
    "[false, 1.0]", "[[1, 2], 3]", "[1, null]", '[1, "2"]', "{}", str(10**400),
    f"-{10**400}", "NaN", "Infinity", "-Infinity", "1e400", "-1e400",
    f"[1, {10**400}]", "[NaN, 1]", "[1, Infinity]", "[1e400, 0]",
    str(int(sys.float_info.max) + 1), f"[0, {int(sys.float_info.max) + 1}]",
]


@pytest.mark.parametrize("bad", BAD_TOKENS)
@pytest.mark.parametrize("at", [0, 3, 9])
@pytest.mark.parametrize("others", ["plain", "pairs", "mixed"])
def test_first_bad_value_named(bad, at, others):
    tokens = {"plain": ["1.5", "-2", "0"], "pairs": ["[1, 2]", "[0.5, -0.0]"],
              "mixed": ["1.5", "[1, 2]", "-0"]}[others]
    values = [tokens[i % len(tokens)] for i in range(10)]
    values[at] = bad
    if at < 9:
        values[9] = "null"  # a later bad value is never the one named
    text = f"[{', '.join(values)}]"
    with pytest.raises(FileFormatError) as ref:
        reference_load(json.loads(text))
    with pytest.raises(FileFormatError) as got:
        jsonio.load_series(_series(text))
    assert str(got.value) == str(ref.value)
    assert f"values[{at}]" in str(got.value)


_json_values = st.one_of(
    finite,
    st.integers(-(2**80), 2**80),
    st.lists(st.one_of(finite, st.integers(-(2**70), 2**70)), min_size=2, max_size=2),
)
_json_junk = st.one_of(
    st.booleans(), st.none(), st.text(max_size=2), st.just(10**400),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.one_of(finite, st.booleans(), st.none()), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_json_values, _json_values, _json_values, _json_junk),
                min_size=1, max_size=30))
def test_random_lists_match_reference(raw):
    text = _series(json.dumps(raw))
    raw = json.loads(text)["values"]
    try:
        expected = reference_load(raw)
    except FileFormatError as exc:
        with pytest.raises(FileFormatError) as got:
            jsonio.load_series(text)
        assert str(got.value) == str(exc)
    else:
        values, _, _ = jsonio.load_series(text)
        assert _bits(values) == _bits(expected)
