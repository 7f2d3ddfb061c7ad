"""Parity of the bulk value emitter and loader with per-value references.

``dumps`` writes a flat float64 or complex array block by block with one
``%`` format per block, and the loaders convert a values list with numpy.  The
references below do the same one value at a time, as expann's per-value
code did: every written byte, every loaded bit and every error text must
match them.
"""

import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expann import jsonio
from expann.cli import main
from expann.errors import InputError, NumericalError
from expann.expspace import ExponentialSum, FrequencyVector, sample
from expann.oracle import random_instance

BLOCK = jsonio._BLOCK


def _number_text(x: float) -> str:
    if not math.isfinite(x):
        raise NumericalError(f"cannot write the non-finite number {x}")
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
            raise InputError(
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


def test_grid_sampled_at_level_true_writes_ints():
    f = ExponentialSum(((1.0, FrequencyVector(0.5, 0.0)),))
    text = jsonio.dump_grid(sample(f, True, (0, 0), 2, 1))
    assert text == jsonio.dump_grid(sample(f, 1, (0, 0), 2, 1))
    assert text.startswith('{"level": 1, "origin": [0, 0], "width": 2, "height": 1, ')


@pytest.mark.parametrize("level, origin, error", [
    (-1, 0, ValueError), (2000, 0, ValueError), (1.5, 0, TypeError), (0, 0.5, TypeError),
])
def test_series_writer_refuses_what_the_loader_refuses(level, origin, error):
    # dump_series checks level and origin as GridSamples does, so it writes
    # no file that load_series refuses
    with pytest.raises(error):
        jsonio.dump_series([1.0, 2.0, 3.0, 4.0], level, origin)


def test_series_writer_writes_numpy_integers_as_ints():
    text = jsonio.dump_series([1.0, 2.0, 3.0, 4.0], np.int64(3), np.int64(-2))
    assert text == jsonio.dump_series([1.0, 2.0, 3.0, 4.0], 3, -2)
    assert text.startswith('{"level": 3, "origin": -2, ')
    values, level, origin = jsonio.load_series(text)
    assert (values.tolist(), level, origin) == ([1.0, 2.0, 3.0, 4.0], 3, -2)
    assert type(level) is int and type(origin) is int


def test_strided_array():
    arr = np.arange(12, dtype=np.complex128) * (1 + 0.5j)
    arr[::3] = arr[::3].real
    assert jsonio.dumps(arr[::2]) == reference_text(arr[::2])


def test_other_arrays_rejected():
    for arr in (np.zeros((2, 2), dtype=np.complex128), np.zeros((2, 2)), np.arange(3)):
        with pytest.raises(TypeError, match="cannot write ndarray as JSON"):
            jsonio.dumps(arr)
    assert jsonio.dumps(np.zeros(3)) == jsonio.dumps(np.zeros(3, dtype=np.complex128))


@pytest.mark.parametrize("n", [0, 3, BLOCK, BLOCK + 5])
def test_real_array_writes_as_its_complex_form(n):
    rng = np.random.default_rng(n)
    arr = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    arr[::7] = -0.0
    assert jsonio.dumps(arr) == jsonio.dumps(arr.astype(np.complex128)) == reference_text(arr)


def _reference_error(values) -> str:
    with pytest.raises(NumericalError) as exc:
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
    with pytest.raises(NumericalError) as exc:
        jsonio.dumps(arr)
    assert str(exc.value) == _reference_error(arr)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("at", [0, BLOCK, 2 * BLOCK + 2])
def test_non_finite_error_text_real(bad, at):
    arr = np.linspace(-1.0, 1.0, 2 * BLOCK + 3)
    arr[at] = bad
    if at < len(arr) - 1:
        arr[-1] = -math.inf  # a later non-finite value is never the one named
    with pytest.raises(NumericalError) as exc:
        jsonio.dumps(arr)
    assert str(exc.value) == _reference_error(arr)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(finite, st.one_of(finite, st.sampled_from([0.0, -0.0]))),
                max_size=40))
def test_random_arrays(parts):
    arr = np.array([complex(re, im) for re, im in parts], dtype=np.complex128)
    assert jsonio.dumps(arr) == reference_text(arr)


# --- writer ------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden" / "cli_pipeline.json"


def _written(doc) -> str:
    stream = io.StringIO()
    jsonio.write(doc, stream)
    return stream.getvalue()


def test_write_matches_dumps_on_golden_documents():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    docs = [json.loads(entry[1]) for runs in golden.values()
            for entry in runs.values() if isinstance(entry, list)]
    assert len(docs) == 8 * len(golden)
    for doc in docs:
        assert _written(doc) == jsonio.dumps(doc) + "\n"


@pytest.mark.parametrize("seed", range(21))
def test_write_matches_dumps_on_generated_instances(seed, capsys):
    g, f, grid = random_instance(seed)
    doc = {"seed": seed, "frequency": [g.g1.value, g.g2.value],
           "sum": jsonio.sum_doc(f), "grid": jsonio.grid_doc(grid)}
    assert _written(doc) == jsonio.dumps(doc) + "\n"
    assert main(["generate", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == _written(doc)


def _late_non_finite() -> dict:
    return {"values": np.linspace(-1.0, 1.0, 2 * BLOCK + 3), "residual": math.inf}


def test_write_of_a_late_non_finite_value_writes_nothing():
    stream = io.StringIO()
    with pytest.raises(NumericalError, match="non-finite number inf"):
        jsonio.write(_late_non_finite(), stream)
    assert stream.getvalue() == ""


def test_write_to_a_path(tmp_path):
    doc = {"values": np.arange(BLOCK + 3, dtype=np.float64) / 7}
    path = tmp_path / "out.json"
    jsonio.write(doc, path)
    assert path.read_text(encoding="utf-8") == jsonio.dumps(doc) + "\n"
    # the file is opened only once the text is built, so a failure leaves it as it was
    with pytest.raises(NumericalError):
        jsonio.write(_late_non_finite(), path)
    assert path.read_text(encoding="utf-8") == jsonio.dumps(doc) + "\n"
    with pytest.raises(NumericalError):
        jsonio.write(_late_non_finite(), tmp_path / "new.json")
    assert not (tmp_path / "new.json").exists()


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


@pytest.mark.parametrize(
    "text, dtype",
    [
        ("[1.5, -2, 0]", np.float64),
        ("[1.5, [-2, 0.5], 0]", np.complex128),
        # the largest float takes the per-value scan instead of the bulk path
        ("[1.7976931348623157e308, -2, 0]", np.float64),
        ("[1.7976931348623157e308, [-2, 0], 0]", np.complex128),
    ],
)
def test_values_load_real_unless_a_pair(text, dtype):
    # a file of plain numbers loads as float64; one [re, im] pair makes it complex128
    values, _, _ = jsonio.load_series(_series(text))
    assert values.dtype == dtype
    grid = jsonio.load_grid(
        f'{{"level": 0, "origin": [0, 0], "width": 3, "height": 1, "values": {text}}}'
    )
    assert grid.values.dtype == dtype


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
    with pytest.raises(InputError) as ref:
        reference_load(json.loads(text))
    with pytest.raises(InputError) as got:
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
    except InputError as exc:
        with pytest.raises(InputError) as got:
            jsonio.load_series(text)
        assert str(got.value) == str(exc)
    else:
        values, _, _ = jsonio.load_series(text)
        assert _bits(values) == _bits(expected)
