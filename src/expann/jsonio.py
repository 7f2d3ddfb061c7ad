"""Reading and writing the JSON file formats used by the command line.

Grid files:   {"level": k, "origin": [i, j], "width": w, "height": h,
               "values": [...]}        (row-major, rows along the second axis)
Sum files:    {"terms": [{"coeff": [re, im], "freq": [[re, im], [re, im]]}]}
Series files: {"level": k, "origin": i, "values": [...]}

A value is a plain number or an [re, im] pair.  Grid and series values load
as float64 when every value in the file is a plain number, and as complex128
otherwise; a sum's values load as complex.  The parsed JSON list of a
grid's values is released before ``GridSamples`` copies their array, so the
list and the copy are never held at once.  Every byte expann writes comes
from one piece builder, ``_pieces``: ``dumps`` joins its pieces into one
string, and ``write`` writes them to a stream or file unjoined, so a large
grid's text is never copied whole.  Floats carry 17 significant digits, so
a rerun reproduces files byte for byte.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
from itertools import chain, compress, repeat

import numpy as np

from .errors import InputError, NumericalError
from .expspace import (
    _SAMPLE_DTYPES,
    ExponentialSum,
    FrequencyVector,
    GridSamples,
    _check_window,
    _sample_array,
)

__all__ = [
    "dumps",
    "write",
    "grid_doc",
    "sum_doc",
    "load_grid",
    "dump_grid",
    "load_sum",
    "dump_sum",
    "load_series",
    "dump_series",
]

_FLOAT_MAX = sys.float_info.max
_NUMBER_TYPES = frozenset((int, float))  # exact types: json reads true and false as bool

# values per formatted block: the text is built a block at a time, so the
# tokens of the whole array never exist at once
_BLOCK = 4096
_PLAIN, _PAIR = "%.17g", "[%.17g, %.17g]"  # the float branch's f"{x:.17g}"
_PLAIN_BLOCK = ", ".join([_PLAIN] * _BLOCK)


def dumps(obj) -> str:
    """JSON text of the types the outputs use: a complex is always written
    as [re, im], and a float with 17 significant digits.  A flat float64
    ndarray is written as a list of plain numbers, and a flat complex
    ndarray as the list of its plain values would be: a value with a zero
    imaginary part as a number, any other as [re, im]."""
    return "".join(_pieces(obj, []))


def write(obj, target) -> None:
    """Write ``dumps(obj)`` and a newline to target, a text stream or a path,
    as the unjoined pieces of the text.  Every piece is built before the
    first is written, so a value that cannot be written, or text that does
    not fit in memory, raises with target untouched: a path is opened only
    then, and an ``OSError`` from it passes to the caller."""
    pieces = _pieces(obj, [])
    pieces.append("\n")
    if isinstance(target, os.PathLike):
        with open(target, "w", encoding="utf-8") as stream:
            stream.writelines(pieces)
    else:
        target.writelines(pieces)


def _pieces(obj, out: list) -> list:
    """Append the JSON text of obj to out, in order, and return out; the
    owner of every output byte.  A sample array's text is one piece per
    block of values, so it is never joined unless ``dumps`` joins it."""
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype in _SAMPLE_DTYPES:
        _array_pieces(obj, out)
    elif isinstance(obj, float):
        out.append(_number(obj))
    elif isinstance(obj, complex):
        out.append(f"[{_number(obj.real)}, {_number(obj.imag)}]")
    elif isinstance(obj, list):
        out.append("[")
        for k, v in enumerate(obj):
            if k:
                out.append(", ")
            _pieces(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, v) in enumerate(obj.items()):
            if k:
                out.append(", ")
            out.append(f"{json.dumps(key)}: ")
            _pieces(v, out)
        out.append("}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif _is_int(obj):
        try:
            out.append(str(obj))
        except ValueError as exc:  # past the interpreter's int-to-string digit limit
            raise InputError(
                f"cannot write an integer of more than {sys.get_int_max_str_digits()} digits"
            ) from exc
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")
    return out


def _number(x: float) -> str:
    if not math.isfinite(x):
        raise NumericalError(f"cannot write the non-finite number {x}")
    return f"{x:.17g}"


def _array_pieces(values: np.ndarray, out: list) -> None:
    finite = np.isfinite(values)  # a complex value is finite when both parts are
    if not finite.all():
        # the first non-finite part in write order: a real part precedes its
        # imaginary part, and a non-finite imaginary part is never zero
        v = complex(values[int(finite.argmin())])
        _number(v.imag if math.isfinite(v.real) else v.real)  # raises
    out.append("[")
    for start in range(0, len(values), _BLOCK):
        if start:
            out.append(", ")
        block = values[start:start + _BLOCK]
        # a real array has no imaginary parts to test: every value is plain
        if values.dtype == np.complex128 and (is_pair := block.imag != 0.0).any():
            fmt = ", ".join([_PAIR if p else _PLAIN for p in is_pair.tolist()])
            # re0, im0, re1, ... with the imaginary part of each plain value dropped
            keep = np.ones(2 * len(block), dtype=bool)
            keep[1::2] = is_pair
            args = np.stack((block.real, block.imag), axis=1).ravel()[keep]
        else:
            fmt = _PLAIN_BLOCK if len(block) == _BLOCK else ", ".join([_PLAIN] * len(block))
            args = block.real
        out.append(fmt % tuple(args.tolist()))
    out.append("]")


def _is_number(x) -> bool:
    # NaN, the infinities and integers beyond the float range fail the bound
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX


def _parse_value(raw) -> float | complex | None:
    """A finite number as float or an [re, im] pair as complex; None for
    anything else."""
    if _is_number(raw):
        return float(raw)
    if isinstance(raw, list) and len(raw) == 2 and _is_number(raw[0]) and _is_number(raw[1]):
        return complex(raw[0], raw[1])
    return None


def _require_value(raw, where: str) -> float | complex:
    value = _parse_value(raw)
    if value is None:
        raise InputError(f"{where}: expected a finite number or [re, im] pair, got {raw!r}")
    return value


def _bulk_values(raw: list) -> np.ndarray | None:
    """raw as a flat float64 array, or complex128 if it holds an [re, im] pair,
    each kind of value (plain number, pair) converted by one numpy call; None
    unless every value is one that ``_parse_value`` accepts and every part
    lies strictly inside the float range.  One pass reads the values' types,
    and a per-value pair mask is built only when a pair is present."""
    types = set(map(type, raw))
    if not types - {list} <= _NUMBER_TYPES:
        return None
    plain, parts = raw, []
    if list in types:
        is_pair = list(map(operator.is_, map(type, raw), repeat(list)))
        pairs = list(compress(raw, is_pair))
        plain = list(compress(raw, map(operator.not_, is_pair)))
        if not set(map(len, pairs)) <= {2}:
            return None
        parts = list(chain.from_iterable(pairs))
        if not set(map(type, parts)) <= _NUMBER_TYPES:
            return None
    try:
        numbers = np.array(plain, dtype=np.float64)
        pair_parts = np.array(parts, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    # NaN fails the comparison; a part at exactly the bound is left to the
    # per-value scan, which tells the largest float from an integer above it
    if not (_inside_float_range(numbers) and _inside_float_range(pair_parts)):
        return None
    if list not in types:
        return numbers
    values = np.empty(len(raw), dtype=np.complex128)
    mask = np.array(is_pair, dtype=bool)
    values[~mask] = numbers
    values[mask] = pair_parts.view(np.complex128)
    return values


def _inside_float_range(x: np.ndarray) -> bool:
    """Whether every entry lies strictly inside (-DBL_MAX, DBL_MAX), read from
    the extremes rather than from an ``np.abs`` copy; NaN fails."""
    return -_FLOAT_MAX < np.minimum.reduce(x, None, initial=0.0) and (
        np.maximum.reduce(x, None, initial=0.0) < _FLOAT_MAX)


def _parse_values(raw: list, what: str) -> np.ndarray:
    values = _bulk_values(raw)
    if values is None:
        # label only a bad value: a label per value costs more than parsing the value
        parsed = list(map(_parse_value, raw))
        if None in parsed:
            i = parsed.index(None)
            _require_value(raw[i], f"{what}: values[{i}]")  # raises
        values = np.array(parsed)  # float64, or complex128 if one value is a pair
    return values


def _parse_json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"{what}: arrays or objects nest too deeply") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise InputError(
            f"{what}: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    if not isinstance(doc, dict):
        raise InputError(f"{what}: top level must be an object")
    return doc


def _is_int(v) -> bool:
    """Whether v is a JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


def _require_int(doc: dict, key: str, what: str, default=None) -> int:
    v = doc.get(key, default)
    if not _is_int(v):
        raise InputError(f"{what}: field {key!r} must be an integer")
    return v


def load_grid(text: str) -> GridSamples:
    doc = _parse_json(text, "grid file")
    level = _require_int(doc, "level", "grid file")
    width = _require_int(doc, "width", "grid file")
    height = _require_int(doc, "height", "grid file")
    origin = doc.get("origin")
    if not (isinstance(origin, list) and len(origin) == 2 and all(map(_is_int, origin))):
        raise InputError("grid file: field 'origin' must be [i, j] integers")
    raw = doc.get("values")
    if not isinstance(raw, list):
        raise InputError("grid file: field 'values' must be an array")
    values = _parse_values(raw, "grid file")
    del doc, raw  # the parsed values go before GridSamples copies the array
    try:
        return GridSamples(level, (origin[0], origin[1]), width, height, values)
    except ValueError as exc:
        raise InputError(f"grid file: {exc}") from exc


def grid_doc(s: GridSamples) -> dict:
    return {"level": s.level, "origin": list(s.origin), "width": s.width,
            "height": s.height, "values": s.values.ravel()}


def dump_grid(s: GridSamples) -> str:
    return dumps(grid_doc(s))


def load_sum(text: str) -> ExponentialSum:
    doc = _parse_json(text, "sum file")
    raw_terms = doc.get("terms")
    if not isinstance(raw_terms, list):
        raise InputError("sum file: field 'terms' must be an array")
    terms = []
    for i, t in enumerate(raw_terms):
        where = f"sum file: terms[{i}]"
        if not isinstance(t, dict):
            raise InputError(f"{where}: must be an object")
        coeff = _require_value(t.get("coeff"), f"{where}.coeff")
        freq = t.get("freq")
        if not isinstance(freq, list) or len(freq) != 2:
            raise InputError(f"{where}.freq: must be [[re, im], [re, im]]")
        comps = [_require_value(c, f"{where}.freq[{j}]") for j, c in enumerate(freq)]
        try:
            fv = FrequencyVector(*comps)
        except ValueError as exc:
            raise InputError(f"{where}.freq: {exc}") from exc
        terms.append((coeff, fv))
    return ExponentialSum(tuple(terms))


def sum_doc(f: ExponentialSum) -> dict:
    return {"terms": [{"coeff": c, "freq": [g.g1.value, g.g2.value]} for c, g in f.terms]}


def dump_sum(f: ExponentialSum) -> str:
    return dumps(sum_doc(f))


def load_series(text: str) -> tuple[np.ndarray, int, int]:
    """Returns (values, level, origin); origin defaults to 0."""
    doc = _parse_json(text, "series file")
    level = _require_int(doc, "level", "series file")
    try:
        _check_window(level, 1, 1)
    except ValueError as exc:
        raise InputError(f"series file: {exc}") from exc
    origin = _require_int(doc, "origin", "series file", 0)
    raw = doc.get("values")
    if not isinstance(raw, list):
        raise InputError("series file: field 'values' must be an array")
    return _parse_values(raw, "series file"), level, origin


def dump_series(values, level: int, origin: int = 0) -> str:
    """A series file that ``load_series`` reads: level and origin are checked
    as ``GridSamples`` checks them, and the ints that gives are written."""
    level, origin = _check_window(level, 1, 1)[0], operator.index(origin)
    return dumps({"level": level, "origin": origin, "values": _sample_array(values).ravel()})
