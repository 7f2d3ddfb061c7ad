"""Reading and writing the JSON file formats used by the command line.

Grid files:   {"level": k, "origin": [i, j], "width": w, "height": h,
               "values": [...]}        (row-major, rows along the second axis)
Sum files:    {"terms": [{"coeff": [re, im], "freq": [[re, im], [re, im]]}]}
Series files: {"level": k, "origin": i, "values": [...]}

A value is a plain number or an [re, im] pair; everything is normalized to
complex on load.  Every byte expann writes comes from ``dumps``: floats
carry 17 significant digits, so a rerun reproduces files byte for byte.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from itertools import chain, compress, repeat

import numpy as np

from .errors import FileFormatError, RangeOverflowError
from .expspace import MAX_LEVEL, ExponentialSum, FrequencyVector, GridSamples

__all__ = [
    "dumps",
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
    as [re, im], and a float with 17 significant digits.  A flat complex
    ndarray is written as the list of its plain values would be: a value
    with a zero imaginary part as a number, any other as [re, im]."""
    if isinstance(obj, np.ndarray) and obj.dtype == np.complex128 and obj.ndim == 1:
        return _dump_values(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise RangeOverflowError(f"cannot write the non-finite number {obj}")
        return f"{obj:.17g}"
    if isinstance(obj, complex):
        return f"[{dumps(obj.real)}, {dumps(obj.imag)}]"
    if isinstance(obj, list):
        return f"[{', '.join(map(dumps, obj))}]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return str(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _dump_values(values: np.ndarray) -> str:
    re, im = values.real, values.imag
    bad = ~(np.isfinite(re) & np.isfinite(im))
    if bad.any():
        # the first non-finite part in write order: a real part precedes its
        # imaginary part, and a non-finite imaginary part is never zero
        i = int(bad.argmax())
        part = float(re[i]) if not math.isfinite(re[i]) else float(im[i])
        raise RangeOverflowError(f"cannot write the non-finite number {part}")
    blocks = []
    for start in range(0, len(values), _BLOCK):
        block = values[start:start + _BLOCK]
        is_pair = block.imag != 0.0
        if is_pair.any():
            fmt = ", ".join([_PAIR if p else _PLAIN for p in is_pair.tolist()])
            # re0, im0, re1, ... with the imaginary part of each plain value dropped
            keep = np.ones(2 * len(block), dtype=bool)
            keep[1::2] = is_pair
            args = np.stack((block.real, block.imag), axis=1).ravel()[keep]
        else:
            fmt = _PLAIN_BLOCK if len(block) == _BLOCK else ", ".join([_PLAIN] * len(block))
            args = block.real
        blocks.append(fmt % tuple(args.tolist()))
    return f"[{', '.join(blocks)}]"


def _flat_values(values) -> np.ndarray:
    """Grid and series values as the flat complex array ``dumps`` writes."""
    return np.asarray(values, dtype=np.complex128).ravel()


def _is_number(x) -> bool:
    # NaN, the infinities and integers beyond the float range fail the bound
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX


def _parse_value(raw) -> complex | None:
    """A finite number or [re, im] pair as complex; None for anything else."""
    if _is_number(raw):
        return complex(raw)
    if isinstance(raw, list) and len(raw) == 2 and _is_number(raw[0]) and _is_number(raw[1]):
        return complex(raw[0], raw[1])
    return None


def _require_value(raw, where: str) -> complex:
    value = _parse_value(raw)
    if value is None:
        raise FileFormatError(f"{where}: expected a finite number or [re, im] pair, got {raw!r}")
    return value


def _bulk_values(raw: list) -> np.ndarray | None:
    """raw as a flat complex array, each kind of value (plain number, [re, im]
    pair) converted by one numpy call; None unless every value is one that
    ``_parse_value`` accepts and every part lies strictly inside the float range."""
    is_pair = list(map(operator.is_, map(type, raw), repeat(list)))
    pairs = list(compress(raw, is_pair))
    plain = list(compress(raw, map(operator.not_, is_pair))) if pairs else raw
    if not set(map(len, pairs)) <= {2}:
        return None
    parts = list(chain.from_iterable(pairs))
    if not set(map(type, chain(plain, parts))) <= _NUMBER_TYPES:
        return None
    try:
        numbers = np.array(plain, dtype=np.float64)
        pair_parts = np.array(parts, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    # NaN fails the comparison; a part at exactly the bound is left to the
    # per-value scan, which tells the largest float from an integer above it
    if not ((np.abs(numbers) < _FLOAT_MAX).all() and (np.abs(pair_parts) < _FLOAT_MAX).all()):
        return None
    values = np.empty(len(raw), dtype=np.complex128)
    mask = np.array(is_pair, dtype=bool)
    values[~mask] = numbers
    values[mask] = pair_parts.view(np.complex128)
    return values


def _parse_values(raw: list, what: str) -> np.ndarray:
    values = _bulk_values(raw)
    if values is None:
        # label only a bad value: a label per value costs more than parsing the value
        parsed = list(map(_parse_value, raw))
        if None in parsed:
            i = parsed.index(None)
            _require_value(raw[i], f"{what}: values[{i}]")  # raises
        values = np.array(parsed, dtype=np.complex128)
    return values


def _parse_json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{what}: top level must be an object")
    return doc


def _require_int(doc: dict, key: str, what: str) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise FileFormatError(f"{what}: field {key!r} must be an integer")
    return v


def load_grid(text: str) -> GridSamples:
    doc = _parse_json(text, "grid file")
    level = _require_int(doc, "level", "grid file")
    width = _require_int(doc, "width", "grid file")
    height = _require_int(doc, "height", "grid file")
    origin = doc.get("origin")
    if (
        not isinstance(origin, list)
        or len(origin) != 2
        or not all(isinstance(c, int) and not isinstance(c, bool) for c in origin)
    ):
        raise FileFormatError("grid file: field 'origin' must be [i, j] integers")
    raw = doc.get("values")
    if not isinstance(raw, list):
        raise FileFormatError("grid file: field 'values' must be an array")
    if len(raw) != width * height:
        raise FileFormatError(
            f"grid file: expected {width * height} values, got {len(raw)}"
        )
    values = _parse_values(raw, "grid file")
    try:
        return GridSamples(level, (origin[0], origin[1]), width, height, values)
    except ValueError as exc:
        raise FileFormatError(f"grid file: {exc}") from exc


def grid_doc(s: GridSamples) -> dict:
    return {"level": s.level, "origin": list(s.origin), "width": s.width,
            "height": s.height, "values": _flat_values(s.values)}


def dump_grid(s: GridSamples) -> str:
    return dumps(grid_doc(s))


def load_sum(text: str) -> ExponentialSum:
    doc = _parse_json(text, "sum file")
    raw_terms = doc.get("terms")
    if not isinstance(raw_terms, list):
        raise FileFormatError("sum file: field 'terms' must be an array")
    terms = []
    for i, t in enumerate(raw_terms):
        where = f"sum file: terms[{i}]"
        if not isinstance(t, dict):
            raise FileFormatError(f"{where}: must be an object")
        coeff = _require_value(t.get("coeff"), f"{where}.coeff")
        freq = t.get("freq")
        if not isinstance(freq, list) or len(freq) != 2:
            raise FileFormatError(f"{where}.freq: must be [[re, im], [re, im]]")
        comps = [_require_value(c, f"{where}.freq[{j}]") for j, c in enumerate(freq)]
        try:
            fv = FrequencyVector.of(*comps)
        except ValueError as exc:
            raise FileFormatError(f"{where}.freq: {exc}") from exc
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
    if not 0 <= level <= MAX_LEVEL:
        raise FileFormatError(f"series file: level must lie in 0..{MAX_LEVEL}")
    origin = doc.get("origin", 0)
    if not isinstance(origin, int) or isinstance(origin, bool):
        raise FileFormatError("series file: field 'origin' must be an integer")
    raw = doc.get("values")
    if not isinstance(raw, list) or not raw:
        raise FileFormatError("series file: field 'values' must be a non-empty array")
    return _parse_values(raw, "series file"), level, origin


def dump_series(values, level: int, origin: int = 0) -> str:
    return dumps({"level": level, "origin": origin, "values": _flat_values(values)})
