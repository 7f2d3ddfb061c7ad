"""Reading and writing the JSON file formats used by the command line.

Grid files:   {"level": k, "origin": [i, j], "width": w, "height": h,
               "values": [...]}        (row-major, rows along the second axis)
Sum files:    {"terms": [{"coeff": [re, im], "freq": [[re, im], [re, im]]}]}
Series files: {"level": k, "origin": i, "values": [...]}

A value is a plain number or an [re, im] pair; everything is normalized to
complex on load.  All floats are written with 17 significant digits so a
rerun reproduces files byte for byte.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .errors import FileFormatError
from .expspace import MAX_LEVEL, ExponentialSum, FrequencyVector, GridSamples

__all__ = [
    "format_float",
    "load_grid",
    "dump_grid",
    "load_sum",
    "dump_sum",
    "load_series",
    "dump_series",
]

_FLOAT_MAX = sys.float_info.max


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize {x}")
    return f"{x:.17g}"


def _format_value(v: complex) -> str:
    if v.imag == 0.0:
        return format_float(v.real)
    return f"[{format_float(v.real)}, {format_float(v.imag)}]"


def _is_number(x) -> bool:
    # NaN, the infinities and integers beyond the float range fail the bound
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX


def _parse_value(raw, where: str) -> complex:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool) and abs(raw) <= _FLOAT_MAX:
        return complex(raw)  # the common case, inlined: grids hold many values
    if isinstance(raw, list) and len(raw) == 2 and _is_number(raw[0]) and _is_number(raw[1]):
        return complex(raw[0], raw[1])
    raise FileFormatError(f"{where}: expected a finite number or [re, im] pair, got {raw!r}")


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
    values = [_parse_value(v, f"grid file: values[{i}]") for i, v in enumerate(raw)]
    try:
        return GridSamples(level, (origin[0], origin[1]), width, height, values)
    except ValueError as exc:
        raise FileFormatError(f"grid file: {exc}") from exc


def dump_grid(s: GridSamples) -> str:
    vals = ", ".join(_format_value(complex(v)) for v in s.values.ravel())
    return (
        f'{{"level": {s.level}, "origin": [{s.origin[0]}, {s.origin[1]}], '
        f'"width": {s.width}, "height": {s.height}, "values": [{vals}]}}'
    )


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
        coeff = _parse_value(t.get("coeff"), f"{where}.coeff")
        freq = t.get("freq")
        if not isinstance(freq, list) or len(freq) != 2:
            raise FileFormatError(f"{where}.freq: must be [[re, im], [re, im]]")
        comps = [_parse_value(c, f"{where}.freq[{j}]") for j, c in enumerate(freq)]
        try:
            fv = FrequencyVector.of(*comps)
        except ValueError as exc:
            raise FileFormatError(f"{where}.freq: {exc}") from exc
        terms.append((coeff, fv))
    return ExponentialSum(tuple(terms))


def _format_pair(v: complex) -> str:
    return f"[{format_float(v.real)}, {format_float(v.imag)}]"


def dump_sum(f: ExponentialSum) -> str:
    terms = ", ".join(
        f'{{"coeff": {_format_pair(c)}, '
        f'"freq": [{_format_pair(g.g1.value)}, {_format_pair(g.g2.value)}]}}'
        for c, g in f.terms
    )
    return f'{{"terms": [{terms}]}}'


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
    values = [_parse_value(v, f"series file: values[{i}]") for i, v in enumerate(raw)]
    return np.asarray(values, dtype=np.complex128), level, origin


def dump_series(values, level: int, origin: int = 0) -> str:
    vals = ", ".join(_format_value(complex(v)) for v in values)
    return f'{{"level": {level}, "origin": {origin}, "values": [{vals}]}}'
