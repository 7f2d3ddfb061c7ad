"""Fuzz the command line with mutated grid, sum and series documents.

Every input must end in one of the documented exit codes (0, 2, 3, 4),
never in a traceback.  On success stdout must be exactly what
``jsonio.dumps`` writes for its own parse, which pins the emitter as the
one output format.  Windows stay at most 12 x 12 and ``--rounds`` at most
4, so no example allocates much; mutated sizes are checked by the loaders
against the values actually present before anything is allocated.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from expann import jsonio
from expann.cli import main

MAX_SIDE = 12

_finite = st.floats(-10.0, 10.0, allow_nan=False)
_pair = st.lists(_finite, min_size=2, max_size=2)
# magnitudes where "%.17g" writes an exponent (from 1e17 up, and below 1e-4),
# down to the subnormals
_scaled = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000))
# the two pairs last have finite parts, but a modulus past DBL_MAX
_value = st.one_of(_finite, _pair, _scaled, st.lists(_scaled, min_size=2, max_size=2),
                   st.sampled_from([1e308, -1e308, 0.0, -0.0, 5e-324, -1e-5, 1e17,
                                    [1.3e308, 1.3e308], [-1.7e308, 1.7e308]]))
_junk = st.one_of(
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.sampled_from([1e308, -1e308, 5e-324, -1, 0, 2000, 2**70]),
    st.lists(st.lists(st.integers(-2, 2), max_size=2), max_size=2),
    st.lists(_finite, max_size=3),
    st.dictionaries(st.sampled_from(["level", "values"]), st.integers(-1, 1), max_size=1),
)


@st.composite
def _mutated(draw, doc: dict) -> dict:
    """Delete fields, replace them with junk, or corrupt one list element."""
    for _ in range(draw(st.integers(0, 2))):
        if not doc:
            break
        key = draw(st.sampled_from(sorted(doc)))
        action = draw(st.sampled_from(["delete", "replace", "element"]))
        if action == "delete":
            del doc[key]
        elif action == "element" and isinstance(doc[key], list) and doc[key]:
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(_junk)
        else:
            doc[key] = draw(_junk)
    return doc


@st.composite
def grid_docs(draw) -> dict:
    w, h = draw(st.integers(1, MAX_SIDE)), draw(st.integers(1, MAX_SIDE))
    kind = draw(st.sampled_from(["random", "constant", "exponential"]))
    if kind == "random":
        values = draw(st.lists(_value, min_size=w * h, max_size=w * h))
    elif kind == "constant":
        values = [draw(_value)] * (w * h)
    else:
        a, b = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))
        values = [math.exp(a * i) + math.exp(b * j) for j in range(h) for i in range(w)]
    doc = {"level": draw(st.integers(0, 4)),
           "origin": [draw(st.integers(-4, 4)), draw(st.integers(-4, 4))],
           "width": w, "height": h, "values": values}
    return draw(_mutated(doc))


_component = st.one_of(
    st.floats(-2.0, 2.0).map(lambda x: [x, 0.0]),
    st.floats(-3.5, 3.5).map(lambda x: [0.0, x]),  # beyond pi sometimes
    st.sampled_from([[1e308, 0.0], [800.0, 0.0], [1.0, 1.0]]),
)


@st.composite
def sum_docs(draw) -> dict:
    terms = draw(st.lists(
        st.fixed_dictionaries({"coeff": _pair, "freq": st.lists(_component, min_size=2, max_size=2)}),
        min_size=0, max_size=3,
    ))
    if terms:
        terms[0] = draw(_mutated(terms[0]))
    return draw(_mutated({"terms": terms}))


@st.composite
def series_docs(draw) -> dict:
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        rate = draw(st.floats(0.0, 2.0))
        values = [1.0 + math.exp(rate * z) + math.exp(-rate * z) for z in range(-3, n - 3)]
    else:
        values = draw(st.lists(_value, min_size=n, max_size=n))
    doc = {"level": draw(st.integers(0, 3)), "origin": draw(st.integers(-3, 3)),
           "values": values}
    return draw(_mutated(doc))


_int = st.integers(-4, 4).map(str)
_tol = st.sampled_from(["-1", "0", "-0", "nan", "inf", "1e-8", "1e-3", "1e308"])
_rate = st.sampled_from(["0", "0.5", "-0.5", "1.2", "2i", "3.5i", "i", "nan", "1e308",
                         "800", "abc"])


def _options(draw, *choices) -> list:
    """Each (flag, strategy) pair is passed with probability one half."""
    argv = []
    for flag, values in choices:
        if draw(st.booleans()):
            argv += [flag, *draw(values)]
    return argv


@st.composite
def invocations(draw) -> tuple[dict, list]:
    command = draw(st.sampled_from(["detect", "annihilate", "sample", "refine"]))
    if command == "detect":
        doc = draw(grid_docs())
        argv = _options(
            draw,
            ("--mode", st.sampled_from(["single", "robust"]).map(lambda m: [m])),
            ("--alpha", st.lists(st.integers(-14, 14).map(str), min_size=2, max_size=2)),
            ("--tol-res", _tol.map(lambda t: [t])),
        )
    elif command == "annihilate":
        doc = draw(grid_docs())
        argv = ["--gamma", draw(_rate), draw(_rate), "--axis", draw(st.sampled_from("xy"))]
        argv += _options(draw, ("--extra-step", st.lists(_int, min_size=2, max_size=2)))
    elif command == "sample":
        doc = draw(sum_docs())
        size = st.integers(-1, MAX_SIDE).map(str)  # never more than 12 x 12
        argv = ["--level", draw(st.integers(-2, 6).map(str)),
                "--width", draw(size), "--height", draw(size)]
        argv += _options(draw, ("--origin", st.lists(_int, min_size=2, max_size=2)))
    else:
        doc = draw(series_docs())
        argv = ["--rounds", draw(st.integers(-2, 4).map(str))]
        argv += ["--auto"] if draw(st.booleans()) else ["--gamma", draw(_rate)]
    return doc, [command, "@", *argv]


def _signed_zero_int(token: str):
    # json reads "-0" as the integer 0; dumps writes it only for the float -0.0
    return -0.0 if token == "-0" else int(token)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_cli_exits_with_a_documented_code(invocation):
    doc, argv = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [str(path) if a == "@" else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        text = out.getvalue()
        assert jsonio.dumps(json.loads(text, parse_int=_signed_zero_int)) + "\n" == text
    elif code in (2, 4):
        assert out.getvalue() == ""
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: " if code == 2 else "numerical failure: ")
