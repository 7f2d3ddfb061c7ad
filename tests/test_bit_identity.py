"""Bit-identity sweeps: SHA-256 digests over detection and 1-D refinement results.

For oracle seeds 0..299 (``random_instance``) the digest takes ``detect`` on
the seed's grid and on its real part, at the window centre and at the window
origin, in single and in robust mode: 2,400 reports.  It also takes
``auto_refine`` of the real part's centre row at levels 0 and 2, two rounds
each.  A report enters as its classification, frequency, estimates, residual
bits and reason; a refinement as its dtype, bytes and rate; a failure as the
exception's type and message.

``REFINE_DIGEST`` takes ``refine_rounds`` over a seeded sweep of 3,000 draws:
real rates uniform in [0, 8] and log-uniform in [1e-8, 1e3], imaginary rates
uniform in i(-pi, pi), each given as a ``Frequency`` or as a plain number;
levels 0..29, rounds 0..4, and real and complex series of 5..13 samples;
then a few fixed rates that reach a refusal or the polynomial limit.  A
result enters as its dtype and bytes, a refusal as its type and message.

A change meant to be faster or simpler, not to move a result, must leave
both digests as they are.  Only a change that moves results on purpose may
regenerate one, and it says in CHANGES.md which results moved and why.
``PYTHONPATH=src python tests/test_bit_identity.py`` prints both digests of
the current code.
"""

import hashlib
import math

import numpy as np

from expann.detection import detect
from expann.errors import InputError, NumericalError
from expann.expspace import Frequency, GridSamples
from expann.oracle import random_instance
from expann.subdivision import auto_refine, refine_rounds

DIGEST = "d799da9f0ea5c0e701513c976b1326f12ba5ee601305165a78fc1d4f7a3c19a2"
SEEDS = range(300)
REFINE_DIGEST = "da47302481a6aae750d546ddee745ccba292a934fb28e97f2223cc851a6f46ae"
REFINE_DRAWS = 3000
# rate i*3.14159265 rounds its cosh to -1, rate 800 overflows it, rate 0 gives 1
REFINE_EDGES = (3.14159265j, 800.0, 0.0)


def _hex(z) -> str:
    z = complex(z)
    return f"{z.real.hex()},{z.imag.hex()}"


def _report(rep) -> str:
    freq = rep.frequency and [_hex(v) for v in rep.frequency.as_pair()]
    ests = [(e.axis, e.step_used.dx, e.step_used.dy, _hex(e.value)) for e in rep.estimates]
    return repr((rep.classification.value, freq, ests, float(rep.residual).hex(), rep.reason))


def _refined(out) -> str:
    data, g = out
    return repr((data.dtype.str, data.tobytes().hex(), _hex(g.value)))


def _data(out) -> str:
    return repr((out.dtype.str, out.tobytes().hex()))


def _entry(fn) -> str:
    try:
        return fn()
    except (InputError, NumericalError) as exc:
        return repr((type(exc).__name__, str(exc)))


def _grids(seed):
    s = random_instance(seed)[2]
    yield s
    yield GridSamples(s.level, s.origin, s.width, s.height, s.values.real)


def digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for s in _grids(seed):
            centre = (s.origin[0] + s.width // 2 - 1, s.origin[1] + s.height // 2 - 1)
            for alpha in (centre, s.origin):
                for mode in ("single", "robust"):
                    h.update(_entry(lambda: _report(detect(s, alpha, mode=mode))).encode())
        row = s.values[s.height // 2 - 1]  # s is the real part here
        for level in (0, 2):
            h.update(_entry(lambda: _refined(auto_refine(row, level, 2))).encode())
    return h.hexdigest()


def _refine_draws():
    rng = np.random.default_rng(42)
    for k in range(REFINE_DRAWS):
        kind = k % 3
        if kind == 0:
            rate = float(rng.uniform(0.0, 8.0))
        elif kind == 1:
            rate = float(10.0 ** rng.uniform(-8.0, 3.0))
        else:
            rate = complex(0.0, rng.uniform(-math.pi, math.pi))
        n = int(rng.integers(5, 14))
        values = rng.standard_normal(n)
        if k % 4 >= 2:
            values = values + 1j * rng.standard_normal(n)
        g = Frequency(rate) if k % 2 else rate
        yield values, g, int(rng.integers(0, 30)), int(rng.integers(0, 5))
    for rate in REFINE_EDGES:
        yield np.arange(6.0), rate, 0, 2


def refine_digest() -> str:
    h = hashlib.sha256()
    for values, g, level, rounds in _refine_draws():
        h.update(_entry(lambda: _data(refine_rounds(values, g, level, rounds))).encode())
    return h.hexdigest()


def test_results_keep_their_bits():
    assert digest() == DIGEST


def test_refinement_keeps_its_bits():
    assert refine_digest() == REFINE_DIGEST


if __name__ == "__main__":
    print(digest())
    print(refine_digest())
