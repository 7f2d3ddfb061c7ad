"""Bit-identity sweep: one SHA-256 over detection and 1-D refinement results.

For oracle seeds 0..299 (``random_instance``) the digest takes ``detect`` on
the seed's grid and on its real part, at the window centre and at the window
origin, in single and in robust mode: 2,400 reports.  It also takes
``auto_refine`` of the real part's centre row at levels 0 and 2, two rounds
each.  A report enters as its classification, frequency, estimates, residual
bits and reason; a refinement as its dtype, bytes and rate; a failure as the
exception's type and message.  A change meant to be faster or simpler, not to
move a result, must leave ``DIGEST`` as it is.

Only a change that moves results on purpose may regenerate ``DIGEST``, and it
says in CHANGES.md which results moved and why.  ``PYTHONPATH=src python
tests/test_bit_identity.py`` prints the digest of the current code.
"""

import hashlib

from expann.detection import detect
from expann.errors import InputError, NumericalError
from expann.expspace import GridSamples
from expann.oracle import random_instance
from expann.subdivision import auto_refine

DIGEST = "d799da9f0ea5c0e701513c976b1326f12ba5ee601305165a78fc1d4f7a3c19a2"
SEEDS = range(300)


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


def test_results_keep_their_bits():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
