"""Golden command-line output: the criterion-9 pipeline for seeds 0..9.

For each seed the fixture holds the exit code and stdout of
``generate --seed s``, of ``detect`` in single and in robust mode on the
generated grid, and of ``refine --auto --rounds 3`` on the seed's
hyperbolic series, with that command's stderr.  It also holds ``sample``
of the seed's sum on the grid's window, ``annihilate`` of the grid with
the true frequency (residual grid inline), ``refine --gamma`` with the
series' true rate, and ``detect`` on the grid with one corrupted value,
which reports Inconsistent with a reason.  A change that moves any byte
fails here; it must say which bytes moved and why.

Regenerate the fixture (only for an intended output change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from expann.cli import main as cli_main
from expann.jsonio import dump_series
from expann.oracle import SplitMix64

FIXTURE = Path(__file__).parent / "golden" / "cli_pipeline.json"
SEEDS = range(10)


def _run(capsys, argv, with_err=False):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return [code, captured.out, captured.err] if with_err else [code, captured.out]


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _rate_token(component) -> str:
    """A frequency component [re, im] as the command line spells it."""
    re, im = component
    return f"{im!r}i" if im else repr(float(re))


def pipeline(seed: int, workdir: Path, capsys) -> dict:
    out = {"generate": _run(capsys, ["generate", "--seed", str(seed)])}
    instance = json.loads(out["generate"][1])
    grid = instance["grid"]
    grid_path = _write_json(workdir / f"grid_{seed}.json", grid)
    for mode in ("single", "robust"):
        out[f"detect_{mode}"] = _run(capsys, ["detect", grid_path, "--mode", mode])

    sum_path = _write_json(workdir / f"sum_{seed}.json", instance["sum"])
    out["sample"] = _run(capsys, [
        "sample", sum_path, "--level", str(grid["level"]),
        "--origin", *map(str, grid["origin"]),
        "--width", str(grid["width"]), "--height", str(grid["height"]),
    ])
    out["annihilate"] = _run(capsys, [
        "annihilate", grid_path, "--gamma", *map(_rate_token, instance["frequency"]),
        "--axis", "x",
    ])
    grid["values"][-1] = 1000.0  # a far corner: the stencils miss it, the residual does not
    corrupt_path = _write_json(workdir / f"corrupt_{seed}.json", grid)
    out["detect_corrupt"] = _run(capsys, ["detect", corrupt_path])

    rate = SplitMix64(seed).uniform(0.1, 1.5)
    series = [1 + math.exp(rate * z) + math.exp(-rate * z) for z in range(10)]
    series_path = workdir / f"series_{seed}.json"
    series_path.write_text(dump_series(series, 0, 0), encoding="utf-8")
    code, stdout, stderr = _run(
        capsys, ["refine", str(series_path), "--rounds", "3", "--auto"], with_err=True
    )
    out["refine"] = [code, stdout]
    out["refine_auto_stderr"] = stderr
    out["refine_gamma"] = _run(
        capsys, ["refine", str(series_path), "--rounds", "3", "--gamma", repr(rate)]
    )
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_pipeline_bytes(seed, tmp_path, capsys):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert pipeline(seed, tmp_path, capsys) == golden[str(seed)]


class _Capture:
    """Stand-in for pytest's capsys when writing the fixture."""

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self):
        texts = []
        for buf in (self.out, self.err):
            texts.append(buf.getvalue())
            buf.seek(0)
            buf.truncate()
        return SimpleNamespace(out=texts[0], err=texts[1])


def _write_fixture() -> None:
    cap = _Capture()
    with (
        tempfile.TemporaryDirectory() as tmp,
        contextlib.redirect_stdout(cap.out),
        contextlib.redirect_stderr(cap.err),
    ):
        doc = {str(s): pipeline(s, Path(tmp), cap) for s in SEEDS}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_fixture()
