"""Golden command-line output: the criterion-9 pipeline for seeds 0..9.

For each seed the fixture holds the exit code and stdout of
``generate --seed s``, of ``detect`` in single and in robust mode on the
generated grid, and of ``refine --auto --rounds 3`` on the seed's
hyperbolic series.  A change that moves any byte fails here; it must say
which bytes moved and why.

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


def _run(capsys, argv):
    code = cli_main(argv)
    return [code, capsys.readouterr().out]


def pipeline(seed: int, workdir: Path, capsys) -> dict:
    out = {"generate": _run(capsys, ["generate", "--seed", str(seed)])}
    grid_path = workdir / f"grid_{seed}.json"
    grid_path.write_text(json.dumps(json.loads(out["generate"][1])["grid"]), encoding="utf-8")
    for mode in ("single", "robust"):
        out[f"detect_{mode}"] = _run(capsys, ["detect", str(grid_path), "--mode", mode])

    rate = SplitMix64(seed).uniform(0.1, 1.5)
    series = [1 + math.exp(rate * z) + math.exp(-rate * z) for z in range(10)]
    series_path = workdir / f"series_{seed}.json"
    series_path.write_text(dump_series(series, 0, 0), encoding="utf-8")
    out["refine"] = _run(capsys, ["refine", str(series_path), "--rounds", "3", "--auto"])
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_pipeline_bytes(seed, tmp_path, capsys):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert pipeline(seed, tmp_path, capsys) == golden[str(seed)]


class _StdoutCapture(io.StringIO):
    """Stand-in for pytest's capsys when writing the fixture."""

    def readouterr(self):
        text = self.getvalue()
        self.seek(0)
        self.truncate()
        return SimpleNamespace(out=text)


def _write_fixture() -> None:
    cap = _StdoutCapture()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(cap):
        doc = {str(s): pipeline(s, Path(tmp), cap) for s in SEEDS}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_fixture()
