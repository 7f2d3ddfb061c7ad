import json
import math

import numpy as np
import pytest

from expann.cli import main
from expann.expspace import ExponentialSum, FrequencyVector, sample, symmetric_set
from expann.jsonio import dump_grid, dump_series, dump_sum, load_grid, load_sum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def symmetric_sum_file(tmp_path, g, coeffs=None):
    members = symmetric_set(g)
    if coeffs is None:
        coeffs = [1.0] * len(members)
    f = ExponentialSum(tuple(zip(coeffs, members)))
    return write(tmp_path, "sum.json", dump_sum(f)), f


class TestSample:
    def test_emits_valid_grid(self, tmp_path, capsys):
        path, f = symmetric_sum_file(tmp_path, FrequencyVector.of(0.8, 0.3))
        code, out, _ = run(
            capsys, "sample", path, "--level", "2", "--origin", "-3", "-3",
            "--width", "9", "--height", "9",
        )
        assert code == 0
        grid = load_grid(out)
        assert grid.level == 2 and grid.width == 9 and grid.height == 9
        direct = sample(f, 2, (-3, -3), 9, 9)
        assert np.array_equal(grid.values, direct.values)

    def test_malformed_sum_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", '{"terms": [{"coeff": [1, 0]}]}')
        code, _, err = run(capsys, "sample", path, "--level", "0",
                           "--width", "3", "--height", "3")
        assert code == 2
        assert "freq" in err

    def test_invalid_frequency_exits_2(self, tmp_path, capsys):
        path = write(
            tmp_path, "bad.json",
            '{"terms": [{"coeff": [1, 0], "freq": [[1, 1], [0, 0]]}]}',
        )
        code, _, err = run(capsys, "sample", path, "--level", "0",
                           "--width", "3", "--height", "3")
        assert code == 2
        assert "terms[0]" in err


class TestDetect:
    def test_round_trip_recovers_frequency(self, tmp_path, capsys):
        path, _ = symmetric_sum_file(tmp_path, FrequencyVector.of(0.8, 0.3))
        _, grid_json, _ = run(
            capsys, "sample", path, "--level", "2", "--origin", "-3", "-3",
            "--width", "9", "--height", "9",
        )
        grid_path = write(tmp_path, "grid.json", grid_json)
        code, out, _ = run(capsys, "detect", grid_path, "--alpha", "0", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "Frequency"
        assert abs(doc["gamma"][0][0] - 0.8) <= 1e-8
        assert abs(doc["gamma"][1][0] - 0.3) <= 1e-8
        assert doc["residual"] <= 1e-8

    def test_trigonometric_instance(self, tmp_path, capsys):
        g = FrequencyVector.of(1j * math.pi / 8, 1j * math.pi / 8)
        path, _ = symmetric_sum_file(tmp_path, g)
        _, grid_json, _ = run(
            capsys, "sample", path, "--level", "0", "--origin", "-3", "-3",
            "--width", "9", "--height", "9",
        )
        grid_path = write(tmp_path, "grid.json", grid_json)
        code, out, _ = run(capsys, "detect", grid_path, "--alpha", "0", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "Frequency"
        for axis in ("x", "y"):
            assert abs(doc["axes"][axis]["cosh"][0] - 0.9238795325112867) <= 1e-10
        assert abs(doc["gamma"][0][1] - math.pi / 8) <= 1e-8

    def test_constant_grid(self, tmp_path, capsys):
        f = ExponentialSum.single(7.0, FrequencyVector.zero())
        grid = sample(f, 0, (-3, -3), 9, 9)
        grid_path = write(tmp_path, "grid.json", dump_grid(grid))
        code, out, _ = run(capsys, "detect", grid_path, "--alpha", "0", "0")
        assert code == 0
        assert json.loads(out)["classification"] == "Constant"

    def test_noise_grid_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        values = rng.uniform(0.5, 2.0, size=81)
        grid_path = write(
            tmp_path, "grid.json",
            json.dumps({"level": 0, "origin": [-3, -3], "width": 9, "height": 9,
                        "values": values.tolist()}),
        )
        code, out, _ = run(capsys, "detect", grid_path, "--alpha", "0", "0")
        assert code == 3
        assert json.loads(out)["classification"] == "Inconsistent"

    def test_default_alpha_is_window_center(self, tmp_path, capsys):
        path, _ = symmetric_sum_file(tmp_path, FrequencyVector.of(0.4, 0.9))
        _, grid_json, _ = run(
            capsys, "sample", path, "--level", "1", "--origin", "0", "0",
            "--width", "8", "--height", "8",
        )
        grid_path = write(tmp_path, "grid.json", grid_json)
        code, out, _ = run(capsys, "detect", grid_path)
        assert code == 0
        assert json.loads(out)["classification"] == "Frequency"


class TestAnnihilate:
    def test_residual_report_and_grid_file(self, tmp_path, capsys):
        path, f = symmetric_sum_file(tmp_path, FrequencyVector.of(0.8, 0.3))
        grid = sample(f, 1, (-3, -3), 9, 9)
        grid_path = write(tmp_path, "grid.json", dump_grid(grid))
        out_path = str(tmp_path / "res.json")
        code, out, _ = run(
            capsys, "annihilate", grid_path, "--gamma", "0.8", "0.3",
            "--extra-step", "1", "1", "--axis", "x", "--output", out_path,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["residual"] <= 1e-11
        res_grid = load_grid((tmp_path / "res.json").read_text())
        assert res_grid.width == grid.width - 3  # extra (1,1) plus two axis steps

    def test_imaginary_gamma_token(self, tmp_path, capsys):
        g = FrequencyVector.of(0.0, 1j * 0.9)
        path, f = symmetric_sum_file(tmp_path, g)
        grid = sample(f, 0, (-3, -3), 9, 9)
        grid_path = write(tmp_path, "grid.json", dump_grid(grid))
        code, out, _ = run(
            capsys, "annihilate", grid_path, "--gamma", "0", "0.9i", "--axis", "y",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["residual"] <= 1e-11
        assert "residual_grid" in doc

    def test_wrong_gamma_large_residual(self, tmp_path, capsys):
        path, f = symmetric_sum_file(tmp_path, FrequencyVector.of(0.8, 0.3))
        grid = sample(f, 0, (-3, -3), 9, 9)
        grid_path = write(tmp_path, "grid.json", dump_grid(grid))
        code, out, _ = run(
            capsys, "annihilate", grid_path, "--gamma", "1.4", "0.3", "--axis", "x",
        )
        assert code == 0
        assert json.loads(out)["residual"] > 1e-3


class TestRefine:
    def test_auto_refine_reports_frequency(self, tmp_path, capsys):
        vals = [1 + math.exp(0.5 * z) + math.exp(-0.5 * z) for z in range(10)]
        path = write(tmp_path, "series.json", dump_series(vals, 0, 0))
        code, out, err = run(capsys, "refine", path, "--rounds", "2", "--auto")
        assert code == 0
        assert "detected frequency" in err
        doc = json.loads(out)
        assert doc["level"] == 2
        assert doc["origin"] == 6
        h = 0.25
        f = lambda z: 1 + math.exp(0.5 * z) + math.exp(-0.5 * z)
        for i, v in enumerate(doc["values"]):
            z = (doc["origin"] + i) * h
            assert abs(v - f(z)) <= 1e-10 * abs(f(z))

    def test_explicit_gamma(self, tmp_path, capsys):
        vals = [1 + 2 * math.cos(0.8 * z) for z in range(10)]
        path = write(tmp_path, "series.json", dump_series(vals, 0, 0))
        code, out, err = run(capsys, "refine", path, "--rounds", "1",
                             "--gamma", "0.8i")
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        f = lambda z: 1 + 2 * math.cos(0.8 * z)
        for i, v in enumerate(doc["values"]):
            z = (doc["origin"] + i) * 0.5
            assert abs(v - f(z)) <= 1e-10 * max(abs(f(z)), 0.1)

    def test_short_series_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "series.json", dump_series([1.0, 2.0, 3.0], 0, 0))
        code, _, err = run(capsys, "refine", path, "--rounds", "1", "--auto")
        assert code == 2

    def test_denominator_failure_exits_4(self, tmp_path, capsys):
        # f(1) == f(2) engineered with otherwise non-constant data
        path = write(tmp_path, "series.json",
                     dump_series([0.0, 1.0, 1.0, 5.0, 2.0], 0, 0))
        code, _, err = run(capsys, "refine", path, "--rounds", "1", "--auto")
        assert code == 4
        assert "numerical failure" in err


class TestGenerate:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "generate", "--seed", "0")
        code2, out2, _ = run(capsys, "generate", "--seed", "0")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_instance_is_consistent(self, capsys):
        _, out, _ = run(capsys, "generate", "--seed", "7")
        doc = json.loads(out)
        f = load_sum(json.dumps(doc["sum"]))
        grid = load_grid(json.dumps(doc["grid"]))
        direct = sample(f, grid.level, grid.origin, grid.width, grid.height)
        assert np.allclose(grid.values, direct.values, rtol=1e-15, atol=1e-300)


class TestFileFormats:
    def test_grid_round_trip_bytes(self):
        f = ExponentialSum(
            ((1.0, FrequencyVector.of(0.5, 1j * 0.7)),
             (1.0, FrequencyVector.of(0.5, -1j * 0.7)))
        )
        grid = sample(f, 1, (-1, -1), 4, 4)
        text = dump_grid(grid)
        again = dump_grid(load_grid(text))
        assert text == again

    def test_series_accepts_missing_origin(self):
        from expann.jsonio import load_series

        values, level, origin = load_series('{"level": 2, "values": [1, 2, 3]}')
        assert origin == 0 and level == 2 and values.shape == (3,)

    def test_grid_value_count_checked(self):
        from expann.errors import FileFormatError

        with pytest.raises(FileFormatError):
            load_grid('{"level": 0, "origin": [0, 0], "width": 2, "height": 2, '
                      '"values": [1, 2, 3]}')

    def test_complex_entries_normalized(self):
        grid = load_grid(
            '{"level": 0, "origin": [0, 0], "width": 2, "height": 1, '
            '"values": [1.5, [0, 2]]}'
        )
        assert grid.value_at((0, 0)) == 1.5
        assert grid.value_at((1, 0)) == 2j


def _grid_text(level=0, bad=None):
    f = ExponentialSum(tuple((1.0, m) for m in symmetric_set(FrequencyVector.of(0.8, 0.3))))
    doc = json.loads(dump_grid(sample(f, 0, (-3, -3), 9, 9)))
    doc["level"] = level
    if bad is not None:
        doc["values"][80] = bad  # a corner that the default stencils never read
    return json.dumps(doc)


_SUM = '{"terms": [{"coeff": [%s, 0], "freq": [[%s, 0], [0, 0]]}]}'
_SAMPLE = ("sample", "@", "--width", "3", "--height", "3")


# Each input once ended in a traceback (exit 1) or, for the NaN grid in
# single mode, in exit 0 with a "Frequency" report and a null residual.
@pytest.mark.parametrize(
    "text, argv, code",
    [
        (_grid_text(bad=math.nan), ("detect", "@"), 2),
        (_grid_text(bad=math.nan), ("detect", "@", "--mode", "robust"), 2),
        (_grid_text(bad=math.inf), ("annihilate", "@", "--gamma", "0.8", "0.3",
                                    "--axis", "x"), 2),
        (_grid_text(), ("annihilate", "@", "--gamma", "nan", "0", "--axis", "x"), 2),
        (_grid_text(), ("annihilate", "@", "--gamma", "5i", "0", "--axis", "y"), 2),
        (_grid_text(level=2000), ("detect", "@"), 2),
        (_SUM % ("NaN", 0.5), (*_SAMPLE, "--level", "0"), 2),
        (_SUM % (1, 0.5), (*_SAMPLE, "--level", "-1"), 2),
        (_SUM % (1, 0.5), ("sample", "@", "--level", "0", "--width", "0",
                           "--height", "3"), 2),
        (_SUM % (1, 800), (*_SAMPLE, "--level", "0"), 4),
        ('{"level": 0, "values": [1, 2, Infinity, 8, 16]}', ("refine", "@", "--auto"), 2),
        ('{"level": 2000, "values": [1, 2, 4, 8, 16]}', ("refine", "@", "--auto"), 2),
    ],
    ids=[
        "nan-grid-single", "nan-grid-robust", "inf-grid-annihilate", "nan-gamma",
        "gamma-beyond-pi", "grid-level-2000", "nan-coefficient", "sample-level-minus-1",
        "sample-width-0", "sample-overflow", "inf-series", "series-level-2000",
    ],
)
def test_bad_input_exit_code(tmp_path, capsys, text, argv, code):
    path = write(tmp_path, "input.json", text)
    got, out, err = run(capsys, *(path if a == "@" else a for a in argv))
    assert (got, out) == (code, "")
    assert err.startswith("error: " if code == 2 else "numerical failure: ")
