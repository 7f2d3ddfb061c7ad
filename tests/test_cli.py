import argparse
import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expann import cli, expspace
from expann.cli import build_parser, main
from expann.expspace import (
    ExponentialSum,
    Frequency,
    FrequencyVector,
    GridSamples,
    sample,
    symmetric_set,
)
from expann.jsonio import dump_grid, dump_series, dump_sum, load_grid, load_series, load_sum
from expann.subdivision import refine_rounds


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, data):
    p = tmp_path / name
    if isinstance(data, bytes):
        p.write_bytes(data)
    else:
        p.write_text(data, encoding="utf-8")
    return str(p)


def symmetric_sum_file(tmp_path, g, coeffs=None):
    members = symmetric_set(g)
    if coeffs is None:
        coeffs = [1.0] * len(members)
    f = ExponentialSum(tuple(zip(coeffs, members)))
    return write(tmp_path, "sum.json", dump_sum(f)), f


class TestSample:
    def test_emits_valid_grid(self, tmp_path, capsys):
        path, f = symmetric_sum_file(tmp_path, FrequencyVector(0.8, 0.3))
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
        path, _ = symmetric_sum_file(tmp_path, FrequencyVector(0.8, 0.3))
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
        g = FrequencyVector(1j * math.pi / 8, 1j * math.pi / 8)
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

    @pytest.mark.parametrize("mode", ["single", "robust"])
    @pytest.mark.parametrize(
        "alpha", [(0, 0), (-3, -3), (0, -3), (-3, 0)], ids=lambda a: f"{a[0]},{a[1]}"
    )
    def test_constant_grid(self, tmp_path, capsys, alpha, mode):
        # base points on the window's first row or column leave no room for
        # a step back, so no fallback step may need one
        f = ExponentialSum(((7.0, FrequencyVector(0.0, 0.0)),))
        grid = sample(f, 0, (-3, -3), 9, 9)
        grid_path = write(tmp_path, "grid.json", dump_grid(grid))
        code, out, _ = run(capsys, "detect", grid_path, "--alpha", *map(str, alpha), "--mode", mode)
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
        path, _ = symmetric_sum_file(tmp_path, FrequencyVector(0.4, 0.9))
        _, grid_json, _ = run(
            capsys, "sample", path, "--level", "1", "--origin", "0", "0",
            "--width", "8", "--height", "8",
        )
        grid_path = write(tmp_path, "grid.json", grid_json)
        code, out, _ = run(capsys, "detect", grid_path)
        assert code == 0
        assert json.loads(out)["classification"] == "Frequency"

    def test_non_real_rate_prints_null_residual(self, tmp_path, capsys):
        # rows of (-2)^i: the x quotient is -1.25, below the cosh range, so
        # detection stops before its residual check
        values = [(-2.0) ** (k % 6) for k in range(36)]
        grid_path = write(
            tmp_path, "grid.json",
            json.dumps({"level": 0, "origin": [0, 0], "width": 6, "height": 6,
                        "values": values}),
        )
        for mode in ("single", "robust"):
            code, out, err = run(capsys, "detect", grid_path, "--alpha", "2", "2",
                                 "--mode", mode)
            assert (code, err) == (3, "")
            doc = json.loads(out)
            assert doc["classification"] == "Inconsistent"
            assert doc["reason"] == "axis (1, 0): cosh estimate -1.25 is not above -1"
            assert doc["residual"] is None

    def test_non_real_cosh_exits_3_in_both_modes(self, tmp_path, capsys):
        # exp((0.3 + 0.4i) x + 0.5 y) at level 8: robust mode once kept only
        # the real part of its x quotients and reported Frequency
        z = np.arange(12) * 2.0**-8
        values = np.exp(np.add.outer(0.5 * z, (0.3 + 0.4j) * z))
        grid_path = write(tmp_path, "grid.json",
                          dump_grid(GridSamples(8, (0, 0), 12, 12, values)))
        for mode in ("single", "robust"):
            code, out, err = run(capsys, "detect", grid_path, "--alpha", "4", "4",
                                 "--mode", mode)
            assert (code, err) == (3, "")
            doc = json.loads(out)
            assert (doc["classification"], doc["residual"]) == ("Inconsistent", None)
            assert re.fullmatch(r"axis \(1, 0\): cosh estimate \(.*\) has a non-real part",
                                doc["reason"])

    def test_robust_zero_cosh_prints_positive_zero(self, tmp_path, capsys):
        # 2 + 4cos(pi x/2)cos(pi y/3) on exact lattice values: the x quotient
        # is an exact zero of either sign at many stencils
        cx, cy = (1, 0, -1, 0), (1, 0.5, -0.5, -1, -0.5, 0.5)
        values = [2 + 4 * cx[x % 4] * cy[y % 6] for y in range(-5, 5) for x in range(-5, 5)]
        grid_path = write(
            tmp_path, "grid.json",
            json.dumps({"level": 0, "origin": [-5, -5], "width": 10, "height": 10,
                        "values": values}),
        )
        code, out, _ = run(capsys, "detect", grid_path, "--alpha", "-5", "-5",
                           "--mode", "robust")
        assert code == 0
        assert '"x": {"cosh": [0, 0], "step": [0, 1]}' in out


class TestAnnihilate:
    def test_residual_report_and_grid_file(self, tmp_path, capsys):
        path, f = symmetric_sum_file(tmp_path, FrequencyVector(0.8, 0.3))
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
        g = FrequencyVector(0.0, 1j * 0.9)
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

    def test_negative_imaginary_gamma_token(self, tmp_path, capsys):
        path, f = symmetric_sum_file(tmp_path, FrequencyVector(0.5, 0.3j))
        grid_path = write(tmp_path, "grid.json", dump_grid(sample(f, 0, (-3, -3), 9, 9)))
        code, out, _ = run(
            capsys, "annihilate", grid_path, "--gamma", "0.5", "-0.3i", "--axis", "x",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma"] == [[0.5, 0], [0, -0.3]]
        assert doc["residual"] <= 1e-11

    def test_wrong_gamma_large_residual(self, tmp_path, capsys):
        path, f = symmetric_sum_file(tmp_path, FrequencyVector(0.8, 0.3))
        grid = sample(f, 0, (-3, -3), 9, 9)
        grid_path = write(tmp_path, "grid.json", dump_grid(grid))
        code, out, _ = run(
            capsys, "annihilate", grid_path, "--gamma", "1.4", "0.3", "--axis", "x",
        )
        assert code == 0
        assert json.loads(out)["residual"] > 1e-3


def test_window_sup_and_chain_taken_once(tmp_path, capsys, monkeypatch):
    # detect reads each axis's residual from the kernel its estimate came
    # from; annihilate applies its one chain
    from expann import detection, operators
    from expann.expspace import GridSamples

    _, f = symmetric_sum_file(tmp_path, FrequencyVector(0.8, 0.3j))
    grid = sample(f, 2, (-3, -3), 9, 9)
    sups, chains = [], []
    max_abs, apply_factors = GridSamples.max_abs, operators._apply_factors

    def counting_max_abs(self):
        sups.append(self)
        return max_abs(self)

    def counting_apply(*args):
        chains.append(args)
        return apply_factors(*args)

    monkeypatch.setattr(GridSamples, "max_abs", counting_max_abs)
    monkeypatch.setattr(operators, "_apply_factors", counting_apply)
    assert not hasattr(detection, "_apply_factors")
    for mode in ("single", "robust"):
        sups.clear()
        rep = detection.detect(grid, (0, 0), mode=mode)
        assert rep.classification is detection.Classification.FREQUENCY
        assert (len(sups), len(chains)) == (1, 0)

    grid_path = write(tmp_path, "grid.json", dump_grid(grid))
    sups.clear()
    code, _, _ = run(capsys, "annihilate", grid_path, "--gamma", "0.8", "0.3i", "--axis", "x")
    assert code == 0
    assert (len(sups), len(chains)) == (1, 1)


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

    def test_negative_imaginary_gamma_token(self, tmp_path, capsys):
        vals = [1 + 2 * math.cos(0.5 * z) for z in range(10)]
        path = write(tmp_path, "series.json", dump_series(vals, 0, 0))
        code, out, err = run(capsys, "refine", path, "--gamma", "-0.5i")
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, "refine", path, "--gamma=-0.5i")
        assert (code, out, err) == run(capsys, "refine", path, "--gamma", "-5e-1i")

    def test_short_series_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "series.json", dump_series([1.0, 2.0, 3.0], 0, 0))
        code, _, err = run(capsys, "refine", path, "--rounds", "1", "--auto")
        assert code == 2

    def test_empty_series_exits_2(self, tmp_path, capsys):
        # the series rule alone rejects an empty file, as it rejects 1-3 samples
        path = write(tmp_path, "series.json", '{"level": 0, "values": []}')
        for how in (("--gamma", "0.5"), ("--auto",)):
            code, out, err = run(capsys, "refine", path, *how)
            assert (code, out, err) == (2, "", "error: need at least 4 samples, got 0\n")

    def test_four_samples_for_two_rounds_name_the_input(self, tmp_path, capsys):
        # the first round turns 4 samples into 3; the refusal names the file's 4
        path = write(tmp_path, "series.json", dump_series([1.0, 2.0, 3.0, 4.0], 0, 0))
        for how in (("--gamma", "0.3"), ("--auto",)):
            code, out, err = run(capsys, "refine", path, "--rounds", "2", *how)
            assert (code, out, err) == (2, "", "error: need at least 5 samples for 2 rounds, got 4\n")
        code, out, err = run(capsys, "refine", path, "--rounds", "1", "--gamma", "0.3")
        assert (code, err) == (0, "") and len(json.loads(out)["values"]) == 3

    def test_gamma_near_i_pi(self, tmp_path, capsys):
        # the insertion weights are about 8.2e3 here; their sum rounds off by
        # more than 1e-12 but within their own rounding
        path = write(tmp_path, "series.json", dump_series([1, 2, 3, 4, 5, 6], 0, 0))
        code, out, err = run(capsys, "refine", path, "--gamma", "3.141562135589793i",
                             "--rounds", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["values"][0::2] == [2, 3, 4, 5]

    def test_both_signs_of_i_pi_refuse_alike(self, tmp_path, capsys):
        # cosh(+-3.14159265i) rounds to -1: one cosh value, one message
        path = write(tmp_path, "series.json", dump_series([1, 2, 3, 4, 5, 6], 0, 0))
        plus, minus = (run(capsys, "refine", path, f"--gamma={g}") for g in ("3.14159265i", "-3.14159265i"))
        assert plus == minus == (4, "", "numerical failure: cosh value (-1+0j) is not above -1\n")

    def test_auto_on_series_with_small_difference_against_its_sup(
        self, tmp_path, capsys
    ):
        # 1 + 2e^{0.8z} + 3e^{-0.8z} at level 6: f(2) - f(1) is about 1e-2
        # while the series reaches 3.4e22; a non-zero denominator is read
        z = np.arange(4096) * 2.0**-6
        vals = 1 + 2 * np.exp(0.8 * z) + 3 * np.exp(-0.8 * z)
        path = write(tmp_path, "series.json", dump_series(vals, 6, 0))
        code, out, err = run(capsys, "refine", path, "--rounds", "4", "--auto")
        assert code == 0
        prefix = "detected frequency: "
        assert err.startswith(prefix) and err.count("\n") == 1
        rate = json.loads(err[len(prefix):])
        assert rate[1] == 0 and abs(rate[0] - 0.8) <= 1e-8 * 0.8
        doc = json.loads(out)
        # n samples refine to 2(n - 3) + 1 per round
        assert (doc["level"], doc["origin"], len(doc["values"])) == (10, 30, 65461)

    def test_denominator_failure_exits_4(self, tmp_path, capsys):
        # f(1) == f(2) engineered with otherwise non-constant data
        path = write(tmp_path, "series.json",
                     dump_series([0.0, 1.0, 1.0, 5.0, 2.0], 0, 0))
        code, _, err = run(capsys, "refine", path, "--rounds", "1", "--auto")
        assert code == 4
        assert "numerical failure" in err

    def test_rounding_level_denominator_exits_4(self, tmp_path, capsys):
        # f(2) - f(1) is one ulp, so the quotient reads a rate near 37.6; the
        # annihilator residual along the series rejects it
        path = write(tmp_path, "series.json",
                     dump_series([0.0, 1.0, 1.0000000000000002, 5.0, 2.0], 0, 0))
        code, out, err = run(capsys, "refine", path, "--rounds", "1", "--auto")
        assert (code, out) == (4, "")
        assert "numerical failure" in err and "annihilator residual" in err


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
            ((1.0, FrequencyVector(0.5, 1j * 0.7)),
             (1.0, FrequencyVector(0.5, -1j * 0.7)))
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
        from expann.errors import InputError

        with pytest.raises(InputError, match=r"^grid file: expected 4 values, got 3$"):
            load_grid('{"level": 0, "origin": [0, 0], "width": 2, "height": 2, '
                      '"values": [1, 2, 3]}')

    def test_grid_value_named_before_count(self):
        from expann.errors import InputError

        # GridSamples counts the values once each has been read
        with pytest.raises(InputError, match=r"^grid file: values\[1\]: expected a finite "
                                             r"number or \[re, im\] pair, got None$"):
            load_grid('{"level": 0, "origin": [0, 0], "width": 2, "height": 2, '
                      '"values": [1, null, 3]}')

    @pytest.mark.parametrize("level", [-1, 1075])
    def test_series_level_checked(self, level):
        from expann.errors import InputError
        from expann.jsonio import load_series

        with pytest.raises(InputError,
                           match=rf"^series file: level must lie in 0\.\.1074, got {level}$"):
            load_series('{"level": %d, "values": [1, 2, 3, 4]}' % level)

    def test_complex_entries_normalized(self):
        grid = load_grid(
            '{"level": 0, "origin": [0, 0], "width": 2, "height": 1, '
            '"values": [1.5, [0, 2]]}'
        )
        assert grid.value_at((0, 0)) == 1.5
        assert grid.value_at((1, 0)) == 2j


def _grid_text(level=0, bad=None):
    f = ExponentialSum(tuple((1.0, m) for m in symmetric_set(FrequencyVector(0.8, 0.3))))
    doc = json.loads(dump_grid(sample(f, 0, (-3, -3), 9, 9)))
    doc["level"] = level
    if bad is not None:
        doc["values"][80] = bad  # a corner that the default stencils never read
    return json.dumps(doc)


def _grid_9x9(row_value):
    values = [row_value(i // 9) for i in range(81)]
    return json.dumps({"level": 0, "origin": [0, 0], "width": 9, "height": 9, "values": values})


_SUM = '{"terms": [{"coeff": [%s, 0], "freq": [[%s, 0], [0, 0]]}]}'
_SAMPLE = ("sample", "@", "--width", "3", "--height", "3")
_HUGE_ROWS = _grid_9x9(lambda j: (-1) ** j * 1e308)  # differences overflow to NaN
_CONSTANT = _grid_9x9(lambda j: 2.5)
_HUGE_SERIES = '{"level": 0, "values": [1e308, 1e308, 1e308, 1e308, 1e308, 1e308]}'
_OVERFLOW_SERIES = '{"level": 0, "origin": 0, "values": [1e308, -1e308, 1e308, 5.0, 1.0]}'
_OVERFLOW_REFINE = ("refine", "@", "--gamma", "2.5i", "--rounds", "3")
_SERIES = '{"level": 0, "values": [1, 2, 4, 8, 16, 32]}'
_ONE_SAMPLE = '{"level": 0, "origin": [0, 0], "width": 1, "height": 1, "values": [1]}'
_ANNIHILATE_X = ("annihilate", "@", "--gamma", "0.5", "0", "--axis", "x")
# The interpreter's int-to-string digit limit; 0 where there is none.
_DIGITS = getattr(sys, "get_int_max_str_digits", int)()
_PAST_DIGITS = pytest.mark.skipif(not _DIGITS, reason="no int-to-string digit limit")


def _series_with_origin(digits):
    return '{"level": 0, "origin": %s, "values": [1, 2, 4, 8, 16, 32]}' % ("9" * digits)


def _overflow_rows(third):
    return json.dumps({"level": 0, "origin": [0, 0], "width": 6, "height": 6,
                       "values": [-1e300, 0, third, 1e300, 1e300, 1e300] * 6})


# Each report holds a number that overflowed, and once ended in exit 4 with
# "cannot write the non-finite number": the residual or the x cosh is written
# as null and the Inconsistent report, with its reason, exits 3.
@pytest.mark.parametrize(
    "text, mode, alpha, x_step, null_cosh, reason",
    [
        (_overflow_rows(1e-8), "robust", ("0", "1"), [1, 1], False,
         "annihilator residual inf exceeds 1.000e-08"),
        (_overflow_rows(1e-300), "single", ("0", "1"), [1, 1], True,
         "axis (1, 0): cosh estimate inf: frequency must be finite, got (inf+0j)"),
        (_overflow_rows(1e-300), "robust", ("0", "1"), [1, 1], True,
         "axis (1, 0): cosh estimate inf: frequency must be finite, got (inf+0j)"),
        (_HUGE_ROWS, "single", ("3", "3"), [0, 1], True,
         "axis (1, 0): cosh estimate nan is not above -1"),
        (_HUGE_ROWS, "robust", ("3", "3"), [0, 1], True,
         "axis (1, 0): cosh estimate nan is not above -1"),
    ],
    ids=["inf-residual-robust", "inf-cosh-single", "inf-cosh-robust",
         "nan-report-single", "nan-report-robust"],
)
def test_non_finite_report_exits_3(tmp_path, capsys, text, mode, alpha, x_step, null_cosh, reason):
    path = write(tmp_path, "grid.json", text)
    code, out, err = run(capsys, "detect", path, "--mode", mode, "--alpha", *alpha)
    assert (code, err) == (3, "")
    doc = json.loads(out)
    assert (doc["classification"], doc["residual"], doc["reason"]) == ("Inconsistent", None, reason)
    assert doc["axes"]["x"]["step"] == x_step
    assert (doc["axes"]["x"]["cosh"] is None) is null_cosh


# Each input once ended in a traceback (exit 1); or in exit 0 with a
# "Frequency" report and a null residual (the NaN grid in single mode), a
# robust report whose base point lies outside the window, a series file
# expann cannot read back (--rounds -1), a series too short to refine
# passed through unchecked (--rounds 0), or a report that ignored the
# tolerance (--tol-res nan always Inconsistent). Rows from
# "unreadable-file" on take the exit-2 paths of the file reader, the JSON
# parser and the writers, which no well-formed file reaches: an integer past
# the interpreter's digit limit fails to read, and an origin that grows past
# it fails to write. In argv, "@" is the input file and "{tmp}" the test's
# directory.
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
        (_SUM % (1, 0.5), (*_SAMPLE, "--level", "-5000"), 2),
        ('{"level": 0, "values": [1, 2, Infinity, 8, 16]}', ("refine", "@", "--auto"), 2),
        ('{"level": 2000, "values": [1, 2, 4, 8, 16]}', ("refine", "@", "--auto"), 2),
        (_HUGE_ROWS, _ANNIHILATE_X, 4),
        (_HUGE_SERIES, ("refine", "@", "--gamma", "0.5"), 4),
        (_HUGE_SERIES, ("refine", "@", "--auto"), 4),
        (_OVERFLOW_SERIES, _OVERFLOW_REFINE, 4),
        (_CONSTANT, (*_ANNIHILATE_X, "--extra-step", "0", "0"), 2),
        (_CONSTANT, ("annihilate", "@", "--gamma", "1e308", "0", "--axis", "x"), 4),
        (_CONSTANT, ("detect", "@", "--tol-res", "nan"), 2),
        (_grid_text(), ("detect", "@", "--alpha", "1000", "1000", "--mode", "robust"), 2),
        (_ONE_SAMPLE, ("detect", "@", "--mode", "robust"), 2),
        (_SERIES, ("refine", "@", "--gamma", "0.5", "--rounds", "-1"), 2),
        ('{"level": 0, "values": [1, 2, 3]}', ("refine", "@", "--gamma", "0.8", "--rounds", "0"), 2),
        ('{"level": 0, "values": [1, 2, 3]}', ("refine", "@", "--auto", "--rounds", "0"), 2),
        (_SERIES, ("refine", "@", "--gamma", "800"), 4),
        (None, ("detect", "@"), 2),
        ("{not json", ("detect", "@"), 2),
        ("[1, 2, 3]", ("detect", "@"), 2),
        ('{"level": 0, "values": []}', ("refine", "@", "--auto"), 2),
        (b"\xff\xfe" + _SERIES.encode(), ("refine", "@", "--auto"), 2),
        ("[" * 100_000, ("detect", "@"), 2),
        pytest.param(_series_with_origin(_DIGITS + 1), ("refine", "@", "--auto"), 2,
                     marks=_PAST_DIGITS),
        pytest.param(_series_with_origin(_DIGITS - 1),
                     ("refine", "@", "--gamma", "0.5", "--rounds", "4"), 2, marks=_PAST_DIGITS),
        pytest.param(_CONSTANT.replace('"origin": [0, 0]', '"origin": [%s, 0]' % ("9" * _DIGITS)),
                     (*_ANNIHILATE_X, "--extra-step", "-1", "1"), 2, marks=_PAST_DIGITS),
        (_CONSTANT, (*_ANNIHILATE_X, "--output", "{tmp}/missing/out.json"), 2),
        (_CONSTANT, (*_ANNIHILATE_X, "--output", "{tmp}"), 2),
    ],
    ids=[
        "nan-grid-single", "nan-grid-robust", "inf-grid-annihilate", "nan-gamma",
        "gamma-beyond-pi", "grid-level-2000", "nan-coefficient", "sample-level-minus-1",
        "sample-width-0", "sample-overflow", "sample-level-minus-5000", "inf-series", "series-level-2000",
        "nan-annihilate-residual",
        "nan-refine-gamma", "nan-refine-auto", "overflow-refine-imaginary-gamma",
        "extra-step-0-0", "weight-overflow",
        "tol-res-nan", "alpha-outside-window-robust", "exhausted-window-robust",
        "rounds-minus-1", "short-series-0-rounds-gamma", "short-series-0-rounds-auto",
        "gamma-800-cosh-overflow", "unreadable-file", "invalid-json",
        "top-level-not-object", "empty-series", "non-utf8-file", "nested-100000",
        "integer-past-digit-limit", "refine-origin-past-digit-limit",
        "annihilate-origin-past-digit-limit", "output-missing-directory",
        "output-onto-directory",
    ],
)
def test_bad_input_exit_code(tmp_path, capsys, text, argv, code):
    # no text: a file that does not exist
    path = str(tmp_path / "missing.json") if text is None else write(tmp_path, "input.json", text)
    args = (path if a == "@" else a.replace("{tmp}", str(tmp_path)) for a in argv)
    got, out, err = run(capsys, *args)
    assert (got, out) == (code, "")
    [line] = err.splitlines()
    assert line.startswith("error: " if code == 2 else "numerical failure: ")


def test_refinement_overflow_names_the_real_value(tmp_path, capsys):
    # real data with an imaginary rate is refined in real arithmetic, so the
    # first non-finite output is the -inf it overflows to, not a complex NaN
    path = write(tmp_path, "series.json", _OVERFLOW_SERIES)
    code, out, err = run(capsys, *(path if a == "@" else a for a in _OVERFLOW_REFINE))
    assert (code, out) == (4, "")
    assert err == "numerical failure: cannot write the non-finite number -inf\n"


@pytest.mark.parametrize("flag, value", [("--tol-den", "1e-10"), ("--tol-im", "1e-9")])
def test_fixed_tolerances_have_no_flag(tmp_path, capsys, flag, value):
    # the imaginary-part bound is a constant of detection; a denominator has none
    path = write(tmp_path, "grid.json", _grid_text())
    with pytest.raises(SystemExit) as exc:
        main(["detect", path, flag, value])
    assert (exc.value.code, capsys.readouterr().out) == (2, "")


def test_readme_documents_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    [commands] = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        f"{name} {opt}"
        for name, p in commands.choices.items()
        for a in p._actions
        for opt in a.option_strings
        if opt.startswith("--") and opt != "--help" and opt not in documented
    }
    assert options == set()


def process_env():
    """The environment of a child interpreter: this tree's expann, one BLAS thread."""
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}


def run_process(*argv, preexec_fn=None):
    """expann as its own process; its stderr shows what pytest would capture."""
    return subprocess.run([sys.executable, "-m", "expann.cli", *argv], env=process_env(),
                          capture_output=True, text=True, preexec_fn=preexec_fn,
                          timeout=60)


@pytest.mark.parametrize("command", ["sample", "refine"])
def test_blockwise_output_keeps_every_byte(tmp_path, command):
    # each text spans several of the blocks that stdout is written in
    if command == "sample":
        path, f = symmetric_sum_file(tmp_path, FrequencyVector(0.8, 0.3j))
        argv = ("sample", path, "--level", "2", "--origin", "-3", "-3",
                "--width", "128", "--height", "64")
        want = dump_grid(sample(f, 2, (-3, -3), 128, 64))
    else:
        text = dump_series([1 + 2 * math.cos(0.8 * z) for z in range(40)], 0, 0)
        path = write(tmp_path, "series.json", text)
        argv = ("refine", path, "--rounds", "8", "--gamma", "0.8i")
        values, level, origin = load_series(text)
        refined = refine_rounds(values, Frequency(0.8j), level, 8)
        want = dump_series(refined, level + 8, (origin + 2) * 2**8 - 2)
    assert len(want) > 2 * cli._OUTPUT_BLOCK
    done = subprocess.run([sys.executable, "-m", "expann.cli", *argv], env=process_env(),
                          capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (want + "\n").encode("utf-8")


def test_numpy_warnings_stay_off_stderr(tmp_path):
    # refinement overflows in numpy before the emitter rejects the NaN
    path = write(tmp_path, "series.json", _HUGE_SERIES)
    done = run_process("refine", path, "--auto")
    assert (done.returncode, done.stdout) == (4, "")
    [line] = done.stderr.splitlines()
    assert line.startswith("numerical failure: ")


# The cosh estimate is 1.3e308 + 1.3e308j: both parts are finite, but its
# modulus passes DBL_MAX, where abs() raises OverflowError. It has a non-real
# part, so refine exits 4 and detect reports Inconsistent, exit 3, with no
# traceback (exit 1).
_PAST_THE_RANGE_SERIES = '{"level": 0, "values": [0, 0, 0.5, [1.3e308, 1.3e308]]}'
_PAST_THE_RANGE_GRID = ('{"level": 0, "origin": [0, 0], "width": 3, "height": 2, '
                        '"values": [0, 0.5, [1.3e308, 1.3e308], 0, 0, 0]}')


@pytest.mark.parametrize(
    "text, argv, code",
    [(_PAST_THE_RANGE_SERIES, ("refine", "@", "--auto"), 4),
     (_PAST_THE_RANGE_GRID, ("detect", "@", "--alpha", "0", "0", "--mode", "single"), 3),
     (_PAST_THE_RANGE_GRID, ("detect", "@", "--alpha", "0", "0", "--mode", "robust"), 3)],
    ids=["refine-auto", "detect-single", "detect-robust"],
)
def test_cosh_modulus_past_the_float_range_exits_documented(tmp_path, text, argv, code):
    path = write(tmp_path, "input.json", text)
    done = run_process(*(path if a == "@" else a for a in argv))
    assert done.returncode == code, done.stderr
    reason = "cosh estimate (1.3e+308+1.3e+308j) has a non-real part"
    if code == 4:
        assert (done.stdout, done.stderr) == ("", f"numerical failure: {reason}\n")
    else:
        assert done.stderr == ""
        assert json.loads(done.stdout)["reason"] == f"axis (1, 0): {reason}"


_GENERATE, _REFINE = ("generate", "--seed", "0"), ("refine", "@", "--gamma", "0.5")
_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize(
    "argv, sink",
    [(_GENERATE, "pipe"), (_REFINE, "pipe"),
     pytest.param(_GENERATE, "/dev/full", marks=_DEV_FULL),
     pytest.param(_REFINE, "/dev/full", marks=_DEV_FULL)],
    ids=["write", "print", "write-full", "print-full"],
)
def test_closed_stdout_exits_2(tmp_path, argv, sink, unbuffered):
    # the pipe's read end is closed before the child starts, and every write
    # to /dev/full fails, so the child's first write to stdout fails;
    # buffered, that write is the final flush
    path = write(tmp_path, "series.json", _SERIES)
    env = process_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if sink == "pipe":
        r, w = os.pipe()
        os.close(r)
    else:
        w = os.open(sink, os.O_WRONLY)
    try:
        done = subprocess.run([sys.executable, "-m", "expann.cli",
                               *(path if a == "@" else a for a in argv)],
                              env=env, stdout=w, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(w)
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    if sink == "pipe":
        assert line.startswith("error: cannot write to standard output: ")
    else:
        assert line == "error: cannot write to standard output: No space left on device"


@_DEV_FULL
@pytest.mark.parametrize(
    "series, code",
    [(_SERIES, 2), (None, 2), (_HUGE_SERIES, 4)],
    ids=["rate-line", "input-error", "numerical-failure"],
)
def test_unwritable_stderr_keeps_a_documented_exit_code(tmp_path, series, code):
    # every write to /dev/full fails: a failing command loses its message but
    # keeps its code, and refine --auto, whose rate line goes to stderr before
    # anything is written to stdout, fails as an unwritable output does
    path = write(tmp_path, "series.json", series) if series else str(tmp_path / "missing.json")
    err = os.open("/dev/full", os.O_WRONLY)
    try:
        done = subprocess.run([sys.executable, "-m", "expann.cli", "refine", path, "--auto"],
                              env=process_env(), stdout=subprocess.PIPE, stderr=err, text=True,
                              timeout=60)
    finally:
        os.close(err)
    assert (done.returncode, done.stdout) == (code, "")


_POWERS_GRID = json.dumps({"level": 0, "origin": [0, 0], "width": 6, "height": 6,
                           "values": [(-2.0) ** (k % 6) for k in range(36)]})


@pytest.mark.parametrize(
    "text, argv, code",
    [(None, _GENERATE, 0), (None, ("detect", "@"), 2),
     (_POWERS_GRID, ("detect", "@", "--alpha", "2", "2"), 3),
     (_HUGE_SERIES, ("refine", "@", "--auto"), 4)],
    ids=["ok", "input-error", "inconsistent", "numerical-failure"],
)
def test_process_prints_what_main_prints(tmp_path, capsys, text, argv, code):
    # no text: a file that does not exist
    path = str(tmp_path / "missing.json") if text is None else write(tmp_path, "input.json", text)
    args = [path if a == "@" else a for a in argv]
    done = run_process(*args)
    assert done.returncode == code
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *args)


def test_main_leaves_the_heap_unfrozen(capsys):
    # tests, the benchmark's replay and embedders call main in process
    before = gc.get_freeze_count()
    assert run(capsys, *_GENERATE)[0] == 0
    assert gc.get_freeze_count() == before


def test_entry_freezes_once_after_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert (calls, exc.value.code) == (["main", "freeze"], 3)


_EPIPE = os.strerror(errno.EPIPE)


class _ClosedPipeOutput(io.StringIO):
    """An in-process stdout whose every write fails as a closed pipe's does."""

    def write(self, text):
        raise OSError(errno.EPIPE, _EPIPE)

    def flush(self):
        raise OSError(errno.EPIPE, _EPIPE)


def test_failing_stdout_without_descriptor_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipeOutput())
    assert main(list(_GENERATE)) == 2
    assert capsys.readouterr().err == f"error: cannot write to standard output: {_EPIPE}\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failing_stdout_handler_closes_what_it_opens(capsys, monkeypatch):
    fd = os.open(os.devnull, os.O_WRONLY)
    output = _ClosedPipeOutput()
    output.fileno = lambda: fd
    monkeypatch.setattr(sys, "stdout", output)
    try:
        before = os.listdir("/proc/self/fd")
        code = main(list(_GENERATE))
        after = os.listdir("/proc/self/fd")
    finally:
        os.close(fd)
    assert (code, after) == (2, before)
    assert capsys.readouterr().err == f"error: cannot write to standard output: {_EPIPE}\n"


def test_window_beyond_memory_exits_2(tmp_path):
    resource = pytest.importorskip("resource")
    cap = 1536 * 2**20  # far below the 6.4 GB window, so nothing is allocated

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    path = write(tmp_path, "sum.json", _SUM % (1, 0.5))
    done = run_process("sample", path, "--level", "0", "--width", "20000",
                       "--height", "20000", preexec_fn=limit_address_space)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: a 20000x20000 window does not fit in memory\n"


# Caps the address space at what the interpreter holds after import plus the
# MiB given as the first argument, so a command fails on a small allocation
# rather than after gigabytes.
_UNDER_ADDRESS_CAP = """
import resource, sys
from expann.cli import main
cap = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
cap += int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(main(sys.argv[2:]))
"""


def run_under_address_cap(headroom_mib, *argv):
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("needs /proc/self/statm to size the address-space cap")
    return subprocess.run(
        [sys.executable, "-c", _UNDER_ADDRESS_CAP, str(headroom_mib), *argv],
        env=process_env(), capture_output=True, text=True, timeout=60,
    )


def test_refinement_beyond_memory_exits_2(tmp_path):
    values = [1.0 + 0.1 * i * i for i in range(10)]
    path = write(tmp_path, "series.json", json.dumps({"level": 0, "values": values}))
    done = run_under_address_cap(64, "refine", path, "--rounds", "40", "--gamma", "0.5")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: 40 rounds of refinement do not fit in memory\n"


def test_output_beyond_memory_exits_2(tmp_path):
    # the 16 MB grid fits in 100 MiB; its text, about 45 MB of [re, im] pairs
    # for this oscillating sum, does not, once joined
    path = write(tmp_path, "sum.json", '{"terms": [{"coeff": [1, 0], "freq": [[0, 0.5], [0, 0]]}]}')
    done = run_under_address_cap(100, "sample", path, "--level", "0",
                                 "--width", "1000", "--height", "1000")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: the input or its output does not fit in memory\n"


def test_inline_residual_grid_written_unjoined(tmp_path):
    # a 1000x1000 grid of digits loads in little memory, while its residual
    # grid's text takes about 19 MB: under this cap the text fits once, as
    # the pieces write leaves unjoined, but not joined and copied again
    digits = np.random.default_rng(0).integers(0, 10, 10**6).tolist()
    path = write(tmp_path, "grid.json", json.dumps(
        {"level": 0, "origin": [0, 0], "width": 1000, "height": 1000, "values": digits}))
    done = run_under_address_cap(66, "annihilate", path, "--gamma", "0.3", "0.2", "--axis", "x")
    assert (done.returncode, done.stderr) == (0, "")
    doc = json.loads(done.stdout)
    assert len(doc["residual_grid"]["values"]) == 997 * 999


# In-process forms of the three memory exits above: a callee raises
# MemoryError, so each handler runs without allocating anything large.
def _out_of_memory(*args):
    raise MemoryError


def test_window_out_of_memory_in_process(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(expspace, "_exp_sum", _out_of_memory)
    path = write(tmp_path, "sum.json", _SUM % (1, 0.5))
    code, out, err = run(capsys, "sample", path, "--level", "0", "--width", "9", "--height", "7")
    assert (code, out, err) == (2, "", "error: a 9x7 window does not fit in memory\n")


@pytest.mark.parametrize("callee, flag", [("refine_rounds", ("--gamma", "0.5")),
                                          ("auto_refine", ("--auto",))])
def test_refinement_out_of_memory_in_process(tmp_path, capsys, monkeypatch, callee, flag):
    monkeypatch.setattr(cli, callee, _out_of_memory)
    path = write(tmp_path, "series.json", dump_series([1.0 + 0.1 * i * i for i in range(10)], 0, 0))
    code, out, err = run(capsys, "refine", path, "--rounds", "3", *flag)
    assert (code, out, err) == (2, "", "error: 3 rounds of refinement do not fit in memory\n")


def test_output_out_of_memory_in_process(capsys, monkeypatch):
    monkeypatch.setattr(cli, "random_instance", _out_of_memory)
    code, out, err = run(capsys, "generate", "--seed", "0")
    assert (code, out, err) == (2, "", "error: the input or its output does not fit in memory\n")
