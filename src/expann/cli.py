"""Command-line front end.

Subcommands: ``sample`` (exponential sum -> grid file), ``detect``
(grid file -> frequency report), ``annihilate`` (grid file -> annihilator
residual), ``refine`` (1-D series -> refined series), and ``generate``
(seeded random test instance).

Exit codes: 0 success, 2 input error, 3 detection inconsistency,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .detection import DEFAULT_TOL_RES, Classification, detect
from .errors import FileFormatError, InputError, NumericalError
from .expspace import MAX_LEVEL, Frequency, FrequencyVector, sample
from .operators import (
    IntegerStep,
    _residual,
    chain_apply,
    reduced_chain_for_symmetric_set,
)
from .oracle import random_instance
from .subdivision import auto_refine, refine_rounds

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_NUMERICAL = 4


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"cannot read {path}: invalid UTF-8 at byte {exc.start}") from exc


def _parse_rate(token: str) -> Frequency:
    """One frequency component: '0.8' is real, '0.3i' (or '0.3j') imaginary."""
    token = token.strip()
    try:
        if token.endswith(("i", "j")):
            return Frequency(complex(0.0, float(token[:-1] if token[:-1] else "1")))
        return Frequency(complex(float(token), 0.0))
    except ValueError as exc:
        raise InputError(f"cannot parse frequency component {token!r}: {exc}") from exc


def cmd_sample(args) -> int:
    f = jsonio.load_sum(_read(args.sumfile))
    try:
        grid = sample(f, args.level, tuple(args.origin), args.width, args.height)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    print(jsonio.dump_grid(grid))
    return EXIT_OK


def _report_doc(report, mode: str) -> dict:
    axes = {name: {"cosh": None, "step": None} for name in ("x", "y")}
    for est in report.estimates:
        step = [est.step_used.dx, est.step_used.dy]
        axes["x" if est.axis == (1, 0) else "y"] = {"cosh": est.value, "step": step}
    g = report.frequency
    doc = {
        "classification": report.classification.value,
        "gamma": None if g is None else [g.g1.value, g.g2.value],
        "axes": axes,
        # a NaN residual is the sentinel of a report that never got that far
        "residual": None if math.isnan(report.residual) else report.residual,
        "mode": mode,
    }
    if report.reason:
        doc["reason"] = report.reason
    return doc


def cmd_detect(args) -> int:
    grid = jsonio.load_grid(_read(args.gridfile))
    if args.alpha is None:
        alpha = (
            grid.origin[0] + max(0, grid.width // 2 - 1),
            grid.origin[1] + max(0, grid.height // 2 - 1),
        )
    else:
        alpha = tuple(args.alpha)
    report = detect(grid, alpha, mode=args.mode, tol_res=args.tol_res)
    print(jsonio.dumps(_report_doc(report, args.mode)))
    if report.classification is Classification.INCONSISTENT:
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_annihilate(args) -> int:
    grid = jsonio.load_grid(_read(args.gridfile))
    g = FrequencyVector.of(_parse_rate(args.gamma[0]), _parse_rate(args.gamma[1]))
    axis = (1, 0) if args.axis == "x" else (0, 1)
    try:
        extra = IntegerStep(args.extra_step[0], args.extra_step[1])
    except ValueError as exc:
        raise InputError(f"--extra-step: {exc}") from exc
    chain = reduced_chain_for_symmetric_set(g, axis, extra)
    out_grid = chain_apply(chain, grid)
    doc = {
        "residual": _residual(out_grid.values, grid.max_abs()),
        "axis": args.axis,
        "gamma": [g.g1.value, g.g2.value],
        "extra_step": [extra.dx, extra.dy],
    }
    if args.output:
        text = jsonio.dump_grid(out_grid) + "\n"
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc.strerror}") from exc
        doc["output"] = args.output
    else:
        doc["residual_grid"] = jsonio.grid_doc(out_grid)
    print(jsonio.dumps(doc))
    return EXIT_OK


def cmd_refine(args) -> int:
    values, level, origin = jsonio.load_series(_read(args.datafile))
    # the output level, level + rounds, must stay loadable
    if not 0 <= args.rounds <= MAX_LEVEL - level:
        raise InputError(f"--rounds must lie in 0..{MAX_LEVEL - level} at level {level}")
    # each round keeps [origin+1, origin+n-2] and doubles the index scale,
    # origin -> 2 (origin + 1), so origin + 2 doubles per round
    origin = (origin + 2) * 2**args.rounds - 2
    try:
        if args.gamma is not None:
            data = refine_rounds(values, _parse_rate(args.gamma), level, args.rounds)
        else:
            data, g = auto_refine(values, level, args.rounds)
    except MemoryError as exc:
        raise InputError(f"{args.rounds} rounds of refinement do not fit in memory") from exc
    # serialize before printing anything, so a failing run prints only the failure
    text = jsonio.dump_series(data, level + args.rounds, origin)
    if args.auto:
        print(f"detected frequency: {jsonio.dumps(g.value)}", file=sys.stderr)
    print(text)
    return EXIT_OK


def cmd_generate(args) -> int:
    g, f, grid = random_instance(args.seed)
    print(jsonio.dumps({
        "seed": args.seed,
        "frequency": [g.g1.value, g.g2.value],
        "sum": jsonio.sum_doc(f),
        "grid": jsonio.grid_doc(grid),
    }))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):  # subparsers inherit the class
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read -0.3i, a negative imaginary rate, as a value, as argparse reads -0.3
        self._negative_number_matcher = re.compile(r"^-\d*\.?\d+([eE][+-]?\d+)?[ij]?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="expann",
        description="Annihilation operators for exponential spaces: "
        "sampling, frequency detection, and refinement demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample an exponential sum onto a grid file")
    p.add_argument("sumfile", help="sum file (JSON)")
    p.add_argument("--level", type=int, required=True, help="dyadic level k")
    p.add_argument("--origin", type=int, nargs=2, default=(0, 0), metavar=("I", "J"))
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("detect", help="detect the frequency pair of grid data")
    p.add_argument("gridfile", help="grid file (JSON)")
    p.add_argument("--alpha", type=int, nargs=2, default=None, metavar=("I", "J"),
                   help="base index (default: window center)")
    p.add_argument("--mode", choices=("single", "robust"), default="single")
    p.add_argument("--tol-res", type=float, default=DEFAULT_TOL_RES,
                   help="relative residual acceptance threshold")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("annihilate",
                       help="apply the reduced three-factor annihilator")
    p.add_argument("gridfile", help="grid file (JSON)")
    p.add_argument("--gamma", nargs=2, required=True, metavar=("G1", "G2"),
                   help="frequency components, e.g. 0.8 0.3i")
    p.add_argument("--extra-step", type=int, nargs=2, default=(1, 1),
                   metavar=("DX", "DY"))
    p.add_argument("--axis", choices=("x", "y"), required=True)
    p.add_argument("--output", default=None,
                   help="write the residual grid here instead of inlining it")
    p.set_defaults(func=cmd_annihilate)

    p = sub.add_parser("refine", help="interpolatory refinement of 1-D data")
    p.add_argument("datafile", help="series file (JSON)")
    p.add_argument("--rounds", type=int, default=1)
    mx = p.add_mutually_exclusive_group(required=True)
    mx.add_argument("--auto", action="store_true",
                    help="detect the frequency from the data")
    mx.add_argument("--gamma", default=None,
                    help="use this frequency, e.g. 0.9 or 1.2i")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("generate", help="emit a seeded random test instance")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite result already ends in exit 3 or 4; numpy's warnings add nothing
        with np.errstate(all="ignore"):
            try:
                return args.func(args)
            except MemoryError as exc:
                # each command builds all its output text before printing any,
                # so stdout is still empty when that text does not fit
                raise InputError("the input or its output does not fit in memory") from exc
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
