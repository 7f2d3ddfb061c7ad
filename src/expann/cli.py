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
import json
import math
import sys
from pathlib import Path

from . import jsonio
from .detection import (
    DEFAULT_TOL_DEN,
    DEFAULT_TOL_IM,
    DEFAULT_TOL_RES,
    Classification,
    detect,
)
from .errors import FileFormatError, InputError, NumericalError
from .expspace import Frequency, FrequencyVector, sample
from .operators import (
    IntegerStep,
    chain_apply,
    grid_residual,
    reduced_chain_for_symmetric_set,
)
from .oracle import RandomSpec, random_instance
from .subdivision import LevelParameter, auto_refine, refine, refine_parameter

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_NUMERICAL = 4


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc.strerror}") from exc


def _parse_rate(token: str) -> Frequency:
    """One frequency component: '0.8' is real, '0.3i' (or '0.3j') imaginary."""
    token = token.strip()
    try:
        if token.endswith(("i", "j")):
            return Frequency(complex(0.0, float(token[:-1] if token[:-1] else "1")))
        return Frequency(complex(float(token), 0.0))
    except ValueError as exc:
        raise InputError(f"cannot parse frequency component {token!r}: {exc}") from exc


def _pair_json(v: complex) -> str:
    return f"[{jsonio.format_float(v.real)}, {jsonio.format_float(v.imag)}]"


def cmd_sample(args) -> int:
    f = jsonio.load_sum(_read(args.sumfile))
    try:
        grid = sample(f, args.level, tuple(args.origin), args.width, args.height)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    print(jsonio.dump_grid(grid))
    return EXIT_OK


def _report_json(report, mode: str) -> str:
    by_axis = {est.axis: est for est in report.estimates}
    axis_parts = []
    for name, axis in (("x", (1, 0)), ("y", (0, 1))):
        est = by_axis.get(axis)
        if est is None:
            axis_parts.append(f'"{name}": {{"cosh": null, "step": null}}')
        else:
            axis_parts.append(
                f'"{name}": {{"cosh": {_pair_json(est.value)}, '
                f'"step": [{est.step_used.dx}, {est.step_used.dy}]}}'
            )
    gamma = (
        "null"
        if report.frequency is None
        else f"[{_pair_json(report.frequency.g1.value)}, {_pair_json(report.frequency.g2.value)}]"
    )
    residual = (
        "null" if math.isnan(report.residual) else jsonio.format_float(report.residual)
    )
    reason = f', "reason": {json.dumps(report.reason)}' if report.reason else ""
    return (
        f'{{"classification": "{report.classification.value}", "gamma": {gamma}, '
        f'"axes": {{{", ".join(axis_parts)}}}, "residual": {residual}, '
        f'"mode": "{mode}"{reason}}}'
    )


def cmd_detect(args) -> int:
    grid = jsonio.load_grid(_read(args.gridfile))
    if args.alpha is None:
        alpha = (
            grid.origin[0] + max(0, grid.width // 2 - 1),
            grid.origin[1] + max(0, grid.height // 2 - 1),
        )
    else:
        alpha = tuple(args.alpha)
    report = detect(
        grid,
        alpha,
        mode=args.mode,
        tol_den=args.tol_den,
        tol_res=args.tol_res,
        tol_im=args.tol_im,
    )
    print(_report_json(report, args.mode))
    if report.classification is Classification.INCONSISTENT:
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_annihilate(args) -> int:
    grid = jsonio.load_grid(_read(args.gridfile))
    g = FrequencyVector.of(_parse_rate(args.gamma[0]), _parse_rate(args.gamma[1]))
    axis = (1, 0) if args.axis == "x" else (0, 1)
    extra = IntegerStep(args.extra_step[0], args.extra_step[1])
    chain = reduced_chain_for_symmetric_set(g, axis, extra)
    residual = grid_residual(chain, grid)
    out_grid = chain_apply(chain, grid)
    grid_json = jsonio.dump_grid(out_grid)
    if args.output:
        Path(args.output).write_text(grid_json + "\n", encoding="utf-8")
        tail = f'"output": {json.dumps(args.output)}'
    else:
        tail = f'"residual_grid": {grid_json}'
    print(
        f'{{"residual": {jsonio.format_float(residual)}, "axis": "{args.axis}", '
        f'"gamma": [{_pair_json(g.g1.value)}, {_pair_json(g.g2.value)}], '
        f'"extra_step": [{extra.dx}, {extra.dy}], {tail}}}'
    )
    return EXIT_OK


def cmd_refine(args) -> int:
    values, level, origin = jsonio.load_series(_read(args.datafile))
    if args.gamma is not None:
        g = _parse_rate(args.gamma)
        data = values
        p = LevelParameter.from_frequency(g, level)
        for _ in range(args.rounds):
            data = refine(data, p)
            p = refine_parameter(p)
    else:
        data, g = auto_refine(values, level, args.rounds)
        print(
            f"detected frequency: {_pair_json(g.value)}",
            file=sys.stderr,
        )
    # each round keeps [origin+1, origin+n-2] and doubles the index scale
    for _ in range(args.rounds):
        origin = 2 * (origin + 1)
    print(jsonio.dump_series(data, level + args.rounds, origin))
    return EXIT_OK


def cmd_generate(args) -> int:
    spec = RandomSpec(seed=args.seed)
    g, f, grid = random_instance(spec)
    print(
        f'{{"seed": {args.seed}, '
        f'"frequency": [{_pair_json(g.g1.value)}, {_pair_json(g.g2.value)}], '
        f'"sum": {jsonio.dump_sum(f)}, '
        f'"grid": {jsonio.dump_grid(grid)}}}'
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--tol-den", type=float, default=DEFAULT_TOL_DEN,
                   help="relative denominator threshold")
    p.add_argument("--tol-res", type=float, default=DEFAULT_TOL_RES,
                   help="relative residual acceptance threshold")
    p.add_argument("--tol-im", type=float, default=DEFAULT_TOL_IM,
                   help="imaginary-part tolerance on cosh estimates")
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
        return args.func(args)
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
