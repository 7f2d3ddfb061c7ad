"""The expann benchmark: closed-loop workloads, one operation in flight.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (README.md says why each one is there):

  detect-refine-small  in-process; detect (single mode, window centre), then
                       auto_refine for 4 rounds on the centre row; windows
                       7..12 wide at levels 0..3
  robust-mid           in-process; detect(mode="robust") at the window centre
                       on 24x24, 32x32 and 40x40 windows at level 3
  cli-256              one `python -m expann.cli` process per operation:
                       sample, detect, annihilate, refine --auto, generate

Every run repeats whole passes over a fixed input list made from the seed,
until the time is up, and checks every output.  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Reference figures go to stderr; spans of traced runs go to bench/out/.
"""

import time

_START = time.perf_counter()  # workload start, for the set-up probes

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import hostspeed
import planted
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

ROUNDS = 4                 # refinement rounds, in-process and on the command line
SMALL_INSTANCES = 400      # detect-refine-small operations per pass
ROBUST_SIZES = (24, 32, 40)
ROBUST_FAMILIES = 3        # robust-mid families per size and pass
CLI_SIZE = 256
CLI_LEVEL = 2
CLI_ORIGIN = (-3, -3)
SETUP_PROBES = 5           # fresh set-ups per run; setup_s is their median
IMPORT_PROBES = 5          # processes timing `import expann.cli` in traced cli-256 runs
TRACE_MAX_OPS = 8000       # a traced run stops after the pass that reaches this
PROCESS_TIMEOUT = 60.0     # seconds before a hung set-up probe is stopped

# The two inputs hit by the global-sup threshold fault (CHANGES.md,
# ROADMAP item 2).  They do not depend on the seed, so their operations
# fail in every pass of every run until the fault is mended.
FAULT_G = (0.8 + 0j, 0.3j)
# cli-256's seeded families have a real first component in CLI_REAL_RANGE
# and an imaginary second one, like FAULT_G, and annihilate always works
# along y.  Then no grid value reaches 1e16, where floats switch to exponent
# form, and every residual is complex, so the length of the JSON text, and
# with it the peak memory of a process, does not swing with the seed.
CLI_KINDS = (True, False)
CLI_REAL_RANGE = (0.2, 0.5)
FAULT_SERIES = planted.Series(0.8 + 0j, (1.0, 2.0, 3.0))
FAULT_SERIES_LEVEL = 6
FAULT_SERIES_LENGTH = 4096


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    fault: bool = False           # its failure comes from the fault named above
    replay: "Callable[[], object] | None" = None  # cli-256: the command in-process
    stencils: int = 0             # robust-mid: admissible stencils it evaluates


# --- detect-refine-small -------------------------------------------------

def small_ops(seed: int, procs: "Processes") -> list[Op]:
    from expann import detection, subdivision
    from expann.expspace import GridSamples

    rng = np.random.default_rng([seed, 1])
    ops = []
    for _ in range(SMALL_INSTANCES):
        f = planted.draw_family(rng)
        w = planted.draw_small_window(rng)
        values = f.grid(w.level, w.origin, w.width, w.height)[0].real
        grid = GridSamples(w.level, w.origin, w.width, w.height, values)
        row_index = w.centre[1] - w.origin[1]
        row = values[row_index].copy()
        y = w.centre[1] * 2.0 ** -w.level

        def run(grid=grid, w=w, row=row):
            report = detection.detect(grid, w.centre)
            refined, _ = subdivision.auto_refine(row, w.level, ROUNDS)
            return report, refined

        def check(out, f=f, w=w, y=y):
            report, refined = out
            gamma = report.frequency.as_pair() if report.frequency else ()
            return checks.frequency_error(report.classification.value, gamma, f.g) or (
                checks.refined_error(
                    refined, (w.origin[0], w.level), ROUNDS,
                    lambda z: f.evaluate(z, y), lambda z: f.magnitude(z, y),
                )
            )

        ops.append(Op("detect-refine", run, check))
    return ops


# --- robust-mid ------------------------------------------------------------

def stencil_count(width: int, height: int) -> int:
    """Admissible six-point stencils of robust mode on a window: per axis e
    and fallback step s, the base points b with b + mu e + lam s inside the
    window for mu in 0..2 and lam in 0..1."""
    from expann.detection import DEFAULT_STENCILS

    total = 0
    for ex, ey in ((1, 0), (0, 1)):
        for s in DEFAULT_STENCILS.for_axis((ex, ey)):
            nx = width - 2 * ex - abs(s.dx)
            ny = height - 2 * ey - abs(s.dy)
            total += max(0, nx) * max(0, ny)
    return total


def robust_ops(seed: int, procs: "Processes") -> list[Op]:
    from expann import detection
    from expann.expspace import GridSamples

    rng = np.random.default_rng([seed, 2])
    ops = []
    for n in ROBUST_SIZES * ROBUST_FAMILIES:
        f = planted.draw_family(rng)
        origin = tuple(int(v) for v in rng.integers(-3, 4, size=2))
        w = planted.Window(3, origin, n, n)
        values = f.grid(w.level, w.origin, n, n)[0].real
        grid = GridSamples(w.level, w.origin, n, n, values)

        def run(grid=grid, w=w):
            return detection.detect(grid, w.centre, mode="robust")

        def check(report, f=f):
            gamma = report.frequency.as_pair() if report.frequency else ()
            return checks.frequency_error(report.classification.value, gamma, f.g)

        ops.append(Op(f"robust-{n}", run, check, stencils=stencil_count(n, n)))
    return ops


# --- cli-256 ---------------------------------------------------------------

class Processes:
    """Runs command lines one at a time through bench/spawner.py and keeps
    the highest peak resident memory any expann process reached."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.peak_rss_kb = 0
        self.last_rss_kb = 0
        self._spawner = None

    def _start(self) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        return subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def run(self, argv: list[str], name: str):
        """(exit code, stdout, stderr) of one command."""
        if self._spawner is None:
            self._spawner = self._start()
        out_path = self.workdir / f"{name}.out"
        err_path = self.workdir / f"{name}.err"
        request = {"argv": argv, "out": str(out_path), "err": str(err_path)}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        line = self._spawner.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self._spawner.wait()}")
        reply = json.loads(line)
        self.last_rss_kb = reply["maxrss_kb"]
        return (reply["code"], out_path.read_text(encoding="utf-8"),
                err_path.read_text(encoding="utf-8"))

    def expann(self, args: list[str], name: str):
        result = self.run([sys.executable, "-m", "expann.cli", *args], name)
        self.peak_rss_kb = max(self.peak_rss_kb, self.last_rss_kb)
        return result

    def close(self) -> None:
        if self._spawner is not None:
            self._spawner.stdin.close()
            try:
                self._spawner.wait(timeout=PROCESS_TIMEOUT + 5)
            except subprocess.TimeoutExpired:
                self._spawner.kill()
                self._spawner.wait()
            self._spawner.stdout.close()
            self._spawner = None


def replay(args: list[str]):
    """The same command through `expann.cli.main` in this process."""
    from expann import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def _document(result, what: str):
    """(doc, None) for a successful command, (None, reason) otherwise."""
    code, out, err = result
    if code != 0:
        return None, f"{what} exited {code}: {(out + err).strip()[:200]}"
    return json.loads(out), None


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def cli_ops(seed: int, procs: Processes) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    workdir = procs.workdir
    window = planted.Window(CLI_LEVEL, CLI_ORIGIN, CLI_SIZE, CLI_SIZE)
    ops = []

    def add(kind, args, check, fault=False):
        op = Op(kind, lambda: procs.expann(args, kind), check, fault, lambda: replay(args))
        ops.append(op)

    # sample: a seeded family onto the 256x256 grid
    f_sample = planted.draw_family(rng, CLI_KINDS, CLI_REAL_RANGE)
    sum_path = write_json(workdir / "sum.json", planted.sum_doc(f_sample))

    def check_sample(result):
        doc, reason = _document(result, "sample")
        return reason or checks.grid_error(doc, f_sample, window)

    add("sample", ["sample", str(sum_path), "--level", str(CLI_LEVEL),
                   "--origin", *map(str, CLI_ORIGIN),
                   "--width", str(CLI_SIZE), "--height", str(CLI_SIZE)], check_sample)

    # detect: the fixed family of FAULT_G, default centre
    f_fault = planted.real_family(FAULT_G, [1.0] * 5)
    fault_values = f_fault.grid(CLI_LEVEL, CLI_ORIGIN, CLI_SIZE, CLI_SIZE)[0]
    fault_grid = write_json(workdir / "fault_grid.json", planted.grid_doc(fault_values, window))

    def check_detect(result):
        doc, reason = _document(result, "detect")
        if reason:
            return reason
        gamma = [checks.parse_value(c) for c in doc["gamma"] or ()]
        return checks.frequency_error(doc["classification"], gamma, FAULT_G)

    add("detect", ["detect", str(fault_grid)], check_detect, fault=True)

    # annihilate: a seeded family with its true gamma along the imaginary
    # component's axis, so the residual grid is complex; inline in stdout
    f_ann = planted.draw_family(rng, CLI_KINDS, CLI_REAL_RANGE)
    axis = "y"
    ann_values = f_ann.grid(CLI_LEVEL, CLI_ORIGIN, CLI_SIZE, CLI_SIZE)[0]
    ann_grid = write_json(workdir / "grid.json", planted.grid_doc(ann_values, window))
    ann_sup = float(np.max(np.abs(ann_values.real)))

    def check_annihilate(result):
        doc, reason = _document(result, "annihilate")
        return reason or checks.annihilate_error(doc, window, axis, ann_sup)

    add("annihilate", ["annihilate", str(ann_grid), "--gamma",
                       *map(planted.rate_token, f_ann.g), "--axis", axis], check_annihilate)

    # refine --auto: the fixed real-exponential series
    z = np.arange(FAULT_SERIES_LENGTH) * 2.0 ** -FAULT_SERIES_LEVEL
    series = write_json(workdir / "series.json", {
        "level": FAULT_SERIES_LEVEL, "origin": 0,
        "values": [float(v) for v in FAULT_SERIES.evaluate(z).real],
    })

    def check_refine(result):
        doc, reason = _document(result, "refine")
        if reason:
            return reason
        err = result[2]
        rate = checks.parse_value(json.loads(err.split("detected frequency:", 1)[1]))
        if abs(rate - FAULT_SERIES.rate) > checks.FREQ_TOL * abs(FAULT_SERIES.rate):
            return f"detected rate {rate}, planted {FAULT_SERIES.rate}"
        values = [checks.parse_value(v) for v in doc["values"]]
        return checks.refined_error(
            values, (0, FAULT_SERIES_LEVEL), ROUNDS,
            FAULT_SERIES.evaluate, FAULT_SERIES.magnitude,
            header=(doc["origin"], doc["level"]),
        )

    add("refine", ["refine", str(series), "--rounds", str(ROUNDS), "--auto"],
        check_refine, fault=True)

    # generate: a seeded instance, checked for internal consistency
    def check_generate(result):
        doc, reason = _document(result, "generate")
        return reason or checks.generate_error(doc)

    add("generate", ["generate", "--seed", str(seed)], check_generate)
    return ops


WORKLOADS = {
    "detect-refine-small": small_ops,
    "robust-mid": robust_ops,
    "cli-256": cli_ops,
}


# --- measuring -------------------------------------------------------------

@dataclass
class Run:
    # Per-operation figures are kept in arrays of doubles, so that the
    # benchmark's own bookkeeping barely moves the peak RSS it reports.
    raw_times: array            # seconds per operation, as measured
    times: array                # the same at reference host speed (hostspeed.py)
    factors: array              # per operation, the host-speed factor of its pass
    pass_times: list[float]     # seconds per pass at reference speed, operations only
    attempted: int
    failures: list[tuple[Op, str]]


def measure(ops: list[Op], seconds: float, tracer: Tracer | None = None,
            replayed: bool = False, max_ops: int | None = None,
            procs: "Processes | None" = None) -> Run:
    """Whole passes over ``ops`` until ``seconds`` have gone by, or until
    ``max_ops`` operations have run.  The host-speed kernel runs between
    operations, at least once per pass, and each pass's times are scaled by
    the factor its kernel times give.  With ``procs``, the process kernel
    runs next to the in-process one."""
    run = Run(array("d"), array("d"), array("d"), [], 0, [])
    deadline = time.perf_counter() + seconds
    while True:
        raw, kernel_times, process_times = [], [], []
        since_kernel = hostspeed.INTERVAL_S
        for op in ops:
            if since_kernel >= hostspeed.INTERVAL_S:
                kernel_times.append(hostspeed.kernel_seconds())
                if procs:
                    t0 = time.perf_counter()
                    procs.run(hostspeed.PROCESS_KERNEL, "kernel")
                    process_times.append(time.perf_counter() - t0)
                since_kernel = 0.0
            if tracer:
                tracer.op = run.attempted
            call = op.replay if replayed else op.run
            span = tracer.span(f"op.{op.kind}") if tracer else nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    result = call()
            except Exception as exc:  # an operation that raises has failed
                result, reason = None, f"{op.kind} raised {exc!r}"
            else:
                reason = None
            elapsed = time.perf_counter() - t0
            raw.append(elapsed)
            since_kernel += elapsed
            run.attempted += 1
            reason = reason or op.check(result)
            if reason:
                run.failures.append((op, reason))
        f = hostspeed.factor(kernel_times, process_times)
        run.raw_times.extend(raw)
        run.times.extend(t * f for t in raw)
        run.pass_times.append(sum(raw) * f)
        run.factors.extend([f] * len(raw))
        if time.perf_counter() >= deadline or (max_ops and run.attempted >= max_ops):
            return run


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from process start to the end of the first operation, in a
    fresh process (imports, inputs and one operation), as measured."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROCESS_TIMEOUT, cwd=ROOT,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.split()[-1])


def first_operation(workload: str, ops: list[Op], procs: Processes) -> None:
    if workload == "cli-256":
        # one warm-up process: interpreter start and the import of expann
        procs.expann(["generate", "--seed", "0"], "warmup")
    else:
        ops[0].run()


def tail(times_ms: list[float]) -> str:
    """The highest of p99.9, p99, p90 and p75 with at least ten samples beyond
    it, none below 40 samples."""
    n = len(times_ms)
    for q in (0.999, 0.99, 0.9, 0.75):
        if n * (1 - q) >= 10:
            cut = statistics.quantiles(times_ms, n=1000)[round(q * 1000) - 1]
            return f"p{q * 100:g} {cut:.4f} ms of {n} operations"
    return f"no tail percentile: {n} operations"


def outcome(runs: list[Run]) -> dict:
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    unexpected = [(op, why) for op, why in failures if not op.fault]
    for op, why in unexpected[:5]:
        print(f"unexpected failure: {why}", file=sys.stderr)
    kinds = sorted({op.kind for op, _ in failures})
    if failures:
        print(f"failed: {len(failures)} of {attempted} ({', '.join(kinds)}); "
              f"first: {failures[0][1]}", file=sys.stderr)
    return {"correct": not unexpected, "attempted": attempted, "failed": len(failures)}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, procs: Processes) -> dict:
    setups, process_times = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        procs.run(hostspeed.PROCESS_KERNEL, "kernel")
        process_times.append(time.perf_counter() - t0)
        setups.append(setup_probe(workload, seed))
    ops = WORKLOADS[workload](seed, procs)
    first_operation(workload, ops, procs)
    run = measure(ops, seconds, procs=procs if workload == "cli-256" else None)
    if workload == "cli-256":
        peak_kb = procs.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # A set-up is mostly interpreter start and imports, so it is scaled by
    # the process kernel timed before each probe.
    setup_factor = hostspeed.PROCESS_REFERENCE_MS * 1e-3 / statistics.median(process_times)
    times_ms = [t * 1e3 for t in run.times]
    print(f"reference: {tail(times_ms)}; raw op_p50 "
          f"{statistics.median(run.raw_times) * 1e3:.4f} ms; host-speed factors "
          f"{min(run.factors):.3f}..{max(run.factors):.3f}; {len(run.pass_times)} passes; "
          f"raw set-up probes {', '.join(f'{s:.4f}' for s in setups)} s, "
          f"set-up factor {setup_factor:.4f}", file=sys.stderr)
    return {**outcome([run]), "metrics": {
        "op_p50_ms": metric(statistics.median(times_ms), "ms"),
        "ops_per_s": metric(len(ops) / statistics.median(run.pass_times), "1/s"),
        "setup_s": metric(statistics.median(setups) * setup_factor, "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }}


# --- per-layer metrics from a traced run -------------------------------------

PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.sample_ms": "ms",
    "cli.detect_ms": "ms",
    "cli.annihilate_ms": "ms",
    "cli.refine_ms": "ms",
    "cli.generate_ms": "ms",
    "jsonio.load_grid_ms": "ms",
    "jsonio.dump_grid_ms": "ms",
    "jsonio.load_series_ms": "ms",
    "jsonio.dump_series_ms": "ms",
    "jsonio.bytes_out": "bytes",
    "expspace.sample_ms": "ms",
    "detection.detect_ms": "ms",
    "detection.stencils": "count",
    "detection.ns_per_stencil": "ns",
    "detection.detect_univariate_ms": "ms",
    "operators.grid_residual_ms": "ms",
    "operators.chain_apply_ms": "ms",
    "subdivision.auto_refine_ms": "ms",
    "subdivision.refine_ms": "ms",
    "subdivision.samples_out": "count",
    "oracle.random_instance_ms": "ms",
}

IMPORT_PROBE = "import time; t = time.perf_counter(); import expann.cli; print(time.perf_counter() - t)"


def per_pass(sizes_by_op: dict[int, int], ops_per_pass: int) -> float:
    """Median over passes of a count summed over each pass (0 when absent)."""
    passes: dict[int, int] = {}
    for op, size in sizes_by_op.items():
        passes[op // ops_per_pass] = passes.get(op // ops_per_pass, 0) + size
    return statistics.median(passes.values()) if passes else 0


def traced(workload: str, seed: int, seconds: float, procs: Processes) -> dict:
    """Per-layer metrics.  Spans are recorded around expann's public
    functions; cli-256 also times each command as a whole process and then
    replays the commands in-process under the tracer."""
    import expann.cli  # noqa: F401  (loaded before the tracer patches its names)

    ops = WORKLOADS[workload](seed, procs)
    first_operation(workload, ops, procs)
    values = dict.fromkeys(PER_LAYER, 0.0)
    runs = []
    tracer = Tracer()
    if workload == "cli-256":
        whole = measure(ops, seconds / 2, procs=procs)
        runs.append(whole)
        for op in ops:
            times = whole.times[ops.index(op)::len(ops)]
            values[f"cli.{op.kind}_ms"] = statistics.median(times) * 1e3
        imports = [float(procs.run([sys.executable, "-c", IMPORT_PROBE], "import")[1])
                   for _ in range(IMPORT_PROBES)]
        values["cli.import_ms"] = statistics.median(imports) * statistics.median(whole.factors) * 1e3
    tracer.install()
    try:
        run = measure(ops, seconds / 2 if workload == "cli-256" else seconds,
                      tracer, replayed=workload == "cli-256", max_ops=TRACE_MAX_OPS)
    finally:
        tracer.uninstall()
    runs.append(run)
    print(f"reference: traced op_p50 {statistics.median(run.times) * 1e3:.4f} ms, raw "
          f"{statistics.median(run.raw_times) * 1e3:.4f} ms, over {run.attempted} operations",
          file=sys.stderr)

    # (name, op, duration in ns at reference speed) for every span
    spans_ns = [(name, op, (end - start) * run.factors[op])
                for name, start, end, _, op, _ in tracer.spans]
    for name in PER_LAYER:
        if name.endswith("_ms") and not name.startswith("cli."):
            durations = [ns / 1e6 for n, _, ns in spans_ns if n == name[: -len("_ms")]]
            values[name] = statistics.median(durations) if durations else 0.0
    n = len(ops)
    bytes_out: dict[int, int] = {}
    for fname in ("dump_grid", "dump_series", "dump_sum"):
        for op, size in tracer.sizes_by_op(f"jsonio.{fname}").items():
            bytes_out[op] = bytes_out.get(op, 0) + size
    values["jsonio.bytes_out"] = per_pass(bytes_out, n)
    values["subdivision.samples_out"] = per_pass(tracer.sizes_by_op("subdivision.auto_refine"), n)
    stencils = [op.stencils for op in ops if op.stencils]
    if stencils:
        values["detection.stencils"] = statistics.median(stencils)
        values["detection.ns_per_stencil"] = statistics.median(
            ns / ops[op % n].stencils for name, op, ns in spans_ns if name == "detection.detect"
        )
    tracer.dump(OUT / f"trace-{workload}-{seed}.json")
    return {**outcome(runs), "metrics": {k: metric(v, PER_LAYER[k]) for k, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "expann" / "__init__.py").is_file():
        print(f"bench: no expann source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import expann

    if not Path(expann.__file__).resolve().is_relative_to(SRC):
        print(f"bench: expann imported from {expann.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    procs = Processes(workdir)
    try:
        if args.probe_setup:
            first_operation(args.workload, WORKLOADS[args.workload](args.seed, procs), procs)
            print(time.perf_counter() - _START)
            return 0
        measure_fn = traced if args.trace else end_to_end
        result = measure_fn(args.workload, args.seed, args.seconds, procs)
    finally:
        procs.close()
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
