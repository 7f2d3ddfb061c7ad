"""The benchmark's own checks: each flags a deliberately wrong output, and
equal seeds give identical inputs.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import planted  # noqa: E402
import run  # noqa: E402

G = (0.8 + 0j, 0.3j)
F = planted.real_family(G, [1.0, 2.0, 3.0, 4.0, 5.0])
WINDOW = planted.Window(2, (-3, -2), 9, 7)


def grid_doc(values, window=WINDOW):
    return planted.grid_doc(values, window)


def test_frequency_check_flags_a_perturbed_frequency():
    assert checks.frequency_error("Frequency", G, G) is None
    assert checks.frequency_error("Frequency", (G[0] + 1e-4, G[1]), G)
    assert checks.frequency_error("Frequency", (G[1], G[0]), G)
    assert checks.frequency_error("Inconsistent", (), G)


def test_refined_check_flags_one_corrupted_sample():
    from expann.subdivision import auto_refine

    row = F.evaluate((-3 + np.arange(9)) * 0.25, 0.5).real
    refined, _ = auto_refine(row, 2, 3)
    exact = lambda z: F.evaluate(z, 0.5)  # noqa: E731
    magnitude = lambda z: F.magnitude(z, 0.5)  # noqa: E731
    assert checks.refined_error(refined, (-3, 2), 3, exact, magnitude) is None
    bad = refined.copy()
    bad[len(bad) // 3] += 1e-6
    assert checks.refined_error(bad, (-3, 2), 3, exact, magnitude)
    # the same samples read at the positions of one round fewer are wrong
    assert checks.refined_error(refined, (-3, 2), 2, exact, magnitude)
    assert checks.refined_error(refined, (-3, 2), 3, exact, magnitude, header=(0, 5))


def test_grid_check_flags_swapped_axes():
    values, _ = F.grid(WINDOW.level, WINDOW.origin, WINDOW.width, WINDOW.height)
    assert checks.grid_error(grid_doc(values), F, WINDOW) is None
    square = planted.Window(2, (-3, -3), 8, 8)
    sq, _ = F.grid(2, (-3, -3), 8, 8)
    assert checks.grid_error(grid_doc(sq, square), F, square) is None
    assert checks.grid_error(grid_doc(sq.T, square), F, square)
    swapped = {**grid_doc(values), "width": WINDOW.height, "height": WINDOW.width}
    assert checks.grid_error(swapped, F, WINDOW)


def test_annihilate_check_flags_swapped_axes_and_a_wrong_gamma(tmp_path):
    square = planted.Window(2, (-3, -3), 12, 12)
    values, _ = F.grid(2, (-3, -3), 12, 12)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid_doc(values, square)))
    sup = float(np.max(np.abs(values)))

    def annihilate(g1, g2, axis):
        code, out, _ = run.replay(["annihilate", str(path), "--gamma", g1, g2, "--axis", axis])
        assert code == 0
        return json.loads(out)

    good = annihilate("0.8", "0.3i", "x")
    assert checks.annihilate_error(good, square, "x", sup) is None
    assert checks.annihilate_error(good, square, "y", sup)
    assert checks.annihilate_error(annihilate("0.3i", "0.8", "x"), square, "x", sup)


def test_generate_check_flags_swapped_frequency_and_corrupted_grid():
    code, out, _ = run.replay(["generate", "--seed", "3"])
    assert code == 0
    doc = json.loads(out)
    assert checks.generate_error(doc) is None
    swapped = json.loads(out)
    swapped["frequency"] = swapped["frequency"][::-1]
    assert checks.generate_error(swapped)
    corrupted = json.loads(out)
    corrupted["grid"]["values"][5] = checks.parse_value(corrupted["grid"]["values"][5]).real + 1.0
    assert checks.generate_error(corrupted)


@pytest.mark.parametrize("workload", ["detect-refine-small", "robust-mid"])
def test_in_process_operations_pass_their_checks(workload):
    for op in run.WORKLOADS[workload](5, None)[:20]:
        assert op.check(op.run()) is None


def test_equal_seeds_give_identical_inputs():
    a = [(planted.draw_family(r), planted.draw_small_window(r))
         for r in [np.random.default_rng([7, 1])] for _ in range(50)]
    b = [(planted.draw_family(r), planted.draw_small_window(r))
         for r in [np.random.default_rng([7, 1])] for _ in range(50)]
    c = [(planted.draw_family(r), planted.draw_small_window(r))
         for r in [np.random.default_rng([8, 1])] for _ in range(50)]
    assert a == b
    assert a != c


def test_equal_seeds_write_identical_command_inputs(tmp_path):
    contents = []
    for name in ("one", "two"):
        work = tmp_path / name
        work.mkdir()
        run.cli_ops(11, run.Processes(work))
        contents.append({p.name: p.read_bytes() for p in sorted(work.iterdir())})
    assert contents[0] == contents[1]
    assert set(contents[0]) == {"sum.json", "fault_grid.json", "grid.json", "series.json"}


def test_stencil_count_matches_a_brute_force_count():
    from expann.detection import DEFAULT_STENCILS

    def brute(n):
        count = 0
        for e in ((1, 0), (0, 1)):
            for s in DEFAULT_STENCILS.for_axis(e):
                for bx in range(n):
                    for by in range(n):
                        pts = [(bx + mu * e[0] + lam * s.dx, by + mu * e[1] + lam * s.dy)
                               for mu in range(3) for lam in range(2)]
                        count += all(0 <= x < n and 0 <= y < n for x, y in pts)
        return count

    for n in (6, 24):
        assert run.stencil_count(n, n) == brute(n)
