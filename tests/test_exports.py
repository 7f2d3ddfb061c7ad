import ast
import cmath
import dataclasses
import importlib
import json
import math
import pkgutil
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

import expann
from expann import detection
from expann.detection import DEFAULT_STENCILS, Classification
from expann.expspace import GridSamples

MODULES = ["expann"] + [f"expann.{m.name}" for m in pkgutil.iter_modules(expann.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from expann import *", namespace)
    assert set(expann.__all__) <= namespace.keys()


def test_benchmark_names_resolve(monkeypatch):
    # the benchmark's tracer wraps these functions by name; a rename or a
    # deletion must fail here, not only in a traced benchmark run
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "spans.py"))
    missing = [
        f"{layer}.{name}"
        for layer, names in spans["TRACED"].items()
        for name in names
        if not callable(getattr(importlib.import_module(f"expann.{layer}"), name, None))
    ]
    assert missing == []
    assert callable(DEFAULT_STENCILS.for_axis) and isinstance(GridSamples, type)
    # the benchmark counts robust-mode stencils from DEFAULT_STENCILS.for_axis,
    # which must give, object for object, the steps detect tries per axis
    tried, axis = [], detection._axis

    def spy(diffs, alpha, e, steps, *rest):
        tried.append((e, steps))
        return axis(diffs, alpha, e, steps, *rest)

    monkeypatch.setattr(detection, "_axis", spy)
    values = np.cosh(0.3 * np.arange(6.0))[:, None] * np.cosh(0.2 * np.arange(6.0))
    for mode in ("single", "robust"):
        tried.clear()
        detection.detect(GridSamples(0, (0, 0), 6, 6, values), (2, 2), mode)
        assert [e for e, _ in tried] == [(1, 0), (0, 1)]
        for e, steps in tried:
            assert list(map(id, steps)) == list(map(id, DEFAULT_STENCILS.for_axis(e)))


def test_ci_smoke_step_names_benchmark_entries():
    # the workflow's smoke step names workloads and traced layers by hand;
    # read as text, since PyYAML is not a test dependency
    root = Path(__file__).resolve().parents[1]
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    [loop] = re.findall(r"for w in ([^;]+); do", workflow)
    assert loop.split() == [w["name"] for w in bench["workloads"]]
    listed = {n for names in re.findall(r'layers="([^"]*)"', workflow) for n in names.split()}
    assert listed and listed <= {layer["name"] for layer in bench["per_layer"]}


def test_sources_parse_as_python_3_10():
    # CI also runs the oldest Python that pyproject allows, 3.10; syntax new
    # in 3.11, such as except*, would fail only there, and only at import
    root = Path(__file__).resolve().parents[1]
    paths = sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py"))
    bad = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            bad.append(f"{path.relative_to(root)}:{exc.lineno}: {exc.msg}")
    assert paths and bad == []


def test_two_error_kinds():
    # one class per failing exit code of the command line: 2 and 4
    from expann import errors
    from expann.errors import InputError, NumericalError

    defined = {
        v for v in vars(errors).values()
        if isinstance(v, type) and issubclass(v, BaseException) and v.__module__ == errors.__name__
    }
    assert defined == {InputError, NumericalError}
    assert not issubclass(InputError, NumericalError)
    assert not issubclass(NumericalError, InputError)



def _call_sites(*stems):
    """(scope, callee, call) for every call in the named expann modules, all of
    them when none is named: scope is "module.name" of the innermost enclosing
    function or class, and callee the called expression's last name."""
    src = Path(__file__).resolve().parents[1] / "src" / "expann"
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            f = node.func
            sites.append((scope, f.id if isinstance(f, ast.Name) else getattr(f, "attr", None), node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(src.glob("*.py")):
        if not stems or path.stem in stems:
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sites


def test_one_owner_of_the_rate_rule():
    # detection._axis alone turns a cosh estimate into a rate, and gives rate
    # zero to an axis taken as zero, for both modes and the 1-D view
    owners = {"cosh_to_frequency": [], "Frequency(0)": []}
    for scope, name, call in _call_sites():
        if name == "cosh_to_frequency":
            owners[name].append(scope)
        zero = [a for a in call.args if isinstance(a, ast.Constant) and a.value == 0]
        if name == "Frequency" and zero:
            owners["Frequency(0)"].append(scope)
    assert owners == {"cosh_to_frequency": ["detection._axis"], "Frequency(0)": ["detection._axis"]}


def test_one_owner_of_the_factor_weight():
    # operators._weight alone computes a difference factor's weight and its
    # overflow rule, for sums (through the per-term multiplier) and for grids
    from expann import operators

    exps = [scope for scope, name, _ in _call_sites("operators") if name == "exp"]
    callers = sorted({scope for scope, name, _ in _call_sites() if name == "_weight"})
    assert exps == ["operators._weight"]
    assert callers == ["operators._apply_factors", "operators._multiplier"]
    assert not hasattr(operators, "_delta_weight")


def test_one_arithmetic_path_in_refinement():
    # every rate is a Frequency, so every rule driver is real: subdivision's
    # one cmath call is refine_rounds' level-0 cosh, and the level step and
    # the weights compute on a float and return floats
    from expann.subdivision import refine_parameter, synthesize_rule

    cmaths = [
        scope for scope, _, call in _call_sites("subdivision")
        if isinstance(call.func, ast.Attribute) and getattr(call.func.value, "id", None) == "cmath"
    ]
    assert cmaths == ["subdivision.refine_rounds"]
    for rate in (0.0, 0.8, 40.0, 0.5j, 3.0j, -3.0j):
        for level in (0, 3):
            c = cmath.cosh(math.ldexp(1.0, -level) * rate).real
            for driver in (c, np.float64(c)):
                nxt = refine_parameter(driver)
                assert type(nxt) is float
                assert [type(w) for w in synthesize_rule(nxt)] == [float, float]


def test_one_owner_of_the_driver_rule():
    # subdivision._real_driver alone refuses a driver that is not a real
    # number, for the level step, the weights and, through them, refinement
    raisers = [scope for scope, name, _ in _call_sites("subdivision") if name == "TypeError"]
    assert raisers == ["subdivision._real_driver"]


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n+```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert namespace["report"].classification is Classification.FREQUENCY
    assert "Classification.FREQUENCY" in capsys.readouterr().out


def test_one_constructor_per_public_type():
    # a classmethod or staticmethod on a public class would be a second
    # constructor, so no public class has one
    found = set()
    for name in ("expspace", "operators", "detection", "subdivision", "oracle"):
        module = importlib.import_module(f"expann.{name}")
        for public in module.__all__:
            cls = getattr(module, public)
            if isinstance(cls, type):
                found |= {
                    f"{public}.{attr}" for attr, v in vars(cls).items()
                    if isinstance(v, (classmethod, staticmethod))
                }
    assert found == set()


def test_no_dataclass_stores_a_field_twice():
    # a generated __init__ stores every field, so a __post_init__ that
    # normalizes one would store it again: a dataclass that normalizes or
    # validates has its own __init__ and no __post_init__
    found = []
    for name in MODULES:
        for value in vars(importlib.import_module(name)).values():
            if (isinstance(value, type) and value.__module__ == name
                    and dataclasses.is_dataclass(value)):
                found.append(value.__qualname__)
                assert "__post_init__" not in vars(value), value.__qualname__
    assert {"Frequency", "GridSamples", "IntegerStep", "CoshEstimate"} <= set(found)
