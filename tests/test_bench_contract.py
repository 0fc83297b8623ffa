"""The names and keywords the benchmark harness under bench/ binds in hillwalk.

bench/tracer.py patches the functions its LAYERS map names, and the
workloads call `hw.<name>(..., keyword=...)` on the package; a name or a
keyword missing here breaks `bench/run.py` (with or without `--trace 1`)
rather than any test."""

import ast
import importlib
import importlib.util
import inspect
import random
import re
from pathlib import Path

import pytest

import hillwalk
import hillwalk.cli  # noqa: F401  (the cli-presets workload calls hw.cli.main)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_resolve():
    for span, (module, functions) in _tracer().LAYERS.items():
        home = importlib.import_module(f"hillwalk.{module}")
        for name in functions:
            assert callable(getattr(home, name, None)), f"{span}: hillwalk.{module}.{name}"


def test_bench_package_names_resolve():
    names = set()
    for path in BENCH.glob("*.py"):
        names.update(re.findall(r"\bhw\.([A-Za-z_]\w*)", path.read_text()))
    assert names, "no hw.<name> calls found under bench/"
    assert sorted(n for n in names if not hasattr(hillwalk, n)) == []
    # bench/baseline.py prints the matrix dimension
    assert isinstance(hillwalk.TruncatedOperator.dim, property)


def _bench_keywords():
    """(dotted name under hw, keyword) for every keyword argument bench/
    passes to a call of `hw.<name>(...)` or `self.hw.<name>(...)`."""
    found = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            chain, func = [], node.func
            while isinstance(func, ast.Attribute):
                chain.insert(0, func.attr)
                func = func.value
            chain.insert(0, getattr(func, "id", None))
            if "hw" in chain[:-1]:
                name = ".".join(chain[chain.index("hw") + 1:])
                found.update((name, kw.arg) for kw in node.keywords if kw.arg is not None)
    return found


def test_bench_keywords_are_parameters():
    # a renamed or removed parameter breaks bench/run.py, not any other test
    found = _bench_keywords()
    assert {kw for _, kw in found} >= {"ns", "shell_cap", "step_cap", "parity", "explicit"}
    missing = []
    for name, kw in sorted(found):
        target = hillwalk
        for part in name.split("."):
            target = getattr(target, part)
        if kw not in inspect.signature(target).parameters:
            missing.append(f"hw.{name}({kw}=...)")
    assert missing == []


def test_traced_calls_feed_the_layer_figures():
    tracer = _tracer().Tracer()
    pot, params = hillwalk.two_term(1, 2, 1, 1)
    with tracer.installed():
        hillwalk.eigenvalues(hillwalk.assemble(pot, "per+", 4))
        hillwalk.beta_plus(pot, params, 2)
    figures = tracer.layer_figures([0])
    assert figures["spectra.assemble.calls"] == 1
    assert figures["spectra.assemble.useful_ratio"] == 1.0
    assert figures["beta.calls"] == 1
    assert figures["numerics.result_bits"] > 0
    # the originals are back once the traced round ends
    assert not hasattr(hillwalk.assemble, "__wrapped__")


@pytest.mark.parametrize("name", ["exact-sums", "dense-spectra", "refine-concordance",
                                  "cli-presets"])
def test_one_round_of_each_workload_passes_its_checks(monkeypatch, name):
    """One round at seed 0, as bench/run.py draws it, with cli-presets in
    process: every operation but the known-fault probe returns, and the
    workload's own checks find no problem."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    cls = workloads.WORKLOADS[name]
    extra = {"root": BENCH.parent, "in_process": True} if cls is workloads.CliPresets else {}
    workload = cls(hillwalk, random.Random(f"{name}:0"), **extra)
    results, raised = {}, []
    for op in workload.ops():
        try:
            results[op.label] = op.call()
        except Exception as err:
            if not op.probe:
                raised.append(f"{op.label}: {type(err).__name__}: {err}")
    assert raised == []
    assert workload.check(results) == []
