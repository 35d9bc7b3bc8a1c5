"""The package surface that the outside-in benchmark in perfbench/ relies on."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import cbqoa

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MAX_PUBLIC_NAMES = 50


def test_benchmark_names_resolve_and_surface_is_small(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    unresolved = [
        f"{t.module}.{t.attr}"
        for t in spans.TARGETS
        if not hasattr(getattr(cbqoa, t.module, None), t.attr)
    ]
    assert not unresolved, f"traced targets missing from the package: {unresolved}"

    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cbqoa")
        for alias in node.names
    ]
    assert imported, "workloads.py imports nothing from cbqoa"
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"names workloads.py imports are missing: {missing}"

    public = [
        name
        for name, value in vars(cbqoa).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert len(public) <= MAX_PUBLIC_NAMES, f"{len(public)} root exports: {sorted(public)}"
