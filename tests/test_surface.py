"""The package surface that the outside-in benchmark in perfbench/ relies on."""

import ast
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import cbqoa

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cbqoa"
PERFBENCH = ROOT / "perfbench"
# The pipeline's entry points and the configs that perfbench/workloads.py takes from the root.
MAX_PUBLIC_NAMES = 20
# Lines of src/cbqoa/*.py as `wc -l` counts them. A change that grows src/ past
# this raises it and states by how much and why.
MAX_SRC_LINES = 2438


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


def test_src_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= MAX_SRC_LINES, f"src/cbqoa has {lines} lines, over its budget {MAX_SRC_LINES}"


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module refers to, leaving out each top-level definition's uses of itself."""
    found = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
            elif isinstance(node, ast.Name) and node.id != own:
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr != own:
                found.add(node.attr)
    return found


def _callers(modules: dict[str, ast.Module], callee: str) -> list[str]:
    """module:function for every function that calls callee by name or attribute."""
    return sorted(
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call)
            and callee in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
            for call in ast.walk(node)
        )
    )


def test_each_fact_has_one_source():
    """Costs are evaluated only to fill the cost table, which is looked up, not passed in;
    clause labels are decoded in one place; the walk seed is the family's; and the XY walk
    has one product-formula path, on the seed's Hamming-weight sector."""
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    evaluators = [name for name, tree in modules.items() if "_cost_block" in _referenced_names(tree)]
    assert evaluators == ["problems.py"]
    decoders = sorted(
        name
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_clause_arrays"
    )
    assert decoders == ["problems.py"]
    assert list(inspect.signature(cbqoa.cvar.tune_walk_params).parameters)[:2] == [
        "instance", "family"
    ]
    assert _callers(modules, "_xy_sweep") == ["simulate.py:ctqw_trotter_xy"]
    assert list(inspect.signature(cbqoa.simulate._trotter_plan).parameters) == ["family"]
    assert list(inspect.signature(cbqoa.simulate.cbqoa_initial_state).parameters) == [
        "family", "walk", "config"
    ]
    # _quality_ratio takes the table itself, and no instance to look it up from.
    takes_summary = sorted(
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and {"instance", "summary"}
        <= {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
    )
    assert not takes_summary, f"cost table passed in beside its instance: {takes_summary}"


def test_every_public_definition_has_a_caller():
    """Test-only code lives in tests/: every public function or class of a package
    module is used by the package or by the benchmark, not only re-exported."""
    def parse(path: Path) -> ast.Module:
        return ast.parse(path.read_text(encoding="utf-8"))

    modules = {p: parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    benchmark = [parse(p) for p in sorted(PERFBENCH.glob("*.py"))]
    used = set().union(*map(_referenced_names, [*modules.values(), *benchmark]))
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert not unused, f"public definitions that src/cbqoa and perfbench/ never use: {unused}"


def test_benchmark_selftest_passes():
    """The benchmark's own self-test, at reduced size: a library change that breaks the
    harness fails here."""
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
