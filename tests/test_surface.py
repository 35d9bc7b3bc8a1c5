"""The package surface that the outside-in benchmark in perfbench/ relies on."""

import argparse
import ast
import importlib.util
import inspect
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

import cbqoa
from cbqoa.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cbqoa"
PERFBENCH = ROOT / "perfbench"
# The pipeline's entry points and the configs that perfbench/workloads.py takes from the root.
MAX_PUBLIC_NAMES = 20
# Lines of src/cbqoa/*.py as `wc -l` counts them. A change that grows src/ past
# this raises it and states by how much and why.
MAX_SRC_LINES = 2330


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


def _definitions(tree: ast.Module):
    """Top-level functions and the methods of top-level classes; a nested function
    counts as part of the one it is defined in."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            yield from (item for item in top.body if isinstance(item, ast.FunctionDef))
        elif isinstance(top, ast.FunctionDef):
            yield top


def _callers(modules: dict[str, ast.Module], callee: str) -> list[str]:
    """module:function for every function (see _definitions) that calls callee by name
    or attribute."""
    return sorted(
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in _definitions(tree)
        if any(
            isinstance(call, ast.Call)
            and callee in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
            for call in ast.walk(node)
        )
    )


def _writes_a_file(function: ast.FunctionDef) -> bool:
    """Whether function calls write_text or write_bytes, or opens a file to write."""
    for call in ast.walk(function):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "attr", None) or getattr(call.func, "id", None)
        if name in ("write_text", "write_bytes"):
            return True
        if name == "open":  # Path.open(mode) or open(path, mode)
            modes = call.args[:1] if isinstance(call.func, ast.Attribute) else call.args[1:2]
            modes += [k.value for k in call.keywords if k.arg == "mode"]
            if any(set(str(getattr(m, "value", ""))) & set("wax+") for m in modes):
                return True
    return False


def test_each_fact_has_one_source():
    """Costs are evaluated only to fill the cost table, which is looked up, not passed in;
    clause labels are decoded in one place; the walk seed is the family's; the XY walk
    has one product-formula path, on the seed's Hamming-weight sector, with one rotation
    table; a permutation acts by one XOR mask, computed in one place; the hypercube walk's
    factors are formed in one place; an instance's size and
    JSON form are read from its fields by one base class; layers start from the state
    they reflect about; every output file is written through one atomic writer; no
    permutation or vector set carries a kind beside what it holds; the edge list is
    decoded in one place; CLI flags are named by dataclass fields, with no list of
    them; one function computes the CVaR tail; one checks the rounding count; one
    pipeline body runs every depth; the feasible set is read from the cost table; a run
    record stores no fact derived from another; and no setting is read from the
    environment."""
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    edge_readers = sorted(
        f"{name}:{getattr(top, 'name', top.lineno)}"
        for name, tree in modules.items()
        for top in tree.body
        if any(isinstance(node, ast.Attribute) and node.attr == "edges" for node in ast.walk(top))
    )
    assert edge_readers == ["problems.py:MaxBisectionInstance", "problems.py:_edge_arrays"]
    source = "".join(p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py"))
    for gone in ("_cvar_from_boundary", "_PIPELINE_FIELDS", "_cvar_sorted"):
        assert gone not in source, gone
    assert _callers(modules, "_cvar_boundary") == [
        "cvar.py:_hypercube_objective", "cvar.py:_layer_objective", "cvar.py:_xy_objective",
        "cvar.py:cvar_discrete",
    ]
    # The feasible set is read from the cost table.
    assert _callers(modules, "feasible_indices") == ["problems.py:cost_summary"]
    trials_checks = sorted(
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in _definitions(tree)
        if any(getattr(c, "value", None) == "trials must be >= 1" for c in ast.walk(node))
    )
    assert trials_checks == ["seeds.py:_check_trials"]
    assert _callers(modules, "_check_trials") == ["bench.py:classical_batch", "seeds.py:round_batch"]
    # Settings come from flags and dataclass fields: no module reads the environment,
    # and a new pipeline setting is a deliberate edit here.
    environment = sorted(
        name
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if {getattr(node, "attr", None), getattr(node, "id", None)} & {"environ", "getenv"}
    )
    assert not environment, f"modules that read environment variables: {environment}"
    assert [f.name for f in fields(cbqoa.PipelineConfig)] == [
        "alpha", "trotter_steps", "num_bins", "rounding_trials", "seed_trials", "adam", "sdp",
        "rng_seed",
    ]
    # ADAM's step size is a module constant, cvar.LEARNING_RATE, as nothing varies it.
    assert [f.name for f in fields(cbqoa.AdamConfig)] == ["iterations", "restarts", "rng_seed"]
    # Screening stores what it measured; the accepted count and the guard are derived.
    assert [f.name for f in fields(cbqoa.bench.GenerationStats)] == ["attempts", "pogs_estimates"]
    # A record holds what its run measured: boosted POGS, its k and the instance size
    # are derived, and reading a record back reorders nothing.
    assert [f.name for f in fields(cbqoa.RunRecord)] == [
        "instance_id", "problem", "depth", "seed_bits", "seed_cost", "seed_beta", "walk_time",
        "walk_sharpness", "betas", "gammas", "gm_betas", "gm_gammas", "pogs", "wall_time_s",
    ]
    assert "sorted" not in inspect.getsource(cbqoa.RunRecord.from_dict)
    # One pipeline body serves every depth: the seed step and the walk are shared.
    assert _callers(modules, "run_depths") == ["bench.py:run_pipeline", "cli.py:_bench_one"]
    for callee in ("tune_walk_params", "build_family"):
        in_bench = [c for c in _callers(modules, callee) if c.startswith("bench.py:")]
        assert in_bench == ["bench.py:run_depths"], callee
    assert "_run_pipeline_inner" not in source
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
    assert list(inspect.signature(cbqoa.cvar._hypercube_objective).parameters)[0] == "family"
    # A permutation flips its positions' bits: x ^ mask, and the general action that also
    # swaps equal bits is a test oracle. A bit place 1 << (n - i) is formed in one place.
    assert "permute_indices" not in source
    places = sorted(
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in _definitions(tree)
        if any(
            isinstance(op, ast.BinOp) and isinstance(op.op, ast.LShift)
            and isinstance(op.right, ast.BinOp)
            for op in ast.walk(node)
        )
    )
    assert places == ["mixer.py:masks"], places
    assert _callers(modules, "_xy_sweep") == ["simulate.py:ctqw_trotter_xy"]
    assert _callers(modules, "_xy_rotations") == ["simulate.py:ctqw_trotter_xy"]
    assert _callers(modules, "_hypercube_factors") == [
        "simulate.py:_hypercube_adjoint", "simulate.py:_hypercube_product"
    ]
    assert list(inspect.signature(cbqoa.simulate._apply_layers).parameters) == [
        "psi", "cost_diagonal", "params"
    ]
    to_dicts = [
        node.name
        for node in ast.walk(modules["problems.py"])
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "to_dict" for item in node.body)
    ]
    assert to_dicts == ["ProblemInstance"]
    writers = sorted(
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and _writes_a_file(node)
    )
    assert writers == ["problems.py:_write_atomic"], f"files written in place: {writers}"
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
    kind_fields = sorted(
        f"{name}:{node.name}"
        for name in ("mixer.py", "seeds.py")
        for node in ast.walk(modules[name])
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.AnnAssign) and getattr(item.target, "id", None) == "kind"
            for item in node.body
        )
    )
    assert not kind_fields, f"kind stored beside the data it names: {kind_fields}"


def test_walks_share_one_phase_rule():
    """Both walks are real amplitudes r on the rows they reach; the i^k phase is applied
    in cbqoa_initial_state alone, and no second walk-state builder exists."""
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    users = sorted(
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in _definitions(tree)
        if any(getattr(n, "id", None) == "_I_POWERS" for n in ast.walk(node))
    )
    assert users == ["simulate.py:cbqoa_initial_state"]
    assert not hasattr(cbqoa.simulate, "hypercube_walk_state")
    instance = cbqoa.MaxBisectionInstance(num_vertices=4, edges=((1, 2, 1.0), (2, 3, 0.5)))
    family = cbqoa.mixer.build_family(instance, "0110")
    _, amps = cbqoa.simulate.ctqw_trotter_xy(family, [0.7, 1.3], [0.5, -1.0], 2)
    assert amps.dtype == np.float64


def test_each_default_has_one_home():
    """PipelineConfig's alpha and trotter_steps default to the sub-configs' own fields, and
    the layer tuner takes its bin count from the caller, so PipelineConfig.num_bins is the
    one default."""
    tree = ast.parse((PACKAGE / "bench.py").read_text(encoding="utf-8"))
    (config,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PipelineConfig"]
    defaults = {
        item.target.id: ast.unparse(item.value)
        for item in config.body
        if isinstance(item, ast.AnnAssign) and item.target.id in ("alpha", "trotter_steps")
    }
    assert defaults == {"alpha": "CvarConfig.alpha", "trotter_steps": "CircuitConfig.trotter_steps"}
    num_bins = inspect.signature(cbqoa.cvar.tune_ansatz_params).parameters["num_bins"]
    assert num_bins.default is inspect.Parameter.empty


def test_dataclass_flags_have_no_parser_default():
    """A flag stored under a BenchmarkSpec or PipelineConfig field takes its default from
    the dataclass alone, never from a second literal in the parser."""
    names = {f.name for cls in (cbqoa.BenchmarkSpec, cbqoa.PipelineConfig) for f in fields(cls)}
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    restated = sorted(
        f"{command} {action.option_strings[0]} (default {action.default!r})"
        for command, sub in commands.choices.items()
        for action in sub._actions
        if action.dest in names and action.default is not None
    )
    assert not restated, f"flags that restate a dataclass default: {restated}"


def test_relaxation_gradients_scatter_once():
    """Both relaxation solvers sum each gradient with one order-preserving bincount
    (seeds._scatter); seeds.py makes no np.add.at scatter."""
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert _callers(modules, "_scatter") == ["seeds.py:solve_fl_sdp", "seeds.py:solve_kz_sdp"]
    add_at = [
        node.lineno
        for node in ast.walk(modules["seeds.py"])
        if isinstance(node, ast.Attribute)
        and node.attr == "at"
        and getattr(node.value, "attr", None) == "add"
    ]
    assert not add_at, f"seeds.py calls np.add.at at lines {add_at}"


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
