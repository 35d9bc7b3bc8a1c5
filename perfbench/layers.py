"""Per-layer metrics from the spans of a traced run.

Times and counts are per pass and come from the spans of the traced passes,
except the screening figures, which are totals over the input generation that
precedes the passes (no workload's timed operations screen). A metric whose
wrap target is missing is reported with value None; a layer that a workload
does not exercise reads 0.
"""

from __future__ import annotations

# metric -> (unit, span names it is computed from)
LAYER_METRICS = {
    "problems.cost_summary.s": ("s", ("problems.cost_summary",)),
    "problems.cost_summary.misses": ("count", ("problems.cost_summary",)),
    "seeds.solve_relaxation.s": ("s", ("seeds.solve_relaxation",)),
    "seeds.solve_relaxation.calls": ("count", ("seeds.solve_relaxation",)),
    "seeds.converged_ratio": ("ratio", ("seeds.solve_relaxation",)),
    "seeds.round_batch.s": ("s", ("seeds.round_batch",)),
    "seeds.round_batch.rows": ("count", ("seeds.round_batch",)),
    "mixer.build_family.s": ("s", ("mixer.build_family",)),
    "simulate.walk.s": ("s", ("simulate.walk",)),
    "simulate.walk.calls": ("count", ("simulate.walk",)),
    "simulate.walk.minor_faults": ("count", ("simulate.walk",)),
    "simulate.ctqw_trotter_xy.s": ("s", ("simulate.ctqw_trotter_xy",)),
    "simulate.dense.s": ("s", ("simulate.dense",)),
    "fast_sim.evolve_binned.s": ("s", ("fast_sim.evolve_binned",)),
    "fast_sim.evolve_binned.calls": ("count", ("fast_sim.evolve_binned",)),
    "fast_sim.cvar_gap": ("ratio", ()),
    "cvar.tune_walk.s": ("s", ("cvar.tune_walk",)),
    "cvar.tune_walk.self_s": ("s", ("cvar.tune_walk", "simulate.walk")),
    "cvar.tune_walk.evals": ("count", ("cvar.tune_walk", "simulate.walk")),
    "cvar.tune_layers.s": ("s", ("cvar.tune_layers",)),
    "cvar.tune_layers.self_s": ("s", ("cvar.tune_layers", "fast_sim.evolve_binned")),
    "cvar.walk_best_ratio": ("ratio", ()),
    "cvar.layer_best_ratio": ("ratio", ()),
    "bench.run_pipeline.self_s": ("s", ("bench.run_pipeline",)),
    "bench.run_pipeline.child_coverage": ("ratio", ("bench.run_pipeline",)),
    "bench.gen_hard_instances.s": ("s", ("bench.gen_hard_instances",)),
    "bench.estimate_seed_pogs.s": ("s", ("bench.estimate_seed_pogs",)),
    "bench.screen.accept_ratio": ("ratio", ("bench.gen_hard_instances",)),
    "bench.export_results.s": ("s", ("bench.export_results",)),
    "bench.export_results.bytes": ("bytes", ("bench.export_results",)),
    "pogs.cbqoa": ("probability", ()),
    "pogs.gm_qaoa": ("probability", ()),
    "pogs.classical": ("probability", ()),
    "setup.minor_faults": ("count", ()),
    "trace.overhead_ratio": ("ratio", ()),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, passes: int, quality, overhead: float, setup_minflt: int) -> dict:
    """Every per-layer metric as name -> (value, unit); value None if missing."""
    recorded = tracer.spans
    timed = {s.op for s in recorded if s.op != "inputs"}
    screened = {"inputs"}

    def spans(name, ops=timed):
        return [s for s in recorded if s.name == name and s.op in ops]

    def per_pass(values) -> float:
        return float(sum(values)) / passes

    walk_tunings = spans("cvar.tune_walk")
    tunings = {i for i, s in enumerate(recorded) if s.name == "cvar.tune_walk" and s.op in timed}
    walk_evals = [s for s in spans("simulate.walk") if s.parent in tunings]
    pipelines = spans("bench.run_pipeline")
    solves = spans("seeds.solve_relaxation", timed | screened)
    screens = spans("bench.gen_hard_instances", screened)

    values = {
        "problems.cost_summary.s": per_pass(s.duration for s in spans("problems.cost_summary")),
        "problems.cost_summary.misses": per_pass(s.info for s in spans("problems.cost_summary")),
        "seeds.solve_relaxation.s": per_pass(s.duration for s in spans("seeds.solve_relaxation")),
        "seeds.solve_relaxation.calls": per_pass(1 for _ in spans("seeds.solve_relaxation")),
        "seeds.converged_ratio": _ratio(sum(s.info for s in solves), len(solves)),
        "seeds.round_batch.s": per_pass(s.duration for s in spans("seeds.round_batch")),
        "seeds.round_batch.rows": per_pass(s.info for s in spans("seeds.round_batch")),
        "mixer.build_family.s": per_pass(s.duration for s in spans("mixer.build_family")),
        "simulate.walk.s": per_pass(s.duration for s in spans("simulate.walk")),
        "simulate.walk.calls": per_pass(1 for _ in spans("simulate.walk")),
        "simulate.walk.minor_faults": per_pass(s.minflt for s in spans("simulate.walk")),
        "simulate.ctqw_trotter_xy.s": per_pass(
            s.duration for s in spans("simulate.ctqw_trotter_xy")
        ),
        "simulate.dense.s": per_pass(s.duration for s in spans("simulate.dense")),
        "fast_sim.evolve_binned.s": per_pass(s.duration for s in spans("fast_sim.evolve_binned")),
        "fast_sim.evolve_binned.calls": per_pass(1 for _ in spans("fast_sim.evolve_binned")),
        "fast_sim.cvar_gap": quality.mean("cvar_gap"),
        "cvar.tune_walk.s": per_pass(s.duration for s in walk_tunings),
        "cvar.tune_walk.self_s": per_pass(s.self_s for s in walk_tunings),
        "cvar.tune_walk.evals": _ratio(len(walk_evals), len(walk_tunings)),
        "cvar.tune_layers.s": per_pass(s.duration for s in spans("cvar.tune_layers")),
        "cvar.tune_layers.self_s": per_pass(s.self_s for s in spans("cvar.tune_layers")),
        "cvar.walk_best_ratio": quality.mean("walk_best"),
        "cvar.layer_best_ratio": quality.mean("layer_best"),
        "bench.run_pipeline.self_s": per_pass(s.self_s for s in pipelines),
        "bench.run_pipeline.child_coverage": _ratio(
            sum(s.children_s for s in pipelines), sum(s.duration for s in pipelines)
        ),
        "bench.gen_hard_instances.s": sum(s.duration for s in screens),
        "bench.estimate_seed_pogs.s": sum(
            s.duration for s in spans("bench.estimate_seed_pogs", screened)
        ),
        "bench.screen.accept_ratio": _ratio(
            sum(s.info for s in screens), sum(s.info2 for s in screens)
        ),
        "bench.export_results.s": per_pass(s.duration for s in spans("bench.export_results")),
        "bench.export_results.bytes": per_pass(s.info for s in spans("bench.export_results")),
        "pogs.cbqoa": quality.mean("pogs.cbqoa"),
        "pogs.gm_qaoa": quality.mean("pogs.gm_qaoa"),
        "pogs.classical": quality.mean("pogs.classical"),
        "setup.minor_faults": float(setup_minflt),
        "trace.overhead_ratio": overhead,
    }
    missing = set(tracer.missing)
    return {
        name: (None if missing.intersection(needs) else values[name], unit)
        for name, (unit, needs) in LAYER_METRICS.items()
    }
