"""Workload inputs, operation lists and output checks.

Every workload turns the seed into inputs, runs a fixed list of operations
through the package's public functions, and checks each output after its
timer has stopped. Operations are looked up on the package modules at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cbqoa import (
    AdamConfig,
    AnsatzParams,
    CircuitConfig,
    CvarConfig,
    SdpConfig,
    WalkParams,
    bench,
    cvar,
    fast_sim,
    problems,
    simulate,
)
from cbqoa.bench import BenchmarkSpec, PipelineConfig

PROBLEMS = ("max3sat", "max_bisection")
NORM_TOL = 1e-9
POGS_TOL = 1e-9


@dataclass(frozen=True)
class Size:
    """Instance and tuner sizes. FULL is the paper's desk scale."""

    sat_vars: int = 16
    sat_clauses: int = 200
    bis_vertices: int = 12
    depth: int = 3
    sweep_depths: tuple[int, ...] = (2, 4, 8)
    rounding_trials: int = 10000
    pogs_cutoff: float = 0.05
    sdp_iterations: int = 2000
    adam_iterations: int = 200
    adam_restarts: int = 4
    num_bins: int = 1000
    warmup_iterations: int = 5


FULL = Size()


class CheckFailed(Exception):
    """An operation returned an output that fails its check."""


@dataclass
class Quality:
    """Quality figures gathered from checked outputs; each is averaged per run."""

    values: dict[str, list[float]] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.values.setdefault(key, []).append(float(value))

    def merge(self, other: "Quality") -> None:
        for key, values in other.values.items():
            self.values.setdefault(key, []).extend(values)

    def mean(self, key: str) -> float:
        values = self.values.get(key)
        return float(np.mean(values)) if values else 0.0


# ---------------------------------------------------------------------------
# Inputs


def _sub_seed(seed: int, *labels: int) -> int:
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


def hard_instance(problem: str, size: Size, seed: int, index: int):
    """The index-th screened hard instance: the first that gen_hard_instances accepts."""
    common = dict(
        count=1,
        rounding_trials=size.rounding_trials,
        pogs_cutoff=size.pogs_cutoff,
        rng_seed=_sub_seed(seed, PROBLEMS.index(problem), index),
        max_attempts_factor=10000,
    )
    if problem == "max3sat":
        spec = BenchmarkSpec.for_max3sat(
            num_vars=size.sat_vars, num_clauses=size.sat_clauses, **common
        )
    else:
        spec = BenchmarkSpec.for_max_bisection(num_vertices=size.bis_vertices, **common)
    instances, _ = bench.gen_hard_instances(spec)
    if not instances:
        raise RuntimeError(f"no hard {problem} instance found for seed {seed}")
    return instances[0]


def random_instance(problem: str, size: Size, seed: int):
    """An unscreened instance of the workload's size, for the warm-up."""
    rng = np.random.default_rng(_sub_seed(seed, 99, PROBLEMS.index(problem)))
    if problem == "max3sat":
        return bench.random_max3sat(rng, size.sat_vars, size.sat_clauses)
    return bench.random_max_bisection(rng, size.bis_vertices)


def adam_config(size: Size, seed: int, iterations: int | None = None) -> AdamConfig:
    return AdamConfig(
        iterations=size.adam_iterations if iterations is None else iterations,
        restarts=size.adam_restarts,
        rng_seed=seed,
    )


def pipeline_config(size: Size, seed: int, iterations: int | None = None) -> PipelineConfig:
    return PipelineConfig(
        num_bins=size.num_bins,
        rounding_trials=size.rounding_trials,
        adam=adam_config(size, seed, iterations),
        sdp=SdpConfig(iterations=size.sdp_iterations),
        rng_seed=seed,
    )


# ---------------------------------------------------------------------------
# Shared output checks


def _summary(instance):
    return problems.cost_summary(instance)


def _check_state(state: np.ndarray, instance, label: str) -> np.ndarray:
    """Norm 1 and no mass off the feasible set; returns the probabilities."""
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > NORM_TOL:
        raise CheckFailed(f"{label}: norm {norm!r} differs from 1")
    probs = np.abs(state) ** 2
    off = np.ones(probs.size, dtype=bool)
    off[problems.feasible_indices(instance)] = False
    leaked = float(probs[off].sum())
    if leaked > NORM_TOL:
        raise CheckFailed(f"{label}: mass {leaked!r} off the feasible set")
    return probs


def _cvar_ratio(instance, value: float) -> float:
    """(E[f] - CVaR) / (E[f] - f*): 1 at the optimum, 0 for a random guess."""
    s = _summary(instance)
    return (s.mean_value - value) / (s.mean_value - s.optimum_value)


def _dense_cvar(instance, probs: np.ndarray, alpha: float) -> float:
    s = _summary(instance)
    return cvar.cvar_discrete(list(zip(s.diagonal[s.feasible], probs[s.feasible])), alpha)


def _binned_cvar(instance, psi, params: AnsatzParams, num_bins: int, alpha: float) -> float:
    s = _summary(instance)
    binning = fast_sim.bin_costs(s.diagonal, s.feasible, num_bins)
    evolved = fast_sim.evolve_binned(fast_sim.eta_from_state(psi, binning), binning, params)
    return cvar.cvar_discrete(fast_sim.binned_distribution(evolved, binning), alpha)


def _check_layer_tuner(instance, psi, params, num_bins, alpha, label) -> float:
    """The tuned binned CVaR is no worse than at the all-zero start; returns it."""
    best = _binned_cvar(instance, psi, params, num_bins, alpha)
    start = _binned_cvar(instance, psi, AnsatzParams.zeros(params.depth), num_bins, alpha)
    if best > start + 1e-9 * max(1.0, abs(start)):
        raise CheckFailed(f"{label}: tuned CVaR {best!r} worse than start {start!r}")
    return best


def _near_good_distribution(instance, probs: np.ndarray, threshold: float) -> dict[str, float]:
    """The bit-string distribution pogs_exact takes (bit 1 is the MSB), cut to the
    strings whose ratio is at least threshold - 0.1.

    Strings further below the threshold add nothing to its POGS, and feeding
    all 2^16 of them through pogs_exact's per-string loop costs seconds per
    call. Mass off the feasible set is checked separately on the full state.
    """
    near = (problems.beta_values(instance) >= threshold - 0.1) & (probs >= 1e-15)
    return {format(int(i), f"0{instance.n}b"): float(probs[i]) for i in np.flatnonzero(near)}


def _add_tuned(quality: Quality, instance, binned: float, dense: float) -> None:
    """Record one tuned ansatz: exact and binned CVaR ratios, and their gap."""
    exact, approx = _cvar_ratio(instance, dense), _cvar_ratio(instance, binned)
    quality.add("cvar_ratio", exact)
    quality.add("layer_best", approx)
    quality.add("cvar_gap", abs(approx - exact))


def _good_pogs(instance, probs: np.ndarray, threshold: float) -> float:
    betas = problems.beta_values(instance)
    return float(probs[betas >= threshold - 1e-12].sum())


# ---------------------------------------------------------------------------
# Pipeline workloads


def check_record(instance, record, depth: int, config: PipelineConfig, quality: Quality) -> None:
    """Rebuild every scored state from the record and verify what it reports."""
    alpha = config.alpha
    thresholds = bench.default_thresholds(instance.kind)
    reps = bench.default_repetitions(instance.kind)
    classical = "kz" if instance.kind == "max3sat" else "fl"
    circuit = CircuitConfig(trotter_steps=config.trotter_steps)
    walk = WalkParams(time=record.walk_time, sharpness=record.walk_sharpness)
    cb = AnsatzParams(record.betas, record.gammas)
    gm = AnsatzParams(record.gm_betas, record.gm_gammas)
    states = {
        "cbqoa_0": simulate.cbqoa_ansatz(
            instance, record.seed_bits, walk, AnsatzParams((), ()), circuit
        ),
        f"cbqoa_{depth}": simulate.cbqoa_ansatz(instance, record.seed_bits, walk, cb, circuit),
        f"gm_qaoa_{depth}": simulate.gm_qaoa_ansatz(instance, gm),
    }
    expected = {classical, *states}
    if set(record.pogs) != expected or set(record.pogs_boosted) != expected:
        raise CheckFailed(f"algorithms {sorted(record.pogs)} differ from {sorted(expected)}")
    keys = [f"{x:g}" for x in thresholds]

    probs = {}
    for algorithm, state in states.items():
        probs[algorithm] = _check_state(state, instance, algorithm)
        for x, key in zip(thresholds, keys):
            distribution = _near_good_distribution(instance, probs[algorithm], x)
            exact = bench.pogs_exact(distribution, instance, x)
            reported = record.pogs[algorithm][key]
            if abs(exact - reported) > POGS_TOL:
                raise CheckFailed(f"{algorithm}@{key}: POGS {reported!r} != exact {exact!r}")
    for algorithm in expected:
        for key in keys:
            p = record.pogs[algorithm][key]
            if not 0.0 <= p <= 1.0:
                raise CheckFailed(f"{algorithm}@{key}: POGS {p!r} outside [0, 1]")
            boosted = 1.0 - (1.0 - p) ** reps
            if abs(record.pogs_boosted[algorithm][key] - boosted) > 1e-12:
                raise CheckFailed(f"{algorithm}@{key}: boosted POGS is not 1-(1-p)^{reps}")

    seed_beta = problems.approx_ratio_beta(instance, record.seed_bits)
    if abs(seed_beta - record.seed_beta) > 1e-9:
        raise CheckFailed(f"seed beta {record.seed_beta!r} != recomputed {seed_beta!r}")

    walk_cvar = _dense_cvar(instance, probs["cbqoa_0"], alpha)
    if walk_cvar > record.seed_cost + 1e-9 * max(1.0, abs(record.seed_cost)):
        raise CheckFailed(f"walk CVaR {walk_cvar!r} worse than its (0, 0) start")
    psi = states["cbqoa_0"]
    binned = {
        "cbqoa": _check_layer_tuner(instance, psi, cb, config.num_bins, alpha, "cbqoa layers"),
        "gm_qaoa": _check_layer_tuner(
            instance, simulate.uniform_feasible_state(instance), gm, config.num_bins, alpha,
            "gm_qaoa layers",
        ),
    }

    first = keys[0]
    quality.add("pogs.cbqoa", record.pogs[f"cbqoa_{depth}"][first])
    quality.add("pogs.gm_qaoa", record.pogs[f"gm_qaoa_{depth}"][first])
    quality.add("pogs.classical", record.pogs[classical][first])
    quality.add("walk_best", _cvar_ratio(instance, walk_cvar))
    for name, algorithm in (("cbqoa", f"cbqoa_{depth}"), ("gm_qaoa", f"gm_qaoa_{depth}")):
        _add_tuned(quality, instance, binned[name], _dense_cvar(instance, probs[algorithm], alpha))


def check_export(record, out_dir: Path) -> None:
    imported = bench.import_results(out_dir)
    if [r.to_dict() for r in imported] != [record.to_dict()]:
        raise CheckFailed("re-imported records differ from the exported record")
    rows = (out_dir / "results.csv").read_text(encoding="utf-8").strip().splitlines()
    expected = 1 + sum(len(per) for per in record.pogs.values())
    if len(rows) != expected:
        raise CheckFailed(f"results.csv has {len(rows)} lines, expected {expected}")


@dataclass
class Op:
    """One timed call and the check of its output."""

    name: str
    call: object  # () -> output
    check: object  # (output) -> None; raises CheckFailed
    fresh_caches: bool = False


class PipelineWorkload:
    """run_pipeline then export_results on each of a few screened hard instances."""

    def __init__(
        self, problem: str, count: int, min_passes: int, size: Size, seed: int, work_dir: Path
    ):
        self.problem, self.count, self.min_passes = problem, count, min_passes
        self.size, self.seed = size, seed
        self.work_dir = work_dir
        self.config = pipeline_config(size, seed)
        self.exports = 0
        self.checked: dict[str, Quality] = {}  # record without timing -> its quality

    def inputs(self):
        return [hard_instance(self.problem, self.size, self.seed, i) for i in range(self.count)]

    def warmup(self) -> None:
        instance = random_instance(self.problem, self.size, self.seed)
        config = pipeline_config(self.size, self.seed, self.size.warmup_iterations)
        problems.cost_summary.cache_clear()
        record = bench.run_pipeline(instance, self.size.depth, config)
        out = self.work_dir / "warmup"
        bench.export_results([record], out)
        shutil.rmtree(out)

    def _check_record(self, instance, record, quality: Quality) -> None:
        """Full check once per distinct record; a repeat of a checked record reuses it."""
        data = record.to_dict()
        data.pop("wall_time_s")
        key = json.dumps(data, sort_keys=True)
        if key not in self.checked:
            found = Quality()
            check_record(instance, record, self.size.depth, self.config, found)
            self.checked[key] = found
        quality.merge(self.checked[key])

    def _ops_for(self, instance, quality: Quality) -> list[Op]:
        self.exports += 1
        out = self.work_dir / f"export{self.exports}"
        held = {}

        def pipeline():
            held["record"] = bench.run_pipeline(instance, self.size.depth, self.config)
            return held["record"]

        def export():
            if "record" not in held:
                raise RuntimeError("no record to export: run_pipeline failed")
            return bench.export_results([held["record"]], out)

        def check_export_and_clean(_paths):
            try:
                check_export(held["record"], out)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return [
            Op(
                "bench.run_pipeline",
                pipeline,
                lambda record: self._check_record(instance, record, quality),
                fresh_caches=True,
            ),
            Op("bench.export_results", export, check_export_and_clean),
        ]

    def ops(self, instances, quality: Quality) -> list[Op]:
        return [op for instance in instances for op in self._ops_for(instance, quality)]


class DepthSweepWorkload:
    """tune_ansatz_params from the uniform feasible state at several depths."""

    min_passes = 1

    def __init__(self, size: Size, seed: int, work_dir: Path):
        self.size, self.seed = size, seed
        self.cvar_cfg = CvarConfig()

    def inputs(self):
        return {p: hard_instance(p, self.size, self.seed, 0) for p in PROBLEMS}

    def _tune(self, instance, depth: int, iterations: int | None = None):
        psi = simulate.uniform_feasible_state(instance)
        return cvar.tune_ansatz_params(
            instance,
            psi,
            depth,
            self.cvar_cfg,
            adam_config(self.size, self.seed, iterations),
            num_bins=self.size.num_bins,
        )

    def warmup(self) -> None:
        for problem in PROBLEMS:
            instance = random_instance(problem, self.size, self.seed)
            self._tune(instance, self.size.sweep_depths[0], self.size.warmup_iterations)

    def _check(self, instance, output, depth: int, quality: Quality) -> None:
        betas, gammas, trace = output
        params = AnsatzParams(betas, gammas)
        if params.depth != depth:
            raise CheckFailed(f"tuned depth {params.depth} != {depth}")
        label = f"{instance.kind} p={depth}"
        probs = _check_state(simulate.gm_qaoa_ansatz(instance, params), instance, label)
        psi = simulate.uniform_feasible_state(instance)
        alpha = self.cvar_cfg.alpha
        binned = _check_layer_tuner(instance, psi, params, self.size.num_bins, alpha, label)
        if abs(binned - min(v for *_, v in trace)) > 1e-8 * max(1.0, abs(binned)):
            raise CheckFailed(f"{label}: tuned CVaR {binned!r} is not the best traced value")
        threshold = bench.default_thresholds(instance.kind)[0]
        quality.add("pogs.gm_qaoa", _good_pogs(instance, probs, threshold))
        _add_tuned(quality, instance, binned, _dense_cvar(instance, probs, alpha))

    def ops(self, instances, quality: Quality) -> list[Op]:
        ops = []
        for problem in PROBLEMS:
            instance = instances[problem]
            for depth in self.size.sweep_depths:
                ops.append(
                    Op(
                        f"cvar.tune_ansatz_params[{problem},p={depth}]",
                        lambda i=instance, d=depth: self._tune(i, d),
                        lambda out, i=instance, d=depth: self._check(i, out, d, quality),
                    )
                )
        return ops


# The benchmark's runs must fit a fixed time budget, and the machine's speed
# drifts with a correlation time of about 20-30 s, so the budget goes where
# the spread is widest. Bisection pass time spreads the most across runs: it
# takes one instance per pass (screening costs about 9 s per accepted
# instance, and its quality figures vary little because cbqoa saturates) and
# the median of at least 5 passes of about 14 s. 3SAT screening costs about
# 1 s and its quality varies more between instances, so a pass takes two
# instances (about 25 s), and one pass is enough: its pass time spread no
# more with one pass than with two. depth_sweep is not in BENCHMARK.json (see
# README.md) and runs by hand.
WORKLOADS = {
    "bisection_p3": lambda size, seed, work: PipelineWorkload(
        "max_bisection", 1, 5, size, seed, work
    ),
    "max3sat_p3": lambda size, seed, work: PipelineWorkload("max3sat", 2, 1, size, seed, work),
    "depth_sweep": lambda size, seed, work: DepthSweepWorkload(size, seed, work),
}
