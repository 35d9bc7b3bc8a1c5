"""Hard-instance generation, good-solution probabilities, and pipeline runs.

The quality of a solution is its approximation ratio relative to a uniform
random feasible guess; an algorithm's POGS at threshold x is the probability
that one run outputs a solution with ratio >= x. Quantum algorithms are scored
exactly from their simulated output distribution; classical roundings are
scored empirically. Hard instances are those whose classical rounding rarely
clears the threshold, mirroring the screening procedure used to assemble the
benchmark sets.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .cvar import AdamConfig, CvarConfig, tune_ansatz_params, tune_walk_params
from .mixer import WalkParams, build_family
from .problems import (
    Max3SatInstance,
    MaxBisectionInstance,
    ProblemInstance,
    _quality_ratio,
    _write_atomic,
    as_bits,
    beta_values,
    bits_to_index,
    bits_to_str,
    cost_summary,
    instance_id,
)
from .seeds import SdpConfig, _check_trials, round_batch, rounding_costs, solve_relaxation
from .simulate import (
    AnsatzParams,
    CircuitConfig,
    _apply_layers,
    cbqoa_initial_state,
    uniform_feasible_state,
)

_BETA_TOL = 1e-12


# ---------------------------------------------------------------------------
# Random instance generators


def random_max3sat(
    rng: np.random.Generator, num_vars: int = 16, num_clauses: int = 200
) -> Max3SatInstance:
    """Random 3-literal clauses over distinct variables with U[0,1] weights."""
    clauses = []
    for _ in range(num_clauses):
        variables = rng.choice(num_vars, size=3, replace=False) + 1
        negate = rng.integers(0, 2, size=3)
        labels = [int(v + num_vars) if neg else int(v) for v, neg in zip(variables, negate)]
        clauses.append((*labels, float(rng.uniform(0.0, 1.0))))
    return Max3SatInstance(num_vars=num_vars, clauses=tuple(clauses))


def random_max_bisection(
    rng: np.random.Generator, num_vertices: int = 12, edge_prob: float = 0.5
) -> MaxBisectionInstance:
    """Erdos-Renyi graph with U[-1,1] edge weights."""
    edges = []
    for a in range(1, num_vertices + 1):
        for b in range(a + 1, num_vertices + 1):
            if rng.random() < edge_prob:
                edges.append((a, b, float(rng.uniform(-1.0, 1.0))))
    return MaxBisectionInstance(num_vertices=num_vertices, edges=tuple(edges))


# ---------------------------------------------------------------------------
# POGS metrics


def _good(ratios: np.ndarray, threshold: float) -> np.ndarray:
    """Which approximation ratios clear the threshold (up to rounding in the ratio)."""
    return ratios >= threshold - _BETA_TOL


def pogs_exact(
    distribution: Mapping[str, float],
    instance: ProblemInstance,
    threshold: float,
) -> float:
    """Probability mass on solutions with approximation ratio >= threshold."""
    summary = cost_summary(instance)
    betas = beta_values(instance)
    keys = np.array([as_bits(key, instance.n) for key in distribution])
    indices = bits_to_index(keys.reshape(-1, instance.n))
    probs = np.array(list(distribution.values()), dtype=np.float64)
    feasible = np.zeros(summary.diagonal.size, dtype=bool)
    feasible[summary.feasible] = True
    leaks = np.flatnonzero((probs > 1e-12) & ~feasible[indices])
    if leaks.size:
        key = list(distribution)[leaks[0]]
        raise ValueError(f"distribution puts mass {probs[leaks[0]]} on infeasible string {key}")
    return float(probs[_good(betas[indices], threshold)].sum())


def default_thresholds(problem: str) -> tuple[float, ...]:
    return (0.7, 0.8) if problem == "max3sat" else (0.99,)


def pogs_repeated(pogs: float, k: int) -> float:
    """Probability that the best of k independent runs is good: 1 - (1-p)^k."""
    if not 0.0 <= pogs <= 1.0:
        raise ValueError("pogs must be in [0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1.0 - (1.0 - pogs) ** k


# ---------------------------------------------------------------------------
# Hard-instance generation


@dataclass(frozen=True)
class BenchmarkSpec:
    """Generation settings: instance shape, hardness screen, and rng seed."""

    problem: str
    count: int = 10
    num_vars: int = 16
    num_clauses: int = 200
    num_vertices: int = 12
    edge_prob: float = 0.5
    ratio_threshold: Optional[float] = None  # None: the problem's first POGS threshold
    pogs_cutoff: float = 0.05
    rounding_trials: int = 10000
    rng_seed: int = 0
    max_attempts_factor: int = 100

    def __post_init__(self):
        if self.problem not in ("max3sat", "max_bisection"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.ratio_threshold is None:
            object.__setattr__(self, "ratio_threshold", default_thresholds(self.problem)[0])
        if not 0 < self.pogs_cutoff < 1:
            raise ValueError("pogs_cutoff must be in (0, 1)")
        if not -np.inf < self.ratio_threshold <= 1:  # NaN fails both comparisons
            raise ValueError("ratio_threshold must be finite and <= 1")
        if self.count < 1 or self.rounding_trials < 1:
            raise ValueError("count and rounding_trials must be >= 1")
        if self.num_vars < 3 or self.num_clauses < 1:
            raise ValueError("num_vars must be >= 3 and num_clauses >= 1")
        if not 0 < self.edge_prob <= 1:
            raise ValueError("edge_prob must be in (0, 1]")
        if self.max_attempts_factor < 1:
            raise ValueError("max_attempts_factor must be >= 1")

    @classmethod
    def for_max3sat(cls, **overrides) -> "BenchmarkSpec":
        return cls(problem="max3sat", **overrides)

    @classmethod
    def for_max_bisection(cls, **overrides) -> "BenchmarkSpec":
        return cls(problem="max_bisection", **overrides)


@dataclass
class GenerationStats:
    attempts: int = 0
    pogs_estimates: list[float] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        return len(self.pogs_estimates)


def classical_batch(
    instance: ProblemInstance,
    sdp_cfg: SdpConfig,
    rng: np.random.Generator,
    trials: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The classical algorithm: solve the relaxation once, round `trials` times.

    Returns the roundings (one assignment per row), their costs and their
    approximation ratios.
    """
    _check_trials(trials)
    vectors = solve_relaxation(instance, sdp_cfg)
    assignments = round_batch(instance, vectors, rng, trials)
    costs = rounding_costs(instance, assignments)
    return assignments, costs, _quality_ratio(cost_summary(instance), costs)


def estimate_seed_pogs(
    instance: ProblemInstance,
    threshold: float,
    trials: int,
    rng: np.random.Generator,
    sdp_cfg: SdpConfig = SdpConfig(),
) -> float:
    """Empirical POGS of the classical algorithm over `trials` roundings."""
    _, _, ratios = classical_batch(instance, sdp_cfg, rng, trials)
    return float(_good(ratios, threshold).mean())


def gen_hard_instances(spec: BenchmarkSpec) -> tuple[list[ProblemInstance], GenerationStats]:
    """Generate instances whose classical rounding rarely clears the threshold.

    Repeatedly draws a random instance, estimates the rounding's POGS from
    `rounding_trials` roundings of one solved relaxation, and keeps the
    instance when the estimate falls below the cutoff. Gives up (returning a
    partial set) after max_attempts_factor * count attempts.
    """
    root = np.random.SeedSequence(spec.rng_seed)
    stats = GenerationStats()
    accepted: list[ProblemInstance] = []
    max_attempts = spec.max_attempts_factor * spec.count
    while len(accepted) < spec.count and stats.attempts < max_attempts:
        stats.attempts += 1
        gen_seq, sdp_seq, round_seq = root.spawn(3)
        gen_rng = np.random.default_rng(gen_seq)
        if spec.problem == "max3sat":
            instance = random_max3sat(gen_rng, spec.num_vars, spec.num_clauses)
        else:
            instance = random_max_bisection(gen_rng, spec.num_vertices, spec.edge_prob)
        if cost_summary(instance).degenerate:
            continue
        estimate = estimate_seed_pogs(
            instance,
            spec.ratio_threshold,
            spec.rounding_trials,
            np.random.default_rng(round_seq),
            SdpConfig(rng_seed=int(sdp_seq.generate_state(1)[0])),
        )
        if estimate < spec.pogs_cutoff:
            accepted.append(instance)
            stats.pogs_estimates.append(estimate)
    return accepted, stats


# ---------------------------------------------------------------------------
# Full pipeline


def default_repetitions(problem: str) -> int:
    return 10 if problem == "max3sat" else 5


def default_seed_trials(problem: str, rounding_trials: int) -> int:
    """How many roundings compete to seed the walk.

    Max 3SAT uses a single classical run per pipeline run (the baseline it is
    compared against is the k-repeated classical algorithm). Max Bisection at
    desk scale needs the strong best-of-batch seed: its near-optimal threshold
    is unreachable from the neighborhood of a mediocre seed.
    """
    return 1 if problem == "max3sat" else rounding_trials


@dataclass(frozen=True)
class PipelineConfig:
    """Settings for one end-to-end run on one instance.

    `rounding_trials` sizes the empirical POGS estimate of the classical
    algorithm; `seed_trials` is how many of those roundings compete to become
    the walk seed (None: problem-dependent default, see default_seed_trials).
    `adam.rng_seed` and `sdp.rng_seed` are replaced by seeds derived from `rng_seed`.
    """

    alpha: float = CvarConfig.alpha
    trotter_steps: int = CircuitConfig.trotter_steps
    num_bins: int = 1000
    rounding_trials: int = 10000
    seed_trials: Optional[int] = None
    adam: AdamConfig = AdamConfig()
    sdp: SdpConfig = SdpConfig()
    rng_seed: int = 0

    def __post_init__(self):
        CvarConfig(alpha=self.alpha)
        CircuitConfig(trotter_steps=self.trotter_steps)
        if self.num_bins < 1 or self.rounding_trials < 1:
            raise ValueError("num_bins and rounding_trials must be >= 1")
        if self.seed_trials is not None and not 1 <= self.seed_trials <= self.rounding_trials:
            raise ValueError("seed_trials must be in [1, rounding_trials]")


def _classical_seed(
    instance: ProblemInstance, config: PipelineConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The pipeline's seed step, seeded by the first two children of SeedSequence(rng_seed):
    the classical batch, and the index of the walk seed, its best of seed_trials roundings."""
    sdp_seq, round_seq = np.random.SeedSequence(config.rng_seed).spawn(2)
    assignments, costs, ratios = classical_batch(
        instance,
        replace(config.sdp, rng_seed=int(sdp_seq.generate_state(1)[0])),
        np.random.default_rng(round_seq),
        config.rounding_trials,
    )
    seed_trials = config.seed_trials or default_seed_trials(instance.kind, config.rounding_trials)
    return assignments, costs, ratios, int(np.argmin(costs[:seed_trials]))


def _algorithm_order(problem: str, depth: int) -> list[str]:
    """Row order of results.csv: the classical seed algorithm, the bare walk, the two ansatzes."""
    return ["kz" if problem == "max3sat" else "fl", "cbqoa_0", f"cbqoa_{depth}", f"gm_qaoa_{depth}"]


@dataclass
class RunRecord:
    """One benchmark run: seed, tuned parameters, and POGS per algorithm."""

    instance_id: str
    problem: str
    depth: int
    seed_bits: str
    seed_cost: float
    seed_beta: float
    walk_time: float
    walk_sharpness: float
    betas: tuple[float, ...]
    gammas: tuple[float, ...]
    gm_betas: tuple[float, ...]
    gm_gammas: tuple[float, ...]
    pogs: dict[str, dict[str, float]]  # algorithm -> {threshold: value}
    wall_time_s: float

    @property
    def pogs_boosted(self) -> dict[str, dict[str, float]]:
        """POGS of the best of default_repetitions(problem) runs, per entry of pogs."""
        k = default_repetitions(self.problem)
        return {a: {x: pogs_repeated(p, k) for x, p in per.items()} for a, per in self.pogs.items()}

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Inverse of to_dict, also after a JSON round trip, which turns tuples into lists."""
        return cls(*(tuple(v) if isinstance(v := data[f.name], list) else v for f in fields(cls)))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))


def _threshold_key(x: float) -> str:
    return f"{x:g}"


def run_pipeline(
    instance: ProblemInstance, depth: int, config: PipelineConfig = PipelineConfig()
) -> RunRecord:
    """The record of run_depths at one depth."""
    return run_depths(instance, (depth,), config)[0]


def run_depths(
    instance: ProblemInstance, depths: Sequence[int], config: PipelineConfig = PipelineConfig()
) -> list[RunRecord]:
    """Seed, tune the walk, tune the layers at each depth, and score every algorithm exactly.

    Only the layers depend on the depth, so the seed step, the walk and the
    uniform state are made once, and each record equals a run at its depth
    alone but for `wall_time_s`: the time of those shared stages plus that
    depth's layers and scoring. Records come back in the order of `depths`.
    Each records POGS for the classical seed algorithm (empirical over the
    rounding batch), the bare walk state, the depth-p ansatz, and the
    uniform-start baseline at the same depth, at every configured threshold.
    A seed whose cost equals the feasible optimum skips walk and cbqoa layer
    tuning and keeps the walk (0, 0) and all-zero layers: its point mass
    already has the least CVaR, so the tuners would return exactly those. A
    ValueError (no depth or a negative one, invalid settings, degenerate or
    oversized instance) is re-raised as its own class, any other failure as
    RuntimeError; both name the instance.
    """
    iid = instance_id(instance)
    try:
        if not depths or min(depths) < 0:
            raise ValueError(f"depths must be one or more values >= 0, got {list(depths)}")
        start = time.perf_counter()
        thresholds = default_thresholds(instance.kind)
        summary = cost_summary(instance)
        beta_table = beta_values(instance)
        circuit_cfg = CircuitConfig(trotter_steps=config.trotter_steps)
        cvar_cfg = CvarConfig(alpha=config.alpha)

        def score(state: np.ndarray) -> dict[str, float]:
            probs = np.abs(state) ** 2
            return {_threshold_key(x): float(probs[_good(beta_table, x)].sum()) for x in thresholds}

        def adam(seq: np.random.SeedSequence) -> AdamConfig:
            return replace(config.adam, rng_seed=int(seq.generate_state(1)[0]))

        assignments, costs, ratios, best_trial = _classical_seed(instance, config)
        walk_seq, ansatz_seq, gm_seq = np.random.SeedSequence(config.rng_seed).spawn(5)[2:]
        seed_bits = assignments[best_trial]
        seed_algorithm = _algorithm_order(instance.kind, 0)[0]
        shared_pogs = {
            seed_algorithm: {_threshold_key(x): float(_good(ratios, x).mean()) for x in thresholds}
        }

        # At an optimal seed both tuners can only return their all-zero first restart.
        seed_optimal = float(costs[best_trial]) == summary.optimum_value

        # Walk tuning and the bare walk state.
        family = build_family(instance, seed_bits)
        walk_time, walk_sharpness = 0.0, 0.0
        if not seed_optimal:
            walk_time, walk_sharpness, _ = tune_walk_params(
                instance, family, cvar_cfg, adam(walk_seq), circuit_cfg
            )
        psi = cbqoa_initial_state(family, WalkParams(walk_time, walk_sharpness), circuit_cfg)
        shared_pogs["cbqoa_0"] = score(psi)
        uniform = uniform_feasible_state(instance)
        shared_s = time.perf_counter() - start

        records = []
        for depth in depths:
            depth_start = time.perf_counter()
            pogs = {algorithm: dict(per) for algorithm, per in shared_pogs.items()}
            # The walk state and the uniform state, each under p tuned layers. At
            # depth 0 the first pass rewrites cbqoa_0 with the same value.
            layers = {}
            for label, initial, seq in (("cbqoa", psi, ansatz_seq), ("gm_qaoa", uniform, gm_seq)):
                params = AnsatzParams.zeros(depth)
                if depth >= 1 and not (label == "cbqoa" and seed_optimal):
                    betas, gammas, _ = tune_ansatz_params(
                        instance, initial, depth, cvar_cfg, adam(seq), num_bins=config.num_bins
                    )
                    params = AnsatzParams(betas=betas, gammas=gammas)
                layers[label] = params
                pogs[f"{label}_{depth}"] = score(_apply_layers(initial, summary.diagonal, params))

            records.append(RunRecord(
                instance_id=iid,
                problem=instance.kind,
                depth=depth,
                seed_bits=bits_to_str(seed_bits),
                seed_cost=float(costs[best_trial]),
                seed_beta=float(ratios[best_trial]),
                walk_time=walk_time,
                walk_sharpness=walk_sharpness,
                betas=layers["cbqoa"].betas,
                gammas=layers["cbqoa"].gammas,
                gm_betas=layers["gm_qaoa"].betas,
                gm_gammas=layers["gm_qaoa"].gammas,
                pogs=pogs,
                wall_time_s=shared_s + time.perf_counter() - depth_start,
            ))
        return records
    except ValueError as exc:
        raise type(exc)(f"pipeline failed for instance {iid}: {exc}") from exc
    except Exception as exc:
        raise RuntimeError(f"pipeline failed for instance {iid}: {exc}") from exc


# ---------------------------------------------------------------------------
# Export

RESULTS_COLUMNS = ["instance_id", "problem", "depth", "algorithm", "threshold", "pogs"]


def export_results(records: list[RunRecord], out_dir, manifest_extra: dict | None = None) -> dict:
    """Write results.csv (one row per instance/algorithm/threshold) and manifest.json.

    Rows are sorted by (instance_id, depth) with algorithms in _algorithm_order;
    the manifest carries the full records so an export can be re-imported
    losslessly.
    """
    if not records:
        raise ValueError("no records to export")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: (r.instance_id, r.depth))
    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(RESULTS_COLUMNS)
    for record in ordered:
        for algorithm in dict.fromkeys(_algorithm_order(record.problem, record.depth)):
            for key, value in record.pogs[algorithm].items():
                writer.writerow(
                    [record.instance_id, record.problem, record.depth, algorithm, key, repr(value)]
                )
    paths = {"csv": out / "results.csv", "manifest": out / "manifest.json"}
    _write_atomic(paths["csv"], rows.getvalue())
    manifest = {
        "format_version": 1,
        "columns": RESULTS_COLUMNS,
        "records": [r.to_dict() for r in ordered],
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    _write_atomic(paths["manifest"], json.dumps(manifest, sort_keys=True, indent=1))
    return paths


def import_results(out_dir) -> list[RunRecord]:
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text(encoding="utf-8"))
    return [RunRecord.from_dict(d) for d in manifest["records"]]
