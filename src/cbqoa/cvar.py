"""Lower-tail cost objective and derivative-free parameter tuning.

The tuning objective is the mean of the lower alpha-tail of the simulated
cost distribution (the conditional value at risk of the cost, minimized).
Because the simulator is deterministic, gradients are taken by central finite
differences and fed to a standard ADAM loop with random restarts; the best
point ever evaluated is returned, so the result can never be worse than any
restart's initialization.

The restarts run in lockstep over a (restarts, params) array. Each step makes
one batched objective call on every restart's current point plus its
central-difference probes. The walk objective evaluates a batch of
transposition-family walks as one product-formula sweep restricted to the
seed's Hamming-weight sector, and hypercube walks one product state at a
time. Every point's arithmetic is that of a one-point, one-restart run, so
the tuned parameters and traces do not depend on the batching.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .fast_sim import bin_costs, eta_from_state, evolve_binned
from .mixer import PermutationFamily
from .problems import ProblemInstance, as_bits, cost_summary, feasible_indices, is_feasible
from .simulate import (
    AnsatzParams,
    CircuitConfig,
    _apply_layers,
    cbqoa_initial_state,  # noqa: F401 -- the traced benchmark run wraps it by this name
    hypercube_walk_state,
    trotter_xy_sector_batch,
)


@dataclass(frozen=True)
class CvarConfig:
    """Confidence level of the lower tail; alpha = 1 gives the plain mean."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 0.05
    iterations: int = 200
    beta1: float = 0.9
    beta2: float = 0.999
    eps_stability: float = 1e-8
    fd_step: float = 1e-4
    restarts: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class OptResult:
    """Best point seen during one optimization run, with its evaluation trace."""

    best_params: np.ndarray
    best_value: float
    trace: list[tuple[int, float]] = field(default_factory=list)


def write_trace_csv(trace: Iterable[tuple], path) -> None:
    """Write an optimizer trace as CSV rows of (restart, iteration, cvar)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        rows = list(trace)
        if rows and len(rows[0]) == 2:
            writer.writerow(["iteration", "cvar"])
        else:
            writer.writerow(["restart", "iteration", "cvar"])
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# CVaR


def cvar_discrete(pairs: Sequence[tuple[float, float]], alpha: float) -> float:
    """Mean of the lower alpha-tail of a discrete distribution.

    Values are sorted ascending; probability mass is consumed up to alpha with
    a fractional weight on the boundary value. alpha = 1 recovers the mean.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if len(pairs) == 0:
        raise ValueError("distribution must be non-empty")
    values = np.array([v for v, _ in pairs], dtype=np.float64)
    probs = np.array([p for _, p in pairs], dtype=np.float64)
    if (probs < -1e-12).any():
        raise ValueError("probabilities must be nonnegative")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    order = np.argsort(values, kind="stable")
    return _cvar_sorted(values[order], probs[order], alpha)


def _cvar_sorted(values: np.ndarray, probs: np.ndarray, alpha: float) -> float:
    """CVaR for values already sorted ascending (fast path for simulators).

    probs is made contiguous first: np.dot on a strided view takes another
    BLAS path whose sum can differ in the last bits.
    """
    probs = np.ascontiguousarray(probs)
    cum = np.cumsum(probs)
    j = int(np.searchsorted(cum, alpha - 1e-12))
    j = min(j, values.size - 1)
    below = float(np.dot(probs[:j], values[:j]))
    boundary = alpha - (float(cum[j - 1]) if j > 0 else 0.0)
    return (below + boundary * float(values[j])) / alpha


# ---------------------------------------------------------------------------
# ADAM with finite-difference gradients, all restarts in lockstep

# Maps a (rows, dim) array of points to their (rows,) objective values.
BatchObjective = Callable[[np.ndarray], np.ndarray]


def _improves(candidate, incumbent):
    """Strict improvement beyond float noise; ties keep the incumbent point."""
    return candidate < incumbent - 1e-9 * np.maximum(1.0, np.abs(incumbent))


def _rowwise(objective: Callable[[np.ndarray], float]) -> BatchObjective:
    """Batch objective that calls a point objective once per row."""
    return lambda points: np.array([objective(x) for x in points], dtype=np.float64)


def _adam_lockstep(
    objective: BatchObjective, inits: np.ndarray, cfg: AdamConfig
) -> tuple[np.ndarray, float, list[tuple[int, int, float]]]:
    """Run ADAM from every row of inits at once; keep the best point seen.

    Each step makes one objective call on (1 + 2*dim) * restarts rows: every
    restart's current point, then its central-difference probes; the last step
    evaluates the final points alone. The arithmetic per restart is that of a
    sequential run. Returns the best point over all restarts (an earlier
    restart wins ties), its value, and the (restart, iteration, value) trace in
    restart-major order.
    """
    params = np.array(inits, dtype=np.float64)
    restarts, dim = params.shape
    h = cfg.fd_step
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    values = np.empty((cfg.iterations + 1, restarts))
    best_params = params.copy()
    for t in range(cfg.iterations + 1):
        probes = []
        if t < cfg.iterations:
            for i in range(dim):
                for shift in (h, -h):
                    probe = params.copy()
                    probe[:, i] = params[:, i] + shift
                    probes.append(probe)
        evaluated = objective(np.concatenate([params, *probes]))
        value = evaluated[:restarts]
        if not np.isfinite(value).all():
            raise RuntimeError(f"objective not finite at iteration {t}, params {params}")
        values[t] = value
        if t == 0:
            best_values = value.copy()
        else:
            better = _improves(value, best_values)
            best_values = np.where(better, value, best_values)
            best_params[better] = params[better]
        if t == cfg.iterations:
            break
        up, down = evaluated[restarts:].reshape(dim, 2, restarts).transpose(1, 2, 0)
        grad = (up - down) / (2 * h)
        if not np.isfinite(grad).all():
            raise RuntimeError(f"non-finite gradient at iteration {t + 1}, params {params}")
        m = cfg.beta1 * m + (1 - cfg.beta1) * grad
        v = cfg.beta2 * v + (1 - cfg.beta2) * grad * grad
        m_hat = m / (1 - cfg.beta1 ** (t + 1))
        v_hat = v / (1 - cfg.beta2 ** (t + 1))
        params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps_stability)
    winner = 0
    for r in range(1, restarts):
        if _improves(best_values[r], best_values[winner]):
            winner = r
    trace = [(r, it, val) for r, row in enumerate(values.T.tolist()) for it, val in enumerate(row)]
    return best_params[winner], float(best_values[winner]), trace


def adam_minimize(objective: Callable[[np.ndarray], float], init, cfg: AdamConfig) -> OptResult:
    """Minimize a deterministic black-box objective; returns the best point seen."""
    init = np.asarray(init, dtype=np.float64)
    params, value, trace = _adam_lockstep(_rowwise(objective), init[None, :], cfg)
    return OptResult(
        best_params=params, best_value=value, trace=[(it, val) for _, it, val in trace]
    )


# ---------------------------------------------------------------------------
# Walk-parameter and ansatz-parameter tuning


def tune_walk_params(
    instance: ProblemInstance,
    z,
    family: PermutationFamily,
    cvar_cfg: CvarConfig = CvarConfig(),
    adam_cfg: AdamConfig = AdamConfig(),
    circuit_cfg: CircuitConfig = CircuitConfig(),
) -> tuple[float, float, list[tuple[int, int, float]]]:
    """Tune the walk's (time, sharpness) against the lower-tail cost of its output.

    The first restart starts at (0, 0) -- the point mass at the seed -- so the
    tuned objective never exceeds the seed's own tail cost. A transposition
    family's batch is one product-formula sweep over the seed's Hamming-weight
    sector; a hypercube walk is built one product state per point.
    """
    bits = as_bits(z, instance.n)
    if not is_feasible(instance, bits):
        raise ValueError("walk seed must be feasible")
    summary = cost_summary(instance)
    order = np.argsort(summary.diagonal, kind="stable")
    sorted_costs = summary.diagonal[order]
    alpha = cvar_cfg.alpha

    if family.kind == "transposition":
        if family.seed != tuple(int(b) for b in bits):
            raise ValueError("walk seed must be the family's seed")
        rank = np.argsort(order)

        def objective(points: np.ndarray) -> np.ndarray:
            rows, amps = trotter_xy_sector_batch(
                family, points[:, 0], points[:, 1], circuit_cfg.trotter_steps
            )
            # One full-length sorted distribution per row, zero off the sector,
            # so _cvar_sorted sums exactly what a full-space evaluation sums.
            probs = np.zeros((len(points), order.size))
            probs[:, rank[rows]] = (np.abs(amps) ** 2).T
            return np.array([_cvar_sorted(sorted_costs, row, alpha) for row in probs])

    else:

        def objective(points: np.ndarray) -> np.ndarray:
            values = np.empty(len(points))
            for k, (time, sharpness) in enumerate(points):
                state = hypercube_walk_state(bits, family.weights(sharpness), time)
                values[k] = _cvar_sorted(sorted_costs, (np.abs(state) ** 2)[order], alpha)
            return values

    rng = np.random.default_rng(adam_cfg.rng_seed)
    inits = [np.zeros(2)]
    for _ in range(adam_cfg.restarts - 1):
        inits.append(np.array([rng.uniform(0, np.pi), rng.uniform(-2, 2)]))
    best, _, trace = _adam_lockstep(objective, np.array(inits), adam_cfg)
    return float(best[0]), float(best[1]), trace


def tune_ansatz_params(
    instance: ProblemInstance,
    psi: np.ndarray,
    depth: int,
    cvar_cfg: CvarConfig = CvarConfig(),
    adam_cfg: AdamConfig = AdamConfig(),
    backend: str = "fast_binned",
    num_bins: int = 1000,
) -> tuple[tuple[float, ...], tuple[float, ...], list[tuple[int, int, float]]]:
    """Tune p layers of (beta, gamma) on top of a fixed initial state psi.

    The all-zero layer parameters are the first restart, so the tuned tail cost
    never exceeds that of psi itself. The fast_binned backend runs the whole
    objective on bin coefficients; statevector simulates the layers densely.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if backend not in ("statevector", "fast_binned"):
        raise ValueError(f"unknown backend {backend!r}")
    summary = cost_summary(instance)
    feas = feasible_indices(instance)

    if backend == "fast_binned":
        binning = bin_costs(summary.diagonal, feas, num_bins)
        base = eta_from_state(psi, binning)

        def objective(x: np.ndarray) -> float:
            params = AnsatzParams(betas=tuple(x[:depth]), gammas=tuple(x[depth:]))
            evolved = evolve_binned(base, binning, params)
            probs = np.abs(evolved.coeffs) ** 2
            return _cvar_sorted(binning.bin_costs, probs, cvar_cfg.alpha)

    else:
        support_costs = summary.diagonal[feas]
        order = np.argsort(support_costs, kind="stable")
        sorted_costs = support_costs[order]
        sorted_feas = feas[order]

        def objective(x: np.ndarray) -> float:
            params = AnsatzParams(betas=tuple(x[:depth]), gammas=tuple(x[depth:]))
            state = _apply_layers(psi.copy(), psi, summary.diagonal, params)
            probs = np.abs(state[sorted_feas]) ** 2
            return _cvar_sorted(sorted_costs, probs, cvar_cfg.alpha)

    rng = np.random.default_rng(adam_cfg.rng_seed)
    inits = [np.zeros(2 * depth)]
    for _ in range(adam_cfg.restarts - 1):
        inits.append(rng.uniform(-np.pi, np.pi, size=2 * depth))
    best, _, trace = _adam_lockstep(_rowwise(objective), np.array(inits), adam_cfg)
    return tuple(best[:depth]), tuple(best[depth:]), trace
