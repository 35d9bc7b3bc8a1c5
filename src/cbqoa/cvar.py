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
seed's Hamming-weight sector. Hypercube walks are evaluated point by point as
the squared real product of their per-qubit factors, in two buffers reused
for the whole tuning. The CVaR reads the sorted probabilities only up to the
alpha boundary. Every point's arithmetic is that of a one-point, one-restart
run, so the tuned parameters and traces do not depend on the batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fast_sim import bin_costs, eta_from_state, evolve_binned
from .mixer import PermutationFamily
from .problems import ProblemInstance, as_bits, cost_summary, feasible_indices, is_feasible
from .simulate import (
    AnsatzParams,
    CircuitConfig,
    _hypercube_product,
    cbqoa_initial_state,  # noqa: F401 -- the traced benchmark run wraps it by this name
    trotter_xy_sector_batch,
)


@dataclass(frozen=True)
class CvarConfig:
    """Confidence level of the lower tail; alpha = 1 gives the plain mean."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")


# ADAM moment decay rates, denominator guard, and central-difference step.
BETA1 = 0.9
BETA2 = 0.999
EPS_STABILITY = 1e-8
FD_STEP = 1e-4


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 0.05
    iterations: int = 200
    restarts: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


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
    if not (np.isfinite(values).all() and np.isfinite(probs).all()):
        raise ValueError("values and probabilities must be finite")
    if (probs < -1e-12).any():
        raise ValueError("probabilities must be nonnegative")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    order = np.argsort(values, kind="stable")
    return _cvar_sorted(values[order], probs[order], alpha)


# Sorted probabilities are read this many at a time, up to the alpha boundary.
_CVAR_CHUNK = 4096


def _cvar_sorted(
    values: np.ndarray, probs: np.ndarray, alpha: float, order: np.ndarray | None = None
) -> float:
    """CVaR for values already sorted ascending (fast path for simulators).

    probs is in the order of values, or, if order is given, probs[order] is.
    The running mass is a sequential cumsum, taken one chunk at a time and
    stopped at the alpha boundary, so only the tail in use is gathered; the
    entries read are summed exactly as a full-length cumsum and one np.dot on
    a contiguous copy would sum them. (np.dot on a strided view takes another
    BLAS path whose sum can differ in the last bits.)
    """
    target = alpha - 1e-12
    chunks, before = [], 0.0  # before: the mass of every chunk already read
    for start in range(0, values.size, _CVAR_CHUNK):
        stop = min(start + _CVAR_CHUNK, values.size)
        chunk = probs[start:stop] if order is None else probs[order[start:stop]]
        chunks.append(np.ascontiguousarray(chunk))
        cum = chunks[-1].copy()
        cum[0] += before  # the carry joins the sequential sum in its place
        np.cumsum(cum, out=cum)
        k = int(np.searchsorted(cum, target))
        if k < cum.size or stop == values.size:
            j = min(start + k, values.size - 1)
            k = j - start
            before = float(cum[k - 1]) if k > 0 else before
            break
        before = float(cum[-1])
    head = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    below = float(np.dot(head[:j], values[:j]))
    boundary = alpha - before
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
    h = FD_STEP
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
        m = BETA1 * m + (1 - BETA1) * grad
        v = BETA2 * v + (1 - BETA2) * grad * grad
        m_hat = m / (1 - BETA1 ** (t + 1))
        v_hat = v / (1 - BETA2 ** (t + 1))
        params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + EPS_STABILITY)
    winner = 0
    for r in range(1, restarts):
        if _improves(best_values[r], best_values[winner]):
            winner = r
    trace = [(r, it, val) for r, row in enumerate(values.T.tolist()) for it, val in enumerate(row)]
    return best_params[winner], float(best_values[winner]), trace


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
    sector. A hypercube walk's probabilities are, point by point, the squared
    real product of its qubit factors, which equals |amplitude|^2 bit for bit;
    the CVaR gathers them in cost order only up to the alpha boundary.
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
        buffers = np.empty(order.size), np.empty(order.size)

        def objective(points: np.ndarray) -> np.ndarray:
            values = np.empty(len(points))
            for k, (time, sharpness) in enumerate(points):
                probs = _hypercube_product(bits, family.weights(sharpness), time, *buffers)
                np.square(probs, out=probs)
                values[k] = _cvar_sorted(sorted_costs, probs, alpha, order)
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
    num_bins: int = 1000,
) -> tuple[tuple[float, ...], tuple[float, ...], list[tuple[int, int, float]]]:
    """Tune p layers of (beta, gamma) on top of a fixed initial state psi.

    The all-zero layer parameters are the first restart, so the tuned tail cost
    never exceeds that of psi itself. The objective runs on the binned
    simulator's bin coefficients.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    summary = cost_summary(instance)
    binning = bin_costs(summary.diagonal, feasible_indices(instance), num_bins)
    base = eta_from_state(psi, binning)

    def objective(x: np.ndarray) -> float:
        params = AnsatzParams(betas=tuple(x[:depth]), gammas=tuple(x[depth:]))
        probs = np.abs(evolve_binned(base, binning, params)) ** 2
        return _cvar_sorted(binning.bin_costs, probs, cvar_cfg.alpha)

    rng = np.random.default_rng(adam_cfg.rng_seed)
    inits = [np.zeros(2 * depth)]
    for _ in range(adam_cfg.restarts - 1):
        inits.append(rng.uniform(-np.pi, np.pi, size=2 * depth))
    best, _, trace = _adam_lockstep(_rowwise(objective), np.array(inits), adam_cfg)
    return tuple(best[:depth]), tuple(best[depth:]), trace
