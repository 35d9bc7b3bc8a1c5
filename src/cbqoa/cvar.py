"""Lower-tail cost objective and gradient-based parameter tuning.

The tuning objective is the mean of the lower alpha-tail of the simulated cost
distribution (the conditional value at risk of the cost, minimized). ADAM runs
every random restart in lockstep over a (restarts, params) array, with one
(value, gradient) call per step on the restarts that moved (a stationary start
is evaluated once), and returns the best point ever evaluated, so the result is
never worse than any restart's initialization. For a fixed order of the costs
the CVaR is piecewise linear in the probabilities, so a tuner can back-propagate
its exact gradient: the layer tuner through the binned layer recursion, the
hypercube walk tuner through the walk's real product state, point by point. The
transposition walk tuner takes central differences from one batched
product-formula sweep per step in the seed's Hamming-weight sector. Each point's
arithmetic is that of a one-point run, so no result depends on the batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fast_sim import _evolve_rows, _evolve_rows_adjoint, bin_costs, eta_from_state
from .fast_sim import evolve_binned  # noqa: F401 -- the traced benchmark run wraps it by this name
from .mixer import PermutationFamily
from .problems import ProblemInstance, as_bits, cost_summary, is_feasible
from .simulate import (
    CircuitConfig,
    _hypercube_adjoint,
    _hypercube_product,
    cbqoa_initial_state,  # noqa: F401 -- the traced benchmark run wraps it by this name
    ctqw_trotter_xy,
)


@dataclass(frozen=True)
class CvarConfig:
    """Confidence level of the lower tail; alpha = 1 gives the plain mean."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")


# ADAM step size, moment decay rates, denominator guard, and central-difference step.
LEARNING_RATE = 0.05
BETA1 = 0.9
BETA2 = 0.999
EPS_STABILITY = 1e-8
FD_STEP = 1e-4


@dataclass(frozen=True)
class AdamConfig:
    iterations: int = 200
    restarts: int = 4
    rng_seed: int = 0

    def __post_init__(self):
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
    CvarConfig(alpha=alpha)
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
    return _cvar_boundary(values[order], probs[order], alpha)[0]


# Sorted probabilities are read this many at a time, up to the alpha boundary.
_CVAR_CHUNK = 4096


def _cvar_boundary(
    values: np.ndarray, probs: np.ndarray, alpha: float, order: np.ndarray | None = None
) -> tuple[float, int]:
    """(CVaR, alpha boundary j) for values sorted ascending, probs in their order (or
    probs[order] so). Only the prefix up to j is read: the running mass is a sequential
    cumsum taken one chunk at a time, summed as a full-length one, and np.dot runs on
    the contiguous prefix read (on a strided view BLAS may sum in another order)."""
    target = alpha - 1e-12
    chunks, before = [], 0.0  # before: the mass of every chunk already read
    for start in range(0, probs.size, _CVAR_CHUNK):
        stop = min(start + _CVAR_CHUNK, probs.size)
        chunk = probs[start:stop] if order is None else probs[order[start:stop]]
        chunks.append(np.ascontiguousarray(chunk))
        cum = chunks[-1].copy()
        cum[0] += before  # the carry joins the sequential sum in its place
        np.cumsum(cum, out=cum)
        k = int(np.searchsorted(cum, target))
        if k < cum.size or stop == probs.size:
            j = min(start + k, probs.size - 1)
            k = j - start
            before = float(cum[k - 1]) if k > 0 else before
            break
        before = float(cum[-1])
    head = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    below = float(np.dot(head[:j], values[:j]))
    return (below + (alpha - before) * float(values[j])) / alpha, j


# ---------------------------------------------------------------------------
# ADAM on (value, gradient) calls, all restarts in lockstep

# Maps (rows, dim) points to their values and their (rows, dim) gradients.
ValueAndGrad = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _improves(candidate, incumbent):
    """Strict improvement beyond float noise; ties keep the incumbent point."""
    return candidate < incumbent - 1e-9 * np.maximum(1.0, np.abs(incumbent))


def _central_differences(objective: Callable[[np.ndarray], np.ndarray]) -> ValueAndGrad:
    """Values and central differences from one batch objective call on the points,
    then each coordinate's +h and -h probes."""

    def value_and_grad(points: np.ndarray):
        rows, dim = points.shape
        probes = np.repeat(points[None], 2 * dim, axis=0)
        for i in range(dim):
            probes[2 * i, :, i] += FD_STEP
            probes[2 * i + 1, :, i] -= FD_STEP
        evaluated = objective(np.concatenate([points, *probes]))
        up, down = evaluated[rows:].reshape(dim, 2, rows).transpose(1, 2, 0)
        return evaluated[:rows], (up - down) / (2 * FD_STEP)

    return value_and_grad


def _adam_lockstep(
    value_and_grad: ValueAndGrad, inits: np.ndarray, cfg: AdamConfig
) -> tuple[np.ndarray, float, list[tuple[int, int, float]]]:
    """Run ADAM from every row of inits at once; keep the best point seen.

    Each step makes one (value, gradient) call on the restarts whose point's float64
    bits changed since their last call (0.0 to -0.0 counts), and none if no point did;
    the last step's gradients go unused. A restart that did not move, such as a
    stationary all-zero start, keeps its value and gradient. Per restart, the arithmetic
    is a sequential run's. Returns the best point of all restarts (an earlier one wins
    ties), its value, and the (restart, iteration, value) trace in restart-major order.
    """
    params = np.array(inits, dtype=np.float64)
    restarts = len(params)
    m, v, grad = np.zeros((3, *params.shape))
    value, moved = np.empty(restarts), np.ones(restarts, dtype=bool)
    values = np.empty((cfg.iterations + 1, restarts))
    best_params = params.copy()
    for t in range(cfg.iterations + 1):
        if moved.any():
            value[moved], grad[moved] = value_and_grad(params[moved])
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
        if not np.isfinite(grad).all():
            raise RuntimeError(f"non-finite gradient at iteration {t + 1}, params {params}")
        m = BETA1 * m + (1 - BETA1) * grad
        v = BETA2 * v + (1 - BETA2) * grad * grad
        m_hat = m / (1 - BETA1 ** (t + 1))
        v_hat = v / (1 - BETA2 ** (t + 1))
        step = params - LEARNING_RATE * m_hat / (np.sqrt(v_hat) + EPS_STABILITY)
        moved = (step.view(np.int64) != params.view(np.int64)).any(axis=1)
        params = step
    winner = 0
    for r in range(1, restarts):
        if _improves(best_values[r], best_values[winner]):
            winner = r
    trace = [(r, it, val) for r, row in enumerate(values.T.tolist()) for it, val in enumerate(row)]
    return best_params[winner], float(best_values[winner]), trace


# ---------------------------------------------------------------------------
# Walk-parameter and ansatz-parameter tuning


def _hypercube_objective(
    family: PermutationFamily, costs: np.ndarray, alpha: float
) -> ValueAndGrad:
    """CVaR of the squared hypercube walk product at (time, sharpness) rows, and its exact
    gradient: per row, one forward product on the tape and one adjoint pass back through
    it. The two 2^(n+1) buffers are reused by every row."""
    bits = as_bits(family.seed)
    order = np.argsort(costs, kind="stable")
    sorted_costs = costs[order]
    gains = np.asarray(family.cost_gains, dtype=np.float64)
    tape, adj = np.empty(2 * order.size), np.empty(2 * order.size)

    def value_and_grad(points: np.ndarray):
        values = np.empty(len(points))
        grads = np.empty_like(points)
        for k, (time, sharpness) in enumerate(points):
            weights = family.weights(sharpness)
            product = _hypercube_product(bits, weights, time, tape)
            lam = np.square(product, out=adj[order.size :])  # the probabilities, until lam
            values[k], j = _cvar_boundary(sorted_costs, lam, alpha, order)
            # dF/dR = 2 g R with g_k = (c_k - c_j) / alpha below the boundary j and 0 from
            # j on. In index order that g is min(c - c_j, 0) / alpha: the costs below j
            # are <= c_j, those from j on >= c_j. The factor 2 / alpha is applied to da.
            np.subtract(costs, sorted_costs[j], out=lam)
            np.minimum(lam, 0.0, out=lam)
            np.multiply(lam, product, out=lam)
            da = _hypercube_adjoint(bits, weights, time, tape, adj) * (2 / alpha)
            # a_q = w_q t, and dw_q/ds = gain_q w_q (1 - w_q).
            grads[k] = weights @ da, time * ((gains * weights * (1 - weights)) @ da)
        return values, grads

    return value_and_grad


def _xy_objective(family: PermutationFamily, costs: np.ndarray, alpha: float, steps: int):
    """CVaR of the XY product-formula walk at (time, sharpness) rows, and its central
    differences: one batched sweep over the rows and their probes per call."""
    order = np.argsort(costs, kind="stable")
    sorted_costs = costs[order]

    def objective(points: np.ndarray) -> np.ndarray:
        rows, amps = ctqw_trotter_xy(family, points[:, 0], points[:, 1], steps)
        # One full-length distribution per row, zero off the sector and read in
        # cost order, so _cvar_boundary sums exactly what a full-space evaluation sums.
        probs = np.zeros((len(points), order.size))
        probs[:, rows] = np.square(amps).T
        return np.array([_cvar_boundary(sorted_costs, row, alpha, order)[0] for row in probs])

    return _central_differences(objective)


def tune_walk_params(
    instance: ProblemInstance,
    family: PermutationFamily,
    cvar_cfg: CvarConfig = CvarConfig(),
    adam_cfg: AdamConfig = AdamConfig(),
    circuit_cfg: CircuitConfig = CircuitConfig(),
) -> tuple[float, float, list[tuple[int, int, float]]]:
    """Tune the walk's (time, sharpness) against the lower-tail cost of its output.

    The walk starts at the family's seed. The first restart starts at (0, 0) --
    the point mass at the seed, a stationary point evaluated once -- so the tuned
    objective never exceeds the seed's own tail cost. A hypercube walk's gradient is
    exact (_hypercube_objective); a transposition walk's is central differences
    (_xy_objective).
    """
    if not is_feasible(instance, family.seed):
        raise ValueError("walk seed must be feasible")
    diagonal, alpha = cost_summary(instance).diagonal, cvar_cfg.alpha
    if family.kind == "transposition":
        value_and_grad = _xy_objective(family, diagonal, alpha, circuit_cfg.trotter_steps)
    else:
        value_and_grad = _hypercube_objective(family, diagonal, alpha)
    rng = np.random.default_rng(adam_cfg.rng_seed)
    draws = [(rng.uniform(0, np.pi), rng.uniform(-2, 2)) for _ in range(adam_cfg.restarts - 1)]
    best, _, trace = _adam_lockstep(value_and_grad, np.array([(0.0, 0.0), *draws]), adam_cfg)
    return float(best[0]), float(best[1]), trace


def _layer_objective(base: np.ndarray, costs: np.ndarray, depth: int, alpha: float):
    """CVaR of the binned output of (betas, gammas) rows and its exact gradient: one
    forward pass, and one adjoint pass of the CVaR's gradient over the probabilities."""

    def value_and_grad(points: np.ndarray):
        coeffs, tape = _evolve_rows(base, costs, points[:, :depth], points[:, depth:])
        probs = np.abs(coeffs) ** 2
        values = np.empty(len(points))
        lam = np.zeros_like(coeffs)
        for k, (row, x) in enumerate(zip(probs, coeffs)):
            values[k], j = _cvar_boundary(costs, row, alpha)
            # lam = 2 g x, g_k = (c_k - c_j) / alpha below the boundary bin j, 0 from j on.
            lam[k, :j] = 2 * (costs[:j] - costs[j]) / alpha * x[:j]
        return values, np.hstack(_evolve_rows_adjoint(base, costs, tape, lam))

    return value_and_grad


def tune_ansatz_params(
    instance: ProblemInstance,
    psi: np.ndarray,
    depth: int,
    cvar_cfg: CvarConfig = CvarConfig(),
    adam_cfg: AdamConfig = AdamConfig(),
    *,
    num_bins: int,
) -> tuple[tuple[float, ...], tuple[float, ...], list[tuple[int, int, float]]]:
    """Tune p layers of (beta, gamma) on top of a fixed initial state psi.

    The objective is the binned CVaR on at most num_bins bins (exact if the distinct
    costs fit), with its exact gradient. The all-zero first restart bounds it by psi's.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    summary = cost_summary(instance)
    binning = bin_costs(summary.diagonal, summary.feasible, num_bins)
    base = eta_from_state(psi, binning)
    value_and_grad = _layer_objective(base, binning.bin_costs, depth, cvar_cfg.alpha)
    rng = np.random.default_rng(adam_cfg.rng_seed)
    draws = [rng.uniform(-np.pi, np.pi, 2 * depth) for _ in range(adam_cfg.restarts - 1)]
    best, _, trace = _adam_lockstep(value_and_grad, np.array([[0.0] * 2 * depth, *draws]), adam_cfg)
    return tuple(best[:depth]), tuple(best[depth:]), trace
