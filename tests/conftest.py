"""Shared fixtures and oracle helpers for the test suite."""

from functools import reduce
from typing import Callable

import numpy as np
import pytest

from cbqoa import (
    AdamConfig,
    CircuitConfig,
    CvarConfig,
    Max3SatInstance,
    MaxBisectionInstance,
    PermutationFamily,
    WalkParams,
    cbqoa_initial_state,
)
from cbqoa.cvar import OptResult, _cvar_sorted
from cbqoa.problems import ProblemInstance, as_bits, cost_summary
from cbqoa.simulate import _xy_index_pairs


def dense_unitary(hermitian: np.ndarray, t: float) -> np.ndarray:
    """e^{iHt} for a real symmetric matrix, via eigendecomposition."""
    evals, evecs = np.linalg.eigh(hermitian)
    return (evecs * np.exp(1j * evals * t)) @ evecs.conj().T


def random_state(rng: np.random.Generator, size: int) -> np.ndarray:
    state = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return state / np.linalg.norm(state)


def random_feasible_state(rng: np.random.Generator, size: int, support: np.ndarray) -> np.ndarray:
    state = np.zeros(size, dtype=np.complex128)
    state[support] = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
    return state / np.linalg.norm(state)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def single_clause():
    return Max3SatInstance(num_vars=3, clauses=((1, 2, 3, 1.0),))


@pytest.fixture
def single_edge():
    return MaxBisectionInstance(num_vertices=2, edges=((1, 2, 1.0),))


def small_bisection(rng: np.random.Generator, n: int = 6, edge_prob: float = 0.6):
    edges = tuple(
        (a, b, float(rng.uniform(-1, 1)))
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if rng.random() < edge_prob
    )
    if not edges:
        edges = ((1, 2, 1.0),)
    return MaxBisectionInstance(num_vertices=n, edges=edges)


def small_3sat(rng: np.random.Generator, n: int = 6, num_clauses: int = 12):
    clauses = []
    for _ in range(num_clauses):
        variables = rng.choice(n, size=3, replace=False) + 1
        negate = rng.integers(0, 2, size=3)
        labels = [int(v + n) if neg else int(v) for v, neg in zip(variables, negate)]
        clauses.append((*labels, float(rng.uniform(0.1, 1.0))))
    return Max3SatInstance(num_vars=n, clauses=tuple(clauses))


# ---------------------------------------------------------------------------
# Sequential tuning oracle: one objective call per point, one ADAM run per
# restart. The lockstep tuner must reproduce these results exactly.


def oracle_walk_state(bits, family: PermutationFamily, walk: WalkParams, steps: int):
    """e^{iAt}|z> by a Kronecker product (hypercube) or a one-vector Trotter loop (XY)."""
    weights = family.weights(walk.sharpness)
    if family.kind == "bit_flip":
        factors = []
        for j, b in enumerate(bits):
            angle = weights[j] * walk.time
            amp0, amp1 = np.cos(angle), 1j * np.sin(angle)
            factors.append(
                np.array([amp0, amp1] if b == 0 else [amp1, amp0], dtype=np.complex128)
            )
        return reduce(np.kron, factors)
    out = np.zeros(1 << family.n, dtype=np.complex128)
    out[int("".join(str(int(b)) for b in bits), 2)] = 1.0
    angles = weights * (walk.time / (2.0 * steps))
    cos2 = np.cos(2 * angles)
    isin2 = 1j * np.sin(2 * angles)
    pairs = [_xy_index_pairs(family.n, *sorted(tau.indices)) for tau in family.permutations]
    for _ in range(steps):
        for idx, (i01, i10) in enumerate(pairs):
            x01 = out[i01]
            x10 = out[i10]
            out[i01] = cos2[idx] * x01 + isin2[idx] * x10
            out[i10] = cos2[idx] * x10 + isin2[idx] * x01
    return out


def _improves(candidate: float, incumbent: float) -> bool:
    """Strict improvement beyond float noise; ties keep the incumbent point."""
    return candidate < incumbent - 1e-9 * max(1.0, abs(incumbent))


def oracle_adam_minimize(
    objective: Callable[[np.ndarray], float], init, cfg: AdamConfig
) -> OptResult:
    """Minimize a deterministic black-box objective; returns the best point seen."""
    params = np.asarray(init, dtype=np.float64).copy()
    value = float(objective(params))
    if not np.isfinite(value):
        raise RuntimeError(f"objective is not finite at init {params}")
    best = OptResult(best_params=params.copy(), best_value=value, trace=[(0, value)])
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    h = cfg.fd_step
    for t in range(1, cfg.iterations + 1):
        grad = np.empty_like(params)
        for i in range(params.size):
            probe = params.copy()
            probe[i] = params[i] + h
            up = objective(probe)
            probe[i] = params[i] - h
            down = objective(probe)
            grad[i] = (up - down) / (2 * h)
        if not np.isfinite(grad).all():
            raise RuntimeError(f"non-finite gradient at iteration {t}, params {params}")
        m = cfg.beta1 * m + (1 - cfg.beta1) * grad
        v = cfg.beta2 * v + (1 - cfg.beta2) * grad * grad
        m_hat = m / (1 - cfg.beta1**t)
        v_hat = v / (1 - cfg.beta2**t)
        params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps_stability)
        value = float(objective(params))
        if not np.isfinite(value):
            raise RuntimeError(f"objective not finite at iteration {t}, params {params}")
        best.trace.append((t, value))
        if _improves(value, best.best_value):
            best.best_value = value
            best.best_params = params.copy()
    return best


def oracle_run_restarts(
    objective: Callable[[np.ndarray], float],
    inits: list[np.ndarray],
    cfg: AdamConfig,
) -> tuple[np.ndarray, float, list[tuple[int, int, float]]]:
    """Run ADAM from each init; keep the best point seen across all runs."""
    best_params, best_value = None, np.inf
    trace: list[tuple[int, int, float]] = []
    for r, init in enumerate(inits):
        result = oracle_adam_minimize(objective, init, cfg)
        trace.extend((r, it, val) for it, val in result.trace)
        if best_params is None or _improves(result.best_value, best_value):
            best_value = result.best_value
            best_params = result.best_params
    return best_params, best_value, trace


def oracle_tune_walk_params(
    instance: ProblemInstance,
    z,
    family: PermutationFamily,
    cvar_cfg: CvarConfig = CvarConfig(),
    adam_cfg: AdamConfig = AdamConfig(),
    circuit_cfg: CircuitConfig = CircuitConfig(),
) -> tuple[float, float, list[tuple[int, int, float]]]:
    """Tune the walk's (time, sharpness) against the lower-tail cost of its output.

    The first restart starts at (0, 0) -- the point mass at the seed -- so the
    tuned objective never exceeds the seed's own tail cost.
    """
    bits = as_bits(z, instance.n)
    summary = cost_summary(instance)
    order = np.argsort(summary.diagonal, kind="stable")
    sorted_costs = summary.diagonal[order]

    def objective(x: np.ndarray) -> float:
        walk = WalkParams(time=float(x[0]), sharpness=float(x[1]))
        state = cbqoa_initial_state(instance, bits, walk, family=family, config=circuit_cfg)
        probs = np.abs(state) ** 2
        return _cvar_sorted(sorted_costs, probs[order], cvar_cfg.alpha)

    rng = np.random.default_rng(adam_cfg.rng_seed)
    inits = [np.zeros(2)]
    for _ in range(adam_cfg.restarts - 1):
        inits.append(np.array([rng.uniform(0, np.pi), rng.uniform(-2, 2)]))
    best, _, trace = oracle_run_restarts(objective, inits, adam_cfg)
    return float(best[0]), float(best[1]), trace
