"""Shared fixtures and oracle helpers for the test suite."""

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np
import pytest

from cbqoa import (
    AdamConfig,
    BenchmarkSpec,
    CircuitConfig,
    CvarConfig,
    Max3SatInstance,
    MaxBisectionInstance,
    PermutationFamily,
    WalkParams,
    gen_hard_instances,
)
from cbqoa.cvar import BETA1, BETA2, EPS_STABILITY, FD_STEP
from cbqoa.errors import CapacityError
from cbqoa.fast_sim import CostBinning
from cbqoa.mixer import permute_indices
from cbqoa.problems import ProblemInstance, as_bits, bits_to_str, cost_summary, feasible_indices

MAX_DENSE_ADJACENCY_VARS = 12
MAX_VERIFY_VARS = 14


def index_to_bits(index: int, n: int) -> np.ndarray:
    """Bit string of a basis index (bit 1 = most significant)."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for {n} bits")
    return ((index >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def binned_diagonal(binning: CostBinning, size: int) -> np.ndarray:
    """Dense diagonal with every support cost replaced by its bin midpoint."""
    diag = np.zeros(size, dtype=np.float64)
    diag[binning.support] = binning.bin_costs[binning.bin_index]
    return diag


def dense_unitary(hermitian: np.ndarray, t: float) -> np.ndarray:
    """e^{iHt} for a real symmetric matrix, via eigendecomposition."""
    evals, evecs = np.linalg.eigh(hermitian)
    return (evecs * np.exp(1j * evals * t)) @ evecs.conj().T


def adjacency_dense(
    family: PermutationFamily, sharpness: float, n: int | None = None
) -> np.ndarray:
    """Dense adjacency matrix of the weighted feasibility graph."""
    n = family.n if n is None else n
    if n > MAX_DENSE_ADJACENCY_VARS:
        raise CapacityError(
            f"dense adjacency supports n <= {MAX_DENSE_ADJACENCY_VARS}, got {n}"
        )
    size = 1 << n
    indices = np.arange(size, dtype=np.int64)
    weights = family.weights(sharpness)
    adj = np.zeros((size, size), dtype=np.float64)
    for tau, w in zip(family.permutations, weights):
        images = permute_indices(tau, indices, n)
        moved = images != indices
        adj[images[moved], indices[moved]] += w
    return adj


def measurement_distribution(state: np.ndarray, drop_below: float = 1e-15) -> dict[str, float]:
    """Computational-basis outcome probabilities, keyed by bit string (bit 1 = MSB)."""
    n = int(np.log2(state.size))
    probs = np.abs(state) ** 2
    keep = np.flatnonzero(probs >= drop_below)
    return {bits_to_str(index_to_bits(int(i), n)): float(probs[i]) for i in keep}


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


@pytest.fixture(scope="session")
def hard_bisection_instances():
    """The acceptance suite's ten hard Max Bisection instances (n=12)."""
    spec = BenchmarkSpec.for_max_bisection(count=10, rng_seed=11)
    instances, stats = gen_hard_instances(spec)
    assert not stats.guard_tripped
    return spec, instances


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


def random_satisfiable_max3sat(
    rng: np.random.Generator, num_vars: int = 10, num_clauses: int = 40
) -> Max3SatInstance:
    """Unit-weight exactly-3-literal instance satisfied by a planted assignment."""
    planted = rng.integers(0, 2, size=num_vars)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.choice(num_vars, size=3, replace=False) + 1
        negate = rng.integers(0, 2, size=3)
        pin = int(rng.integers(0, 3))
        negate[pin] = 1 - planted[variables[pin] - 1]  # that literal agrees with planted
        labels = [int(v + num_vars) if neg else int(v) for v, neg in zip(variables, negate)]
        clauses.append((*labels, 1.0))
    return Max3SatInstance(num_vars=num_vars, clauses=tuple(clauses))


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


def _xy_index_pairs(n: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices with (bit_a, bit_b) = (0, 1) and their (1, 0) partners."""
    place_a = 1 << (n - a)
    place_b = 1 << (n - b)
    indices = np.arange(1 << n, dtype=np.int64)
    i01 = indices[((indices & place_a) == 0) & ((indices & place_b) != 0)]
    return i01, i01 + place_a - place_b


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


def oracle_cvar_sorted(values: np.ndarray, probs: np.ndarray, alpha: float) -> float:
    """CVaR for values already sorted ascending, from a full-length cumsum.

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


def _improves(candidate: float, incumbent: float) -> bool:
    """Strict improvement beyond float noise; ties keep the incumbent point."""
    return candidate < incumbent - 1e-9 * max(1.0, abs(incumbent))


def oracle_adam_minimize(
    objective: Callable[[np.ndarray], float], init, cfg: AdamConfig
) -> tuple[np.ndarray, float, list[tuple[int, float]]]:
    """Minimize a deterministic black-box objective.

    Returns the best point seen, its value, and the (iteration, value) trace.
    """
    params = np.asarray(init, dtype=np.float64).copy()
    value = float(objective(params))
    if not np.isfinite(value):
        raise RuntimeError(f"objective is not finite at init {params}")
    best_params, best_value, trace = params.copy(), value, [(0, value)]
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    h = FD_STEP
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
        m = BETA1 * m + (1 - BETA1) * grad
        v = BETA2 * v + (1 - BETA2) * grad * grad
        m_hat = m / (1 - BETA1**t)
        v_hat = v / (1 - BETA2**t)
        params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + EPS_STABILITY)
        value = float(objective(params))
        if not np.isfinite(value):
            raise RuntimeError(f"objective not finite at iteration {t}, params {params}")
        trace.append((t, value))
        if _improves(value, best_value):
            best_value = value
            best_params = params.copy()
    return best_params, best_value, trace


def oracle_run_restarts(
    objective: Callable[[np.ndarray], float],
    inits: list[np.ndarray],
    cfg: AdamConfig,
) -> tuple[np.ndarray, float, list[tuple[int, int, float]]]:
    """Run ADAM from each init; keep the best point seen across all runs."""
    best_params, best_value = None, np.inf
    trace: list[tuple[int, int, float]] = []
    for r, init in enumerate(inits):
        params, value, run_trace = oracle_adam_minimize(objective, init, cfg)
        trace.extend((r, it, val) for it, val in run_trace)
        if best_params is None or _improves(value, best_value):
            best_value = value
            best_params = params
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
        state = oracle_walk_state(bits, family, walk, circuit_cfg.trotter_steps)
        probs = np.abs(state) ** 2
        return oracle_cvar_sorted(sorted_costs, probs[order], cvar_cfg.alpha)

    rng = np.random.default_rng(adam_cfg.rng_seed)
    inits = [np.zeros(2)]
    for _ in range(adam_cfg.restarts - 1):
        inits.append(np.array([rng.uniform(0, np.pi), rng.uniform(-2, 2)]))
    best, _, trace = oracle_run_restarts(objective, inits, adam_cfg)
    return float(best[0]), float(best[1]), trace


# ---------------------------------------------------------------------------
# Structural checks of a permutation family on the feasible set


@dataclass
class AssumptionReport:
    """Outcome of checking the structural conditions on a permutation family."""

    order_two: bool
    closure: bool
    connected: bool
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.order_two and self.closure and self.connected


def verify_assumption(instance: ProblemInstance, family: PermutationFamily) -> AssumptionReport:
    """Check order-2, closure of F under each permutation, and connectivity of F.

    Connectivity is established by breadth-first search over the feasible set
    using the permutations as edge generators. A walk from F can leave F only
    through a permutation that maps a feasible string outside F, which the
    closure check reports.
    """
    n = instance.n
    if n > MAX_VERIFY_VARS:
        raise CapacityError(f"assumption check supports n <= {MAX_VERIFY_VARS}, got {n}")
    failures: list[str] = []

    all_indices = np.arange(1 << n, dtype=np.int64)
    order_two = True
    for tau in family.permutations:
        once = permute_indices(tau, all_indices, n)
        if np.array_equal(once, all_indices):
            order_two = False
            failures.append(f"{tau} is the identity")
        elif not np.array_equal(permute_indices(tau, once, n), all_indices):
            order_two = False
            failures.append(f"{tau} is not an involution")

    feas = feasible_indices(instance)
    feas_mask = np.zeros(1 << n, dtype=bool)
    feas_mask[feas] = True

    closure = True
    for tau in family.permutations:
        images = permute_indices(tau, feas, n)
        if not feas_mask[images].all():
            closure = False
            failures.append(f"{tau} maps a feasible string outside F")

    # BFS over F with the family as the edge generator.
    reached = np.zeros(1 << n, dtype=bool)
    frontier = np.array([feas[0]], dtype=np.int64)
    reached[frontier] = True
    while frontier.size:
        nxt = []
        for tau in family.permutations:
            images = permute_indices(tau, frontier, n)
            fresh = images[~reached[images]]
            if fresh.size:
                reached[fresh] = True
                nxt.append(fresh)
        frontier = np.unique(np.concatenate(nxt)) if nxt else np.array([], dtype=np.int64)
    connected = bool(reached[feas].all())
    if not connected:
        failures.append("feasible set is not connected under the family")

    return AssumptionReport(
        order_two=order_two, closure=closure, connected=connected, failures=failures
    )
