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
    PipelineConfig,
    SdpConfig,
    WalkParams,
    cvar,
    gen_hard_instances,
    run_pipeline,
)
from cbqoa.cvar import BETA1, BETA2, EPS_STABILITY, FD_STEP, _hypercube_objective
from cbqoa.errors import CapacityError
from cbqoa.fast_sim import CostBinning
from cbqoa.mixer import PermutationFamily
from cbqoa.problems import (
    ProblemInstance,
    _clause_arrays,
    as_bits,
    bits_to_index,
    bits_to_str,
    cost_summary,
    feasible_indices,
)
from cbqoa.seeds import (
    BALANCE_PENALTY,
    BALANCE_TOLERANCE,
    STEP_SIZE,
    UnitVectorSet,
)
from cbqoa.simulate import _trotter_plan, _xy_rotations, _xy_sweep

MAX_DENSE_ADJACENCY_VARS = 12
MAX_VERIFY_VARS = 14


def index_to_bits(index: int, n: int) -> np.ndarray:
    """Bit string of a basis index (bit 1 = most significant)."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for {n} bits")
    return ((index >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def basis_state(n: int, z) -> np.ndarray:
    """One-hot state |z> on n qubits."""
    state = np.zeros(1 << n, dtype=np.complex128)
    state[bits_to_index(as_bits(z, n))] = 1.0
    return state


def sector_walk(
    family: PermutationFamily, states: np.ndarray, sharpness: float, time: float, steps: int
) -> np.ndarray:
    """The library's product-formula sweep applied to each column of states, (2^n, k)
    and zero outside the seed's Hamming-weight sector, as one (2^n, k) array.

    The sweep rotates the real parts r of amplitudes i^j r, j swaps from the seed; it is
    linear with real coefficients, so each start state is divided by i^j on the way in
    and the result multiplied by i^j on the way out."""
    rows, plan = _trotter_plan(family)
    assert not np.delete(states, rows, axis=0).any(), "a start state leaves the seed's sector"
    swaps = np.bitwise_count(rows ^ bits_to_index(family.seed)) // 2
    phase = np.array([1, 1j, -1, -1j])[swaps % 4, None]
    amps = states[rows] / phase
    _xy_sweep(amps, plan, *_xy_rotations(family, [sharpness], [time], steps), steps)
    out = np.zeros_like(amps, shape=states.shape)
    out[rows] = amps * phase
    return out


def binned_diagonal(binning: CostBinning, size: int) -> np.ndarray:
    """Dense diagonal with every support cost replaced by its bin's cost (level or midpoint)."""
    diag = np.zeros(size, dtype=np.float64)
    diag[binning.support] = binning.bin_costs[binning.bin_index]
    return diag


@dataclass(frozen=True)
class OracleCostBinning:
    """Uniform binning of the cost values on a fixed support."""

    lower: float  # inclusive lower edge (min cost on the support)
    upper: float  # exclusive upper edge
    num_bins: int
    support: np.ndarray  # basis indices covered by the binning
    bin_index: np.ndarray  # bin of each support element
    bin_costs: np.ndarray  # midpoint cost per bin

    @property
    def width(self) -> float:
        return (self.upper - self.lower) / self.num_bins


def oracle_bin_costs(
    cost_diagonal: np.ndarray, support: np.ndarray, num_bins: int
) -> OracleCostBinning:
    """Partition the support's cost values into num_bins uniform bins: the library's
    binning before it took the distinct costs as bins whenever they fit.

    The upper edge gets a tiny margin so the maximum cost falls strictly below
    it; every cost then sits within half a bin width of its bin midpoint.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    support = np.asarray(support, dtype=np.int64)
    if support.size == 0:
        raise ValueError("support must be non-empty")
    values = np.asarray(cost_diagonal, dtype=np.float64)[support]
    lower = float(values.min())
    span = float(values.max()) - lower
    upper = float(values.max()) + max(span, 1.0) * 1e-12
    width = (upper - lower) / num_bins
    index = np.minimum((values - lower) // width, num_bins - 1).astype(np.int64)
    midpoints = lower + (np.arange(num_bins) + 0.5) * width
    return OracleCostBinning(
        lower=lower,
        upper=upper,
        num_bins=num_bins,
        support=support,
        bin_index=index,
        bin_costs=midpoints,
    )


def permute_indices(tau: tuple[int, ...], indices: np.ndarray, n: int) -> np.ndarray:
    """Image of basis indices under a local permutation, the general action: a flip of
    bit i for tau = (i,), a swap of bits a and b for tau = (a, b), 1-based positions. A
    swap of two equal bits is the identity, which the library's XOR masks never apply."""
    if len(tau) == 1:
        (i,) = tau
        return indices ^ (1 << (n - i))
    a, b = tau
    place_a = 1 << (n - a)
    place_b = 1 << (n - b)
    bit_a = (indices & place_a) != 0
    bit_b = (indices & place_b) != 0
    return np.where(bit_a == bit_b, indices, indices ^ (place_a | place_b))


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
    instances, _ = gen_hard_instances(spec)
    assert len(instances) == spec.count
    return spec, instances


@pytest.fixture(scope="session")
def hard_max3sat_instances():
    """The acceptance suite's ten hard Max 3SAT instances (n=16)."""
    spec = BenchmarkSpec.for_max3sat(count=10, rng_seed=11)
    instances, _ = gen_hard_instances(spec)
    assert len(instances) == spec.count
    return spec, instances


@pytest.fixture(scope="session")
def max3sat_records(hard_max3sat_instances):
    """Depth-3 pipeline records of the ten hard Max 3SAT instances."""
    _, instances = hard_max3sat_instances
    return [
        run_pipeline(inst, 3, PipelineConfig(rng_seed=1000 + i))
        for i, inst in enumerate(instances)
    ]


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
    pairs = [_xy_index_pairs(family.n, *sorted(tau)) for tau in family.permutations]
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


def oracle_central_differences(objective: Callable[[np.ndarray], float]):
    """Gradient of a point objective by central differences, one coordinate at a time."""

    def gradient(params: np.ndarray) -> np.ndarray:
        grad = np.empty_like(params)
        for i in range(params.size):
            probe = params.copy()
            probe[i] = params[i] + FD_STEP
            up = objective(probe)
            probe[i] = params[i] - FD_STEP
            down = objective(probe)
            grad[i] = (up - down) / (2 * FD_STEP)
        return grad

    return gradient


def oracle_adam_minimize(
    objective: Callable[[np.ndarray], float],
    init,
    cfg: AdamConfig,
    gradient: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, float, list[tuple[int, float]]]:
    """Minimize a deterministic objective, by central differences unless a gradient is given.

    Returns the best point seen, its value, and the (iteration, value) trace.
    """
    gradient = gradient or oracle_central_differences(objective)
    params = np.asarray(init, dtype=np.float64).copy()
    value = float(objective(params))
    if not np.isfinite(value):
        raise RuntimeError(f"objective is not finite at init {params}")
    best_params, best_value, trace = params.copy(), value, [(0, value)]
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for t in range(1, cfg.iterations + 1):
        grad = gradient(params)
        if not np.isfinite(grad).all():
            raise RuntimeError(f"non-finite gradient at iteration {t}, params {params}")
        m = BETA1 * m + (1 - BETA1) * grad
        v = BETA2 * v + (1 - BETA2) * grad * grad
        m_hat = m / (1 - BETA1**t)
        v_hat = v / (1 - BETA2**t)
        params = params - cvar.LEARNING_RATE * m_hat / (np.sqrt(v_hat) + EPS_STABILITY)
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
    gradient: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, float, list[tuple[int, int, float]]]:
    """Run ADAM from each init; keep the best point seen across all runs."""
    best_params, best_value = None, np.inf
    trace: list[tuple[int, int, float]] = []
    for r, init in enumerate(inits):
        params, value, run_trace = oracle_adam_minimize(objective, init, cfg, gradient)
        trace.extend((r, it, val) for it, val in run_trace)
        if best_params is None or _improves(value, best_value):
            best_value = value
            best_params = params
    return best_params, best_value, trace


def oracle_tune_walk_params(
    instance: ProblemInstance,
    family: PermutationFamily,
    cvar_cfg: CvarConfig = CvarConfig(),
    adam_cfg: AdamConfig = AdamConfig(),
    circuit_cfg: CircuitConfig = CircuitConfig(),
) -> tuple[float, float, list[tuple[int, int, float]]]:
    """Tune the walk's (time, sharpness) against the lower-tail cost of its output.

    The first restart starts at (0, 0) -- the point mass at the seed -- so the
    tuned objective never exceeds the seed's own tail cost. Values come from the
    Kronecker product (hypercube) or the one-vector Trotter loop (XY). A
    transposition walk's gradient is central differences; a hypercube walk's is
    the library's exact one, asked for one point at a time, and is checked on
    its own against central differences (tests/test_cvar.py::TestWalkGradient).
    """
    bits = as_bits(family.seed, instance.n)
    summary = cost_summary(instance)
    order = np.argsort(summary.diagonal, kind="stable")
    sorted_costs = summary.diagonal[order]

    def objective(x: np.ndarray) -> float:
        walk = WalkParams(time=float(x[0]), sharpness=float(x[1]))
        state = oracle_walk_state(bits, family, walk, circuit_cfg.trotter_steps)
        probs = np.abs(state) ** 2
        return oracle_cvar_sorted(sorted_costs, probs[order], cvar_cfg.alpha)

    gradient = None
    if family.kind == "bit_flip":
        value_and_grad = _hypercube_objective(family, summary.diagonal, cvar_cfg.alpha)

        def gradient(x: np.ndarray) -> np.ndarray:
            return value_and_grad(x[None])[1][0]

    rng = np.random.default_rng(adam_cfg.rng_seed)
    inits = [np.zeros(2)]
    for _ in range(adam_cfg.restarts - 1):
        inits.append(np.array([rng.uniform(0, np.pi), rng.uniform(-2, 2)]))
    best, _, trace = oracle_run_restarts(objective, inits, adam_cfg, gradient)
    return float(best[0]), float(best[1]), trace


# ---------------------------------------------------------------------------
# Relaxation oracles: both solvers written with per-pairing masks and one
# np.add.at per term kind. They fix the order in which each gradient entry is
# summed; the library's single-scatter solvers must reproduce them byte for byte:
# the same vectors, objective, converged flag and balance residual.


# Literal slots (f, g, h) of the three pairing expressions (v0 + l_f) . (l_g + l_h).
_ORACLE_PAIRINGS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def _oracle_kz_relaxed_values(V: np.ndarray, rows, signs):
    """Per-clause relaxed values min(1, r1, r2, r3), the stacked candidates, and
    each pairing's (v0 + l_f, l_g + l_h) rows."""
    lit = signs[:, :, None] * V[rows]  # (clauses, 3, dim)
    r = np.empty((3, rows.shape[0]), dtype=np.float64)
    sums = []
    for m, (f, g, h) in enumerate(_ORACLE_PAIRINGS):
        sums.append((V[0] + lit[:, f], lit[:, g] + lit[:, h]))
        r[m] = (4.0 - np.einsum("cd,cd->c", *sums[-1])) / 4.0
    candidates = np.vstack([np.ones(rows.shape[0]), r])
    return candidates.min(axis=0), candidates, sums


def _oracle_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows over their np.linalg.norm, independent of the library's row norm."""
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


class _OracleAdamAscent:
    """Adam-style ascent step with a late small-step polish phase."""

    def __init__(self, shape, learning_rate: float, total_steps: int):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.lr = learning_rate
        self.total = total_steps
        self.t = 0

    def step(self, V: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * grad * grad
        m_hat = self.m / (1 - 0.9**self.t)
        v_hat = self.v / (1 - 0.999**self.t)
        lr = self.lr if self.t < 0.7 * self.total else 0.05 * self.lr
        return _oracle_normalize_rows(V + lr * m_hat / (np.sqrt(v_hat) + 1e-8))


def oracle_solve_kz_sdp(
    instance: Max3SatInstance, cfg: SdpConfig = SdpConfig()
) -> UnitVectorSet:
    """``seeds.solve_kz_sdp`` with per-pairing masks and three ``np.add.at`` each."""
    n = instance.num_vars
    dim = n + 1
    rng = np.random.default_rng(cfg.rng_seed)
    V = _oracle_normalize_rows(rng.standard_normal((n + 1, dim)))
    rows, signs, weights = _clause_arrays(instance)  # negated literals are -v_i
    total_weight = float(weights.sum())
    optimizer = _OracleAdamAscent(V.shape, STEP_SIZE, cfg.iterations)

    best_obj = -np.inf
    best_V = V.copy()
    history = []
    for _ in range(cfg.iterations):
        values, candidates, sums = _oracle_kz_relaxed_values(V, rows, signs)
        obj = float(np.dot(weights, values))
        if obj > best_obj:
            best_obj = obj
            best_V = V.copy()
        history.append(best_obj)
        if best_obj >= total_weight * (1.0 - 1e-9):
            break

        active = np.argmin(candidates, axis=0)  # 0 = clamped at 1, zero gradient
        grad = np.zeros_like(V)
        for m, ((f, g, h), (first, second)) in enumerate(zip(_ORACLE_PAIRINGS, sums), start=1):
            mask = active == m
            if not mask.any():
                continue
            w = weights[mask, None]
            d_first = -w * second[mask] / 4.0
            d_second = -w * first[mask] / 4.0
            grad[0] += d_first.sum(axis=0)
            np.add.at(grad, rows[mask, f], signs[mask, f, None] * d_first)
            np.add.at(grad, rows[mask, g], signs[mask, g, None] * d_second)
            np.add.at(grad, rows[mask, h], signs[mask, h, None] * d_second)
        V = optimizer.step(V, grad)

    quarter = max(1, len(history) // 4)
    converged = (
        best_obj >= total_weight * (1.0 - 1e-9)
        or best_obj - history[-quarter] <= 1e-6 * max(1.0, abs(best_obj))
    )
    best_V[0] = -best_V[0]
    return UnitVectorSet(vectors=best_V, objective=best_obj, converged=converged)


def oracle_solve_fl_sdp(
    instance: MaxBisectionInstance, cfg: SdpConfig = SdpConfig(), doublings: list | None = None
) -> UnitVectorSet:
    """``seeds.solve_fl_sdp`` with the penalty row copied and two ``np.add.at``. Each
    doubling of the balance penalty appends its round to ``doublings`` when given."""
    n = instance.num_vertices
    dim = n + 1
    rng = np.random.default_rng(cfg.rng_seed)
    V = _oracle_normalize_rows(rng.standard_normal((n, dim)))
    a_idx = np.array([a - 1 for a, _, _ in instance.edges], dtype=np.int64)
    b_idx = np.array([b - 1 for _, b, _ in instance.edges], dtype=np.int64)
    weights = np.array([w for _, _, w in instance.edges], dtype=np.float64)

    target = BALANCE_TOLERANCE * np.sqrt(n)
    penalty = BALANCE_PENALTY
    rounds = 5
    per_round = max(1, cfg.iterations // rounds)
    optimizer = _OracleAdamAscent(V.shape, STEP_SIZE, cfg.iterations)

    def cut_objective(M: np.ndarray) -> float:
        dots = np.einsum("ed,ed->e", M[a_idx], M[b_idx])
        return float(0.5 * np.dot(weights, 1.0 - dots))

    best_obj = -np.inf
    best_V = None
    best_residual = np.inf
    for round_index in range(rounds):
        for _ in range(per_round):
            residual_vec = V.sum(axis=0)
            grad = np.broadcast_to(-2.0 * penalty * residual_vec, V.shape).copy()
            np.add.at(grad, a_idx, -0.5 * weights[:, None] * V[b_idx])
            np.add.at(grad, b_idx, -0.5 * weights[:, None] * V[a_idx])
            V = optimizer.step(V, grad)
            residual = float(np.linalg.norm(V.sum(axis=0)))
            if residual <= target:
                obj = cut_objective(V)
                if obj > best_obj:
                    best_obj = obj
                    best_V = V.copy()
                    best_residual = residual
        if residual > 0.5 * target:
            penalty *= 2.0
            if doublings is not None:
                doublings.append(round_index)

    converged = best_V is not None
    if best_V is None:
        best_V = V
        best_obj = cut_objective(V)
        best_residual = residual
    return UnitVectorSet(
        vectors=best_V, objective=best_obj, converged=converged, balance_residual=best_residual
    )


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
