"""Statevector simulation of the seeded-walk ansatz and its uniform baseline.

States are dense complex vectors over the computational basis with bit 1 as
the most significant index bit. All operations return new arrays and preserve
the L2 norm. Mixing operators are applied through the exact rank-1 update
e^{-ib|psi><psi|} |phi> = |phi> + (e^{-ib} - 1) <psi|phi> |psi>, which is the
unitary the three-factor walk/phase/unwalk circuit implements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .mixer import PermutationFamily, WalkParams, build_family
from .problems import (
    MAX_DENSE_VARS,
    ProblemInstance,
    as_bits,
    bits_to_index,
    cost_summary,
    feasible_indices,
    index_to_bits,
    bits_to_str,
    is_feasible,
)

NORM_ATOL = 1e-10


@dataclass(frozen=True)
class AnsatzParams:
    """Per-layer mixing angles (betas) and phase angles (gammas)."""

    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if len(self.betas) != len(self.gammas):
            raise ValueError("betas and gammas must have equal length")

    @property
    def depth(self) -> int:
        return len(self.betas)

    @classmethod
    def zeros(cls, depth: int) -> "AnsatzParams":
        return cls(betas=(0.0,) * depth, gammas=(0.0,) * depth)


@dataclass(frozen=True)
class CircuitConfig:
    """Simulation knobs; trotter_steps is the product-formula repetition count."""

    trotter_steps: int = 3

    def __post_init__(self):
        if self.trotter_steps < 1:
            raise ValueError("trotter_steps must be >= 1")


def num_qubits(state: np.ndarray) -> int:
    n = int(np.log2(state.size))
    if 1 << n != state.size:
        raise ValueError("state length must be a power of two")
    return n


def basis_state(n: int, z) -> np.ndarray:
    """One-hot state |z> on n qubits."""
    bits = as_bits(z, n)
    state = np.zeros(1 << n, dtype=np.complex128)
    state[bits_to_index(bits)] = 1.0
    return state


def uniform_feasible_state(instance: ProblemInstance) -> np.ndarray:
    """Uniform superposition over the feasible strings."""
    if instance.n > MAX_DENSE_VARS:
        raise CapacityError(f"statevector simulation supports n <= {MAX_DENSE_VARS}")
    feas = feasible_indices(instance)
    state = np.zeros(1 << instance.n, dtype=np.complex128)
    state[feas] = 1.0 / np.sqrt(feas.size)
    return state


def apply_phase_separator(state: np.ndarray, cost_diagonal: np.ndarray, gamma: float) -> np.ndarray:
    """Multiply each amplitude by e^{-i * gamma * f(x)}."""
    if cost_diagonal.shape != state.shape:
        raise ValueError("cost diagonal and state must have the same length")
    return state * np.exp(-1j * gamma * cost_diagonal)


def ctqw_hypercube(state: np.ndarray, weights, time: float) -> np.ndarray:
    """Exact walk on the weighted hypercube: independent X rotations per qubit.

    Qubit j evolves under e^{i w_j t X}, i.e. |0> -> cos(w_j t)|0> + i sin(w_j t)|1>
    and symmetrically.
    """
    n = num_qubits(state)
    w = np.asarray(weights, dtype=np.float64)
    if w.size != n:
        raise ValueError(f"expected {n} weights, got {w.size}")
    out = state.reshape([2] * n)
    for axis in range(n):
        angle = w[axis] * time
        out = np.cos(angle) * out + 1j * np.sin(angle) * np.flip(out, axis=axis)
    return out.reshape(-1)


def _xy_index_pairs(n: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices with (bit_a, bit_b) = (0, 1) and their (1, 0) partners."""
    place_a = 1 << (n - a)
    place_b = 1 << (n - b)
    indices = np.arange(1 << n, dtype=np.int64)
    i01 = indices[((indices & place_a) == 0) & ((indices & place_b) != 0)]
    return i01, i01 + place_a - place_b


def _xy_sweep(amps: np.ndarray, plan, cos2: np.ndarray, isin2: np.ndarray, steps: int) -> None:
    """Apply `steps` rounds of XY rotations in place to every column of amps.

    amps is (rows, batch); plan holds (i01, i10, gate) row pairs; cos2 and
    isin2 are (gates, batch), so column k rotates by its own angles.
    """
    for _ in range(steps):
        for i01, i10, idx in plan:
            x01 = amps[i01]
            x10 = amps[i10]
            amps[i01] = cos2[idx] * x01 + isin2[idx] * x10
            amps[i10] = cos2[idx] * x10 + isin2[idx] * x01


def apply_xy_gate(state: np.ndarray, a: int, b: int, phi: float) -> np.ndarray:
    """Apply e^{i phi (X_a X_b + Y_a Y_b)}: a rotation inside the |01>,|10> sector."""
    n = num_qubits(state)
    if not (1 <= a <= n and 1 <= b <= n) or a == b:
        raise ValueError(f"qubit pair ({a}, {b}) invalid for n={n}")
    i01, i10 = _xy_index_pairs(n, min(a, b), max(a, b))
    out = state.reshape(-1, 1).copy()
    c, s = np.cos(2 * phi), np.sin(2 * phi)
    _xy_sweep(out, ((i01, i10, 0),), np.array([[c]]), np.array([[1j * s]]), 1)
    return out.reshape(-1)


@lru_cache(maxsize=8)
def _trotter_plan(family: PermutationFamily, sector: bool) -> tuple[np.ndarray, tuple]:
    """Rows the walk acts on, and the (i01, i10, gain index) row pairs per transposition.

    With sector=False the rows are all 2^n basis indices. With sector=True they
    are only the strings of the seed's Hamming weight, which every XY gate
    preserves; each gate then touches C(n-2, w-1) pairs instead of 2^(n-2).
    """
    n = family.n
    rows = np.arange(1 << n, dtype=np.int64)
    if sector:
        rows = rows[np.bitwise_count(rows) == sum(family.seed)]
    position = np.full(1 << n, -1, dtype=np.int64)
    position[rows] = np.arange(rows.size)
    plan = []
    for idx, tau in enumerate(family.permutations):
        a, b = sorted(tau.indices)
        i01, i10 = _xy_index_pairs(n, a, b)
        keep = position[i01] >= 0
        plan.append((position[i01[keep]], position[i10[keep]], idx))
    return rows, tuple(plan)


def _xy_rotations(family: PermutationFamily, sharpness: float, time: float, steps: int):
    """Per-gate cos(2 theta) and i sin(2 theta) for one product-formula step."""
    angles = family.weights(sharpness) * (time / (2.0 * steps))
    return np.cos(2 * angles), 1j * np.sin(2 * angles)


def _check_xy(family: PermutationFamily, steps: int) -> None:
    if family.kind != "transposition":
        raise ValueError("trotterized XY walk requires a transposition family")
    if steps < 1:
        raise ValueError("steps must be >= 1")


def ctqw_trotter_xy(
    state: np.ndarray,
    family: PermutationFamily,
    sharpness: float,
    time: float,
    steps: int,
) -> np.ndarray:
    """Product-formula walk for a transposition family.

    Applies the XY rotations of every transposition with angle w*t/(2N), in the
    family's round order, repeated N times. Hamming weight sectors are
    preserved exactly; the deviation from the exact walk scales as t^2/N.
    """
    _check_xy(family, steps)
    if num_qubits(state) != family.n:
        raise ValueError("state size does not match family")
    _, plan = _trotter_plan(family, False)
    cos2, isin2 = _xy_rotations(family, sharpness, time, steps)
    out = state.reshape(-1, 1).copy()
    _xy_sweep(out, plan, cos2[:, None], isin2[:, None], steps)
    return out.reshape(-1)


def trotter_xy_sector_batch(
    family: PermutationFamily, times, sharpnesses, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Product-formula walks from the family's seed, one column per (time, sharpness).

    Returns the seed's Hamming-weight sector as basis indices, and the walk
    amplitudes on it as a (sector, batch) array. Every amplitude outside the
    sector is exactly zero, and each column equals ctqw_trotter_xy from the
    seed's basis state restricted to the sector.
    """
    _check_xy(family, steps)
    rows, plan = _trotter_plan(family, True)
    batch = len(times)
    cos2 = np.empty((family.size, batch))
    isin2 = np.empty((family.size, batch), dtype=np.complex128)
    for k in range(batch):
        cos2[:, k], isin2[:, k] = _xy_rotations(family, sharpnesses[k], times[k], steps)
    amps = np.zeros((rows.size, batch), dtype=np.complex128)
    amps[np.searchsorted(rows, bits_to_index(family.seed))] = 1.0
    _xy_sweep(amps, plan, cos2, isin2, steps)
    return rows, amps


def apply_rank1_mixer(state: np.ndarray, psi: np.ndarray, beta: float) -> np.ndarray:
    """Apply e^{-i beta |psi><psi|} exactly via the rank-1 update."""
    if psi.shape != state.shape:
        raise ValueError("psi and state must have the same length")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"psi must be normalized, got norm {norm}")
    overlap = np.vdot(psi, state)
    return state + (np.exp(-1j * beta) - 1.0) * overlap * psi


def hypercube_walk_state(bits: np.ndarray, weights: np.ndarray, time: float) -> np.ndarray:
    """Exact hypercube walk e^{iAt}|z>: a product state, built one qubit at a time.

    bits must already be a validated 0/1 vector; qubit j contributes
    (cos(w_j t), i sin(w_j t)), with the entries swapped where z_j = 1.
    """
    state = None
    for j, b in enumerate(bits):
        angle = weights[j] * time
        amp0, amp1 = np.cos(angle), 1j * np.sin(angle)
        factor = np.array([amp0, amp1] if b == 0 else [amp1, amp0], dtype=np.complex128)
        state = factor if state is None else np.multiply.outer(state, factor).ravel()
    return state


def cbqoa_initial_state(
    instance: ProblemInstance,
    z,
    walk: WalkParams,
    family: PermutationFamily | None = None,
    config: CircuitConfig = CircuitConfig(),
) -> np.ndarray:
    """Walk state e^{iAt}|z>: exact for hypercube families, trotterized for XY."""
    bits = as_bits(z, instance.n)
    if not is_feasible(instance, bits):
        raise ValueError("walk seed must be feasible")
    if family is None:
        family = build_family(instance, bits)
    if family.kind == "bit_flip":
        return hypercube_walk_state(bits, family.weights(walk.sharpness), walk.time)
    return ctqw_trotter_xy(
        basis_state(instance.n, bits), family, walk.sharpness, walk.time, config.trotter_steps
    )


def _apply_layers(
    state: np.ndarray, psi: np.ndarray, cost_diagonal: np.ndarray, params: AnsatzParams
) -> np.ndarray:
    for beta, gamma in zip(params.betas, params.gammas):
        state = apply_phase_separator(state, cost_diagonal, gamma)
        state = apply_rank1_mixer(state, psi, beta)
    return state


def cbqoa_ansatz(
    instance: ProblemInstance,
    z,
    walk: WalkParams,
    params: AnsatzParams,
    config: CircuitConfig = CircuitConfig(),
) -> np.ndarray:
    """Full ansatz state: walk from the seed, then alternating phase/mixing layers."""
    psi = cbqoa_initial_state(instance, z, walk, config=config)
    return _apply_layers(psi.copy(), psi, cost_summary(instance).diagonal, params)


def gm_qaoa_ansatz(instance: ProblemInstance, params: AnsatzParams) -> np.ndarray:
    """Baseline ansatz: uniform feasible start, reflections about that start."""
    psi = uniform_feasible_state(instance)
    return _apply_layers(psi.copy(), psi, cost_summary(instance).diagonal, params)


def measurement_distribution(state: np.ndarray, drop_below: float = 1e-15) -> dict[str, float]:
    """Computational-basis outcome probabilities, keyed by bit string."""
    n = num_qubits(state)
    probs = np.abs(state) ** 2
    keep = np.flatnonzero(probs >= drop_below)
    return {bits_to_str(index_to_bits(int(i), n)): float(probs[i]) for i in keep}
