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

from .mixer import PermutationFamily, WalkParams, build_family, permute_indices
from .problems import ProblemInstance, as_bits, bits_to_index, cost_summary, feasible_indices

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


def uniform_feasible_state(instance: ProblemInstance) -> np.ndarray:
    """Uniform superposition over the feasible strings."""
    feas = feasible_indices(instance)
    state = np.zeros(1 << instance.n, dtype=np.complex128)
    state[feas] = 1.0 / np.sqrt(feas.size)
    return state


def apply_phase_separator(state: np.ndarray, cost_diagonal: np.ndarray, gamma: float) -> np.ndarray:
    """Multiply each amplitude by e^{-i * gamma * f(x)}."""
    if cost_diagonal.shape != state.shape:
        raise ValueError("cost diagonal and state must have the same length")
    return state * np.exp(-1j * gamma * cost_diagonal)


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


@lru_cache(maxsize=8)
def _trotter_plan(family: PermutationFamily) -> tuple[np.ndarray, tuple]:
    """The seed's Hamming-weight sector, which every XY gate preserves, and its
    (i01, i10, gain index) row pairs per transposition: C(n-2, w-1) per gate."""
    n = family.n
    rows = np.arange(1 << n, dtype=np.int64)
    rows = rows[np.bitwise_count(rows) == sum(family.seed)]
    plan = []
    for idx, tau in enumerate(family.permutations):
        place_a, place_b = (1 << (n - i) for i in sorted(tau.indices))
        i01 = rows[((rows & place_a) == 0) & ((rows & place_b) != 0)]
        i10 = permute_indices(tau, i01, n)
        plan.append((np.searchsorted(rows, i01), np.searchsorted(rows, i10), idx))
    return rows, tuple(plan)


def _xy_rotations(family: PermutationFamily, sharpness: float, time: float, steps: int):
    """Per-gate cos(2 theta) and i sin(2 theta) for one product-formula step."""
    angles = family.weights(sharpness) * (time / (2.0 * steps))
    return np.cos(2 * angles), 1j * np.sin(2 * angles)


def ctqw_trotter_xy(
    family: PermutationFamily, times, sharpnesses, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Product-formula walks from the family's seed, one column per (time, sharpness).

    Applies the XY rotations of every transposition with angle w*t/(2N), in the
    family's round order, repeated N times; the deviation from the exact walk
    scales as t^2/N. Returns the seed's Hamming-weight sector as basis indices,
    and the walk amplitudes on it as a (sector, batch) array: every amplitude
    outside the sector is exactly zero.
    """
    if family.kind != "transposition":
        raise ValueError("trotterized XY walk requires a transposition family")
    rows, plan = _trotter_plan(family)
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


def _hypercube_product(
    bits: np.ndarray, weights: np.ndarray, time: float, tape: np.ndarray
) -> np.ndarray:
    """The hypercube walk's amplitudes without their phases, built stage by stage on a tape.

    Qubit j contributes (cos(w_j t), sin(w_j t)), swapped where z_j = 1; entry x
    is the left-to-right product of its qubits' factors, so the amplitude of x
    is i^popcount(x xor z) times it, and its square is |amplitude|^2 exactly.
    Stage j, the 2^(j+1) products of the first j + 1 factors, is written to
    tape[2^(j+1):2^(j+2)] of the 2^(n+1) tape, after the empty product 1 in
    tape[1]. Returns the last stage, tape[2^n:].
    """
    tape[1] = 1.0
    for j, b in enumerate(bits):
        angle = weights[j] * time
        cos, sin = np.cos(angle), np.sin(angle)
        lo, hi = (cos, sin) if b == 0 else (sin, cos)
        size = 1 << j
        np.multiply(tape[size : 2 * size], lo, out=tape[2 * size : 4 * size : 2])
        np.multiply(tape[size : 2 * size], hi, out=tape[2 * size + 1 : 4 * size : 2])
    return tape[1 << len(bits) :]


def _hypercube_adjoint(
    bits: np.ndarray, weights: np.ndarray, time: float, tape: np.ndarray, adj: np.ndarray
) -> np.ndarray:
    """Gradient over the angles a_j = w_j t of sum(lam * product), back through the tape.

    tape is _hypercube_product's at (bits, weights, time); adj has its layout and
    holds lam in its last stage, adj[2^n:]. Stage j's adjoint (lo-part, hi-part)
    pairs dot the stage before it for dF/dlo_j and dF/dhi_j, then fold into that
    stage's adjoint; the earlier stages of adj are overwritten.
    """
    grad = np.empty(len(bits))
    for j in range(len(bits) - 1, -1, -1):
        angle = weights[j] * time
        cos, sin = np.cos(angle), np.sin(angle)
        lo, hi = (cos, sin) if bits[j] == 0 else (sin, cos)
        size = 1 << j
        lam = adj[2 * size : 4 * size].reshape(size, 2)
        dlo, dhi = tape[size : 2 * size] @ lam
        np.dot(lam, np.array([lo, hi]), out=adj[size : 2 * size])
        # cos' = -sin and sin' = cos, with the factors swapped where z_j = 1.
        grad[j] = -sin * dlo + cos * dhi if bits[j] == 0 else cos * dlo - sin * dhi
    return grad


# i^k for k = 0..3: the phase of a hypercube walk amplitude k bit flips from the seed.
_I_POWERS = np.array([1, 1j, -1, -1j])


def hypercube_walk_state(bits: np.ndarray, weights: np.ndarray, time: float) -> np.ndarray:
    """Exact hypercube walk e^{iAt}|z>: a product state, built one qubit at a time.

    bits must already be a validated 0/1 vector; qubit j contributes
    (cos(w_j t), i sin(w_j t)), with the entries swapped where z_j = 1. Each
    amplitude is the real product of _hypercube_product times one i per
    flipped bit, the same numbers the complex product of the factors gives.
    """
    size = 1 << len(bits)
    product = _hypercube_product(bits, weights, time, np.empty(2 * size))
    flips = np.bitwise_count(np.arange(size) ^ bits_to_index(bits))
    return _I_POWERS[flips & 3] * product


def cbqoa_initial_state(
    family: PermutationFamily, walk: WalkParams, config: CircuitConfig = CircuitConfig()
) -> np.ndarray:
    """Walk state e^{iAt}|z> from the family's seed z: exact for hypercube families,
    trotterized for XY."""
    if family.kind == "bit_flip":
        bits = as_bits(family.seed)
        return hypercube_walk_state(bits, family.weights(walk.sharpness), walk.time)
    rows, amps = ctqw_trotter_xy(family, [walk.time], [walk.sharpness], config.trotter_steps)
    state = np.zeros(1 << family.n, dtype=np.complex128)
    state[rows] = amps[:, 0]
    return state


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
    psi = cbqoa_initial_state(build_family(instance, z), walk, config)
    return _apply_layers(psi.copy(), psi, cost_summary(instance).diagonal, params)


def gm_qaoa_ansatz(instance: ProblemInstance, params: AnsatzParams) -> np.ndarray:
    """Baseline ansatz: uniform feasible start, reflections about that start."""
    psi = uniform_feasible_state(instance)
    return _apply_layers(psi.copy(), psi, cost_summary(instance).diagonal, params)

