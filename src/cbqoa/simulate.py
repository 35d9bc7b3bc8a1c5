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

from .mixer import PermutationFamily, WalkParams, build_family, sigmoid_weight
from .problems import ProblemInstance, as_bits, bits_to_index, cost_summary

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
    feas = cost_summary(instance).feasible
    state = np.zeros(1 << instance.n, dtype=np.complex128)
    state[feas] = 1.0 / np.sqrt(feas.size)
    return state


def apply_phase_separator(state: np.ndarray, cost_diagonal: np.ndarray, gamma: float) -> np.ndarray:
    """Multiply each amplitude by e^{-i * gamma * f(x)}."""
    if cost_diagonal.shape != state.shape:
        raise ValueError("cost diagonal and state must have the same length")
    return state * np.exp(-1j * gamma * cost_diagonal)


def _xy_sweep(amps: np.ndarray, plan, cos2: np.ndarray, sin2: np.ndarray, steps: int) -> None:
    """Apply `steps` rounds of XY rotations in place to every column of amps.

    amps is (rows, batch) of real amplitudes; plan holds (pair, gate) entries, pair
    stacking a gate's rows u with the support bit cleared over their partners v;
    cos2 and sin2 are (gates, batch), so column k rotates by its own angles. Each
    gate maps (u, v) to (c u + s v, c v - s u): one gather, one rotation, one scatter.
    """
    signed = np.stack((sin2, -sin2), axis=1)[:, :, None]  # (gates, 2, 1, batch): s, then -s
    for _ in range(steps):
        for pair, idx in plan:
            uv = amps.take(pair, axis=0)
            amps[pair] = cos2[idx] * uv + signed[idx] * uv[::-1]


@lru_cache(maxsize=8)
def _trotter_plan(family: PermutationFamily) -> tuple[np.ndarray, tuple]:
    """The seed's Hamming-weight sector, which every XY gate preserves, and per
    transposition its (pair, gain index): the sector rows whose bits differ from the
    seed's at both of its positions, stacked over their partners, those rows xor its mask."""
    n, seed = family.n, bits_to_index(family.seed)
    rows = np.arange(1 << n, dtype=np.int64)
    rows = rows[np.bitwise_count(rows) == sum(family.seed)]
    plan = []
    for idx, (tau, mask) in enumerate(zip(family.permutations, family.masks.tolist())):
        if seed & mask in (0, mask):
            raise ValueError(f"transposition {tau} must swap a support bit with a complement bit")
        moved = rows[((rows ^ seed) & mask) == mask]
        plan.append((np.searchsorted(rows, np.stack((moved, moved ^ mask))), idx))
    return rows, tuple(plan)


def _xy_rotations(family: PermutationFamily, sharpnesses, times, steps: int):
    """Per-gate cos(2 theta) and sin(2 theta) of one product-formula step, as (gates,
    batch) tables with one column per (sharpness, time)."""
    gains = np.asarray(family.cost_gains, dtype=np.float64)[:, None]
    angles = sigmoid_weight(gains, sharpnesses) * (np.asarray(times) / (2.0 * steps))
    return np.cos(2 * angles), np.sin(2 * angles)


def ctqw_trotter_xy(
    family: PermutationFamily, times, sharpnesses, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Product-formula walks from the family's seed, one column per (time, sharpness).

    Applies the XY rotations of every transposition with angle w*t/(2N), in the
    family's round order, repeated N times; the deviation from the exact walk
    scales as t^2/N. Returns the seed's Hamming-weight sector as basis indices,
    and real amplitudes r on it as a (sector, batch) float64 array: the walk
    amplitude of x is i^k r, k being the number of swaps from the seed to x,
    and every amplitude outside the sector is exactly zero.
    """
    if family.kind != "transposition":
        raise ValueError("trotterized XY walk requires a transposition family")
    rows, plan = _trotter_plan(family)
    amps = np.zeros((rows.size, len(times)))
    amps[np.searchsorted(rows, bits_to_index(family.seed))] = 1.0
    _xy_sweep(amps, plan, *_xy_rotations(family, sharpnesses, times, steps), steps)
    return rows, amps


def apply_rank1_mixer(state: np.ndarray, psi: np.ndarray, beta: float) -> np.ndarray:
    """Apply e^{-i beta |psi><psi|} exactly via the rank-1 update."""
    if psi.shape != state.shape:
        raise ValueError("psi and state must have the same length")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"psi must be normalized, got norm {norm}")
    overlap = np.sum(np.conj(psi) * state)  # not np.vdot: BLAS may split its sum by thread count
    return state + (np.exp(-1j * beta) - 1.0) * overlap * psi


def _hypercube_factors(bits: np.ndarray, weights: np.ndarray, time: float):
    """Each qubit's (lo, hi) walk factors (cos(w_j t), sin(w_j t)), swapped where z_j = 1,
    as two lists of floats."""
    angles = weights * time
    cos, sin = np.cos(angles), np.sin(angles)
    return np.where(bits == 0, cos, sin).tolist(), np.where(bits == 0, sin, cos).tolist()


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
    for j, (lo, hi) in enumerate(zip(*_hypercube_factors(bits, weights, time))):
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
    lows, highs = _hypercube_factors(bits, weights, time)
    grad = np.empty(len(bits))
    for j in range(len(bits) - 1, -1, -1):
        lo, hi = lows[j], highs[j]
        size = 1 << j
        lam = adj[2 * size : 4 * size].reshape(size, 2)
        dlo, dhi = tape[size : 2 * size] @ lam
        np.dot(lam, np.array([lo, hi]), out=adj[size : 2 * size])
        # cos' = -sin and sin' = cos: (lo, hi)' is (-hi, lo), or (hi, -lo) where z_j = 1.
        grad[j] = lo * dhi - hi * dlo if bits[j] == 0 else hi * dlo - lo * dhi
    return grad


# i^k for k = 0..3: the phase of a walk amplitude k permutations from the seed.
_I_POWERS = np.array([1, 1j, -1, -1j])


def cbqoa_initial_state(
    family: PermutationFamily, walk: WalkParams, config: CircuitConfig = CircuitConfig()
) -> np.ndarray:
    """Walk state e^{iAt}|z> from the family's seed z: exact for hypercube families,
    trotterized for XY. Either walk gives real amplitudes r (zero where it does not
    reach), and the amplitude of x is i^k r, k = popcount(x xor z) / len(tau) steps
    from z."""
    size = 1 << family.n
    if family.kind == "bit_flip":
        weights = family.weights(walk.sharpness)
        real = _hypercube_product(as_bits(family.seed), weights, walk.time, np.empty(2 * size))
    else:
        rows, amps = ctqw_trotter_xy(family, [walk.time], [walk.sharpness], config.trotter_steps)
        real = np.zeros(size)
        real[rows] = amps[:, 0]
    flips = np.bitwise_count(np.arange(size) ^ bits_to_index(family.seed))
    k = flips // len(family.permutations[0])  # a bit flip changes one bit, a swap two
    return _I_POWERS[k & 3] * real


def _apply_layers(psi: np.ndarray, cost_diagonal: np.ndarray, params: AnsatzParams) -> np.ndarray:
    """psi under the layers of params, each a phase separation then a reflection about psi."""
    state = psi
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
    return _apply_layers(psi, cost_summary(instance).diagonal, params)


def gm_qaoa_ansatz(instance: ProblemInstance, params: AnsatzParams) -> np.ndarray:
    """Baseline ansatz: uniform feasible start, reflections about that start."""
    psi = uniform_feasible_state(instance)
    return _apply_layers(psi, cost_summary(instance).diagonal, params)

