"""Permutation families, sigmoid edge weights, and the feasibility graph.

A family is a set of order-2 local permutations whose induced graph connects
the feasible strings: single-bit flips for unconstrained problems (the
weighted hypercube), and transpositions between the seed's support and its
complement for balanced-partition problems. Each permutation carries a weight
that is a sigmoid of the cost improvement it produces on the seed, so walks
drift toward better neighbors for positive sharpness.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .problems import ProblemInstance, as_bits, bits_to_index, cost_summary, is_feasible


def permute_indices(tau: tuple[int, ...], indices: np.ndarray, n: int) -> np.ndarray:
    """Image of basis indices under a local permutation (vectorized): a flip of bit i
    for tau = (i,), a swap of bits a and b for tau = (a, b), 1-based positions."""
    if not all(1 <= i <= n for i in tau):
        raise ValueError(f"permutation positions {tau} out of range 1..{n}")
    if len(tau) == 1:
        (i,) = tau
        return indices ^ (1 << (n - i))
    a, b = tau
    place_a = 1 << (n - a)
    place_b = 1 << (n - b)
    bit_a = (indices & place_a) != 0
    bit_b = (indices & place_b) != 0
    return np.where(bit_a == bit_b, indices, indices ^ (place_a | place_b))


@dataclass(frozen=True)
class WalkParams:
    """Continuous-time walk parameters: evolution time and weight sharpness."""

    time: float
    sharpness: float

    def __post_init__(self):
        if not (np.isfinite(self.time) and np.isfinite(self.sharpness)):
            raise ValueError("walk parameters must be finite")


@dataclass(frozen=True)
class PermutationFamily:
    """Permutations, each the tuple of 1-based positions it acts on, plus the
    per-permutation cost improvement on the seed."""

    n: int
    permutations: tuple[tuple[int, ...], ...]
    cost_gains: tuple[float, ...]  # f(z) - f(tau(z)) per permutation
    seed: tuple[int, ...]

    def __post_init__(self):
        if len(self.permutations) != len(self.cost_gains):
            raise ValueError("one cost gain per permutation required")
        if len(self.seed) != self.n or not set(self.seed) <= {0, 1}:
            raise ValueError(f"seed must be {self.n} bits, each 0 or 1")

    @property
    def kind(self) -> str:
        pairs = self.permutations and len(self.permutations[0]) == 2
        return "transposition" if pairs else "bit_flip"

    def weights(self, sharpness: float) -> np.ndarray:
        return sigmoid_weight(np.asarray(self.cost_gains, dtype=np.float64), sharpness)


def sigmoid_weight(cost_gain, sharpness):
    """Edge weight 1 / (1 + exp(-gain * sharpness)), overflow-safe."""
    x = np.asarray(cost_gain, dtype=np.float64) * np.asarray(sharpness, dtype=np.float64)
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def build_family(instance: ProblemInstance, z) -> PermutationFamily:
    """Permutation family for the instance, anchored at the feasible seed z.

    Max 3SAT gets the n single-bit flips; Max Bisection gets every
    transposition between the seed's support and its complement, stored in
    rounds that pair disjoint qubits (round k pairs support position i with
    complement position i+k cyclically) so product formulas can apply each
    round in parallel.
    """
    bits = as_bits(z, instance.n)
    if not is_feasible(instance, bits):
        raise ValueError("family seed must be feasible")
    n = instance.n
    if instance.kind == "max3sat":
        perms = [(i,) for i in range(1, n + 1)]
    else:
        inside = [int(j) + 1 for j in np.flatnonzero(bits)]
        outside = [int(j) + 1 for j in np.flatnonzero(1 - bits)]
        half = n // 2
        perms = [
            (inside[i], outside[(i + k) % half])
            for k in range(half)
            for i in range(half)
        ]
    seed = np.array([bits_to_index(bits)], dtype=np.int64)
    images = np.concatenate([permute_indices(tau, seed, n) for tau in perms])
    diagonal = cost_summary(instance).diagonal
    gains = tuple((diagonal[seed[0]] - diagonal[images]).tolist())
    return PermutationFamily(
        n=n, permutations=tuple(perms), cost_gains=gains, seed=tuple(int(b) for b in bits)
    )

