"""Permutation families, sigmoid edge weights, and the feasibility graph.

A family is a set of order-2 local permutations whose induced graph connects
the feasible strings: single-bit flips for unconstrained problems (the
weighted hypercube), and transpositions between the seed's support and its
complement for balanced-partition problems. Each permutation carries a weight
that is a sigmoid of the cost improvement it produces on the seed, so walks
drift toward better neighbors for positive sharpness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from .problems import ProblemInstance, as_bits, bits_to_index, cost_summary, is_feasible


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
        if not all(1 <= i <= self.n for tau in self.permutations for i in tau):
            raise ValueError(f"permutation positions out of range 1..{self.n}")

    @property
    def kind(self) -> str:
        pairs = self.permutations and len(self.permutations[0]) == 2
        return "transposition" if pairs else "bit_flip"

    @property
    def masks(self) -> np.ndarray:
        """Per permutation, the bits it flips: the OR of 1 << (n - i) over its positions i."""
        return np.array([sum(1 << (self.n - i) for i in tau) for tau in self.permutations])

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
    family = PermutationFamily(n, tuple(perms), (0.0,) * len(perms), tuple(bits.tolist()))
    seed, diagonal = bits_to_index(bits), cost_summary(instance).diagonal
    gains = diagonal[seed] - diagonal[seed ^ family.masks]  # a swap of two unequal bits flips both
    return replace(family, cost_gains=tuple(gains.tolist()))
