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


@dataclass(frozen=True)
class LocalPermutation:
    """An order-2 permutation acting on one or two bit positions (1-based)."""

    kind: str  # "bit_flip" | "transposition"
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.kind == "bit_flip":
            if len(self.indices) != 1:
                raise ValueError("bit_flip takes exactly one index")
        elif self.kind == "transposition":
            if len(self.indices) != 2 or self.indices[0] == self.indices[1]:
                raise ValueError("transposition takes two distinct indices")
        else:
            raise ValueError(f"unknown permutation kind {self.kind!r}")
        if any(i < 1 for i in self.indices):
            raise ValueError("indices are 1-based")


def bit_flip(i: int) -> LocalPermutation:
    return LocalPermutation(kind="bit_flip", indices=(i,))


def transposition(a: int, b: int) -> LocalPermutation:
    return LocalPermutation(kind="transposition", indices=(a, b))


def permute_indices(tau: LocalPermutation, indices: np.ndarray, n: int) -> np.ndarray:
    """Image of basis indices under a local permutation (vectorized)."""
    if any(i > n for i in tau.indices):
        raise ValueError(f"permutation indices {tau.indices} out of range for n={n}")
    if tau.kind == "bit_flip":
        (i,) = tau.indices
        return indices ^ (1 << (n - i))
    a, b = tau.indices
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
    """Permutations plus the per-permutation cost improvement on the seed."""

    n: int
    permutations: tuple[LocalPermutation, ...]
    cost_gains: tuple[float, ...]  # f(z) - f(tau(z)) per permutation
    seed: tuple[int, ...]

    def __post_init__(self):
        if len(self.permutations) != len(self.cost_gains):
            raise ValueError("one cost gain per permutation required")
        if len(self.seed) != self.n or not set(self.seed) <= {0, 1}:
            raise ValueError(f"seed must be {self.n} bits, each 0 or 1")

    @property
    def size(self) -> int:
        return len(self.permutations)

    @property
    def kind(self) -> str:
        return self.permutations[0].kind if self.permutations else "bit_flip"

    def weights(self, sharpness: float) -> np.ndarray:
        return sigmoid_weight(np.asarray(self.cost_gains, dtype=np.float64), sharpness)


def sigmoid_weight(cost_gain, sharpness):
    """Edge weight 1 / (1 + exp(-gain * sharpness)), overflow-safe."""
    x = np.asarray(cost_gain, dtype=np.float64) * float(sharpness)
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    if np.ndim(cost_gain) == 0:
        return float(out)
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
        perms = [bit_flip(i) for i in range(1, n + 1)]
    else:
        inside = [int(j) + 1 for j in np.flatnonzero(bits)]
        outside = [int(j) + 1 for j in np.flatnonzero(1 - bits)]
        half = n // 2
        perms = [
            transposition(inside[i], outside[(i + k) % half])
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

