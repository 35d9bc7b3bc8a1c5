"""Accelerated ansatz simulation by cost binning.

The layer unitaries depend on the cost only through the phase it applies, so
after rounding every cost to the midpoint of one of M uniform bins, the state
stays inside the span of M fixed unit vectors (one per bin) for the whole
circuit. The simulation then reduces to a recursion on the M complex
coefficients: each layer applies the binned phases and adds the rank-1 mixing
correction through a single shared inner product, costing O(M) per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulate import AnsatzParams


@dataclass(frozen=True)
class CostBinning:
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


def bin_costs(cost_diagonal: np.ndarray, support: np.ndarray, num_bins: int) -> CostBinning:
    """Partition the support's cost values into num_bins uniform bins.

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
    return CostBinning(
        lower=lower,
        upper=upper,
        num_bins=num_bins,
        support=support,
        bin_index=index,
        bin_costs=midpoints,
    )


def eta_from_state(psi: np.ndarray, binning: CostBinning) -> np.ndarray:
    """Bin amplitudes of a normalized state: sqrt of the probability per bin.

    These real amplitudes are the base of the layer recursion: the state is
    sum_j base_j |psi_j>, with |psi_j> the normalized part of psi in bin j.
    """
    probs = np.abs(psi[binning.support]) ** 2
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"state mass on the binned support is {total}, expected 1")
    per_bin = np.bincount(binning.bin_index, weights=probs, minlength=binning.num_bins)
    return np.sqrt(per_bin)


def evolve_binned(base: np.ndarray, binning: CostBinning, params: AnsatzParams) -> np.ndarray:
    """Bin coefficients after every (gamma, beta) layer, starting from coeffs = base.

    coeffs_j <- coeffs_j * e^{-i c_j gamma} + (e^{-i beta} - 1) * base_j * S,
    with S = sum_k base_k * coeffs_k * e^{-i c_k gamma} shared across bins.
    """
    if base.size != binning.num_bins:
        raise ValueError("bin amplitudes do not match binning size")
    coeffs = base.astype(np.complex128)
    for beta, gamma in zip(params.betas, params.gammas):
        phased = coeffs * np.exp(-1j * gamma * binning.bin_costs)
        shared = np.dot(base, phased)
        coeffs = phased + (np.exp(-1j * beta) - 1.0) * shared * base
    return coeffs


def binned_distribution(coeffs: np.ndarray, binning: CostBinning) -> list[tuple[float, float]]:
    """Probability of each bin midpoint cost: (cost, |coeff|^2) pairs."""
    probs = np.abs(coeffs) ** 2
    return [(float(c), float(p)) for c, p in zip(binning.bin_costs, probs)]

