"""Accelerated ansatz simulation by cost binning.

The layer unitaries depend on the cost only through the phase it applies, so
with every cost phased by that of its bin, the state stays inside the span of M
fixed unit vectors (one per bin) for the whole circuit. The bins are the
distinct costs when at most M occur, which is exact, and M uniform bins
otherwise. The simulation then reduces to a recursion on the M complex
coefficients: each layer applies the binned phases and adds the rank-1 mixing
correction through a single shared inner product, costing O(M) per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulate import AnsatzParams


@dataclass(frozen=True)
class CostBinning:
    """Cost bins on a fixed support: one per distinct cost (level bins, of width 0),
    or num_bins uniform bins of width (upper - lower) / num_bins."""

    lower: float  # inclusive lower edge (min cost on the support)
    upper: float  # max cost for level bins; exclusive upper edge for uniform ones
    width: float
    support: np.ndarray  # basis indices covered by the binning
    bin_index: np.ndarray  # bin of each support element
    bin_costs: np.ndarray  # the cost each bin phases with: its level or its midpoint

    @property
    def num_bins(self) -> int:
        return self.bin_costs.size


def bin_costs(cost_diagonal: np.ndarray, support: np.ndarray, num_bins: int) -> CostBinning:
    """Bin the support's costs: one level bin per distinct cost if at most num_bins
    occur, else num_bins uniform bins. Level bins are exact up to float rounding,
    so criterion 6's error bound p * width * span / alpha reads 0. Uniform bins get a
    margin above the top cost (and a clamp on the bin index, for costs so far from zero
    that it rounds away); every cost sits within half a bin width of its bin midpoint.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    support = np.asarray(support, dtype=np.int64)
    if support.size == 0:
        raise ValueError("support must be non-empty")
    values = np.asarray(cost_diagonal, dtype=np.float64)[support]
    ordered = np.sort(values)
    lower, top = float(ordered[0]), float(ordered[-1])
    fresh = np.r_[True, ordered[1:] != ordered[:-1]]
    if np.count_nonzero(fresh) <= num_bins:
        levels = ordered[fresh]
        return CostBinning(lower, top, 0.0, support, np.searchsorted(levels, values), levels)
    upper = top + max(top - lower, 1.0) * 1e-12
    width = (upper - lower) / num_bins
    index = np.minimum((values - lower) // width, num_bins - 1).astype(np.int64)
    midpoints = lower + (np.arange(num_bins) + 0.5) * width
    return CostBinning(lower, upper, width, support, index, midpoints)


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
    """Bin coefficients after every (gamma, beta) layer: _evolve_rows on one row."""
    if base.size != binning.num_bins:
        raise ValueError("bin amplitudes do not match binning size")
    rows = np.array([params.betas, params.gammas], dtype=np.float64)[:, None, :]
    return _evolve_rows(base, binning.bin_costs, *rows)[0][0]


def _matvec(rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """rows @ vector by gemv even for one row, which numpy hands to dot (another sum order)."""
    return rows @ vector if len(rows) > 1 else (np.concatenate([rows, rows]) @ vector)[:1]


def _evolve_rows(base: np.ndarray, costs: np.ndarray, betas: np.ndarray, gammas: np.ndarray):
    """The layer recursion from x_0 = base on R rows of (betas, gammas), each (R, p):
    phi_l = D_l x_{l-1} with D_l = e^{-i gamma_l c}, S_l = base . phi_l shared across
    bins, m_l = e^{-i beta_l} - 1 and x_l = phi_l + m_l S_l base, O(M) per layer.
    Returns the (R, M) coefficients x_p and the tape (D_l, phi_l, S_l, m_l) per layer.
    """
    coeffs = np.tile(base.astype(np.complex128), (len(betas), 1))
    tape = []
    for beta, gamma in zip(betas.T, gammas.T):
        phases = np.exp(-1j * gamma[:, None] * costs)
        phi = coeffs * phases
        shared = _matvec(phi, base)
        mix = np.exp(-1j * beta) - 1.0
        coeffs = phi + (mix * shared)[:, None] * base
        tape.append((phases, phi, shared, mix))
    return coeffs, tape


def _evolve_rows_adjoint(base: np.ndarray, costs: np.ndarray, tape: list, lam: np.ndarray):
    """(R, p) gradients of L over betas and gammas, back through _evolve_rows' tape
    (Jones and Gacon, arXiv:2009.02823); lam = 2 dL/d conj(x_p), so 2 g x_p for
    L = sum_k g_k |x_k|^2. O(M) per layer, with no new exponential.
    """
    dbetas, dgammas = np.empty((2, len(lam), len(tape)))
    for layer in reversed(range(len(tape))):
        phases, phi, shared, mix = tape[layer]
        t = _matvec(lam, base)
        dbetas[:, layer] = (np.conj(t) * (-1j * (mix + 1.0)) * shared).real
        mu = lam + (np.conj(mix) * t)[:, None] * base
        dgammas[:, layer] = (np.conj(mu) * (-1j * costs) * phi).real.sum(axis=1)
        lam = np.conj(phases) * mu
    return dbetas, dgammas


def binned_distribution(coeffs: np.ndarray, binning: CostBinning) -> list[tuple[float, float]]:
    """Probability of each bin's cost: (cost, |coeff|^2) pairs."""
    probs = np.abs(coeffs) ** 2
    return [(float(c), float(p)) for c, p in zip(binning.bin_costs, probs)]

