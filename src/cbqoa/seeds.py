"""Classical seed generation: vector-program relaxations plus randomized rounding.

Both relaxations are solved directly in their unit-vector form (full rank, so
the factorized problem has no spurious rank-induced optima at this scale) by
projected first-order ascent, renormalizing rows after every step; that is
also exactly the form the rounding procedures consume. The Max 3SAT path is
the clause-relaxation / random-hyperplane scheme; the Max Bisection path is
the balanced relaxation with the random-projection, randomized-rounding
procedure and its greedy rebalancing step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import (
    Max3SatInstance,
    MaxBisectionInstance,
    ProblemInstance,
    _clause_arrays,
    cost_summary,
)

S_LINEAR = 0.605
BALANCE_TOLERANCE = 0.05  # final |sum v_i| <= 0.05 * sqrt(n)
STEP_SIZE = 0.1  # ascent learning rate
BALANCE_PENALTY = 10.0  # initial coefficient of the |sum v_i|^2 penalty


@dataclass(frozen=True)
class SdpConfig:
    iterations: int = 2000
    rng_seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")


@dataclass
class UnitVectorSet:
    """Solved relaxation vectors plus solve metadata.

    For Max 3SAT the rows are v_0, v_1, ..., v_n and the vector of the negated
    literal n+i is -v_i; v_0 is oriented so that an assignment bit is 1 when
    its vector lands on the same side of a random hyperplane as v_0. For Max
    Bisection the rows are v_1, ..., v_n. ``objective`` is the relaxation
    value achieved by the solve.
    """

    vectors: np.ndarray
    objective: float
    converged: bool
    balance_residual: Optional[float] = None


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Max 3SAT relaxation


# Literal slots (f, g, h) of the three pairing expressions (v0 + l_f) . (l_g + l_h).
_PAIRINGS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def _kz_relaxed_values(V: np.ndarray, rows, signs):
    """Per-clause relaxed values min(1, r1, r2, r3), the stacked candidates, and
    each pairing's (v0 + l_f, l_g + l_h) rows."""
    lit = signs[:, :, None] * V[rows]  # (clauses, 3, dim)
    r = np.empty((3, rows.shape[0]), dtype=np.float64)
    sums = []
    for m, (f, g, h) in enumerate(_PAIRINGS):
        sums.append((V[0] + lit[:, f], lit[:, g] + lit[:, h]))
        r[m] = (4.0 - np.einsum("cd,cd->c", *sums[-1])) / 4.0
    candidates = np.vstack([np.ones(rows.shape[0]), r])
    return candidates.min(axis=0), candidates, sums


class _AdamAscent:
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
        return _normalize_rows(V + lr * m_hat / (np.sqrt(v_hat) + 1e-8))


def solve_kz_sdp(instance: Max3SatInstance, cfg: SdpConfig = SdpConfig()) -> UnitVectorSet:
    """Maximize the clause relaxation over unit vectors by projected ascent.

    The auxiliary per-clause variables are eliminated by taking the minimum of
    the three pairing expressions and 1 (tight at any maximizer); ties pick the
    first branch of the minimum. Rows are renormalized after every step and
    the best iterate is kept. The returned set has v_0 flipped relative to the
    solve so that same-side hyperplane rounding recovers satisfying
    assignments (the relaxation expressions pin satisfied literal vectors to
    the opposite pole of v_0).
    """
    n = instance.num_vars
    dim = n + 1
    rng = np.random.default_rng(cfg.rng_seed)
    V = _normalize_rows(rng.standard_normal((n + 1, dim)))
    rows, signs, weights = _clause_arrays(instance)  # negated literals are -v_i
    total_weight = float(weights.sum())
    optimizer = _AdamAscent(V.shape, STEP_SIZE, cfg.iterations)

    best_obj = -np.inf
    best_V = V.copy()
    history = []
    for _ in range(cfg.iterations):
        values, candidates, sums = _kz_relaxed_values(V, rows, signs)
        obj = float(np.dot(weights, values))
        if obj > best_obj:
            best_obj = obj
            best_V = V.copy()
        history.append(best_obj)
        if best_obj >= total_weight * (1.0 - 1e-9):
            break

        active = np.argmin(candidates, axis=0)  # 0 = clamped at 1, zero gradient
        grad = np.zeros_like(V)
        for m, ((f, g, h), (first, second)) in enumerate(zip(_PAIRINGS, sums), start=1):
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


def kz_round_batch(vectors: UnitVectorSet, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Vectorized hyperplane roundings, one assignment per row."""
    V = vectors.vectors
    directions = rng.standard_normal((trials, V.shape[1]))
    proj = directions @ V.T  # column 0 is v . v_0
    return ((proj[:, 1:] * proj[:, :1]) >= 0).astype(np.uint8)


# ---------------------------------------------------------------------------
# Max Bisection relaxation


def solve_fl_sdp(instance: MaxBisectionInstance, cfg: SdpConfig = SdpConfig()) -> UnitVectorSet:
    """Maximize the relaxed cut subject to the balance constraint sum v_i = 0.

    The balance constraint is enforced as a quadratic penalty on |sum v_i|^2
    whose coefficient doubles whenever a round of iterations ends off target.
    The best balanced-enough iterate is returned, along with the residual.
    """
    n = instance.num_vertices
    dim = n + 1
    rng = np.random.default_rng(cfg.rng_seed)
    V = _normalize_rows(rng.standard_normal((n, dim)))
    a_idx = np.array([a - 1 for a, _, _ in instance.edges], dtype=np.int64)
    b_idx = np.array([b - 1 for _, b, _ in instance.edges], dtype=np.int64)
    weights = np.array([w for _, _, w in instance.edges], dtype=np.float64)

    target = BALANCE_TOLERANCE * np.sqrt(n)
    penalty = BALANCE_PENALTY
    rounds = 5
    per_round = max(1, cfg.iterations // rounds)
    optimizer = _AdamAscent(V.shape, STEP_SIZE, cfg.iterations)

    def cut_objective(M: np.ndarray) -> float:
        dots = np.einsum("ed,ed->e", M[a_idx], M[b_idx])
        return float(0.5 * np.dot(weights, 1.0 - dots))

    best_obj = -np.inf
    best_V = None
    best_residual = np.inf
    for _ in range(rounds):
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

    converged = best_V is not None
    if best_V is None:
        best_V = V
        best_obj = cut_objective(V)
        best_residual = residual
    return UnitVectorSet(
        vectors=best_V, objective=best_obj, converged=converged, balance_residual=best_residual
    )


def s_linear(x):
    """Piecewise-linear rounding probability: 0 below -s, 1 above s, linear between,
    for s = S_LINEAR."""
    out = np.clip(0.5 + np.asarray(x, dtype=np.float64) / (2.0 * S_LINEAR), 0.0, 1.0)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _adjacency_matrix(instance: MaxBisectionInstance) -> np.ndarray:
    n = instance.num_vertices
    W = np.zeros((n, n), dtype=np.float64)
    for a, b, w in instance.edges:
        W[a - 1, b - 1] = w
        W[b - 1, a - 1] = w
    return W


def _rebalance(included: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Trim each row's larger side to exactly n/2 members, keeping the best-connected.

    Members are ranked by their total edge weight into the smaller side,
    descending, with vertex order breaking ties. Vectorized over rows.
    """
    trials, n = included.shape
    half = n // 2
    side = np.where(included.sum(axis=1, keepdims=True) >= half, included, ~included)
    pull = (~side).astype(np.float64) @ W  # row t, col i: weight from i into the smaller side
    scores = np.where(side, pull, -np.inf)
    order = np.argsort(-scores, axis=1, kind="stable")
    bits = np.zeros((trials, n), dtype=np.uint8)
    np.put_along_axis(bits, order[:, :half], 1, axis=1)
    return bits


def fl_round_batch(
    instance: MaxBisectionInstance,
    vectors: UnitVectorSet,
    rng: np.random.Generator,
    trials: int,
) -> np.ndarray:
    """Roundings as rows; every row has Hamming weight exactly n/2.

    Gaussian projections and inclusion draws come from two spawned child
    streams so that longer batches extend shorter ones from the same state.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    V = vectors.vectors
    n = instance.num_vertices
    gauss_rng, unif_rng = rng.spawn(2)
    projections = gauss_rng.standard_normal((trials, V.shape[1])) @ V.T
    draws = unif_rng.random((trials, n))
    included = draws < s_linear(projections)
    return _rebalance(included, _adjacency_matrix(instance))


# ---------------------------------------------------------------------------
# Dispatch by problem kind


def solve_relaxation(instance: ProblemInstance, cfg: SdpConfig = SdpConfig()) -> UnitVectorSet:
    if instance.kind == "max3sat":
        return solve_kz_sdp(instance, cfg)
    return solve_fl_sdp(instance, cfg)


def round_batch(
    instance: ProblemInstance,
    vectors: UnitVectorSet,
    rng: np.random.Generator,
    trials: int,
) -> np.ndarray:
    if instance.kind == "max3sat":
        return kz_round_batch(vectors, rng, trials)
    return fl_round_batch(instance, vectors, rng, trials)


def rounding_costs(instance: ProblemInstance, assignments: np.ndarray) -> np.ndarray:
    """Cost of each rounded assignment (rows of bits), read from the cost table."""
    places = 1 << np.arange(instance.n - 1, -1, -1, dtype=np.int64)
    return cost_summary(instance).diagonal[assignments.astype(np.int64) @ places]

