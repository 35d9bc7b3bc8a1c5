"""Classical seed generation: vector-program relaxations plus randomized rounding.

Both relaxations are solved directly in their unit-vector form (full rank, so
the factorized problem has no spurious rank-induced optima at this scale) by
projected first-order ascent, renormalizing rows after every step; that is
also exactly the form the rounding procedures consume. The Max 3SAT path is
the clause-relaxation / random-hyperplane scheme; the Max Bisection path is
the balanced relaxation with the random-projection, randomized-rounding
procedure and its greedy rebalancing step.

Each ascent step sums its gradient with one ``np.bincount`` (``_scatter``) in the
listed order, which is part of the result: the relaxations are invariant under a
common rotation, so another order sends the iterates elsewhere. Max Bisection makes
its positions once and gathers each iterate's edge-end rows once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import Max3SatInstance, MaxBisectionInstance, ProblemInstance
from .problems import _clause_arrays, _edge_arrays, bits_to_index, cost_summary

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
    balance_residual: float | None = None


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.sqrt(np.add.reduce(matrix * matrix, axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Max 3SAT relaxation


# Literal slots (f, g, h) of the pairing expressions (v0 + l_f) . (l_g + l_h), a column each.
_SLOTS = np.array(((0, 1, 2), (1, 0, 2), (2, 0, 1))).T


def _scatter(positions: np.ndarray, terms: np.ndarray, shape) -> np.ndarray:
    """Sum terms (read flat in order) into np.zeros(shape) at the flat positions.

    bincount adds each position's terms one after another from +0.0, as
    ``np.add.at`` does. That running sum is never -0.0, so a row summed
    beforehand and listed as one term adds as it would onto the array.
    """
    return np.bincount(positions, terms.ravel(), minlength=shape[0] * shape[1]).reshape(shape)


class _AdamAscent:
    """Adam-style ascent step of size STEP_SIZE with a late small-step polish phase."""

    def __init__(self, shape, total_steps: int):
        self.m, self.v = np.zeros(shape), np.zeros(shape)
        self.total, self.t = total_steps, 0

    def step(self, V: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * grad * grad
        m_hat = self.m / (1 - 0.9**self.t)
        v_hat = self.v / (1 - 0.999**self.t)
        lr = STEP_SIZE if self.t < 0.7 * self.total else 0.05 * STEP_SIZE
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

    At pairing m a clause adds -w (l_g + l_h) / 4 at v_0 and l_f and -w (v_0 + l_f) / 4
    at l_g and l_h. Pairing by pairing, the gradient lists v_0's sum of its first
    terms, then the l_f, l_g and l_h terms, each in clause order.
    """
    dim = instance.num_vars + 1
    V = _normalize_rows(np.random.default_rng(cfg.rng_seed).standard_normal((dim, dim)))
    rows, signs, weights = _clause_arrays(instance)  # negated literals are -v_i
    total_weight = float(weights.sum())
    optimizer = _AdamAscent(V.shape, cfg.iterations)

    lit_rows, lit_signs = rows.T[_SLOTS], signs.T[_SLOTS]  # (f/g/h, pairing, clause)
    signed = lit_rows + dim * (lit_signs < 0)  # rows of [V, -V, v_0 + V, v_0 - V]
    gather = np.stack([signed[1], signed[0] + 2 * dim, signed[2]])  # l_g, v_0 + l_f, l_h
    # Per (pairing, clause), repeated along the row: -w times 1, s_f, s_g and s_h.
    coef = -weights * np.stack([np.ones_like(lit_signs[0]), *lit_signs])
    coef = np.repeat(coef.reshape(2, 2, -1, 1), dim, axis=3)
    cols = np.arange(dim)  # the flat positions of v_0
    at = lit_rows.reshape(3, -1, 1) * dim + cols
    candidates = np.ones((4, rows.shape[0]))  # row 0: the clamp at 1

    best_obj, best_V, history = -np.inf, V.copy(), []
    for _ in range(cfg.iterations):
        table = np.concatenate([V, -V])
        lits = np.take(np.concatenate([table, V[0] + table]), gather, axis=0)
        pair = lits[:2]  # l_g + l_h, written over l_g, and v_0 + l_f
        np.add(lits[0], lits[2], out=pair[0])
        r = np.einsum("mcd,mcd->mc", pair[1], pair[0], out=candidates[1:])
        np.divide(np.subtract(4.0, r, out=r), 4.0, out=r)
        obj = float(np.dot(weights, candidates.min(axis=0)))
        if obj > best_obj:
            best_obj, best_V = obj, V.copy()
        history.append(best_obj)
        if best_obj >= total_weight * (1.0 - 1e-9):
            break

        # Flat (pairing, clause) positions of the clauses off the clamp, by pairing.
        active = np.flatnonzero(candidates.argmin(axis=0) == np.arange(1, 4)[:, None])
        bounds = np.searchsorted(active, np.arange(4) * len(weights))
        operands = np.take(pair.reshape(2, -1, dim), active, axis=1)[:, None]
        terms = (np.take(coef, active, axis=2) * operands * 0.25).reshape(4, -1, dim)  # as / 4
        positions = np.take(at, active, axis=1)
        listed, where = [], []
        for lo, hi in zip(bounds, bounds[1:]):
            listed += [terms[0, lo:hi].sum(axis=0), terms[1:, lo:hi]]
            where += [cols, positions[:, lo:hi]]
        flat = (np.concatenate(parts, axis=None) for parts in (where, listed))
        V = optimizer.step(V, _scatter(*flat, V.shape))

    quarter = max(1, len(history) // 4)
    stalled = best_obj - history[-quarter] <= 1e-6 * max(1.0, abs(best_obj))
    converged = best_obj >= total_weight * (1.0 - 1e-9) or stalled
    best_V[0] = -best_V[0]
    return UnitVectorSet(vectors=best_V, objective=best_obj, converged=converged)


def kz_round_batch(vectors: UnitVectorSet, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Vectorized hyperplane roundings, one assignment per row."""
    V = vectors.vectors
    proj = rng.standard_normal((trials, V.shape[1])) @ V.T  # a hyperplane per row; column 0: v_0
    return ((proj[:, 1:] * proj[:, :1]) >= 0).astype(np.uint8)


# ---------------------------------------------------------------------------
# Max Bisection relaxation


def solve_fl_sdp(instance: MaxBisectionInstance, cfg: SdpConfig = SdpConfig()) -> UnitVectorSet:
    """Maximize the relaxed cut subject to the balance constraint sum v_i = 0.

    The balance constraint is enforced as a quadratic penalty on |sum v_i|^2 whose
    coefficient doubles whenever a round of iterations ends with the residual
    |sum v_i| above half the target; the solve takes 5 rounds of max(1, iterations // 5)
    steps. The best balanced-enough iterate is returned, along with the residual. The
    gradient lists every row's penalty term, then each edge's term at its a end, then at
    its b end, at positions made once. The cut and the next step share one gather of
    each iterate's edge-end rows.
    """
    n = instance.num_vertices
    dim = n + 1
    V = _normalize_rows(np.random.default_rng(cfg.rng_seed).standard_normal((n, dim)))
    a_idx, b_idx, weights = _edge_arrays(instance)

    target, penalty = BALANCE_TOLERANCE * np.sqrt(n), BALANCE_PENALTY
    rounds = 5
    per_round = max(1, cfg.iterations // rounds)
    optimizer = _AdamAscent(V.shape, cfg.iterations)

    ends = np.concatenate([b_idx, a_idx])  # the row each edge term reads, V[b] at a first
    positions = (np.r_[:n, a_idx, b_idx][:, None] * dim + np.arange(dim)).ravel()
    half_weights, terms = np.tile(-0.5 * weights, 2)[:, None], np.empty((n + len(ends), dim))
    penalty_rows, edge_rows = terms[:n], terms[n:]  # edge_rows is V[ends] between steps
    at_b, at_a = np.split(edge_rows, 2)

    def cut_objective() -> float:
        return float(0.5 * np.dot(weights, 1.0 - np.einsum("ed,ed->e", at_a, at_b)))

    best_obj, best_V, best_residual = -np.inf, None, np.inf
    residual_vec = V.sum(axis=0)
    np.take(V, ends, axis=0, out=edge_rows, mode="clip")  # ends are in range; clip is unbuffered
    for _ in range(rounds):
        for _ in range(per_round):
            penalty_rows[:] = -2.0 * penalty * residual_vec
            edge_rows *= half_weights
            V = optimizer.step(V, _scatter(positions, terms, V.shape))
            np.take(V, ends, axis=0, out=edge_rows, mode="clip")
            residual_vec = V.sum(axis=0)
            residual = float(np.sqrt(residual_vec.dot(residual_vec)))
            if residual <= target:
                obj = cut_objective()
                if obj > best_obj:
                    best_obj, best_V, best_residual = obj, V.copy(), residual
        if residual > 0.5 * target:
            penalty *= 2.0

    if best_V is None:  # never balanced enough: the last iterate, not converged
        return UnitVectorSet(V, cut_objective(), False, residual)
    return UnitVectorSet(best_V, best_obj, True, best_residual)


def s_linear(x):
    """Piecewise-linear rounding probability: 0 below -s, 1 above s, linear between,
    for s = S_LINEAR."""
    return np.clip(0.5 + np.asarray(x, dtype=np.float64) / (2.0 * S_LINEAR), 0.0, 1.0)


def _adjacency_matrix(instance: MaxBisectionInstance) -> np.ndarray:
    a, b, weights = _edge_arrays(instance)
    W = np.zeros((instance.num_vertices,) * 2, dtype=np.float64)
    W[a, b] = W[b, a] = weights
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
    return (solve_kz_sdp if instance.kind == "max3sat" else solve_fl_sdp)(instance, cfg)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")


def round_batch(
    instance: ProblemInstance,
    vectors: UnitVectorSet,
    rng: np.random.Generator,
    trials: int,
) -> np.ndarray:
    _check_trials(trials)
    if instance.kind == "max3sat":
        return kz_round_batch(vectors, rng, trials)
    return fl_round_batch(instance, vectors, rng, trials)


def rounding_costs(instance: ProblemInstance, assignments: np.ndarray) -> np.ndarray:
    """Cost of each rounded assignment (rows of bits), read from the cost table."""
    return cost_summary(instance).diagonal[bits_to_index(assignments)]

