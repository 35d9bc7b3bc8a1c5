"""Binned fast simulation against the dense statevector simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbqoa import AnsatzParams, WalkParams
from cbqoa.cvar import _cvar_sorted
from cbqoa.fast_sim import (
    _evolve_rows,
    bin_costs,
    binned_distribution,
    eta_from_state,
    evolve_binned,
)
from cbqoa.mixer import build_family
from cbqoa.problems import cost_summary, feasible_indices
from cbqoa.simulate import _apply_layers, cbqoa_initial_state

from conftest import (
    basis_state,
    binned_diagonal,
    random_feasible_state,
    small_3sat,
    small_bisection,
)


def walked_state(rng, inst, seed):
    walk = WalkParams(time=float(rng.uniform(0.2, 1.0)), sharpness=float(rng.uniform(-1, 1)))
    return cbqoa_initial_state(build_family(inst, seed), walk)


def random_params(rng, depth=3):
    return AnsatzParams(
        betas=tuple(rng.uniform(-np.pi, np.pi, depth)),
        gammas=tuple(rng.uniform(-np.pi, np.pi, depth)),
    )


class TestBinCosts:
    def test_single_bin(self):
        diag = np.array([0.0, 1.0, 2.0, 3.0])
        binning = bin_costs(diag, np.arange(4), 1)
        assert np.all(binning.bin_index == 0)
        assert binning.bin_costs[0] == pytest.approx((binning.lower + binning.upper) / 2)

    def test_one_cost_per_bin(self):
        diag = np.array([0.0, 1.0, 2.0, 3.0])
        binning = bin_costs(diag, np.arange(4), 4)
        assert list(binning.bin_index) == [0, 1, 2, 3]
        assert np.all(np.abs(binning.bin_costs - diag) <= binning.width / 2 + 1e-12)

    def test_rounding_error_bound(self, rng):
        """Every cost sits within half a bin width of its midpoint."""
        for _ in range(5):
            inst = small_3sat(rng, n=8, num_clauses=25)
            diag = cost_summary(inst).diagonal
            support = np.arange(diag.size)
            binning = bin_costs(diag, support, int(rng.integers(3, 40)))
            approx = binning.bin_costs[binning.bin_index]
            assert np.max(np.abs(diag[support] - approx)) <= binning.width / 2 + 1e-12

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            bin_costs(np.zeros(4), np.array([], dtype=np.int64), 3)


class TestEtaFromState:
    def test_basis_state_point_mass(self, rng):
        inst = small_bisection(rng, n=6)
        diag = cost_summary(inst).diagonal
        feas = feasible_indices(inst)
        binning = bin_costs(diag, feas, 10)
        state = basis_state(6, "000111")
        base = eta_from_state(state, binning)
        bin_of_seed = binning.bin_index[np.where(feas == 7)[0][0]]
        expected = np.zeros(10)
        expected[bin_of_seed] = 1.0
        np.testing.assert_allclose(base, expected)

    def test_uniform_split(self):
        diag = np.array([0.0, 0.0, 10.0, 10.0])
        binning = bin_costs(diag, np.arange(4), 2)
        state = np.full(4, 0.5, dtype=np.complex128)
        base = eta_from_state(state, binning)
        np.testing.assert_allclose(base, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_unit_mass(self, rng):
        inst = small_bisection(rng, n=8)
        feas = feasible_indices(inst)
        binning = bin_costs(cost_summary(inst).diagonal, feas, 17)
        state = walked_state(rng, inst, "00001111")
        base = eta_from_state(state, binning)
        assert np.sum(base**2) == pytest.approx(1.0, abs=1e-10)


class TestEvolveBinned:
    def test_zero_params_identity(self, rng):
        inst = small_bisection(rng, n=6)
        feas = feasible_indices(inst)
        binning = bin_costs(cost_summary(inst).diagonal, feas, 12)
        base = eta_from_state(walked_state(rng, inst, "000111"), binning)
        out = evolve_binned(base, binning, AnsatzParams.zeros(4))
        np.testing.assert_allclose(out, base)

    def test_depth_zero_identity(self, rng):
        inst = small_bisection(rng, n=6)
        feas = feasible_indices(inst)
        binning = bin_costs(cost_summary(inst).diagonal, feas, 12)
        base = eta_from_state(walked_state(rng, inst, "000111"), binning)
        out = evolve_binned(base, binning, AnsatzParams(betas=(), gammas=()))
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, base)

    def test_unitarity_each_layer(self, rng):
        inst = small_3sat(rng, n=8, num_clauses=20)
        feas = feasible_indices(inst)
        binning = bin_costs(cost_summary(inst).diagonal, feas, 64)
        base = eta_from_state(walked_state(rng, inst, "00110011"), binning)
        betas, gammas = rng.uniform(-np.pi, np.pi, (2, 6))
        for depth in range(1, 7):
            params = AnsatzParams(betas=betas[:depth], gammas=gammas[:depth])
            coeffs = evolve_binned(base, binning, params)
            assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_batched_rows_match_one_row_runs(self, rng):
        """Each row of the batched pass equals evolve_binned on that row."""
        inst = small_3sat(rng, n=8, num_clauses=20)
        binning = bin_costs(cost_summary(inst).diagonal, feasible_indices(inst), 64)
        base = eta_from_state(walked_state(rng, inst, "00110011"), binning)
        for depth in (1, 3, 5):
            betas, gammas = rng.uniform(-np.pi, np.pi, (2, 7, depth))
            coeffs, tape = _evolve_rows(base, binning.bin_costs, betas, gammas)
            assert coeffs.shape == (7, 64) and len(tape) == depth
            for row, beta, gamma in zip(coeffs, betas, gammas):
                one = evolve_binned(base, binning, AnsatzParams(betas=beta, gammas=gamma))
                np.testing.assert_allclose(row, one, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        depth=st.integers(0, 5),
        num_bins=st.integers(1, 300),
    )
    def test_batched_pass_preserves_norm(self, seed, rows, depth, num_bins):
        rng = np.random.default_rng(seed)
        base = rng.random(num_bins)
        base /= np.linalg.norm(base)
        costs = np.sort(rng.uniform(-50, 50, num_bins))
        betas, gammas = rng.uniform(-np.pi, np.pi, (2, rows, depth))
        coeffs = _evolve_rows(base, costs, betas, gammas)[0]
        np.testing.assert_allclose(np.sum(np.abs(coeffs) ** 2, axis=1), 1.0, rtol=0, atol=1e-10)

    def test_size_mismatch_rejected(self, rng):
        binning = bin_costs(np.arange(4.0), np.arange(4), 3)
        with pytest.raises(ValueError):
            evolve_binned(np.full(4, 0.5), binning, AnsatzParams.zeros(1))

    def test_matches_statevector_with_binned_costs(self, rng):
        """Exact agreement when the dense simulator also phases with midpoints."""
        for _ in range(5):
            if rng.random() < 0.5:
                inst = small_bisection(rng, n=8)
                seed = "00001111"
            else:
                inst = small_3sat(rng, n=8, num_clauses=20)
                seed = "01010101"
            summary = cost_summary(inst)
            feas = feasible_indices(inst)
            binning = bin_costs(summary.diagonal, feas, int(rng.integers(5, 80)))
            psi = walked_state(rng, inst, seed)
            params = random_params(rng)
            fast = evolve_binned(eta_from_state(psi, binning), binning, params)
            dense = _apply_layers(psi.copy(), psi, binned_diagonal(binning, 1 << 8), params)
            aggregated = np.bincount(
                binning.bin_index,
                weights=np.abs(dense[feas]) ** 2,
                minlength=binning.num_bins,
            )
            tv = 0.5 * np.abs(aggregated - np.abs(fast) ** 2).sum()
            assert tv <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bisection=st.booleans(),
        n=st.integers(3, 8),
        depth=st.integers(1, 3),
        num_bins=st.integers(1, 40),
    )
    def test_coefficients_match_dense_projection(self, seed, bisection, n, depth, num_bins):
        """On midpoint costs, the dense layers keep the state in the span of the
        per-bin parts psi_j of psi, with the binned coefficients on them."""
        rng = np.random.default_rng(seed)
        if bisection:
            inst = small_bisection(rng, n=n - n % 2)
        else:
            inst = small_3sat(rng, n=n, num_clauses=int(rng.integers(1, 15)))
        summary = cost_summary(inst)
        binning = bin_costs(summary.diagonal, summary.feasible, num_bins)
        psi = random_feasible_state(rng, summary.diagonal.size, summary.feasible)
        params = random_params(rng, depth)
        fast = evolve_binned(eta_from_state(psi, binning), binning, params)
        dense = _apply_layers(psi.copy(), psi, binned_diagonal(binning, psi.size), params)
        # The projection of dense onto psi_j = (psi on bin j) / base_j, times base_j.
        overlap = np.conj(psi[binning.support]) * dense[binning.support]
        projected = np.bincount(binning.bin_index, overlap.real, num_bins) + 1j * np.bincount(
            binning.bin_index, overlap.imag, num_bins
        )
        base = eta_from_state(psi, binning)
        np.testing.assert_allclose(projected, base * fast, rtol=0, atol=1e-10)
        # Equal norms and matching projections: dense has no part outside the span.
        assert np.linalg.norm(dense) == pytest.approx(np.linalg.norm(fast), abs=1e-10)

    def test_exact_when_bins_separate_costs(self, rng):
        """With one cost value per bin, the per-cost distribution of the binned
        run matches the substituted-diagonal statevector run to 1e-10."""
        from cbqoa import MaxBisectionInstance

        edges = tuple(
            (a, b, float(rng.integers(-3, 4)))
            for a in range(1, 9)
            for b in range(a + 1, 9)
            if rng.random() < 0.7
        )
        inst = MaxBisectionInstance(num_vertices=8, edges=edges)
        summary = cost_summary(inst)
        feas = feasible_indices(inst)
        distinct = np.unique(summary.diagonal[feas])
        num_bins = 2 * int(round(distinct.max() - distinct.min())) + 2
        binning = bin_costs(summary.diagonal, feas, num_bins)
        per_bin_costs = [
            np.unique(summary.diagonal[feas][binning.bin_index == j])
            for j in np.unique(binning.bin_index)
        ]
        assert all(c.size == 1 for c in per_bin_costs)

        psi = walked_state(rng, inst, "00001111")
        params = random_params(rng)
        fast = evolve_binned(eta_from_state(psi, binning), binning, params)
        dense = _apply_layers(psi.copy(), psi, binned_diagonal(binning, 1 << 8), params)
        dense_probs = np.abs(dense[feas]) ** 2
        fast_probs = np.abs(fast) ** 2
        # each occupied bin holds one cost, so the per-cost comparison is exact
        for j in np.unique(binning.bin_index):
            assert abs(dense_probs[binning.bin_index == j].sum() - fast_probs[j]) <= 1e-10

    def test_distribution_sums_to_one(self, rng):
        inst = small_bisection(rng, n=6)
        feas = feasible_indices(inst)
        binning = bin_costs(cost_summary(inst).diagonal, feas, 9)
        coeffs = evolve_binned(
            eta_from_state(walked_state(rng, inst, "000111"), binning),
            binning,
            random_params(rng),
        )
        pairs = binned_distribution(coeffs, binning)
        assert sum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-10)
        assert [c for c, _ in pairs] == list(binning.bin_costs)


class TestChooseNumBins:
    """How many bins keep the binned simulation accurate."""

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bin_costs(np.arange(4.0), np.arange(4), 0)
        with pytest.raises(ValueError):
            bin_costs(np.arange(4.0), np.arange(4), -3)

    def test_cvar_error_within_epsilon(self, rng):
        """CVaR from the binned run lands within epsilon of the dense run."""
        alpha = 0.5
        for _ in range(3):
            inst = small_bisection(rng, n=10, edge_prob=0.6)
            summary = cost_summary(inst)
            feas = feasible_indices(inst)
            psi = walked_state(rng, inst, "0000011111")
            params = random_params(rng)
            span = summary.diagonal[feas].max() - summary.diagonal[feas].min()
            epsilon = 0.02 * span
            M = math.ceil(3 * span * span / (alpha * epsilon))  # p (b - a)^2 / (alpha eps)
            binning = bin_costs(summary.diagonal, feas, M)
            fast = evolve_binned(eta_from_state(psi, binning), binning, params)
            cvar_fast = _cvar_sorted(binning.bin_costs, np.abs(fast) ** 2, alpha)

            dense = _apply_layers(psi.copy(), psi, summary.diagonal, params)
            values = summary.diagonal[feas]
            order = np.argsort(values)
            cvar_dense = _cvar_sorted(values[order], (np.abs(dense[feas]) ** 2)[order], alpha)
            assert abs(cvar_fast - cvar_dense) <= epsilon

    def test_error_non_increasing_in_bins(self, rng):
        """Total variation to the dense cost distribution shrinks as M doubles."""
        inst = small_bisection(rng, n=10, edge_prob=0.6)
        summary = cost_summary(inst)
        feas = feasible_indices(inst)
        psi = walked_state(rng, inst, "0000011111")
        values = summary.diagonal[feas]
        tv_by_m = []
        points = [random_params(rng) for _ in range(10)]
        for M in (125, 250, 500, 1000):
            binning = bin_costs(summary.diagonal, feas, M)
            base = eta_from_state(psi, binning)
            total = 0.0
            for params in points:
                fast = evolve_binned(base, binning, params)
                dense = _apply_layers(psi.copy(), psi, summary.diagonal, params)
                dense_probs = np.abs(dense[feas]) ** 2
                dense_binned = np.bincount(
                    binning.bin_index, weights=dense_probs, minlength=M
                )
                total += 0.5 * np.abs(dense_binned - np.abs(fast) ** 2).sum()
            tv_by_m.append(total / len(points))
        for small, large in zip(tv_by_m, tv_by_m[1:]):
            assert large <= small * 1.1 + 1e-12
