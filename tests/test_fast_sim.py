"""Binned fast simulation against the dense statevector simulator."""

import math

import numpy as np
import pytest

from cbqoa import (
    AnsatzParams,
    WalkParams,
    bin_costs,
    binned_distribution,
    cbqoa_initial_state,
    eta_from_state,
    evolve_binned,
    feasible_indices,
)
from cbqoa.cvar import _cvar_sorted
from cbqoa.problems import cost_summary
from cbqoa.simulate import _apply_layers, basis_state

from conftest import small_3sat, small_bisection


def walked_state(rng, inst, seed):
    walk = WalkParams(time=float(rng.uniform(0.2, 1.0)), sharpness=float(rng.uniform(-1, 1)))
    return cbqoa_initial_state(inst, seed, walk)


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
        binned = eta_from_state(state, binning)
        bin_of_seed = binning.bin_index[np.where(feas == 7)[0][0]]
        expected = np.zeros(10)
        expected[bin_of_seed] = 1.0
        np.testing.assert_allclose(binned.base, expected)

    def test_uniform_split(self):
        diag = np.array([0.0, 0.0, 10.0, 10.0])
        binning = bin_costs(diag, np.arange(4), 2)
        state = np.full(4, 0.5, dtype=np.complex128)
        binned = eta_from_state(state, binning)
        np.testing.assert_allclose(binned.base, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_unit_mass(self, rng):
        inst = small_bisection(rng, n=8)
        feas = feasible_indices(inst)
        binning = bin_costs(cost_summary(inst).diagonal, feas, 17)
        state = walked_state(rng, inst, "00001111")
        binned = eta_from_state(state, binning)
        assert np.sum(binned.base**2) == pytest.approx(1.0, abs=1e-10)


class TestEvolveBinned:
    def test_zero_params_identity(self, rng):
        inst = small_bisection(rng, n=6)
        feas = feasible_indices(inst)
        binning = bin_costs(cost_summary(inst).diagonal, feas, 12)
        binned = eta_from_state(walked_state(rng, inst, "000111"), binning)
        out = evolve_binned(binned, binning, AnsatzParams.zeros(4))
        np.testing.assert_allclose(out.coeffs, binned.coeffs)

    def test_depth_zero_identity(self, rng):
        inst = small_bisection(rng, n=6)
        feas = feasible_indices(inst)
        binning = bin_costs(cost_summary(inst).diagonal, feas, 12)
        binned = eta_from_state(walked_state(rng, inst, "000111"), binning)
        out = evolve_binned(binned, binning, AnsatzParams(betas=(), gammas=()))
        np.testing.assert_allclose(out.coeffs, binned.coeffs)

    def test_unitarity_each_layer(self, rng):
        inst = small_3sat(rng, n=8, num_clauses=20)
        feas = feasible_indices(inst)
        binning = bin_costs(cost_summary(inst).diagonal, feas, 64)
        binned = eta_from_state(walked_state(rng, inst, "00110011"), binning)
        for _ in range(6):
            beta, gamma = rng.uniform(-np.pi, np.pi, 2)
            binned = evolve_binned(
                binned, binning, AnsatzParams(betas=(float(beta),), gammas=(float(gamma),))
            )
            assert np.sum(np.abs(binned.coeffs) ** 2) == pytest.approx(1.0, abs=1e-10)

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
            dense = _apply_layers(psi.copy(), psi, binning.binned_diagonal(1 << 8), params)
            aggregated = np.bincount(
                binning.bin_index,
                weights=np.abs(dense[feas]) ** 2,
                minlength=binning.num_bins,
            )
            tv = 0.5 * np.abs(aggregated - np.abs(fast.coeffs) ** 2).sum()
            assert tv <= 1e-8

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
        dense = _apply_layers(psi.copy(), psi, binning.binned_diagonal(1 << 8), params)
        dense_probs = np.abs(dense[feas]) ** 2
        fast_probs = np.abs(fast.coeffs) ** 2
        # each occupied bin holds one cost, so the per-cost comparison is exact
        for j in np.unique(binning.bin_index):
            assert abs(dense_probs[binning.bin_index == j].sum() - fast_probs[j]) <= 1e-10

    def test_distribution_sums_to_one(self, rng):
        inst = small_bisection(rng, n=6)
        feas = feasible_indices(inst)
        binning = bin_costs(cost_summary(inst).diagonal, feas, 9)
        binned = evolve_binned(
            eta_from_state(walked_state(rng, inst, "000111"), binning),
            binning,
            random_params(rng),
        )
        pairs = binned_distribution(binned, binning)
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
            cvar_fast = _cvar_sorted(binning.bin_costs, np.abs(fast.coeffs) ** 2, alpha)

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
                total += 0.5 * np.abs(dense_binned - np.abs(fast.coeffs) ** 2).sum()
            tv_by_m.append(total / len(points))
        for small, large in zip(tv_by_m, tv_by_m[1:]):
            assert large <= small * 1.1 + 1e-12
