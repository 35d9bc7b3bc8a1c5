"""Relaxation solvers and randomized roundings against brute-force oracles."""

import numpy as np
import pytest

from cbqoa import Max3SatInstance, MaxBisectionInstance, SdpConfig
from cbqoa.bench import (
    classical_batch,
    random_max3sat,
    random_max_bisection,
)
from cbqoa.errors import DegenerateInstanceError
from cbqoa.problems import approx_ratio_beta, cost_summary
from cbqoa.seeds import (
    S_LINEAR,
    UnitVectorSet,
    fl_round_batch,
    kz_round_batch,
    round_batch,
    rounding_costs,
    s_linear,
    solve_fl_sdp,
    solve_kz_sdp,
    solve_relaxation,
)

from conftest import random_satisfiable_max3sat

QUICK = SdpConfig(iterations=800, rng_seed=0)


class TestSolveKz:
    def test_single_clause_reaches_relaxed_optimum(self):
        inst = Max3SatInstance(num_vars=3, clauses=((1, 2, 3, 1.0),))
        result = solve_kz_sdp(inst, SdpConfig(rng_seed=3))
        assert result.objective >= 1.0 - 0.02
        assert result.objective <= 1.0 + 1e-9

    def test_single_clause_roundings_satisfy(self):
        inst = Max3SatInstance(num_vars=3, clauses=((1, 2, 3, 1.0),))
        result = solve_kz_sdp(inst, SdpConfig(rng_seed=3))
        assignments = kz_round_batch(result, np.random.default_rng(0), 500)
        satisfied = rounding_costs(inst, assignments) <= -1.0 + 1e-9
        assert satisfied.mean() >= 0.9

    def test_empty_clause_set(self):
        inst = Max3SatInstance(num_vars=4, clauses=())
        result = solve_kz_sdp(inst, QUICK)
        assert result.objective == 0.0
        assert result.converged

    def test_unit_norm_vectors(self):
        rng = np.random.default_rng(4)
        inst = random_max3sat(rng, num_vars=8, num_clauses=30)
        result = solve_kz_sdp(inst, QUICK)
        np.testing.assert_allclose(np.linalg.norm(result.vectors, axis=1), 1.0, atol=1e-8)

    def test_relaxation_dominates_optimum_on_dense_instances(self):
        """Dense random instances carry a positive relaxation gap, so the
        achieved relaxation value must sit at or above the discrete optimum."""
        for seed in range(5):
            rng = np.random.default_rng(seed + 50)
            inst = random_max3sat(rng, num_vars=10, num_clauses=80)
            optimum_cost = cost_summary(inst).optimum_value
            result = solve_kz_sdp(inst, SdpConfig(rng_seed=seed))
            assert result.objective >= -optimum_cost

    def test_per_clause_value_capped_at_one(self):
        rng = np.random.default_rng(5)
        inst = random_max3sat(rng, num_vars=8, num_clauses=30)
        result = solve_kz_sdp(inst, QUICK)
        total = sum(c[3] for c in inst.clauses)
        assert result.objective <= total + 1e-9


class TestKzRounding:
    def test_aligned_vectors_give_all_ones(self, rng):
        v0 = np.zeros(5)
        v0[0] = 1.0
        vectors = UnitVectorSet(
            kind="karloff_zwick",
            vectors=np.tile(v0, (5, 1)),
            objective=0.0,
            converged=True,
        )
        for _ in range(20):
            bits = kz_round_batch(vectors, rng, 1)[0]
            assert bits.sum() == 4

    def test_antipodal_vectors_give_all_zeros(self, rng):
        base = np.zeros(5)
        base[0] = 1.0
        vectors = UnitVectorSet(
            kind="karloff_zwick",
            vectors=np.vstack([base, -np.tile(base, (4, 1))]),
            objective=0.0,
            converged=True,
        )
        for _ in range(20):
            bits = kz_round_batch(vectors, rng, 1)[0]
            assert bits.sum() == 0

    def test_seven_eighths_on_satisfiable_instances(self):
        """Best of many roundings reaches 7/8 of the planted optimum."""
        hits = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            inst = random_satisfiable_max3sat(rng, num_vars=10, num_clauses=40)
            optimum_cost = cost_summary(inst).optimum_value
            result = solve_kz_sdp(inst, SdpConfig(rng_seed=seed))
            assignments = kz_round_batch(result, np.random.default_rng(seed + 100), 3000)
            best = -rounding_costs(inst, assignments).min()
            if best >= (7.0 / 8.0) * (-optimum_cost):
                hits += 1
        assert hits == 4


class TestSolveFl:
    def test_two_vertices_antipodal(self):
        inst = MaxBisectionInstance(num_vertices=2, edges=((1, 2, 1.0),))
        result = solve_fl_sdp(inst, SdpConfig(rng_seed=0))
        assert result.objective == pytest.approx(1.0, abs=1e-6)
        assert float(result.vectors[0] @ result.vectors[1]) == pytest.approx(-1.0, abs=1e-6)

    def test_zero_weight_graph_balance_still_enforced(self):
        inst = MaxBisectionInstance(num_vertices=6, edges=((1, 2, 0.0),))
        result = solve_fl_sdp(inst, SdpConfig(rng_seed=0))
        assert result.objective == 0.0
        assert result.balance_residual <= 0.05 * np.sqrt(6)

    def test_balance_and_norms(self):
        rng = np.random.default_rng(6)
        inst = random_max_bisection(rng, 10, 0.5)
        result = solve_fl_sdp(inst, QUICK)
        np.testing.assert_allclose(np.linalg.norm(result.vectors, axis=1), 1.0, atol=1e-8)
        assert result.balance_residual <= 0.05 * np.sqrt(10)

    def test_relaxation_dominates_optimum(self):
        # instance seeds chosen so the relaxation gap exceeds solver tolerance
        for entropy in (3000, 3002, 3003, 3005, 3016, 3021):
            rng = np.random.default_rng(entropy)
            inst = random_max_bisection(rng, 10, 0.5)
            optimum_cost = cost_summary(inst).optimum_value
            result = solve_fl_sdp(inst, SdpConfig(rng_seed=1))
            assert result.objective >= -optimum_cost


class TestSLinear:
    def test_branch_values(self):
        assert s_linear(-S_LINEAR) == 0.0
        assert s_linear(0.0) == 0.5
        assert s_linear(S_LINEAR) == 1.0

    def test_clamped_and_continuous(self):
        xs = np.linspace(-2, 2, 401)
        values = s_linear(xs)
        assert np.all((values >= 0) & (values <= 1))
        assert np.max(np.abs(np.diff(values))) < 0.05


class TestFlRounding:
    def test_always_balanced(self):
        rng = np.random.default_rng(7)
        inst = random_max_bisection(rng, 10, 0.5)
        result = solve_fl_sdp(inst, QUICK)
        assignments = fl_round_batch(inst, result, np.random.default_rng(1), 1000)
        assert (assignments.sum(axis=1) == 5).all()

    def test_two_vertex_split(self):
        inst = MaxBisectionInstance(num_vertices=2, edges=((1, 2, 1.0),))
        result = solve_fl_sdp(inst, SdpConfig(rng_seed=0))
        rng = np.random.default_rng(2)
        for _ in range(20):
            bits = fl_round_batch(inst, result, rng, 1)[0]
            assert bits.sum() == 1

    def test_single_trial_matches_batch_prefix(self):
        rng = np.random.default_rng(8)
        inst = random_max_bisection(rng, 8, 0.6)
        result = solve_fl_sdp(inst, QUICK)
        one = fl_round_batch(inst, result, np.random.default_rng(42), 1)[0]
        many = fl_round_batch(inst, result, np.random.default_rng(42), 10)
        assert np.array_equal(one, many[0])


class TestSeedBestOf:
    """The walk seed is the argmin over classical_batch's costs."""

    def test_single_trial(self):
        rng = np.random.default_rng(9)
        inst = random_max_bisection(rng, 8, 0.6)
        assignments, _, _ = classical_batch(inst, QUICK, np.random.default_rng(3), 1)
        assert assignments.shape == (1, 8)
        assert assignments[0].sum() == 4

    def test_cost_non_increasing_in_trials(self):
        """More trials from the same stream can only improve the best cost."""
        rng = np.random.default_rng(10)
        inst = random_max_bisection(rng, 10, 0.5)
        best = [
            classical_batch(inst, QUICK, np.random.default_rng(5), trials)[1].min()
            for trials in (1, 10, 100, 1000)
        ]
        assert all(a >= b for a, b in zip(best, best[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        inst = random_max3sat(rng, num_vars=8, num_clauses=30)
        a = classical_batch(inst, QUICK, np.random.default_rng(6), 50)
        b = classical_batch(inst, QUICK, np.random.default_rng(6), 50)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_trials_validation(self):
        inst = MaxBisectionInstance(num_vertices=2, edges=((1, 2, 1.0),))
        with pytest.raises(ValueError):
            classical_batch(inst, QUICK, np.random.default_rng(0), 0)

    @pytest.mark.parametrize("make", [random_max3sat, random_max_bisection])
    def test_argmin_matches_explicit_rounding(self, make):
        """Same relaxation, same stream: the batch equals round_batch + rounding_costs."""
        inst = make(np.random.default_rng(12), 8)
        assignments, costs, ratios = classical_batch(inst, QUICK, np.random.default_rng(7), 200)
        vectors = solve_relaxation(inst, QUICK)
        expected = round_batch(inst, vectors, np.random.default_rng(7), 200)
        expected_costs = rounding_costs(inst, expected)
        best = int(np.argmin(expected_costs))
        assert int(np.argmin(costs)) == best
        assert np.array_equal(assignments[best], expected[best])
        assert costs[best] == expected_costs[best]
        assert ratios[best] == approx_ratio_beta(inst, expected[best])

    def test_degenerate_instance_rejected(self):
        inst = Max3SatInstance(num_vars=3, clauses=())
        with pytest.raises(DegenerateInstanceError):
            classical_batch(inst, QUICK, np.random.default_rng(0), 10)
