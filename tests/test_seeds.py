"""Relaxation solvers and randomized roundings against brute-force oracles."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbqoa import Max3SatInstance, MaxBisectionInstance, SdpConfig, bench, seeds
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

from conftest import oracle_solve_fl_sdp, oracle_solve_kz_sdp, random_satisfiable_max3sat

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

    def test_edgeless_graph(self):
        """No edges: the cut is 0 and the rows are still unit and balanced."""
        inst = MaxBisectionInstance(num_vertices=6, edges=())
        result = solve_fl_sdp(inst, QUICK)
        assert result.objective == 0.0
        np.testing.assert_allclose(np.linalg.norm(result.vectors, axis=1), 1.0, atol=1e-8)
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


def assert_same_solve(result: UnitVectorSet, expected: UnitVectorSet):
    assert result.vectors.tobytes() == expected.vectors.tobytes()
    assert result.objective == expected.objective
    assert result.converged == expected.converged
    assert result.balance_residual == expected.balance_residual


class TestScatterMatchesOracle:
    """Each solve sums its gradient with one bincount in the order the per-term
    np.add.at oracles in conftest add the terms, so every output is the same bytes."""

    @pytest.mark.parametrize(
        "inst, cfg",
        [
            (random_max3sat(np.random.default_rng(21), 16, 200), SdpConfig(rng_seed=3)),
            # Label 0 is v_0 itself, so row 0 takes literal terms between the
            # per-pairing sums; repeated labels put two terms of a clause on one row.
            (
                Max3SatInstance(
                    num_vars=4,
                    clauses=((0, 0, 3, 0.7), (0, 1, 5, 0.3), (0, 2, 2, 1.0), (0, 6, 7, 0.5)),
                ),
                SdpConfig(iterations=400, rng_seed=1),
            ),
            (Max3SatInstance(num_vars=4, clauses=()), QUICK),
        ],
        ids=["random_16x200", "label_zero_and_repeats", "no_clauses"],
    )
    def test_kz(self, inst, cfg):
        assert_same_solve(solve_kz_sdp(inst, cfg), oracle_solve_kz_sdp(inst, cfg))

    def test_kz_early_stop(self, monkeypatch):
        """A satisfiable instance whose relaxation reaches its total weight stops early:
        it takes fewer ascent steps than its iteration budget."""
        inst = random_satisfiable_max3sat(np.random.default_rng(0), num_vars=6, num_clauses=8)
        steps, step = [], seeds._AdamAscent.step
        monkeypatch.setattr(seeds._AdamAscent, "step", lambda *a: steps.append(1) or step(*a))
        result = solve_kz_sdp(inst)
        assert len(steps) < SdpConfig().iterations
        assert result.objective >= sum(c[3] for c in inst.clauses) * (1 - 1e-9)
        assert_same_solve(result, oracle_solve_kz_sdp(inst))

    @pytest.mark.parametrize(
        "inst, cfg, converged",
        [
            (random_max_bisection(np.random.default_rng(22), 12), SdpConfig(rng_seed=2), True),
            (MaxBisectionInstance(num_vertices=6, edges=()), QUICK, True),
            # Five steps never balance: the last iterate is returned, not converged.
            (random_max_bisection(np.random.default_rng(0), 12), SdpConfig(iterations=5), False),
        ],
        ids=["random_12", "edgeless", "unbalanced"],
    )
    def test_fl(self, inst, cfg, converged):
        result = solve_fl_sdp(inst, cfg)
        assert result.converged == converged
        assert_same_solve(result, oracle_solve_fl_sdp(inst, cfg))

    def test_fl_penalty_doubles_at_full_length(self):
        """K_12 with every weight -1 doubles its balance penalty within the default
        2,000 iterations and still balances, so each step's penalty rows must be
        written from the current penalty."""
        edges = tuple((a, b, -1.0) for a, b in combinations(range(1, 13), 2))
        inst, cfg, doublings = MaxBisectionInstance(num_vertices=12, edges=edges), SdpConfig(), []
        expected = oracle_solve_fl_sdp(inst, cfg, doublings)
        assert doublings, "the oracle never doubled its penalty"
        result = solve_fl_sdp(inst, cfg)
        assert result.converged
        assert_same_solve(result, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(3, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, 2 * n),
                        st.integers(0, 2 * n),
                        st.integers(0, 2 * n),
                        st.floats(0.0, 2.0),
                    ),
                    max_size=30,
                ),
            )
        ),
        st.integers(1, 50),
        st.integers(0, 2**16),
    )
    def test_kz_property(self, shape, iterations, seed):
        inst = Max3SatInstance(num_vars=shape[0], clauses=tuple(shape[1]))
        cfg = SdpConfig(iterations=iterations, rng_seed=seed)
        assert_same_solve(solve_kz_sdp(inst, cfg), oracle_solve_kz_sdp(inst, cfg))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda half: st.tuples(
                st.just(2 * half),
                st.lists(
                    st.tuples(st.integers(1, 2 * half), st.integers(1, 2 * half)),
                    max_size=30,
                ),
                st.lists(st.floats(-2.0, 2.0), min_size=30, max_size=30),
            )
        ),
        st.integers(1, 50),
        st.integers(0, 2**16),
    )
    def test_fl_property(self, graph, iterations, seed):
        n, pairs, weights = graph
        edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
        inst = MaxBisectionInstance(
            num_vertices=n, edges=tuple((a, b, w) for (a, b), w in zip(edges, weights))
        )
        cfg = SdpConfig(iterations=iterations, rng_seed=seed)
        assert_same_solve(solve_fl_sdp(inst, cfg), oracle_solve_fl_sdp(inst, cfg))


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

    def test_trials_validation(self, monkeypatch):
        """A rounding count below 1 is refused before the relaxation is solved."""
        calls = []
        monkeypatch.setattr(bench, "solve_relaxation", lambda *a: calls.append(a))
        inst = MaxBisectionInstance(num_vertices=2, edges=((1, 2, 1.0),))
        with pytest.raises(ValueError, match="trials must be >= 1"):
            classical_batch(inst, QUICK, np.random.default_rng(0), 0)
        assert calls == []

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
