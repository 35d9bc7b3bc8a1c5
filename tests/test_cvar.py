"""Lower-tail objective, the ADAM loop, and the two tuning entry points."""

import csv

import numpy as np
import pytest

from cbqoa import (
    AdamConfig,
    CvarConfig,
    Max3SatInstance,
    WalkParams,
    adam_minimize,
    build_family,
    cbqoa_initial_state,
    cvar_discrete,
    tune_ansatz_params,
    tune_walk_params,
    uniform_feasible_state,
)
from cbqoa.cvar import _adam_lockstep, _cvar_sorted, _rowwise, write_trace_csv
from cbqoa.problems import cost_summary, feasible_indices, index_to_bits
from cbqoa.simulate import _apply_layers, AnsatzParams

from conftest import (
    oracle_adam_minimize,
    oracle_run_restarts,
    oracle_tune_walk_params,
    small_3sat,
    small_bisection,
)


FAST_ADAM = AdamConfig(iterations=60, restarts=2, rng_seed=7)


class TestCvarDiscrete:
    def test_alpha_one_is_mean(self):
        assert cvar_discrete([(1.0, 0.5), (3.0, 0.5)], 1.0) == pytest.approx(2.0)

    def test_half_tail(self):
        assert cvar_discrete([(1.0, 0.5), (3.0, 0.5)], 0.5) == pytest.approx(1.0)

    def test_fractional_boundary(self):
        assert cvar_discrete([(1.0, 0.5), (3.0, 0.5)], 0.75) == pytest.approx(5.0 / 3.0)

    def test_alpha_one_equals_mean_random(self, rng):
        """Full-tail value agrees with the plain expectation to 1e-12."""
        for _ in range(100):
            k = int(rng.integers(2, 30))
            values = rng.standard_normal(k)
            probs = rng.random(k)
            probs /= probs.sum()
            pairs = list(zip(values, probs))
            assert abs(cvar_discrete(pairs, 1.0) - np.dot(values, probs)) < 1e-12

    def test_permutation_invariant(self, rng):
        values = rng.standard_normal(12)
        probs = rng.random(12)
        probs /= probs.sum()
        pairs = list(zip(values, probs))
        shuffled = [pairs[i] for i in rng.permutation(12)]
        assert cvar_discrete(pairs, 0.3) == pytest.approx(cvar_discrete(shuffled, 0.3), abs=1e-12)

    def test_monotone_in_alpha(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 20))
            values = rng.standard_normal(k)
            probs = rng.random(k)
            probs /= probs.sum()
            pairs = list(zip(values, probs))
            alphas = np.sort(rng.uniform(0.05, 1.0, size=5))
            cvars = [cvar_discrete(pairs, float(a)) for a in alphas]
            assert all(a <= b + 1e-12 for a, b in zip(cvars, cvars[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            cvar_discrete([(1.0, 0.5), (3.0, 0.5)], 0.0)
        with pytest.raises(ValueError):
            cvar_discrete([(1.0, 0.5), (3.0, 0.6)], 0.5)  # sums to 1.1
        with pytest.raises(ValueError):
            cvar_discrete([], 0.5)

    def test_sorted_fast_path_matches(self, rng):
        values = np.sort(rng.standard_normal(50))
        probs = rng.random(50)
        probs /= probs.sum()
        for alpha in (0.1, 0.37, 0.5, 1.0):
            slow = cvar_discrete(list(zip(values, probs)), alpha)
            assert _cvar_sorted(values, probs, alpha) == pytest.approx(slow, abs=1e-12)

    def test_strided_row_equals_contiguous_copy(self, rng):
        """A strided view gives exactly the value of its contiguous copy."""
        values = np.sort(rng.standard_normal(4096))
        columns = rng.random((4096, 20))
        columns /= columns.sum(axis=0)
        for k in range(20):
            strided = columns[:, k]
            for alpha in (0.3, 0.5, 1.0):
                assert _cvar_sorted(values, strided, alpha) == _cvar_sorted(
                    values, strided.copy(), alpha
                )


class TestAdamMinimize:
    def test_converges_on_quadratic(self):
        result = adam_minimize(lambda x: float((x[0] - 2.0) ** 2), [0.0], AdamConfig())
        assert abs(result.best_params[0] - 2.0) < 0.01

    def test_zero_iterations_returns_init(self):
        cfg = AdamConfig(iterations=0)
        result = adam_minimize(lambda x: float(x[0] ** 2), [1.5], cfg)
        assert result.best_params[0] == 1.5
        assert result.trace == [(0, 2.25)]

    def test_deterministic(self):
        cfg = AdamConfig(iterations=50)
        runs = [adam_minimize(lambda x: float(np.sin(x[0]) + x[0] ** 2), [0.7], cfg) for _ in range(2)]
        assert runs[0].trace == runs[1].trace

    def test_returns_best_seen_not_last(self):
        # oscillation-prone step keeps the minimum seen along the way
        cfg = AdamConfig(iterations=80, learning_rate=0.9)
        result = adam_minimize(lambda x: float(abs(x[0])), [3.0], cfg)
        assert result.best_value == min(v for _, v in result.trace)

    def test_non_finite_abort(self):
        with pytest.raises(RuntimeError):
            adam_minimize(lambda x: float("nan"), [0.0], AdamConfig())

    def test_trace_csv(self, tmp_path):
        result = adam_minimize(lambda x: float(x[0] ** 2), [1.0], AdamConfig(iterations=5))
        path = tmp_path / "trace.csv"
        write_trace_csv(result.trace, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "cvar"]
        assert len(rows) == 7


def _bumpy(x: np.ndarray) -> float:
    return float(np.sum(np.sin(3 * x) + 0.1 * (x - 0.5) ** 2) + 0.2 * x[0] * x[-1])


class TestLockstepAdam:
    """Lockstep restarts reproduce sequential ADAM runs exactly."""

    @pytest.mark.parametrize(
        "cfg",
        [
            AdamConfig(iterations=40),
            AdamConfig(iterations=0),
            AdamConfig(iterations=30, learning_rate=0.3),
        ],
    )
    def test_matches_sequential_restarts(self, rng, cfg):
        inits = [np.zeros(3)] + [rng.uniform(-2, 2, size=3) for _ in range(3)]
        params, value, trace = _adam_lockstep(_rowwise(_bumpy), np.array(inits), cfg)
        want_params, want_value, want_trace = oracle_run_restarts(_bumpy, inits, cfg)
        assert np.array_equal(params, want_params)
        assert value == want_value
        assert trace == want_trace

    def test_adam_minimize_matches_oracle(self):
        cfg = AdamConfig(iterations=50)
        result = adam_minimize(_bumpy, [0.7, -0.2], cfg)
        want = oracle_adam_minimize(_bumpy, [0.7, -0.2], cfg)
        assert np.array_equal(result.best_params, want.best_params)
        assert result.best_value == want.best_value
        assert result.trace == want.trace

    def test_one_call_per_step(self):
        rows = []

        def objective(points):
            rows.append(len(points))
            return np.array([_bumpy(x) for x in points])

        _adam_lockstep(objective, np.zeros((4, 2)), AdamConfig(iterations=7))
        assert rows == [4 * 5] * 7 + [4]

    def test_non_finite_row_raises(self):
        """One restart walking into a NaN region aborts the whole batch."""

        def objective(points):
            return np.where(points[:, 0] > 1.0, np.nan, -points[:, 0])

        with pytest.raises(RuntimeError):
            _adam_lockstep(objective, np.array([[0.0], [0.9]]), AdamConfig(learning_rate=0.2))


class TestTuneWalkParams:
    @pytest.mark.parametrize(
        "cfg",
        [
            AdamConfig(iterations=30, restarts=4, rng_seed=3),
            AdamConfig(iterations=12, restarts=1, rng_seed=5),
            AdamConfig(iterations=0, restarts=3, rng_seed=2),
        ],
    )
    @pytest.mark.parametrize("make, n", [(small_bisection, 8), (small_3sat, 6)])
    def test_matches_sequential_oracle(self, rng, make, n, cfg):
        inst = make(rng, n=n)
        feas = feasible_indices(inst)
        seed = index_to_bits(int(feas[feas.size // 3]), n)
        family = build_family(inst, seed)
        args = (inst, seed, family, CvarConfig(alpha=0.4), cfg)
        assert tune_walk_params(*args) == oracle_tune_walk_params(*args)

    def test_rejects_seed_other_than_family_seed(self, rng):
        inst = small_bisection(rng, n=6)
        family = build_family(inst, "010101")
        with pytest.raises(ValueError):
            tune_walk_params(inst, "101010", family)

    def test_never_worse_than_zero_point(self, rng):
        """(0, 0) is the first restart, so the tuned tail cost can't exceed it."""
        inst = small_bisection(rng, n=6)
        seed = "010101"
        family = build_family(inst, seed)
        summary = cost_summary(inst)
        order = np.argsort(summary.diagonal)
        t, sharpness, trace = tune_walk_params(
            inst, seed, family, CvarConfig(alpha=0.5), FAST_ADAM
        )
        state = cbqoa_initial_state(inst, seed, WalkParams(time=t, sharpness=sharpness), family=family)
        tuned = _cvar_sorted(
            summary.diagonal[order], (np.abs(state) ** 2)[order], 0.5
        )
        at_zero = float(summary.diagonal[np.argmax(np.abs(cbqoa_initial_state(inst, seed, WalkParams(0.0, 0.0), family=family)))])
        assert tuned <= at_zero + 1e-9

    def test_degenerate_instance_constant_objective(self):
        inst = Max3SatInstance(num_vars=4, clauses=((1, 2, 3, 0.0),))
        family = build_family(inst, "0000")
        t, sharpness, trace = tune_walk_params(
            inst, "0000", family, CvarConfig(alpha=0.5), AdamConfig(iterations=5, restarts=2)
        )
        values = {round(v, 12) for _, _, v in trace}
        assert values == {0.0}

    def test_grid_search_finds_nothing_much_better(self, rng):
        """Coarse sweep over the search box as an independent check."""
        inst = Max3SatInstance(num_vars=3, clauses=((1, 2, 3, 1.0),))
        family = build_family(inst, "000")
        summary = cost_summary(inst)
        order = np.argsort(summary.diagonal, kind="stable")
        sorted_costs = summary.diagonal[order]

        def objective(t, sharpness):
            state = cbqoa_initial_state(
                inst, "000", WalkParams(time=t, sharpness=sharpness), family=family
            )
            return _cvar_sorted(sorted_costs, (np.abs(state) ** 2)[order], 0.5)

        t, sharpness, _ = tune_walk_params(
            inst, "000", family, CvarConfig(alpha=0.5), AdamConfig(iterations=120, restarts=3, rng_seed=1)
        )
        tuned = objective(t, sharpness)
        grid_best = min(
            objective(tt, ss)
            for tt in np.linspace(0, np.pi, 25)
            for ss in np.linspace(-5, 5, 25)
        )
        assert tuned <= grid_best + 0.05


class TestTuneAnsatzParams:
    def test_zero_layers_bound(self, rng):
        """All-zero layer parameters are in the search space, so the tuned
        objective never exceeds the initial state's own tail cost."""
        inst = small_bisection(rng, n=6)
        psi = uniform_feasible_state(inst)
        summary = cost_summary(inst)
        feas = feasible_indices(inst)
        values = summary.diagonal[feas]
        order = np.argsort(values)
        base = _cvar_sorted(values[order], (np.abs(psi[feas]) ** 2)[order], 0.5)
        for backend in ("statevector", "fast_binned"):
            betas, gammas, _ = tune_ansatz_params(
                inst, psi, 2, CvarConfig(alpha=0.5), FAST_ADAM, backend=backend, num_bins=200
            )
            final = _apply_layers(
                psi.copy(), psi, summary.diagonal, AnsatzParams(betas=betas, gammas=gammas)
            )
            tuned = _cvar_sorted(values[order], (np.abs(final[feas]) ** 2)[order], 0.5)
            assert tuned <= base + 1e-6

    def test_backends_agree_at_random_points(self, rng):
        """Binned and dense objectives differ by at most the binning bound."""
        inst = small_bisection(rng, n=8)
        walk = WalkParams(time=0.6, sharpness=0.5)
        psi = cbqoa_initial_state(inst, "00001111", walk)
        summary = cost_summary(inst)
        feas = feasible_indices(inst)
        values = summary.diagonal[feas]
        order = np.argsort(values)
        span = values.max() - values.min()
        depth, num_bins, alpha = 3, 2000, 0.5

        from cbqoa import bin_costs, eta_from_state, evolve_binned

        binning = bin_costs(summary.diagonal, feas, num_bins)
        base = eta_from_state(psi, binning)
        bound = 10.0 * depth * binning.width * span / alpha
        for _ in range(20):
            params = AnsatzParams(
                betas=tuple(rng.uniform(-np.pi, np.pi, depth)),
                gammas=tuple(rng.uniform(-np.pi, np.pi, depth)),
            )
            fast = evolve_binned(base, binning, params)
            cvar_fast = _cvar_sorted(binning.bin_costs, np.abs(fast.coeffs) ** 2, alpha)
            dense = _apply_layers(psi.copy(), psi, summary.diagonal, params)
            cvar_dense = _cvar_sorted(values[order], (np.abs(dense[feas]) ** 2)[order], alpha)
            assert abs(cvar_fast - cvar_dense) <= bound

    def test_invalid_backend(self, rng):
        inst = small_bisection(rng, n=6)
        with pytest.raises(ValueError):
            tune_ansatz_params(inst, uniform_feasible_state(inst), 1, backend="gpu")

    def test_depth_validation(self, rng):
        inst = small_bisection(rng, n=6)
        with pytest.raises(ValueError):
            tune_ansatz_params(inst, uniform_feasible_state(inst), 0)
