"""Lower-tail objective, the ADAM loop, and the two tuning entry points."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cbqoa import AdamConfig, CvarConfig, Max3SatInstance, WalkParams
from cbqoa.cvar import (
    _CVAR_CHUNK,
    FD_STEP,
    _adam_lockstep,
    _central_differences,
    _cvar_boundary,
    _cvar_sorted,
    _hypercube_objective,
    _layer_objective,
    cvar_discrete,
    tune_ansatz_params,
    tune_walk_params,
)
from cbqoa.fast_sim import _evolve_rows, bin_costs, eta_from_state
from cbqoa.mixer import build_family
from cbqoa.problems import cost_summary, feasible_indices
from cbqoa.simulate import (
    AnsatzParams,
    _apply_layers,
    cbqoa_initial_state,
    hypercube_walk_state,
    uniform_feasible_state,
)

from conftest import (
    index_to_bits,
    oracle_adam_minimize,
    oracle_cvar_sorted,
    oracle_run_restarts,
    oracle_tune_walk_params,
    random_feasible_state,
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

    @pytest.mark.parametrize(
        "pairs",
        [[(1.0, np.nan), (2.0, 1.0)], [(np.nan, 0.5), (2.0, 0.5)], [(np.inf, 0.5), (2.0, 0.5)],
         [(1.0, np.inf), (2.0, 0.5)]],
        ids=["nan-prob", "nan-value", "inf-value", "inf-prob"],
    )
    def test_non_finite_rejected(self, pairs):
        with pytest.raises(ValueError):
            cvar_discrete(pairs, 0.5)

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


def tail_distribution(size: int, seed: int, shape: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values and a distribution over them whose mass has the given shape."""
    rng = np.random.default_rng(seed)
    values = np.sort(rng.standard_normal(size))
    probs = rng.random(size)
    if shape == "sparse":
        probs[rng.random(size) > 0.01] = 0.0
        probs[rng.integers(size)] = 1.0
    elif shape == "chunk_edge":  # the mass runs out at the end of a chunk
        probs[_CVAR_CHUNK * max(1, (size - 1) // _CVAR_CHUNK) :] = 0.0
    elif shape == "last":
        probs[:] = 0.0
        probs[-1] = 1.0
    probs /= probs.sum()
    if shape == "deficit":  # the tail never fills, so the boundary is clamped to the last index
        probs *= 0.5
    return values, probs


class TestPrefixCvar:
    """The chunked prefix CVaR equals the full-length cumsum oracle exactly."""

    @settings(max_examples=80, deadline=None)
    @given(
        size=st.one_of(
            st.integers(1, 3 * _CVAR_CHUNK + 1),
            st.sampled_from([_CVAR_CHUNK, _CVAR_CHUNK + 1, 2 * _CVAR_CHUNK, 3 * _CVAR_CHUNK + 1]),
        ),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["spread", "sparse", "chunk_edge", "last", "deficit"]),
        alpha=st.one_of(st.just(1.0), st.floats(1e-9, 1.0)),
        edge_offset=st.one_of(st.none(), st.integers(-2, 2)),
    )
    def test_matches_full_length_oracle(self, size, seed, shape, alpha, edge_offset):
        values, probs = tail_distribution(size, seed, shape)
        if edge_offset is not None and size > _CVAR_CHUNK:
            # Put the alpha boundary on a chunk edge, give or take the 1e-12 tolerance.
            edge = _CVAR_CHUNK * (1 + seed % ((size - 1) // _CVAR_CHUNK))
            at_edge = float(np.cumsum(probs)[edge - 1]) + edge_offset * 1e-12
            alpha = min(1.0, at_edge) if at_edge > 0 else alpha
        order = np.random.default_rng(seed + 1).permutation(size)
        unsorted = np.empty(size)
        unsorted[order] = probs
        want = oracle_cvar_sorted(values, probs, alpha)
        assert _cvar_sorted(values, probs, alpha) == want
        assert _cvar_sorted(values, unsorted, alpha, order) == want


def row_by_row(objective):
    """Batch objective that calls a point objective once per row."""
    return lambda points: np.array([objective(x) for x in points], dtype=np.float64)


def one_restart(objective, init, cfg):
    """One ADAM run: the lockstep driver on a single restart, central differences."""
    value_and_grad = _central_differences(row_by_row(objective))
    return _adam_lockstep(value_and_grad, np.asarray(init, dtype=float)[None], cfg)


class TestAdamMinimize:
    def test_converges_on_quadratic(self):
        params, _, _ = one_restart(lambda x: float((x[0] - 2.0) ** 2), [0.0], AdamConfig())
        assert abs(params[0] - 2.0) < 0.01

    def test_zero_iterations_returns_init(self):
        cfg = AdamConfig(iterations=0)
        params, _, trace = one_restart(lambda x: float(x[0] ** 2), [1.5], cfg)
        assert params[0] == 1.5
        assert trace == [(0, 0, 2.25)]

    def test_deterministic(self):
        cfg = AdamConfig(iterations=50)
        runs = [one_restart(lambda x: float(np.sin(x[0]) + x[0] ** 2), [0.7], cfg) for _ in range(2)]
        assert runs[0][2] == runs[1][2]

    def test_returns_best_seen_not_last(self):
        # oscillation-prone step keeps the minimum seen along the way
        cfg = AdamConfig(iterations=80, learning_rate=0.9)
        _, value, trace = one_restart(lambda x: float(abs(x[0])), [3.0], cfg)
        assert value == min(v for *_, v in trace)

    def test_non_finite_abort(self):
        with pytest.raises(RuntimeError):
            one_restart(lambda x: float("nan"), [0.0], AdamConfig())


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
        params, value, trace = _adam_lockstep(
            _central_differences(row_by_row(_bumpy)), np.array(inits), cfg
        )
        want_params, want_value, want_trace = oracle_run_restarts(_bumpy, inits, cfg)
        assert np.array_equal(params, want_params)
        assert value == want_value
        assert trace == want_trace

    def test_adam_minimize_matches_oracle(self):
        """A one-restart lockstep run equals the sequential ADAM loop."""
        cfg = AdamConfig(iterations=50)
        params, value, trace = one_restart(_bumpy, [0.7, -0.2], cfg)
        want_params, want_value, want_trace = oracle_adam_minimize(_bumpy, [0.7, -0.2], cfg)
        assert np.array_equal(params, want_params)
        assert value == want_value
        assert trace == [(0, it, val) for it, val in want_trace]

    def test_one_call_per_step(self):
        rows = []

        def objective(points):
            rows.append(len(points))
            return np.array([_bumpy(x) for x in points])

        _adam_lockstep(_central_differences(objective), np.zeros((4, 2)), AdamConfig(iterations=7))
        assert rows == [4 * 5] * 7 + [4]

    def test_non_finite_row_raises(self):
        """One restart walking into a NaN region aborts the whole batch."""

        def objective(points):
            return np.where(points[:, 0] > 1.0, np.nan, -points[:, 0])

        with pytest.raises(RuntimeError):
            _adam_lockstep(
                _central_differences(objective),
                np.array([[0.0], [0.9]]),
                AdamConfig(learning_rate=0.2),
            )

    def test_nan_value_raises_on_the_analytic_path(self):
        def value_and_grad(points, with_grad):
            return np.full(len(points), np.nan), np.zeros_like(points) if with_grad else None

        with pytest.raises(RuntimeError, match="objective not finite"):
            _adam_lockstep(value_and_grad, np.zeros((2, 3)), AdamConfig(iterations=5))

    def test_nan_gradient_raises_on_the_analytic_path(self):
        def value_and_grad(points, with_grad):
            return np.sum(points**2, axis=1), np.full_like(points, np.nan) if with_grad else None

        with pytest.raises(RuntimeError, match="non-finite gradient"):
            _adam_lockstep(value_and_grad, np.zeros((2, 3)), AdamConfig(iterations=5))

    def test_last_step_asks_for_values_only(self):
        calls = []

        def value_and_grad(points, with_grad):
            calls.append(with_grad)
            return np.sum(points**2, axis=1), 2 * points if with_grad else None

        _adam_lockstep(value_and_grad, np.ones((3, 2)), AdamConfig(iterations=4))
        assert calls == [True] * 4 + [False]


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
        args = (inst, family, CvarConfig(alpha=0.4), cfg)
        assert tune_walk_params(*args) == oracle_tune_walk_params(*args)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1e-6])
    def test_matches_oracle_over_several_chunks(self, rng, alpha):
        """At n=14 the 16,384 sorted probabilities span four CVaR chunks."""
        inst = small_3sat(rng, n=14, num_clauses=60)
        seed = index_to_bits(int(rng.integers(1 << 14)), 14)
        family = build_family(inst, seed)
        args = (inst, family, CvarConfig(alpha=alpha), AdamConfig(iterations=5))
        assert tune_walk_params(*args) == oracle_tune_walk_params(*args)

    def test_never_worse_than_zero_point(self, rng):
        """(0, 0) is the first restart, so the tuned tail cost can't exceed it."""
        inst = small_bisection(rng, n=6)
        seed = "010101"
        family = build_family(inst, seed)
        summary = cost_summary(inst)
        order = np.argsort(summary.diagonal)
        t, sharpness, trace = tune_walk_params(inst, family, CvarConfig(alpha=0.5), FAST_ADAM)
        state = cbqoa_initial_state(family, WalkParams(time=t, sharpness=sharpness))
        tuned = _cvar_sorted(
            summary.diagonal[order], (np.abs(state) ** 2)[order], 0.5
        )
        at_zero = float(summary.diagonal[np.argmax(np.abs(cbqoa_initial_state(family, WalkParams(0.0, 0.0))))])
        assert tuned <= at_zero + 1e-9

    def test_degenerate_instance_constant_objective(self):
        inst = Max3SatInstance(num_vars=4, clauses=((1, 2, 3, 0.0),))
        family = build_family(inst, "0000")
        t, sharpness, trace = tune_walk_params(
            inst, family, CvarConfig(alpha=0.5), AdamConfig(iterations=5, restarts=2)
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
            state = cbqoa_initial_state(family, WalkParams(time=t, sharpness=sharpness))
            return _cvar_sorted(sorted_costs, (np.abs(state) ** 2)[order], 0.5)

        t, sharpness, _ = tune_walk_params(
            inst, family, CvarConfig(alpha=0.5), AdamConfig(iterations=120, restarts=3, rng_seed=1)
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
        betas, gammas, _ = tune_ansatz_params(
            inst, psi, 2, CvarConfig(alpha=0.5), FAST_ADAM, num_bins=200
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
        psi = cbqoa_initial_state(build_family(inst, "00001111"), walk)
        summary = cost_summary(inst)
        feas = feasible_indices(inst)
        values = summary.diagonal[feas]
        order = np.argsort(values)
        span = values.max() - values.min()
        depth, num_bins, alpha = 3, 2000, 0.5

        from cbqoa.fast_sim import bin_costs, eta_from_state, evolve_binned

        binning = bin_costs(summary.diagonal, feas, num_bins)
        base = eta_from_state(psi, binning)
        bound = 10.0 * depth * binning.width * span / alpha
        for _ in range(20):
            params = AnsatzParams(
                betas=tuple(rng.uniform(-np.pi, np.pi, depth)),
                gammas=tuple(rng.uniform(-np.pi, np.pi, depth)),
            )
            fast = evolve_binned(base, binning, params)
            cvar_fast = _cvar_sorted(binning.bin_costs, np.abs(fast) ** 2, alpha)
            dense = _apply_layers(psi.copy(), psi, summary.diagonal, params)
            cvar_dense = _cvar_sorted(values[order], (np.abs(dense[feas]) ** 2)[order], alpha)
            assert abs(cvar_fast - cvar_dense) <= bound

    def test_depth_validation(self, rng):
        inst = small_bisection(rng, n=6)
        with pytest.raises(ValueError):
            tune_ansatz_params(inst, uniform_feasible_state(inst), 0)


class TestOptimalSeed:
    """From a seed at the feasible optimum neither tuner can beat its all-zero first
    restart: the point mass there already has the least CVaR, and a gain must be
    strict. run_pipeline skips both tuners for such a seed on this premise."""

    @settings(max_examples=24, deadline=None)
    @given(
        make=st.sampled_from([small_bisection, small_3sat]),
        n=st.integers(3, 8),
        instance_seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from([0.5, 1.0, 0.37]),
        adam_seed=st.integers(0, 1000),
    )
    def test_tuners_return_zeros(self, make, n, instance_seed, alpha, adam_seed):
        if make is small_bisection:
            n += n % 2
        inst = make(np.random.default_rng(instance_seed), n=n)
        summary = cost_summary(inst)
        assume(not summary.degenerate)
        seed = index_to_bits(summary.optimum_index, n)
        cvar_cfg, adam_cfg = CvarConfig(alpha=alpha), AdamConfig(iterations=50, rng_seed=adam_seed)
        family = build_family(inst, seed)
        walk_time, sharpness, _ = tune_walk_params(inst, family, cvar_cfg, adam_cfg)
        assert (walk_time, sharpness) == (0.0, 0.0)
        psi = cbqoa_initial_state(family, WalkParams(0.0, 0.0))
        for depth in (1, 2, 3):
            betas, gammas, _ = tune_ansatz_params(inst, psi, depth, cvar_cfg, adam_cfg)
            assert betas == gammas == (0.0,) * depth


class TestLayerGradient:
    """The adjoint gradient of the binned layer CVaR against central differences."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("make", [small_bisection, small_3sat])
    def test_matches_central_differences_away_from_kinks(self, make, depth, alpha):
        rng = np.random.default_rng(100 * depth + int(10 * alpha))
        inst = make(rng, n=8)
        summary = cost_summary(inst)
        binning = bin_costs(summary.diagonal, summary.feasible, 60)
        psi = random_feasible_state(rng, summary.diagonal.size, summary.feasible)
        costs = binning.bin_costs
        base = eta_from_state(psi, binning)
        value_and_grad = _layer_objective(base, costs, depth, alpha)
        h = FD_STEP / 100
        steps = h * np.eye(2 * depth)
        stencil = np.concatenate([np.zeros((1, 2 * depth)), steps, -steps])
        checked = 0
        for _ in range(200):
            point = rng.uniform(-np.pi, np.pi, 2 * depth) + stencil
            coeffs = _evolve_rows(base, costs, point[:, :depth], point[:, depth:])[0]
            # On one boundary bin the CVaR is smooth; a stencil across a kink is rejected.
            if len({_cvar_boundary(np.abs(row) ** 2, alpha)[0] for row in coeffs}) > 1:
                continue
            grad = value_and_grad(point[:1], True)[1][0]
            up, down = value_and_grad(point[1:], False)[0].reshape(2, -1)
            want = (up - down) / (2 * h)
            assert np.linalg.norm(grad - want) <= 1e-6 * np.linalg.norm(want)
            checked += 1
            if checked == 5:
                break
        assert checked == 5


def walk_setup(rng, n, alpha):
    """A 3SAT instance, a seed with both 0 and 1 bits (so both factor orders occur),
    its cost order, and the walk tuner's (value, gradient) function."""
    inst = small_3sat(rng, n=n, num_clauses=4 * n)
    seed = rng.permutation(np.arange(n) % 2)
    family = build_family(inst, seed)
    costs = cost_summary(inst).diagonal
    order = np.argsort(costs, kind="stable")
    return seed, family, costs[order], order, _hypercube_objective(seed, family, costs, alpha)


class TestWalkGradient:
    """The adjoint gradient of the hypercube walk CVaR against central differences."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 0.37])
    @pytest.mark.parametrize("n", [8, 10])
    def test_matches_central_differences_away_from_kinks(self, n, alpha):
        rng = np.random.default_rng(10 * n + int(100 * alpha))
        seed, family, _, order, value_and_grad = walk_setup(rng, n, alpha)
        h = FD_STEP / 100
        stencil = np.concatenate([np.zeros((1, 2)), h * np.eye(2), -h * np.eye(2)])
        checked = 0
        for _ in range(200):
            point = np.array([rng.uniform(0, np.pi), rng.uniform(-2, 2)]) + stencil
            states = [hypercube_walk_state(seed, family.weights(s), t) for t, s in point]
            # On one boundary j the CVaR is smooth; a stencil across a kink is rejected.
            if len({_cvar_boundary(np.abs(x) ** 2, alpha, order)[0] for x in states}) > 1:
                continue
            grad = value_and_grad(point[:1], True)[1][0]
            up, down = value_and_grad(point[1:], False)[0].reshape(2, -1)
            want = (up - down) / (2 * h)
            assert np.linalg.norm(grad - want) <= 1e-6 * np.linalg.norm(want)
            checked += 1
            if checked == 5:
                break
        assert checked == 5

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 0.37])
    @pytest.mark.parametrize("n", [8, 10])
    def test_values_and_zero_time(self, rng, n, alpha):
        """One batched call: each value is _cvar_sorted on the squared walk state, and
        at t = 0 (a point mass, whatever the sharpness) the gradient is exactly zero."""
        seed, family, sorted_costs, order, value_and_grad = walk_setup(rng, n, alpha)
        points = np.column_stack([rng.uniform(0, np.pi, 8), rng.uniform(-2, 2, 8)])
        points[[0, 3], 0] = 0.0
        values, grads = value_and_grad(points, True)
        for (time, sharpness), value in zip(points, values):
            state = hypercube_walk_state(seed, family.weights(sharpness), time)
            assert value == _cvar_sorted(sorted_costs, np.abs(state) ** 2, alpha, order)
        assert grads[[0, 3]].tolist() == [[0.0, 0.0]] * 2
        assert np.all(grads[1:3] != 0.0)
