"""Lower-tail objective, the ADAM loop, and the two tuning entry points."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbqoa import AdamConfig, CvarConfig, Max3SatInstance, WalkParams, cvar
from cbqoa.cvar import (
    _CVAR_CHUNK,
    FD_STEP,
    _adam_lockstep,
    _central_differences,
    _cvar_boundary,
    _hypercube_objective,
    _layer_objective,
    _xy_objective,
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
        # A probability of exactly -1e-12 is rounding noise, accepted.
        assert cvar_discrete([(1.0, 1.0 + 1e-12), (3.0, -1e-12)], 1.0) == pytest.approx(1.0)

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
            assert _cvar_boundary(values, probs, alpha)[0] == pytest.approx(slow, abs=1e-12)

    def test_strided_row_equals_contiguous_copy(self, rng):
        """A strided view gives exactly the value of its contiguous copy."""
        values = np.sort(rng.standard_normal(4096))
        columns = rng.random((4096, 20))
        columns /= columns.sum(axis=0)
        for k in range(20):
            strided = columns[:, k]
            for alpha in (0.3, 0.5, 1.0):
                assert _cvar_boundary(values, strided, alpha)[0] == _cvar_boundary(
                    values, strided.copy(), alpha
                )[0]


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
        assert _cvar_boundary(values, probs, alpha)[0] == want
        assert _cvar_boundary(values, unsorted, alpha, order)[0] == want


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

    def test_returns_best_seen_not_last(self, monkeypatch):
        # oscillation-prone step keeps the minimum seen along the way
        monkeypatch.setattr(cvar, "LEARNING_RATE", 0.9)
        _, value, trace = one_restart(lambda x: float(abs(x[0])), [3.0], AdamConfig(iterations=80))
        assert value == min(v for *_, v in trace)

    def test_ties_keep_the_incumbent(self):
        """Improvement is strict beyond 1e-9 relative (absolute below 1): a tie, or a
        candidate exactly at that margin, does not improve."""
        for x in (0.0, -2.5, 1e6):
            assert not cvar._improves(x, x)
        assert not cvar._improves(-1e-9, 0.0)
        assert cvar._improves(np.nextafter(-1e-9, -1.0), 0.0)

    def test_non_finite_abort(self):
        with pytest.raises(RuntimeError):
            one_restart(lambda x: float("nan"), [0.0], AdamConfig())


def _bumpy(x: np.ndarray) -> float:
    return float(np.sum(np.sin(3 * x) + 0.1 * (x - 0.5) ** 2) + 0.2 * x[0] * x[-1])


def _even(x: np.ndarray) -> float:
    """Even in each coordinate, so its central differences at 0 are exactly zero."""
    return float(np.sum(np.cos(3 * x) + 0.1 * x**2))


def counting(value_and_grad, rows: list):
    """value_and_grad that appends the number of points of each call to rows."""

    def counted(points):
        rows.append(len(points))
        return value_and_grad(points)

    return counted


def count_rows(monkeypatch, factory: str) -> list:
    """Patch the objective factory cvar.<factory> to count the points of every call."""
    rows, make = [], getattr(cvar, factory)
    monkeypatch.setattr(cvar, factory, lambda *args: counting(make(*args), rows))
    return rows


class TestLockstepAdam:
    """Lockstep restarts reproduce sequential ADAM runs exactly."""

    @pytest.mark.parametrize(
        "cfg",  # (settings, step size)
        [
            (AdamConfig(iterations=40), cvar.LEARNING_RATE),
            (AdamConfig(iterations=0), cvar.LEARNING_RATE),
            (AdamConfig(iterations=30), 0.3),
        ],
    )
    def test_matches_sequential_restarts(self, rng, monkeypatch, cfg):
        cfg, rate = cfg
        monkeypatch.setattr(cvar, "LEARNING_RATE", rate)
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
        assert rows == [4 * 5] * 8

    @pytest.mark.parametrize("cfg", [AdamConfig(iterations=40), AdamConfig(iterations=0)])
    def test_stationary_restart_is_evaluated_once(self, rng, cfg):
        """A restart at a stationary point keeps its first value and gradient: 4 rows
        at step 0 and 3 after, with the sequential runs' params, value and trace."""
        inits = [np.zeros(3)] + [rng.uniform(-2, 2, size=3) for _ in range(3)]
        rows = []
        params, value, trace = _adam_lockstep(
            counting(_central_differences(row_by_row(_even)), rows), np.array(inits), cfg
        )
        assert rows == [4] + [3] * cfg.iterations
        want_params, want_value, want_trace = oracle_run_restarts(_even, inits, cfg)
        assert np.array_equal(params, want_params)
        assert value == want_value
        assert trace == want_trace

    def test_no_call_when_every_restart_is_stationary(self):
        """A constant objective: one call at step 0, none with zero rows after it,
        and the first restart wins the ties."""
        rows = []

        def value_and_grad(points):
            return np.full(len(points), 2.5), np.zeros_like(points)

        inits = np.array([[0.0, 0.0], [0.3, -1.0], [1.2, 0.4]])
        cfg = AdamConfig(iterations=6)
        params, value, trace = _adam_lockstep(counting(value_and_grad, rows), inits, cfg)
        assert rows == [3]
        assert params.tolist() == [0.0, 0.0] and value == 2.5
        assert trace == [(r, it, 2.5) for r in range(3) for it in range(7)]

    def test_non_finite_row_raises(self, monkeypatch):
        """One restart walking into a NaN region aborts the whole batch."""

        def objective(points):
            return np.where(points[:, 0] > 1.0, np.nan, -points[:, 0])

        monkeypatch.setattr(cvar, "LEARNING_RATE", 0.2)
        with pytest.raises(RuntimeError):
            _adam_lockstep(_central_differences(objective), np.array([[0.0], [0.9]]), AdamConfig())

    def test_nan_value_raises_on_the_analytic_path(self):
        def value_and_grad(points):
            return np.full(len(points), np.nan), np.zeros_like(points)

        with pytest.raises(RuntimeError, match="objective not finite"):
            _adam_lockstep(value_and_grad, np.zeros((2, 3)), AdamConfig(iterations=5))

    def test_nan_gradient_raises_on_the_analytic_path(self):
        """The message names the iteration that gradient would have made."""

        def value_and_grad(points):
            return np.sum(points**2, axis=1), np.full_like(points, np.nan)

        with pytest.raises(RuntimeError, match="non-finite gradient at iteration 1,"):
            _adam_lockstep(value_and_grad, np.zeros((2, 3)), AdamConfig(iterations=5))

    def test_last_gradient_is_never_applied(self):
        """The last call's gradient is computed and dropped: a NaN there raises nothing
        and leaves the params, value and trace of a run whose last gradient is finite."""
        cfg = AdamConfig(iterations=4)
        inits = np.array([[1.0, -0.5], [0.3, 2.0], [-1.2, 0.7]])

        def run(last_grad):
            calls = []

            def value_and_grad(points):
                calls.append(len(points))
                last = len(calls) == cfg.iterations + 1
                grads = np.full_like(points, last_grad) if last else 2 * points
                return np.sum(points**2, axis=1), grads

            return _adam_lockstep(value_and_grad, inits, cfg), calls

        (params, value, trace), calls = run(np.nan)
        (want_params, want_value, want_trace), want_calls = run(1.0)
        assert calls == want_calls == [3] * (cfg.iterations + 1)
        assert np.array_equal(params, want_params)
        assert value == want_value
        assert trace == want_trace


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
        tuned = _cvar_boundary(
            summary.diagonal[order], (np.abs(state) ** 2)[order], 0.5
        )[0]
        at_zero = float(summary.diagonal[np.argmax(np.abs(cbqoa_initial_state(family, WalkParams(0.0, 0.0))))])
        assert tuned <= at_zero + 1e-9

    def test_degenerate_instance_constant_objective(self, monkeypatch):
        """Every restart is stationary: one call at step 0, and the first restart wins."""
        rows = count_rows(monkeypatch, "_hypercube_objective")
        inst = Max3SatInstance(num_vars=4, clauses=((1, 2, 3, 0.0),))
        family = build_family(inst, "0000")
        t, sharpness, trace = tune_walk_params(
            inst, family, CvarConfig(alpha=0.5), AdamConfig(iterations=5, restarts=2)
        )
        values = {round(v, 12) for _, _, v in trace}
        assert values == {0.0}
        assert rows == [2]
        assert (t, sharpness) == (0.0, 0.0)

    def test_default_tuning_skips_the_stationary_start(self, rng, monkeypatch):
        """With the default AdamConfig the all-zero first restart is evaluated once: a
        hypercube walk tuning evaluates 4 + 3 * 200 = 604 rows, not 804."""
        rows = count_rows(monkeypatch, "_hypercube_objective")
        inst = small_3sat(rng, n=6)
        worst = index_to_bits(int(np.argmax(cost_summary(inst).diagonal)), 6)
        tune_walk_params(inst, build_family(inst, worst))
        assert rows == [4] + [3] * 200

    def test_xy_tuning_skips_the_stationary_start(self, rng, monkeypatch):
        """An XY walk tuning sweeps 3 * 5 rows per gradient step instead of 4 * 5."""
        batches = []
        sweep = cvar.ctqw_trotter_xy

        def counted(family, times, sharpnesses, steps):
            batches.append(len(times))
            return sweep(family, times, sharpnesses, steps)

        monkeypatch.setattr(cvar, "ctqw_trotter_xy", counted)
        inst = small_bisection(rng, n=6)
        tune_walk_params(inst, build_family(inst, "010011"), adam_cfg=AdamConfig(iterations=20))
        assert batches == [4 * 5] + [3 * 5] * 20

    def test_grid_search_finds_nothing_much_better(self, rng):
        """Coarse sweep over the search box as an independent check."""
        inst = Max3SatInstance(num_vars=3, clauses=((1, 2, 3, 1.0),))
        family = build_family(inst, "000")
        summary = cost_summary(inst)
        order = np.argsort(summary.diagonal, kind="stable")
        sorted_costs = summary.diagonal[order]

        def objective(t, sharpness):
            state = cbqoa_initial_state(family, WalkParams(time=t, sharpness=sharpness))
            return _cvar_boundary(sorted_costs, (np.abs(state) ** 2)[order], 0.5)[0]

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
        base = _cvar_boundary(values[order], (np.abs(psi[feas]) ** 2)[order], 0.5)[0]
        betas, gammas, _ = tune_ansatz_params(
            inst, psi, 2, CvarConfig(alpha=0.5), FAST_ADAM, num_bins=200
        )
        final = _apply_layers(psi, summary.diagonal, AnsatzParams(betas=betas, gammas=gammas))
        tuned = _cvar_boundary(values[order], (np.abs(final[feas]) ** 2)[order], 0.5)[0]
        assert tuned <= base + 1e-6

    def test_backends_agree_at_random_points(self, rng):
        """Binned and dense objectives differ by at most the binning bound, and by
        at most 1e-9 on level bins (width 0)."""
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
        bound = 10.0 * depth * binning.width * span / alpha if binning.width else 1e-9
        for _ in range(20):
            params = AnsatzParams(
                betas=tuple(rng.uniform(-np.pi, np.pi, depth)),
                gammas=tuple(rng.uniform(-np.pi, np.pi, depth)),
            )
            fast = evolve_binned(base, binning, params)
            cvar_fast = _cvar_boundary(binning.bin_costs, np.abs(fast) ** 2, alpha)[0]
            dense = _apply_layers(psi, summary.diagonal, params)
            cvar_dense = _cvar_boundary(values[order], (np.abs(dense[feas]) ** 2)[order], alpha)[0]
            assert abs(cvar_fast - cvar_dense) <= bound

    def test_depth_validation(self, rng):
        inst = small_bisection(rng, n=6)
        with pytest.raises(ValueError):
            tune_ansatz_params(inst, uniform_feasible_state(inst), 0, num_bins=1000)

    @pytest.mark.parametrize("walked", [False, True])
    def test_default_tuning_skips_the_stationary_start(self, rng, monkeypatch, walked):
        """GM-QAOA (uniform start) and cbqoa (walk start) layer tunings with the
        default AdamConfig evaluate 604 rows: the all-zero first restart once."""
        rows = count_rows(monkeypatch, "_layer_objective")
        inst = small_bisection(rng, n=6)
        if walked:
            psi = cbqoa_initial_state(build_family(inst, "010011"), WalkParams(0.7, 0.3))
        else:
            psi = uniform_feasible_state(inst)
        tune_ansatz_params(inst, psi, 3, num_bins=1000)
        assert rows == [4] + [3] * 200


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
            betas, gammas, _ = tune_ansatz_params(
                inst, psi, depth, cvar_cfg, adam_cfg, num_bins=1000
            )
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
            if len({_cvar_boundary(costs, np.abs(row) ** 2, alpha)[1] for row in coeffs}) > 1:
                continue
            grad = value_and_grad(point[:1])[1][0]
            up, down = value_and_grad(point[1:])[0].reshape(2, -1)
            want = (up - down) / (2 * h)
            assert np.linalg.norm(grad - want) <= 1e-6 * np.linalg.norm(want)
            checked += 1
            if checked == 5:
                break
        assert checked == 5


def walk_setup(rng, n, alpha):
    """The family of a 3SAT instance at a seed with both 0 and 1 bits (so both factor
    orders occur), its cost order, and the walk tuner's (value, gradient) function."""
    inst = small_3sat(rng, n=n, num_clauses=4 * n)
    seed = rng.permutation(np.arange(n) % 2)
    family = build_family(inst, seed)
    costs = cost_summary(inst).diagonal
    order = np.argsort(costs, kind="stable")
    return family, costs[order], order, _hypercube_objective(family, costs, alpha)


class TestWalkGradient:
    """The adjoint gradient of the hypercube walk CVaR against central differences."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 0.37])
    @pytest.mark.parametrize("n", [8, 10])
    def test_matches_central_differences_away_from_kinks(self, n, alpha):
        rng = np.random.default_rng(10 * n + int(100 * alpha))
        family, sorted_costs, order, value_and_grad = walk_setup(rng, n, alpha)
        h = FD_STEP / 100
        stencil = np.concatenate([np.zeros((1, 2)), h * np.eye(2), -h * np.eye(2)])
        checked = 0
        for _ in range(200):
            point = np.array([rng.uniform(0, np.pi), rng.uniform(-2, 2)]) + stencil
            states = [cbqoa_initial_state(family, WalkParams(t, s)) for t, s in point]
            # On one boundary j the CVaR is smooth; a stencil across a kink is rejected.
            js = {_cvar_boundary(sorted_costs, np.abs(x) ** 2, alpha, order)[1] for x in states}
            if len(js) > 1:
                continue
            grad = value_and_grad(point[:1])[1][0]
            up, down = value_and_grad(point[1:])[0].reshape(2, -1)
            want = (up - down) / (2 * h)
            assert np.linalg.norm(grad - want) <= 1e-6 * np.linalg.norm(want)
            checked += 1
            if checked == 5:
                break
        assert checked == 5

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 0.37])
    @pytest.mark.parametrize("n", [8, 10])
    def test_values_and_zero_time(self, rng, n, alpha):
        """One batched call: each value is _cvar_boundary's CVaR of the squared walk state,
        and at t = 0 (a point mass, whatever the sharpness) the gradient is exactly zero."""
        family, sorted_costs, order, value_and_grad = walk_setup(rng, n, alpha)
        points = np.column_stack([rng.uniform(0, np.pi, 8), rng.uniform(-2, 2, 8)])
        points[[0, 3], 0] = 0.0
        values, grads = value_and_grad(points)
        for (time, sharpness), value in zip(points, values):
            state = cbqoa_initial_state(family, WalkParams(time, sharpness))
            assert value == _cvar_boundary(sorted_costs, np.abs(state) ** 2, alpha, order)[0]
        assert grads[[0, 3]].tolist() == [[0.0, 0.0]] * 2
        assert np.all(grads[1:3] != 0.0)


def assert_batch_independent(value_and_grad, points: np.ndarray):
    """Each row's value and gradient in the batch equal, bit for bit, those of every
    sub-batch holding it, from a single row up."""
    values, grads = value_and_grad(points)
    for size in range(1, len(points)):
        for rows in map(list, itertools.combinations(range(len(points)), size)):
            sub_values, sub_grads = value_and_grad(points[rows])
            assert sub_values.tobytes() == values[rows].tobytes()
            assert sub_grads.tobytes() == grads[rows].tobytes()


def four_points(rng, low, high, zero_first: bool) -> np.ndarray:
    """Four points drawn uniformly from the box; the first is all-zero if asked."""
    points = rng.uniform(low, high, size=(4, len(low)))
    if zero_first:
        points[0] = 0.0
    return points


class TestBatchIndependence:
    """The lockstep tuner evaluates only the restarts that moved, so each objective
    must give a row the same bits whichever rows share its batch."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 9),
        alpha=st.sampled_from([0.5, 1.0, 0.37, 1e-3]),
        zero_first=st.booleans(),
    )
    def test_hypercube_walk(self, seed, n, alpha, zero_first):
        rng = np.random.default_rng(seed)
        inst = small_3sat(rng, n=n, num_clauses=4 * n)
        bits = rng.integers(0, 2, n)
        costs = cost_summary(inst).diagonal
        value_and_grad = _hypercube_objective(build_family(inst, bits), costs, alpha)
        assert_batch_independent(value_and_grad, four_points(rng, [0, -2], [np.pi, 2], zero_first))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        half=st.integers(2, 4),
        steps=st.integers(1, 3),
        alpha=st.sampled_from([0.5, 1.0, 0.37]),
        zero_first=st.booleans(),
    )
    def test_xy_walk(self, seed, half, steps, alpha, zero_first):
        rng = np.random.default_rng(seed)
        inst = small_bisection(rng, n=2 * half)
        bits = rng.permutation(np.arange(2 * half) % 2)
        value_and_grad = _xy_objective(
            build_family(inst, bits), cost_summary(inst).diagonal, alpha, steps
        )
        assert_batch_independent(value_and_grad, four_points(rng, [0, -2], [np.pi, 2], zero_first))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        level=st.booleans(),
        num_bins=st.integers(1, 1000),
        depth=st.integers(1, 4),
        alpha=st.sampled_from([0.5, 1.0, 0.37]),
        zero_first=st.booleans(),
    )
    def test_layers(self, seed, level, num_bins, depth, alpha, zero_first):
        """Level bins (bisection, n = 8: at most 70 costs) and uniform bins, up to
        M = 1000, on Max 3SAT with real weights (n = 11: about 1,500 distinct costs).
        The shared sums phi @ base and lam @ base run through BLAS."""
        rng = np.random.default_rng(seed)
        inst = small_bisection(rng, n=8) if level else small_3sat(rng, n=11, num_clauses=44)
        summary = cost_summary(inst)
        binning = bin_costs(summary.diagonal, summary.feasible, num_bins)
        assume((binning.width == 0) == level)
        psi = random_feasible_state(rng, summary.diagonal.size, summary.feasible)
        value_and_grad = _layer_objective(
            eta_from_state(psi, binning), binning.bin_costs, depth, alpha
        )
        box = np.full(2 * depth, np.pi)
        assert_batch_independent(value_and_grad, four_points(rng, -box, box, zero_first))

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(["hypercube", "xy", "layers"]),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from([0.5, 1.0, 0.37]),
    )
    def test_drawn_points(self, data, kind, seed, alpha):
        """Points that Hypothesis draws, not uniform ones: repeated rows, signed zeros,
        subnormal and box-edge coordinates, one to four rows, on a drawn instance size
        (and depth and bin count) of each of the three objectives."""
        rng = np.random.default_rng(seed)
        if kind == "xy":
            n = 2 * data.draw(st.integers(2, 4), label="half")
            inst = small_bisection(rng, n=n)
            bits = rng.permutation(np.arange(n) % 2)
            steps = data.draw(st.integers(1, 3), label="steps")
            value_and_grad = _xy_objective(
                build_family(inst, bits), cost_summary(inst).diagonal, alpha, steps
            )
            dim = 2
        elif kind == "hypercube":
            n = data.draw(st.integers(3, 8), label="n")
            inst = small_3sat(rng, n=n, num_clauses=4 * n)
            bits = rng.integers(0, 2, n)
            value_and_grad = _hypercube_objective(
                build_family(inst, bits), cost_summary(inst).diagonal, alpha
            )
            dim = 2
        else:
            n = data.draw(st.integers(3, 8), label="n")
            summary = cost_summary(small_3sat(rng, n=n, num_clauses=4 * n))
            depth = data.draw(st.integers(1, 3), label="depth")
            binning = bin_costs(
                summary.diagonal, summary.feasible, data.draw(st.integers(1, 300), label="bins")
            )
            psi = random_feasible_state(rng, summary.diagonal.size, summary.feasible)
            value_and_grad = _layer_objective(
                eta_from_state(psi, binning), binning.bin_costs, depth, alpha
            )
            dim = 2 * depth
        shape = st.tuples(st.integers(1, 4), st.just(dim))
        points = data.draw(arrays(np.float64, shape, elements=st.floats(-4.0, 4.0)), label="points")
        assert_batch_independent(value_and_grad, points)
