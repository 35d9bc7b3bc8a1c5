"""POGS metrics, hard-instance screening, pipeline records, and export."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbqoa import (
    AdamConfig,
    BenchmarkSpec,
    CvarConfig,
    Max3SatInstance,
    PipelineConfig,
    RunRecord,
    SdpConfig,
    WalkParams,
    bench,
    export_results,
    gen_hard_instances,
    import_results,
    run_pipeline,
)
from cbqoa.bench import estimate_seed_pogs, pogs_exact, pogs_repeated
from cbqoa.cvar import tune_ansatz_params, tune_walk_params
from cbqoa.errors import DegenerateInstanceError
from cbqoa.mixer import build_family
from cbqoa.problems import beta_values, bits_to_str, cost_summary
from cbqoa.simulate import cbqoa_initial_state

from conftest import (
    index_to_bits,
    measurement_distribution,
    oracle_tune_walk_params,
    small_3sat,
    small_bisection,
)

FAST_PIPELINE = PipelineConfig(
    rounding_trials=400,
    num_bins=120,
    adam=AdamConfig(iterations=25, restarts=2),
    sdp=SdpConfig(iterations=600),
    rng_seed=21,
)
# The walk seed is one rounding: on the n=8 test instances it is not optimal, so the
# walk and the cbqoa layers are tuned.
ONE_ROUNDING = replace(FAST_PIPELINE, seed_trials=1, rng_seed=24)


class Spy:
    """Calls through to func and counts the calls."""

    def __init__(self, func):
        self.func, self.calls = func, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.func(*args, **kwargs)


class TestPogsExact:
    def test_point_mass_at_optimum(self, rng):
        inst = small_bisection(rng, n=6)
        best = index_to_bits(cost_summary(inst).optimum_index, inst.n)
        assert pogs_exact({bits_to_str(best): 1.0}, inst, 1.0) == 1.0
        assert pogs_exact({bits_to_str(best): 1.0}, inst, 0.3) == 1.0

    def test_threshold_above_one_gives_zero(self, rng):
        inst = small_bisection(rng, n=6)
        best = index_to_bits(cost_summary(inst).optimum_index, inst.n)
        assert pogs_exact({bits_to_str(best): 1.0}, inst, 1.5) == 0.0

    def test_infeasible_support_rejected(self, rng):
        inst = small_bisection(rng, n=6)
        with pytest.raises(ValueError):
            pogs_exact({"000111": 0.5, "011111": 0.5}, inst, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
        threshold=st.floats(-1.0, 1.5),
        leak=st.floats(2e-12, 1.0),
    )
    def test_matches_array_rule(self, seed, weights, threshold, leak):
        """Any feasible distribution scores as probs[beta >= x - tol].sum();
        any mass above 1e-12 on an infeasible string raises."""
        inst = small_bisection(np.random.default_rng(seed), n=6)
        feas = cost_summary(inst).feasible[: len(weights)]
        probs = np.array(weights) / max(sum(weights), 1.0)
        distribution = {format(int(i), "06b"): float(p) for i, p in zip(feas, probs)}
        expected = float(probs[beta_values(inst)[feas] >= threshold - 1e-12].sum())
        assert abs(pogs_exact(distribution, inst, threshold) - expected) <= 1e-12
        infeasible = np.flatnonzero(np.bitwise_count(np.arange(64)) != 3)
        key = format(int(infeasible[seed % infeasible.size]), "06b")
        with pytest.raises(ValueError, match="infeasible"):
            pogs_exact(distribution | {key: leak}, inst, threshold)

    def test_matches_monte_carlo(self, rng):
        """Sampling estimate agrees within three binomial standard errors."""
        inst = small_bisection(rng, n=8)
        summary = cost_summary(inst)
        feas = summary.feasible
        weights = rng.random(feas.size)
        weights /= weights.sum()
        distribution = {
            bits_to_str(index_to_bits(int(i), 8)): float(p) for i, p in zip(feas, weights)
        }
        threshold = 0.4
        exact = pogs_exact(distribution, inst, threshold)
        trials = 100000
        draws = rng.choice(feas, size=trials, p=weights)
        estimate = float((beta_values(inst)[draws] >= threshold - 1e-12).mean())
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
        assert abs(estimate - exact) <= 3 * sigma + 1e-9


class TestPogsRepeated:
    def test_formula_example(self):
        assert pogs_repeated(0.2, 3) == pytest.approx(0.488)

    def test_single_run_identity(self):
        assert pogs_repeated(0.37, 1) == pytest.approx(0.37)

    def test_certain_success(self):
        assert pogs_repeated(1.0, 4) == 1.0

    def test_monotone(self):
        values = [pogs_repeated(0.15, k) for k in range(1, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            pogs_repeated(1.2, 3)
        with pytest.raises(ValueError):
            pogs_repeated(0.5, 0)


class TestBenchmarkSpec:
    @pytest.mark.parametrize("problem, threshold", [("max3sat", 0.7), ("max_bisection", 0.99)])
    def test_screening_threshold_follows_the_problem(self, problem, threshold):
        """Unset, the threshold is the problem's first POGS threshold; set, it is kept."""
        assert BenchmarkSpec(problem=problem).ratio_threshold == threshold
        assert BenchmarkSpec(problem=problem, ratio_threshold=0.5).ratio_threshold == 0.5

    def test_problem_constructors(self):
        shared = dict(
            count=3, num_vars=16, num_clauses=200, num_vertices=12, edge_prob=0.5,
            pogs_cutoff=0.05, rounding_trials=10000, rng_seed=0, max_attempts_factor=100,
        )
        assert asdict(BenchmarkSpec.for_max3sat(count=3)) == dict(
            shared, problem="max3sat", ratio_threshold=0.7
        )
        assert asdict(BenchmarkSpec.for_max_bisection(count=3)) == dict(
            shared, problem="max_bisection", ratio_threshold=0.99
        )


class TestGenHardInstances:
    def test_deterministic_and_below_cutoff(self):
        spec = BenchmarkSpec.for_max3sat(count=2, rounding_trials=1500, rng_seed=13)
        first, stats_a = gen_hard_instances(spec)
        second, stats_b = gen_hard_instances(spec)
        assert [i.to_dict() for i in first] == [i.to_dict() for i in second]
        assert all(e < spec.pogs_cutoff for e in stats_a.pogs_estimates)
        assert stats_a.attempts == stats_b.attempts

    def test_guard_trips_on_partial_set(self):
        spec = BenchmarkSpec.for_max_bisection(
            count=3,
            rounding_trials=300,
            pogs_cutoff=0.002,  # essentially never satisfied
            max_attempts_factor=2,
            rng_seed=14,
        )
        instances, stats = gen_hard_instances(spec)
        assert stats.guard_tripped
        assert len(instances) < 3
        assert stats.attempts == 6

    def test_reestimation_stays_below_cutoff_with_slack(self):
        spec = BenchmarkSpec.for_max3sat(count=2, rounding_trials=1500, rng_seed=13)
        instances, stats = gen_hard_instances(spec)
        sigma = math.sqrt(spec.pogs_cutoff * (1 - spec.pogs_cutoff) / spec.rounding_trials)
        for instance in instances:
            again = estimate_seed_pogs(
                instance,
                spec.ratio_threshold,
                spec.rounding_trials,
                np.random.default_rng(999),
                SdpConfig(rng_seed=999),
            )
            assert again <= spec.pogs_cutoff + 2 * sigma


class TestRunPipeline:
    def test_depth_zero_record(self, rng):
        inst = small_bisection(rng, n=6)
        record = run_pipeline(inst, 0, FAST_PIPELINE)
        walk = WalkParams(time=record.walk_time, sharpness=record.walk_sharpness)
        state = cbqoa_initial_state(build_family(inst, record.seed_bits), walk)
        expected = pogs_exact(measurement_distribution(state), inst, 0.99)
        assert record.pogs["cbqoa_0"]["0.99"] == pytest.approx(expected, abs=1e-9)
        assert "gm_qaoa_0" in record.pogs
        assert record.depth == 0

    def test_record_json_round_trip(self, rng):
        inst = small_bisection(rng, n=6)
        record = run_pipeline(inst, 1, FAST_PIPELINE)
        restored = RunRecord.from_json(record.to_json())
        assert restored == record
        assert RunRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record
        assert restored.to_dict() == record.to_dict()

    def test_deterministic(self, rng):
        inst = small_bisection(rng, n=6)
        a = run_pipeline(inst, 1, FAST_PIPELINE)
        b = run_pipeline(inst, 1, FAST_PIPELINE)
        assert a.to_json() == b.to_json() or (
            json.loads(a.to_json()) | {"wall_time_s": 0}
        ) == (json.loads(b.to_json()) | {"wall_time_s": 0})

    def test_boosted_values_consistent(self, rng):
        inst = small_bisection(rng, n=6)
        record = run_pipeline(inst, 0, FAST_PIPELINE)
        for algorithm, per in record.pogs.items():
            for key, value in per.items():
                boosted = record.pogs_boosted[algorithm][key]
                assert boosted == pytest.approx(pogs_repeated(value, record.repetitions))

    @pytest.mark.parametrize("make, n", [(small_bisection, 8), (small_3sat, 6)])
    def test_record_matches_sequential_walk_oracle(self, rng, monkeypatch, make, n):
        inst = make(rng, n=n)
        lockstep = run_pipeline(inst, 1, ONE_ROUNDING).to_dict()
        oracle = Spy(oracle_tune_walk_params)
        monkeypatch.setattr("cbqoa.bench.tune_walk_params", oracle)
        sequential = run_pipeline(inst, 1, ONE_ROUNDING).to_dict()
        assert oracle.calls == 1
        assert lockstep["walk_time"] != 0.0
        lockstep.pop("wall_time_s")
        sequential.pop("wall_time_s")
        assert lockstep == sequential

    def _spied_run(self, monkeypatch, inst, config):
        walk = Spy(bench.tune_walk_params)
        layers = Spy(bench.tune_ansatz_params)
        monkeypatch.setattr(bench, "tune_walk_params", walk)
        monkeypatch.setattr(bench, "tune_ansatz_params", layers)
        return run_pipeline(inst, 2, config), walk.calls, layers.calls

    def test_optimal_seed_skips_walk_and_cbqoa_layer_tuning(self, rng, monkeypatch):
        inst = small_bisection(rng, n=8)
        record, walk_calls, layer_calls = self._spied_run(monkeypatch, inst, FAST_PIPELINE)
        assert record.seed_cost == cost_summary(inst).optimum_value
        assert (walk_calls, layer_calls) == (0, 1)  # GM-QAOA's layers only
        # The record holds what the tuners return when they do run from that seed.
        cvar_cfg = CvarConfig(alpha=FAST_PIPELINE.alpha)
        family = build_family(inst, record.seed_bits)
        walk_time, sharpness, _ = tune_walk_params(inst, family, cvar_cfg, FAST_PIPELINE.adam)
        assert (record.walk_time, record.walk_sharpness) == (walk_time, sharpness)
        psi = cbqoa_initial_state(family, WalkParams(walk_time, sharpness))
        betas, gammas, _ = tune_ansatz_params(
            inst, psi, 2, cvar_cfg, FAST_PIPELINE.adam, num_bins=FAST_PIPELINE.num_bins
        )
        assert (record.betas, record.gammas) == (betas, gammas) == ((0.0, 0.0), (0.0, 0.0))

    def test_other_seed_tunes_walk_and_both_layers(self, rng, monkeypatch):
        inst = small_bisection(rng, n=8)
        record, walk_calls, layer_calls = self._spied_run(monkeypatch, inst, ONE_ROUNDING)
        assert record.seed_cost > cost_summary(inst).optimum_value
        assert (walk_calls, layer_calls) == (1, 2)

    def test_error_carries_instance_id(self):
        inst = Max3SatInstance(num_vars=3, clauses=())  # degenerate: no cost spread
        with pytest.raises(DegenerateInstanceError, match="pipeline failed for instance"):
            run_pipeline(inst, 1, FAST_PIPELINE)


class TestExportResults:
    def _records(self, rng, n=2):
        inst_a = small_bisection(rng, n=6)
        records = [run_pipeline(inst_a, 0, FAST_PIPELINE)]
        if n > 1:
            inst_b = small_bisection(rng, n=6)
            records.append(run_pipeline(inst_b, 0, FAST_PIPELINE))
        return records

    def test_export_and_reimport(self, rng, tmp_path):
        records = self._records(rng)
        paths = export_results(records, tmp_path / "out")
        assert paths["csv"].exists() and paths["manifest"].exists()
        restored = import_results(tmp_path / "out")
        assert sorted(r.instance_id for r in restored) == sorted(
            r.instance_id for r in records
        )
        assert all(a == b for a, b in zip(restored, sorted(records, key=lambda r: (r.instance_id, r.depth))))

    def test_csv_columns_fixed(self, rng, tmp_path):
        records = self._records(rng, n=1)
        paths = export_results(records, tmp_path / "out")
        header = paths["csv"].read_text().splitlines()[0]
        assert header == "instance_id,problem,depth,algorithm,threshold,pogs"

    def test_row_count(self, rng, tmp_path):
        records = self._records(rng, n=1)
        paths = export_results(records, tmp_path / "out")
        rows = paths["csv"].read_text().splitlines()[1:]
        expected = sum(len(per) for per in records[0].pogs.values())
        assert len(rows) == expected

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_results([], tmp_path / "out")
