"""POGS metrics, hard-instance screening, pipeline records, and export."""

import json
import math

import numpy as np
import pytest

from cbqoa import (
    AdamConfig,
    BenchmarkSpec,
    Max3SatInstance,
    PipelineConfig,
    RunRecord,
    SdpConfig,
    WalkParams,
    brute_force_optimum,
    cbqoa_initial_state,
    export_results,
    gen_hard_instances,
    import_results,
    measurement_distribution,
    pogs_exact,
    pogs_monte_carlo,
    pogs_repeated,
    run_pipeline,
)
from cbqoa.bench import estimate_seed_pogs
from cbqoa.problems import bits_to_str, cost_summary, index_to_bits

from conftest import oracle_tune_walk_params, small_3sat, small_bisection

FAST_PIPELINE = PipelineConfig(
    rounding_trials=400,
    num_bins=120,
    adam=AdamConfig(iterations=25, restarts=2),
    sdp=SdpConfig(iterations=600),
    rng_seed=21,
)


class TestPogsExact:
    def test_point_mass_at_optimum(self, rng):
        inst = small_bisection(rng, n=6)
        best, _ = brute_force_optimum(inst)
        assert pogs_exact({bits_to_str(best): 1.0}, inst, 1.0) == 1.0
        assert pogs_exact({bits_to_str(best): 1.0}, inst, 0.3) == 1.0

    def test_threshold_above_one_gives_zero(self, rng):
        inst = small_bisection(rng, n=6)
        best, _ = brute_force_optimum(inst)
        assert pogs_exact({bits_to_str(best): 1.0}, inst, 1.5) == 0.0

    def test_infeasible_support_rejected(self, rng):
        inst = small_bisection(rng, n=6)
        with pytest.raises(ValueError):
            pogs_exact({"000111": 0.5, "011111": 0.5}, inst, 0.5)

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
        sampler_iter = iter(draws)
        sampler = lambda: index_to_bits(int(next(sampler_iter)), 8)
        estimate = pogs_monte_carlo(sampler, inst, threshold, trials)
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
        assert abs(estimate - exact) <= 3 * sigma + 1e-9


class TestPogsMonteCarlo:
    def test_deterministic_good_sampler(self, rng):
        inst = small_bisection(rng, n=6)
        best, _ = brute_force_optimum(inst)
        assert pogs_monte_carlo(lambda: best, inst, 0.9, 50) == 1.0

    def test_deterministic_bad_sampler(self, rng):
        inst = small_bisection(rng, n=6)
        summary = cost_summary(inst)
        worst = index_to_bits(int(summary.feasible[np.argmax(summary.diagonal[summary.feasible])]), 6)
        assert pogs_monte_carlo(lambda: worst, inst, 0.99, 50) == 0.0


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
        state = cbqoa_initial_state(inst, record.seed_bits, walk)
        expected = pogs_exact(measurement_distribution(state), inst, 0.99)
        assert record.pogs["cbqoa_0"]["0.99"] == pytest.approx(expected, abs=1e-9)
        assert "gm_qaoa_0" in record.pogs
        assert record.depth == 0

    def test_record_json_round_trip(self, rng):
        inst = small_bisection(rng, n=6)
        record = run_pipeline(inst, 1, FAST_PIPELINE)
        restored = RunRecord.from_json(record.to_json())
        assert restored == record

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
        lockstep = run_pipeline(inst, 1, FAST_PIPELINE).to_dict()
        monkeypatch.setattr("cbqoa.bench.tune_walk_params", oracle_tune_walk_params)
        sequential = run_pipeline(inst, 1, FAST_PIPELINE).to_dict()
        lockstep.pop("wall_time_s")
        sequential.pop("wall_time_s")
        assert lockstep == sequential

    def test_error_carries_instance_id(self):
        inst = Max3SatInstance(num_vars=3, clauses=())  # degenerate: no cost spread
        with pytest.raises(RuntimeError, match="pipeline failed for instance"):
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
