"""POGS metrics, hard-instance screening, pipeline records, and export."""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbqoa
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
from cbqoa.bench import default_repetitions, estimate_seed_pogs, pogs_exact, pogs_repeated
from cbqoa.cvar import tune_ansatz_params, tune_walk_params
from cbqoa.errors import DegenerateInstanceError
from cbqoa.mixer import build_family
from cbqoa.problems import beta_values, bits_to_str, cost_summary, instance_id
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
        assert pogs_exact({}, inst, 0.3) == 0.0

    def test_infeasible_support_rejected(self, rng):
        inst = small_bisection(rng, n=6)
        with pytest.raises(ValueError):
            pogs_exact({"000111": 0.5, "011111": 0.5}, inst, 0.5)
        with pytest.raises(ValueError, match="expected 6 bits"):
            pogs_exact({"000111": 0.5, "0111": 0.5}, inst, 0.5)

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

    def test_certain_failure(self):
        assert pogs_repeated(0.0, 4) == 0.0

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

    def test_settings_at_their_bounds_are_accepted(self):
        """The closed ends of each range: a screening threshold of 1, one instance, one
        rounding, three variables, one clause, edge probability 1, one bin, and one seed trial
        of one rounding."""
        bounds = dict(
            ratio_threshold=1.0, count=1, rounding_trials=1, num_vars=3, num_clauses=1,
            edge_prob=1.0,
        )
        spec = BenchmarkSpec(problem="max3sat", **bounds)
        assert {key: getattr(spec, key) for key in bounds} == bounds
        config = PipelineConfig(num_bins=1, rounding_trials=1, seed_trials=1)
        assert (config.num_bins, config.rounding_trials, config.seed_trials) == (1, 1, 1)

    @pytest.mark.parametrize(
        "field, value",
        [("ratio_threshold", float("nan")), ("ratio_threshold", float("inf")),
         ("ratio_threshold", float("-inf")), ("ratio_threshold", 1.5),
         ("pogs_cutoff", 0.0), ("pogs_cutoff", 1.0), ("edge_prob", 0.0)],
    )
    def test_settings_out_of_range_are_refused(self, field, value):
        """The open ends of each range, and a threshold that is not finite: a NaN one
        would take every attempt as hard and write NaN, which is not JSON, into
        gen_manifest.json."""
        with pytest.raises(ValueError, match=field):
            BenchmarkSpec(problem="max_bisection", **{field: value})

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
        assert len(instances) == stats.accepted < 3
        assert stats.attempts == 6

    @pytest.mark.parametrize("below, accepted", [(True, 1), (False, 0)])
    def test_an_estimate_at_the_cutoff_is_rejected(self, monkeypatch, below, accepted):
        """Screening keeps an instance only when its estimate falls strictly below the
        cutoff."""
        spec = BenchmarkSpec.for_max_bisection(
            num_vertices=6, count=1, max_attempts_factor=1, rng_seed=16
        )
        estimate = np.nextafter(spec.pogs_cutoff, 0.0) if below else spec.pogs_cutoff
        monkeypatch.setattr(bench, "estimate_seed_pogs", lambda *args: estimate)
        instances, stats = gen_hard_instances(spec)
        assert (len(instances), stats.pogs_estimates) == (accepted, [estimate] * accepted)

    def test_cost_table_cache_holds_one_instance(self):
        """Screening works on one instance at a time, so the cost table cache pins only
        the last one: a 3SAT table at the dense limit is about 256 MiB."""
        cost_summary.cache_clear()
        spec = BenchmarkSpec.for_max_bisection(
            num_vertices=6, count=2, rounding_trials=200, max_attempts_factor=1, rng_seed=15
        )
        _, stats = gen_hard_instances(spec)
        assert stats.attempts == 2
        assert cost_summary.cache_info().currsize == 1

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
        """Boosted POGS is derived from pogs on read, as the best of the problem's k runs;
        the record stores neither it, its k nor the instance size."""
        for make, reps in ((small_bisection, 5), (small_3sat, 10)):
            record = run_pipeline(make(rng, n=6), 0, FAST_PIPELINE)
            assert default_repetitions(record.problem) == reps
            assert record.pogs_boosted.keys() == record.pogs.keys()
            for algorithm, per in record.pogs.items():
                assert record.pogs_boosted[algorithm].keys() == per.keys()
                for key, value in per.items():
                    assert record.pogs_boosted[algorithm][key] == pogs_repeated(value, reps)
            assert not {"pogs_boosted", "repetitions", "n"} & record.to_dict().keys()

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


class TestRunDepths:
    """One run over several depths shares the seed step and the walk, and gives the
    records of runs at each depth alone."""

    @pytest.mark.parametrize(
        "make, n, config",
        [(small_bisection, 8, FAST_PIPELINE), (small_bisection, 8, ONE_ROUNDING),
         (small_3sat, 6, FAST_PIPELINE)],
        ids=["bisection", "bisection-one-rounding", "max3sat"],
    )
    def test_records_equal_single_depth_runs(self, rng, make, n, config):
        inst = make(rng, n=n)
        start = time.perf_counter()
        records = bench.run_depths(inst, (0, 1, 2), config)
        elapsed = time.perf_counter() - start
        assert [r.depth for r in records] == [0, 1, 2]
        for record in records:
            alone = run_pipeline(inst, record.depth, config)
            assert replace(record, wall_time_s=0.0) == replace(alone, wall_time_s=0.0)
            assert 0.0 < record.wall_time_s <= elapsed

    def test_wall_time_is_the_shared_stages_plus_its_depth(self, rng, monkeypatch):
        """On a clock that only the tuners move, walk tuning (100) counts in every
        record and each depth's two layer tunings (1 each) in its own record only."""
        clock = SimpleNamespace(now=0.0)
        clock.perf_counter = lambda: clock.now

        def advancing(func, step):
            def call(*args, **kwargs):
                clock.now += step
                return func(*args, **kwargs)
            return call

        monkeypatch.setattr(bench, "time", clock)
        monkeypatch.setattr(bench, "tune_walk_params", advancing(bench.tune_walk_params, 100.0))
        monkeypatch.setattr(bench, "tune_ansatz_params", advancing(bench.tune_ansatz_params, 1.0))
        records = bench.run_depths(small_bisection(rng, n=8), (0, 1, 2), ONE_ROUNDING)
        assert [r.wall_time_s for r in records] == [100.0, 102.0, 102.0]

    def _spied_calls(self, monkeypatch, inst, config, depths):
        spies = {name: Spy(getattr(bench, name))
                 for name in ("classical_batch", "tune_walk_params", "tune_ansatz_params")}
        for name, spy in spies.items():
            monkeypatch.setattr(bench, name, spy)
        bench.run_depths(inst, depths, config)
        return tuple(spy.calls for spy in spies.values())

    def test_shared_stages_run_once(self, rng, monkeypatch):
        """Seed step and walk tuning once; both layer tunings per depth >= 1."""
        inst = small_bisection(rng, n=8)
        assert self._spied_calls(monkeypatch, inst, ONE_ROUNDING, (0, 1, 2)) == (1, 1, 4)
        # At an optimal seed: no walk tuning, and GM-QAOA's layers only.
        assert self._spied_calls(monkeypatch, inst, FAST_PIPELINE, (0, 1, 2)) == (1, 0, 2)

    @pytest.mark.parametrize("depths", [(), (1, -1)], ids=["empty", "negative"])
    def test_bad_depths_name_the_instance(self, rng, depths):
        inst = small_bisection(rng, n=6)
        with pytest.raises(ValueError, match=f"pipeline failed for instance {instance_id(inst)}"):
            bench.run_depths(inst, depths, FAST_PIPELINE)


# One n=16 Max 3SAT pipeline at depth 2, whose walk is the hypercube walk, and one
# n=12 Max Bisection pipeline at depth 3 from a single rounding, whose seed is not
# optimal, so it tunes an XY walk; printed without their timing. The BLAS thread
# count is read when numpy loads, so each thread count needs its own interpreter.
THREADED_RUN = """
import json
import numpy as np
from cbqoa.bench import PipelineConfig, random_max3sat, random_max_bisection, run_pipeline

runs = [
    (random_max3sat(np.random.default_rng(11), 16, 200), 2, PipelineConfig()),
    (random_max_bisection(np.random.default_rng(40), 12), 3,
     PipelineConfig(rng_seed=40, seed_trials=1)),
]
for instance, depth, config in runs:
    record = run_pipeline(instance, depth, config).to_dict()
    record.pop("wall_time_s")
    print(json.dumps(record, sort_keys=True))
"""


def test_records_do_not_depend_on_the_blas_thread_count():
    """BLAS may split a long reduction across its threads and so sum it in another
    order; at n = 16 the vectors are long enough for that. With 1 and 2 threads each
    record, of both walks, is the same, byte for byte (on a machine with at least 2
    CPUs, where OpenBLAS runs 2 threads)."""
    src = str(Path(cbqoa.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path}
        env.update(dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"], threads))
        result = subprocess.run(
            [sys.executable, "-c", THREADED_RUN],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    walks = [json.loads(line)["walk_time"] for line in outputs[0].splitlines()]
    assert len(walks) == 2 and all(walks), walks  # both runs tuned a walk


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

    def test_failed_export_leaves_the_last_one_whole(self, rng, tmp_path, monkeypatch):
        """A write that fails before its rename leaves the earlier results.csv and
        manifest.json as they were, not truncated or half rewritten, and no temporary
        file beside them."""
        records = self._records(rng)
        paths = export_results(records[:1], tmp_path / "out")
        before = {key: path.read_bytes() for key, path in paths.items()}

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            export_results(records, tmp_path / "out")
        assert {key: path.read_bytes() for key, path in paths.items()} == before
        assert not list((tmp_path / "out").glob("*.tmp"))

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
