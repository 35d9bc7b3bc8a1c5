"""Command-line interface: exit codes, determinism, resumability, workers."""

import argparse
import csv
import io
import json
import multiprocessing
import shutil
from dataclasses import replace

import numpy as np
import pytest

from cbqoa import (
    Max3SatInstance,
    MaxBisectionInstance,
    PipelineConfig,
    RunRecord,
    instance_id,
    load_instance,
    save_instance,
)
from cbqoa.bench import (
    RESULTS_COLUMNS,
    GenerationStats,
    default_repetitions,
    random_max3sat,
    random_max_bisection,
)
from cbqoa.cli import (
    EXIT_GUARDED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    _pipeline_config,
    build_parser,
    main,
)

from conftest import small_bisection


def make_instances(tmp_path, count=2, n=6):
    rng = np.random.default_rng(33)
    directory = tmp_path / "instances"
    directory.mkdir()
    for _ in range(count):
        inst = small_bisection(rng, n=n)
        save_instance(inst, directory / f"{instance_id(inst)}.json")
    return directory


PIPELINE_FLAGS = ["--trials", "300", "--bins", "60", "--seed", "9"]
# The seed step's flags, which seed, solve and bench all take.
SEED_FLAGS = ["--trials", "--seed-trials", "--seed"]


class TestFlagDefaults:
    """Flags that set a BenchmarkSpec or PipelineConfig field take its default from the
    dataclass, not from a second literal in the parser."""

    @staticmethod
    def defaults(command: str) -> dict:
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return {
            flag: action.default
            for action in commands.choices[command]._actions
            for flag in action.option_strings
        }

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("gen", ["--cutoff", "--trials", "--seed"]),
            ("seed", SEED_FLAGS),
            ("solve", ["--alpha", "--trotter-steps", "--bins", *SEED_FLAGS]),
            ("bench", ["--alpha", "--trotter-steps", "--bins", *SEED_FLAGS]),
        ],
    )
    def test_dataclass_flags_default_to_none(self, command, flags):
        defaults = self.defaults(command)
        assert {flag: defaults[flag] for flag in flags} == dict.fromkeys(flags)

    def test_solve_without_flags_runs_the_default_config(self):
        args = build_parser().parse_args(["solve", "inst.json"])
        assert _pipeline_config(args) == PipelineConfig()


class TestGen:
    def test_single_instance(self, tmp_path):
        out = tmp_path / "gen"
        code = main(
            ["gen", "--kind", "max3sat", "--count", "1", "--out", str(out),
             "--trials", "1500", "--seed", "4"]
        )
        assert code == EXIT_OK
        manifest = json.loads((out / "gen_manifest.json").read_text())
        assert len(manifest["instances"]) == 1
        iid = manifest["instances"][0]
        assert instance_id(load_instance(out / f"{iid}.json")) == iid

    def test_byte_identical_reruns(self, tmp_path):
        args = ["gen", "--kind", "max3sat", "--count", "1", "--trials", "1500", "--seed", "4"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        files_a = sorted(p.name for p in out_a.iterdir())
        assert files_a == sorted(p.name for p in out_b.iterdir())
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--kind", "max3sat", "--num-vertices", "10"], "--num-vertices"),
            (["--kind", "max3sat", "--num-vars", "9", "--threshold", "0.8"],
             {"problem": "max3sat", "num_vars": 9, "num_vertices": 12, "ratio_threshold": 0.8}),
            (["--kind", "max_bisection", "--num-vars", "9", "--num-vertices", "8"], "--num-vars"),
            (["--kind", "max_bisection", "--num-vertices", "8"],
             {"problem": "max_bisection", "num_vars": 16, "num_vertices": 8,
              "ratio_threshold": 0.99}),
            (["--kind", "max_bisection", "--edge-prob", "1.5"], "edge_prob"),
            (["--kind", "max_bisection", "--edge-prob", "-0.5"], "edge_prob"),
            (["--kind", "max3sat", "--num-clauses", "0"], "num_clauses"),
            (["--kind", "max3sat", "--num-vars", "2"], "num_vars"),
            (["--kind", "max_bisection", "--threshold", "nan"], "ratio_threshold"),
            (["--kind", "max3sat", "--threshold=-inf"], "ratio_threshold"),
        ],
        ids=["max3sat", "max3sat-threshold", "max_bisection", "max_bisection-shape",
             "edge-prob-above-1", "edge-prob-negative", "no-clauses", "two-vars",
             "threshold-nan", "threshold-minus-inf"],
    )
    def test_manifest_spec(self, tmp_path, monkeypatch, capsys, flags, expected):
        """The spec takes the kind's shape flags, BenchmarkSpec's defaults for the rest,
        and the kind's threshold unless set. A shape flag of the other kind, or a shape
        no instance can take, exits 2 and is named."""
        import cbqoa.bench as bench_mod

        def fake_gen(spec):  # a full set, so the guard stays down
            instance = Max3SatInstance(num_vars=3, clauses=((1, 2, 3, 1.0),))
            return [instance] * spec.count, GenerationStats(spec.count, [0.0] * spec.count)

        monkeypatch.setattr(bench_mod, "gen_hard_instances", fake_gen)
        out = tmp_path / "gen"
        code = main(["gen", "--out", str(out), "--count", "2", "--seed", "5"] + flags)
        if isinstance(expected, str):
            assert code == EXIT_USAGE
            assert expected in capsys.readouterr().err
            assert not out.exists()
            return
        assert code == EXIT_OK
        spec = json.loads((out / "gen_manifest.json").read_text())["spec"]
        assert spec == {
            "count": 2, "num_clauses": 200, "edge_prob": 0.5, "pogs_cutoff": 0.05,
            "rounding_trials": 10000, "rng_seed": 5, "max_attempts_factor": 100, **expected,
        }

    def test_malformed_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--kind", "nonsense", "--out", "x"])
        assert excinfo.value.code == EXIT_USAGE

    def test_guard_trip_exits_3(self, tmp_path, monkeypatch):
        import cbqoa.bench as bench_mod

        def fake_gen(spec):
            return [], GenerationStats(attempts=spec.count * spec.max_attempts_factor)

        monkeypatch.setattr(bench_mod, "gen_hard_instances", fake_gen)
        code = main(["gen", "--kind", "max3sat", "--count", "1", "--out", str(tmp_path / "g")])
        assert code == EXIT_GUARDED


class TestSeed:
    def test_reports_seed_and_beta(self, tmp_path, capsys):
        rng = np.random.default_rng(17)
        inst = small_bisection(rng, n=6)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        code = main(["seed", str(path), "--trials", "200", "--seed", "3"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(payload) == {"instance_id", "seed", "cost", "beta"}
        assert sum(int(c) for c in payload["seed"]) == 3

    @pytest.mark.parametrize(
        "kind, rng_seed, flags",
        [
            ("max3sat", 21, ["--trials", "50", "--seed", "2"]),
            ("max_bisection", 21, ["--trials", "50", "--seed", "2"]),
            ("max_bisection", 3, ["--trials", "200", "--seed", "5", "--seed-trials", "1"]),
        ],
        ids=["max3sat", "max_bisection", "one-seed-trial"],
    )
    def test_reports_the_seed_solve_walks_from(self, tmp_path, capsys, kind, rng_seed, flags):
        """seed and solve with the same --trials, --seed-trials and --seed agree on the
        seed's bits, cost and beta: both take the pipeline's seed step, its rngs and its
        seed_trials. With one seed trial that seed is the first rounding, not the best."""
        rng = np.random.default_rng(rng_seed)
        if kind == "max3sat":
            inst = random_max3sat(rng, num_vars=10, num_clauses=40)
        else:
            inst = random_max_bisection(rng, num_vertices=10)
        path, record_path = tmp_path / "inst.json", tmp_path / "record.json"
        save_instance(inst, path)
        assert main(["seed", str(path), *flags]) == EXIT_OK
        seed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        args = ["solve", str(path), "--depth", "0", "--out", str(record_path), *flags]
        assert main(args) == EXIT_OK
        record = RunRecord.from_json(record_path.read_text())
        assert (seed["seed"], seed["cost"], seed["beta"]) == (
            record.seed_bits, record.seed_cost, record.seed_beta
        )

    def test_missing_file_exits_2(self):
        assert main(["seed", "/nonexistent/instance.json"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "text",
        [
            '{"type": "max_bisection", "num_vertices": 4}',
            "[1, 2]",
            '{"type": "max3sat", "num_vars": 3, "clauses": [1]}',
            '{"type": "max3sat", "num_vars": null, "clauses": []}',
            '{"type": "max3sat", "num_vars": 3.9, "clauses": [[1, 2, 3, 1.0]]}',
            '{"type": "max_bisection", "num_vertices": 4, "edges": [[1.7, 2, 1.0]]}',
            '{"type": ["max3sat"], "num_vars": 3, "clauses": []}',
            '{"type": null, "num_vars": 3, "clauses": []}',
        ],
        ids=["missing-key", "not-an-object", "clause-not-a-list", "null-num-vars",
             "fractional-num-vars", "fractional-edge-end", "list-type", "null-type"],
    )
    def test_malformed_instance_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "inst.json"
        path.write_text(text)
        assert main(["seed", str(path), "--trials", "10"]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err


class TestSolve:
    def test_record_written_and_valid(self, tmp_path):
        rng = np.random.default_rng(18)
        inst = small_bisection(rng, n=6)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        out = tmp_path / "record.json"
        code = main(["solve", str(path), "--depth", "0", "--out", str(out)] + PIPELINE_FLAGS)
        assert code == EXIT_OK
        record = RunRecord.from_json(out.read_text())
        assert record.depth == 0
        assert "cbqoa_0" in record.pogs

    def test_missing_file_exits_2(self):
        assert main(["solve", "/nonexistent/instance.json"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags",
        [["--depth", "-1"], ["--bins", "0"], ["--alpha", "0"], ["--trotter-steps", "0"],
         ["--trials", "0"], []],
        ids=["depth", "bins", "alpha", "trotter-steps", "trials", "degenerate-instance"],
    )
    def test_invalid_input_exits_2(self, tmp_path, flags):
        """A bad setting, or an instance whose feasible costs are all equal."""
        if flags:
            inst = small_bisection(np.random.default_rng(19), n=6)
        else:
            inst = Max3SatInstance(num_vars=3, clauses=())
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        args = ["solve", str(path), "--depth", "1", "--trials", "300", "--bins", "60"]
        assert main(args + flags) == EXIT_USAGE

    def test_repetitions_flag_is_unknown(self, tmp_path):
        """Boosted POGS uses the problem's k; no flag sets it."""
        path = tmp_path / "inst.json"
        save_instance(small_bisection(np.random.default_rng(19), n=6), path)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", str(path), "--repetitions", "3"])
        assert excinfo.value.code == EXIT_USAGE


class TestBench:
    def test_worker_count_does_not_change_results(self, tmp_path):
        instances = make_instances(tmp_path)
        out_1 = tmp_path / "w1"
        out_2 = tmp_path / "w2"
        base = ["bench", str(instances), "--depth", "0"] + PIPELINE_FLAGS
        assert main(base + ["--out", str(out_1), "--workers", "1"]) == EXIT_OK
        assert main(base + ["--out", str(out_2), "--workers", "2"]) == EXIT_OK
        assert (out_1 / "results.csv").read_bytes() == (out_2 / "results.csv").read_bytes()

    def test_resume_skips_completed(self, tmp_path):
        instances = make_instances(tmp_path, count=1)
        out = tmp_path / "resume"
        args = ["bench", str(instances), "--depth", "0", "--out", str(out)] + PIPELINE_FLAGS
        assert main(args) == EXIT_OK
        record_files = list((out / "records").glob("*_p0.json"))
        assert len(record_files) == 1
        before = record_files[0].read_bytes()
        mtime = record_files[0].stat().st_mtime_ns
        assert main(args) == EXIT_OK
        assert record_files[0].read_bytes() == before
        assert record_files[0].stat().st_mtime_ns == mtime

    def test_truncated_record_is_rerun(self, tmp_path):
        instances = make_instances(tmp_path)
        out = tmp_path / "truncated"
        args = ["bench", str(instances), "--depth", "0", "--out", str(out)] + PIPELINE_FLAGS
        assert main(args) == EXIT_OK
        first = (out / "results.csv").read_bytes()
        record_path = sorted((out / "records").glob("*_p0.json"))[0]
        whole = record_path.read_bytes()
        record_path.write_bytes(whole[:40])
        assert main(args) == EXIT_OK
        assert (out / "results.csv").read_bytes() == first
        rerun, before = RunRecord.from_json(record_path.read_text()), RunRecord.from_json(whole)
        assert replace(rerun, wall_time_s=0.0) == replace(before, wall_time_s=0.0)
        assert sorted(p.name for p in (out / "records").iterdir()) == sorted(
            p.name for p in (out / "records").glob("*.json")
        )

    def test_records_of_the_previous_format_are_reused(self, tmp_path, monkeypatch):
        """A record that still stores n, pogs_boosted and repetitions, as records did
        before pogs_boosted was derived on read, is reused without running its job, and
        the export is in the current format, with the results.csv of a fresh run."""
        import cbqoa.bench as bench_mod

        instances = make_instances(tmp_path, count=1)
        args = ["bench", str(instances), "--depth", "0"] + PIPELINE_FLAGS
        fresh = tmp_path / "fresh"
        assert main(args + ["--out", str(fresh)]) == EXIT_OK
        (record_path,) = (fresh / "records").glob("*_p0.json")
        record = RunRecord.from_json(record_path.read_text())
        previous = record.to_dict() | {
            "n": len(record.seed_bits),
            "pogs_boosted": record.pogs_boosted,
            "repetitions": default_repetitions(record.problem),
        }
        out = tmp_path / "previous"
        (out / "records").mkdir(parents=True)
        shutil.copy(fresh / "records/config.json", out / "records/config.json")
        (out / "records" / record_path.name).write_text(json.dumps(previous, sort_keys=True))
        calls = []
        monkeypatch.setattr(bench_mod, "run_depths", lambda *a, **kw: calls.append(a))
        assert main(args + ["--out", str(out)]) == EXIT_OK
        assert calls == []
        assert (out / "results.csv").read_bytes() == (fresh / "results.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest == json.loads((fresh / "manifest.json").read_text())

    def test_records_written_as_jobs_finish(self, tmp_path, monkeypatch):
        """A job that fails keeps the records finished before it; a rerun completes them."""
        import cbqoa.bench as bench_mod

        instances = make_instances(tmp_path)
        args = ["bench", str(instances), "--depth", "0"] + PIPELINE_FLAGS
        assert main(args + ["--out", str(tmp_path / "whole")]) == EXIT_OK
        out = tmp_path / "interrupted"
        original, calls = bench_mod.run_depths, []

        def fail_second(*a, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("injected failure")
            return original(*a, **kw)

        monkeypatch.setattr(bench_mod, "run_depths", fail_second)
        assert main(args + ["--out", str(out)]) != EXIT_OK
        assert len(list((out / "records").glob("*_p0.json"))) == 1
        monkeypatch.setattr(bench_mod, "run_depths", original)
        assert main(args + ["--out", str(out)]) == EXIT_OK
        assert (out / "results.csv").read_bytes() == (tmp_path / "whole/results.csv").read_bytes()

    def test_serial_failure_keeps_finished_records(self, tmp_path, monkeypatch):
        """With one worker, as with several, a failed job lets every later job run."""
        self.check_failure_keeps_finished_records(tmp_path, monkeypatch, "1")

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the injected failure only when forked from the test process",
    )
    def test_parallel_failure_keeps_finished_records(self, tmp_path, monkeypatch):
        """With workers, a failed job still lets every other job's record be written."""
        self.check_failure_keeps_finished_records(tmp_path, monkeypatch, "2")

    @staticmethod
    def check_failure_keeps_finished_records(tmp_path, monkeypatch, workers):
        """The first of 3 jobs fails: exit 3, the other 2 records are written and exported
        with the failure listed, and a rerun completes."""
        import cbqoa.bench as bench_mod

        instances = make_instances(tmp_path, count=3)
        args = ["bench", str(instances), "--depth", "0"] + PIPELINE_FLAGS
        assert main(args + ["--out", str(tmp_path / "whole")]) == EXIT_OK
        out = tmp_path / "interrupted"
        original = bench_mod.run_depths
        first = sorted(instances.glob("*.json"))[0].stem

        def fail_first(instance, *a, **kw):
            if instance_id(instance) == first:
                raise RuntimeError("injected failure")
            return original(instance, *a, **kw)

        monkeypatch.setattr(bench_mod, "run_depths", fail_first)
        assert main(args + ["--out", str(out), "--workers", workers]) == EXIT_GUARDED
        written = sorted(p.name for p in (out / "records").glob("*_p0.json"))
        assert written == sorted(f"{p.stem}_p0.json" for p in instances.glob("*.json"))[1:]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == [{"instance": first, "error": "injected failure"}]
        assert sorted(r["instance_id"] for r in manifest["records"]) == [p[:-8] for p in written]
        monkeypatch.setattr(bench_mod, "run_depths", original)
        assert main(args + ["--out", str(out), "--workers", workers]) == EXIT_OK
        assert (out / "results.csv").read_bytes() == (tmp_path / "whole/results.csv").read_bytes()
        assert "failures" not in json.loads((out / "manifest.json").read_text())

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_degenerate_instance_is_listed_and_others_exported(self, tmp_path, capsys, workers):
        """One instance whose feasible costs are all equal: exit 3, its failure in the
        manifest and on stderr, every other record written and exported."""
        instances = make_instances(tmp_path, count=2)
        flat = MaxBisectionInstance(num_vertices=6, edges=())
        save_instance(flat, instances / "flat.json")
        out = tmp_path / "out"
        args = ["bench", str(instances), "--depth", "0", "--out", str(out), "--workers", workers]
        assert main(args + PIPELINE_FLAGS) == EXIT_GUARDED
        good = sorted(p.stem for p in instances.glob("*.json") if p.stem != "flat")
        assert sorted(p.name for p in (out / "records").glob("*_p0.json")) == [
            f"{stem}_p0.json" for stem in good
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [r["instance_id"] for r in manifest["records"]] == good
        [failure] = manifest["failures"]
        assert failure["instance"] == "flat"
        assert instance_id(flat) in failure["error"] and "costs are equal" in failure["error"]
        assert "flat" in capsys.readouterr().err
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert sorted({row.split(",")[0] for row in rows}) == good

    @staticmethod
    def _snapshot(records):
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in records.iterdir()}

    @pytest.mark.parametrize("flag, value", [("--bins", "61"), ("--seed", "10")])
    def test_rerun_with_other_settings_exits_2(self, tmp_path, capsys, flag, value):
        """Records made under other settings are never reused, nor touched."""
        instances = make_instances(tmp_path, count=1)
        out = tmp_path / "settings"
        args = ["bench", str(instances), "--depth", "0", "--out", str(out)] + PIPELINE_FLAGS
        assert main(args) == EXIT_OK
        records = out / "records"
        before = self._snapshot(records)
        capsys.readouterr()
        assert main(args + [flag, value]) == EXIT_USAGE
        assert str(records) in capsys.readouterr().err
        assert self._snapshot(records) == before
        assert main(args) == EXIT_OK
        assert self._snapshot(records) == before

    def test_instance_sorting_first_exits_2(self, tmp_path):
        """A new first instance shifts every later instance's seed, so old records are refused."""
        instances = make_instances(tmp_path, count=1)
        out = tmp_path / "shifted"
        args = ["bench", str(instances), "--depth", "0", "--out", str(out)] + PIPELINE_FLAGS
        assert main(args) == EXIT_OK
        records = out / "records"
        before = self._snapshot(records)
        existing = next(instances.glob("*.json")).stem
        rng = np.random.default_rng(5)
        while instance_id(extra := small_bisection(rng, n=6)) >= existing:
            pass
        save_instance(extra, instances / f"{instance_id(extra)}.json")
        assert main(args) == EXIT_USAGE
        assert self._snapshot(records) == before

    def test_depth_sweep_shares_records_dir(self, tmp_path):
        """Record file names key the depth, so depths may share one --out."""
        instances = make_instances(tmp_path, count=1)
        out = tmp_path / "sweep"
        args = ["bench", str(instances), "--out", str(out)] + PIPELINE_FLAGS
        assert main(args + ["--depth", "0"]) == EXIT_OK
        depth_0 = (out / "results.csv").read_bytes()
        assert main(args + ["--depth", "1"]) == EXIT_OK
        assert len(list((out / "records").glob("*_p[01].json"))) == 2
        assert main(args + ["--depth", "0"]) == EXIT_OK
        assert (out / "results.csv").read_bytes() == depth_0

    def test_depths_in_one_run_write_the_single_depth_records(self, tmp_path):
        """bench --depth 0 1 writes the record files of two single-depth runs, equal but for
        wall_time_s."""
        instances = make_instances(tmp_path)
        args = ["bench", str(instances)] + PIPELINE_FLAGS
        assert main(args + ["--out", str(tmp_path / "both"), "--depth", "0", "1"]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "one"), "--depth", "0"]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "one"), "--depth", "1"]) == EXIT_OK
        names = sorted(p.name for p in (tmp_path / "one/records").iterdir())
        assert sorted(p.name for p in (tmp_path / "both/records").iterdir()) == names
        assert len(names) == 5  # config.json and 2 instances x 2 depths
        for name in names:
            both, one = (json.loads((tmp_path / d / "records" / name).read_text())
                         for d in ("both", "one"))
            assert both | {"wall_time_s": 0} == one | {"wall_time_s": 0}, name

    def test_rerun_runs_only_the_missing_depths(self, tmp_path, monkeypatch):
        """After --depth 0 1, a rerun with --depth 0 1 2 makes one job per instance, at
        depth 2 only; a repeated depth counts once."""
        import cbqoa.bench as bench_mod

        instances = make_instances(tmp_path)
        out = tmp_path / "grow"
        args = ["bench", str(instances), "--out", str(out)] + PIPELINE_FLAGS
        assert main(args + ["--depth", "0", "1", "0"]) == EXIT_OK
        original, calls = bench_mod.run_depths, []

        def spy(instance, depths, config):
            calls.append((instance_id(instance), depths))
            return original(instance, depths, config)

        monkeypatch.setattr(bench_mod, "run_depths", spy)
        assert main(args + ["--depth", "0", "1", "2"]) == EXIT_OK
        assert sorted(calls) == [(p.stem, (2,)) for p in sorted(instances.glob("*.json"))]
        assert len(list((out / "records").glob("*_p[012].json"))) == 6

    def test_settings_change_without_records_is_accepted(self, tmp_path, monkeypatch):
        """A run whose every job failed leaves no record, so a rerun may change settings."""
        import cbqoa.bench as bench_mod

        instances = make_instances(tmp_path, count=2)
        args = ["bench", str(instances), "--depth", "0"] + PIPELINE_FLAGS
        assert main(args + ["--out", str(tmp_path / "whole")]) == EXIT_OK
        out = tmp_path / "failed"
        original = bench_mod.run_depths

        def fail(*a, **kw):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(bench_mod, "run_depths", fail)
        assert main(args + ["--out", str(out), "--bins", "61"]) == EXIT_INTERNAL
        monkeypatch.setattr(bench_mod, "run_depths", original)
        assert main(args + ["--out", str(out)]) == EXIT_OK
        assert (out / "results.csv").read_bytes() == (tmp_path / "whole/results.csv").read_bytes()

    @pytest.mark.parametrize(
        "flag, value",
        [("--bins", "0"), ("--alpha", "0"), ("--depth", "-1"), ("--depth", "1 -1")],
    )
    def test_bad_setting_is_refused_before_any_job(self, tmp_path, monkeypatch, flag, value):
        """A pipeline setting out of range exits 2 before a job runs or records/config.json
        (or anything else under --out) is written."""
        import cbqoa.bench as bench_mod

        calls = []
        monkeypatch.setattr(bench_mod, "run_depths", lambda *a, **kw: calls.append(a))
        instances = make_instances(tmp_path, count=2)
        out = tmp_path / "refused"
        args = ["bench", str(instances), "--depth", "0", "--out", str(out)] + PIPELINE_FLAGS
        assert main(args + [flag, *value.split()]) == EXIT_USAGE
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("value", ["two", "1.5", "", "0", "-1"])
    def test_bad_workers_variable_exits_2(self, tmp_path, value):
        """A worker count that is not an integer >= 1 is a usage error of --workers."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", str(tmp_path), "--out", str(tmp_path / "o"), f"--workers={value}"])
        assert excinfo.value.code == EXIT_USAGE
        assert not (tmp_path / "o").exists()

    def test_empty_directory_exits_2(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["bench", str(empty), "--out", str(tmp_path / "o")]) == EXIT_USAGE


class TestCompare:
    def test_median_table(self, tmp_path, capsys):
        instances = make_instances(tmp_path, count=1)
        out = tmp_path / "bench_out"
        assert (
            main(["bench", str(instances), "--depth", "0", "--out", str(out)] + PIPELINE_FLAGS)
            == EXIT_OK
        )
        capsys.readouterr()
        assert main(["compare", str(out)]) == EXIT_OK
        table = capsys.readouterr().out
        assert "cbqoa_0" in table
        assert "median_pogs" in table

    def test_json_and_csv_match_the_table(self, tmp_path, capsys):
        """Over two result files, each format lists the same (algorithm, threshold) rows
        with the same instance count and median; json and csv keep every digit of it."""
        pogs = [("cbqoa_3", 0.2), ("classical", 0.125), ("cbqoa_3", 0.6), ("classical", 0.375),
                ("cbqoa_3", 0.5)]
        files = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for k, path in enumerate(files):
            rows = [[f"i{j}", "max3sat", 3, algorithm, 0.9, p]
                    for j, (algorithm, p) in enumerate(pogs) if j % 2 == k]
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows([RESULTS_COLUMNS, *rows])
        outputs = {}
        for fmt in ("table", "json", "csv"):
            assert main(["compare", *map(str, files), "--format", fmt]) == EXIT_OK
            outputs[fmt] = capsys.readouterr().out
        table = [line.split() for line in outputs["table"].splitlines()[1:]]
        assert table == [["cbqoa_3", "0.9", "0.5", "3"], ["classical", "0.9", "0.25", "2"]]
        as_json = json.loads(outputs["json"])
        as_csv = list(csv.DictReader(io.StringIO(outputs["csv"])))
        for rows in (as_json, as_csv):
            assert [
                [r["algorithm"], r["threshold"], f"{float(r['median_pogs']):.6g}", str(r["instances"])]
                for r in rows
            ] == table
        assert [r["median_pogs"] for r in as_json] == [float(r["median_pogs"]) for r in as_csv]

    @pytest.mark.parametrize("text, missing", [
        ("a,b\n1,2\n", ", ".join(RESULTS_COLUMNS)),
        ("", ", ".join(RESULTS_COLUMNS)),
        ("instance_id,problem,depth,algorithm,threshold\ni,max3sat,3,kz,0.7\n", "pogs"),
    ], ids=["other-columns", "empty", "no-pogs"])
    def test_file_without_the_result_columns_exits_2(self, tmp_path, capsys, text, missing):
        """A file that is not a results.csv is a validation error naming it and the
        columns it lacks, not a traceback."""
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text(",".join(RESULTS_COLUMNS) + "\ni,max3sat,3,kz,0.7,0.5\n", encoding="utf-8")
        bad.write_text(text, encoding="utf-8")
        assert main(["compare", str(good), str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {bad} has no {missing} column(s)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("row, message", [
        ("i,max3sat,3,kz,0.7", "a row of 6 cells expected"),
        ("i,max3sat,3,kz,0.7,0.5,9", "a row of 6 cells expected"),
        ("i,max3sat,3,kz,0.7,abc", "could not convert string to float: 'abc'"),
    ], ids=["short", "long", "not-a-number"])
    def test_malformed_row_exits_2(self, tmp_path, capsys, row, message):
        """A row with too few or too many cells, or a pogs that is not a number, is a
        validation error naming the file and the line (3, after a good row), not a
        traceback."""
        path = tmp_path / "bad.csv"
        lines = [",".join(RESULTS_COLUMNS), "i,max3sat,3,kz,0.7,0.5", row]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["compare", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {path}:3: {message}" in err
        assert "Traceback" not in err

    def test_no_rows_exits_2(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert main(["compare", str(missing)]) == EXIT_USAGE
