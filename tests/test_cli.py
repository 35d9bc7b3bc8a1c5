"""Command-line interface: exit codes, determinism, resumability, workers."""

import argparse
import json
import multiprocessing
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
from cbqoa.bench import GenerationStats, random_max3sat, random_max_bisection
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
            ("seed", ["--trials", "--seed"]),
            ("solve", ["--alpha", "--trotter-steps", "--bins", "--trials", "--seed"]),
            ("bench", ["--alpha", "--trotter-steps", "--bins", "--trials", "--seed"]),
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
        ],
        ids=["max3sat", "max3sat-threshold", "max_bisection", "max_bisection-shape"],
    )
    def test_manifest_spec(self, tmp_path, monkeypatch, capsys, flags, expected):
        """The spec takes the kind's shape flags, BenchmarkSpec's defaults for the rest,
        and the kind's threshold unless set. A shape flag of the other kind exits 2 and
        is named."""
        import cbqoa.bench as bench_mod

        monkeypatch.setattr(
            bench_mod, "gen_hard_instances", lambda spec: ([], GenerationStats(attempts=1))
        )
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
            stats = GenerationStats(attempts=spec.count * spec.max_attempts_factor, accepted=0)
            stats.guard_tripped = True
            return [], stats

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

    @pytest.mark.parametrize("kind", ["max3sat", "max_bisection"])
    def test_reports_the_seed_solve_walks_from(self, tmp_path, capsys, kind):
        """seed and solve with the same --trials and --seed agree on the seed's bits, cost
        and beta: both take the pipeline's seed step, its rngs and its seed_trials."""
        rng = np.random.default_rng(21)
        if kind == "max3sat":
            inst = random_max3sat(rng, num_vars=10, num_clauses=40)
        else:
            inst = random_max_bisection(rng, num_vertices=10)
        path, record_path = tmp_path / "inst.json", tmp_path / "record.json"
        save_instance(inst, path)
        flags = ["--trials", "50", "--seed", "2"]
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
        ],
        ids=["missing-key", "not-an-object", "clause-not-a-list", "null-num-vars",
             "fractional-num-vars", "fractional-edge-end"],
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
         ["--trials", "0"], ["--repetitions", "0"], []],
        ids=["depth", "bins", "alpha", "trotter-steps", "trials", "repetitions",
             "degenerate-instance"],
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

    def test_records_written_as_jobs_finish(self, tmp_path, monkeypatch):
        """A job that fails keeps the records finished before it; a rerun completes them."""
        import cbqoa.bench as bench_mod

        instances = make_instances(tmp_path)
        args = ["bench", str(instances), "--depth", "0"] + PIPELINE_FLAGS
        assert main(args + ["--out", str(tmp_path / "whole")]) == EXIT_OK
        out = tmp_path / "interrupted"
        original, calls = bench_mod.run_pipeline, []

        def fail_second(*a, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("injected failure")
            return original(*a, **kw)

        monkeypatch.setattr(bench_mod, "run_pipeline", fail_second)
        assert main(args + ["--out", str(out)]) != EXIT_OK
        assert len(list((out / "records").glob("*_p0.json"))) == 1
        monkeypatch.setattr(bench_mod, "run_pipeline", original)
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
        original = bench_mod.run_pipeline
        first = sorted(instances.glob("*.json"))[0].stem

        def fail_first(instance, *a, **kw):
            if instance_id(instance) == first:
                raise RuntimeError("injected failure")
            return original(instance, *a, **kw)

        monkeypatch.setattr(bench_mod, "run_pipeline", fail_first)
        assert main(args + ["--out", str(out), "--workers", workers]) == EXIT_GUARDED
        written = sorted(p.name for p in (out / "records").glob("*_p0.json"))
        assert written == sorted(f"{p.stem}_p0.json" for p in instances.glob("*.json"))[1:]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == [{"instance": first, "error": "injected failure"}]
        assert sorted(r["instance_id"] for r in manifest["records"]) == [p[:-8] for p in written]
        monkeypatch.setattr(bench_mod, "run_pipeline", original)
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

    def test_settings_change_without_records_is_accepted(self, tmp_path, monkeypatch):
        """A run whose every job failed leaves no record, so a rerun may change settings."""
        import cbqoa.bench as bench_mod

        instances = make_instances(tmp_path, count=2)
        args = ["bench", str(instances), "--depth", "0"] + PIPELINE_FLAGS
        assert main(args + ["--out", str(tmp_path / "whole")]) == EXIT_OK
        out = tmp_path / "failed"
        original = bench_mod.run_pipeline

        def fail(*a, **kw):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(bench_mod, "run_pipeline", fail)
        assert main(args + ["--out", str(out), "--bins", "61"]) == EXIT_INTERNAL
        monkeypatch.setattr(bench_mod, "run_pipeline", original)
        assert main(args + ["--out", str(out)]) == EXIT_OK
        assert (out / "results.csv").read_bytes() == (tmp_path / "whole/results.csv").read_bytes()

    @pytest.mark.parametrize("flag", ["--bins", "--alpha"])
    def test_bad_setting_is_refused_before_any_job(self, tmp_path, monkeypatch, flag):
        """A pipeline setting out of range exits 2 before a job runs or records/config.json
        (or anything else under --out) is written."""
        import cbqoa.bench as bench_mod

        calls = []
        monkeypatch.setattr(bench_mod, "run_pipeline", lambda *a, **kw: calls.append(a))
        instances = make_instances(tmp_path, count=2)
        out = tmp_path / "refused"
        args = ["bench", str(instances), "--depth", "0", "--out", str(out)] + PIPELINE_FLAGS
        assert main(args + [flag, "0"]) == EXIT_USAGE
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("value", ["two", "1.5", "", "0", "-1"])
    def test_bad_workers_variable_exits_2(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("CBQOA_WORKERS", value)
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", str(tmp_path), "--out", str(tmp_path / "o")])
        assert excinfo.value.code == EXIT_USAGE

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

    def test_no_rows_exits_2(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert main(["compare", str(missing)]) == EXIT_USAGE
