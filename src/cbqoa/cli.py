"""Command-line entry point: gen / seed / solve / bench / compare.

Exit codes: 0 success, 2 usage or validation error, 3 guarded failure (the
hard-instance generator gave up early, or bench exported the records of some
instances and listed the others' failures), 4 internal error. All randomness
flows from --seed; on one machine, rerunning with the same seed reproduces
outputs byte for byte, regardless of worker count. A test finds one n=16 Max 3SAT record and
one Max Bisection record with a tuned XY walk byte-identical with 1 and 2 BLAS threads.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import sys
import traceback
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import bench
from .bench import BenchmarkSpec, PipelineConfig, RunRecord
from .problems import _write_atomic, bits_to_str, instance_id, load_instance, save_instance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARDED = 3
EXIT_INTERNAL = 4


def _worker_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"worker count must be >= 1, got {count}")
    return count


def _derive_seed(base: int, index: int) -> int:
    """Stable per-instance seed from the base seed and instance position."""
    return int(np.random.SeedSequence([base, index]).generate_state(1)[0])


def _given(args, cls) -> dict:
    """The given flags that set a field of the dataclass cls, each stored under the
    field's name; cls holds the defaults of the flags left out."""
    names = [f.name for f in fields(cls)]
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(**_given(args, PipelineConfig))


# The instance-shape flags that each kind refuses.
_SHAPES = {"max3sat": ("num_vertices", "edge_prob"), "max_bisection": ("num_vars", "num_clauses")}


def cmd_gen(args) -> int:
    given = _given(args, BenchmarkSpec)
    foreign = ["--" + f.replace("_", "-") for f in given if f in _SHAPES[args.problem]]
    if foreign:
        raise ValueError(f"--kind {args.problem} takes no {', '.join(foreign)}")
    spec = BenchmarkSpec(**given)
    instances, stats = bench.gen_hard_instances(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ids = [instance_id(instance) for instance in instances]
    for iid, instance in zip(ids, instances):
        save_instance(instance, out / f"{iid}.json")
    guard_tripped = len(ids) < spec.count
    manifest = {
        "spec": asdict(spec),
        "instances": ids,
        "pogs_estimates": stats.pogs_estimates,
        "attempts": stats.attempts,
        "rejection_rate": 1.0 - len(ids) / stats.attempts,
        "guard_tripped": guard_tripped,
    }
    _write_atomic(out / "gen_manifest.json", json.dumps(manifest, sort_keys=True, indent=1))
    print(f"generated {len(ids)} instance(s) in {out} ({stats.attempts} attempts)")
    if guard_tripped:
        print("warning: attempt guard tripped; set is partial", file=sys.stderr)
        return EXIT_GUARDED
    return EXIT_OK


def _emit(text: str, out) -> None:
    """Write text and a newline to the file out, when given, and print text."""
    if out:
        _write_atomic(out, text + "\n")
    print(text)


def cmd_seed(args) -> int:
    """Print the seed that `solve` with the same --trials, --seed-trials and --seed walks from."""
    instance = load_instance(args.instance)
    assignments, costs, ratios, best = bench._classical_seed(instance, _pipeline_config(args))
    payload = {
        "instance_id": instance_id(instance),
        "seed": bits_to_str(assignments[best]),
        "cost": float(costs[best]),
        "beta": float(ratios[best]),
    }
    _emit(json.dumps(payload, sort_keys=True), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    record = bench.run_pipeline(instance, args.depth, _pipeline_config(args))
    _emit(record.to_json(), args.out)
    return EXIT_OK


def _bench_one(job: tuple[str, tuple[int, ...], PipelineConfig]) -> list[RunRecord]:
    path, depths, config = job
    return bench.run_depths(load_instance(path), depths, config)


def _read_record(path: Path) -> RunRecord | None:
    """The finished record at path; None when it is missing or does not parse."""
    try:
        return RunRecord.from_json(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None


def _claim_records(records_dir: Path, settings: dict) -> None:
    """Tie records_dir to the settings its records are made with.

    config.json holds the settings of the records in records_dir. A run with
    other settings would reuse records that those settings did not make, so
    it is refused while any record is there; a directory without records
    takes the new settings.
    """
    path = records_dir / "config.json"
    text = json.dumps(settings, sort_keys=True, indent=1) + "\n"
    stored = path.read_text(encoding="utf-8") if path.exists() else None
    if stored == text:
        return
    records = (_read_record(p) for p in records_dir.glob("*_p*.json"))
    if stored is not None and any(record is not None for record in records):
        raise ValueError(
            f"{records_dir} holds records made with other settings ({path.name}); "
            "use another --out"
        )
    _write_atomic(path, text)


def cmd_bench(args) -> int:
    config = _pipeline_config(args)
    depths = tuple(dict.fromkeys(args.depth))
    if min(depths) < 0:
        raise ValueError("depth must be >= 0")
    paths = sorted(Path(args.instances).glob("*.json"))
    paths = [p for p in paths if not p.name.endswith("manifest.json")]
    if not paths:
        raise ValueError(f"no instance files found in {args.instances}")
    out = Path(args.out)
    records_dir = out / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
    # An instance's seed derives from --seed and its position in paths; the
    # record file name keys the depth.
    _claim_records(records_dir, {"instances": [p.stem for p in paths], "pipeline": asdict(config)})

    record_paths = {
        (path, d): records_dir / f"{path.stem}_p{d}.json" for path in paths for d in depths
    }
    done = {p: r for p in record_paths.values() if (r := _read_record(p)) is not None}
    # One job per instance, over its depths that have no record yet.
    jobs = {
        path: (str(path), missing, replace(config, rng_seed=_derive_seed(config.rng_seed, i)))
        for i, path in enumerate(paths)
        if (missing := tuple(d for d in depths if record_paths[path, d] not in done))
    }

    # Every job runs and every finished record is written as its job finishes.
    failures: dict[Path, Exception] = {}

    def finish(path: Path, result: Callable[[], list[RunRecord]]) -> None:
        try:
            records = result()
        except Exception as error:
            failures[path] = error
        else:
            for record in records:
                _write_atomic(record_paths[path, record.depth], record.to_json() + "\n")
                done[record_paths[path, record.depth]] = record

    if args.workers > 1 and jobs:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            futures = {pool.submit(_bench_one, job): path for path, job in jobs.items()}
            for future in concurrent.futures.as_completed(futures):
                finish(futures[future], future.result)
    else:
        for path, job in jobs.items():
            finish(path, lambda: _bench_one(job))
    # The records that exist are exported, and the failures listed with them.
    failed = [(path, failures[path]) for path in paths if path in failures]
    records = [done[p] for p in record_paths.values() if p in done]
    if not records:
        raise failed[0][1]
    extra = {"pipeline": asdict(config)}
    if failed:
        extra["failures"] = [{"instance": path.stem, "error": str(error)} for path, error in failed]
    paths_out = bench.export_results(records, out, manifest_extra=extra)
    print(f"wrote {paths_out['csv']} and {paths_out['manifest']} ({len(records)} records)")
    for path, error in failed:
        print(f"error: {path.stem}: {error}", file=sys.stderr)
    return EXIT_GUARDED if failed else EXIT_OK


def cmd_compare(args) -> int:
    grouped: dict[tuple[str, str], list[float]] = {}
    for results in args.results:
        path = Path(results)
        csv_path = path / "results.csv" if path.is_dir() else path
        with open(csv_path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if missing := [c for c in bench.RESULTS_COLUMNS if c not in (reader.fieldnames or ())]:
                raise ValueError(f"{csv_path} has no {', '.join(missing)} column(s)")
            for row in reader:
                try:  # DictReader gives a short row's missing cells, and a long row's extras, None
                    if None in row or None in row.values():
                        raise ValueError(f"a row of {len(reader.fieldnames)} cells expected")
                    pogs = float(row["pogs"])
                except ValueError as error:
                    raise ValueError(f"{csv_path}:{reader.line_num}: {error}") from None
                grouped.setdefault((row["algorithm"], row["threshold"]), []).append(pogs)
    if not grouped:
        raise ValueError("no result rows found")
    summary = [
        {
            "algorithm": algorithm,
            "threshold": threshold,
            "median_pogs": float(np.median(values)),
            "instances": len(values),
        }
        for (algorithm, threshold), values in sorted(grouped.items())
    ]
    if args.format == "json":
        print(json.dumps(summary))
    elif args.format == "csv":
        print("algorithm,threshold,median_pogs,instances")
        for entry in summary:
            print(f"{entry['algorithm']},{entry['threshold']},{entry['median_pogs']!r},{entry['instances']}")
    else:
        print(f"{'algorithm':<16}{'threshold':<12}{'median_pogs':<14}{'instances'}")
        for entry in summary:
            print(
                f"{entry['algorithm']:<16}{entry['threshold']:<12}"
                f"{entry['median_pogs']:<14.6g}{entry['instances']}"
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbqoa",
        description="Classically-boosted quantum optimization: generate, seed, solve, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that set a dataclass field are stored under its name and default to None,
    # so that BenchmarkSpec and PipelineConfig hold the defaults.
    gen = sub.add_parser("gen", help="generate hard benchmark instances")
    gen.add_argument("--kind", choices=["max3sat", "max_bisection"], required=True, dest="problem")
    gen.add_argument("--count", type=int)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, dest="rng_seed")
    gen.add_argument("--num-vars", type=int)
    gen.add_argument("--num-clauses", type=int)
    gen.add_argument("--num-vertices", type=int)
    gen.add_argument("--edge-prob", type=float)
    gen.add_argument("--cutoff", type=float, dest="pogs_cutoff")
    gen.add_argument("--threshold", type=float, dest="ratio_threshold")
    gen.add_argument("--trials", type=int, dest="rounding_trials")
    gen.set_defaults(func=cmd_gen)

    def add_seed_flags(p):
        p.add_argument("--trials", type=int, dest="rounding_trials")
        p.add_argument("--seed-trials", type=int)
        p.add_argument("--seed", type=int, dest="rng_seed")

    seed = sub.add_parser("seed", help="run the classical seed algorithm on an instance")
    seed.add_argument("instance")
    seed.add_argument("--out", default=None)
    add_seed_flags(seed)
    seed.set_defaults(func=cmd_seed)

    def add_pipeline_flags(p):
        p.add_argument("--alpha", type=float)
        p.add_argument("--trotter-steps", type=int)
        p.add_argument("--bins", type=int, dest="num_bins")
        add_seed_flags(p)

    solve = sub.add_parser("solve", help="run the full pipeline on one instance")
    solve.add_argument("instance")
    solve.add_argument("--out", default=None)
    solve.add_argument("--depth", type=int, default=3)
    add_pipeline_flags(solve)
    solve.set_defaults(func=cmd_solve)

    benchp = sub.add_parser("bench", help="run the pipeline over a directory of instances")
    benchp.add_argument("instances")
    benchp.add_argument("--out", required=True)
    benchp.add_argument("--depth", type=int, nargs="+", default=[3])
    benchp.add_argument("--workers", type=_worker_count, default=1)
    add_pipeline_flags(benchp)
    benchp.set_defaults(func=cmd_bench)

    compare = sub.add_parser("compare", help="summarize exported results")
    compare.add_argument("results", nargs="+", help="results.csv files or bench output dirs")
    compare.add_argument("--format", choices=["table", "json", "csv"], default="table")
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
