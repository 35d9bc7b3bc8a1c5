"""Command-line entry point: gen / seed / solve / bench / compare.

Exit codes: 0 success, 2 usage or validation error, 3 guarded failure (the
hard-instance generator gave up early, or bench exported the records of some
instances and listed the others' failures), 4 internal error. All randomness
flows from --seed; on one machine, rerunning with the same seed reproduces
outputs byte for byte, regardless of worker count (not regardless of the BLAS
thread count).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import traceback
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import bench
from .bench import BenchmarkSpec, PipelineConfig, RunRecord
from .problems import bits_to_str, instance_id, load_instance, save_instance

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


def _given(args, fields) -> dict:
    """The given flags among fields, each stored under its dataclass field name; the
    dataclass holds the defaults of the flags left out."""
    return {f: getattr(args, f) for f in fields if getattr(args, f) is not None}


_PIPELINE_FIELDS = (
    "alpha", "trotter_steps", "num_bins", "rounding_trials", "seed_trials", "repetitions",
    "rng_seed",
)


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(**_given(args, _PIPELINE_FIELDS))


# Each kind's instance-shape flags.
_SHAPES = {"max3sat": ("num_vars", "num_clauses"), "max_bisection": ("num_vertices", "edge_prob")}


def cmd_gen(args) -> int:
    shape = _given(args, [f for flags in _SHAPES.values() for f in flags])
    foreign = ["--" + f.replace("_", "-") for f in shape if f not in _SHAPES[args.kind]]
    if foreign:
        raise ValueError(f"--kind {args.kind} takes no {', '.join(foreign)}")
    screen = _given(args, ("ratio_threshold", "pogs_cutoff", "rounding_trials", "rng_seed"))
    spec = BenchmarkSpec(problem=args.kind, count=args.count, **shape, **screen)
    instances, stats = bench.gen_hard_instances(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ids = []
    for instance in instances:
        iid = instance_id(instance)
        save_instance(instance, out / f"{iid}.json")
        ids.append(iid)
    manifest = {
        "spec": asdict(spec),
        "instances": ids,
        "pogs_estimates": stats.pogs_estimates,
        "attempts": stats.attempts,
        "rejection_rate": stats.rejection_rate,
        "guard_tripped": stats.guard_tripped,
    }
    (out / "gen_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1), encoding="utf-8"
    )
    print(f"generated {len(ids)} instance(s) in {out} ({stats.attempts} attempts)")
    if stats.guard_tripped:
        print("warning: attempt guard tripped; set is partial", file=sys.stderr)
        return EXIT_GUARDED
    return EXIT_OK


def cmd_seed(args) -> int:
    """Print the seed that `solve` with the same --trials and --seed walks from."""
    instance = load_instance(args.instance)
    config = PipelineConfig(**_given(args, ("rounding_trials", "rng_seed")))
    assignments, costs, ratios, best = bench._classical_seed(instance, config)
    payload = {
        "instance_id": instance_id(instance),
        "seed": bits_to_str(assignments[best]),
        "cost": float(costs[best]),
        "beta": float(ratios[best]),
    }
    text = json.dumps(payload, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    record = bench.run_pipeline(instance, args.depth, _pipeline_config(args))
    text = record.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def _bench_one(job: tuple[str, int, PipelineConfig]) -> RunRecord:
    path, depth, config = job
    return bench.run_pipeline(load_instance(path), depth, config)


def _read_record(path: Path) -> RunRecord | None:
    """The finished record at path; None when it is missing or does not parse."""
    try:
        return RunRecord.from_json(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file, so the file is either whole or absent."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


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

    record_paths = [records_dir / f"{path.stem}_p{args.depth}.json" for path in paths]
    done = {p: r for p in record_paths if (r := _read_record(p)) is not None}
    jobs = {
        record_path: (
            str(path), args.depth, replace(config, rng_seed=_derive_seed(config.rng_seed, i))
        )
        for i, (path, record_path) in enumerate(zip(paths, record_paths))
        if record_path not in done
    }

    # Every job runs and every finished record is written as it finishes.
    failures: dict[Path, Exception] = {}

    def finish(record_path: Path, result: Callable[[], RunRecord]) -> None:
        try:
            record = result()
        except Exception as error:
            failures[record_path] = error
        else:
            _write_atomic(record_path, record.to_json() + "\n")
            done[record_path] = record

    if args.workers > 1 and jobs:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            futures = {pool.submit(_bench_one, job): p for p, job in jobs.items()}
            for future in concurrent.futures.as_completed(futures):
                finish(futures[future], future.result)
    else:
        for record_path, job in jobs.items():
            finish(record_path, lambda: _bench_one(job))
    # The records that exist are exported, and the failures listed with them.
    failed = [(path, failures[p]) for path, p in zip(paths, record_paths) if p in failures]
    records = [done[p] for p in record_paths if p in done]
    if not records:
        raise failed[0][1]
    extra = {"pipeline": asdict(config), "base_seed": config.rng_seed}
    if failed:
        extra["failures"] = [{"instance": path.stem, "error": str(error)} for path, error in failed]
    paths_out = bench.export_results(records, out, manifest_extra=extra)
    print(f"wrote {paths_out['csv']} and {paths_out['manifest']} ({len(records)} records)")
    for path, error in failed:
        print(f"error: {path.stem}: {error}", file=sys.stderr)
    return EXIT_GUARDED if failed else EXIT_OK


def cmd_compare(args) -> int:
    rows = []
    for results in args.results:
        path = Path(results)
        csv_path = path / "results.csv" if path.is_dir() else path
        with open(csv_path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                rows.append(dict(zip(header, line.strip().split(","))))
    if not rows:
        raise ValueError("no result rows found")
    grouped: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        grouped.setdefault((row["algorithm"], row["threshold"]), []).append(float(row["pogs"]))
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
    gen.add_argument("--kind", choices=["max3sat", "max_bisection"], required=True)
    gen.add_argument("--count", type=int, default=10)
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

    seed = sub.add_parser("seed", help="run the classical seed algorithm on an instance")
    seed.add_argument("instance")
    seed.add_argument("--trials", type=int, dest="rounding_trials")
    seed.add_argument("--seed", type=int, dest="rng_seed")
    seed.add_argument("--out", default=None)
    seed.set_defaults(func=cmd_seed)

    def add_pipeline_flags(p):
        p.add_argument("--depth", type=int, default=3)
        p.add_argument("--alpha", type=float)
        p.add_argument("--trotter-steps", type=int)
        p.add_argument("--bins", type=int, dest="num_bins")
        p.add_argument("--trials", type=int, dest="rounding_trials")
        p.add_argument("--seed-trials", type=int)
        p.add_argument("--repetitions", type=int)
        p.add_argument("--seed", type=int, dest="rng_seed")

    solve = sub.add_parser("solve", help="run the full pipeline on one instance")
    solve.add_argument("instance")
    solve.add_argument("--out", default=None)
    add_pipeline_flags(solve)
    solve.set_defaults(func=cmd_solve)

    benchp = sub.add_parser("bench", help="run the pipeline over a directory of instances")
    benchp.add_argument("instances")
    benchp.add_argument("--out", required=True)
    # argparse converts a string default with `type`, so a bad CBQOA_WORKERS is a usage error.
    benchp.add_argument(
        "--workers", type=_worker_count, default=os.environ.get("CBQOA_WORKERS", "1")
    )
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
