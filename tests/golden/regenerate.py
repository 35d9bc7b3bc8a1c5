"""Regenerate the golden outputs that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It rewrites every file beside this script: 13 pipeline records, the
``results.csv`` and ``manifest.json`` of one export of them, the files of two
``cbqoa gen`` runs, and ``fingerprint.json``, the numpy version, BLAS and
machine they were made with. Records and the manifest leave out
``wall_time_s`` (the export writes it as 0), so every stored byte is
deterministic. A change that regenerates these files changes a check's data:
it states which fields moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from cbqoa import PipelineConfig, export_results
from cbqoa.bench import random_max3sat, random_max_bisection, run_depths
from cbqoa.cli import main

HERE = Path(__file__).resolve().parent
GEN_RUNS = {
    "gen_max_bisection": ["--kind", "max_bisection", "--num-vertices", "8"],
    "gen_max3sat": ["--kind", "max3sat", "--num-vars", "8", "--num-clauses", "30"],
}
GEN_COMMON = ["--count", "2", "--trials", "200", "--cutoff", "0.5", "--seed", "3"]


def fingerprint() -> dict:
    """What the stored bytes depend on beyond the source: numpy, its BLAS, the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def pipeline_runs():
    """(instance, config, {depth: record name}) of every pipeline run; one run makes
    the records of all its depths."""
    base = PipelineConfig(rng_seed=11)
    for r in (100, 101):
        instance = random_max3sat(np.random.default_rng(r), 10, 42)
        yield instance, base, {depth: f"max3sat_r{r}_p{depth}" for depth in (0, 2)}
        instance = random_max_bisection(np.random.default_rng(r), 10, 0.5)
        for seed_trials in (None, 1):
            names = {depth: f"max_bisection_r{r}_p{depth}_seeds{seed_trials}" for depth in (0, 2)}
            yield instance, replace(base, seed_trials=seed_trials), names
    instance = random_max3sat(np.random.default_rng(7), 10, 42)
    config = PipelineConfig(num_bins=200, seed_trials=1, rng_seed=5)
    yield instance, config, {2: "max3sat_r7_p2_bins200"}


def canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def generate(out: Path) -> None:
    """Write every golden file but the fingerprint under out."""
    records = []
    (out / "records").mkdir(parents=True, exist_ok=True)
    for instance, config, names in pipeline_runs():
        for record in run_depths(instance, tuple(names), config):
            record = replace(record, wall_time_s=0.0)
            data = record.to_dict()
            del data["wall_time_s"]
            path = out / "records" / f"{names[record.depth]}.json"
            path.write_text(canonical(data), encoding="utf-8")
            records.append(record)
    export_results(records, out / "export")
    for name, flags in GEN_RUNS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["gen", *flags, *GEN_COMMON, "--out", str(out / name)])
        if code != 0:
            raise RuntimeError(f"cbqoa gen for {name} exited {code}")


if __name__ == "__main__":
    for path in HERE.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    generate(HERE)
    (HERE / "fingerprint.json").write_text(canonical(fingerprint()), encoding="utf-8")
    print(f"wrote the golden files under {HERE}", file=sys.stderr)
