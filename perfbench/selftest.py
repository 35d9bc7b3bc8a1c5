"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit on
every workload run.py knows (depth_sweep too, which BENCHMARK.json leaves
out), traced and untraced; that the output checks reject a record whose POGS
is off by 1e-3; and that a missing wrap target is reported as
missing. Exits 0 when all hold, 1 otherwise.
"""

import copy
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 7


def main() -> int:
    package = run.load_package()
    import layers
    import spans
    import workloads

    small = workloads.Size(
        sat_vars=8,
        sat_clauses=40,
        bis_vertices=6,
        depth=1,
        sweep_depths=(1, 2),
        rounding_trials=200,
        pogs_cutoff=0.95,
        sdp_iterations=50,
        adam_iterations=3,
        adam_restarts=2,
        num_bins=50,
        warmup_iterations=1,
    )
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            problems.append(message)

    for workload in run.WORKLOAD_NAMES:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(
                workload, SEED, 0.0, trace, size=small, setup_samples=1,
                t_start=time.perf_counter(), log=lambda *_: None,
            )
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            expect(got == wanted, f"{label}: every {group} metric printed with its unit")
            expect(
                all(isinstance(e["value"], (int, float)) for e in result["metrics"].values()),
                f"{label}: every value is a number",
            )
            expect(
                sorted(result) == ["attempted", "correct", "failed", "metrics"]
                and result["attempted"] >= 1 and result["failed"] == 0 and result["correct"],
                f"{label}: {result['attempted']} operations, none failed",
            )

    instance = workloads.hard_instance("max3sat", small, SEED, 1)
    config = workloads.pipeline_config(small, SEED)
    record = package.bench.run_pipeline(instance, small.depth, config)
    try:
        workloads.check_record(instance, record, small.depth, config, workloads.Quality())
        accepted = True
    except workloads.CheckFailed:
        accepted = False
    expect(accepted, "check_record accepts an untouched record")
    for algorithm in (f"cbqoa_{small.depth}", f"gm_qaoa_{small.depth}", "cbqoa_0"):
        bad = copy.deepcopy(record)
        key = next(iter(bad.pogs[algorithm]))
        bad.pogs[algorithm][key] += 1e-3
        try:
            workloads.check_record(instance, bad, small.depth, config, workloads.Quality())
            caught = False
        except workloads.CheckFailed:
            caught = True
        expect(caught, f"check_record rejects {algorithm} POGS perturbed by 1e-3")

    ghost = spans.Target("simulate", "no_such_kernel", "simulate.walk")
    with spans.Tracer(package, spans.TARGETS + (ghost,)) as tracer:
        metrics = layers.layer_metrics(tracer, 1, workloads.Quality(), 1.0, 0)
    expect("simulate.walk" in tracer.missing, "a missing wrap target is listed as missing")
    expect(
        metrics["simulate.walk.calls"][0] is None and metrics["mixer.build_family.s"][0] == 0.0,
        "metrics of a missing target read None; the others stay numbers",
    )
    expect(
        not hasattr(package.bench.run_pipeline, "__wrapped__"),
        "closing the tracer restores the wrapped names",
    )

    print(f"selftest: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
