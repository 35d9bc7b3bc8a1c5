"""Outside-in benchmark of the cbqoa seeded-walk pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload max3sat_p3 --seed 1 --seconds 20 --trace 0

One process, one caller, one operation after another (a closed loop). The
package is loaded from ``src/`` next to this directory. Inputs come from
``--seed``; each operation's output is checked after its timer stops. Passes
over the workload's operation list repeat until ``--seconds`` of timed work
has run and, untraced, the workload's minimum number of passes is reached.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the layer
entry points and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy and cbqoa load

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One OpenBLAS thread. With the default two threads on a 2-vCPU machine, the
# threaded dot products in the CVaR objective wait on the second vCPU, and
# max3sat_p3 wall time spread 0.20-0.31 (quartiles over median) across seeds,
# against 0.085 with one thread on the same seeds; the median moved 2%.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3  # this process plus two fresh child processes
WORKLOAD_NAMES = ("bisection_p3", "max3sat_p3", "depth_sweep")


def load_package():
    """Import cbqoa from this checkout's src/, and from nowhere else."""
    package_dir = SRC / "cbqoa"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found at {package_dir}")
    sys.path.insert(0, str(SRC))
    import cbqoa

    if Path(cbqoa.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"perfbench: imported cbqoa from {cbqoa.__file__}, not {package_dir}")
    return cbqoa


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# ---------------------------------------------------------------------------
# Provenance


def _blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cbqoa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# Set-up


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: import, warm-up input and warm-up operation."""
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
    )
    if result.returncode != 0:
        raise RuntimeError(f"set-up child failed: {result.stderr.strip()[-500:]}")
    return float(result.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Timed passes


class Runner:
    """Times each operation; checks the outputs later, outside every timer and span.

    Checks are deferred until the timed passes are over so that their own
    memory and time stay out of ``peak_rss_mb`` and the traced spans.
    """

    def __init__(self, package, tracer, log):
        self.package = package
        self.tracer = tracer
        self.log = log
        self.pending = []  # (op, output, error, seconds)
        self.attempted = 0
        self.failed = 0

    def run_pass(self, ops, label) -> tuple[float, float]:
        wall = cpu = 0.0
        for k, op in enumerate(ops):
            if op.fresh_caches:
                self.package.problems.cost_summary.cache_clear()
            if self.tracer is not None:
                self.tracer.op = f"{label}.{k}" if label else None
            output = error = None
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                output = op.call()
            except Exception as exc:  # a raising operation is a counted failure
                error = exc
            t1, c1 = time.perf_counter(), _cpu_s()
            if self.tracer is not None:
                self.tracer.op = None
            wall += t1 - t0
            cpu += c1 - c0
            self.pending.append((op, output, error, t1 - t0))
        return wall, cpu

    def check_all(self) -> None:
        """Check every pending output; a failed check counts against its operation."""
        for op, output, error, seconds in self.pending:
            if error is None:
                try:
                    op.check(output)
                except Exception as exc:  # CheckFailed, or a check that cannot run
                    error = exc
            self.attempted += 1
            status = "ok"
            if error is not None:
                self.failed += 1
                status = f"FAILED {type(error).__name__}: {error}"
                self.log("".join(traceback.format_exception(error)).rstrip())
            self.log(f"op {op.name} {seconds:.3f} s {status}")
        self.pending.clear()


def measure(workload: str, seed: int, seconds: float, trace: bool, size=None,
            setup_samples: int = SETUP_SAMPLES, t_start: float = _T0, log=print) -> dict:
    """Run one workload and return {"correct", "attempted", "failed", "metrics"}."""
    package = load_package()
    import spans
    import workloads

    size = size or workloads.FULL
    work_dir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer(package) if trace else None
    try:
        work = workloads.WORKLOADS[workload](size, seed, work_dir)
        flt0 = _minflt()
        work.warmup()
        setup = [time.perf_counter() - t_start]
        setup_minflt = _minflt() - flt0
        for _ in range(setup_samples - 1):
            setup.append(child_setup_s(workload, seed))
        log(f"setup samples {[round(s, 3) for s in setup]} s")

        runner = Runner(package, tracer, log)
        quality = workloads.Quality()
        walls, cpus, reference = [], [], []
        if tracer is not None:
            tracer.op = "inputs"
        t0 = time.perf_counter()
        inputs = work.inputs()
        inputs_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        # The median over several passes steadies the untraced times; traced
        # metrics are per-pass means, and each traced pass costs two passes.
        min_passes = 1 if tracer is not None else work.min_passes
        while len(walls) < min_passes or sum(walls) < seconds:
            if tracer is not None:
                # Reference pass with the wrappers idle, for the overhead ratio.
                wall, _ = runner.run_pass(work.ops(inputs, quality), None)
                reference.append(wall)
            wall, cpu = runner.run_pass(work.ops(inputs, quality), f"pass{len(walls) + 1}")
            walls.append(wall)
            cpus.append(cpu)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runner.check_all()
        log(f"inputs (hard-instance screening) {inputs_s:.3f} s; {len(walls)} timed pass(es)")
        fail_ratio = runner.failed / runner.attempted
        log(f"attempted {runner.attempted} failed {runner.failed} fail_ratio {fail_ratio}")
        log("quality " + json.dumps({
            key: quality.mean(key)
            for key in ("pogs.cbqoa", "pogs.gm_qaoa", "pogs.classical", "cvar_ratio")
        }))

        if tracer is None:
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "cpu_s": (statistics.median(cpus), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
                "cvar_ratio": (quality.mean("cvar_ratio"), "ratio"),
            }
        else:
            import layers

            metrics = layers.layer_metrics(
                tracer, len(walls), quality, sum(walls) / sum(reference), setup_minflt
            )
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"trace-{workload}-{seed}.jsonl"
            tracer.write(trace_path)
            log(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
            if tracer.missing:
                log(f"missing wrap targets: {sorted(set(tracer.missing))}")
    finally:
        if tracer is not None:
            tracer.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: ({"value": value, "unit": unit} if value is not None
                   else {"value": None, "unit": unit, "missing": True})
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        load_package()
        import workloads

        work_dir = OUT / f"work-setup-{os.getpid()}"
        try:
            workloads.WORKLOADS[args.workload](workloads.FULL, args.seed, work_dir).warmup()
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(time.perf_counter() - _T0)
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("provenance " + json.dumps(provenance(args.workload, args.seed)))
    for name, entry in result["metrics"].items():
        print(f"metric {name} {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
