"""Spans around the package's layer entry points, recorded from outside.

The tracer replaces, for the length of a traced run, the names that each
calling module looks up (for example ``cbqoa.cvar.evolve_binned``, which is
what the CVaR tuner calls) with a wrapper that records one span per call:
name, start, end, parent span, operation id, minor page faults, and one
layer-specific number or pair (cache misses, rows, bytes, accepted/attempts).
Spans stay in memory and are written out when the run ends. A target that no longer exists is
reported as missing, which is not a failure.
"""

from __future__ import annotations

import json
import math
import resource
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _cache_misses(fn) -> Optional[int]:
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


def _rows(_args, result) -> float:
    return float(len(result))


def _converged(_args, result) -> float:
    return float(bool(result.converged))


def _written_bytes(_args, result) -> float:
    return float(sum(path.stat().st_size for path in result.values()))


def _screened(_args, result) -> tuple[int, int]:
    stats = result[1]
    return stats.accepted, stats.attempts


@dataclass(frozen=True)
class Target:
    """One looked-up name to wrap, and the span it records."""

    module: str  # submodule of cbqoa whose global is replaced
    attr: str
    span: str
    info: Optional[Callable] = None  # (args, result) -> value stored on the span


# Each entry is the name the *calling* module resolves at call time.
TARGETS = (
    Target("bench", "gen_hard_instances", "bench.gen_hard_instances", _screened),
    Target("bench", "estimate_seed_pogs", "bench.estimate_seed_pogs"),
    Target("bench", "run_pipeline", "bench.run_pipeline"),
    Target("bench", "export_results", "bench.export_results", _written_bytes),
    Target("bench", "cost_summary", "problems.cost_summary"),
    Target("cvar", "cost_summary", "problems.cost_summary"),
    Target("bench", "beta_values", "problems.beta_values"),
    Target("bench", "solve_relaxation", "seeds.solve_relaxation", _converged),
    Target("bench", "round_batch", "seeds.round_batch", _rows),
    Target("bench", "rounding_costs", "seeds.rounding_costs"),
    Target("bench", "build_family", "mixer.build_family"),
    Target("bench", "tune_walk_params", "cvar.tune_walk"),
    Target("bench", "tune_ansatz_params", "cvar.tune_layers"),
    Target("cvar", "tune_ansatz_params", "cvar.tune_layers"),
    Target("bench", "cbqoa_initial_state", "simulate.walk"),
    Target("cvar", "cbqoa_initial_state", "simulate.walk"),
    Target("simulate", "ctqw_trotter_xy", "simulate.ctqw_trotter_xy"),
    Target("bench", "uniform_feasible_state", "simulate.uniform_state"),
    Target("simulate", "apply_phase_separator", "simulate.dense"),
    Target("simulate", "apply_rank1_mixer", "simulate.dense"),
    Target("cvar", "evolve_binned", "fast_sim.evolve_binned"),
)


class Span:
    """One recorded call, rebuilt from the tracer's table after the run."""

    __slots__ = ("name", "op", "parent", "start", "end", "minflt", "info", "info2", "children_s")

    def __init__(self, name, op, parent, start, end, minflt, info, info2, children_s):
        self.name, self.op, self.parent = name, op, parent
        self.start, self.end, self.minflt = start, end, minflt
        self.info, self.info2, self.children_s = info, info2, children_s

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


# Columns of the span table.
_NAME, _OP, _PARENT, _START, _END, _MINFLT, _INFO, _INFO2, _CHILDREN = range(9)


class Tracer:
    """Installs the wrappers, records spans while ``op`` is set, restores on close.

    Spans go into one preallocated float table, not into a Python object per
    call: tens of thousands of live small objects change the heap layout
    enough that each later max3sat pipeline in the process takes about 2.8 M
    extra minor page faults and runs 25% slower.
    """

    def __init__(self, package, targets=TARGETS, capacity: int = 1 << 18):
        self.op: Optional[str] = None
        self.missing: list[str] = []
        self.count = 0
        self._table = np.zeros((capacity, 9))
        self._names: list[str] = []
        self._ops: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        for target in targets:
            module = getattr(package, target.module, None)
            original = getattr(module, target.attr, None) if module is not None else None
            if original is None:
                self.missing.append(target.span)
                continue
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(original, target))

    def _open(self, name_id: int) -> int:
        row = self.count
        if row == len(self._table):
            self._table = np.concatenate([self._table, np.zeros_like(self._table)])
        op_id = self._ops.setdefault(self.op, len(self._ops))
        table = self._table
        table[row, _NAME] = name_id
        table[row, _OP] = op_id
        table[row, _PARENT] = self._stack[-1] if self._stack else -1
        table[row, _MINFLT] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self._stack.append(row)
        self.count += 1
        table[row, _START] = time.perf_counter()
        return row

    def _close(self, row: int) -> None:
        end = time.perf_counter()
        table = self._table
        table[row, _END] = end
        table[row, _MINFLT] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - table[row, _MINFLT]
        )
        self._stack.pop()
        parent = int(table[row, _PARENT])
        if parent >= 0:
            table[parent, _CHILDREN] += end - table[row, _START]

    def _wrap(self, fn, target: Target):
        tracer = self
        self._names.append(target.span)
        name_id = len(self._names) - 1

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            misses = _cache_misses(fn)
            row = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(row)
            if misses is not None:
                info = _cache_misses(fn) - misses
            elif target.info is not None:
                info = target.info(args, result)
            else:
                return result
            first, second = info if isinstance(info, tuple) else (info, np.nan)
            tracer._table[row, _INFO] = first
            tracer._table[row, _INFO2] = second
            return result

        traced.__wrapped__ = fn
        return traced

    def close(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @property
    def spans(self) -> list[Span]:
        """Every recorded span, in call order; a span's parent is its index here."""
        ops = {i: op for op, i in self._ops.items()}
        return [
            Span(
                self._names[int(r[_NAME])], ops[int(r[_OP])], int(r[_PARENT]), r[_START],
                r[_END], int(r[_MINFLT]), r[_INFO], r[_INFO2], r[_CHILDREN],
            )
            for r in self._table[: self.count].tolist()
        ]

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "op": s.op,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "self_s": s.self_s,
                            "minflt": s.minflt,
                            "info": None if math.isnan(s.info) else s.info,
                            "info2": None if math.isnan(s.info2) else s.info2,
                        }
                    )
                    + "\n"
                )
