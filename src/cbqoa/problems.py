"""Problem instances, cost functions, the feasibility rule, and solution metrics.

Two problem kinds are supported:

* Weighted Max 3SAT over ``num_vars`` boolean variables. Clauses are stored as
  label triples ``(i, j, k)`` with ``0 <= i <= j <= k <= 2 * num_vars``: label
  ``0`` is the constant-false literal (used to pad clauses shorter than 3),
  labels ``1..n`` are the plain variables, and label ``n + i`` is the negation
  of variable ``i``. The cost of an assignment is minus the total weight of
  satisfied clauses, so minimizing the cost maximizes satisfied weight.

* Weighted Max Bisection on an even number of vertices. An assignment encodes
  one side of the partition as its support; only balanced assignments (Hamming
  weight ``n/2``) are feasible. The cost is minus the total cut weight.

Bit strings use the convention that bit 1 (the first coordinate) is the most
significant bit of the basis index, so lexicographic order on bit strings
coincides with numeric order on indices.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import CapacityError, DegenerateInstanceError

# Dense 2^n tables stay under ~128 MB up to this size.
MAX_DENSE_VARS = 24
_CHUNK = 1 << 20


# ---------------------------------------------------------------------------
# Bit-string helpers


def as_bits(x, n: int | None = None) -> np.ndarray:
    """Coerce a bit sequence ("0110", [0,1,1,0], ndarray) to a uint8 vector."""
    if isinstance(x, str):
        if not set(x) <= {"0", "1"}:
            raise ValueError(f"bit string may contain only 0/1, got {x!r}")
        arr = np.frombuffer(x.encode("ascii"), dtype=np.uint8) - ord("0")
        arr = arr.copy()
    else:
        arr = np.asarray(x)
        if arr.ndim != 1:
            raise ValueError("bit sequence must be one-dimensional")
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ValueError("bit sequence may contain only 0/1 entries")
        arr = arr.astype(np.uint8)
    if n is not None and arr.size != n:
        raise ValueError(f"expected {n} bits, got {arr.size}")
    return arr


def bits_to_index(bits):
    """Basis index of a bit string (bit 1 = most significant), or for 2-D rows of bits
    an int64 array of the rows' indices."""
    rows = np.asarray(bits) if np.ndim(bits) == 2 else as_bits(bits)[None]
    places = 1 << np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    indices = rows.astype(np.int64) @ places
    return indices if np.ndim(bits) == 2 else int(indices[0])


def bits_to_str(bits) -> str:
    return "".join(str(int(b)) for b in as_bits(bits))


# ---------------------------------------------------------------------------
# Instances


def _integral(value, what: str) -> int:
    """value as an int; a fractional value raises ValueError rather than truncate."""
    number = int(value)
    if number != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return number


class ProblemInstance:
    """Base of the instance kinds. Each names its ``kind`` and its ``_fields``, the
    (size, items) fields its size and JSON form are read from."""

    kind: str
    _fields: tuple[str, str]

    @property
    def n(self) -> int:
        return getattr(self, self._fields[0])

    def to_dict(self) -> dict:
        size, items = self._fields
        rows = [list(item) for item in getattr(self, items)]
        return {"type": self.kind, size: self.n, items: rows}


@dataclass(frozen=True)
class Max3SatInstance(ProblemInstance):
    """Weighted Max 3SAT instance with label-encoded clauses."""

    kind = "max3sat"
    _fields = ("num_vars", "clauses")
    num_vars: int
    clauses: tuple[tuple[int, int, int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "num_vars", _integral(self.num_vars, "num_vars"))
        if self.num_vars < 1:
            raise ValueError("num_vars must be positive")
        normalized = []
        for clause in self.clauses:
            if len(clause) != 4:
                raise ValueError(f"clause must be (i, j, k, weight), got {clause!r}")
            i, j, k, w = clause
            labels = sorted(_integral(l, "clause label") for l in (i, j, k))
            if labels[0] < 0 or labels[2] > 2 * self.num_vars:
                raise ValueError(f"clause labels {labels} out of range [0, {2 * self.num_vars}]")
            w = float(w)
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"clause weight must be finite and nonnegative, got {w}")
            normalized.append((labels[0], labels[1], labels[2], w))
        object.__setattr__(self, "clauses", tuple(normalized))


@dataclass(frozen=True)
class MaxBisectionInstance(ProblemInstance):
    """Weighted Max Bisection instance on an even number of vertices."""

    kind = "max_bisection"
    _fields = ("num_vertices", "edges")
    num_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "num_vertices", _integral(self.num_vertices, "num_vertices"))
        if self.num_vertices < 2 or self.num_vertices % 2:
            raise ValueError("num_vertices must be even and >= 2")
        normalized = []
        seen = set()
        for edge in self.edges:
            if len(edge) != 3:
                raise ValueError(f"edge must be (a, b, weight), got {edge!r}")
            a, b = (_integral(end, "edge end") for end in edge[:2])
            w = float(edge[2])
            if a > b:
                a, b = b, a
            if not 1 <= a < b <= self.num_vertices:
                raise ValueError(f"edge ({a}, {b}) out of range for n={self.num_vertices}")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            if not np.isfinite(w):
                raise ValueError("edge weight must be finite")
            seen.add((a, b))
            normalized.append((a, b, w))
        object.__setattr__(self, "edges", tuple(normalized))


_KINDS = {cls.kind: cls for cls in (Max3SatInstance, MaxBisectionInstance)}


def instance_from_dict(data) -> ProblemInstance:
    """Instance from its JSON form; a malformed form raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"instance must be a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown instance type {kind!r}")
    size, items = _KINDS[kind]._fields
    try:
        return _KINDS[kind](data[size], tuple(tuple(item) for item in data[items]))
    except KeyError as exc:
        raise ValueError(f"{kind} instance lacks the key {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {kind} instance: {exc}") from exc


def load_instance(path) -> ProblemInstance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def _write_atomic(path, text: str) -> None:
    """Write text through a temporary file (removed on failure), so path is whole or absent."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_instance(instance: ProblemInstance, path) -> None:
    _write_atomic(path, canonical_json(instance) + "\n")


def canonical_json(instance: ProblemInstance) -> str:
    return json.dumps(instance.to_dict(), sort_keys=True, separators=(",", ":"))


def instance_id(instance: ProblemInstance) -> str:
    """Content hash of the canonical JSON form; stable across runs."""
    return hashlib.sha256(canonical_json(instance).encode("ascii")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Feasibility: every string for Max 3SAT, Hamming weight n/2 for Max Bisection


def is_feasible(instance: ProblemInstance, x) -> bool:
    bits = as_bits(x, instance.n)
    return instance.kind == "max3sat" or int(bits.sum()) == instance.n // 2


def _check_capacity(n: int) -> None:
    if n > MAX_DENSE_VARS:
        raise CapacityError(f"dense enumeration supports n <= {MAX_DENSE_VARS}, got {n}")


def feasible_indices(instance: ProblemInstance) -> np.ndarray:
    """Sorted basis indices of all feasible strings."""
    _check_capacity(instance.n)
    indices = np.arange(1 << instance.n, dtype=np.int64)
    if instance.kind == "max3sat":
        return indices
    counts = np.bitwise_count(indices)
    return indices[counts == instance.n // 2]


# ---------------------------------------------------------------------------
# Cost evaluation


def _clause_arrays(instance: Max3SatInstance):
    """Clause labels decoded to (variables, signs, weights), one row per clause.

    Label l <= n is variable l with sign +1 and label n + i is variable i with
    sign -1, so label 0 is variable 0, whose bit is 0 at every index: the
    constant-false literal, and the v_0 row of the clause relaxation.
    """
    n = instance.num_vars
    table = np.array(instance.clauses, dtype=np.float64).reshape(-1, 4)
    labels = table[:, :3].astype(np.int64)
    negated = labels > n
    return np.where(negated, labels - n, labels), np.where(negated, -1.0, 1.0), table[:, 3].copy()


def _edge_arrays(instance: MaxBisectionInstance):
    """Edges decoded to 0-based (a, b) int64 ends and float64 weights, one entry per edge."""
    table = np.array(instance.edges, dtype=np.float64).reshape(-1, 3)
    a, b = (table[:, :2].astype(np.int64) - 1).T
    return a, b, table[:, 2].copy()


def _cost_block(instance: ProblemInstance, indices: np.ndarray) -> np.ndarray:
    n = instance.n
    # value[v]: the bit of variable v at each index (bit 1 = most significant; v = 0 gives 0).
    value = np.stack([((indices >> (n - v)) & 1).astype(bool) for v in range(n + 1)])
    total = np.zeros(indices.shape, dtype=np.float64)
    if instance.kind == "max3sat":
        variables, signs, weights = _clause_arrays(instance)
        # A literal is false where its variable's bit equals its negation flag.
        for (i, j, k), (a, b, c), w in zip(variables, signs < 0, weights):
            total += w * (((value[i] == a) & (value[j] == b) & (value[k] == c)) - 1.0)
    else:
        ends = value[1:]  # the bits of the 0-based vertices
        for a, b, w in zip(*_edge_arrays(instance)):
            total += w * (2.0 * ends[a] * ends[b] - ends[a] - ends[b])
    return total


def ising_diagonal(instance: ProblemInstance) -> np.ndarray:
    """Diagonal of the cost Hamiltonian over all 2^n basis states."""
    _check_capacity(instance.n)
    size = 1 << instance.n
    diag = np.empty(size, dtype=np.float64)
    for start in range(0, size, _CHUNK):
        block = np.arange(start, min(start + _CHUNK, size), dtype=np.int64)
        diag[start : start + block.size] = _cost_block(instance, block)
    return diag


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class CostSummary:
    """Precomputed cost table and feasible-set statistics for one instance."""

    diagonal: np.ndarray
    feasible: np.ndarray
    optimum_index: int
    optimum_value: float
    mean_value: float

    @property
    def degenerate(self) -> bool:
        return self.mean_value == self.optimum_value


@lru_cache(maxsize=1)
def cost_summary(instance: ProblemInstance) -> CostSummary:
    diag = ising_diagonal(instance)
    feas = feasible_indices(instance)
    values = diag[feas]
    best = int(np.argmin(values))  # first minimum = lexicographically smallest
    return CostSummary(
        diagonal=diag,
        feasible=feas,
        optimum_index=int(feas[best]),
        optimum_value=float(values[best]),
        mean_value=float(values.mean()),
    )


def _quality_ratio(summary: CostSummary, costs):
    """(E[f] - f) / (E[f] - f*) for one cost or an array of costs."""
    if summary.degenerate:
        raise DegenerateInstanceError("all feasible costs are equal; ratio undefined")
    return (summary.mean_value - costs) / (summary.mean_value - summary.optimum_value)


def approx_ratio_beta(instance: ProblemInstance, z) -> float:
    """Quality of z relative to a uniform random feasible guess.

    Equals 1 exactly at the optimum, 0 for average quality, and is invariant
    under positive affine rescaling of the cost.
    """
    bits = as_bits(z, instance.n)
    if not is_feasible(instance, bits):
        raise ValueError("approx_ratio_beta requires a feasible solution")
    summary = cost_summary(instance)
    return _quality_ratio(summary, float(summary.diagonal[bits_to_index(bits)]))


def beta_values(instance: ProblemInstance) -> np.ndarray:
    """Approximation ratio of every basis state (table indexed like the diagonal)."""
    summary = cost_summary(instance)
    return _quality_ratio(summary, summary.diagonal)
