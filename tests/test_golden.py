"""Golden outputs: the pipeline, the export and `cbqoa gen` make the stored bytes.

tests/golden/regenerate.py made the stored files and writes the same set into
a temporary directory here. On the numpy, BLAS and machine of
tests/golden/fingerprint.json every file must match byte for byte; elsewhere
BLAS may sum in another order, so numbers are compared within 1e-9 relative
and the test says that the byte check did not run.
"""

import csv
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-9


def _load_generator():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stored_files(root: Path) -> list[str]:
    return sorted(
        str(path.relative_to(root))
        for path in root.rglob("*")
        if path.is_file() and path.parent != GOLDEN and "__pycache__" not in path.parts
    )


def _close(got, want, where: str) -> list[str]:
    """Where got and want differ beyond REL_TOL: numbers by value, the rest exactly."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in _close(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in _close(g, w, f"{where}[{i}]")]
    numbers = (int, float)
    if isinstance(want, numbers) and isinstance(got, numbers) and not isinstance(want, bool):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
    elif got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def _parsed(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        return [[_number(cell) for cell in row] for row in rows]
    return json.loads(text)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def test_outputs_match_the_golden_files(tmp_path):
    generator = _load_generator()
    generator.generate(tmp_path)
    stored = _stored_files(GOLDEN)
    assert stored, "no golden files; run tests/golden/regenerate.py"
    assert _stored_files(tmp_path) == stored
    fingerprint = json.loads((GOLDEN / "fingerprint.json").read_text(encoding="utf-8"))
    if generator.fingerprint() == fingerprint:
        differ = [
            name for name in stored
            if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()
        ]
        assert not differ, f"outputs differ from the golden files: {differ}"
        return
    print(
        f"golden byte check not run: made on {fingerprint}, running on "
        f"{generator.fingerprint()}; comparing values within {REL_TOL} relative",
        file=sys.stderr,
    )
    differences = [
        d for name in stored for d in _close(_parsed(tmp_path / name), _parsed(GOLDEN / name), name)
    ]
    assert not differences, "\n".join(differences[:20])


@pytest.mark.parametrize("got, want, bad", [
    ({"a": [1.0, "x"]}, {"a": [1.0 + 1e-12, "x"]}, 0),
    ({"a": [1.0, "x"]}, {"a": [1.0 + 1e-6, "x"]}, 1),
    ({"a": 1}, {"b": 1}, 1),
])
def test_value_comparison(got, want, bad):
    assert len(_close(got, want, "")) == bad
