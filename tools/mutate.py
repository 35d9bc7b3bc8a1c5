"""Operator-swap mutation testing for one module of src/cbqoa.

Each mutant swaps one operator inside the chosen functions of the module:
+ and -, * and /, < and <=, > and >=, == and !=, in and not in, and & or ^ to
|. The mutant list depends only on the module's source and the function
filter, in source order, so two runs over the same code make the same mutants.

For each mutant a copy of src/ with that one change is put first on PYTHONPATH
and the tests run with -x; a mutant that makes them fail (or run past
TIMEOUT_S) is killed, one that passes survives. A survivor listed in
equivalent_mutants.json beside this script, keyed by module, function, swap and
stripped source line and given with its reason, is reported as a stated
equivalent. The exit status is 1 when any other mutant survives.

    python tools/mutate.py --module simulate --function _trotter_plan --list
    python tools/mutate.py --module mixer --function PermutationFamily.masks build_family
    python tools/mutate.py --module bench --function BenchmarkSpec.__post_init__ --tests tests
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cbqoa"
TIMEOUT_S = 900  # per mutant; the whole tier-1 suite takes about 100 s
EQUIVALENTS = Path(__file__).resolve().with_name("equivalent_mutants.json")

# Operator node type -> (its source text, the text it is swapped for).
SWAPS = {
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
    ast.Mult: ("*", "/"),
    ast.Div: ("/", "*"),
    ast.BitAnd: ("&", "|"),
    ast.BitXor: ("^", "|"),
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
    ast.In: ("in", "not in"),
    ast.NotIn: ("not in", "in"),
}


@dataclass(frozen=True)
class Mutant:
    function: str  # qualified name of the top-level function or method
    line: int
    start: int  # byte offsets of the operator in the module source
    end: int
    old: str
    new: str

    def describe(self, module: str) -> str:
        return f"{module}:{self.line} {self.function}: {self.old!r} -> {self.new!r}"

    def key(self, module: str, source: bytes) -> tuple[str, str, str, str, str]:
        """(module, function, old, new, stripped source line): a key that survives edits
        elsewhere in the module."""
        text = source.splitlines()[self.line - 1].decode().strip()
        return module, self.function, self.old, self.new, text


def stated_equivalents() -> dict[tuple[str, str, str, str, str], str]:
    """Mutant key -> the reason its mutant computes what the code does."""
    entries = json.loads(EQUIVALENTS.read_text(encoding="utf-8"))
    fields = ("module", "function", "old", "new", "line")
    return {tuple(entry[f] for f in fields): entry["reason"] for entry in entries}


def _functions(tree: ast.Module):
    """(qualified name, node) of each top-level function and method of a top-level
    class; a nested function belongs to the one it is defined in."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{top.name}.{item.name}", item
        elif isinstance(top, ast.FunctionDef):
            yield top.name, top


def _operator_gaps(node: ast.AST):
    """(op, left operand, right operand) for each operator of node that SWAPS covers;
    the operator's text lies between the two operands."""
    if isinstance(node, ast.BinOp):
        yield node.op, node.left, node.right
    elif isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        yield from zip(node.ops, operands, operands[1:])


def find_mutants(source: bytes, functions: list[str]) -> list[Mutant]:
    """Every operator swap inside the named functions (all functions if none are
    named), in source order. An operator whose text cannot be found exactly between
    its operands (a comment between them, say) is left out."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line: int, col: int) -> int:
        return starts[line - 1] + col  # ast column offsets count UTF-8 bytes

    chosen = dict(_functions(tree))
    unknown = sorted(set(functions) - set(chosen))
    if unknown:
        raise SystemExit(f"no such function in the module: {', '.join(unknown)}")
    mutants = []
    for name, node in chosen.items():
        if functions and name not in functions:
            continue
        for inner in ast.walk(node):
            for op, left, right in _operator_gaps(inner):
                if type(op) not in SWAPS:
                    continue
                old, new = SWAPS[type(op)]
                lo = offset(left.end_lineno, left.end_col_offset)
                hi = offset(right.lineno, right.col_offset)
                gap = source[lo:hi].decode()
                text = gap.strip(" \t\r\n()\\")
                if " ".join(text.split()) != old:
                    continue
                start = lo + len(gap) - len(gap.lstrip(" \t\r\n()\\"))
                end = start + len(text.encode())
                line = source.count(b"\n", 0, start) + 1
                mutants.append(Mutant(name, line, start, end, old, new))
    return sorted(mutants, key=lambda m: m.start)


def run_mutant(mutant: Mutant, source: bytes, target: Path, tests: list[str]) -> str:
    """'killed', 'survived' or 'timeout' for the tests against the mutated module."""
    target.write_bytes(source[: mutant.start] + mutant.new.encode() + source[mutant.end :])
    env = {**os.environ, "PYTHONPATH": str(target.parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        target.write_bytes(source)
    return "survived" if result.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", required=True, help="module of src/cbqoa, e.g. mixer")
    parser.add_argument(
        "--function", nargs="+", default=[],
        help="functions or Class.methods to mutate (default: all of the module)",
    )
    parser.add_argument("--list", action="store_true", help="print the mutants; run nothing")
    parser.add_argument(
        "--tests", nargs="+", default=None,
        help="pytest arguments (default: tests/test_<module>.py tests/test_golden.py)",
    )
    args = parser.parse_args(argv)

    path = PACKAGE / f"{args.module}.py"
    if not path.is_file():
        parser.error(f"no module {path.relative_to(ROOT)}")
    source = path.read_bytes()
    mutants = find_mutants(source, args.function)
    label = f"{args.module}.py"
    if args.list:
        for mutant in mutants:
            print(mutant.describe(label))
        return 0

    tests = args.tests or [f"tests/test_{args.module}.py", "tests/test_golden.py"]
    equivalents = stated_equivalents()
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="cbqoa-mutate-") as scratch:
        copy = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / "cbqoa" / path.name
        for mutant in mutants:
            outcome = run_mutant(mutant, source, target, tests)
            if outcome == "survived" and mutant.key(args.module, source) in equivalents:
                outcome = "stated equivalent"
            outcomes.append(outcome)
            print(f"{outcome:17} {mutant.describe(label)}", flush=True)
    survivors, stated = outcomes.count("survived"), outcomes.count("stated equivalent")
    killed = len(mutants) - survivors - stated
    print(f"{len(mutants)} mutants, {killed} killed, {stated} stated equivalent, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
