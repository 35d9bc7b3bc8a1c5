"""tools/mutate.py: its mutant list is fixed by the module and the function filter."""

import ast
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "mutate.py"

SOURCE = b"""
def f(a, b):
    total = (a + b) * 2
    return total if a not in (b,) else -1


class C:
    def g(self, x):
        return 0 < x <= 1  # a comment


def h(y):
    return y / 2
"""


@pytest.fixture
def mutate(monkeypatch):
    spec = importlib.util.spec_from_file_location("cbqoa_mutate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_mutants_are_one_operator_swap_each_in_source_order(mutate):
    mutants = mutate.find_mutants(SOURCE, ["f", "C.g"])
    assert [(m.function, m.line, m.old, m.new) for m in mutants] == [
        ("f", 3, "+", "-"), ("f", 3, "*", "/"), ("f", 4, "not in", "in"),
        ("C.g", 9, "<", "<="), ("C.g", 9, "<=", "<"),
    ]
    for m in mutants:
        mutated = SOURCE[: m.start] + m.new.encode() + SOURCE[m.end :]
        assert SOURCE[m.start : m.end].decode() == m.old
        ast.parse(mutated)
    everything = mutate.find_mutants(SOURCE, [])
    assert everything[:-1] == mutants
    assert (everything[-1].function, everything[-1].old) == ("h", "/")
    with pytest.raises(SystemExit, match="no such function in the module: nope"):
        mutate.find_mutants(SOURCE, ["nope"])


def test_list_mode_prints_the_same_mutants_and_runs_nothing():
    command = [sys.executable, str(SCRIPT), "--module", "mixer", "--list"]
    runs = [subprocess.run(command, capture_output=True, text=True, timeout=60) for _ in "ab"]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert lines and all(
        re.fullmatch(r"mixer\.py:\d+ [\w.]+: '[^']+' -> '[^']+'", line) for line in lines
    ), lines


def test_every_stated_equivalent_names_one_mutant(mutate):
    """Each entry of tools/equivalent_mutants.json matches exactly one mutant of the
    current source, and gives a reason, so an entry gone stale fails here."""
    equivalents = mutate.stated_equivalents()
    assert equivalents
    for (module, function, *swap), reason in equivalents.items():
        source = (mutate.PACKAGE / f"{module}.py").read_bytes()
        keys = [m.key(module, source) for m in mutate.find_mutants(source, [function])]
        assert keys.count((module, function, *swap)) == 1, (module, function, *swap)
        assert reason.strip(), (module, function, *swap)


def test_listed_survivors_are_stated_equivalents(mutate, monkeypatch, tmp_path, capsys):
    """A survivor the list names is reported as a stated equivalent and passes the run;
    any other survivor fails it. Every mutant is made to survive, and none is run."""
    monkeypatch.setattr(mutate, "run_mutant", lambda mutant, *args: "survived")
    monkeypatch.setattr(mutate, "EQUIVALENTS", tmp_path / "listed.json")
    source = (mutate.PACKAGE / "mixer.py").read_bytes()
    names = ("module", "function", "old", "new", "line")
    entries = [
        {**dict(zip(names, m.key("mixer", source))), "reason": "made to survive"}
        for m in mutate.find_mutants(source, ["sigmoid_weight"])
    ]
    argv = ["--module", "mixer", "--function", "sigmoid_weight"]
    for listed, status, summary in (
        (entries, 0, "6 mutants, 0 killed, 6 stated equivalent, 0 survived"),
        (entries[1:], 1, "6 mutants, 0 killed, 5 stated equivalent, 1 survived"),
    ):
        mutate.EQUIVALENTS.write_text(json.dumps(listed), encoding="utf-8")
        assert mutate.main(argv) == status
        assert capsys.readouterr().out.splitlines()[-1] == summary
