"""What start-up pays for: the modules it loads and the classes it builds.

Every ``felicity`` process imports the package and builds the default
registry before it judges anything, and a command also imports the CLI.
So start-up must not load modules it does not use (``json``, ``string``,
``threading``), nor the costly ones that records and node classes once
needed (``dataclasses``, with the ``inspect`` it imports, ``typing`` and
``pathlib``). Node classes get their methods from ``Interned`` once, and
records are slotted namedtuples, not generated dataclasses.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter without site (-S), which on some hosts
# loads modules of its own (threading, typing and pathlib among them);
# compares against the modules loaded before the import.
_PROBE = """
import sys
before = set(sys.modules)
import felicity
felicity.default_registry()
import felicity.cli
loaded = sorted(set(sys.modules) - before)

def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)

classes = list(subclasses(felicity.logic.Interned))
own = sorted(
    f"{cls.__name__}.{name}"
    for cls in classes
    for name in ("__init__", "__setattr__", "__delattr__", "__repr__")
    if name in vars(cls)
)
defined = [
    value
    for name, module in sorted(sys.modules.items())
    if name.startswith("felicity")
    for value in vars(module).values()
    if isinstance(value, type) and value.__module__ == name
]
print(repr({
    "loaded": loaded,
    "classes": len(classes),
    "own": own,
    "dataclasses": sorted(c.__name__ for c in defined if hasattr(c, "__dataclass_fields__")),
    "records": sorted(
        c.__name__ for c in defined if c.__eq__ is felicity.logic._record_eq
    ),
    "tuples": {c.__name__: vars(c).get("__slots__") for c in defined if issubclass(c, tuple)},
}))
"""


@pytest.fixture(scope="module")
def probe() -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


def test_start_up_does_not_import_json_or_string(probe):
    assert "felicity.report" in probe["loaded"]
    assert not {"json", "string"} & set(probe["loaded"])


def test_start_up_does_not_import_threading(probe):
    # the intern table's lock comes from the builtin _thread
    assert "felicity.logic" in probe["loaded"]
    assert "threading" not in probe["loaded"]


def test_start_up_does_not_import_dataclasses_inspect_typing_or_pathlib(probe):
    assert "felicity.cli" in probe["loaded"]
    assert not {"dataclasses", "inspect", "typing", "pathlib"} & set(probe["loaded"])


def test_node_classes_define_no_init_repr_or_setattr_of_their_own(probe):
    assert probe["classes"] == 15
    assert probe["own"] == []


def test_no_class_is_a_dataclass(probe):
    assert probe["dataclasses"] == []


def test_every_record_class_is_a_slotted_tuple(probe):
    records = [
        "Alternative", "AlternativeSet", "ContextState", "Judgment", "Presup", "Report",
        "Scenario", "TheoryRow", "TheoryVerdict",
    ]
    assert probe["records"] == records
    # the plain namedtuples too: NodeFacts, TraceStep, InputKind and Rule
    assert set(probe["tuples"]) == {*records, "NodeFacts", "TraceStep", "InputKind", "Rule"}
    assert all(slots == () for slots in probe["tuples"].values()), probe["tuples"]
