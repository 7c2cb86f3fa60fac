"""The planted-fault list in scripts/mutants.py still applies to src/, and
each fault runs the tests of the module it patches first."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "mutants.py"


def test_every_fault_patches_one_place_in_src():
    mutants = runpy.run_path(str(SCRIPT))
    faults = mutants["MUTANTS"]
    assert len({name for name, _, _ in faults}) == len(faults)
    for name, old, new in faults:
        assert old != new, name
        assert sum(mutants["occurrences"](old).values()) == 1, name


def collected(paths):
    """The test ids pytest collects from ``paths`` (none: its testpaths), in order."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *paths],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    return [line for line in run.stdout.splitlines() if "::" in line]


def test_a_fault_runs_its_modules_tests_first_then_the_rest_once():
    run_order = runpy.run_path(str(SCRIPT))["run_order"]
    src = ROOT / "src" / "cuescope"
    # no test file of its own: the whole suite, in today's order
    assert run_order(src / "__init__.py") == []
    paths = run_order(src / "engine.py")
    assert paths[0] == "tests/test_engine.py" and paths[-1] == "perfbench"
    whole = collected([])
    own = [test for test in whole if test.startswith("tests/test_engine.py::")]
    assert own and collected(paths) == own + [test for test in whole if test not in own]
