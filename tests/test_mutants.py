"""The planted-fault list in scripts/mutants.py still applies to src/."""

import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"


def test_every_fault_patches_one_place_in_src():
    mutants = runpy.run_path(str(SCRIPT))
    faults = mutants["MUTANTS"]
    assert len({name for name, _, _ in faults}) == len(faults)
    for name, old, new in faults:
        assert old != new, name
        assert sum(mutants["occurrences"](old).values()) == 1, name
