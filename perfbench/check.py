"""Correctness checks for the annotate benchmark.

The naive engine (``annotate(..., trie=None)``, rule by rule) is the
oracle, and it must itself agree with the per-token reference semantics
of ``tests/reference.py``.  The oracle costs ~0.4 ms per record on short
sentences and ~1.6 ms on long dense ones, so both run on a seeded sample
of records; every output record is also compared with the in-process trie
results, which the sample ties to the oracle.
"""

from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent.parent / "tests" / "reference.py"


def pred_of(annotation) -> dict:
    """An annotation in the form ``cuescope annotate`` writes as ``pred``."""
    return {
        "negation": annotation.negation.value,
        "experiencer": annotation.experiencer.value,
        "temporality": annotation.temporality.value,
        "evidence": {dim.value: [cue.start, cue.end] for dim, cue in annotation.evidence.items()},
    }


def sample_indices(count: int, size: int, seed: int) -> list[int]:
    """A seeded sample of ``size`` record indices (all when ``count <= size``)."""
    if count <= size:
        return list(range(count))
    return sorted(random.Random(f"cuescope-bench-sample:{seed}").sample(range(count), size))


def oracle_preds(records, indices, ruleset) -> dict[int, dict]:
    from cuescope import ConceptSpan, annotate

    return {
        i: pred_of(annotate(records[i][0], ConceptSpan(*records[i][1]), ruleset, None))
        for i in indices
    }


def reference_preds(records, indices, ruleset) -> dict[int, dict]:
    """``tests/reference.py``'s per-token semantics, in ``pred`` form.

    The naive oracle shares scope resolution and assignment with the trie
    path, so only this check catches a fault there.
    """
    spec = importlib.util.spec_from_file_location("cuescope_reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    preds = {}
    for i in indices:
        tokens, (start, end) = records[i]
        pred = {"negation": "affirmed", "experiencer": "patient", "temporality": "recent",
                "evidence": {}}
        for dimension, (value, span) in reference.reference_annotate(ruleset, tokens, start, end).items():
            pred[dimension] = value
            pred["evidence"][dimension] = list(span)
        preds[i] = pred
    return preds


def count_wrong(preds, expected: dict[int, dict]) -> int:
    """Records among ``expected``'s indices whose pred differs from it."""
    return sum(1 for i, want in expected.items() if preds[i] != want)


def check_lines(lines: list[str], records, expected: list[dict]) -> int:
    """Count the failed records of one ``cuescope annotate`` output.

    Line ``i`` must be a JSON object echoing record ``i``'s ``tokens`` and
    ``concept``, without ``error``, whose ``pred`` equals ``expected[i]``.
    A missing, malformed, out-of-order or wrong line fails its record; an
    extra line fails too.  The count never exceeds ``len(records)``.
    """
    failed = max(0, len(lines) - len(records))
    for i, (tokens, concept) in enumerate(records):
        if i >= len(lines):
            failed += len(records) - i
            break
        try:
            obj = json.loads(lines[i])
        except json.JSONDecodeError:
            failed += 1
            continue
        if (
            not isinstance(obj, dict)
            or "error" in obj
            or obj.get("tokens") != tokens
            or obj.get("concept") != concept
            or obj.get("pred") != expected[i]
        ):
            failed += 1
    return min(failed, len(records))
