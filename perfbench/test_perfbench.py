"""Tests of the annotate benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import speed
import tracing
import workloads

sys.path.insert(0, str(workloads.SRC))

from cuescope import ConceptSpan, annotate, build_trie, find_matches_trie, load_rules  # noqa: E402
from cuescope.cli import main as cli_main  # noqa: E402

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_same_inputs_and_other_seed_other_inputs(tmp_path):
    workloads.write_inputs(tmp_path / "a", seed=3)
    workloads.write_inputs(tmp_path / "b", seed=3)
    workloads.write_inputs(tmp_path / "c", seed=4)
    a, b, c = (_bytes(tmp_path / d) for d in "abc")
    assert a == b
    for name in workloads.WORKLOADS:
        assert a[f"{name}.jsonl"] != c[f"{name}.jsonl"]
    assert a["rules.tsv"] == c["rules.tsv"]  # the rule set is fixed


def test_workload_shapes():
    cues = workloads.parse_cues(workloads.rules_text())
    assert len(cues) == workloads.RULE_COUNT
    for name in workloads.WORKLOADS:
        records = workloads.generate(name, 1, cues)[:2000]
        for tokens, (start, end) in records:
            assert 0 <= start < end <= len(tokens)
            assert all(t == t.lower() for t in tokens)
        share = workloads.repeat_share(records)
        assert share >= 0.75 if name == "multi-concept" else share == 0


@pytest.fixture(scope="module")
def annotated(tmp_path_factory):
    """A small corpus, its ``cuescope annotate`` output lines and the
    oracle's preds."""
    tmp = tmp_path_factory.mktemp("check")
    rules = workloads.rules_text()
    (tmp / "rules.tsv").write_text(rules, encoding="utf-8")
    records = workloads.generate("dense-long", 1, workloads.parse_cues(rules))[:40]
    (tmp / "in.jsonl").write_text(workloads.dumps_jsonl(records), encoding="utf-8")
    code = cli_main(["annotate", "--rules", str(tmp / "rules.tsv"),
                     "--input", str(tmp / "in.jsonl"), "--output", str(tmp / "out.jsonl")])
    assert code == 0
    lines = (tmp / "out.jsonl").read_text(encoding="utf-8").splitlines()
    ruleset = load_rules(tmp / "rules.tsv")
    expected = check.oracle_preds(records, range(len(records)), ruleset)
    return records, lines, [expected[i] for i in range(len(records))]


def test_check_passes_true_output(annotated):
    records, lines, expected = annotated
    assert check.check_lines(lines, records, expected) == 0


def test_check_flags_planted_wrong_pred(annotated):
    records, lines, expected = annotated
    obj = json.loads(lines[5])
    obj["pred"]["negation"] = "possible" if obj["pred"]["negation"] != "possible" else "negated"
    planted = lines[:5] + [json.dumps(obj)] + lines[6:]
    assert check.check_lines(planted, records, expected) == 1


def test_check_flags_dropped_line(annotated):
    records, lines, expected = annotated
    assert check.check_lines(lines[:-1], records, expected) == 1
    assert check.check_lines(lines[1:], records, expected) >= 1


def test_check_flags_reordered_lines(annotated):
    records, lines, expected = annotated
    swapped = lines[:3] + [lines[4], lines[3]] + lines[5:]
    assert check.check_lines(swapped, records, expected) == 2


def test_check_flags_malformed_error_and_extra_lines(annotated):
    records, lines, expected = annotated
    assert check.check_lines(lines[:2] + ["{"] + lines[3:], records, expected) == 1
    obj = json.loads(lines[2])
    obj["error"] = "concept out of range"
    assert check.check_lines(lines[:2] + [json.dumps(obj)] + lines[3:], records, expected) == 1
    assert check.check_lines(lines + [lines[0]], records, expected) == 1


def test_count_wrong_against_oracle(annotated):
    records, _, expected = annotated
    preds = {i: expected[i] for i in range(len(records))}
    assert check.count_wrong(preds, dict(enumerate(expected))) == 0
    preds[0] = dict(preds[0], experiencer="other" if preds[0]["experiencer"] == "patient" else "patient")
    assert check.count_wrong(preds, dict(enumerate(expected))) == 1


def test_reference_catches_an_engine_fault_the_naive_oracle_shares(annotated, monkeypatch):
    from cuescope import engine

    records, _, expected = annotated
    ruleset = load_rules(io.StringIO(workloads.rules_text()))
    indices = range(len(records))
    reference = check.reference_preds(records, indices, ruleset)
    assert check.count_wrong(dict(enumerate(expected)), reference) == 0
    distance = engine._cue_distance
    monkeypatch.setattr(engine, "_cue_distance", lambda cue, concept: -distance(cue, concept))
    assert check.count_wrong(check.oracle_preds(records, indices, ruleset), reference) > 0


def test_scale_maps_reference_readings_to_the_nominal_speed():
    assert speed.scale(speed.NOMINAL_S, speed.NOMINAL_S) == 1
    # a host twice as slow as nominal halves the times measured on it
    assert speed.scale(2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S) == 0.5
    assert speed.scale(speed.NOMINAL_S, 3 * speed.NOMINAL_S) == pytest.approx(0.5)
    assert speed.reference_s() > 0


def test_self_time_subtracts_child_spans():
    spans = [
        ("cli.main", 0, 100, -1, 0),
        ("engine.annotate", 10, 60, 0, 0),
        (tracing.MATCH, 20, 30, 1, 3),
        ("engine.resolve_scopes", 30, 50, 1, 2),
        ("corpus.dumps_record", 60, 70, 0, 0),
    ]
    assert tracing.self_times_ns(spans) == {
        "cli.main": 40, "engine.annotate": 20, tracing.MATCH: 10,
        "engine.resolve_scopes": 20, "corpus.dumps_record": 10,
    }


def test_traced_spans_nest_under_annotate_and_count_work():
    from cuescope import cli, corpus, engine

    rules = load_rules(workloads.ROOT / "data" / "starter_rules.tsv")
    trie = build_trie(rules)
    tokens = ["no", "evidence", "of", "recurrence"]
    tracer = tracing.Tracer()
    with tracing.patched(tracer, {"cli": cli, "corpus": corpus, "engine": engine}):
        traced = cli.annotate(tokens, ConceptSpan(3, 4), rules, trie)
        cli.annotate(list(tokens), ConceptSpan(2, 3), rules, trie)
    assert cli.annotate is annotate and engine.find_matches_trie is find_matches_trie
    assert traced == annotate(tokens, ConceptSpan(3, 4), rules, trie)
    names = [s[0] for s in tracer.spans]
    assert names == [tracing.ANNOTATE, tracing.MATCH, "engine.resolve_scopes"] * 2
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1, 3, 3]
    metrics = tracing.pass_metrics(tracer)
    assert metrics["matcher.calls"] == 2
    assert metrics["matcher.repeat_share"] == 0.5


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_names_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-short", "--seed", "1",
         "--seconds", "0", "--trace", trace],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace == "0":
        assert "failed_share" in proc.stdout


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_fails_without_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
