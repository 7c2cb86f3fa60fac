import io
import math
import re
import runpy
from pathlib import Path

import pytest

from cuescope import bench
from cuescope.bench import (
    BenchConfig,
    BenchReport,
    BenchRow,
    check_report,
    emit_report,
    ramp_rule_sets,
    run_accuracy_ramp,
    run_ramp,
    spearman,
    step_schedule,
    _load_bench_corpus,
)
from cuescope.cli import main as cli_main
from cuescope.corpus import (
    RULE_SEED, ConfigError, CorpusError, CorpusRecord, GeneratorConfig, generate_corpus,
    generate_rules, write_corpus,
)
from cuescope.engine import ConceptSpan
from cuescope.rules import WILDCARD, CueType, RuleSet, RuleValue


def tiny_config(**kwargs):
    defaults = dict(
        base_rule_count=10, final_rule_count=30, step=10,
        runs_per_step=2, warmup_runs=0, corpus_size=25,
    )
    defaults.update(kwargs)
    return BenchConfig(**defaults)


def test_default_schedule_matches_ramp_steps():
    assert step_schedule(409, 849, 50) == \
        [409, 459, 509, 559, 609, 659, 709, 759, 809, 849]


def test_schedule_single_step():
    assert step_schedule(409, 409, 50) == [409]


def test_a_step_of_zero_is_a_config_error():
    # every ramp goes through step_schedule, which would otherwise loop forever
    with pytest.raises(ConfigError, match="^step must be >= 1$"):
        step_schedule(409, 849, 0)
    with pytest.raises(ConfigError, match="^step must be >= 1$"):
        run_accuracy_ramp(generate_rules(7, 20), [], base=10, step=0, ramp_seed=3)
    with pytest.raises(ConfigError, match="^step must be >= 1$"):
        run_ramp(tiny_config(step=0))


@pytest.mark.parametrize("base, final", [(30, 20), (0, 20)])
def test_a_base_outside_one_to_final_is_a_config_error(base, final):
    # without the check, 30 > 20 gives one step labelled 30 over 20 rules
    message = "^need 1 <= base_rule_count <= final_rule_count$"
    with pytest.raises(ConfigError, match=message):
        step_schedule(base, final, 5)
    with pytest.raises(ConfigError, match=message):
        run_accuracy_ramp(generate_rules(7, final), [], base=base, step=5, ramp_seed=3)
    with pytest.raises(ConfigError, match=message):
        run_ramp(tiny_config(base_rule_count=base, final_rule_count=final))


def test_ramp_rule_sets_deterministic_and_prefix_preserving():
    full = generate_rules(7, 60)
    first = [(count, tuple(r.key() for r in rs)) for count, rs in
             ramp_rule_sets(full, 20, 10, ramp_seed=11)]
    second = [(count, tuple(r.key() for r in rs)) for count, rs in
              ramp_rule_sets(full, 20, 10, ramp_seed=11)]
    assert first == second
    counts = [count for count, _ in first]
    assert counts == [20, 30, 40, 50, 60]
    base_keys = tuple(r.key() for r in full.rules[:20])
    for _, keys in first:
        assert keys[:20] == base_keys
    # each step extends the previous one
    for (_, a), (_, b) in zip(first, first[1:]):
        assert b[: len(a)] == a


def test_run_ramp_row_shape_and_speedup():
    report = run_ramp(tiny_config())
    assert len(report.rows) == 3 * 2
    # a (naive, trie) pair of rows per step, in ramp order
    assert [(row.rule_count, row.engine) for row in report.rows] == \
        [(count, engine) for count in (10, 20, 30) for engine in ("naive", "trie")]
    for naive, trie in zip(report.rows[::2], report.rows[1::2]):
        assert naive.mean_ms > 0 and trie.mean_ms > 0
        assert naive.speedup_vs_naive is None
        assert naive.build_ms == 0.0
        assert trie.build_ms >= 0
        assert trie.speedup_vs_naive == naive.mean_ms / trie.mean_ms
    assert report.environment
    assert report.started


def test_run_ramp_adds_rules_in_the_order_of_seed_11(monkeypatch):
    seeds = []

    def recording(full, base, step, ramp_seed):
        seeds.append(ramp_seed)
        return ramp_rule_sets(full, base, step, ramp_seed)

    monkeypatch.setattr(bench, "ramp_rule_sets", recording)
    run_ramp(tiny_config(runs_per_step=1))
    assert seeds == [11]


@pytest.mark.parametrize("base,final,size", [(30, 60, 50), (409, 849, 1000)])
def test_generated_corpus_is_the_generate_command_at_seed_97(tmp_path, base, final, size):
    # the recipe for another corpus: `generate corpus ... --output F`, then
    # `bench --corpus F`; at these settings it gives bench's own corpus
    config = BenchConfig(base_rule_count=base, final_rule_count=final, corpus_size=size)
    written = io.StringIO()
    write_corpus(_load_bench_corpus(config, generate_rules(RULE_SEED, final)), written)
    path = tmp_path / "corpus.jsonl"
    assert cli_main(["generate", "corpus", "--seed", "97", "--count", str(size),
                     "--rule-count", str(base), "--output", str(path)]) == 0
    assert written.getvalue() == path.read_text(encoding="utf-8")


def test_emit_csv_columns_exact():
    report = run_ramp(tiny_config())
    lines = emit_report(report, "csv").splitlines()
    assert lines[0] == "rule_count,engine,mean_ms,stddev_ms,speedup_vs_naive"
    assert len(lines) == 1 + 6
    naive_line = next(l for l in lines[1:] if ",naive," in l)
    assert naive_line.endswith(",")  # empty speedup column on naive rows


def test_emit_table_mentions_environment():
    report = BenchReport(rows=(
        BenchRow(409, "naive", 250.0, 4.5, 0.0),
        BenchRow(409, "trie", 9.3, 0.4, 1.13, speedup_vs_naive=250.0 / 9.3),
        BenchRow(849, "naive", 520.0, 12.0, 0.0),
        BenchRow(849, "trie", 9.6, 0.3, 2.5, speedup_vs_naive=520.0 / 9.6),
    ), environment="host Linux 6 Python 3", started="now")
    lines = emit_report(report, "table").splitlines()
    assert lines[0] == "# environment: host Linux 6 Python 3"
    assert lines[3].split() == ["rules", "naive", "trie", "build_ms", "speedup"]
    # rules, naive mean (sd), trie mean (sd), build_ms, speedup
    assert [re.findall(r"[\d.]+", line) for line in lines[4:]] == [
        ["409", "250.0", "4.5", "9.3", "0.4", "1.13", "26.9"],
        ["849", "520.0", "12.0", "9.6", "0.3", "2.50", "54.2"],
    ]


def test_emit_unknown_format():
    report = run_ramp(tiny_config(runs_per_step=1, base_rule_count=10, final_rule_count=10))
    with pytest.raises(ValueError):
        emit_report(report, "json")


def _synthetic_report(naive, trie):
    rows = []
    for count, mean in naive.items():
        rows.append(BenchRow(count, "naive", mean, 0.0, 0.0))
        rows.append(BenchRow(count, "trie", trie[count], 0.0, 0.1,
                             speedup_vs_naive=mean / trie[count]))
    return BenchReport(rows=tuple(rows), environment="synthetic", started="now")


def test_check_report_passes_on_clean_scaling():
    naive = {409: 100.0, 509: 125.0, 609: 150.0, 709: 175.0, 849: 210.0}
    trie = {c: 2.0 for c in naive}
    assert check_report(_synthetic_report(naive, trie)) == []


def test_check_report_flags_flat_naive():
    for naive in (
        {409: 100.0, 509: 101.0, 609: 99.0, 709: 100.0, 849: 102.0},
        {409: 100.0, 849: 100.0},  # constant: no rank correlation (NaN)
    ):
        trie = {c: 2.0 for c in naive}
        failures = check_report(_synthetic_report(naive, trie))
        assert any("naive mean ratio" in f for f in failures)
        assert any("spearman" in f for f in failures)


def test_check_report_flags_growing_trie():
    naive = {409: 100.0, 509: 125.0, 609: 150.0, 709: 175.0, 849: 210.0}
    trie = {409: 2.0, 509: 2.2, 609: 2.5, 709: 2.9, 849: 3.4}
    failures = check_report(_synthetic_report(naive, trie))
    assert any("trie mean ratio" in f for f in failures)


def test_check_report_flags_weak_speedup():
    naive = {409: 100.0, 849: 200.0}
    trie = {409: 50.0, 849: 55.0}
    failures = check_report(_synthetic_report(naive, trie))
    assert any("speedup" in f for f in failures)


def test_config_validation():
    # the rule counts are checked by step_schedule, as the step is
    with pytest.raises(ConfigError):
        tiny_config(runs_per_step=0)
    with pytest.raises(ConfigError):
        tiny_config(warmup_runs=-1)


def test_spearman_basics():
    assert spearman([1, 2, 3, 4], [10.0, 20.0, 30.0, 40.0]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [9.0, 7.0, 5.0, 3.0]) == pytest.approx(-1.0)
    # ties share their average rank
    assert spearman([1, 2, 2, 3], [1, 3, 2, 2]) == pytest.approx(0.5)
    # a constant input has no rank correlation
    assert math.isnan(spearman([1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0]))


def test_accuracy_ramp_reaches_one_on_self_consistent_gold():
    full = RuleSet.from_rules(
        r for r in generate_rules(13, 150)
        if r.cue_type is CueType.TRIGGER and r.value is RuleValue.NEGATED
        and WILDCARD not in r.phrase
    )
    records = generate_corpus(
        GeneratorConfig(seed=23, sentence_count=150, cue_injection_rate=0.4), full
    )
    steps = run_accuracy_ramp(full, records, base=10, step=10, ramp_seed=3)
    f_series = [s.report.classes["negated"].f for s in steps]
    assert f_series[-1] == 1.0
    assert all(b >= a - 1e-12 for a, b in zip(f_series, f_series[1:]))


def test_accuracy_ramp_reports_an_invalid_span_as_a_data_error():
    records = [CorpusRecord(["a"], ConceptSpan(3, 5))]
    with pytest.raises(CorpusError, match=r"^concept \[3, 5\) outside token range of length 1$"):
        run_accuracy_ramp(generate_rules(7, 20), records, base=10, step=10, ramp_seed=3)


def accuracy_ramp_script():
    """The accuracy script's ``main``, loaded but not run as ``__main__``."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_accuracy_ramp.py"
    return runpy.run_path(str(script))["main"]


SCRIPT_ARGV = ["--base", "5", "--final", "15", "--step", "5", "--repeats", "2", "--sentences", "20"]


def test_accuracy_ramp_script_reaches_one(capsys):
    assert accuracy_ramp_script()(SCRIPT_ARGV) == 0
    # the last row: rule count, then "mean (sd)" for negated, possible, other
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last[0] == "15"
    assert last[1::2] == ["1.0000"] * 3


@pytest.mark.parametrize("bad, message", [
    (("--step", "0"), "step must be >= 1"),
    (("--repeats", "0"), "repeats must be >= 1"),
    (("--sentences", "0"), "counts must be positive"),
    (("--base", "30", "--final", "20"), "need 1 <= base_rule_count <= final_rule_count"),
])
def test_accuracy_ramp_script_reports_a_bad_value_in_one_line(capsys, bad, message):
    assert accuracy_ramp_script()([*SCRIPT_ARGV, *bad]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
