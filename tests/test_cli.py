import json
import random
import subprocess
import sys

import pytest

from cuescope import cli
from cuescope.cli import main
from cuescope.corpus import CorpusRecord, dumps_record, read_corpus, write_corpus
from cuescope.engine import ConceptSpan, InvalidSpan, annotate
from cuescope.matcher import build_trie

PAPER_RULES = (
    "can rule out\tforward\ttrigger\tnegated\t10\n"
    "although\tforward\ttermination\tnegated\t30\n"
    "false negative\tboth\tpseudo\tnegated\t30\n"
)


@pytest.fixture
def paper_rules(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text(PAPER_RULES, encoding="utf-8")
    return path


def run_cli(*argv):
    return main(list(argv))


def out_lines(capsys):
    return capsys.readouterr().out.splitlines()


# --- rules-validate ---

def test_rules_validate_ok(paper_rules, capsys):
    assert run_cli("rules-validate", "--rules", str(paper_rules)) == 0
    assert "ok: 3 rules" in capsys.readouterr().out


def test_rules_validate_names_bad_line(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text(PAPER_RULES + "broken line\n", encoding="utf-8")
    assert run_cli("rules-validate", "--rules", str(path)) == 2
    assert "line 4" in capsys.readouterr().err


def test_unknown_flag_rejected(paper_rules):
    with pytest.raises(SystemExit):
        run_cli("rules-validate", "--rules", str(paper_rules), "--frobnicate")


# --- annotate ---

def write_corpus_file(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    return path


def test_annotate_negates_concept(tmp_path, starter_rules_path, capsys):
    corpus = write_corpus_file(tmp_path, [
        {"tokens": ["no", "atrial", "septal", "defect", "is", "found"], "concept": [1, 4]},
    ])
    assert run_cli("annotate", "--rules", str(starter_rules_path),
                   "--input", str(corpus)) == 0
    record = json.loads(out_lines(capsys)[0])
    assert record["pred"]["negation"] == "negated"
    assert record["pred"]["experiencer"] == "patient"
    assert record["pred"]["temporality"] == "recent"
    assert record["pred"]["evidence"]["negation"] == [0, 1]


def test_annotate_engines_agree(tmp_path, starter_rules_path, capsys):
    corpus = write_corpus_file(tmp_path, [
        {"tokens": ["history", "of", "mi"], "concept": [2, 3]},
        {"tokens": ["father", "denies", "mi"], "concept": [2, 3]},
    ])
    assert run_cli("annotate", "--rules", str(starter_rules_path),
                   "--input", str(corpus), "--engine", "trie") == 0
    trie_out = capsys.readouterr().out
    assert run_cli("annotate", "--rules", str(starter_rules_path),
                   "--input", str(corpus), "--engine", "naive") == 0
    assert capsys.readouterr().out == trie_out


def test_annotate_empty_corpus(tmp_path, paper_rules, capsys):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("", encoding="utf-8")
    assert run_cli("annotate", "--rules", str(paper_rules), "--input", str(corpus)) == 0
    assert capsys.readouterr().out == ""


def test_annotate_bad_rules_exit_2(tmp_path, capsys):
    rules = tmp_path / "bad.tsv"
    rules.write_text("only\tthree\tcolumns\n", encoding="utf-8")
    corpus = write_corpus_file(tmp_path, [])
    assert run_cli("annotate", "--rules", str(rules), "--input", str(corpus)) == 2
    assert "line 1" in capsys.readouterr().err


def test_annotate_bad_corpus_exit_3(tmp_path, paper_rules, capsys):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text("{not json\n", encoding="utf-8")
    assert run_cli("annotate", "--rules", str(paper_rules), "--input", str(corpus)) == 3


def test_annotate_invalid_span_echoed_not_fatal(tmp_path, paper_rules, capsys):
    corpus = write_corpus_file(tmp_path, [
        {"tokens": ["a", "b"], "concept": [5, 6]},
        {"tokens": ["we", "can", "rule", "out", "mi"], "concept": [4, 5]},
    ])
    assert run_cli("annotate", "--rules", str(paper_rules), "--input", str(corpus)) == 0
    lines = out_lines(capsys)
    first, second = json.loads(lines[0]), json.loads(lines[1])
    assert "error" in first and "pred" not in first
    assert second["pred"]["negation"] == "negated"


def test_annotate_strict_exit_1(tmp_path, paper_rules):
    corpus = write_corpus_file(tmp_path, [{"tokens": ["a"], "concept": [3, 4]}])
    assert run_cli("annotate", "--rules", str(paper_rules),
                   "--input", str(corpus), "--strict") == 1


def test_annotate_stdin_stdout(paper_rules, capsys, monkeypatch):
    import io
    record = {"tokens": ["we", "can", "rule", "out", "mi"], "concept": [4, 5]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(record) + "\n"))
    assert run_cli("annotate", "--rules", str(paper_rules), "--input", "-") == 0
    assert json.loads(out_lines(capsys)[0])["pred"]["negation"] == "negated"


def test_annotate_output_file_deterministic(tmp_path, starter_rules_path, hand_gold_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        assert run_cli("annotate", "--rules", str(starter_rules_path),
                       "--input", str(hand_gold_path), "--output", str(out)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_annotate_repeated_sentences_as_per_record_annotate(tmp_path, starter_rules_path,
                                                            starter_rules, hand_gold, capsys):
    # each hand-gold sentence as a run of 1-4 records, some spans invalid,
    # then a few sentences again after other sentences
    rng = random.Random(3)
    records = []
    for record in hand_gold:
        n = len(record.tokens)
        for _ in range(rng.randint(1, 4)):
            start = rng.randint(0, n)
            records.append(CorpusRecord(record.tokens, ConceptSpan(start, rng.randint(start + 1, n + 1)),
                                        record.gold))
    records += records[:6]
    corpus, output = tmp_path / "runs.jsonl", tmp_path / "out.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        write_corpus(records, fh)
    assert run_cli("annotate", "--rules", str(starter_rules_path),
                   "--input", str(corpus), "--output", str(output)) == 0

    trie = build_trie(starter_rules)
    expected, errors = [], []
    for index, record in enumerate(read_corpus(corpus)):
        obj = record.to_dict()
        try:
            obj["pred"] = cli._prediction_dict(annotate(record.tokens, record.concept, starter_rules, trie))
        except InvalidSpan as err:
            obj["error"] = str(err)
            errors.append(f"record {index}: {err}")
        expected.append(dumps_record(obj) + "\n")
    assert errors
    assert output.read_text(encoding="utf-8") == "".join(expected)
    assert capsys.readouterr().err.splitlines() == errors


# --- evaluate ---

def test_evaluate_self_consistent_gold(starter_rules_path, hand_gold_path, capsys):
    assert run_cli("evaluate", "--rules", str(starter_rules_path),
                   "--gold", str(hand_gold_path)) == 0
    out = capsys.readouterr().out
    assert "negated.f=1.000000" in out
    assert "possible.f=1.000000" in out
    assert "other.f=1.000000" in out


def test_evaluate_csv_format(starter_rules_path, hand_gold_path, capsys):
    assert run_cli("evaluate", "--rules", str(starter_rules_path),
                   "--gold", str(hand_gold_path), "--format", "csv") == 0
    lines = out_lines(capsys)
    assert lines[0] == "class,tp,fp,fn,precision,recall,f"
    assert len(lines) == 4


def test_evaluate_skipped_dimensions_reported(tmp_path, paper_rules, capsys):
    gold = write_corpus_file(tmp_path, [
        {"tokens": ["we", "can", "rule", "out", "mi"], "concept": [4, 5],
         "gold": {"negation": "negated"}},
    ])
    assert run_cli("evaluate", "--rules", str(paper_rules), "--gold", str(gold)) == 0
    out = capsys.readouterr().out
    assert "other.skipped=1" in out
    assert "negated.skipped=0" in out


def test_evaluate_invalid_span_is_data_error(tmp_path, paper_rules):
    gold = write_corpus_file(tmp_path, [
        {"tokens": ["a"], "concept": [4, 5], "gold": {"negation": "negated"}},
    ])
    assert run_cli("evaluate", "--rules", str(paper_rules), "--gold", str(gold)) == 3


# --- bench ---

def test_bench_csv_and_schedule(capsys):
    assert run_cli("bench", "--base", "10", "--final", "30", "--step", "10",
                   "--runs", "1", "--warmup", "0",
                   "--corpus-size", "20") == 0
    lines = out_lines(capsys)
    assert lines[0] == "rule_count,engine,mean_ms,stddev_ms,speedup_vs_naive"
    counts = [int(line.split(",")[0]) for line in lines[1:]]
    assert counts == [10, 10, 20, 20, 30, 30]


def test_bench_naive_only_check_passes(capsys):
    assert run_cli("bench", "--base", "50", "--final", "400", "--step", "175",
                   "--runs", "3", "--warmup", "1", "--engines", "naive",
                   "--corpus-size", "60", "--check") == 0
    err = capsys.readouterr().err
    assert "check: all scaling assertions hold" in err


def test_bench_table_format(capsys):
    assert run_cli("bench", "--base", "10", "--final", "10", "--runs", "1",
                   "--warmup", "0", "--corpus-size", "10",
                   "--format", "table") == 0
    out = capsys.readouterr().out
    assert "# environment:" in out


# --- generate ---

def test_generate_rules_deterministic(capsys):
    assert run_cli("generate", "rules", "--seed", "7", "--count", "25") == 0
    first = capsys.readouterr().out
    assert run_cli("generate", "rules", "--seed", "7", "--count", "25") == 0
    assert capsys.readouterr().out == first
    assert len(first.splitlines()) == 25


def test_generate_corpus_round_trips(tmp_path, capsys):
    assert run_cli("generate", "corpus", "--seed", "3", "--count", "12",
                   "--rule-count", "40") == 0
    lines = out_lines(capsys)
    assert len(lines) == 12
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"tokens", "concept", "gold"}


def test_generate_corpus_with_rule_file(tmp_path, paper_rules, capsys):
    assert run_cli("generate", "corpus", "--seed", "3", "--count", "5",
                   "--rules", str(paper_rules), "--rate", "1.0") == 0
    assert len(out_lines(capsys)) == 5


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from cuescope.cli import main; sys.exit(main(['generate', 'rules', '--count', '3']))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 3
