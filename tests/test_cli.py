import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cuescope import corpus as corpus_mod
from cuescope.cli import main
from cuescope.corpus import CorpusRecord, iter_corpus, write_corpus
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


def test_annotate_and_evaluate_never_use_the_naive_matcher(tmp_path, starter_rules_path,
                                                           hand_gold_path, monkeypatch, capsys):
    from cuescope import engine

    def naive(*args):
        raise AssertionError("the naive matcher ran")

    monkeypatch.setattr(engine, "find_matches_naive", naive)
    corpus = write_corpus_file(tmp_path, [{"tokens": ["father", "denies", "mi"], "concept": [2, 3]}])
    assert run_cli("annotate", "--rules", str(starter_rules_path), "--input", str(corpus)) == 0
    assert run_cli("evaluate", "--rules", str(starter_rules_path),
                   "--gold", str(hand_gold_path)) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        run_cli("annotate", "--rules", str(starter_rules_path), "--input", str(corpus),
                "--engine", "trie")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --engine trie" in capsys.readouterr().err


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


def test_annotate_missing_rules_exit_2(tmp_path, capsys):
    corpus = write_corpus_file(tmp_path, [])
    assert run_cli("annotate", "--rules", str(tmp_path / "missing.tsv"), "--input", str(corpus)) == 2
    assert capsys.readouterr().err.startswith("rule error: [Errno 2] ")


def test_annotate_into_a_closed_pipe_exits_141_quietly(tmp_path, paper_rules):
    # far more output than a pipe buffers, so writes go on after the
    # reader has closed its end
    corpus = write_corpus_file(tmp_path, [{"tokens": ["no", "mi"], "concept": [1, 2]}] * 5000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "cuescope.cli", "annotate", "--rules", str(paper_rules),
         "--input", str(corpus)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert json.loads(first)["tokens"] == ["no", "mi"]


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


def test_invalid_span_names_its_input_line(tmp_path, paper_rules, capsys):
    # line 2 is blank, so the second record is on line 3
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"tokens": ["no", "mi"], "concept": [1, 2], "gold": {"negation": "affirmed"}}\n'
        "\n"
        '{"tokens": ["a"], "concept": [3, 4], "gold": {"negation": "affirmed"}}\n',
        encoding="utf-8",
    )
    message = "line 3: concept [3, 4) outside token range of length 1"
    assert run_cli("annotate", "--rules", str(paper_rules), "--input", str(corpus), "--strict") == 1
    assert capsys.readouterr().err.splitlines() == [message, "1 record(s) failed under --strict"]
    assert run_cli("evaluate", "--rules", str(paper_rules), "--gold", str(corpus)) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


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


def reference_line(record, result) -> str:
    """A record and its result as the per-record loop writes them: the
    record's dict plus a ``pred`` dict or an ``error``, as compact JSON."""
    obj = {"tokens": record.tokens, "concept": [record.concept.start, record.concept.end]}
    if record.gold is not None:
        obj["gold"] = record.gold
    if isinstance(result, InvalidSpan):
        obj["error"] = str(result)
    else:
        obj["pred"] = {
            "negation": result.negation.value,
            "experiencer": result.experiencer.value,
            "temporality": result.temporality.value,
            "evidence": {dim.value: [cue.start, cue.end] for dim, cue in result.evidence.items()},
        }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"


def test_annotate_repeated_sentences_as_per_record_annotate(tmp_path, starter_rules_path,
                                                            starter_rules, hand_gold, capsys):
    # each hand-gold sentence as a run of 1-4 records, some spans invalid,
    # then a few sentences again after other sentences; some gold, some
    # non-ASCII tokens
    rng = random.Random(3)
    records = []
    for record in hand_gold:
        n = len(record.tokens)
        for _ in range(rng.randint(1, 4)):
            start = rng.randint(0, n)
            records.append(CorpusRecord(record.tokens, ConceptSpan(start, rng.randint(start + 1, n + 1)),
                                        record.gold))
    records += records[:6]
    records += [
        CorpusRecord(["no", "fièvre", "\u00e9t\u00e9", "\"q\"", "\\", "\u2028"], ConceptSpan(1, 2)),
        CorpusRecord(["denies", "😀", "pain"], ConceptSpan(2, 3), {"negation": "negated"}),
        # evidence in the order its cues occur, not in dimension order
        CorpusRecord(["Father", "had", "history", "of", "no", "MI"], ConceptSpan(5, 6)),
    ]
    corpus, output = tmp_path / "runs.jsonl", tmp_path / "out.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        write_corpus(records, fh)
    assert run_cli("annotate", "--rules", str(starter_rules_path),
                   "--input", str(corpus), "--output", str(output)) == 0

    stderr = capsys.readouterr().err.splitlines()
    # against the trie and against the naive scanner, record by record
    for trie in (build_trie(starter_rules), None):
        expected, errors, dimensions = [], [], set()
        for index, record in enumerate(iter_corpus(corpus)):
            try:
                result = annotate(record.tokens, record.concept, starter_rules, trie)
                dimensions.update(result.evidence)
            except InvalidSpan as err:
                result = err
                errors.append(f"line {index + 1}: {err}")
            expected.append(reference_line(record, result))
        assert errors and len(dimensions) == 3
        assert output.read_text(encoding="utf-8") == "".join(expected)
        assert stderr == errors


#: Canonical lines, which the reader hands out as their own heads, run
#: continuations, and every form of line that the writer encodes again.
MIXED_LINES = [
    '\ufeff{"tokens":["no","fever"],"concept":[1,2]}',
    '{"tokens":["no","fever"],"concept":[0,2]}',
    '{"tokens":["no","fever"],"concept":[1, 2]}',
    '{"tokens":["no","fever"],"concept":[1,5]}',  # out of range, on a run's echoed head
    '{"tokens":["no","fever"],"concept":[-0,2]}',
    '{"tokens":["no","fever"],"concept":[1,2],"gold":{"negation":"negated"}}',
    '{"tokens":["no", "fever"],"concept":[1,2]}',
    '{"tokens":["denies","c\\/d","\\u00e9","a\\"b"],"concept":[3,4]}',
    '{"concept":[1,2],"tokens":["no","fever"]}',
    '{"tokens":["no","fever"],"concept":[1,2],"x":1}',
    '{"tokens":[],"tokens":["no","fever"],"concept":[1,2]}',
    '{"tokens":["no","fever"],"concept":[1,2],"concept":[0,1]}',
    '{"tokens":["denies","pain"],"concept":[1,2],"gold":{"negation": "negated"}}',
    '{"tokens":["pain"],"concept":[0,3]}',  # out of range, on an echoed line
    '{"tokens":[],"concept":[0,0]}',
    '{"tokens":["no",   "],"],"concept":[0,1]}',
    '{"tokens":["no","],"],"concept":[0,1]}',
    '{"tokens":["no","fièvre","\u2028"],"concept":[1,2]}',
]


def test_annotate_writes_each_record_as_its_encoding_whether_echoed_or_not(
        tmp_path, starter_rules_path, starter_rules, capsys):
    corpus, output = tmp_path / "mixed.jsonl", tmp_path / "out.jsonl"
    corpus.write_text("\n".join(MIXED_LINES) + "\n", encoding="utf-8")
    heads = [head for _, head in corpus_mod._iter_lines(MIXED_LINES)]
    assert 0 < heads.count(None) < len(heads)  # both paths are taken
    assert run_cli("annotate", "--rules", str(starter_rules_path),
                   "--input", str(corpus), "--output", str(output)) == 0
    expected, errors = [], []
    for record in iter_corpus(corpus):
        try:
            result = annotate(record.tokens, record.concept, starter_rules)
        except InvalidSpan as err:
            result = err
            errors.append(f"line {record.line_no}: {err}")
        expected.append(corpus_mod.annotated_line(record, result, corpus_mod._record_head(record)))
    assert len(errors) == 3
    assert output.read_text(encoding="utf-8") == "".join(expected)
    assert capsys.readouterr().err.splitlines() == errors


def test_a_record_edited_after_reading_is_written_as_edited(starter_rules):
    # the reader keeps no head on a record, so annotated_line encodes it
    (record,) = iter_corpus(['{"tokens":["no","fever"],"concept":[1,2]}'])
    record.tokens[1:] = ["fièvre", "today"]
    line = corpus_mod.annotated_line(record, annotate(record.tokens, record.concept, starter_rules))
    assert line.startswith('{"tokens":["no","fièvre","today"],"concept":[1,2],"pred":{"negation":"negated"')


def test_annotate_is_case_insensitive_and_echoes_tokens(tmp_path, starter_rules_path, capsys):
    corpus = write_corpus_file(tmp_path, [
        {"tokens": ["No", "EVIDENCE", "of", "Recurrence"], "concept": [3, 4]},
        # the only cue word is capitalised, so no token as given is a rule's first word
        {"tokens": ["No", "Chest", "Pain"], "concept": [1, 3]},
    ])
    assert run_cli("annotate", "--rules", str(starter_rules_path), "--input", str(corpus)) == 0
    records = [json.loads(line) for line in out_lines(capsys)]
    assert [record["tokens"] for record in records] == \
        [["No", "EVIDENCE", "of", "Recurrence"], ["No", "Chest", "Pain"]]
    assert [record["pred"]["negation"] for record in records] == ["negated", "negated"]


GOOD_LINES = [
    '{"tokens": ["we", "can", "rule", "out", "mi"], "concept": [4, 5]}',
    # a run of two records on one sentence, still pending at the bad line
    '{"tokens": ["no", "mi"], "concept": [1, 2]}',
    '{"tokens": ["no", "mi"], "concept": [0, 1]}',
]


@pytest.mark.parametrize("bad,fragment", [
    (b"{not json", "invalid JSON"),
    (b'{"tokens": "x", "concept": [0, 1]}', "'tokens'"),
    (b'{"tokens": ["caf\xe9"], "concept": [0, 1]}', "not valid UTF-8"),
])
def test_annotate_malformed_line_keeps_earlier_output(tmp_path, paper_rules, bad, fragment, capsys):
    corpus, output = tmp_path / "corpus.jsonl", tmp_path / "out.jsonl"
    good = "".join(line + "\n" for line in GOOD_LINES).encode("utf-8")
    corpus.write_bytes(good + bad + b"\n" + GOOD_LINES[0].encode("utf-8") + b"\n")
    assert run_cli("annotate", "--rules", str(paper_rules),
                   "--input", str(corpus), "--output", str(output)) == 3
    err = capsys.readouterr().err
    assert "error: line 4: " in err and fragment in err
    reference = tmp_path / "reference.jsonl"
    corpus.write_bytes(good)
    assert run_cli("annotate", "--rules", str(paper_rules),
                   "--input", str(corpus), "--output", str(reference)) == 0
    assert output.read_bytes() == reference.read_bytes()
    assert len(output.read_text(encoding="utf-8").splitlines()) == 3


def test_annotate_reads_stdin_bytes_and_names_a_non_utf8_line(paper_rules):
    data = (GOOD_LINES[0] + "\n").encode("utf-8") + b'{"tokens": ["\xff"], "concept": [0, 1]}\n'
    proc = subprocess.run(
        [sys.executable, "-m", "cuescope.cli", "annotate", "--rules", str(paper_rules), "--input", "-"],
        input=data, capture_output=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.decode("utf-8") == "error: line 2: not valid UTF-8 text\n"
    assert json.loads(proc.stdout)["pred"]["negation"] == "negated"


def test_annotate_ignores_a_byte_order_mark_opening_the_corpus(tmp_path, starter_rules_path,
                                                              hand_gold_path):
    rules = str(starter_rules_path)
    marked = tmp_path / "marked.jsonl"
    marked.write_bytes(b"\xef\xbb\xbf" + hand_gold_path.read_bytes())
    outputs = []
    for corpus in (hand_gold_path, marked):
        out = tmp_path / f"{corpus.stem}.out"
        assert run_cli("annotate", "--rules", rules, "--input", str(corpus), "--output", str(out)) == 0
        outputs.append(out.read_bytes())
    proc = subprocess.run(
        [sys.executable, "-m", "cuescope.cli", "annotate", "--rules", rules, "--input", "-"],
        input=marked.read_bytes(), capture_output=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert outputs[0] == outputs[1] == proc.stdout
    assert len(outputs[0].splitlines()) == len(hand_gold_path.read_bytes().splitlines())


def test_annotate_names_a_byte_order_mark_on_a_later_line(tmp_path, paper_rules, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes("".join(f"{line}\n" for line in GOOD_LINES).replace("\n", "\n\ufeff", 1)
                       .encode("utf-8"))
    assert run_cli("annotate", "--rules", str(paper_rules), "--input", str(corpus)) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))\n"
    assert len(captured.out.splitlines()) == 1


def test_annotate_missing_input_leaves_output_untouched(tmp_path, paper_rules, capsys):
    output = tmp_path / "out.jsonl"
    assert run_cli("annotate", "--rules", str(paper_rules),
                   "--input", str(tmp_path / "missing.jsonl"), "--output", str(output)) == 3
    assert not output.exists()
    output.write_text("kept\n", encoding="utf-8")
    assert run_cli("annotate", "--rules", str(paper_rules),
                   "--input", str(tmp_path / "missing.jsonl"), "--output", str(output)) == 3
    assert output.read_text(encoding="utf-8") == "kept\n"


def test_annotate_same_input_and_output_is_refused(tmp_path, paper_rules, capsys):
    corpus = write_corpus_file(tmp_path, [{"tokens": ["no", "mi"], "concept": [1, 2]}])
    before = corpus.read_bytes()
    alias = tmp_path / "." / corpus.name
    assert run_cli("annotate", "--rules", str(paper_rules),
                   "--input", str(corpus), "--output", str(alias)) == 3
    assert "same file" in capsys.readouterr().err
    assert corpus.read_bytes() == before


@pytest.mark.parametrize("redirect", ["stdin", "stdout-append"])
def test_annotate_redirect_onto_the_input_is_refused(tmp_path, paper_rules, redirect):
    # `--input - --output X < X` would empty X before reading it, and
    # `--input X >> X` would read its own output back without end
    corpus = write_corpus_file(tmp_path, [{"tokens": ["no", "mi"], "concept": [1, 2]}])
    before = corpus.read_bytes()
    argv = [sys.executable, "-m", "cuescope.cli", "annotate", "--rules", str(paper_rules)]
    with open(corpus, "rb") as stdin, open(corpus, "ab") as stdout:
        if redirect == "stdin":
            argv += ["--input", "-", "--output", str(corpus)]
            proc = subprocess.run(argv, stdin=stdin, stderr=subprocess.PIPE, timeout=120)
        else:
            argv += ["--input", str(corpus)]
            proc = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == 3
    assert b"same file" in proc.stderr
    assert corpus.read_bytes() == before


def test_annotate_shared_device_as_input_and_output_is_allowed(paper_rules):
    # stdin and stdout on one device that is not a regular file, as on a
    # terminal, are not the same file in the sense above
    proc = subprocess.run(
        [sys.executable, "-m", "cuescope.cli", "annotate", "--rules", str(paper_rules)],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == b""


def test_annotate_non_utf8_rules_exit_2(tmp_path, capsys):
    rules = tmp_path / "rules.tsv"
    rules.write_bytes(PAPER_RULES.encode("utf-8") + b"caf\xe9\tforward\ttrigger\tnegated\t5\n")
    corpus = write_corpus_file(tmp_path, [])
    assert run_cli("annotate", "--rules", str(rules), "--input", str(corpus)) == 2
    assert "line 4: not UTF-8" in capsys.readouterr().err


#: Pieces of corpus lines, valid and not, for the fuzzer to join.
_FRAGMENTS = [
    b'{"tokens":["no","mi"],"concept":[1,2]}\n', b"{", b"}", b"[", b"]", b",", b":",
    b'"tokens"', b'"concept"', b'"gold"', b'"negation"', b'"negated"', b'"no"', b'"Mi"',
    b'"\\ud800"', b'"\\u00e9"', b"0", b"1", b"-1", b"1e999", b"9" * 5000, b"true", b"null",
    b"\n", b"\r", b" ", b"\xff", b"\xc3\xa9", b"\xed\xa0\x80",
]


@settings(max_examples=300, deadline=None)
@example(b'{"tokens":["\\ud800"],"concept":[0,1]}\n')
@given(st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map(b"".join),
))
def test_any_bytes_as_corpus_exit_0_or_3(data):
    with tempfile.TemporaryDirectory() as tmp:
        rules, corpus = Path(tmp) / "rules.tsv", Path(tmp) / "corpus.jsonl"
        rules.write_text(PAPER_RULES, encoding="utf-8")
        corpus.write_bytes(data)
        with contextlib.redirect_stderr(io.StringIO()):
            code = run_cli("annotate", "--rules", str(rules), "--input", str(corpus),
                           "--output", str(Path(tmp) / "out.jsonl"))
    assert code in (0, 3)


#: Pieces of rule-file columns, valid and not, for the fuzzer to join by tabs.
_RULE_FRAGMENTS = [
    b"no", b"can rule out", b"No  Evidence", b"\\w+", b"\\w+ of", b"caf\xc3\xa9", b"a\xc2\xa0b",
    b"forward", b"Backward", b"both", b"bidirectional", b"sideways",
    b"trigger", b"pseudo", b"TERMINATION", b"negated", b"possible", b"nonpatient",
    b"historical", b"hypothetical", b"other", b"0", b"5", b" 30 ", b"-1", b"x", b"1e3",
    b"9" * 5000, b"#", b"", b" ", b"\r", b"\xff", b"\xed\xa0\x80",
]


@settings(max_examples=300, deadline=None)
@example(None)
@example(PAPER_RULES.encode("utf-8") * 2)
@given(st.one_of(
    st.binary(max_size=200),
    st.lists(
        st.lists(st.sampled_from(_RULE_FRAGMENTS), max_size=7).map(b"\t".join), max_size=6,
    ).map(b"\n".join),
))
def test_any_bytes_as_rules_exit_0_2_or_3(data):
    # ``None`` stands for a rules path that does not exist
    with tempfile.TemporaryDirectory() as tmp:
        rules, corpus = Path(tmp) / "rules.tsv", Path(tmp) / "corpus.jsonl"
        if data is not None:
            rules.write_bytes(data)
        corpus.write_text('{"tokens": ["no", "Evidence", "of", "mi"], "concept": [3, 4]}\n',
                          encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = run_cli("annotate", "--rules", str(rules), "--input", str(corpus),
                           "--output", str(Path(tmp) / "out.jsonl"))
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if data is None:
        assert code == 2 and stderr.getvalue().startswith("rule error: ")


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


def test_evaluate_reports_the_first_bad_line_in_file_order(tmp_path, paper_rules, capsys):
    # the gold file is read one record at a time, so line 1's invalid span
    # is met before line 2's bad JSON is read
    gold = tmp_path / "gold.jsonl"
    gold.write_text('{"tokens": ["a"], "concept": [4, 5]}\n{not json\n', encoding="utf-8")
    assert run_cli("evaluate", "--rules", str(paper_rules), "--gold", str(gold)) == 3
    assert capsys.readouterr().err == (
        "error: line 1: concept [4, 5) outside token range of length 1\n"
    )


# --- bench ---

def test_bench_csv_and_schedule(capsys):
    assert run_cli("bench", "--base", "10", "--final", "30", "--step", "10",
                   "--runs", "1", "--warmup", "0",
                   "--corpus-size", "20") == 0
    lines = out_lines(capsys)
    assert lines[0] == "rule_count,engine,mean_ms,stddev_ms,speedup_vs_naive"
    counts = [int(line.split(",")[0]) for line in lines[1:]]
    assert counts == [10, 10, 20, 20, 30, 30]


def test_bench_reads_a_corpus_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert run_cli("generate", "corpus", "--seed", "3", "--count", "15",
                   "--output", str(corpus)) == 0
    bench = ("bench", "--base", "10", "--final", "20", "--step", "10",
             "--runs", "1", "--warmup", "0", "--corpus")
    assert run_cli(*bench, str(corpus)) == 0
    rows = [line.split(",") for line in out_lines(capsys)[1:]]
    assert [(row[0], row[1]) for row in rows] == \
        [("10", "naive"), ("10", "trie"), ("20", "naive"), ("20", "trie")]
    assert all(float(row[2]) > 0 for row in rows)
    assert run_cli(*bench, str(tmp_path / "missing.jsonl")) == 3
    assert "error: " in capsys.readouterr().err


def test_bench_step_of_zero_exits_3(capsys):
    assert run_cli("bench", "--step", "0") == 3
    assert capsys.readouterr() == ("", "error: step must be >= 1\n")


def test_bench_base_above_final_exits_3(capsys):
    assert run_cli("bench", "--base", "30", "--final", "20") == 3
    assert capsys.readouterr() == ("", "error: need 1 <= base_rule_count <= final_rule_count\n")


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


@pytest.mark.parametrize("argv, digest", [
    # the rule file of the scaling ramp (C2/C3) and of every perfbench workload
    (("rules", "--seed", "7", "--count", "849"),
     "1e0839795b6f1d54d7454a45d4146b4c9e48860cc1c1ca0d71266900ee335c85"),
    # the corpus bench times by default
    (("corpus", "--seed", "97", "--count", "1000", "--rule-count", "409"),
     "1b3637b4ff9df453b994a6b0d4a6dfa1582534485ab24273be23096ee424cbde"),
])
def test_generate_reference_data_is_pinned(capsys, argv, digest):
    # a drift in any generator constant changes these bytes
    assert run_cli("generate", *argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


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


@pytest.mark.parametrize("bad, code", [
    (("--rules", "missing.tsv"), 2),
    (("--rate", "1.5"), 3),
])
def test_generate_leaves_output_alone_on_bad_input(tmp_path, monkeypatch, bad, code):
    monkeypatch.chdir(tmp_path)
    existing = tmp_path / "existing.jsonl"
    existing.write_text('{"tokens": ["kept"], "concept": [0, 1]}\n', encoding="utf-8")
    before = existing.read_bytes()
    assert run_cli("generate", "corpus", "--count", "3", *bad, "--output", str(existing)) == code
    assert existing.read_bytes() == before


def test_generate_corpus_may_overwrite_its_rule_file(tmp_path, paper_rules):
    elsewhere = tmp_path / "elsewhere.jsonl"
    args = ("generate", "corpus", "--seed", "3", "--count", "5", "--rate", "1.0",
            "--rules", str(paper_rules))
    assert run_cli(*args, "--output", str(elsewhere)) == 0
    assert run_cli(*args, "--output", str(paper_rules)) == 0
    assert paper_rules.read_bytes() == elsewhere.read_bytes()
    tokens = {t for line in elsewhere.read_text(encoding="utf-8").splitlines()
              for t in json.loads(line)["tokens"]}
    assert tokens & set(PAPER_RULES.split())  # cues injected from the rules


def test_the_cli_starts_without_dataclasses_or_the_other_commands():
    # a fresh interpreter, since this one has imported everything already;
    # dataclasses pulls in inspect, and evaluate (with csv) and bench load
    # only for their own commands
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cuescope.cli; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "cuescope.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "csv", "cuescope.evaluate", "cuescope.bench"}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from cuescope.cli import main; sys.exit(main(['generate', 'rules', '--count', '3']))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 3


def test_console_entry_point_reports_a_usage_error_with_exit_2():
    # argparse's own exit: `usage: ...` and one error line, no traceback
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from cuescope.cli import main; sys.exit(main(['annotate']))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ")
    assert "cuescope annotate: error: the following arguments are required: --rules" in proc.stderr
    assert "Traceback" not in proc.stderr
