import io
import json

import pytest

from cuescope.corpus import (
    ConfigError,
    CorpusError,
    CorpusRecord,
    GeneratorConfig,
    generate_corpus,
    generate_rules,
    iter_corpus,
    read_corpus,
    tokenize,
    write_corpus,
)
from cuescope.engine import ConceptSpan, DIMENSION_VALUES
from cuescope.rules import WILDCARD, CueType, RuleValue, load_rules, serialize_rules


# --- tokenize ---

def test_tokenize_paper_sentence():
    assert tokenize("No atrial septal defect is found") == \
        ["no", "atrial", "septal", "defect", "is", "found"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   \n\t ") == []


def test_tokenize_detaches_punctuation_keeps_hyphens():
    assert tokenize("rule-out, MI.") == ["rule-out", ",", "mi", "."]


def test_tokenize_nested_punctuation():
    assert tokenize("(stable) --") == ["(", "stable", ")", "-", "-"]


def test_tokenize_never_produces_wildcard():
    assert WILDCARD not in tokenize(r"match \w+ here")


# --- corpus file format ---

def jsonl(records) -> str:
    out = io.StringIO()
    write_corpus(records, out)
    return out.getvalue()


def test_corpus_round_trip(tmp_path):
    records = [
        CorpusRecord(["no", "mi"], ConceptSpan(1, 2), {"negation": "negated"}),
        CorpusRecord(["ok"], ConceptSpan(0, 1), None),
    ]
    path = tmp_path / "corpus.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        write_corpus(records, fh)
    assert read_corpus(path) == records
    # fixed point on the serialized text as well
    text = jsonl(records)
    assert jsonl(read_corpus(io.StringIO(text))) == text


def test_write_corpus_is_compact_json_per_record():
    records = [
        CorpusRecord(["no", "fièvre", "\"q\"", "\\", "\u2028", "😀", "\x00"], ConceptSpan(1, 2),
                     {"temporality": "historical", "negation": "negated"}),
        CorpusRecord([], ConceptSpan(-1, 7), {}),
    ]
    expected = "".join(
        json.dumps({"tokens": r.tokens, "concept": [r.concept.start, r.concept.end], "gold": r.gold},
                   ensure_ascii=False, separators=(",", ":")) + "\n"
        for r in records
    )
    assert jsonl(records) == expected
    assert jsonl([CorpusRecord(["a"], ConceptSpan(0, 1))]) == '{"tokens":["a"],"concept":[0,1]}\n'


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("not json", "invalid JSON"),
        ('["list"]', "JSON object"),
        ('{"tokens": "x", "concept": [0, 1]}', "tokens"),
        ('{"tokens": ["a"], "concept": [0]}', "concept"),
        ('{"tokens": ["a"], "concept": [0, true]}', "concept"),
        ('{"tokens": ["a"], "concept": [0, 1], "gold": {"negation": "nope"}}', "gold value"),
        ('{"tokens": ["a"], "concept": [0, 1], "gold": {"mood": "sad"}}', "dimension"),
        ('{"tokens": ["a"], "concept": [0, 1], "gold": {"negation": ["x"]}}', "gold value"),
        ('{"tokens": ["\\ud800"], "concept": [0, 1]}', "lone surrogate"),
        pytest.param('{"tokens": ["a"], "concept": [0, 1%s]}' % ("0" * 5000), "invalid JSON",
                     id="int-past-digit-limit"),
    ],
)
def test_read_corpus_rejects_bad_lines(line, fragment):
    with pytest.raises(CorpusError) as err:
        read_corpus(io.StringIO(line + "\n"))
    assert fragment in str(err.value)


def test_read_corpus_rejects_non_utf8_with_its_line(tmp_path):
    good = b'{"tokens": ["a"], "concept": [0, 1]}\n'
    path = tmp_path / "corpus.jsonl"
    # the bad byte sits past the first 8 KiB, where a decoding reader fails
    # before it yields the lines it already holds
    path.write_bytes(good * 400 + b'{"tokens": ["\xe9"], "concept": [0, 1]}\n')
    records = []
    with pytest.raises(CorpusError, match="line 401: not valid UTF-8"):
        records.extend(iter_corpus(path))
    assert len(records) == 400
    with pytest.raises(CorpusError, match="line 2: not valid UTF-8"):
        read_corpus([good, b"\xff\n"])


def test_read_corpus_allows_out_of_range_concept():
    # span validity is a per-record engine concern, not a load error
    records = read_corpus(io.StringIO('{"tokens": ["a"], "concept": [0, 9]}\n'))
    assert records[0].concept == ConceptSpan(0, 9)


# --- rule generator ---

def test_generate_rules_loadable_and_serializable():
    ruleset = generate_rules(7, 849)
    assert len(ruleset) == 849
    reloaded = load_rules(io.StringIO(serialize_rules(ruleset)))
    assert reloaded.rules == ruleset.rules


def test_generate_rules_single():
    assert len(generate_rules(7, 1)) == 1


def test_generate_rules_prefix_property():
    small = generate_rules(7, 409)
    large = generate_rules(7, 849)
    assert large.rules[:409] == small.rules


def test_generate_rules_mixes_types_and_wildcards():
    ruleset = generate_rules(3, 500)
    types = {r.cue_type for r in ruleset}
    assert types == {CueType.TRIGGER, CueType.PSEUDO, CueType.TERMINATION}
    wildcards = sum(1 for r in ruleset if WILDCARD in r.phrase)
    assert 0.01 <= wildcards / 500 <= 0.12
    assert all(r.phrase[0] != WILDCARD for r in ruleset)


def test_generate_rules_restricted_mix():
    ruleset = generate_rules(7, 100, cue_types=(CueType.TRIGGER,),
                             values=(RuleValue.NEGATED,), wildcard_rate=0.0)
    assert all(r.cue_type is CueType.TRIGGER for r in ruleset)
    assert all(r.value is RuleValue.NEGATED for r in ruleset)
    assert all(WILDCARD not in r.phrase for r in ruleset)


def test_generate_rules_bad_count():
    with pytest.raises(ConfigError):
        generate_rules(7, 0)


# --- corpus generator ---

def test_generator_deterministic_by_seed():
    ruleset = generate_rules(7, 50)
    config = GeneratorConfig(seed=1, sentence_count=50)
    first = jsonl(generate_corpus(config, ruleset))
    second = jsonl(generate_corpus(config, ruleset))
    assert first == second
    other = jsonl(generate_corpus(GeneratorConfig(seed=2, sentence_count=50), ruleset))
    assert other != first


def test_generator_rate_zero_all_defaults():
    ruleset = generate_rules(7, 100)
    config = GeneratorConfig(seed=3, sentence_count=200, cue_injection_rate=0.0)
    for record in generate_corpus(config, ruleset):
        assert record.gold == {
            "negation": "affirmed", "experiencer": "patient", "temporality": "recent",
        }


def test_generator_negated_fraction_tracks_rate():
    # negation-only rule set at rate 0.22 mirrors a 22% negated corpus
    ruleset = generate_rules(11, 60, cue_types=(CueType.TRIGGER,),
                             values=(RuleValue.NEGATED,), wildcard_rate=0.0)
    config = GeneratorConfig(seed=41, sentence_count=10_000, cue_injection_rate=0.22)
    records = generate_corpus(config, ruleset)
    negated = sum(1 for r in records if r.gold["negation"] == "negated")
    assert negated == 2219  # frozen from the seeded run; binomial check below
    assert abs(negated / 10_000 - 0.22) < 0.017  # 4 sigma


def test_generator_records_satisfy_invariants():
    ruleset = generate_rules(7, 200)
    config = GeneratorConfig(seed=5, sentence_count=300)
    for record in generate_corpus(config, ruleset):
        assert 0 <= record.concept.start < record.concept.end <= len(record.tokens)
        for dimension, value in record.gold.items():
            assert value in DIMENSION_VALUES[dimension]


def test_generator_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(seed=1, sentence_count=0)
    with pytest.raises(ConfigError):
        GeneratorConfig(seed=1, sentence_count=5, min_len=9, max_len=3)
    with pytest.raises(ConfigError):
        GeneratorConfig(seed=1, sentence_count=5, cue_injection_rate=1.5)
