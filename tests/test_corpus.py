import io
import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cuescope import corpus
from cuescope.corpus import (
    DIMENSION_VALUES,
    ConfigError,
    CorpusError,
    CorpusRecord,
    GeneratorConfig,
    generate_corpus,
    generate_rules,
    iter_corpus,
    open_corpus,
    write_corpus,
)
from cuescope.engine import ConceptSpan
from cuescope.rules import WILDCARD, CueType, RuleSet, RuleValue, load_rules, serialize_rules


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
    assert list(iter_corpus(path)) == records
    # fixed point on the serialized text as well
    text = jsonl(records)
    assert jsonl(iter_corpus(io.StringIO(text))) == text


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
        list(iter_corpus(io.StringIO(line + "\n")))
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
    path.write_bytes(good + b"\xff\n")
    with open_corpus(path) as fh, pytest.raises(CorpusError, match="line 2: not valid UTF-8"):
        list(iter_corpus(fh))


def expected_from_json_loads(line: str):
    """What reading the one-line corpus ``line`` must give: the record
    built from ``json.loads``' value (or the error building it raises), or
    ``json.loads``' own message."""
    text = line.strip()
    if not text:
        return []  # a blank line holds no record
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        return f"line 1: invalid JSON ({err.msg})"
    except (ValueError, RecursionError) as err:
        return f"line 1: invalid JSON ({err})"
    try:
        return [corpus._record_from_obj(obj, 1, text)]
    except CorpusError as err:
        return str(err)


def read_one_line(line):
    try:
        return list(iter_corpus([line]))
    except CorpusError as err:
        return str(err)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
RECORDS = st.fixed_dictionaries(
    {"tokens": st.lists(st.text(max_size=4), max_size=4),
     "concept": st.lists(st.integers(-2, 6), min_size=2, max_size=2)},
    optional={"gold": st.dictionaries(st.sampled_from(sorted(DIMENSION_VALUES)),
                                      st.sampled_from(["negated", "patient", "recent", "x"]),
                                      max_size=2)},
)
WHITESPACE = st.text(st.sampled_from(" \t\x0c\x0b\xa0\u2028\u3000\ufeff"), max_size=3)


@st.composite
def corpus_lines(draw):
    """JSON text, cut or spliced at a random point, with whitespace and
    byte-order marks around it."""
    text = json.dumps(draw(st.one_of(RECORDS, JSON_VALUES)), ensure_ascii=draw(st.booleans()))
    cut = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["keep", "cut", "insert", "append"]))
    if edit == "cut":
        text = text[:cut]
    elif edit == "insert":
        text = text[:cut] + draw(st.text(alphabet='{}[],:" x0-e.\\', max_size=2)) + text[cut:]
    elif edit == "append":
        text += draw(st.sampled_from(["x", " {}", "}", ",", " 1", "]"]))
    line = draw(WHITESPACE) + text + draw(WHITESPACE)
    # a mark that opens the file is dropped, not decoded (tested below)
    assume(not line.startswith("\ufeff"))
    return line


@settings(max_examples=400, deadline=None)
@example("{} x")  # trailing garbage
@example('{"tokens": ["a"], "concept": [0, 1]} {"tokens": ["b"], "concept": [0, 1]}')
@example('{"tokens":')
@example("[1,]")
@example("not json")
@example("]")
@example("")
@example('{"tokens": ["a"], "concept": [0, 1%s]}' % ("0" * 5000))  # a huge integer
@example("[" * 100_000 + "]" * 100_000)  # nesting too deep
@example('\x0c\xa0{"tokens": ["a"], "concept": [0, 1]}\xa0\x0c')
@example(' \ufeff{"tokens": ["a"], "concept": [0, 1]}')
@example('{"tokens": ["a"], "concept": [0, 1]}\ufeff')
@given(corpus_lines())
def test_reading_a_line_matches_json_loads(line):
    assert read_one_line(line) == expected_from_json_loads(line)


def test_one_byte_order_mark_opening_the_corpus_is_ignored(tmp_path):
    good = '{"tokens": ["a"], "concept": [0, 1]}'
    expected = [CorpusRecord(["a"], ConceptSpan(0, 1))]
    assert list(iter_corpus(io.StringIO(f"\ufeff{good}\n"))) == expected
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(f"\ufeff{good}".encode("utf-8"))
    with open_corpus(path) as fh:
        assert list(iter_corpus(fh)) == expected
    assert list(iter_corpus(io.StringIO(f"\ufeff\n{good}\n"))) == expected
    for line in (f"\ufeff\ufeff{good}", f" \ufeff{good}"):
        with pytest.raises(CorpusError, match=r"^line 1: invalid JSON \(Unexpected UTF-8 BOM"):
            list(iter_corpus([line]))


def test_a_byte_order_mark_on_a_later_line_is_invalid_json():
    good = '{"tokens": ["a"], "concept": [0, 1]}'
    records = []
    with pytest.raises(CorpusError) as err:
        records.extend(iter_corpus(io.StringIO(f"{good}\n\ufeff{good}\n")))
    assert str(err.value) == "line 2: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"
    assert records == [CorpusRecord(["a"], ConceptSpan(0, 1))]


def test_read_corpus_yields_concept_spans():
    records = list(iter_corpus(io.StringIO('{"tokens": ["a", "b"], "concept": [0, 2]}\n')))
    concept = records[0].concept
    assert type(concept) is ConceptSpan and concept == (0, 2) and concept.end == 2


def test_records_are_equal_whatever_line_they_were_read_from():
    (read,) = iter_corpus(io.StringIO('\n\n{"tokens": ["a"], "concept": [0, 1], "gold": {}}\n'))
    assert read.line_no == 3
    assert read == CorpusRecord(["a"], ConceptSpan(0, 1), {}) == CorpusRecord(["a"], (0, 1), {}, 9)
    for other in (CorpusRecord(["b"], ConceptSpan(0, 1), {}), CorpusRecord(["a"], ConceptSpan(0, 0), {}),
                  CorpusRecord(["a"], ConceptSpan(0, 1))):
        assert read != other
    assert repr(read) == "CorpusRecord(tokens=['a'], concept=ConceptSpan(start=0, end=1), gold={}, line_no=3)"


def test_read_corpus_allows_out_of_range_concept():
    # span validity is a per-record engine concern, not a load error
    records = list(iter_corpus(io.StringIO('{"tokens": ["a"], "concept": [0, 9]}\n')))
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
    ruleset = RuleSet.from_rules(
        r for r in generate_rules(11, 600)
        if r.cue_type is CueType.TRIGGER and r.value is RuleValue.NEGATED
        and WILDCARD not in r.phrase
    )
    config = GeneratorConfig(seed=41, sentence_count=10_000, cue_injection_rate=0.22)
    records = generate_corpus(config, ruleset)
    negated = sum(1 for r in records if r.gold["negation"] == "negated")
    assert negated == 2238  # frozen from the seeded run; binomial check below
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
        GeneratorConfig(seed=1, sentence_count=5, cue_injection_rate=1.5)
