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
        ('{"tokens": ["a", 1], "concept": [0, 1]}', "'tokens' must be a list of strings"),
        ('{"tokens":[null],"concept":[0,1]}', "'tokens' must be a list of strings"),
        ('{"tokens":[["a"]],"concept":[0,1]}', "'tokens' must be a list of strings"),
        ('{"tokens": ["a"], "concept": [0]}', "concept"),
        ('{"tokens": ["a"], "concept": [0, true]}', "concept"),
        ('{"tokens": ["a"], "concept": [0, 1], "gold": {"negation": "nope"}}', "gold value"),
        ('{"tokens": ["a"], "concept": [0, 1], "gold": {"mood": "sad"}}', "dimension"),
        ('{"tokens": ["a"], "concept": [0, 1], "gold": {"negation": ["x"]}}', "gold value"),
        ('{"tokens": ["a"], "concept": [0, 1], "gold": ["negation"]}', "'gold' must be an object"),
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


def expected_head(text: str, record: CorpusRecord) -> str | None:
    """The head the reader must hand out with ``record``, read from the
    stripped line ``text``: ``text`` up to its closing brace when ``text``
    holds no backslash and no gold and is the record's own encoding, else
    None."""
    head = corpus._record_head(record)
    return head if record.gold is None and "\\" not in text and text == head + "}" else None


def expected_from_json_loads(line: str):
    """What reading the one-line corpus ``line`` must give: the record
    built from ``json.loads``' value, with its expected head (or the error
    building it raises), or ``json.loads``' own message."""
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
        record, _ = corpus._record_from_obj(obj, 1, text)
    except CorpusError as err:
        return str(err)
    return [(record, expected_head(text, record))]


def read_one_line(line):
    try:
        return list(corpus._iter_lines([line]))
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
    """JSON text, compact or spaced, cut or spliced at a random point, with
    whitespace and byte-order marks around it."""
    text = json.dumps(draw(st.one_of(RECORDS, JSON_VALUES)), ensure_ascii=draw(st.booleans()),
                      separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
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
# the head proof: only a record's own encoding, without gold, is its head
@example('{"tokens":["a"],"concept":[0,1]}')
@example('{"tokens":["a", "b"],"concept":[0,1]}')
@example('{"tokens":["a","b"],"concept":[0, 1]}')
@example('{"tokens":["a\\"b"],"concept":[0,1]}')
@example('{"tokens":["c\\/d"],"concept":[0,1]}')
@example('{"tokens":["\\u00e9"],"concept":[0,1]}')
@example('{"concept":[0,1],"tokens":["a"]}')
@example('{"tokens":["a"],"concept":[0,1],"x":1}')
@example('{"tokens":["a"],"x":1,"concept":[0,1]}')
@example('{"tokens":[],"tokens":["no","fever"],"concept":[1,2]}')
@example('{"tokens":["a"],"concept":[0,1],"concept":[0,1]}')
@example('{"tokens":["a"],"concept":[-0,1]}')
@example('{"tokens":["a"],"concept":[0,1],"gold":{"negation":"negated"}}')
@example('{"tokens":["a"],"concept":[0,1],"gold":{"negation": "negated"}}')
@example('{"tokens":["a"],"concept":[0,1],"gold":null}')
@example('{"tokens":[],"concept":[0,0]}')
@example('{"tokens":["a",   "],"],"concept":[0,1]}')  # right length up to the first `],`
@given(corpus_lines())
def test_reading_a_line_matches_json_loads(line):
    assert read_one_line(line) == expected_from_json_loads(line)


def read_alone(lines):
    """What reading ``lines`` must give: each line read on its own, behind
    blank lines so that it keeps its number, up to the first error; as
    ``(tokens, concept, gold, line_no, head)`` rows, each with its expected
    head, then that error's message."""
    out = []
    for i, line in enumerate(lines):
        if i == 0 and line.startswith("\ufeff"):
            line = line[1:]  # a byte-order mark opens the file
        try:
            out.extend((*row[:-1], expected_head(line.strip(), CorpusRecord(*row[:3])))
                       for row in as_rows(corpus._iter_lines([""] * i + [line])))
        except CorpusError as err:
            return out + [str(err)]
    return out


def as_rows(items):
    return [(r.tokens, r.concept, r.gold, r.line_no, head) for r, head in items]


def read_together(lines):
    rows = []
    try:
        for item in corpus._iter_lines(lines):
            rows.extend(as_rows([item]))
    except CorpusError as err:
        rows.append(str(err))
    return rows


#: A few token lists, so that lines repeat them, with every character
#: that the encoding of a token escapes or that closes a token array.
TOKEN_LISTS = st.lists(
    st.lists(st.sampled_from(["a", "b c", "],", "/", "\u00e9", ""])
             | st.text(alphabet='ab"\\],/ \u00e9\u2028', max_size=3), max_size=3),
    min_size=1, max_size=3,
)


@st.composite
def run_lines(draw, tokens):
    """One record line with ``tokens``, in the canonical form or not: spaces,
    ASCII escapes, ``\\/``, keys reordered, extra or repeated, a gold
    object, and a rest that is cut or has something added."""
    items = [("tokens", tokens), ("concept", [draw(st.integers(-1, 2)), draw(st.integers(0, 3))])]
    if draw(st.booleans()):
        items.append(("gold", draw(st.sampled_from([{}, {"negation": "negated"}] * 3 + [{"mood": "x"}]))))
    canonical = draw(st.booleans())
    if not canonical:
        extra = draw(st.sampled_from([None, ("x", 1), ("tokens", ["a"]), ("tokens", tokens),
                                      ("concept", [0, 1]), ("tokens", "a")]))
        if extra is not None:
            items.insert(draw(st.integers(1, len(items))), extra)
        if draw(st.booleans()):
            items = draw(st.permutations(items))
    ascii_only = not canonical and draw(st.booleans())
    sep = (",", ":") if canonical or draw(st.booleans()) else (", ", ": ")
    text = "{" + sep[0].join(
        json.dumps(k) + sep[1] + json.dumps(v, ensure_ascii=ascii_only, separators=sep)
        for k, v in items
    ) + "}"
    if not canonical and draw(st.booleans()):
        text = text.replace("/", "\\/")
    edit = draw(st.sampled_from(["keep"] * 12 + ["cut", "append", "insert"]))
    at = draw(st.integers(len(text) // 2, len(text)))
    if edit == "cut":
        text = text[:at]
    elif edit == "append":
        text += draw(st.sampled_from([" x", "}", ",", " {}"]))
    elif edit == "insert":
        text = text[:at] + draw(st.sampled_from([",", "}", "]", " ", '"'])) + text[at:]
    return text


@st.composite
def corpora_of_runs(draw):
    pool = draw(TOKEN_LISTS)
    return [draw(run_lines(draw(st.sampled_from(pool)))) for _ in range(draw(st.integers(1, 8)))]


@settings(max_examples=300, deadline=None)
@example([
    '{"tokens":["a","b"],"concept":[0,1],"tokens":["a\\",\\"b"]}',
    '{"tokens":["a","b"],"concept":[0,1]}',
])
@example([
    '{"tokens":["a","b"],"concept":[0,1]}',
    '{"tokens":["a","b"],"concept":[0,1],"tokens":["a\\",\\"b"]}',
    '{"tokens":["a","b"],"concept":[1,2]}',
])
@example(['{"tokens":["a"],"concept":[0,1],"tokens":["b"]}', '{"tokens":["a"],"concept":[0,1]}'])
@example(['{"tokens":["a","\\u00e9"],"concept":[0,1]}', '{"tokens":["a","\\u00e9"],"concept":[1,2]}'])
@example(['{"tokens":["a",1,"b"],"concept":[0,1],"tokens":["a"]}', '{"tokens":["a",1,"b"],"concept":[0,1]}'])
@example(['{"tokens":["a",1],"concept":[0,1],"tokens":["a"]}', '{"tokens":["a",1],"concept":[0,1]}'])
@example(['{"tokens":["a"],"concept":[0,1]}', '{"tokens":["a"],"concept":[0,1],"tokens":["b"]}'])
@example(['{"tokens":["a"],"concept":[0,1]}', '{"tokens":["a"],"concept":[0,1]} x'])
@example(['{"tokens":["a"],"concept":[0,1]}', '{"tokens":["a"],}'])
@example(['{"tokens":[],"concept":[0,1]}', '{"tokens":[],"concept":[0,0]}', '{"tokens":[],"concept":'])
# the head proof on a run's later lines: only the run's own encoding is echoed
@example(['{"tokens":["a","b"],"concept":[0,1]}', '{"tokens":["a","b"],"concept":[1,2]}',
          '{"tokens":["a","b"],"concept":[1, 2]}', '{"tokens":["a","b"],"concept":[-0,1]}',
          '{"tokens":["a","b"],"concept":[0,1],"gold":{"negation":"negated"}}',
          '{"tokens":["a","b"],"concept":[0,1],"x":1}', '{"tokens":["a","b"],"x":1,"concept":[0,1]}',
          '{"tokens":["a","b"],"concept":[0,1],"concept":[0,2]}', '{"tokens":["a","b"],"concept":[1,2]}'])
@example(['\ufeff{"tokens":["a"],"concept":[0,1]}', '{"tokens":["a"],"concept":[0,0]}'])
@example(['{"tokens":["a","c\\/d"],"concept":[0,1]}', '{"tokens":["a","c\\/d"],"concept":[0,1]}'])
@example(['{"tokens":["a",   "],"],"concept":[0,1]}', '{"tokens":["a",   "],"],"concept":[0,1]}'])
@example(['{"tokens":[],"concept":[0,0]}', '{"tokens":[],"concept":[0,1]}'])
@given(corpora_of_runs())
def test_reading_a_corpus_matches_reading_each_line_alone(lines):
    assert read_together(lines) == read_alone(lines)


def test_a_canonical_line_is_its_records_head():
    lines = ['{"tokens":["no","fever"],"concept":[1,2]}', '{"tokens":["no","fever"],"concept":[0,2]}',
             '{"tokens":[],"concept":[0,0]}', '{"tokens":["\u00e9\u2028"],"concept":[0,1]}']
    items = list(corpus._iter_lines(["\ufeff" + lines[0]] + lines[1:]))
    assert [head for _, head in items] == [line[:-1] for line in lines]
    assert [head for _, head in items] == [corpus._record_head(record) for record, _ in items]


@st.composite
def runs_of_records(draw):
    pool = draw(TOKEN_LISTS)
    return [
        (draw(st.sampled_from(pool)), ConceptSpan(draw(st.integers(0, 2)), draw(st.integers(0, 3))),
         draw(st.sampled_from([None, {}, {"negation": "negated", "temporality": "recent"}])))
        for _ in range(draw(st.integers(0, 8)))
    ]


@settings(max_examples=200, deadline=None)
@example([(["a"], ConceptSpan(0, 1), None), (["b"], ConceptSpan(0, 1), None)], True)
@given(runs_of_records(), st.booleans())
def test_writing_a_run_matches_writing_each_record(rows, refill):
    shared: list[str] = []

    def records():
        for tokens, concept, gold in rows:
            if refill:  # one list, refilled in place between records
                shared[:] = tokens
                yield CorpusRecord(shared, concept, gold)
            else:
                yield CorpusRecord(list(tokens), concept, gold)

    expected = "".join(corpus._record_head(CorpusRecord(*row)) + "}\n" for row in rows)
    assert jsonl(records()) == expected


def test_a_run_of_records_shares_no_token_list():
    line = '{"tokens":["a","b"],"concept":[0,1]}\n'
    records = iter_corpus([line] * 4)
    first, second = next(records), next(records)
    first.tokens.append("c")  # after the run's head is proven, before it is reused
    second.tokens[0] = "z"
    rest = list(records)
    assert [r.tokens for r in rest] == [["a", "b"], ["a", "b"]]
    rest[0].tokens.clear()
    assert rest[1].tokens == ["a", "b"]
    # changed before the next line is read, a record's tokens are not reused
    records = iter_corpus([line] * 2)
    next(records).tokens[0] = "z"
    assert next(records).tokens == ["a", "b"]


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
