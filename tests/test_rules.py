import enum
import io
import sys

import pytest
from hypothesis import given, strategies as st

from cuescope import rules as rules_mod
from cuescope.corpus import generate_rules
from cuescope.rules import (
    WILDCARD,
    ContextRule,
    CueType,
    Direction,
    DuplicateRule,
    MalformedRule,
    RuleSet,
    RuleValue,
    load_rules,
    parse_rule_line,
    serialize_rules,
)

PAPER_LINES = [
    "can rule out\tforward\ttrigger\tnegated\t10",
    "although\tforward\ttermination\tnegated\t30",
    "false negative\tboth\tpseudo\tnegated\t30",
]


def test_parse_trigger_line():
    rule = parse_rule_line(PAPER_LINES[0])
    assert rule.phrase == ("can", "rule", "out")
    assert rule.direction is Direction.FORWARD
    assert rule.cue_type is CueType.TRIGGER
    assert rule.value is RuleValue.NEGATED
    assert rule.window == 10


def test_parse_both_is_bidirectional():
    rule = parse_rule_line(PAPER_LINES[2])
    assert rule.phrase == ("false", "negative")
    assert rule.direction is Direction.BIDIRECTIONAL
    assert rule.cue_type is CueType.PSEUDO
    assert rule.window == 30


def test_parse_wrong_column_count():
    with pytest.raises(MalformedRule) as err:
        parse_rule_line("although\tforward\ttermination\tnegated", line_no=7)
    assert err.value.line_no == 7
    assert "5 tab-separated columns" in str(err.value)


@pytest.mark.parametrize(
    "line,column",
    [
        ("\tforward\ttrigger\tnegated\t5", 1),
        ("no\tsideways\ttrigger\tnegated\t5", 2),
        ("no\tforward\tblocker\tnegated\t5", 3),
        ("no\tforward\ttrigger\tmaybe\t5", 4),
        ("no\tforward\ttrigger\tnegated\tfive", 5),
        ("no\tforward\ttrigger\tnegated\t-1", 5),
        ("no\tforward\ttrigger\tnegated\t1_0", 5),
        ("no\tforward\ttrigger\tnegated\t+3", 5),
        ("no\tforward\ttrigger\tnegated\t\u0665", 5),
        ("a  b\tforward\ttrigger\tnegated\t5", 1),
        ("a\u00a0b\tforward\ttrigger\tnegated\t5", 1),
    ],
)
def test_parse_bad_columns(line, column):
    with pytest.raises(MalformedRule) as err:
        parse_rule_line(line, line_no=3)
    assert err.value.column == column
    assert err.value.line_no == 3


def test_parse_is_case_normalising():
    rule = parse_rule_line("Can Rule OUT\tFORWARD\tTrigger\tNegated\t10")
    assert rule.phrase == ("can", "rule", "out")
    assert rule.direction is Direction.FORWARD


def test_load_paper_rules_in_order():
    ruleset = load_rules(io.StringIO("\n".join(PAPER_LINES) + "\n"))
    assert len(ruleset) == 3
    assert [r.id for r in ruleset] == [0, 1, 2]
    assert ruleset[1].cue_type is CueType.TERMINATION


def test_load_empty_file():
    assert len(load_rules(io.StringIO(""))) == 0


def test_load_skips_comments_blanks_and_crlf():
    text = "# header\r\n\r\n" + PAPER_LINES[0] + "\r\n  \n" + PAPER_LINES[1] + "\n"
    ruleset = load_rules(io.StringIO(text))
    assert len(ruleset) == 2
    assert ruleset[0].phrase == ("can", "rule", "out")


def test_load_reports_offending_line_number():
    text = PAPER_LINES[0] + "\nbogus line without tabs\n"
    with pytest.raises(MalformedRule) as err:
        load_rules(io.StringIO(text))
    assert err.value.line_no == 2


def test_load_rejects_duplicates():
    text = PAPER_LINES[1] + "\n" + PAPER_LINES[1] + "\n"
    with pytest.raises(DuplicateRule):
        load_rules(io.StringIO(text))


def test_duplicate_differs_by_window_only_is_still_duplicate():
    text = "no\tforward\ttrigger\tnegated\t5\nno\tforward\ttrigger\tnegated\t9\n"
    with pytest.raises(DuplicateRule):
        load_rules(io.StringIO(text))


def test_load_binary_stream():
    ruleset = load_rules(io.BytesIO(PAPER_LINES[0].encode("utf-8")))
    assert len(ruleset) == 1


def test_load_rejects_non_utf8_with_its_line(tmp_path):
    data = (PAPER_LINES[0] + "\n" + PAPER_LINES[1] + "\n").encode("utf-8")
    data += b"caf\xe9\tforward\ttrigger\tnegated\t5\n"
    path = tmp_path / "rules.tsv"
    path.write_bytes(data)
    for source in (path, io.BytesIO(data)):
        with pytest.raises(MalformedRule) as err:
            load_rules(source)
        assert err.value.line_no == 3 and "not UTF-8" in str(err.value)


def test_load_ignores_a_leading_byte_order_mark(tmp_path):
    text = "\n".join(PAPER_LINES) + "\n"
    path = tmp_path / "rules.tsv"
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    plain = load_rules(io.StringIO(text))
    for source in (path, io.BytesIO(path.read_bytes()), io.StringIO("\ufeff" + text)):
        assert load_rules(source) == plain


def test_load_ignores_a_byte_order_mark_before_a_comment():
    text = "\ufeff# negation cues\n" + PAPER_LINES[0] + "\n"
    for source in (io.BytesIO(text.encode("utf-8")), io.StringIO(text)):
        assert [rule.phrase for rule in load_rules(source)] == [("can", "rule", "out")]


def test_load_after_a_byte_order_mark_names_the_line_of_a_bad_byte():
    data = b"\xef\xbb\xbf" + PAPER_LINES[0].encode("utf-8") + b"\n\xff\n"
    with pytest.raises(MalformedRule) as err:
        load_rules(io.BytesIO(data))
    assert err.value.line_no == 2 and "not UTF-8" in str(err.value)


def test_serialize_paper_lines_bit_exact_modulo_both():
    ruleset = load_rules(io.StringIO("\n".join(PAPER_LINES) + "\n"))
    lines = serialize_rules(ruleset).splitlines()
    assert lines[0] == PAPER_LINES[0]
    assert lines[1] == PAPER_LINES[1]
    assert lines[2] == PAPER_LINES[2].replace("both", "bidirectional")


def test_serialize_empty_is_empty_text():
    assert serialize_rules(RuleSet(rules=())) == ""


def test_round_trip_synthetic_849():
    ruleset = generate_rules(7, 849)
    reloaded = load_rules(io.StringIO(serialize_rules(ruleset)))
    assert reloaded.rules == ruleset.rules


def test_case_insensitive_loading(starter_rules_path):
    text = starter_rules_path.read_text(encoding="utf-8")
    lower = load_rules(io.StringIO(text))
    upper = load_rules(io.StringIO(text.upper()))
    assert lower.rules == upper.rules


def test_from_rules_renumbers_dense_ids():
    rules = [
        ContextRule(9, ("a",), Direction.FORWARD, CueType.TRIGGER, RuleValue.NEGATED, 3),
        ContextRule(4, ("b",), Direction.BACKWARD, CueType.PSEUDO, RuleValue.POSSIBLE, 2),
    ]
    ruleset = RuleSet.from_rules(rules)
    assert [r.id for r in ruleset] == [0, 1]


def test_phrase_tokens_with_any_whitespace_are_rejected():
    whitespace = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    assert {" ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"} <= set(whitespace)
    for token in ["", *whitespace, *(f"a{c}b" for c in whitespace)]:
        with pytest.raises(ValueError, match="^bad phrase token"):
            ContextRule(0, ("ok", token), Direction.FORWARD, CueType.TRIGGER, RuleValue.NEGATED, 3)
    # in a rule line, a space separates tokens (two make an empty one) and
    # a tab separates columns
    inside = [f"{before}a{c}b" for c in whitespace if c not in " \t" for before in ("", "ok ")]
    for phrase in ["ok  ab", *inside]:
        with pytest.raises(MalformedRule) as err:
            parse_rule_line(f"{phrase}\tforward\ttrigger\tnegated\t3", line_no=4)
        assert (err.value.line_no, err.value.column) == (4, 1), repr(phrase)


def test_context_rule_validates_phrase():
    with pytest.raises(ValueError):
        ContextRule(0, (), Direction.FORWARD, CueType.TRIGGER, RuleValue.NEGATED, 3)
    with pytest.raises(ValueError):
        ContextRule(0, ("two words",), Direction.FORWARD, CueType.TRIGGER, RuleValue.NEGATED, 3)
    with pytest.raises(ValueError):
        ContextRule(0, ("Upper",), Direction.FORWARD, CueType.TRIGGER, RuleValue.NEGATED, 3)
    with pytest.raises(ValueError):
        ContextRule(0, ("ok",), Direction.FORWARD, CueType.TRIGGER, RuleValue.NEGATED, -1)


_token = st.sampled_from(["no", "rule", "out", "pain", "x1", WILDCARD])
_rule = st.builds(
    ContextRule,
    id=st.just(0),
    phrase=st.lists(_token, min_size=1, max_size=4).map(tuple),
    direction=st.sampled_from(Direction),
    cue_type=st.sampled_from(CueType),
    value=st.sampled_from(RuleValue),
    window=st.integers(min_value=0, max_value=99),
)


@st.composite
def rule_sets(draw, max_size=12):
    rules, seen = [], set()
    for rule in draw(st.lists(_rule, max_size=max_size)):
        if rule.key() not in seen:
            seen.add(rule.key())
            rules.append(rule)
    return RuleSet.from_rules(rules)


@given(rule_sets())
def test_serialize_load_is_fixed_point(ruleset):
    text = serialize_rules(ruleset)
    reloaded = load_rules(io.StringIO(text))
    assert reloaded.rules == ruleset.rules
    assert serialize_rules(reloaded) == text


def test_every_enum_hashes_its_members_in_c():
    # ``Enum.__hash__`` hashes the member's name in Python code; the writer,
    # the engine and load_rules hash members for every record or rule
    enums = [obj for obj in vars(rules_mod).values()
             if isinstance(obj, type) and issubclass(obj, enum.Enum) and len(obj)]
    assert len(enums) == 7
    for cls in enums:
        assert cls.__hash__ is object.__hash__, cls.__name__
