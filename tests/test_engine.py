import copy
import io
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from cuescope import engine
from cuescope.corpus import generate_rules
from cuescope.engine import (
    ConceptSpan,
    ContextAnnotation,
    ExperiencerStatus,
    InvalidSpan,
    NegationStatus,
    TemporalityStatus,
    annotate,
    annotate_records,
    resolve_scopes,
)
from cuescope.matcher import build_trie, find_matches_naive, find_matches_trie
from cuescope.rules import (
    WILDCARD,
    ContextRule,
    CueType,
    Dimension,
    Direction,
    RuleSet,
    RuleValue,
    load_rules,
)

from reference import reference_annotate


def rule(phrase, direction, cue_type, value, window, rule_id=0):
    return ContextRule(rule_id, tuple(phrase.split()), direction, cue_type, value, window)


def trigger(phrase, direction=Direction.FORWARD, value=RuleValue.NEGATED, window=30):
    return rule(phrase, direction, CueType.TRIGGER, value, window)


DEFAULTS = (NegationStatus.AFFIRMED, ExperiencerStatus.PATIENT, TemporalityStatus.RECENT)


def values_of(annotation):
    return (annotation.negation, annotation.experiencer, annotation.temporality)


# --- resolve_scopes ---

def test_termination_truncates_forward_scope():
    rs = RuleSet.from_rules([
        trigger("no"),
        rule("although", Direction.FORWARD, CueType.TERMINATION, RuleValue.NEGATED, 30),
    ])
    tokens = ["no", "t1", "t2", "t3", "t4", "although", "t6", "t7", "t8", "t9"]
    scopes = resolve_scopes(find_matches_naive(rs, tokens), rs, 10)
    assert [(s.start, s.end) for s in scopes] == [(1, 5)]


def test_pseudo_suppresses_overlapping_trigger():
    rs = RuleSet.from_rules([
        rule("false negative", Direction.BIDIRECTIONAL, CueType.PSEUDO, RuleValue.NEGATED, 30),
        trigger("negative", Direction.BACKWARD),
    ])
    tokens = ["report", "was", "false", "negative"]
    scopes = resolve_scopes(find_matches_naive(rs, tokens), rs, len(tokens))
    assert scopes == []


def test_no_matches_no_scopes():
    rs = RuleSet.from_rules([trigger("no")])
    assert resolve_scopes([], rs, 8) == []


def test_pseudo_suppression_is_dimension_scoped():
    # a negation pseudo must not silence a temporality trigger
    rs = RuleSet.from_rules([
        rule("history of", Direction.FORWARD, CueType.PSEUDO, RuleValue.NEGATED, 30, 0),
        rule("history of", Direction.FORWARD, CueType.TRIGGER, RuleValue.HISTORICAL, 30, 1),
    ])
    tokens = ["history", "of", "mi"]
    scopes = resolve_scopes(find_matches_naive(rs, tokens), rs, 3)
    assert [(s.dimension, s.start, s.end) for s in scopes] == [(Dimension.TEMPORALITY, 2, 3)]


def test_termination_direction_selects_side():
    # backward-stopping termination leaves forward scopes alone
    rs = RuleSet.from_rules([
        trigger("no"),
        rule("stop", Direction.BACKWARD, CueType.TERMINATION, RuleValue.NEGATED, 30),
    ])
    tokens = ["no", "a", "stop", "b"]
    scopes = resolve_scopes(find_matches_naive(rs, tokens), rs, 4)
    assert [(s.start, s.end) for s in scopes] == [(1, 4)]


def test_scope_never_covers_its_own_cue_or_exits_sentence():
    rs = RuleSet.from_rules([
        trigger("no", Direction.BIDIRECTIONAL, window=50),
    ])
    tokens = ["a", "no", "b"]
    scopes = resolve_scopes(find_matches_naive(rs, tokens), rs, 3)
    assert {(s.start, s.end) for s in scopes} == {(0, 1), (2, 3)}


# --- annotate ---

def test_annotate_paper_negation_example():
    rs = load_rules(io.StringIO("no\tforward\ttrigger\tnegated\t30\n"))
    tokens = ["no", "atrial", "septal", "defect", "is", "found"]
    annotation = annotate(tokens, ConceptSpan(1, 4), rs, build_trie(rs))
    assert annotation.negation is NegationStatus.NEGATED
    assert annotation.experiencer is ExperiencerStatus.PATIENT
    assert annotation.temporality is TemporalityStatus.RECENT


def test_annotate_empty_rules_gives_defaults():
    rs = RuleSet(rules=())
    annotation = annotate(["any", "words"], ConceptSpan(0, 1), rs)
    assert values_of(annotation) == DEFAULTS
    assert annotation.evidence == {}


def test_annotate_can_rule_out_evidence_span():
    rs = RuleSet.from_rules([trigger("can rule out", window=10)])
    tokens = ["we", "can", "rule", "out", "pneumonia"]
    annotation = annotate(tokens, ConceptSpan(4, 5), rs)
    assert annotation.negation is NegationStatus.NEGATED
    cue = annotation.evidence[Dimension.NEGATION]
    assert (cue.start, cue.end) == (1, 4)


@pytest.mark.parametrize("span", [(-1, 2), (0, 9), (3, 3), (4, 2)])
def test_annotate_invalid_span(span):
    rs = RuleSet(rules=())
    with pytest.raises(InvalidSpan):
        annotate(["a", "b", "c"], ConceptSpan(*span), rs)


@pytest.mark.parametrize("window", [1, 3, 7])
def test_forward_window_boundary_exact(window):
    rs = RuleSet.from_rules([trigger("no", window=window)])
    tokens = ["no"] + [f"t{i}" for i in range(window + 2)]
    inside = 1 + window - 1   # cue ends at 1; last affected token
    assert annotate(tokens, ConceptSpan(inside, inside + 1), rs).negation is NegationStatus.NEGATED
    assert annotate(tokens, ConceptSpan(inside + 1, inside + 2), rs).negation is NegationStatus.AFFIRMED


@pytest.mark.parametrize("window", [1, 3, 7])
def test_backward_window_boundary_exact(window):
    rs = RuleSet.from_rules([trigger("absent", Direction.BACKWARD, window=window)])
    n = window + 3
    tokens = [f"t{i}" for i in range(n - 1)] + ["absent"]
    cue_start = n - 1
    inside = cue_start - window
    assert annotate(tokens, ConceptSpan(inside, inside + 1), rs).negation is NegationStatus.NEGATED
    assert annotate(tokens, ConceptSpan(inside - 1, inside), rs).negation is NegationStatus.AFFIRMED


def test_bidirectional_window_both_sides():
    rs = RuleSet.from_rules([trigger("unlikely", Direction.BIDIRECTIONAL, window=2)])
    tokens = ["a", "b", "c", "unlikely", "d", "e", "f"]
    negated = {i for i in range(7) if annotate(tokens, ConceptSpan(i, i + 1), rs).negation
               is NegationStatus.NEGATED}
    assert negated == {1, 2, 4, 5}


def test_cue_overlapping_concept_does_not_modify_it():
    rs = RuleSet.from_rules([trigger("no")])
    annotation = annotate(["no", "acute", "distress"], ConceptSpan(0, 3), rs)
    assert annotation.negation is NegationStatus.AFFIRMED


def test_nearest_cue_wins():
    rs = RuleSet.from_rules([
        trigger("no", window=30),
        rule("possible", Direction.FORWARD, CueType.TRIGGER, RuleValue.POSSIBLE, 30, 1),
    ])
    tokens = ["no", "fracture", "possible", "contusion"]
    assert annotate(tokens, ConceptSpan(3, 4), rs).negation is NegationStatus.POSSIBLE
    assert annotate(tokens, ConceptSpan(1, 2), rs).negation is NegationStatus.NEGATED


def test_distance_tie_prefers_possible_over_negated():
    rs = RuleSet.from_rules([
        trigger("no", window=30),
        rule("suspected", Direction.BACKWARD, CueType.TRIGGER, RuleValue.POSSIBLE, 30, 1),
    ])
    tokens = ["no", "mi", "suspected"]
    assert annotate(tokens, ConceptSpan(1, 2), rs).negation is NegationStatus.POSSIBLE


def test_distance_tie_prefers_hypothetical_over_historical():
    rs = RuleSet.from_rules([
        rule("previous", Direction.FORWARD, CueType.TRIGGER, RuleValue.HISTORICAL, 30, 0),
        rule("anticipated", Direction.BACKWARD, CueType.TRIGGER, RuleValue.HYPOTHETICAL, 30, 1),
    ])
    tokens = ["previous", "mi", "anticipated"]
    assert annotate(tokens, ConceptSpan(1, 2), rs).temporality is TemporalityStatus.HYPOTHETICAL


def test_evidence_present_iff_non_default():
    rs = RuleSet.from_rules([trigger("no")])
    hit = annotate(["no", "mi"], ConceptSpan(1, 2), rs)
    assert set(hit.evidence) == {Dimension.NEGATION}
    miss = annotate(["mi", "no"], ConceptSpan(0, 1), rs)
    assert miss.evidence == {}


def test_evidence_is_read_only():
    rs = RuleSet.from_rules([trigger("no")])
    hit = annotate(["no", "mi"], ConceptSpan(1, 2), rs)
    miss = annotate(["mi", "no"], ConceptSpan(0, 1), rs)
    for annotation in (hit, miss, ContextAnnotation()):
        with pytest.raises(TypeError):
            annotation.evidence[Dimension.NEGATION] = hit.evidence[Dimension.NEGATION]
    assert miss.evidence == {}
    assert annotate(["mi", "no"], ConceptSpan(0, 1), rs).evidence == {}


def test_results_without_a_cue_are_one_shared_object():
    rs = RuleSet.from_rules([trigger("no")])
    trie = build_trie(rs)
    misses = [
        annotate(["mi", "no"], ConceptSpan(0, 1), rs),
        annotate(["cva"], ConceptSpan(0, 1), rs, trie),
        *annotate_records([(["mi"], ConceptSpan(0, 1)), (["no", "mi", "no"], ConceptSpan(0, 1))], rs),
    ]
    assert all(miss is misses[0] for miss in misses)
    assert misses[0] == ContextAnnotation()
    assert annotate(["no", "mi"], ConceptSpan(1, 2), rs) is not misses[0]


def test_results_pickle_and_copy_with_read_only_evidence():
    rs = RuleSet.from_rules([trigger("no")])
    hit = annotate(["no", "mi"], ConceptSpan(1, 2), rs)
    miss = annotate(["mi", "no"], ConceptSpan(0, 1), rs)
    for annotation in (hit, miss):
        for clone in (pickle.loads(pickle.dumps(annotation)), copy.deepcopy(annotation), copy.copy(annotation)):
            assert clone == annotation
            with pytest.raises(TypeError):
                clone.evidence[Dimension.NEGATION] = hit.evidence[Dimension.NEGATION]


def test_rule_sets_tries_and_results_are_immutable():
    rs = RuleSet.from_rules([trigger("no")])
    trie = build_trie(rs)
    hit = annotate(["no", "mi"], ConceptSpan(1, 2), rs, trie)
    for obj, names in (
        (rs, ("rules", "table")), (trie, ("root", "ruleset")), (rs[0], ContextRule._fields),
        (hit, ContextAnnotation._fields), (ContextAnnotation(), ContextAnnotation._fields),
    ):
        for name in (*names, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert (rs.table, trie.ruleset) == (RuleSet.from_rules([trigger("no")]).table, rs)


def test_rule_sets_are_equal_when_their_rules_are():
    rs = RuleSet.from_rules([trigger("no")])
    same = RuleSet.from_rules([trigger("no")])
    assert rs == same and hash(rs) == hash(same) and rs is not same
    assert rs != RuleSet.from_rules([trigger("not")])
    assert rs != RuleSet.from_rules([trigger("no"), trigger("not")])
    assert rs != RuleSet(rules=())


def test_concept_span_is_a_tuple():
    span = ConceptSpan(1, 2)
    assert span == (1, 2) and (span.start, span.end) == (1, 2)
    assert hash(span) == hash((1, 2)) and {span: 0}[(1, 2)] == 0
    assert ConceptSpan(*[1, 2]) == span


# --- randomized agreement with the per-token reference oracle ---

_vocab = ["a", "b", "c", "d", "aa", WILDCARD]
_rule = st.builds(
    ContextRule,
    id=st.just(0),
    phrase=st.lists(st.sampled_from(_vocab), min_size=1, max_size=3).map(tuple),
    direction=st.sampled_from(Direction),
    cue_type=st.sampled_from(CueType),
    value=st.sampled_from(RuleValue),
    window=st.integers(min_value=0, max_value=5),
)


@st.composite
def rule_sets(draw, rules=_rule, max_size=10):
    out, seen = [], set()
    for r in draw(st.lists(rules, max_size=max_size)):
        if r.key() not in seen:
            seen.add(r.key())
            out.append(r)
    return RuleSet.from_rules(out)


@st.composite
def sentence_and_concept(draw, max_len=10):
    tokens = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "aa"]),
                           min_size=1, max_size=max_len))
    start = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
    end = draw(st.integers(min_value=start + 1, max_value=len(tokens)))
    return tokens, ConceptSpan(start, end)


@st.composite
def sentence_and_concepts(draw, max_len=10):
    tokens = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "aa"]),
                           min_size=1, max_size=max_len))
    n = len(tokens)
    span = st.tuples(st.integers(0, n - 1), st.integers(1, n)).filter(lambda s: s[0] < s[1])
    concepts = draw(st.lists(span.map(lambda s: ConceptSpan(*s)), min_size=1, max_size=6))
    return tokens, concepts


def reference_form(annotation) -> dict:
    """An annotation in the form :func:`reference_annotate` returns."""
    got = {}
    for dimension in Dimension:
        value = getattr(annotation, dimension.value)
        if dimension in annotation.evidence:
            cue = annotation.evidence[dimension]
            got[dimension.value] = (value.value, (cue.start, cue.end))
    return got


@settings(max_examples=300, deadline=None)
@given(rule_sets(), sentence_and_concept())
def test_engine_agrees_with_reference_oracle(ruleset, sc):
    tokens, concept = sc
    annotation = annotate(tokens, concept, ruleset)
    assert reference_form(annotation) == reference_annotate(ruleset, tokens, concept.start, concept.end)


@settings(max_examples=200, deadline=None)
@given(rule_sets(), sentence_and_concepts())
def test_sentence_agrees_with_reference_oracle_for_every_concept(ruleset, sc):
    tokens, concepts = sc
    results = list(annotate_records(((tokens, c) for c in concepts), ruleset, build_trie(ruleset)))
    assert len(results) == len(concepts)
    for annotation, concept in zip(results, concepts):
        assert reference_form(annotation) == \
            reference_annotate(ruleset, tokens, concept.start, concept.end)


@settings(max_examples=200, deadline=None)
@given(rule_sets(), sentence_and_concepts(), st.randoms(use_true_random=False))
def test_annotation_ignores_token_case(ruleset, sc, rng):
    tokens, concepts = sc
    mixed = ["".join(c.upper() if rng.random() < 0.5 else c for c in token) for token in tokens]
    given_tokens = list(mixed)
    for trie in (build_trie(ruleset), None):
        assert list(annotate_records(((mixed, c) for c in concepts), ruleset, trie)) == \
            list(annotate_records(((tokens, c) for c in concepts), ruleset, trie))
    assert mixed == given_tokens


@settings(max_examples=200, deadline=None)
@given(rule_sets(), sentence_and_concept())
def test_trie_and_naive_backends_agree(ruleset, sc):
    tokens, concept = sc
    assert annotate(tokens, concept, ruleset, build_trie(ruleset)) == \
        annotate(tokens, concept, ruleset, None)


@settings(max_examples=150, deadline=None)
@given(rule_sets(), sentence_and_concept(), st.randoms(use_true_random=False))
def test_rule_order_independence(ruleset, sc, rng):
    tokens, concept = sc
    before = annotate(tokens, concept, ruleset)
    shuffled = list(ruleset.rules)
    rng.shuffle(shuffled)
    after = annotate(tokens, concept, RuleSet.from_rules(shuffled))
    assert values_of(before) == values_of(after)
    spans_before = {d.value: (c.start, c.end) for d, c in before.evidence.items()}
    spans_after = {d.value: (c.start, c.end) for d, c in after.evidence.items()}
    assert spans_before == spans_after


_trigger_only = st.builds(
    ContextRule,
    id=st.just(0),
    phrase=st.lists(st.sampled_from(_vocab), min_size=1, max_size=3).map(tuple),
    direction=st.sampled_from(Direction),
    cue_type=st.just(CueType.TRIGGER),
    value=st.sampled_from(RuleValue),
    window=st.integers(min_value=0, max_value=5),
)


@settings(max_examples=150, deadline=None)
@given(rule_sets(rules=_trigger_only), st.lists(st.sampled_from(["a", "b", "c", "d"]),
                                                min_size=1, max_size=10),
       st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(Direction))
def test_adding_single_token_termination_never_enlarges_scopes(ruleset, tokens, term_word, direction):
    # single-token additions cannot displace existing matches via
    # longest-at-start, so truncation is the only effect
    def scope_map(rs):
        scopes = resolve_scopes(find_matches_naive(rs, tokens), rs, len(tokens))
        # a scope is forward exactly when it starts at or after its cue's end
        return {(s.cue, s.dimension, s.start >= s.cue.end): (s.start, s.end) for s in scopes}

    before = scope_map(ruleset)
    term = ContextRule(len(ruleset), (term_word,), direction,
                       CueType.TERMINATION, RuleValue.NEGATED, 30)
    extended = RuleSet.from_rules(list(ruleset.rules) + [term])
    after = scope_map(extended)
    for key, (start, end) in after.items():
        if key in before:
            b_start, b_end = before[key]
            assert b_start <= start and end <= b_end


@settings(max_examples=150, deadline=None)
@given(rule_sets(rules=_trigger_only), sentence_and_concept(),
       st.sampled_from(["a", "b", "c", "d"]))
def test_adding_pseudo_never_adds_non_default_without_terminations(ruleset, sc, pseudo_word):
    tokens, concept = sc
    before = annotate(tokens, concept, ruleset)
    pseudo = ContextRule(len(ruleset), (pseudo_word,), Direction.FORWARD,
                         CueType.PSEUDO, RuleValue.NEGATED, 30)
    after = annotate(tokens, concept, RuleSet.from_rules(list(ruleset.rules) + [pseudo]))
    for dimension in Dimension:
        if dimension not in before.evidence:
            assert dimension not in after.evidence


# --- annotate_records over a batch of records ---

def test_batch_matches_elementwise_annotate():
    rs = RuleSet.from_rules([trigger("no"), trigger("possible", value=RuleValue.POSSIBLE)])
    trie = build_trie(rs)
    records = [
        (["no", "mi"], ConceptSpan(1, 2)),
        (["possible", "mi"], ConceptSpan(1, 2)),
    ]
    results = list(annotate_records(records, rs, trie))
    assert results == [annotate(t, c, rs, trie) for t, c in records]


def test_batch_empty():
    assert list(annotate_records([], RuleSet(rules=()))) == []


def test_batch_reports_invalid_span_and_continues():
    rs = RuleSet.from_rules([trigger("no")])
    records = [
        (["no", "mi"], ConceptSpan(1, 2)),
        (["no", "mi"], ConceptSpan(5, 6)),
        (["no", "mi"], ConceptSpan(1, 2)),
    ]
    out = list(annotate_records(records, rs))
    assert out[0] == out[2]
    assert isinstance(out[1], InvalidSpan)
    assert str(out[1]) == "concept [5, 6) outside token range of length 2"


def test_batch_large_synthetic_equals_map():
    rng = random.Random(5)
    rs = RuleSet.from_rules([
        trigger("no"),
        trigger("suspected", Direction.BACKWARD, RuleValue.POSSIBLE, 4),
        trigger("father", value=RuleValue.NONPATIENT, window=6),
    ])
    trie = build_trie(rs)
    words = ["no", "suspected", "father", "w1", "w2", "w3"]
    records = []
    for _ in range(1000):
        tokens = [rng.choice(words) for _ in range(rng.randint(1, 12))]
        start = rng.randrange(len(tokens))
        end = rng.randint(start + 1, len(tokens))
        records.append((tokens, ConceptSpan(start, end)))
    assert list(annotate_records(records, rs, trie)) == [annotate(t, c, rs, trie) for t, c in records]


def outcomes(results):
    """Results with each InvalidSpan replaced by its message, since
    exceptions compare by identity."""
    return [("invalid", str(r)) if isinstance(r, InvalidSpan) else r for r in results]


def per_record(records, ruleset, trie):
    """What annotate_records must yield: annotate on each record alone."""
    out = []
    for tokens, concept in records:
        try:
            out.append(annotate(tokens, concept, ruleset, trie))
        except InvalidSpan as err:
            out.append(err)
    return outcomes(out)


def count_matcher_calls(monkeypatch) -> list:
    calls = []

    def counted(trie, tokens):
        calls.append(list(tokens))
        return find_matches_trie(trie, tokens)

    monkeypatch.setattr(engine, "find_matches_trie", counted)
    return calls


def test_batch_matches_each_run_once_and_equals_per_record(monkeypatch):
    rs = RuleSet.from_rules([
        trigger("no"),
        trigger("suspected", Direction.BACKWARD, RuleValue.POSSIBLE, 4),
        rule("but", Direction.FORWARD, CueType.TERMINATION, RuleValue.NEGATED, 0),
    ])
    trie = build_trie(rs)
    a = ["no", "mi", "but", "cva", "suspected"]
    calls = count_matcher_calls(monkeypatch)
    for seq in (list, tuple):  # token lists, and token tuples
        records = [
            (seq(a), ConceptSpan(7, 8)),  # invalid span first in a run
            (seq(a), ConceptSpan(1, 2)),
            (seq(a), ConceptSpan(4, 4)),  # invalid span in the middle of a run
            (seq(a), ConceptSpan(3, 4)),
            (seq(["father", "mi"]), ConceptSpan(1, 2)),  # a run of length 1
            (seq(a), ConceptSpan(0, 1)),  # equal to a sentence that is not adjacent
        ]
        expected = per_record(records, rs, trie)
        calls.clear()
        assert outcomes(annotate_records(records, rs, trie)) == expected
        assert calls == [a, ["father", "mi"], a]
        assert outcomes(annotate_records(records, rs)) == expected
    pair = [(a, ConceptSpan(1, 2)), (a, ConceptSpan(3, 4))]
    assert [r.negation for r in annotate_records(pair, rs)] == \
        [NegationStatus.NEGATED, NegationStatus.POSSIBLE]


def test_run_restarts_when_the_reader_refills_its_token_list():
    rs = RuleSet.from_rules([trigger("no")])
    buffer: list[str] = []

    def refilled():
        for tokens in (["no", "mi"], ["yes", "mi"]):
            buffer[:] = tokens
            yield buffer, ConceptSpan(1, 2)

    expected = [NegationStatus.NEGATED, NegationStatus.AFFIRMED]
    for trie in (build_trie(rs), None):
        assert [r.negation for r in annotate_records(refilled(), rs, trie)] == expected


def test_sentence_with_only_invalid_spans_is_not_matched(monkeypatch):
    rs = RuleSet.from_rules([trigger("no")])
    calls = count_matcher_calls(monkeypatch)
    tokens = ["no", "mi"]
    records = [(tokens, ConceptSpan(2, 3)), (list(tokens), ConceptSpan(1, 1))]
    results = list(annotate_records(records, rs, build_trie(rs)))
    assert calls == []
    assert [str(r) for r in results] == [
        "concept [2, 3) outside token range of length 2",
        "concept [1, 1) outside token range of length 2",
    ]


def test_each_result_is_yielded_before_the_next_record_is_read():
    rs = RuleSet.from_rules([trigger("no")])
    a = ["no", "mi", "cva"]
    records = [
        (a, ConceptSpan(1, 2)),
        (list(a), ConceptSpan(5, 6)),  # inside a run of equal tokens
        (list(a), ConceptSpan(2, 3)),
        (["mi"], ConceptSpan(0, 1)),
        (list(a), ConceptSpan(0, 1)),
    ]
    pulled = []

    def counted():
        for record in records:
            pulled.append(record)
            yield record

    for trie in (build_trie(rs), None):
        pulled.clear()
        for i, _ in enumerate(annotate_records(counted(), rs, trie)):
            assert len(pulled) == i + 1
        assert len(pulled) == len(records)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_results_before_a_failing_read_are_yielded(k):
    rs = RuleSet.from_rules([trigger("no")])
    a = ["no", "mi", "cva"]
    records = [(a, ConceptSpan(1, 2)), (list(a), ConceptSpan(2, 3)), (list(a), ConceptSpan(0, 4))]
    expected = per_record(records, rs, None)

    def failing():
        yield from records[:k]
        raise RuntimeError("unreadable record")

    got = []
    with pytest.raises(RuntimeError, match="unreadable record"):
        for result in annotate_records(failing(), rs):
            got.append(result)
    assert outcomes(got) == expected[:k]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batch_of_repeated_sentences_equals_per_record(seed):
    rng = random.Random(seed)
    rs = generate_rules(seed, 60)
    trie = build_trie(rs)
    words = [w for r in rs for w in r.phrase if w != WILDCARD] + ["w1", "w2", "w3"]
    sentences, records = [], []
    for _ in range(300):
        if sentences and rng.random() < 0.2:
            tokens = rng.choice(sentences)  # an earlier sentence again
        else:
            tokens = [rng.choice(words) for _ in range(rng.randint(1, 20))]
            sentences.append(tokens)
        for _ in range(rng.randint(1, 6)):
            start = rng.randint(-1, len(tokens))
            end = rng.randint(start, len(tokens) + 1)  # out of range now and then
            records.append((list(tokens), ConceptSpan(start, end)))
    assert sum(isinstance(r, InvalidSpan) for r in annotate_records(records, rs)) > 0
    expected = per_record(records, rs, trie)
    assert outcomes(annotate_records(records, rs, trie)) == expected
    assert outcomes(annotate_records(records, rs, None)) == expected


def test_trie_of_another_rule_set_is_rejected(starter_rules):
    foreign = build_trie(generate_rules(7, 849))
    tokens, concept = ["no", "evidence", "of", "mi"], ConceptSpan(3, 4)
    for call in (
        lambda: annotate(tokens, concept, starter_rules, foreign),
        lambda: list(annotate_records([(tokens, concept)], starter_rules, foreign)),
        lambda: list(annotate_records([], starter_rules, foreign)),
    ):
        with pytest.raises(ValueError, match="different rule set"):
            call()
    # an equal rule set built separately indexes the same rules
    copy = RuleSet.from_rules(starter_rules.rules)
    assert copy is not starter_rules
    assert annotate(tokens, concept, copy, build_trie(starter_rules)) == \
        annotate(tokens, concept, starter_rules)
