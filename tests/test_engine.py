import copy
import io
import pickle
import random
import re
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from cuescope import engine
from cuescope.corpus import GeneratorConfig, generate_corpus, generate_rules
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


def test_pseudo_suppression_does_not_depend_on_sentence_len():
    # the pseudo [2, 5) covers the trigger [3, 4) whatever length it is
    # resolved with, a length below the pseudo's end included
    rs = RuleSet.from_rules([
        rule("c d e", Direction.FORWARD, CueType.PSEUDO, RuleValue.NEGATED, 30, 0),
        rule("d", Direction.BACKWARD, CueType.TRIGGER, RuleValue.NEGATED, 30, 1),
    ])
    matches = find_matches_naive(rs, ["a", "b", "c", "d", "e"])
    assert [(m.start, m.end) for m in matches] == [(2, 5), (3, 4)]
    for n in (3, 4, 5, 8):
        assert resolve_scopes(matches, rs, n) == []
        assert resolve_scopes(matches, RuleSet(rs.rules), n, ConceptSpan(0, 1)) == []
        scopes = resolve_scopes(matches[1:], rs, n)
        assert [(s.start, s.end) for s in scopes] == [(0, 3)]


def test_a_length_past_the_tokens_bounds_scopes_but_not_suppression():
    # the pseudo suppresses the termination of its span, so the forward scope
    # runs to the length it is resolved with
    rs = RuleSet.from_rules([
        rule("a", Direction.FORWARD, CueType.TRIGGER, RuleValue.NEGATED, 5, 0),
        rule("c", Direction.FORWARD, CueType.TERMINATION, RuleValue.NEGATED, 30, 1),
        rule("c", Direction.FORWARD, CueType.PSEUDO, RuleValue.NEGATED, 30, 2),
    ])
    matches = find_matches_naive(rs, ["a", "b", "c"])
    for n, end in ((3, 3), (5, 5), (6, 6), (9, 6)):
        scopes = resolve_scopes(matches, rs, n)
        assert [(s.start, s.end) for s in scopes] == [(1, end)]
        for _ in range(3):  # resolution is pure: equal calls give equal results
            assert resolve_scopes(matches, rs, n, ConceptSpan(end - 1, end)) == scopes


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


def test_evidence_lists_its_dimensions_in_cue_order():
    rs = RuleSet.from_rules([
        rule("history", Direction.FORWARD, CueType.TRIGGER, RuleValue.HISTORICAL, 30, 0),
        rule("no", Direction.FORWARD, CueType.TRIGGER, RuleValue.NEGATED, 30, 1),
    ])
    tokens = ["history", "no", "mi"]
    for result in (annotate(tokens, ConceptSpan(2, 3), rs),
                   next(annotate_records([(tokens, ConceptSpan(2, 3))], rs))):
        assert list(result.evidence) == [Dimension.TEMPORALITY, Dimension.NEGATION]


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
        (rs, ("rules", "table")), (trie, ("root", "ruleset", "_memo")),
        (rs[0], ContextRule._fields),
        (hit, ContextAnnotation._fields), (ContextAnnotation(), ContextAnnotation._fields),
    ):
        for name in (*names, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert (rs.table, trie.ruleset) == (RuleSet.from_rules([trigger("no")]).table, rs)


def test_rule_sets_and_tries_pickle_and_copy():
    rules = generate_rules(7, 300)
    trie = build_trie(rules)
    records = [(r.tokens, r.concept) for r in generate_corpus(GeneratorConfig(3, 200, 0.8), rules)]
    expected = list(annotate_records(records, rules, trie))
    # two calls on one sentence fill the trie's entry
    cued = next(tokens for tokens, _ in records if find_matches_naive(rules, tokens))
    for concept in (ConceptSpan(0, 1), ConceptSpan(len(cued) - 1, len(cued))):
        annotate(cued, concept, rules, trie)
    entry = trie._memo[0]
    assert entry[0] == cued and len(entry) == 3 and entry[2] is not None
    clones = [pickle.loads(pickle.dumps((rules, trie))), copy.deepcopy((rules, trie))]
    for clone in (copy.copy(trie), *(clone_trie for _, clone_trie in clones)):
        assert clone._memo == [None] and clone._memo is not trie._memo
    for clone_rules, clone_trie in clones:
        assert clone_trie.ruleset is clone_rules
        assert clone_rules == rules and clone_rules is not rules
        assert list(annotate_records(records, clone_rules, clone_trie)) == expected
    assert copy.copy(rules) == rules and copy.deepcopy(rules) == rules
    assert copy.copy(trie).ruleset is rules and copy.deepcopy(trie).ruleset == rules
    for clone in (copy.copy(rules), clones[0][0], copy.copy(trie), clones[0][1]):
        with pytest.raises(AttributeError):  # still immutable
            setattr(clone, "rules" if type(clone) is RuleSet else "ruleset", None)


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
        for c in concepts:
            assert annotate(mixed, c, ruleset, trie) == annotate(tokens, c, ruleset, trie)
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


# --- resolve_scopes directed at one concept ---

def _reaches(scope, concept):
    """Whether ``scope`` can modify ``concept``: it intersects the concept,
    and its cue does not overlap it."""
    (c_start, c_end), cue = concept, scope.cue
    return scope.start < c_end and c_start < scope.end and not (cue.start < c_end and c_start < cue.end)


def _trigger_reaches(scope, concept, ruleset, n):
    """Whether the trigger that cast ``scope`` can reach ``concept``: its cue
    lies outside the concept, and its window on a side it acts on, before
    truncation, intersects the concept."""
    (c_start, c_end), cue = concept, scope.cue
    if cue.start < c_end and c_start < cue.end:
        return False
    rule = ruleset.rules[cue.rule_id]
    windows = []
    if rule.direction is not Direction.BACKWARD:
        windows.append((cue.end, min(cue.end + rule.window, n)))
    if rule.direction is not Direction.FORWARD:
        windows.append((max(cue.start - rule.window, 0), cue.start))
    return any(start < c_end and c_start < end for start, end in windows)


# dense in pseudos and terminations, short phrases so that cues crowd a sentence
_dense_rule = st.builds(
    ContextRule,
    id=st.just(0),
    phrase=st.lists(st.sampled_from(_vocab), min_size=1, max_size=2).map(tuple),
    direction=st.sampled_from(Direction),
    cue_type=st.sampled_from([CueType.TRIGGER, CueType.TRIGGER, CueType.PSEUDO, CueType.TERMINATION,
                              CueType.TERMINATION]),
    value=st.sampled_from(RuleValue),
    window=st.integers(min_value=0, max_value=5),
)


def _rules(*rules):
    return RuleSet.from_rules([r._replace(id=i) for i, r in enumerate(rules)])


_ABCDE = ["a", "b", "c", "d", "e"]


@settings(max_examples=400, deadline=None)
@given(rule_sets(rules=_dense_rule, max_size=14), sentence_and_concept(max_len=14))
# a forward scope [1, 3) ending exactly at the concept's start, and one reaching its first token
@example(_rules(trigger("a", window=2)), (_ABCDE, ConceptSpan(3, 4)))
@example(_rules(trigger("a", window=2)), (_ABCDE, ConceptSpan(2, 3)))
# a backward scope [2, 4) starting exactly at the concept's end, and one reaching its last token
@example(_rules(trigger("e", Direction.BACKWARD, window=2)), (_ABCDE, ConceptSpan(1, 2)))
@example(_rules(trigger("e", Direction.BACKWARD, window=2)), (_ABCDE, ConceptSpan(1, 3)))
# a cue adjacent to the concept on either side, and one inside it
@example(_rules(trigger("b", Direction.BIDIRECTIONAL, window=1)), (_ABCDE, ConceptSpan(2, 3)))
@example(_rules(trigger("b", Direction.BIDIRECTIONAL, window=1)), (_ABCDE, ConceptSpan(0, 1)))
@example(_rules(trigger("b", window=5)), (_ABCDE, ConceptSpan(0, 3)))
# a bidirectional trigger whose scopes [0, 2) and [3, 5) reach the concept on one side only
@example(_rules(trigger("c", Direction.BIDIRECTIONAL, window=2)), (_ABCDE, ConceptSpan(4, 5)))
@example(_rules(trigger("c", Direction.BIDIRECTIONAL, window=2)), (_ABCDE, ConceptSpan(0, 1)))
# a termination cutting a reaching window short of the concept
@example(_rules(trigger("a", window=5),
                rule("c", Direction.FORWARD, CueType.TERMINATION, RuleValue.NEGATED, 30)),
         (_ABCDE, ConceptSpan(3, 4)))
def test_directed_resolution_keeps_the_scopes_of_the_triggers_that_reach_the_concept(ruleset, sc):
    tokens, concept = sc
    n = len(tokens)
    matches = find_matches_naive(ruleset, tokens)
    full = resolve_scopes(matches, ruleset, n)
    directed = resolve_scopes(matches, ruleset, n, concept)
    # every scope assignment can pick survives, and the kept scopes are
    # exactly those of the triggers that can reach the concept
    assert [s for s in directed if _reaches(s, concept)] == [s for s in full if _reaches(s, concept)]
    assert directed == [s for s in full if _trigger_reaches(s, concept, ruleset, n)]
    assert resolve_scopes(matches, ruleset, n, tuple(concept)) == directed
    # through one trie the concept is resolved directed, then in full, then
    # picked from the store: each call assigns from those same scopes
    assigned = []
    assign = engine._assign

    def spy(scopes, table, c):
        assigned.append(list(scopes))
        return assign(scopes, table, c)

    trie, want = build_trie(ruleset), annotate(tokens, concept, ruleset)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_assign", spy)
        assert [annotate(tokens, concept, ruleset, trie) for _ in range(3)] == [want] * 3
    assert assigned == ([directed] * 3 if directed else [])


# phrases of up to three words, so that a termination that starts earlier
# can end later than one inside it, and the backward stops arrive unsorted
_crowded_rule = st.builds(
    ContextRule,
    id=st.just(0),
    phrase=st.lists(st.sampled_from(_vocab), min_size=1, max_size=3).map(tuple),
    direction=st.sampled_from(Direction),
    cue_type=st.sampled_from([CueType.TRIGGER, CueType.TRIGGER, CueType.PSEUDO, CueType.TERMINATION,
                              CueType.TERMINATION]),
    value=st.sampled_from(RuleValue),
    window=st.integers(min_value=0, max_value=8),
)


def _term(phrase, direction=Direction.FORWARD):
    return rule(phrase, direction, CueType.TERMINATION, RuleValue.NEGATED, 30)


def _pseudo(phrase, value=RuleValue.NEGATED):
    return rule(phrase, Direction.FORWARD, CueType.PSEUDO, value, 30)


@settings(max_examples=200, deadline=None)
@given(rule_sets(rules=_crowded_rule, max_size=16), sentence_and_concepts(max_len=60))
# a forward stop at the scope's first token does not cut [1, 5); one a token inside cuts it to [1, 2)
@example(_rules(trigger("a", window=4), _term("b")), (_ABCDE, [ConceptSpan(3, 4)]))
@example(_rules(trigger("a", window=4), _term("c")), (_ABCDE, [ConceptSpan(3, 4)]))
# a backward stop at the scope's end does not cut [0, 4); one a token inside cuts it to [3, 4)
@example(_rules(trigger("e", Direction.BACKWARD, window=4), _term("d", Direction.BACKWARD)),
         (_ABCDE, [ConceptSpan(1, 2)]))
@example(_rules(trigger("e", Direction.BACKWARD, window=4), _term("c", Direction.BACKWARD)),
         (_ABCDE, [ConceptSpan(1, 2)]))
# backward stops arriving as ends 3 then 2: the nearest before the end is 3
@example(_rules(trigger("e", Direction.BACKWARD, window=4), _term("a b c", Direction.BACKWARD),
                _term("b", Direction.BACKWARD)),
         (_ABCDE, [ConceptSpan(2, 3)]))
# a pseudo ending where a trigger starts, and one starting where it ends: neither overlaps
@example(_rules(_pseudo("b"), trigger("c")), (_ABCDE, [ConceptSpan(3, 4)]))
@example(_rules(trigger("b"), _pseudo("c")), (_ABCDE, [ConceptSpan(3, 4)]))
# pseudos of two other dimensions on a trigger, and of its own and another one
@example(_rules(trigger("b"), _pseudo("b", RuleValue.NONPATIENT), _pseudo("b", RuleValue.HISTORICAL)),
         (_ABCDE, [ConceptSpan(3, 4)]))
@example(_rules(trigger("b"), _pseudo("b", RuleValue.NONPATIENT), _pseudo("b", RuleValue.POSSIBLE)),
         (_ABCDE, [ConceptSpan(3, 4)]))
def test_crowded_long_sentences_agree_with_reference_oracle(ruleset, sc):
    tokens, concepts = sc
    expected = [reference_annotate(ruleset, tokens, c.start, c.end) for c in concepts]
    for trie in (build_trie(ruleset), None):
        # one call a concept: the trie's entry is marked, filled, then picked from
        assert [reference_form(annotate(tokens, c, ruleset, trie)) for c in concepts] == expected
        results = annotate_records(((tokens, c) for c in concepts), ruleset, trie)
        assert list(map(reference_form, results)) == expected


def test_a_run_is_resolved_for_every_concept_not_only_its_first():
    rs = _rules(trigger("no", window=1))
    trie = build_trie(rs)
    tokens = ["no", "a", "b", "c"]
    # the first concept lies beyond the window; the second is in it
    records = [(tokens, ConceptSpan(3, 4)), (tokens, ConceptSpan(1, 2))]
    for t in (trie, None):
        results = list(annotate_records(records, rs, t))
        assert [r.negation for r in results] == [NegationStatus.AFFIRMED, NegationStatus.NEGATED]
        assert results == [annotate(tokens, c, rs, t) for _, c in records]


@pytest.mark.parametrize("with_trie", [True, False])
def test_a_plain_tuple_concept_acts_as_a_concept_span(starter_rules, with_trie):
    trie = build_trie(starter_rules) if with_trie else None
    cue_free, cued = (["chest", "pain"], (0, 2)), (["no", "chest", "pain"], (1, 2))
    for tokens, span in (cue_free, cued):
        expected = annotate(tokens, ConceptSpan(*span), starter_rules, trie)
        assert annotate(tokens, span, starter_rules, trie) == expected
        assert list(annotate_records([(tokens, span)], starter_rules, trie)) == [expected]
    assert annotate(*cued, starter_rules, trie).negation is NegationStatus.NEGATED
    tokens, span = ["no", "chest", "pain"], (2, 4)
    message = "concept [2, 4) outside token range of length 3"
    with pytest.raises(InvalidSpan, match=re.escape(message)):
        annotate(tokens, span, starter_rules, trie)
    (result,) = annotate_records([(tokens, span)], starter_rules, trie)
    assert isinstance(result, InvalidSpan) and str(result) == message


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


# --- a sentence with no cue word ---

def test_a_cue_free_sentence_is_neither_resolved_nor_assigned(
        starter_rules, starter_rules_path, tmp_path, monkeypatch, capsys):
    from cuescope.cli import main

    def fail(*args):
        raise AssertionError("a cue-free sentence reached scope resolution or assignment")

    monkeypatch.setattr(engine, "resolve_scopes", fail)
    monkeypatch.setattr(engine, "_assign", fail)
    tokens = ["Chest", "pain", "today"]
    records = [(tokens, ConceptSpan(0, 2)), (tokens, ConceptSpan(2, 3)), (["mi"], ConceptSpan(0, 1))]
    assert engine._NO_CUE == ContextAnnotation()
    for trie in (build_trie(starter_rules), None):
        assert annotate(tokens, ConceptSpan(1, 2), starter_rules, trie) is engine._NO_CUE
        results = list(annotate_records(records, starter_rules, trie))
        assert all(result is engine._NO_CUE for result in results) and len(results) == 3
    corpus = tmp_path / "free.jsonl"
    corpus.write_text('{"tokens":["Chest","pain","today"],"concept":[0,2]}\n', encoding="utf-8")
    assert main(["annotate", "--rules", str(starter_rules_path), "--input", str(corpus)]) == 0
    assert capsys.readouterr().out == (
        '{"tokens":["Chest","pain","today"],"concept":[0,2],"pred":{"negation":"affirmed",'
        '"experiencer":"patient","temporality":"recent","evidence":{}}}\n')


def test_a_cue_free_run_is_matched_once(starter_rules, monkeypatch):
    calls = []

    def counted(trie, tokens):
        calls.append(list(tokens))
        return find_matches_trie(trie, tokens)

    monkeypatch.setattr(engine, "find_matches_trie", counted)
    tokens = ["chest", "pain", "today"]
    records = [(list(tokens), ConceptSpan(i, i + 1)) for i in range(3)]
    results = list(annotate_records(records, starter_rules, build_trie(starter_rules)))
    assert results == [ContextAnnotation()] * 3
    assert calls == [tokens]


def test_the_engine_passes_the_callers_tokens_to_the_matcher(starter_rules, monkeypatch):
    # the matchers fold case, so the engine hands them the caller's own list
    seen = []

    def spy(matcher):
        def called(index, tokens):  # index: a trie or a rule set
            seen.append(tokens)
            return matcher(index, tokens)
        return called

    monkeypatch.setattr(engine, "find_matches_trie", spy(find_matches_trie))
    monkeypatch.setattr(engine, "find_matches_naive", spy(find_matches_naive))
    tokens = ["No", "MI"]
    for trie in (build_trie(starter_rules), None):
        seen.clear()
        assert annotate(tokens, ConceptSpan(1, 2), starter_rules, trie).negation is NegationStatus.NEGATED
        [result] = annotate_records([(tokens, ConceptSpan(1, 2))], starter_rules, trie)
        assert result.negation is NegationStatus.NEGATED
        assert len(seen) == 2 and all(passed is tokens for passed in seen)
    assert tokens == ["No", "MI"]


def test_only_the_trie_memoises_a_sentence(starter_rules):
    # the concepts of one sentence, one call each, through either matcher
    tokens = ["no", "fever", "or", "chills"]
    trie = build_trie(starter_rules)
    for matcher in (trie, None):
        fever = annotate(tokens, ConceptSpan(1, 2), starter_rules, matcher)
        chills = annotate(tokens, ConceptSpan(3, 4), starter_rules, matcher)
        assert fever.negation is chills.negation is NegationStatus.NEGATED
        assert fever.evidence[Dimension.NEGATION] == chills.evidence[Dimension.NEGATION]
    # the trie's memo returns the very matches of its walk; the naive
    # matcher builds new ones on every call
    walked, again = find_matches_trie(trie, tokens), find_matches_trie(trie, tokens)
    first, second = find_matches_naive(starter_rules, tokens), find_matches_naive(starter_rules, tokens)
    assert walked == again == first == second != []
    assert all(a is b for a, b in zip(walked, again))
    assert not any(a is b for a, b in zip(first, second))


# --- the memo of one sentence: the trie's entry, extended by annotate ---

_memo_call = st.tuples(
    st.integers(0, 2),  # sentence of the pool
    st.sampled_from(["trie", "trie", "records", "naive", "directed", "undirected"]),
    st.integers(0, 1),  # rule set, and its trie
    st.integers(0, 2),  # tokens added to the length resolve_scopes is given
    st.integers(0, 99),  # concept start, folded into the length
    st.integers(0, 99),  # concept length, folded into what is left
    st.booleans(),  # tokens passed in one list, refilled in place
    st.booleans(),  # a plain-tuple concept
    st.booleans(),  # the caller mutates a list resolve_scopes returned
)


def _call(index, kind, which=0, extra=0, start=0, size=0, refill=False, plain=False, mutate=False):
    return (index, kind, which, extra, start, size, refill, plain, mutate)


_ACC = ["a", "c", "c"]


@settings(max_examples=200, deadline=None)
# equal matches resolved at another length
@example(_rules(trigger("a", window=5)), _rules(trigger("a")), [_ACC],
         [_call(0, "directed", start=1), _call(0, "directed", extra=2, start=1),
          _call(0, "directed", start=1)])
# one token list refilled in place: the entry's key stays a copy of the tokens
@example(_rules(trigger("a", window=5)), _rules(trigger("a")), [_ACC, ["c", "a", "c"]],
         [_call(0, "trie", start=2, refill=True), _call(1, "trie", start=2, refill=True),
          _call(0, "trie", start=2, refill=True)])
# the fill stores the scopes of every trigger, not only of those that reach its concept
@example(_rules(trigger("a", window=1), trigger("c", window=1)), _rules(trigger("a")),
         [["a", "b", "c", "d"]],
         [_call(0, "trie", start=1), _call(0, "trie", start=3), _call(0, "trie", start=1)])
# two tries of different rule sets on equal tokens and equal matches: each keeps its own entry
@example(_rules(trigger("a", window=5)), _rules(trigger("a", Direction.BACKWARD, window=5)),
         [["c", "a", "c"]],
         [_call(0, "trie", 0, start=2), _call(0, "trie", 1, start=0), _call(0, "trie", 0, start=2),
          _call(0, "trie", 1, start=0), _call(0, "trie", 0, start=2)])
# the record loop and an undirected resolution after the entry is filled
@example(_rules(trigger("a", window=5)), _rules(trigger("a")), [_ACC],
         [_call(0, "trie", start=1), _call(0, "trie", start=2), _call(0, "records", start=2),
          _call(0, "undirected", mutate=True), _call(0, "trie", start=1)])
@given(
    rule_sets(rules=_dense_rule, max_size=8),
    rule_sets(rules=_dense_rule, max_size=8),
    st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "aa"]), min_size=1, max_size=8),
             min_size=1, max_size=3),
    st.lists(_memo_call, max_size=12),
)
def test_memoised_resolution_equals_an_empty_memo(ruleset, other_rules, pool, calls):
    rule_sets_ = (RuleSet(ruleset.rules), RuleSet(other_rules.rules))
    tries = tuple(map(build_trie, rule_sets_))
    buffer: list = []
    for index, kind, which, extra, start, size, refill, plain, mutate in calls:
        rs, tokens = rule_sets_[which], pool[index % len(pool)]
        if refill:
            buffer[:] = tokens
            tokens = buffer
        n = len(tokens) + (extra if kind in ("directed", "undirected") else 0)
        start %= n
        span = (start, start + 1 + size % (n - start))
        concept = span if plain else ConceptSpan(*span)
        if kind in ("trie", "records", "naive"):
            want = annotate(tokens, concept, rs, build_trie(rs))  # a new trie: an empty entry
            if kind == "records":
                assert list(annotate_records([(tokens, concept)], rs, tries[which])) == [want]
            else:
                assert annotate(tokens, concept, rs, tries[which] if kind == "trie" else None) == want
            continue
        # resolution is pure: it returns what a new rule set gives, and leaves the matches alone
        matches = find_matches_naive(rs, tokens)
        before = matches[:]
        directed = concept if kind == "directed" else None
        result = resolve_scopes(matches, rs, n, directed)
        assert result == resolve_scopes(matches, RuleSet(rs.rules), n, directed)
        assert matches == before
        if mutate:
            result.reverse()
            result.append(None)


def test_one_sentence_resolves_directed_then_in_full_then_not_again(monkeypatch):
    rs = _rules(trigger("no", window=5), trigger("denies", Direction.BACKWARD, window=5))
    trie = build_trie(rs)
    tokens, other = ["no", "fever", "or", "chills", "denies"], ["no", "cough"]
    concepts = [ConceptSpan(1, 2), ConceptSpan(3, 4), ConceptSpan(2, 3), ConceptSpan(1, 4)]
    expected = {c: annotate(tokens, c, rs) for c in concepts}
    calls = []

    def counted(matches, ruleset, n, concept=None):
        calls.append("full" if concept is None else "directed")
        return resolve_scopes(matches, ruleset, n, concept)

    monkeypatch.setattr(engine, "resolve_scopes", counted)

    def resolves(sentence, concept):
        """The resolve calls of one annotate call through the trie."""
        calls.clear()
        result = annotate(sentence, concept, rs, trie)
        if sentence is tokens:
            assert result == expected[concept]
        return calls[:]

    assert resolves(tokens, concepts[0]) == ["directed"]
    assert trie._memo[0][2:] == (None,)  # marked
    assert resolves(tokens, concepts[1]) == ["full"]
    filled = trie._memo[0]
    assert filled[2]
    assert resolves(tokens, concepts[2]) == [] and resolves(tokens, concepts[3]) == []
    # an invalid span and a cue-free sentence leave the entry as it was
    with pytest.raises(InvalidSpan):
        annotate(tokens, ConceptSpan(4, 6), rs, trie)
    assert resolves(["mild", "cough"], ConceptSpan(0, 1)) == []
    assert trie._memo[0] is filled and calls == []
    assert resolves(tokens, concepts[0]) == []
    # another sentence in between: the first one starts over
    assert resolves(other, ConceptSpan(1, 2)) == ["directed"]
    assert [resolves(tokens, c) for c in concepts] == [["directed"], ["full"], [], []]


@pytest.mark.parametrize("left", ["walked", "filled", "walked with no match"])
def test_an_entry_another_sentence_left_is_neither_used_nor_written(left, monkeypatch):
    # "denies any" makes "denies" a root key that matches nothing alone
    rs = _rules(trigger("no", window=5), trigger("denies any", Direction.BACKWARD))
    trie = build_trie(rs)
    # the other sentence's matches equal this one's, but its scope ends at 2
    tokens, concepts = ["no", "a", "b", "c"], [ConceptSpan(3, 4), ConceptSpan(2, 3), ConceptSpan(3, 4)]
    expected = [annotate(tokens, c, rs, build_trie(rs)) for c in concepts]
    assert all(result.negation is NegationStatus.NEGATED for result in expected)
    if left == "filled":
        for _ in range(2):
            annotate(["no", "a"], ConceptSpan(1, 2), rs, trie)
    else:
        sentence = ["no", "a"] if left == "walked" else ["denies", "a"]
        assert len(find_matches_trie(trie, sentence)) == (left == "walked")
    foreign = trie._memo[0]
    assert len(foreign) == (3 if left == "filled" else 2) and foreign[0] != tokens

    def replaced(t, sentence):
        # another thread's walk lands between this call's walk and its read of the entry
        matches = find_matches_trie(t, sentence)
        t._memo[0] = foreign
        return matches

    monkeypatch.setattr(engine, "find_matches_trie", replaced)
    for concept, want in zip(concepts, expected):
        assert annotate(tokens, concept, rs, trie) == want
        assert trie._memo[0] is foreign


def test_threads_sharing_a_rule_set_get_the_results_of_an_empty_memo():
    ruleset = generate_rules(7, 849)
    trie = build_trie(ruleset)
    words = sorted({word for rule in ruleset for word in rule.phrase if word != WILDCARD})
    rng = random.Random(3)
    sentences = [[rng.choice(words) for _ in range(20)] for _ in range(2)]
    concepts = [ConceptSpan(i, i + 1) for i in range(0, 20, 2)]
    expected = [[annotate(tokens, c, RuleSet(ruleset.rules)) for c in concepts] for tokens in sentences]
    assert expected[0] != expected[1] and all(len(set(map(repr, e))) > 1 for e in expected)
    wrong = []

    def work(offset):
        for i in range(300):
            k = (i + offset) % 2
            for concept, want in zip(concepts, expected[k]):
                if annotate(sentences[k], concept, ruleset, trie) != want:
                    wrong.append((k, concept))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, between a walk and its entry's read too
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
