import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from cuescope.corpus import generate_rules
from cuescope.matcher import (
    CueMatch,
    build_trie,
    find_matches_naive,
    find_matches_trie,
)
from cuescope.rules import WILDCARD, ContextRule, CueType, Direction, RuleSet, RuleValue


def make_rules(*phrases: str) -> RuleSet:
    rules = [
        ContextRule(i, tuple(p.split()), Direction.FORWARD, CueType.TRIGGER,
                    RuleValue.NEGATED, 5)
        for i, p in enumerate(phrases)
    ]
    return RuleSet.from_rules(rules)


def test_trie_structure_for_shared_prefix():
    trie = build_trie(make_rules("no", "no evidence of"))
    node = trie.root.children["no"]
    assert node.terminal_rules == [0]
    deeper = node.children["evidence"].children["of"]
    assert deeper.terminal_rules == [1]
    assert len(trie.ruleset) == 2


def test_trie_empty_ruleset():
    trie = build_trie(RuleSet(rules=()))
    assert trie.root.children == {}
    assert trie.root.wildcard_child is None
    assert len(trie.ruleset) == 0


def test_trie_self_lookup_synthetic_849():
    ruleset = generate_rules(7, 849)
    trie = build_trie(ruleset)
    for rule in ruleset:
        node = trie.root
        for token in rule.phrase:
            node = node.wildcard_child if token == WILDCARD else node.children[token]
        assert rule.id in node.terminal_rules


BOTH = [find_matches_naive, lambda rs, toks: find_matches_trie(build_trie(rs), toks)]


@pytest.mark.parametrize("match", BOTH)
def test_paper_phrase_matches_itself(match):
    rs = make_rules("can rule out")
    assert match(rs, ["we", "can", "rule", "out", "mi"]) == [CueMatch(0, 1, 4)]


@pytest.mark.parametrize("match", BOTH)
def test_longest_match_at_start_wins(match):
    rs = make_rules("rule", "rule out")
    assert match(rs, ["can", "rule", "out"]) == [CueMatch(1, 1, 3)]
    assert match(rs, ["can", "rule"]) == [CueMatch(0, 1, 2)]  # the last token starts it


@pytest.mark.parametrize("match", BOTH)
def test_wildcard_binds_one_token(match):
    rs = make_rules(f"denies {WILDCARD} pain")
    assert match(rs, ["denies", "chest", "pain"]) == [CueMatch(0, 0, 3)]
    assert match(rs, ["denies", "pain"]) == []
    leading = make_rules(f"{WILDCARD} y")  # no sentence word is a literal first word
    assert match(leading, ["q", "y"]) == [CueMatch(0, 0, 2)]


@pytest.mark.parametrize("match", BOTH)
def test_identical_span_rules_all_kept(match):
    rules = [
        ContextRule(0, ("no",), Direction.FORWARD, CueType.TRIGGER, RuleValue.NEGATED, 5),
        ContextRule(1, ("no",), Direction.FORWARD, CueType.TRIGGER, RuleValue.HISTORICAL, 5),
        ContextRule(2, (WILDCARD,), Direction.FORWARD, CueType.TRIGGER, RuleValue.POSSIBLE, 5),
    ]
    rs = RuleSet.from_rules(rules)
    assert match(rs, ["no"]) == [CueMatch(0, 0, 1), CueMatch(1, 0, 1), CueMatch(2, 0, 1)]


@pytest.mark.parametrize("match", BOTH)
def test_empty_tokens(match):
    assert match(make_rules("no"), []) == []


def test_many_non_matching_rules_is_empty():
    rules = [
        ContextRule(i, (f"zz{i}",), Direction.FORWARD, CueType.TRIGGER, RuleValue.NEGATED, 5)
        for i in range(1000)
    ]
    rs = RuleSet.from_rules(rules)
    assert find_matches_naive(rs, ["alone"]) == []
    assert find_matches_trie(build_trie(rs), ["alone"]) == []


def test_build_purity():
    rs = make_rules("no", "no evidence of", f"a {WILDCARD}")
    tokens = ["no", "evidence", "of", "a", "no"]
    first = find_matches_trie(build_trie(rs), tokens)
    second = find_matches_trie(build_trie(rs), tokens)
    assert first == second


# --- randomized equivalence: the repository's central property ---

_vocab = ["a", "b", "c", "aa", "ab", "x", WILDCARD]
_sentence_token = st.sampled_from(["a", "b", "c", "aa", "ab", "x", "y", WILDCARD])

_rule = st.builds(
    ContextRule,
    id=st.just(0),
    phrase=st.lists(st.sampled_from(_vocab), min_size=1, max_size=4).map(tuple),
    direction=st.sampled_from(Direction),
    cue_type=st.sampled_from(CueType),
    value=st.sampled_from(RuleValue),
    window=st.integers(min_value=0, max_value=6),
)


@st.composite
def rule_sets(draw, max_size=15):
    rules, seen = [], set()
    for rule in draw(st.lists(_rule, max_size=max_size)):
        if rule.key() not in seen:
            seen.add(rule.key())
            rules.append(rule)
    return RuleSet.from_rules(rules)


tokens_strategy = st.lists(_sentence_token, max_size=14)
# sentence words in any case, as a caller may pass them
_mixed_case_tokens = st.lists(
    st.one_of(_sentence_token, st.sampled_from(["A", "B", "Aa", "aB", "AB", "X", "Y"])),
    max_size=14,
)


@settings(max_examples=300, deadline=None)
# a wildcard edge two levels below a literal start
@example(make_rules("a b", f"a b {WILDCARD} d"), ["x", "a", "b", "c", "d"])
# a literal and a root-wildcard branch ending at the same length: [0, 1]
@example(make_rules(f"{WILDCARD} y", "x y"), ["x", "y"])
# a wildcard as the last phrase token, at and past the sentence's end
@example(make_rules("x", f"x {WILDCARD}"), ["y", "x", "z"])
@example(make_rules("x", f"x {WILDCARD}"), ["y", "x"])
# a root wildcard edge and no word a literal root key: the set test must not run
@example(make_rules(f"{WILDCARD} y"), ["q", "y"])
# the only root-key word is the sentence's last token
@example(make_rules("x"), ["a", "b", "x"])
# the only cue word is capitalised and first: the set test must see it folded
@example(make_rules("x"), ["X", "b"])
@given(rule_sets(), _mixed_case_tokens)
def test_trie_equals_naive(ruleset, tokens):
    given_tokens = list(tokens)
    trie = build_trie(ruleset)
    trie_out = find_matches_trie(trie, tokens)
    naive_out = find_matches_naive(ruleset, tokens)
    assert trie_out == naive_out
    # matching ignores case, and leaves the caller's list as it was
    assert trie_out == find_matches_trie(trie, [token.lower() for token in tokens])
    assert tokens == given_tokens


def test_trie_equals_naive_on_long_sentences_dense_with_cues():
    # 30-60 tokens over the benchmark's 849 rules, 4-10 phrases injected
    # (their wildcards bound to any word), the rest drawn from rule words
    ruleset = generate_rules(7, 849)
    trie = build_trie(ruleset)
    words = sorted({word for rule in ruleset for word in rule.phrase if word != WILDCARD})
    rng = random.Random(849)
    matched = 0
    for _ in range(300):
        tokens = [rng.choice(words) for _ in range(rng.randint(30, 60))]
        for _ in range(rng.randint(4, 10)):
            phrase = [rng.choice(words) if w == WILDCARD else w for w in rng.choice(ruleset.rules).phrase]
            at = rng.randint(0, len(tokens) - len(phrase))
            tokens[at:at + len(phrase)] = phrase
        trie_out = find_matches_trie(trie, tokens)
        assert trie_out == find_matches_naive(ruleset, tokens)
        matched += len(trie_out)
    assert matched > 300 * 4


def _phrase_matches_at(phrase, tokens, start):
    if start + len(phrase) > len(tokens):
        return False
    return all(
        word == WILDCARD or tokens[start + k] == word
        for k, word in enumerate(phrase)
    )


@settings(max_examples=200, deadline=None)
@given(rule_sets(), tokens_strategy)
def test_matches_are_complete_and_longest(ruleset, tokens):
    matches = find_matches_trie(build_trie(ruleset), tokens)
    for m in matches:
        rule = ruleset[m.rule_id]
        assert m.end - m.start == len(rule.phrase)
        assert 0 <= m.start < m.end <= len(tokens)
        assert _phrase_matches_at(rule.phrase, tokens, m.start)
        # no rule matches at m.start with a longer span
        for other in ruleset:
            if len(other.phrase) > len(rule.phrase):
                assert not _phrase_matches_at(other.phrase, tokens, m.start)
    # every position where some rule matches is represented
    for start in range(len(tokens)):
        if any(_phrase_matches_at(r.phrase, tokens, start) for r in ruleset):
            assert any(m.start == start for m in matches)


@settings(max_examples=200, deadline=None)
@given(rule_sets(), tokens_strategy)
def test_output_sorted_by_start_then_rule(ruleset, tokens):
    matches = find_matches_naive(ruleset, tokens)
    assert matches == sorted(matches, key=lambda m: (m.start, m.rule_id))


# --- the trie's memo of its last cue-bearing sentence ---

def test_a_cue_free_sentence_leaves_the_memo_alone():
    trie = build_trie(make_rules("no", "denies"))
    sentence = ["no", "fever", "denies", "pain"]
    first = find_matches_trie(trie, sentence)
    assert find_matches_trie(trie, ["mild", "fever"]) == []
    again = find_matches_trie(trie, list(sentence))
    # a hit: a new list of the very matches the walk built
    assert again == first == [CueMatch(0, 0, 1), CueMatch(1, 2, 3)]
    assert again is not first and all(a is b for a, b in zip(again, first))


_pool_token = st.sampled_from(["a", "b", "x", "y", "A", "X"])


@settings(max_examples=200, deadline=None)
# one list refilled in place with another sentence
@example(
    make_rules("a"), make_rules("b"), [["a"], ["a", "a"]],
    [(0, "refill", 0, False), (1, "refill", 0, False)],
)
# a result the caller mutates, then the same sentence again
@example(make_rules("a"), make_rules("b"), [["a", "b"]], [(0, "new", 0, True), (0, "new", 0, False)])
# the same sentence on two tries of different rules
@example(make_rules("a"), make_rules("a b"), [["a", "b"]], [(0, "new", 0, False), (0, "new", 1, False)])
@given(
    rule_sets(),
    rule_sets(),
    st.lists(st.lists(_pool_token, max_size=8), min_size=1, max_size=3),
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(["new", "refill", "tuple", "case"]),
            st.integers(0, 1),
            st.booleans(),
        ),
        max_size=12,
    ),
)
def test_memoised_calls_equal_naive(ruleset, other_rules, pool, calls):
    rules_of = (ruleset, other_rules)
    tries = (build_trie(ruleset), build_trie(other_rules))
    buffer: list[str] = []
    for index, kind, which, mutate in calls:
        sentence = pool[index % len(pool)]
        if kind == "refill":
            buffer[:] = sentence
            tokens = buffer
        elif kind == "tuple":
            tokens = tuple(sentence)
        elif kind == "case":
            tokens = [token.swapcase() for token in sentence]
        else:
            tokens = list(sentence)
        result = find_matches_trie(tries[which], tokens)
        assert result == find_matches_naive(rules_of[which], tokens)
        if mutate:
            result.reverse()
            result.append(CueMatch(0, 0, 1))


def test_threads_sharing_a_trie_get_the_naive_matches():
    ruleset = generate_rules(7, 849)
    trie = build_trie(ruleset)
    words = sorted({word for rule in ruleset for word in rule.phrase if word != WILDCARD})
    rng = random.Random(4)
    sentences = [[rng.choice(words) for _ in range(20)] for _ in range(2)]
    expected = [find_matches_naive(ruleset, tokens) for tokens in sentences]
    assert expected[0] and expected[1] and expected[0] != expected[1]
    wrong = []

    def work(offset):
        for i in range(2000):
            k = (i + offset) % 2
            if find_matches_trie(trie, sentences[k]) != expected[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the walk too
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
