"""Cue occurrence matching.

Two interchangeable matchers produce identical output:

* :func:`find_matches_trie` walks a nested-map index of all rule phrases,
  so one pass over the sentence matches every rule at once.  Its cost per
  start position is bounded by the longest phrase, not by the rule count.
  When no phrase begins with a wildcard, a sentence with no root-key
  token costs one set test, against the root's keys frozen at build time;
  in any other sentence, a start whose token is not a root key costs one
  dict lookup.  From a hit the walk follows the literal chain in a plain
  loop; a node with a wildcard edge adds that branch to a pending list,
  created only then, and the branches are walked the same way once the
  chain ends.  The winner is the deepest node's ``terminal_rules`` list
  itself, kept sorted by ``build_trie``; ids are copied and sorted only
  when two branches end at the same depth, which needs a wildcard branch.
  Each trie keeps a one-entry memo of the last sentence it walked, which
  :func:`cuescope.engine.annotate` describes; a sentence with no
  root-key word neither reads nor writes it.
* :func:`find_matches_naive` scans rule by rule, the way loop-based
  engines do.  It is the reference oracle; its runtime grows linearly
  with the rule count, which is exactly what the benchmark measures.

Both return, for each start position, the longest match beginning there.
When several rules match with the identical longest span they are all
kept (they may target different dimensions).  Tokens match in any case:
both matchers fold case, and build a new list only when they must.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .rules import WILDCARD, RuleSet, _Frozen


class CueMatch(NamedTuple):
    """One rule occurrence: rule id plus half-open token span [start, end).

    A tuple, so that building one per match is cheap: it is immutable and
    hashable, compares equal to the plain tuple ``(rule_id, start, end)``,
    and is ordered as that tuple is.
    """

    rule_id: int
    start: int
    end: int


#: Builds a tuple subclass without the Python-level ``__new__`` of a
#: NamedTuple, which costs more than the tuple itself in the hot loops.
_new = tuple.__new__


class TrieNode:
    __slots__ = ("children", "wildcard_child", "terminal_rules")

    def __init__(self) -> None:
        self.children: dict[str, TrieNode] = {}
        self.wildcard_child: TrieNode | None = None
        self.terminal_rules: list[int] = []


class RuleTrie(_Frozen):
    """The phrase index of ``ruleset``, which it keeps so that callers can
    check a trie is used with the rules it indexes.

    ``_first_words`` holds the words a phrase can start with, or None when
    a phrase starts with a wildcard, so any word can.

    ``_memo`` is a one-element list, the one part of a trie that changes:
    the memo :func:`cuescope.engine.annotate` describes.  A pickled or
    copied trie starts with an empty one.
    """

    __slots__ = ("root", "ruleset", "_first_words", "_memo")

    def __init__(self, root: TrieNode, ruleset: RuleSet) -> None:
        first_words = None if root.wildcard_child is not None else frozenset(root.children)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "ruleset", ruleset)
        object.__setattr__(self, "_first_words", first_words)
        object.__setattr__(self, "_memo", [None])

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild it from its rule set, as the slots state
        # cannot be assigned; pickled with that rule set, it keeps it
        return (build_trie, (self.ruleset,))


def build_trie(ruleset: RuleSet) -> RuleTrie:
    """Index every rule phrase word by word; wildcards get their own edge.

    A rule set lists its rules by ascending id, so every node's
    ``terminal_rules`` is sorted, as :func:`find_matches_trie` relies on.
    """
    root = TrieNode()
    for rule in ruleset:
        node = root
        for token in rule.phrase:
            if token == WILDCARD:
                if node.wildcard_child is None:
                    node.wildcard_child = TrieNode()
                node = node.wildcard_child
            else:
                child = node.children.get(token)
                if child is None:
                    child = TrieNode()
                    node.children[token] = child
                node = child
        node.terminal_rules.append(rule.id)
    return RuleTrie(root=root, ruleset=ruleset)


def find_matches_trie(trie: RuleTrie, tokens: Sequence[str]) -> list[CueMatch]:
    """All longest-at-start cue matches, sorted by (start, rule_id).

    A sentence equal to the last one walked gets a new list of the stored
    matches.  Any other sentence with a root-key word is walked: from each
    start position the walk follows the literal edges of the sentence
    and, in turn, the wildcard edge of every node it reaches (both may
    continue), keeping the deepest terminal hits.
    """
    joined = "".join(tokens)
    given = tokens
    if joined != joined.lower():  # a new list only when case must fold
        tokens = [token.lower() for token in tokens]
    first_words = trie._first_words
    if first_words is not None and first_words.isdisjoint(tokens):
        return []  # no token can start a cue
    memo = trie._memo
    last = memo[0]
    if last is not None and last[0] == given:
        return list(last[1])
    matches: list[CueMatch] = []
    append = matches.append
    root = trie.root
    root_children = root.children
    root_wild = root.wildcard_child
    n = len(tokens)
    for start in range(n):
        node = root_children.get(tokens[start])
        if node is None and root_wild is None:
            continue
        pos = start + 1
        # wildcard branches still to walk, as (node, position after it)
        pending = None if root_wild is None else [(root_wild, pos)]
        best_end = 0
        best: list[int] = []
        while True:
            while node is not None:
                rules = node.terminal_rules
                if rules:
                    if pos > best_end:
                        best_end, best = pos, rules
                    elif pos == best_end:  # another branch, same length
                        best = sorted(best + rules)
                if pos == n:
                    break
                wild = node.wildcard_child
                if wild is not None:
                    if pending is None:
                        pending = [(wild, pos + 1)]
                    else:
                        pending.append((wild, pos + 1))
                node = node.children.get(tokens[pos])
                pos += 1
            if not pending:
                break
            node, pos = pending.pop()
        for rule_id in best:
            append(_new(CueMatch, (rule_id, start, best_end)))
    # one store of a new tuple, so a thread never reads half an entry
    memo[0] = (given[:], tuple(matches))
    return matches


def find_matches_naive(ruleset: RuleSet, tokens: Sequence[str]) -> list[CueMatch]:
    """Reference matcher: try every rule at every start, then keep the
    longest match per start position.  Output is identical to
    :func:`find_matches_trie` on all inputs.
    """
    joined = "".join(tokens)
    if joined != joined.lower():  # a new list only when case must fold
        tokens = [token.lower() for token in tokens]
    n = len(tokens)
    raw: list[tuple[int, int, int]] = []
    longest: dict[int, int] = {}
    for rule in ruleset:
        phrase = rule.phrase
        plen = len(phrase)
        if plen > n:
            continue
        first = phrase[0]
        check_first = first != WILDCARD
        for start in range(n - plen + 1):
            if check_first and tokens[start] != first:
                continue
            for k in range(1, plen):
                word = phrase[k]
                if word != WILDCARD and tokens[start + k] != word:
                    break
            else:
                raw.append((start, start + plen, rule.id))
                if plen > longest.get(start, 0):
                    longest[start] = plen
    kept = [
        CueMatch(rule_id, start, end)
        for start, end, rule_id in raw
        if end - start == longest[start]
    ]
    kept.sort(key=lambda m: (m.start, m.rule_id))
    return kept
