"""Cue occurrence matching.

Two interchangeable matchers produce identical output:

* :func:`find_matches_trie` walks a nested-map index of all rule phrases,
  so one pass over the sentence matches every rule at once.  Its cost per
  start position is bounded by the longest phrase, not by the rule count.
* :func:`find_matches_naive` scans rule by rule, the way loop-based
  engines do.  It is the reference oracle; its runtime grows linearly
  with the rule count, which is exactly what the benchmark measures.

Both return, for each start position, the longest match beginning there.
When several rules match with the identical longest span they are all
kept (they may target different dimensions).  Tokens must already be
lowercased by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .rules import WILDCARD, RuleSet


@dataclass(frozen=True, slots=True)
class CueMatch:
    """One rule occurrence: rule id plus half-open token span [start, end)."""

    rule_id: int
    start: int
    end: int


class TrieNode:
    __slots__ = ("children", "wildcard_child", "terminal_rules")

    def __init__(self) -> None:
        self.children: dict[str, TrieNode] = {}
        self.wildcard_child: TrieNode | None = None
        self.terminal_rules: list[int] = []


@dataclass(frozen=True, slots=True)
class RuleTrie:
    """The phrase index of ``ruleset``, which it keeps so that callers can
    check a trie is used with the rules it indexes."""

    root: TrieNode
    ruleset: RuleSet = field(repr=False)

    @property
    def rule_count(self) -> int:
        return len(self.ruleset)


def build_trie(ruleset: RuleSet) -> RuleTrie:
    """Index every rule phrase word by word; wildcards get their own edge."""
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

    From each start position the walk explores the literal edge and the
    wildcard edge of every reached node (both may continue), keeping the
    deepest terminal hits.
    """
    matches: list[CueMatch] = []
    root = trie.root
    root_children = root.children
    root_wild = root.wildcard_child
    n = len(tokens)
    for start in range(n):
        first = root_children.get(tokens[start])
        if first is None and root_wild is None:
            continue
        best_len = 0
        best_rules: list[int] = []
        stack: list[tuple[TrieNode, int]] = []
        if first is not None:
            stack.append((first, start + 1))
        if root_wild is not None:
            stack.append((root_wild, start + 1))
        while stack:
            node, pos = stack.pop()
            if node.terminal_rules:
                length = pos - start
                if length > best_len:
                    best_len = length
                    best_rules = list(node.terminal_rules)
                elif length == best_len:
                    best_rules.extend(node.terminal_rules)
            if pos < n:
                child = node.children.get(tokens[pos])
                if child is not None:
                    stack.append((child, pos + 1))
                if node.wildcard_child is not None:
                    stack.append((node.wildcard_child, pos + 1))
        if best_len:
            end = start + best_len
            for rule_id in sorted(best_rules):
                matches.append(CueMatch(rule_id, start, end))
    return matches


def find_matches_naive(ruleset: RuleSet, tokens: Sequence[str]) -> list[CueMatch]:
    """Reference matcher: try every rule at every start, then keep the
    longest match per start position.  Output is identical to
    :func:`find_matches_trie` on all inputs.
    """
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
