"""cuescope: trie-indexed detection of negation, experiencer and
temporality modifiers of concept mentions in tokenized text."""

from .engine import (
    ConceptSpan,
    ContextAnnotation,
    ExperiencerStatus,
    InvalidSpan,
    NegationStatus,
    TemporalityStatus,
    annotate,
    annotate_batch,
    annotate_sentence,
    resolve_scopes,
)
from .matcher import CueMatch, RuleTrie, build_trie, find_matches_naive, find_matches_trie
from .rules import (
    WILDCARD,
    ContextRule,
    CueType,
    Dimension,
    Direction,
    DuplicateRule,
    MalformedRule,
    RuleSet,
    RuleValue,
    load_rules,
    parse_rule_line,
    serialize_rules,
)

__version__ = "0.1.0"

__all__ = [
    "ConceptSpan",
    "ContextAnnotation",
    "ContextRule",
    "CueMatch",
    "CueType",
    "Dimension",
    "Direction",
    "DuplicateRule",
    "ExperiencerStatus",
    "InvalidSpan",
    "MalformedRule",
    "NegationStatus",
    "RuleSet",
    "RuleTrie",
    "RuleValue",
    "TemporalityStatus",
    "WILDCARD",
    "annotate",
    "annotate_batch",
    "annotate_sentence",
    "build_trie",
    "find_matches_naive",
    "find_matches_trie",
    "load_rules",
    "parse_rule_line",
    "resolve_scopes",
    "serialize_rules",
    "__version__",
]
