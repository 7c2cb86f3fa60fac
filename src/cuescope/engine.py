"""Scope resolution and per-concept modifier assignment.

Matched cues are resolved into per-concept values in four steps:

1. Pseudo suppression: a trigger or termination match whose span overlaps
   a pseudo match of the same dimension is discarded.
2. Raw scopes: each surviving trigger casts a scope on the side(s) its
   direction points to, at most ``window`` tokens from the cue's edge and
   never past the sentence.  A bidirectional trigger casts one scope on
   each side.
3. Termination truncation: a same-dimension termination cuts every scope
   extending across it.  A forward-stopping termination T cuts forward
   scopes so they end at T's first token; a backward-stopping one cuts
   backward scopes so they start at T's last token; bidirectional
   terminations do both.  Terminations act across the whole sentence;
   their window column is ignored.
4. Assignment: per dimension, among scopes that intersect the concept and
   whose cue does not itself overlap the concept, the nearest cue wins
   (edge-to-edge token distance).  Distance ties prefer the value that
   preserves more information (possible over negated, hypothetical over
   historical), then the leftmost cue, then the lowest rule id.

Dimensions without a winning cue keep their defaults: affirmed, patient,
recent.

Steps 1-3 depend on the sentence only, step 4 on each concept.  So
:func:`annotate_sentence` matches and resolves a sentence once and assigns
all its concepts from the same scopes; :func:`annotate` is its
one-concept case, and :func:`annotate_records` hands each run of
consecutive records with equal tokens to one such call.  Scope resolution
reads each rule through ``RuleSet.table``, built once per rule set.  All
functions here are pure; tokens must be lowercased by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .matcher import CueMatch, RuleTrie, find_matches_naive, find_matches_trie
from .rules import (
    CueType,
    Dimension,
    Direction,
    ExperiencerStatus,
    NegationStatus,
    RuleEntry,
    RuleSet,
    TemporalityStatus,
)

DEFAULTS = {
    Dimension.NEGATION: NegationStatus.AFFIRMED,
    Dimension.EXPERIENCER: ExperiencerStatus.PATIENT,
    Dimension.TEMPORALITY: TemporalityStatus.RECENT,
}

#: Allowed annotation/gold values per dimension name, as plain strings.
DIMENSION_VALUES = {
    Dimension.NEGATION.value: {v.value for v in NegationStatus},
    Dimension.EXPERIENCER.value: {v.value for v in ExperiencerStatus},
    Dimension.TEMPORALITY.value: {v.value for v in TemporalityStatus},
}


class InvalidSpan(ValueError):
    """A concept span outside the sentence's token range."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        where = f"record {index}: " if index is not None else ""
        super().__init__(f"{where}{message}")


@dataclass(frozen=True, slots=True)
class ConceptSpan:
    """Half-open token interval [start, end) of a concept mention."""

    start: int
    end: int


@dataclass(frozen=True, slots=True)
class Scope:
    """Token interval a surviving trigger affects, after windowing and
    truncation.  ``extends`` records which side of the cue it lies on."""

    cue: CueMatch
    dimension: Dimension
    value: NegationStatus | ExperiencerStatus | TemporalityStatus
    start: int
    end: int
    extends: Direction  # FORWARD or BACKWARD only


@dataclass(frozen=True)
class ContextAnnotation:
    """Per-concept result: one value per dimension plus the cue that set it.

    ``evidence`` holds an entry for exactly the dimensions with a
    non-default value.
    """

    negation: NegationStatus = NegationStatus.AFFIRMED
    experiencer: ExperiencerStatus = ExperiencerStatus.PATIENT
    temporality: TemporalityStatus = TemporalityStatus.RECENT
    evidence: dict[Dimension, CueMatch] = field(default_factory=dict)

    def value(self, dimension: Dimension):
        if dimension is Dimension.NEGATION:
            return self.negation
        if dimension is Dimension.EXPERIENCER:
            return self.experiencer
        return self.temporality


_PSEUDO, _TRIGGER = CueType.PSEUDO, CueType.TRIGGER
_FORWARD, _BACKWARD = Direction.FORWARD, Direction.BACKWARD
_DEFAULT_VALUES = tuple(DEFAULTS[d] for d in Dimension)


def resolve_scopes(matches: Sequence[CueMatch], ruleset: RuleSet, sentence_len: int) -> list[Scope]:
    """Apply pseudo suppression, windowing and termination truncation.

    Returns the surviving non-empty scopes in match order (bidirectional
    triggers contribute up to two, forward first).
    """
    if not matches:
        return []
    table = ruleset.table
    rows = [(m, table[m.rule_id]) for m in matches]
    pseudos = [(m.start, m.end, e.dim_index) for m, e in rows if e.cue_type is _PSEUDO]
    triggers: list[tuple[CueMatch, RuleEntry]] = []
    # (token, dimension index) of the terminations that survive
    # suppression, by the side they stop; a bidirectional one stops both
    forward_stops: list[tuple[int, int]] = []
    backward_stops: list[tuple[int, int]] = []
    for m, e in rows:
        if e.cue_type is _PSEUDO:
            continue
        if pseudos and any(
            dim == e.dim_index and start < m.end and m.start < end for start, end, dim in pseudos
        ):
            continue
        if e.cue_type is _TRIGGER:
            triggers.append((m, e))
            continue
        if e.forward:
            forward_stops.append((m.start, e.dim_index))
        if e.backward:
            backward_stops.append((m.end, e.dim_index))

    scopes: list[Scope] = []
    for m, (_, dim, dimension, forward, backward, window, value, _) in triggers:
        if forward:
            start = m.end
            end = min(start + window, sentence_len)
            # a forward-stopping termination starting inside the scope cuts it
            for stop, stop_dim in forward_stops:
                if stop_dim == dim and start < stop < end:
                    end = stop
            if start < end:
                scopes.append(Scope(m, dimension, value, start, end, _FORWARD))
        if backward:
            end = m.start
            start = max(end - window, 0)
            for stop, stop_dim in backward_stops:
                if stop_dim == dim and start < stop < end:
                    start = stop
            if start < end:
                scopes.append(Scope(m, dimension, value, start, end, _BACKWARD))
    return scopes


def _cue_distance(cue: CueMatch, concept: ConceptSpan) -> int:
    """Token gap between the cue's nearest edge and the concept's."""
    if cue.end <= concept.start:
        return concept.start - cue.end
    return cue.start - concept.end


def _assign(scopes: list[Scope], table: tuple[RuleEntry, ...], concept: ConceptSpan) -> ContextAnnotation:
    """Per dimension, the nearest-cue scope intersecting ``concept``."""
    best: dict[int, tuple[tuple, Scope]] = {}
    c_start, c_end = concept.start, concept.end
    for scope in scopes:
        if scope.end <= c_start or c_end <= scope.start:
            continue
        cue = scope.cue
        if cue.start < c_end and c_start < cue.end:
            continue  # a cue never modifies a concept it is part of
        entry = table[cue.rule_id]
        key = (_cue_distance(cue, concept), entry.rank, cue.start, cue.rule_id)
        current = best.get(entry.dim_index)
        if current is None or key < current[0]:
            best[entry.dim_index] = (key, scope)
    if not best:
        return ContextAnnotation()
    values = list(_DEFAULT_VALUES)
    evidence: dict[Dimension, CueMatch] = {}
    for dim, (_, scope) in best.items():
        values[dim] = scope.value
        evidence[scope.dimension] = scope.cue
    return ContextAnnotation(values[0], values[1], values[2], evidence)


def _check_trie(trie: RuleTrie | None, ruleset: RuleSet) -> None:
    if trie is not None and trie.ruleset is not ruleset and trie.ruleset != ruleset:
        raise ValueError("the trie was built from a different rule set")


def annotate_sentence(
    tokens: Sequence[str],
    concepts: Sequence[ConceptSpan],
    ruleset: RuleSet,
    trie: RuleTrie | None = None,
) -> list[ContextAnnotation | InvalidSpan]:
    """Classify every concept mention of one sentence.

    The sentence is matched and its scopes resolved once, and only when
    at least one concept span is valid; each concept is then assigned
    from the same scopes.  Returns one result per concept, in order: its
    annotation, or an :class:`InvalidSpan` (not raised) when the concept
    lies outside the token range.  Matching runs through ``trie`` when
    given, else through the naive reference matcher; the result is
    identical either way.  Raises ``ValueError`` when ``trie`` was built
    from a different rule set.
    """
    _check_trie(trie, ruleset)
    n = len(tokens)
    valid = [0 <= c.start < c.end <= n for c in concepts]
    scopes: list[Scope] = []
    if any(valid):
        if trie is not None:
            matches = find_matches_trie(trie, tokens)
        else:
            matches = find_matches_naive(ruleset, tokens)
        scopes = resolve_scopes(matches, ruleset, n)
    table = ruleset.table
    return [
        _assign(scopes, table, concept) if ok else InvalidSpan(
            f"concept [{concept.start}, {concept.end}) outside token range of length {n}"
        )
        for concept, ok in zip(concepts, valid)
    ]


def annotate(
    tokens: Sequence[str],
    concept: ConceptSpan,
    ruleset: RuleSet,
    trie: RuleTrie | None = None,
) -> ContextAnnotation:
    """Classify one concept mention within one sentence.

    Same as :func:`annotate_sentence` with one concept, except that it
    raises the :class:`InvalidSpan` when the concept lies outside the
    token range.
    """
    (result,) = annotate_sentence(tokens, (concept,), ruleset, trie)
    if isinstance(result, InvalidSpan):
        raise result
    return result


def annotate_records(
    records: Iterable[tuple[Sequence[str], ConceptSpan]],
    ruleset: RuleSet,
    trie: RuleTrie | None = None,
) -> Iterator[ContextAnnotation | InvalidSpan]:
    """Yield the result of each ``(tokens, concept)`` record, in order.

    Each run of consecutive records with equal tokens goes to one
    :func:`annotate_sentence` call, so a sentence listed once per concept
    is matched and resolved once; equal sentences that are not adjacent
    are annotated separately.  Results are yielded as each run ends, and
    an invalid span is yielded as an untagged :class:`InvalidSpan`.
    """
    _check_trie(trie, ruleset)
    run_tokens: Sequence[str] | None = None
    concepts: list[ConceptSpan] = []
    for tokens, concept in records:
        if tokens != run_tokens:
            if concepts:
                yield from annotate_sentence(run_tokens, concepts, ruleset, trie)
            run_tokens, concepts = tokens, []
        concepts.append(concept)
    if concepts:
        yield from annotate_sentence(run_tokens, concepts, ruleset, trie)


def annotate_batch(
    records: Iterable[tuple[Sequence[str], ConceptSpan]],
    ruleset: RuleSet,
    trie: RuleTrie | None = None,
) -> list[ContextAnnotation | InvalidSpan]:
    """Annotate records in order: :func:`annotate_records` as a list.

    Element-wise identical to :func:`annotate`.  A record with an invalid
    concept span yields the :class:`InvalidSpan` (tagged with the record
    index) in its slot; processing continues.
    """
    return [
        InvalidSpan(str(result), index=index) if isinstance(result, InvalidSpan) else result
        for index, result in enumerate(annotate_records(records, ruleset, trie))
    ]
