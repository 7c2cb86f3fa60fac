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
:func:`annotate_records` yields one result per record, before it reads the
next record, and matches and resolves each run of consecutive records with
equal tokens once: at the run's first valid concept, whose scopes every
later concept of the run is assigned from.  :func:`annotate` is the
one-record case.  Scope resolution reads each rule through
``RuleSet.table``, built once per rule set, once per match; it tests
pseudo overlaps and clamps windows with plain loops and comparisons, and
builds each :class:`Scope` as a tuple.  A concept no scope reaches gets
one shared, immutable :class:`ContextAnnotation`.  All functions here are
pure.
Tokens are lowercased for matching, so every entry point is
case-insensitive; :func:`resolve_scopes` reads only token counts.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .matcher import CueMatch, RuleTrie, _new, find_matches_naive, find_matches_trie
from .rules import (
    CueType,
    Dimension,
    ExperiencerStatus,
    NegationStatus,
    RuleEntry,
    RuleSet,
    TemporalityStatus,
)

class InvalidSpan(ValueError):
    """A concept span outside the sentence's token range."""


class ConceptSpan(NamedTuple):
    """Half-open token interval [start, end) of a concept mention.

    A tuple, as :class:`CueMatch` is: immutable and hashable, and equal to
    the plain tuple of its fields (``ConceptSpan(1, 2) == (1, 2)``).
    """

    start: int
    end: int


class Scope(NamedTuple):
    """Token interval a surviving trigger affects, after windowing and
    truncation.  It lies on its cue's forward side exactly when
    ``start >= cue.end``: a forward scope starts at the cue's end, and a
    backward one ends at the cue's start.

    A tuple, as :class:`CueMatch` is: immutable and hashable, equal to the
    plain tuple of its fields, and ordered as that tuple is.
    """

    cue: CueMatch
    dimension: Dimension
    value: NegationStatus | ExperiencerStatus | TemporalityStatus
    start: int
    end: int


class ContextAnnotation(NamedTuple):
    """Per-concept result: one value per dimension plus the cue that set it.

    ``evidence`` holds an entry for exactly the dimensions with a
    non-default value.  It is a read-only mapping in every result the
    engine returns, so that a result may be shared: every concept no scope
    reaches gets the same object, equal to ``ContextAnnotation()``.
    A ``NamedTuple``: immutable, and equal to the plain tuple of its
    fields.  Results pickle and copy (the copy gets a new read-only
    mapping), but ``hash`` fails on the mapping, and ``_asdict`` returns
    it as it is; read it with ``dict(evidence)``.
    """

    negation: NegationStatus = NegationStatus.AFFIRMED
    experiencer: ExperiencerStatus = ExperiencerStatus.PATIENT
    temporality: TemporalityStatus = TemporalityStatus.RECENT
    evidence: Mapping[Dimension, CueMatch] = MappingProxyType({})

    def __reduce__(self):
        # a mapping proxy cannot be pickled or copied, so rebuild it from a dict
        return _annotation, (self.negation, self.experiencer, self.temporality, dict(self.evidence))


def _annotation(negation, experiencer, temporality, evidence: dict) -> ContextAnnotation:
    """A result whose ``evidence`` is a read-only view of ``evidence``."""
    return _new(ContextAnnotation, (negation, experiencer, temporality, MappingProxyType(evidence)))


_PSEUDO, _TRIGGER = CueType.PSEUDO, CueType.TRIGGER
#: The value of each dimension, in ``Dimension`` order, that no cue set.
_DEFAULT_VALUES = (NegationStatus.AFFIRMED, ExperiencerStatus.PATIENT, TemporalityStatus.RECENT)
#: The result of every concept that no scope reaches.
_NO_CUE = ContextAnnotation()


def resolve_scopes(matches: Sequence[CueMatch], ruleset: RuleSet, sentence_len: int) -> list[Scope]:
    """Apply pseudo suppression, windowing and termination truncation.

    Returns the surviving non-empty scopes in match order (bidirectional
    triggers contribute up to two, forward first).
    """
    if not matches:
        return []
    table = ruleset.table
    entries = [table[rule_id] for rule_id, _, _ in matches]
    # (start, end, dimension index) of every pseudo match
    pseudos = [
        (m.start, m.end, e.dim_index) for m, e in zip(matches, entries) if e.cue_type is _PSEUDO
    ]
    triggers: list[tuple[CueMatch, RuleEntry]] = []
    # (token, dimension index) of the terminations that survive
    # suppression, by the side they stop; a bidirectional one stops both
    forward_stops: list[tuple[int, int]] = []
    backward_stops: list[tuple[int, int]] = []
    for m, e in zip(matches, entries):
        cue_type = e.cue_type
        if cue_type is _PSEUDO:
            continue
        if pseudos:
            dim, m_start, m_end = e.dim_index, m.start, m.end
            suppressed = False
            for p_start, p_end, p_dim in pseudos:
                if p_dim == dim and p_start < m_end and m_start < p_end:
                    suppressed = True
                    break
            if suppressed:
                continue
        if cue_type is _TRIGGER:
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
            end = start + window
            if end > sentence_len:
                end = sentence_len
            # a forward-stopping termination starting inside the scope cuts it
            for stop, stop_dim in forward_stops:
                if stop_dim == dim and start < stop < end:
                    end = stop
            if start < end:
                scopes.append(_new(Scope, (m, dimension, value, start, end)))
        if backward:
            end = m.start
            start = end - window
            if start < 0:
                start = 0
            for stop, stop_dim in backward_stops:
                if stop_dim == dim and start < stop < end:
                    start = stop
            if start < end:
                scopes.append(_new(Scope, (m, dimension, value, start, end)))
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
        return _NO_CUE
    values = list(_DEFAULT_VALUES)
    evidence: dict[Dimension, CueMatch] = {}
    for dim, (_, scope) in best.items():
        values[dim] = scope.value
        evidence[scope.dimension] = scope.cue
    return _annotation(*values, evidence)


def _check_trie(trie: RuleTrie | None, ruleset: RuleSet) -> None:
    if trie is not None and trie.ruleset is not ruleset and trie.ruleset != ruleset:
        raise ValueError("the trie was built from a different rule set")


def _sentence_scopes(tokens: Sequence[str], ruleset: RuleSet, trie: RuleTrie | None) -> list[Scope]:
    """Match ``tokens``, lowercased as rule phrases are on load, through
    ``trie`` when given, else through the naive reference matcher, and
    resolve the scopes of the matches."""
    joined = "".join(tokens)
    if joined != joined.lower():  # a new list only when case must fold
        tokens = [token.lower() for token in tokens]
    if trie is not None:
        matches = find_matches_trie(trie, tokens)
    else:
        matches = find_matches_naive(ruleset, tokens)
    return resolve_scopes(matches, ruleset, len(tokens))


def _invalid_span(concept: ConceptSpan, n: int) -> InvalidSpan:
    return InvalidSpan(f"concept [{concept.start}, {concept.end}) outside token range of length {n}")


def annotate(
    tokens: Sequence[str],
    concept: ConceptSpan,
    ruleset: RuleSet,
    trie: RuleTrie | None = None,
) -> ContextAnnotation:
    """Classify one concept mention within one sentence.

    Matching runs through ``trie`` when given, else through the naive
    reference matcher; the result is identical either way.  Tokens match
    case-insensitively.  Raises :class:`InvalidSpan` when the concept lies
    outside the token range, and ``ValueError`` when ``trie`` was built
    from a different rule set.
    """
    _check_trie(trie, ruleset)
    n = len(tokens)
    if not 0 <= concept.start < concept.end <= n:
        raise _invalid_span(concept, n)
    return _assign(_sentence_scopes(tokens, ruleset, trie), ruleset.table, concept)


def annotate_records(
    records: Iterable[tuple[Sequence[str], ConceptSpan]],
    ruleset: RuleSet,
    trie: RuleTrie | None = None,
) -> Iterator[ContextAnnotation | InvalidSpan]:
    """Yield the result of each ``(tokens, concept)`` record, in order,
    before reading the next record.

    Element-wise equal to :func:`annotate`, except that a record with an
    invalid concept span yields its :class:`InvalidSpan` (not raised) and
    processing continues.  A run of consecutive records with equal tokens
    is matched and resolved once, at its first valid concept, and not at
    all when it has none; equal sentences that are not adjacent are
    matched again.  Runs compare token contents, against a copy taken
    when the run starts, so a reader may refill one token list in place.
    Raises ``ValueError`` when ``trie`` was built from a
    different rule set.
    """
    _check_trie(trie, ruleset)
    table = ruleset.table
    run_tokens: Sequence[str] | None = None
    scopes: list[Scope] | None = None  # None: the run is not resolved yet
    for tokens, concept in records:
        if tokens != run_tokens:
            # a slice keeps the type, so equal tuples, like equal lists, compare equal
            run_tokens, n, scopes = tokens[:], len(tokens), None
        if 0 <= concept.start < concept.end <= n:
            if scopes is None:
                scopes = _sentence_scopes(tokens, ruleset, trie)
            yield _assign(scopes, table, concept)
        else:
            yield _invalid_span(concept, n)
