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
later concept of the run is assigned from.  A sentence with no match
skips resolution, and one with no scope skips assignment.
:func:`annotate` is the one-record case: it resolves only the triggers
that can reach its concept, and through a trie shares one sentence's work
across calls (its docstring says how).  A concept is a
:class:`ConceptSpan` or any ``(start, end)`` pair.

:func:`resolve_scopes` says how resolution stays linear in the matches.
Each :class:`Scope` is built as a tuple.  A concept no scope reaches
gets one shared, immutable :class:`ContextAnnotation`.  Every result here
depends on the inputs only.  The matchers fold case, so every entry point
is case-insensitive.  The engine reads only token counts, apart from the
run check of :func:`annotate_records`, which compares tokens.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def resolve_scopes(
    matches: Sequence[CueMatch],
    ruleset: RuleSet,
    sentence_len: int,
    concept: ConceptSpan | None = None,
) -> list[Scope]:
    """Apply pseudo suppression, windowing and termination truncation.

    Returns the surviving non-empty scopes in match order (bidirectional
    triggers contribute up to two, forward first).  ``matches`` is sorted
    by start, as both matchers return it.

    One loop reads each match's table entry once.  It marks, per
    dimension, the tokens that pseudo matches cover, in a byte array as
    long as the furthest pseudo end (not ``sentence_len``, which no
    suppression depends on), and keeps the triggers and terminations in
    match order.  A trigger or termination with a covered token of its
    dimension is suppressed.  The surviving terminations give each
    dimension its forward stops (start tokens, ascending since the
    matches are) and backward stops (end tokens, sorted).  A forward
    scope ``[start, end)`` is cut at the first forward stop after
    ``start``, found by ``bisect_right``, when that stop is below
    ``end``; a backward one at the last backward stop before ``end``,
    found by ``bisect_left``, when that stop is above ``start``.  So a
    call costs time linear in the matches, apart from sorting the
    backward stops and a logarithmic search per scope.

    With ``concept``, returns only the scopes of the triggers that can
    reach it.  A trigger whose cue overlaps the concept, or whose window,
    before truncation, misses it on each side the trigger acts on, is
    dropped before its pseudo test, its termination cuts and its scopes.
    As truncation only shrinks a scope, the result still holds every
    scope that intersects the concept and whose cue does not overlap it,
    the only ones assignment picks from.  It may hold others: the far
    side of a bidirectional trigger, or a scope that a termination cut
    short of the concept.

    It reads and writes no state.
    """
    if not matches:
        return []
    table = ruleset.table
    if concept is not None:
        c_start, c_end = concept
    triggers: list[tuple[CueMatch, RuleEntry]] = []  # the kept ones, in match order
    terminations: list[tuple[CueMatch, RuleEntry]] = []
    # dimension index -> 1 at each token a pseudo match of the dimension
    # covers, sized by the pseudos' ends and not by sentence_len
    covered: dict[int, bytearray] = {}
    for m in matches:
        rule_id, m_start, m_end = m
        e = table[rule_id]
        cue_type = e.cue_type
        if cue_type is _TRIGGER:
            if concept is not None:
                # keep only a trigger whose windowed scope on some side reaches the concept
                if m_end <= c_start:
                    if not e.forward or m_end + e.window <= c_start:
                        continue
                elif c_end <= m_start:
                    if not e.backward or m_start - e.window >= c_end:
                        continue
                else:
                    continue  # the cue overlaps the concept
            triggers.append((m, e))
        elif cue_type is _PSEUDO:
            cover = covered.setdefault(e.dim_index, bytearray())
            if len(cover) < m_end:
                cover.extend(bytes(m_end - len(cover)))
            cover[m_start:m_end] = b"\1" * (m_end - m_start)
        else:
            terminations.append((m, e))

    # dimension index -> the stop positions of its surviving terminations,
    # ascending: a forward stop is a start, and starts arrive in order; a
    # backward stop is an end, sorted below.  A bidirectional one stops both.
    forward_stops: dict[int, list[int]] = {}
    backward_stops: dict[int, list[int]] = {}
    for (_, m_start, m_end), (_, dim, _, forward, backward, _, _, _) in terminations:
        if covered:
            cover = covered.get(dim)
            if cover is not None and cover.find(1, m_start, m_end) >= 0:
                continue  # a pseudo of its dimension covers one of its tokens
        if forward:
            forward_stops.setdefault(dim, []).append(m_start)
        if backward:
            backward_stops.setdefault(dim, []).append(m_end)
    for stops in backward_stops.values():
        stops.sort()

    scopes: list[Scope] = []
    for m, (_, dim, dimension, forward, backward, window, value, _) in triggers:
        _, m_start, m_end = m
        if covered:
            cover = covered.get(dim)
            if cover is not None and cover.find(1, m_start, m_end) >= 0:
                continue
        if forward:
            start = m_end
            end = start + window
            if end > sentence_len:
                end = sentence_len
            # the nearest forward stop after the scope's first token cuts it
            stops = forward_stops.get(dim)
            if stops:
                i = bisect_right(stops, start)
                if i < len(stops) and stops[i] < end:
                    end = stops[i]
            if start < end:
                scopes.append(_new(Scope, (m, dimension, value, start, end)))
        if backward:
            end = m_start
            start = end - window
            if start < 0:
                start = 0
            # the nearest backward stop before the scope's end cuts it
            stops = backward_stops.get(dim)
            if stops:
                i = bisect_left(stops, end) - 1
                if i >= 0 and stops[i] > start:
                    start = stops[i]
            if start < end:
                scopes.append(_new(Scope, (m, dimension, value, start, end)))
    return scopes


def _cue_distance(cue: CueMatch, concept: ConceptSpan) -> int:
    """Token gap between the cue's nearest edge and the concept's."""
    c_start, c_end = concept
    if cue.end <= c_start:
        return c_start - cue.end
    return cue.start - c_end


def _assign(scopes: list[Scope], table: tuple[RuleEntry, ...], concept: ConceptSpan) -> ContextAnnotation:
    """Per dimension, the nearest-cue scope intersecting ``concept``."""
    best: dict[int, tuple[tuple, Scope]] = {}
    c_start, c_end = concept
    for scope in scopes:
        cue, _, _, start, end = scope
        if end <= c_start or c_end <= start:
            continue
        rule_id, cue_start, cue_end = cue
        if cue_start < c_end and c_start < cue_end:
            continue  # a cue never modifies a concept it is part of
        _, dim, _, _, _, _, _, rank = table[rule_id]
        key = (_cue_distance(cue, concept), rank, cue_start, rule_id)
        current = best.get(dim)
        if current is None or key < current[0]:
            best[dim] = (key, scope)
    if not best:
        return _NO_CUE
    fields: list = list(_DEFAULT_VALUES)
    evidence: dict[Dimension, CueMatch] = {}
    for dim, (_, (cue, dimension, value, _, _)) in best.items():
        fields[dim] = value
        evidence[dimension] = cue
    fields.append(MappingProxyType(evidence))
    return _new(ContextAnnotation, fields)


def _check_trie(trie: RuleTrie | None, ruleset: RuleSet) -> None:
    if trie is not None and trie.ruleset is not ruleset and trie.ruleset != ruleset:
        raise ValueError("the trie was built from a different rule set")


def _invalid_span(concept: ConceptSpan, n: int) -> InvalidSpan:
    start, end = concept
    return InvalidSpan(f"concept [{start}, {end}) outside token range of length {n}")


def annotate(
    tokens: Sequence[str],
    concept: ConceptSpan,
    ruleset: RuleSet,
    trie: RuleTrie | None = None,
) -> ContextAnnotation:
    """Classify one concept mention within one sentence.

    ``concept`` is a :class:`ConceptSpan` or a plain ``(start, end)``
    pair.  Matching runs through ``trie`` when given, else through the
    naive reference matcher; the result is identical either way.  Tokens
    match case-insensitively.  Raises :class:`InvalidSpan` when the
    concept lies outside the token range, and ``ValueError`` when ``trie``
    was built from a different rule set.

    It stops at the first empty step: a sentence with no match is not
    resolved, and one with no scope is not assigned, so the commonest
    call, a sentence with no cue word, calls only the matcher.  It reads
    only the token count; the matcher folds case.  Resolution is directed
    at the concept: only the triggers whose scopes can reach it are
    resolved (README "Experiments" gives the gains).

    Through ``trie``, the concepts of one sentence, annotated one call at
    a time, share its work.  The trie keeps one entry, for the last
    sentence it walked: a copy of its tokens and a tuple of its matches,
    so it matches the sentence once (:func:`find_matches_trie`).  This
    function extends that entry with a third slot.  The sentence's first
    call resolves directed and marks the entry (the slot holds None); the
    second resolves the sentence in full and stores there each scope with
    the concepts its trigger reaches: on its forward side those that
    start in ``[cue.end, cue.end + window)``, on its backward side those
    that end in ``(cue.start - window, cue.start]``.  Later calls pick
    their scopes from that store.  The
    entry is this call's when it holds the very matches the trie just
    returned, as every walk builds new ones; an entry another thread's
    walk left is not written.  Each write stores a new tuple whole, and
    may replace an entry another thread stored meanwhile, which costs
    that sentence a walk, never a result.  So threads may share a trie,
    and every call returns what a new trie gives.  Without a trie nothing
    is kept.
    """
    if trie is not None and trie.ruleset is not ruleset:
        _check_trie(trie, ruleset)
    start, end = concept
    n = len(tokens)
    if not 0 <= start < end <= n:
        raise _invalid_span(concept, n)
    matches = find_matches_trie(trie, tokens) if trie is not None else find_matches_naive(ruleset, tokens)
    if not matches:
        return _NO_CUE
    if trie is not None:
        entry = trie._memo[0]
        # its matches are empty when another thread walked a sentence with none
        if entry[1] and entry[1][0] is matches[0]:
            if len(entry) == 3:  # marked or filled: a later concept of the sentence
                reach = entry[2]
                if reach is None:  # the second concept resolves the sentence in full
                    reach = []
                    for scope in resolve_scopes(matches, ruleset, n):
                        cue = scope.cue
                        _, _, _, forward, backward, window, _, _ = ruleset.table[cue.rule_id]
                        # (scope, forward [lo, hi) of the concept's start, backward
                        # (lo, hi] of its end); a side the trigger does not act on is empty
                        reach.append((scope, cue.end, cue.end + window if forward else cue.end,
                                      cue.start - window if backward else cue.start, cue.start))
                    trie._memo[0] = (entry[0], entry[1], reach)
                # a loop, not a comprehension, which would make start and end
                # closure cells that every call pays for
                scopes = []
                for scope, f_lo, f_hi, b_lo, b_hi in reach:
                    if f_lo <= start < f_hi or b_lo < end <= b_hi:
                        scopes.append(scope)
                return _assign(scopes, ruleset.table, concept) if scopes else _NO_CUE
            # the first concept marks the entry, and resolves directed below
            trie._memo[0] = (entry[0], entry[1], None)
    scopes = resolve_scopes(matches, ruleset, n, concept)
    return _assign(scopes, ruleset.table, concept) if scopes else _NO_CUE


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
    scopes: list[Scope] | None = None  # None: the run is not resolved yet; [] is resolved
    for tokens, concept in records:
        if tokens != run_tokens:
            # a slice keeps the type, so equal tuples, like equal lists, compare equal
            run_tokens, n, scopes = tokens[:], len(tokens), None
        start, end = concept
        if 0 <= start < end <= n:
            if scopes is None:
                if trie is not None:
                    matches = find_matches_trie(trie, tokens)
                else:
                    matches = find_matches_naive(ruleset, tokens)
                scopes = resolve_scopes(matches, ruleset, n) if matches else []
            yield _assign(scopes, table, concept) if scopes else _NO_CUE
        else:
            yield _invalid_span(concept, n)
