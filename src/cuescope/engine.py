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
:func:`annotate` is the one-record case.  It stops at the first empty
step, so a cue-free sentence costs one span check and one matcher call.
It also passes its concept to :func:`resolve_scopes`, which then drops
every trigger that cannot reach the concept before its pseudo test, its
termination cuts and its scopes; the record loop passes none, as a run's
scopes serve all its concepts.  A directed call memoises on the rule set:
the next call with equal matches and length resolves the sentence in
full and keeps each scope with the concepts its trigger reaches, and the
calls after it pick their scopes from that store.  So the concepts of one
sentence, annotated one call at a time, resolve it once, as the trie's
memo has them match it once.  A concept is a :class:`ConceptSpan` or
any ``(start, end)`` pair.  Scope resolution reads each rule through
``RuleSet.table``, built once per rule set, once per match; it tests
pseudo overlaps and clamps windows with plain loops and comparisons, and
builds each :class:`Scope` as a tuple.  A concept no scope reaches gets
one shared, immutable :class:`ContextAnnotation`.  Every result here
depends on the inputs only: the trie and the rule set each keep a
one-entry memo of their last sentence, and no memo changes a result.
The matchers fold case, so every entry point is case-insensitive.  The
engine reads only token counts, apart from the run check of
:func:`annotate_records`, which compares tokens.
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


def resolve_scopes(
    matches: Sequence[CueMatch],
    ruleset: RuleSet,
    sentence_len: int,
    concept: ConceptSpan | None = None,
) -> list[Scope]:
    """Apply pseudo suppression, windowing and termination truncation.

    Returns the surviving non-empty scopes in match order (bidirectional
    triggers contribute up to two, forward first).

    With ``concept``, returns only the scopes of the triggers that can
    reach it.  A trigger whose cue overlaps the concept, or whose window,
    before truncation, misses it on each side the trigger acts on, is
    dropped before its pseudo test, its termination cuts and its scopes.
    As truncation only shrinks a scope, the result still holds every
    scope that intersects the concept and whose cue does not overlap it,
    the only ones assignment picks from.  It may hold others: the far
    side of a bidirectional trigger, or a scope that a termination cut
    short of the concept.

    A call with ``concept`` memoises on ``ruleset``, whose ``_memo`` keeps
    the matches and length of the last such call.  A call with other
    matches or another length resolves as above and stores a copy of
    them.  The first call with equal ones resolves the sentence in full
    and stores every scope with the concepts its trigger reaches: on its
    forward side those that start in ``[cue.end, cue.end + window)``, on
    its backward side those that end in ``(cue.start - window,
    cue.start]``.  Later equal calls pick the scopes whose trigger
    reaches their concept from that store.  Every call returns a new
    list, equal to what a rule set with an empty memo returns, so a
    result depends on the inputs only.  A call without ``concept``
    neither reads nor writes the memo.
    """
    if not matches:
        return []
    table = ruleset.table
    if concept is not None:
        memo = ruleset._memo
        last = memo[0]
        if last is not None and last[1] == sentence_len and last[0] == matches:
            reach = last[2]
            if reach is None:
                reach = []
                for scope in _resolve_all(matches, ruleset, sentence_len):
                    cue = scope.cue
                    _, _, _, forward, backward, window, _, _ = table[cue.rule_id]
                    # (scope, forward [lo, hi) of the concept's start, backward
                    # (lo, hi] of its end); a side the trigger does not act on is empty
                    reach.append((
                        scope,
                        cue.end, cue.end + window if forward else cue.end,
                        cue.start - window if backward else cue.start, cue.start,
                    ))
                memo[0] = (last[0], sentence_len, reach)
            c_start, c_end = concept
            return [scope for scope, f_lo, f_hi, b_lo, b_hi in reach
                    if f_lo <= c_start < f_hi or b_lo < c_end <= b_hi]
        # one store of a new tuple, so a thread never reads half an entry
        memo[0] = (matches[:], sentence_len, None)
        c_start, c_end = concept
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
        if concept is not None and cue_type is _TRIGGER:
            # keep only a trigger whose windowed scope on some side reaches the concept
            if m.end <= c_start:
                if not e.forward or m.end + e.window <= c_start:
                    continue
            elif c_end <= m.start:
                if not e.backward or m.start - e.window >= c_end:
                    continue
            else:
                continue  # the cue overlaps the concept
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


#: The fill's full resolution: the function itself, called through a name
#: that a tracer wrapping ``resolve_scopes`` leaves alone, so that one call
#: makes one resolution span.
_resolve_all = resolve_scopes


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
    resolved (README "Experiments" gives the gains).  The trie keeps the
    matches of the last sentence it walked, so several concepts of one
    sentence, annotated one call at a time, match it once, and the rule
    set keeps the scopes of the last matches it resolved, so they resolve
    it once; each call still assigns its own concept.
    """
    if trie is not None and trie.ruleset is not ruleset:
        _check_trie(trie, ruleset)
    start, end = concept
    n = len(tokens)
    if not 0 <= start < end <= n:
        raise _invalid_span(concept, n)
    if trie is not None:
        matches = find_matches_trie(trie, tokens)
    else:
        matches = find_matches_naive(ruleset, tokens)
    if not matches:
        return _NO_CUE
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
