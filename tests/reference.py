"""Brute-force reference semantics, reimplemented per token.

This is the tests' independent oracle for the engine: instead of interval
arithmetic it asks, for every (token, cue) pair, "does this cue affect
this token?", quantifying over terminations explicitly.  Beyond the
rule/match data types, it shares only the naive matcher
(``find_matches_naive``) with the engine, and with it the matcher's case
fold.
"""

from cuescope.matcher import CueMatch, find_matches_naive
from cuescope.rules import CueType, Direction, RuleSet


def _overlap(a: CueMatch, b: CueMatch) -> bool:
    return a.start < b.end and b.start < a.end


def surviving_cues(ruleset: RuleSet, tokens) -> tuple[list[CueMatch], dict]:
    """Matches that survive pseudo suppression, plus termination matches
    grouped by (dimension, side they stop)."""
    matches = find_matches_naive(ruleset, tokens)
    pseudos = [m for m in matches if ruleset[m.rule_id].cue_type is CueType.PSEUDO]

    def killed(m: CueMatch) -> bool:
        dim = ruleset[m.rule_id].dimension
        return any(
            _overlap(m, p) and ruleset[p.rule_id].dimension is dim for p in pseudos
        )

    survivors = [
        m for m in matches
        if ruleset[m.rule_id].cue_type is not CueType.PSEUDO and not killed(m)
    ]
    stops: dict[tuple, list[CueMatch]] = {}
    for m in survivors:
        rule = ruleset[m.rule_id]
        if rule.cue_type is not CueType.TERMINATION:
            continue
        if rule.direction in (Direction.FORWARD, Direction.BIDIRECTIONAL):
            stops.setdefault((rule.dimension, "forward"), []).append(m)
        if rule.direction in (Direction.BACKWARD, Direction.BIDIRECTIONAL):
            stops.setdefault((rule.dimension, "backward"), []).append(m)
    return survivors, stops


def cue_affects_token(ruleset: RuleSet, cue: CueMatch, t: int, n: int, stops: dict) -> bool:
    """Token-level scope predicate for a surviving trigger match."""
    rule = ruleset[cue.rule_id]
    if not (0 <= t < n):
        return False
    forward_ok = (
        rule.direction in (Direction.FORWARD, Direction.BIDIRECTIONAL)
        and cue.end <= t < cue.end + rule.window
        and not any(
            cue.end < stop.start <= t
            for stop in stops.get((rule.dimension, "forward"), ())
        )
    )
    backward_ok = (
        rule.direction in (Direction.BACKWARD, Direction.BIDIRECTIONAL)
        and cue.start - rule.window <= t < cue.start
        and not any(
            t < stop.end < cue.start
            for stop in stops.get((rule.dimension, "backward"), ())
        )
    )
    return forward_ok or backward_ok


#: tie-break rank of assigned values within a dimension (lower preferred)
_RANK = {"possible": 0, "negated": 1, "other": 0, "hypothetical": 0, "historical": 1}
_ASSIGNS = {
    "negated": ("negation", "negated"),
    "possible": ("negation", "possible"),
    "nonpatient": ("experiencer", "other"),
    "historical": ("temporality", "historical"),
    "hypothetical": ("temporality", "hypothetical"),
}


def reference_annotate(ruleset: RuleSet, tokens, concept_start: int, concept_end: int) -> dict:
    """Dimension name -> (value, evidence (start, end)) for non-defaults,
    computed by exhaustive per-token quantification."""
    n = len(tokens)
    survivors, stops = surviving_cues(ruleset, tokens)
    candidates: dict[str, list] = {}
    for cue in survivors:
        rule = ruleset[cue.rule_id]
        if rule.cue_type is not CueType.TRIGGER:
            continue
        if cue.start < concept_end and concept_start < cue.end:
            continue  # cue overlaps the concept
        if not any(
            cue_affects_token(ruleset, cue, t, n, stops)
            for t in range(concept_start, concept_end)
        ):
            continue
        if cue.end <= concept_start:
            distance = concept_start - cue.end
        else:
            distance = cue.start - concept_end
        dimension, value = _ASSIGNS[rule.value.value]
        candidates.setdefault(dimension, []).append(
            ((distance, _RANK[value], cue.start, cue.rule_id), value, (cue.start, cue.end))
        )
    result = {}
    for dimension, options in candidates.items():
        options.sort(key=lambda item: item[0])
        _, value, span = options[0]
        result[dimension] = (value, span)
    return result
