"""Lexical cue rules and their tab-delimited file format.

A rule file is UTF-8 text, one rule per line, five tab-separated columns::

    phrase <TAB> direction <TAB> cue_type <TAB> value <TAB> window

column     contents
---------  ----------------------------------------------------------------
phrase     space-separated words; the token ``\\w+`` matches any one token
direction  forward | backward | bidirectional ("both" accepted as an alias)
cue_type   trigger | pseudo | termination
value      negated | possible | nonpatient | historical | hypothetical
window     non-negative integer, unit = tokens

Lines starting with ``#`` and blank lines are ignored.  All columns are
case-insensitive and normalised to lowercase on load.  LF, CRLF and CR
line endings are all accepted, and a leading byte-order mark is ignored.
"""

from __future__ import annotations

import io
import os
from enum import Enum
from typing import IO, Iterable, Iterator, NamedTuple

#: Phrase token that matches exactly one arbitrary sentence token.
WILDCARD = r"\w+"


class Direction(Enum):
    """Side of the cue its scope extends to."""

    FORWARD = "forward"
    BACKWARD = "backward"
    BIDIRECTIONAL = "bidirectional"


class CueType(Enum):
    """What a matched cue does: assign a value, suppress, or cut scopes."""

    TRIGGER = "trigger"
    PSEUDO = "pseudo"
    TERMINATION = "termination"


class RuleValue(Enum):
    """Modifier value a trigger assigns; implies its dimension."""

    NEGATED = "negated"
    POSSIBLE = "possible"
    NONPATIENT = "nonpatient"
    HISTORICAL = "historical"
    HYPOTHETICAL = "hypothetical"


class Dimension(Enum):
    NEGATION = "negation"
    EXPERIENCER = "experiencer"
    TEMPORALITY = "temporality"


class NegationStatus(Enum):
    AFFIRMED = "affirmed"
    NEGATED = "negated"
    POSSIBLE = "possible"


class ExperiencerStatus(Enum):
    PATIENT = "patient"
    OTHER = "other"


class TemporalityStatus(Enum):
    RECENT = "recent"
    HISTORICAL = "historical"
    HYPOTHETICAL = "hypothetical"


Status = NegationStatus | ExperiencerStatus | TemporalityStatus

#: What each rule value does: the dimension it modifies, the annotation
#: value it assigns there, and its tie-break rank within the dimension.
#: On exact distance ties the lower rank wins, so the value that preserves
#: more information (possible over negated, hypothetical over historical)
#: is kept.
VALUE_EFFECT: dict[RuleValue, tuple[Dimension, Status, int]] = {
    RuleValue.NEGATED: (Dimension.NEGATION, NegationStatus.NEGATED, 1),
    RuleValue.POSSIBLE: (Dimension.NEGATION, NegationStatus.POSSIBLE, 0),
    RuleValue.NONPATIENT: (Dimension.EXPERIENCER, ExperiencerStatus.OTHER, 0),
    RuleValue.HISTORICAL: (Dimension.TEMPORALITY, TemporalityStatus.HISTORICAL, 1),
    RuleValue.HYPOTHETICAL: (Dimension.TEMPORALITY, TemporalityStatus.HYPOTHETICAL, 0),
}

_DIRECTIONS = {d.value: d for d in Direction}
_DIRECTIONS["both"] = Direction.BIDIRECTIONAL
_CUE_TYPES = {c.value: c for c in CueType}
_VALUES = {v.value: v for v in RuleValue}


class MalformedRule(ValueError):
    """A rule line that cannot be parsed.

    Carries the 1-based line number (when known) and the 1-based column
    of the offending field (None when the column count itself is wrong).
    """

    def __init__(self, message: str, line_no: int | None = None, column: int | None = None):
        self.line_no = line_no
        self.column = column
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}{message}")


class DuplicateRule(ValueError):
    """Two rules share the same (phrase, direction, cue_type, value)."""


class _Frozen:
    """Base of a slots class whose fields are set once, in ``__init__``
    through ``object.__setattr__``, and never again."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class _RuleFields(NamedTuple):
    id: int
    phrase: tuple[str, ...]
    direction: Direction
    cue_type: CueType
    value: RuleValue
    window: int


class ContextRule(_RuleFields):
    """One lexical cue.

    ``id`` is the rule's ordinal within its rule set (assigned at load).
    ``phrase`` is a non-empty tuple of lowercase, whitespace-free tokens;
    a token may be the :data:`WILDCARD` marker.  A ``NamedTuple``, checked
    when built; ``rule._replace(id=i)`` copies it with another id.
    """

    __slots__ = ()

    def __new__(
        cls, id: int, phrase: tuple[str, ...], direction: Direction,
        cue_type: CueType, value: RuleValue, window: int,
    ) -> "ContextRule":
        if not phrase:
            raise ValueError("rule phrase must have at least one token")
        for tok in phrase:
            # split() drops the token if it is empty and cuts it at any
            # character for which str.isspace() holds
            if tok.split() != [tok]:
                raise ValueError(f"bad phrase token {tok!r}")
            if tok != tok.lower():
                raise ValueError(f"phrase token {tok!r} is not lowercase")
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        return tuple.__new__(cls, (id, phrase, direction, cue_type, value, window))

    @property
    def dimension(self) -> Dimension:
        return VALUE_EFFECT[self.value][0]

    def key(self) -> tuple:
        """Identity quadruple used for duplicate detection."""
        return (self.phrase, self.direction, self.cue_type, self.value)


class RuleEntry(NamedTuple):
    """What one rule does, in the form scope resolution reads it.

    ``dim_index`` is the position of ``dimension`` in :class:`Dimension`;
    ``forward``/``backward`` say which sides the cue acts on.
    """

    cue_type: CueType
    dim_index: int
    dimension: Dimension
    forward: bool
    backward: bool
    window: int
    assigned: Status
    rank: int


_DIM_INDEX = {d: i for i, d in enumerate(Dimension)}


def _entry(rule: ContextRule) -> RuleEntry:
    dimension, assigned, rank = VALUE_EFFECT[rule.value]
    return RuleEntry(
        rule.cue_type, _DIM_INDEX[dimension], dimension,
        rule.direction is not Direction.BACKWARD, rule.direction is not Direction.FORWARD,
        rule.window, assigned, rank,
    )


class RuleSet(_Frozen):
    """An ordered, duplicate-free collection of rules with dense ids 0..n-1.

    ``table[i]`` is rule ``i``'s :class:`RuleEntry`, built once here.  Two
    rule sets are equal when their rules are.
    """

    __slots__ = ("rules", "table")

    def __init__(self, rules: tuple[ContextRule, ...]) -> None:
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "table", tuple(map(_entry, rules)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not RuleSet:
            return NotImplemented
        return self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __repr__(self) -> str:
        return f"RuleSet(rules={self.rules!r})"

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[ContextRule]:
        return iter(self.rules)

    def __getitem__(self, rule_id: int) -> ContextRule:
        return self.rules[rule_id]

    @classmethod
    def from_rules(cls, rules: Iterable[ContextRule]) -> "RuleSet":
        """Build a RuleSet, reassigning dense ids and rejecting duplicates."""
        return _without_duplicates(rules)


def _without_duplicates(
    rules: Iterable[ContextRule], lines: list[tuple[int, str]] | None = None
) -> RuleSet:
    """``rules`` with dense ids, or :class:`DuplicateRule` for the first rule
    whose key an earlier one has.  ``lines[i]``, for rules read from a file,
    is the line number and text of rule ``i``, and the message names lines.
    """
    seen: dict[tuple, int] = {}
    out: list[ContextRule] = []
    for i, rule in enumerate(rules):
        first = seen.setdefault(rule.key(), i)
        if first != i:
            if lines is None:
                raise DuplicateRule(
                    f"rule {i} duplicates rule {first}: "
                    f"{' '.join(rule.phrase)!r} {rule.direction.value} "
                    f"{rule.cue_type.value} {rule.value.value}"
                )
            (line_no, text), (first_line_no, _) = lines[i], lines[first]
            raise DuplicateRule(f"line {line_no} duplicates line {first_line_no}: {text!r}")
        out.append(rule if rule.id == i else rule._replace(id=i))
    return RuleSet(rules=tuple(out))


def parse_rule_line(line: str, rule_id: int = 0, line_no: int | None = None) -> ContextRule:
    """Parse one non-comment, non-blank rule line.

    Raises :class:`MalformedRule` on a wrong column count, a phrase
    :class:`ContextRule` rejects, an unknown direction/cue_type/value, or
    a non-integer or negative window.
    """
    cols = line.rstrip("\r\n").split("\t")
    if len(cols) != 5:
        raise MalformedRule(
            f"expected 5 tab-separated columns, got {len(cols)}", line_no=line_no
        )
    phrase = tuple(cols[0].strip().lower().split(" "))
    if phrase == ("",):
        raise MalformedRule("empty phrase", line_no=line_no, column=1)
    if "" in phrase:
        raise MalformedRule(
            f"phrase {cols[0]!r} has empty tokens (double space?)", line_no=line_no, column=1
        )
    direction = _DIRECTIONS.get(cols[1].strip().lower())
    if direction is None:
        raise MalformedRule(f"unknown direction {cols[1]!r}", line_no=line_no, column=2)
    cue_type = _CUE_TYPES.get(cols[2].strip().lower())
    if cue_type is None:
        raise MalformedRule(f"unknown cue_type {cols[2]!r}", line_no=line_no, column=3)
    value = _VALUES.get(cols[3].strip().lower())
    if value is None:
        raise MalformedRule(f"unknown value {cols[3]!r}", line_no=line_no, column=4)
    window_text = cols[4].strip()
    # int() would also take '+3', '1_0' and non-ASCII digits
    digits = window_text[1:] if window_text.startswith("-") else window_text
    if not (digits.isascii() and digits.isdigit()):
        raise MalformedRule(
            f"window {cols[4]!r} is not an integer", line_no=line_no, column=5
        )
    window = int(window_text)
    if window < 0:
        raise MalformedRule(f"window {window} is negative", line_no=line_no, column=5)
    try:
        return ContextRule(
            id=rule_id, phrase=phrase, direction=direction,
            cue_type=cue_type, value=value, window=window,
        )
    except ValueError as err:  # a phrase token ContextRule rejects
        raise MalformedRule(str(err), line_no=line_no, column=1) from None


def load_rules(source: str | os.PathLike | IO) -> RuleSet:
    """Load a rule file from a path or an open text/binary stream.

    File order is preserved and ids are assigned ordinally.  One leading
    byte-order mark is ignored.  The first malformed line aborts the load,
    and so does a file that is not UTF-8; duplicate rules are rejected.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            text = fh.read()
    else:
        text = source.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            line_no = text.count(b"\n", 0, err.start) + 1
            raise MalformedRule(f"not UTF-8 text ({err.reason})", line_no=line_no) from None
    # the mark goes after decoding, not through "utf-8-sig", so that an
    # error offset above counts the bytes it is an offset into
    text = text.removeprefix("\ufeff")
    read: list[tuple[int, str]] = []  # (line number, text) of each rule

    def parsed() -> Iterator[ContextRule]:
        # newline=None reads CR, LF and CRLF line ends, as text-mode open does
        for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                rule = parse_rule_line(raw, rule_id=len(read), line_no=line_no)
                read.append((line_no, stripped))
                yield rule

    return _without_duplicates(parsed(), read)


def serialize_rules(ruleset: RuleSet) -> str:
    """Render a rule set back to its file format.

    ``load_rules(serialize_rules(rs))`` is field-identical to ``rs``;
    the "both" direction alias canonicalises to "bidirectional".
    """
    lines = []
    for rule in ruleset:
        lines.append(
            "\t".join((
                " ".join(rule.phrase),
                rule.direction.value,
                rule.cue_type.value,
                rule.value.value,
                str(rule.window),
            ))
        )
    return "".join(line + "\n" for line in lines)
