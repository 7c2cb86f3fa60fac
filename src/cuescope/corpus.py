"""The JSON-lines corpus format, and seeded synthetic corpus/rule
generators.

Corpus files hold one JSON object per line with keys:

* ``"tokens"`` — list of strings,
* ``"concept"`` — ``[start, end)`` token interval of the concept mention,
* ``"gold"`` — optional ``{"negation"|"experiencer"|"temporality": value}``
  with any subset of the three dimensions present.

:func:`write_corpus` writes records in this form, and
:func:`annotated_line` writes an annotated record: the same line with a
``"pred"`` object (``negation``, ``experiencer``, ``temporality`` and
``evidence``, the ``[start, end)`` of the cue that set each non-default
value) or, for an invalid concept span, an ``"error"`` string as its
last key.  Both write compact JSON with non-ASCII text unescaped.

A sentence with several concepts is a run of adjacent records with the
same tokens, and a run's token array is decoded and encoded once.  When a
line's tokens start as the last fully decoded line's do, the reader
proves, once per run, that this earlier line's text up to the ``],``
that closes its tokens is their exact encoding (see :func:`_run_head`).
A line that starts with that text decodes only the rest, which must be
one object with keys, none of them ``tokens``, and its record gets a copy
of the run's tokens; any other line is decoded whole.  A writer compares
each record's tokens by contents with its own copy of the last ones,
whose encoding it keeps.

The reader also hands out, next to each record, the record's head
(:func:`_record_head`) when its line, stripped, is that head and a
closing brace, so that ``annotate`` writes the line back as read.  A
record without gold has the head ``{"tokens":[``, each token in quotes
joined by ``,``, then ``],"concept":[s,e]``; with no backslash the
tokens take ``len(joined) + 3k - 1`` characters for k tokens (none for
none).  The proof is one comparison: the line's text from where those
tokens end is exactly ``],"concept":[s,e]}``, with ``s`` and ``e``
rendered from the decoded ints; on a run's later line the tokens end
at the run's proven ``],``.  That is enough: the line is JSON of an
object holding these tokens and this concept, no such text is shorter
than the gold-free head and brace, and only that text and the one with
``concept`` first are as short, since an escape, a space, ``-0``, a
gold or other member and a repeated key each add characters; the
tail puts ``concept`` last.  The head is never kept on the record, which
its holder may change.

The generators are deterministic for a given seed, and gold labels are
computed by the naive engine so generated corpora never depend on the
trie they are used to test.
"""

from __future__ import annotations

import json
import os
import random
from json.encoder import encode_basestring
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from . import engine
from .engine import ConceptSpan, ContextAnnotation, InvalidSpan
from .rules import (
    WILDCARD,
    ContextRule,
    CueType,
    Dimension,
    Direction,
    ExperiencerStatus,
    NegationStatus,
    RuleSet,
    RuleValue,
    TemporalityStatus,
)

#: Allowed gold values per dimension name, as plain strings.
DIMENSION_VALUES = {
    Dimension.NEGATION.value: {v.value for v in NegationStatus},
    Dimension.EXPERIENCER.value: {v.value for v in ExperiencerStatus},
    Dimension.TEMPORALITY.value: {v.value for v in TemporalityStatus},
}

#: Vocabulary rule phrases are drawn from.  Disjoint from the filler
#: vocabulary below, so a corpus with injection rate 0 matches nothing;
#: wide enough that distinct rules rarely share words, keeping accidental
#: sub-phrase matches rare.
RULE_VOCAB = tuple(f"cue{i:03d}" for i in range(1000))

#: The words generated sentences are made of, and their length before a
#: cue is injected.
FILLER_VOCAB = tuple(f"w{i:03d}" for i in range(200))
MIN_LEN, MAX_LEN = 6, 14
#: Seed of the rule set ``generate corpus`` and the scaling bench draw cues from.
RULE_SEED = 7


class CorpusError(ValueError):
    """A corpus line that is not structurally valid."""


class ConfigError(ValueError):
    """Generator or benchmark configuration that cannot be satisfied."""


class CorpusRecord:
    """One evaluation unit: a tokenized sentence, the concept span within
    it, and optional gold modifier values (strings, keyed by dimension).

    ``line_no`` is the 1-based line of the file the record was read from,
    for diagnostics (None for a record built in code); it takes no part in
    comparisons.  Records are not frozen, so that the reader builds them
    cheaply; nothing here changes one after it is built.
    """

    __slots__ = ("tokens", "concept", "gold", "line_no")

    def __init__(
        self, tokens: list[str], concept: ConceptSpan,
        gold: dict[str, str] | None = None, line_no: int | None = None,
    ) -> None:
        self.tokens = tokens
        self.concept = concept
        self.gold = gold
        self.line_no = line_no

    def __eq__(self, other: object) -> bool:
        if type(other) is not CorpusRecord:
            return NotImplemented
        return (self.tokens, self.concept, self.gold) == (other.tokens, other.concept, other.gold)

    __hash__ = None  # records are mutable

    def __repr__(self) -> str:
        return (
            f"CorpusRecord(tokens={self.tokens!r}, concept={self.concept!r}, "
            f"gold={self.gold!r}, line_no={self.line_no!r})"
        )


def _record_from_obj(
    obj: object, line_no: int, line: str, run: tuple[str, list[str]] | None = None
) -> tuple[CorpusRecord, str | None]:
    """The record of ``obj``, decoded from ``line``, and ``line`` up to its
    closing brace when that is the record's head (:func:`_record_head`), or
    None; ``run``, when given, is the run head (:func:`_run_head`) that
    ``line`` starts with, and ``obj`` the rest of ``line``, a dict without
    tokens.  See the module docstring for the proof of a head."""
    if run is None:
        if type(obj) is not dict:
            raise CorpusError(f"line {line_no}: expected a JSON object")
        tokens = obj.get("tokens")
        try:
            if type(tokens) is not list:
                raise TypeError
            joined = "".join(tokens)  # a TypeError when a token is not a string
        except TypeError:
            raise CorpusError(f"line {line_no}: 'tokens' must be a list of strings") from None
        if "\\u" in line:
            # only a \u escape can put a lone surrogate into a token, which
            # no UTF-8 output could then hold
            try:
                joined.encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusError(f"line {line_no}: 'tokens' hold a lone surrogate") from None
        # where the tokens end in the record's head: after the 11 characters
        # of `{"tokens":[`, each token in quotes, the quotes joined by `,`
        cut = 10 + len(joined) + 3 * len(tokens) if tokens else 11
    else:
        tokens, cut = run[1][:], len(run[0]) - 2
    concept = obj.get("concept")
    # JSON gives exact ints and bools, so ``type(x) is int`` excludes bools
    if type(concept) is not list or len(concept) != 2 or not (
        type(concept[0]) is int and type(concept[1]) is int
    ):
        raise CorpusError(f"line {line_no}: 'concept' must be [start, end]")
    gold = obj.get("gold")
    if gold is not None:
        if type(gold) is not dict:
            raise CorpusError(f"line {line_no}: 'gold' must be an object")
        for dim, value in gold.items():
            allowed = DIMENSION_VALUES.get(dim)
            if allowed is None:
                raise CorpusError(f"line {line_no}: unknown gold dimension {dim!r}")
            if type(value) is not str or value not in allowed:
                raise CorpusError(f"line {line_no}: bad gold value {value!r} for {dim}")
    # the line is the record's head and a brace when its text from ``cut``
    # is this (see the module docstring)
    tail = f'],"concept":[{concept[0]},{concept[1]}]}}'
    # ``tuple.__new__`` skips the Python-level ``__new__`` of a NamedTuple
    record = CorpusRecord(tokens, tuple.__new__(ConceptSpan, concept), gold, line_no)
    return record, (line[:-1] if line[cut:] == tail else None)


def iter_corpus(source: str | os.PathLike | Iterable[str]) -> Iterator[CorpusRecord]:
    """Yield the records of a JSON-lines corpus one at a time, from a path,
    a text stream, or an iterable of lines.

    Structure is validated here; span validity against the sentence is
    the engine's per-record concern, so files with out-of-range concepts
    still load.  One byte-order mark at the start of the first line is
    ignored.  A malformed line, including one that is not UTF-8 (read
    through :func:`open_corpus` as lone surrogates), raises
    :class:`CorpusError` naming its line number once every record before
    it has been yielded.
    """
    if isinstance(source, (str, os.PathLike)):
        with open_corpus(source) as fh:
            yield from iter_corpus(fh)
    else:
        for record, _ in _iter_lines(source):
            yield record


def open_corpus(path: str | os.PathLike | int) -> IO[str]:
    """Open a corpus file, or a file descriptor (left open on close), as
    UTF-8 text for :func:`iter_corpus`.  Undecodable bytes are read as lone
    surrogates, so that the reader can name the line they are on."""
    return open(path, encoding="utf-8", errors="surrogateescape", closefd=not isinstance(path, int))


def _run_head(line: str) -> tuple[str, list[str]] | None:
    """``line``'s text up to the ``],`` that closes its tokens, and the tokens
    that text decodes to, when it is their exact encoding: ``line`` holds no
    backslash, and the text is ``{"tokens":[``, then each token in quotes,
    none holding a quote, joined by ``,``, then ``],``.  None for any other
    line.  ``line`` is one the reader decoded, so it is valid JSON."""
    cut = -1 if "\\" in line else line.find('],"concept":')
    if cut < 11 or not line.startswith('{"tokens":['):
        return None
    body = line[11:cut]
    tokens = body[1:-1].split('","') if body else []
    # with no backslash, a token's text between its quotes is the token,
    # and two quotes for each token leave none inside one
    if body and not (body[0] == body[-1] == '"' and body.count('"') == 2 * len(tokens)):
        return None
    return line[:cut + 2], tokens


def _iter_lines(lines: Iterable[str]) -> Iterator[tuple[CorpusRecord, str | None]]:
    """Each record of :func:`iter_corpus`, with its line up to the closing
    brace when that is the record's head, else None (see the module
    docstring)."""
    # the C scanner behind ``json.loads``, called directly; the handlers
    # below give the messages ``json.loads`` gives for the same line
    scan = json.JSONDecoder().scan_once
    # the run (see the module docstring): ``prev`` is the last fully decoded
    # line and ``first`` its first token, which opens the tokens of every
    # line of its run, after ``{"tokens":["``; ``run`` is ``_run_head(prev)``
    # once a line has passed that test, or None
    prev, first, run = "", None, None
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusError(f"line {line_no}: not valid UTF-8 text") from None
            if line_no == 1 and line[0] == "\ufeff":
                line = line[1:]  # a byte-order mark opens the file
        line = line.strip()
        if not line:
            continue
        if first is not None and line.startswith(first, 12):
            run = run or _run_head(prev)
            if run and line.startswith(run[0]):
                rest = "{" + line[len(run[0]):]
                try:
                    obj, end = scan(rest, 0)
                except (StopIteration, ValueError, RecursionError):
                    obj = None  # decoded again below, for its message
                # ``{`` + rest decodes as the line does when rest holds a key
                # (``{"tokens":[...],}`` is not JSON) and the key is not tokens
                if obj and end == len(rest) and "tokens" not in obj:
                    yield _record_from_obj(obj, line_no, line, run)
                    continue
        try:
            obj, end = scan(line, 0)
        except StopIteration:  # no value starts the line
            msg = ("Unexpected UTF-8 BOM (decode using utf-8-sig)" if line[0] == "\ufeff"
                   else "Expecting value")
            raise CorpusError(f"line {line_no}: invalid JSON ({msg})") from None
        except json.JSONDecodeError as err:
            raise CorpusError(f"line {line_no}: invalid JSON ({err.msg})") from None
        except (ValueError, RecursionError) as err:
            # an integer past the conversion digit limit, or nesting too deep
            raise CorpusError(f"line {line_no}: invalid JSON ({err})") from None
        if end != len(line):  # the line is stripped, so anything left is data
            raise CorpusError(f"line {line_no}: invalid JSON (Extra data)")
        record, head = _record_from_obj(obj, line_no, line)
        tokens = record.tokens
        prev, first, run = line, tokens[0] if tokens else "", None
        yield record, head


def _run_heads() -> Callable[[CorpusRecord], str]:
    """A function giving a record's JSON line up to its closing brace, so
    that a writer can add keys: ``{"tokens":[...],"concept":[start,end]``,
    then ``,"gold":{...}`` if the record has gold labels.  Called for records
    in turn, it encodes the tokens of a run of records with equal tokens
    once: it compares each record's tokens by contents with its own copy of
    the last ones, so a caller may refill one list between records."""
    last: list[str] | None = None
    tokens_json = ""

    def head(record: CorpusRecord) -> str:
        nonlocal last, tokens_json
        tokens = record.tokens
        if tokens != last:
            last, tokens_json = tokens[:], ",".join(map(encode_basestring, tokens))
        concept = record.concept
        text = f'{{"tokens":[{tokens_json}],"concept":[{concept.start},{concept.end}]'
        if record.gold is not None:
            gold = ",".join(
                f"{encode_basestring(k)}:{encode_basestring(v)}" for k, v in record.gold.items()
            )
            text += f',"gold":{{{gold}}}'
        return text

    return head


def _record_head(record: CorpusRecord) -> str:
    """``record``'s JSON line up to its closing brace (see :func:`_run_heads`)."""
    return _run_heads()(record)


def write_corpus(records: Iterable[CorpusRecord], stream: IO[str]) -> None:
    """Write records as JSON lines, the form :func:`iter_corpus` reads.

    >>> import sys
    >>> write_corpus([CorpusRecord(["no", "fever"], ConceptSpan(1, 2), {"negation": "negated"})],
    ...              sys.stdout)
    {"tokens":["no","fever"],"concept":[1,2],"gold":{"negation":"negated"}}
    """
    write, head = stream.write, _run_heads()
    for record in records:
        write(head(record) + "}\n")


#: The parts of an annotated line that depend only on an annotation's values.
_NEGATION = {v: f',"pred":{{"negation":"{v.value}"' for v in NegationStatus}
_EXPERIENCER = {v: f',"experiencer":"{v.value}"' for v in ExperiencerStatus}
_TEMPORALITY = {v: f',"temporality":"{v.value}","evidence":{{' for v in TemporalityStatus}
_EVIDENCE = {d: f'"{d.value}":[' for d in Dimension}
#: ``pred`` of an annotation with no evidence, which holds every default.
_NO_EVIDENCE = (
    _NEGATION[NegationStatus.AFFIRMED] + _EXPERIENCER[ExperiencerStatus.PATIENT]
    + _TEMPORALITY[TemporalityStatus.RECENT] + "}}}\n"
)


def annotated_line(
    record: CorpusRecord, result: ContextAnnotation | InvalidSpan, head: str | None = None
) -> str:
    r"""``record`` as :func:`write_corpus` writes it, with its ``pred`` (or
    ``error``) added as the last key.  ``head``, when given, is
    ``_record_head(record)``, for example from a writer's :func:`_run_heads`,
    or the record's input line that the reader proved to be it.

    >>> from cuescope import annotate, load_rules
    >>> import io
    >>> rules = load_rules(io.StringIO("no\tforward\ttrigger\tnegated\t5\n"))
    >>> record = CorpusRecord(["no", "fever"], ConceptSpan(1, 2))
    >>> print(annotated_line(record, annotate(record.tokens, record.concept, rules)), end="")
    {"tokens":["no","fever"],"concept":[1,2],"pred":{"negation":"negated","experiencer":"patient","temporality":"recent","evidence":{"negation":[0,1]}}}
    """
    if head is None:
        head = _record_head(record)
    if type(result) is InvalidSpan:
        return f'{head},"error":{encode_basestring(str(result))}}}\n'
    evidence = result.evidence
    if not evidence:
        return head + _NO_EVIDENCE
    cues = ",".join(f"{_EVIDENCE[d]}{cue.start},{cue.end}]" for d, cue in evidence.items())
    return (
        f"{head}{_NEGATION[result.negation]}{_EXPERIENCER[result.experiencer]}"
        f"{_TEMPORALITY[result.temporality]}{cues}}}}}}}\n"
    )


class _GeneratorFields(NamedTuple):
    seed: int
    sentence_count: int
    cue_injection_rate: float


class GeneratorConfig(_GeneratorFields):
    """The corpus generator's seed, sentence count and cue injection rate;
    the rest is fixed by ``FILLER_VOCAB`` and ``MIN_LEN``/``MAX_LEN``.
    A ``NamedTuple``, checked when built."""

    __slots__ = ()

    def __new__(
        cls, seed: int, sentence_count: int, cue_injection_rate: float = 0.3
    ) -> "GeneratorConfig":
        if sentence_count <= 0:
            raise ConfigError("counts must be positive")
        if not (0.0 <= cue_injection_rate <= 1.0):
            raise ConfigError("cue_injection_rate must be in [0, 1]")
        return tuple.__new__(cls, (seed, sentence_count, cue_injection_rate))


def generate_rules(seed: int, count: int) -> RuleSet:
    """Deterministic synthetic rule set: phrases of 1-5 words of
    ``RULE_VOCAB``, 1 in 20 multi-word ones with one wildcard, and cue
    types, values and directions weighted in the order their enums declare
    them (trigger/pseudo/termination at 70/10/20, negated ... hypothetical
    at 40/15/20/15/10).  The first k rules are the same for any count >= k.
    """
    if count < 1:
        raise ConfigError("rule count must be >= 1")
    rng = random.Random(seed)
    cue_types, values, directions = tuple(CueType), tuple(RuleValue), tuple(Direction)
    seen: set[tuple] = set()
    rules: list[ContextRule] = []
    while len(rules) < count:
        length = rng.choices((1, 2, 3, 4, 5), weights=(25, 35, 20, 12, 8))[0]
        phrase = [rng.choice(RULE_VOCAB) for _ in range(length)]
        # wildcards never lead a phrase: a bare or leading wildcard would
        # fire on every token
        if length >= 2 and rng.random() < 0.05:
            phrase[rng.randrange(1, length)] = WILDCARD
        cue_type = rng.choices(cue_types, weights=(70, 10, 20))[0]
        value = rng.choices(values, weights=(40, 15, 20, 15, 10))[0]
        direction = rng.choices(directions, weights=(50, 30, 20))[0]
        window = rng.choice((5, 10, 15, 20, 30))
        rule = ContextRule(
            id=len(rules), phrase=tuple(phrase), direction=direction,
            cue_type=cue_type, value=value, window=window,
        )
        if rule.key() in seen:
            continue
        seen.add(rule.key())
        rules.append(rule)
    return RuleSet(rules=tuple(rules))


def generate_corpus(config: GeneratorConfig, ruleset: RuleSet) -> list[CorpusRecord]:
    """Seeded synthetic corpus: filler sentences with a designated concept
    span, a trigger phrase injected beside the concept at the configured
    rate, and gold labels computed by the naive engine.
    """
    rng = random.Random(config.seed)
    injectable = [
        r for r in ruleset
        if r.cue_type is CueType.TRIGGER and r.window >= 1
    ]
    records = []
    for _ in range(config.sentence_count):
        length = rng.randint(MIN_LEN, MAX_LEN)
        tokens = [rng.choice(FILLER_VOCAB) for _ in range(length)]
        concept_len = rng.randint(1, min(3, length))
        concept_start = rng.randint(0, length - concept_len)
        concept = ConceptSpan(concept_start, concept_start + concept_len)
        if injectable and rng.random() < config.cue_injection_rate:
            rule = rng.choice(injectable)
            cue = [rng.choice(FILLER_VOCAB) if t == WILDCARD else t for t in rule.phrase]
            gap = rng.randint(0, min(2, rule.window - 1))
            before = rule.direction is Direction.FORWARD or (
                rule.direction is Direction.BIDIRECTIONAL and rng.random() < 0.5
            )
            if before:
                at = concept.start
                tokens[at:at] = cue + [rng.choice(FILLER_VOCAB) for _ in range(gap)]
                shift = len(cue) + gap
                concept = ConceptSpan(concept.start + shift, concept.end + shift)
            else:
                at = concept.end
                tokens[at:at] = [rng.choice(FILLER_VOCAB) for _ in range(gap)] + cue
        annotation = engine.annotate(tokens, concept, ruleset, trie=None)
        gold = {
            "negation": annotation.negation.value,
            "experiencer": annotation.experiencer.value,
            "temporality": annotation.temporality.value,
        }
        records.append(CorpusRecord(tokens=tokens, concept=concept, gold=gold))
    return records
