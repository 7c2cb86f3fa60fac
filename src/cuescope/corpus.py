"""Tokenization, the JSON-lines corpus format, and seeded synthetic
corpus/rule generators.

Corpus files hold one JSON object per line with keys:

* ``"tokens"`` — list of strings,
* ``"concept"`` — ``[start, end)`` token interval of the concept mention,
* ``"gold"`` — optional ``{"negation"|"experiencer"|"temporality": value}``
  with any subset of the three dimensions present.

The generators are deterministic for a given seed, and gold labels are
computed by the naive engine so generated corpora never depend on the
trie they are used to test.
"""

from __future__ import annotations

import json
import os
import random
import string
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring
from typing import IO, Iterable, Iterator, Sequence

from . import engine
from .engine import ConceptSpan
from .rules import (
    WILDCARD,
    ContextRule,
    CueType,
    Direction,
    RuleSet,
    RuleValue,
)

_PUNCT = frozenset(string.punctuation)

#: Vocabulary rule phrases are drawn from.  Disjoint from the filler
#: vocabulary below, so a corpus with injection rate 0 matches nothing;
#: wide enough that distinct rules rarely share words, keeping accidental
#: sub-phrase matches rare.
RULE_VOCAB = tuple(f"cue{i:03d}" for i in range(1000))


def _filler_vocab(size: int) -> tuple[str, ...]:
    return tuple(f"w{i:03d}" for i in range(size))


class CorpusError(ValueError):
    """A corpus line that is not structurally valid."""


class ConfigError(ValueError):
    """Generator or benchmark configuration that cannot be satisfied."""


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace, detaching leading/trailing
    punctuation of each chunk as separate tokens.

    >>> tokenize("No atrial septal defect is found.")
    ['no', 'atrial', 'septal', 'defect', 'is', 'found', '.']
    >>> tokenize("rule-out, MI.")
    ['rule-out', ',', 'mi', '.']
    """
    tokens: list[str] = []
    for chunk in text.split():
        word = chunk.lower()
        i, j = 0, len(word)
        while i < j and word[i] in _PUNCT:
            tokens.append(word[i])
            i += 1
        trailing: list[str] = []
        while j > i and word[j - 1] in _PUNCT:
            trailing.append(word[j - 1])
            j -= 1
        if j > i:
            tokens.append(word[i:j])
        tokens.extend(reversed(trailing))
    return tokens


@dataclass(frozen=True)
class CorpusRecord:
    """One evaluation unit: a tokenized sentence, the concept span within
    it, and optional gold modifier values (strings, keyed by dimension).

    ``line_no`` is the 1-based line of the file the record was read from,
    for diagnostics (None for a record built in code); it takes no part in
    comparisons.
    """

    tokens: list[str]
    concept: ConceptSpan
    gold: dict[str, str] | None = None
    line_no: int | None = field(default=None, compare=False)


def _record_from_obj(obj: object, line_no: int, line: str) -> CorpusRecord:
    if type(obj) is not dict:
        raise CorpusError(f"line {line_no}: expected a JSON object")
    tokens = obj.get("tokens")
    if type(tokens) is not list or not all(map(isinstance, tokens, repeat(str))):
        raise CorpusError(f"line {line_no}: 'tokens' must be a list of strings")
    if "\\u" in line:
        # only a \u escape can put a lone surrogate into a token, which
        # no UTF-8 output could then hold
        try:
            "".join(tokens).encode("utf-8")
        except UnicodeEncodeError:
            raise CorpusError(f"line {line_no}: 'tokens' hold a lone surrogate") from None
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
            allowed = engine.DIMENSION_VALUES.get(dim)
            if allowed is None:
                raise CorpusError(f"line {line_no}: unknown gold dimension {dim!r}")
            if type(value) is not str or value not in allowed:
                raise CorpusError(f"line {line_no}: bad gold value {value!r} for {dim}")
    return CorpusRecord(tokens, ConceptSpan(concept[0], concept[1]), gold, line_no)


def iter_corpus(source: str | os.PathLike | IO | Iterable[str | bytes]) -> Iterator[CorpusRecord]:
    """Yield the records of a JSON-lines corpus one at a time, from a path,
    a stream, or an iterable of lines (``str`` or UTF-8 ``bytes``).

    Structure is validated here; span validity against the sentence is
    the engine's per-record concern, so files with out-of-range concepts
    still load.  A malformed line, including one that is not UTF-8,
    raises :class:`CorpusError` naming its line number once every record
    before it has been yielded.
    """
    if isinstance(source, (str, os.PathLike)):
        with open_corpus(source) as fh:
            yield from _iter_lines(fh)
    else:
        yield from _iter_lines(source)


def open_corpus(path: str | os.PathLike | int) -> IO[str]:
    """Open a corpus file, or a file descriptor (left open on close), as
    UTF-8 text for :func:`iter_corpus`.  Undecodable bytes are read as lone
    surrogates, so that the reader can name the line they are on."""
    return open(path, encoding="utf-8", errors="surrogateescape", closefd=not isinstance(path, int))


def _iter_lines(lines: Iterable[str | bytes]) -> Iterator[CorpusRecord]:
    loads = json.loads
    for line_no, line in enumerate(lines, start=1):
        if type(line) is bytes:
            line = line.decode("utf-8", "surrogateescape")
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusError(f"line {line_no}: not valid UTF-8 text") from None
        line = line.strip()
        if not line:
            continue
        try:
            obj = loads(line)
        except json.JSONDecodeError as err:
            raise CorpusError(f"line {line_no}: invalid JSON ({err.msg})") from None
        except (ValueError, RecursionError) as err:
            # an integer past the conversion digit limit, or nesting too deep
            raise CorpusError(f"line {line_no}: invalid JSON ({err})") from None
        yield _record_from_obj(obj, line_no, line)


def read_corpus(source: str | os.PathLike | IO | Iterable[str | bytes]) -> list[CorpusRecord]:
    """:func:`iter_corpus` as a list."""
    return list(iter_corpus(source))


_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def dumps_record(obj: dict) -> str:
    """Serialize a dict the way corpus files write their values; the
    strings in it are written as :func:`json.encoder.encode_basestring`
    writes them."""
    return _encode(obj)


def record_head(record: CorpusRecord) -> str:
    """``record``'s JSON line up to its closing brace, so that a writer can
    add keys: ``{"tokens":[...],"concept":[start,end]``, then ``,"gold":{...}``
    if the record has gold labels."""
    concept = record.concept
    head = (
        f'{{"tokens":[{",".join(map(encode_basestring, record.tokens))}],'
        f'"concept":[{concept.start},{concept.end}]'
    )
    if record.gold is not None:
        head += ',"gold":' + dumps_record(record.gold)
    return head


def write_corpus(records: Iterable[CorpusRecord], stream: IO[str]) -> None:
    """Write records as JSON lines, the form :func:`iter_corpus` reads."""
    write = stream.write
    for record in records:
        write(record_head(record) + "}\n")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic corpus generator."""

    seed: int
    sentence_count: int
    vocab_size: int = 200
    min_len: int = 6
    max_len: int = 14
    cue_injection_rate: float = 0.3

    def __post_init__(self) -> None:
        if self.sentence_count <= 0 or self.vocab_size <= 0:
            raise ConfigError("counts must be positive")
        if not (1 <= self.min_len <= self.max_len):
            raise ConfigError(
                f"impossible sentence length range [{self.min_len}, {self.max_len}]"
            )
        if not (0.0 <= self.cue_injection_rate <= 1.0):
            raise ConfigError("cue_injection_rate must be in [0, 1]")


def generate_rules(
    seed: int,
    count: int,
    *,
    cue_types: Sequence[CueType] = (CueType.TRIGGER, CueType.PSEUDO, CueType.TERMINATION),
    values: Sequence[RuleValue] = tuple(RuleValue),
    wildcard_rate: float = 0.05,
) -> RuleSet:
    """Deterministic synthetic rule set: phrases of 1-5 tokens over a fixed
    vocabulary, ``wildcard_rate`` of them carrying one wildcard, mixed cue
    types, directions and values.

    For a fixed configuration the generator has the prefix property: the
    first k rules are identical for any count >= k.
    """
    if count < 1:
        raise ConfigError("rule count must be >= 1")
    rng = random.Random(seed)
    type_weights = {CueType.TRIGGER: 70, CueType.PSEUDO: 10, CueType.TERMINATION: 20}
    value_weights = {
        RuleValue.NEGATED: 40, RuleValue.POSSIBLE: 15, RuleValue.NONPATIENT: 20,
        RuleValue.HISTORICAL: 15, RuleValue.HYPOTHETICAL: 10,
    }
    directions = (Direction.FORWARD, Direction.BACKWARD, Direction.BIDIRECTIONAL)
    seen: set[tuple] = set()
    rules: list[ContextRule] = []
    while len(rules) < count:
        length = rng.choices((1, 2, 3, 4, 5), weights=(25, 35, 20, 12, 8))[0]
        phrase = [rng.choice(RULE_VOCAB) for _ in range(length)]
        # wildcards never lead a phrase: a bare or leading wildcard would
        # fire on every token
        if length >= 2 and rng.random() < wildcard_rate:
            phrase[rng.randrange(1, length)] = WILDCARD
        cue_type = rng.choices(list(cue_types), weights=[type_weights[t] for t in cue_types])[0]
        value = rng.choices(list(values), weights=[value_weights[v] for v in values])[0]
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
    vocab = _filler_vocab(config.vocab_size)
    injectable = [
        r for r in ruleset
        if r.cue_type is CueType.TRIGGER and r.window >= 1
    ]
    records = []
    for _ in range(config.sentence_count):
        length = rng.randint(config.min_len, config.max_len)
        tokens = [rng.choice(vocab) for _ in range(length)]
        concept_len = rng.randint(1, min(3, length))
        concept_start = rng.randint(0, length - concept_len)
        concept = ConceptSpan(concept_start, concept_start + concept_len)
        if injectable and rng.random() < config.cue_injection_rate:
            rule = rng.choice(injectable)
            cue = [rng.choice(vocab) if t == WILDCARD else t for t in rule.phrase]
            gap = rng.randint(0, min(2, rule.window - 1))
            before = rule.direction is Direction.FORWARD or (
                rule.direction is Direction.BIDIRECTIONAL and rng.random() < 0.5
            )
            if before:
                at = concept.start
                tokens[at:at] = cue + [rng.choice(vocab) for _ in range(gap)]
                shift = len(cue) + gap
                concept = ConceptSpan(concept.start + shift, concept.end + shift)
            else:
                at = concept.end
                tokens[at:at] = [rng.choice(vocab) for _ in range(gap)] + cue
        annotation = engine.annotate(tokens, concept, ruleset, trie=None)
        gold = {
            "negation": annotation.negation.value,
            "experiencer": annotation.experiencer.value,
            "temporality": annotation.temporality.value,
        }
        records.append(CorpusRecord(tokens=tokens, concept=concept, gold=gold))
    return records
