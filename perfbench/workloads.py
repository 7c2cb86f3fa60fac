"""Seeded inputs for the annotate benchmark.

Every workload uses the 849-rule set ``generate_rules(7, 849)``, the
final step of the paper's rule ramp, and a JSON-lines corpus made from
the workload seed.  Corpus records carry ``tokens`` and ``concept`` only:
no gold labels, because labelling with the naive engine costs far more
than the benchmark itself (the benchmark checks outputs against the naive
oracle on a seeded sample instead).

Tokens are lowercase.  Filler words (``w000``..``w199``) never occur in a
rule phrase, so every cue match comes from an injected phrase or from
injected phrases that happen to combine.

Run as a script to write the inputs and print each workload's properties::

    python3 perfbench/workloads.py --seed 1 --out .perfbench/inputs
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

RULE_SEED = 7
RULE_COUNT = 849
WILDCARD = r"\w+"
FILLER = tuple(f"w{i:03d}" for i in range(200))

#: A rule phrase and its cue type, as read back from the rule file.
Cue = tuple[tuple[str, ...], str]


def rules_text() -> str:
    """The 849-rule file, produced by the program's own seeded generator."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cuescope.corpus import generate_rules
    from cuescope.rules import serialize_rules

    return serialize_rules(generate_rules(RULE_SEED, RULE_COUNT))


def parse_cues(text: str) -> list[Cue]:
    cues = []
    for line in text.splitlines():
        cols = line.split("\t")
        cues.append((tuple(cols[0].split(" ")), cols[2]))
    return cues


def _sentence(
    rng: random.Random, filler_count: int, concept_count: int, phrases: list[tuple[str, ...]]
) -> tuple[list[str], list[list[int]]]:
    """Filler words with ``concept_count`` concept spans of 1-3 filler
    words and the given cue phrases, each inserted at a random place.

    ``filler_count`` includes the concept words.  Wildcards in a phrase
    become filler words.  Returns the tokens and the concept spans in
    sentence order.
    """
    concept_lens = [rng.randint(1, 3) for _ in range(concept_count)]
    chunks: list[tuple[bool, list[str]]] = [
        (False, [rng.choice(FILLER)])
        for _ in range(max(0, filler_count - sum(concept_lens)))
    ]
    for length in concept_lens:
        chunks.insert(rng.randint(0, len(chunks)), (True, [rng.choice(FILLER) for _ in range(length)]))
    for phrase in phrases:
        words = [rng.choice(FILLER) if w == WILDCARD else w for w in phrase]
        chunks.insert(rng.randint(0, len(chunks)), (False, words))
    tokens: list[str] = []
    spans: list[list[int]] = []
    for is_concept, words in chunks:
        if is_concept:
            spans.append([len(tokens), len(tokens) + len(words)])
        tokens.extend(words)
    return tokens, spans


Record = tuple[list[str], list[int]]


def sparse_short(rng: random.Random, cues: list[Cue], count: int) -> list[Record]:
    triggers = [phrase for phrase, cue_type in cues if cue_type == "trigger"]
    records = []
    for _ in range(count):
        phrases = [rng.choice(triggers)] if rng.random() < 0.3 else []
        tokens, spans = _sentence(rng, rng.randint(6, 14), 1, phrases)
        records.append((tokens, spans[0]))
    return records


def dense_long(rng: random.Random, cues: list[Cue], count: int) -> list[Record]:
    phrases = [phrase for phrase, _ in cues]
    records = []
    for _ in range(count):
        chosen = [rng.choice(phrases) for _ in range(rng.randint(4, 10))]
        tokens, spans = _sentence(rng, rng.randint(30, 60), 1, chosen)
        records.append((tokens, spans[0]))
    return records


def multi_concept(rng: random.Random, cues: list[Cue], count: int) -> list[Record]:
    phrases = [phrase for phrase, _ in cues]
    records: list[Record] = []
    while len(records) < count:
        chosen = [rng.choice(phrases) for _ in range(rng.randint(1, 3))]
        tokens, spans = _sentence(rng, rng.randint(15, 30), rng.randint(4, 8), chosen)
        # each record gets its own token list, as a JSON reader would give it
        records.extend((list(tokens), span) for span in spans)
    return records[:count]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Records in the corpus; sized so one CLI pass takes about a second.
    records: int
    make: Callable[[random.Random, list[Cue], int], list[Record]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse-short",
            "6-14 tokens, a cue in 30% of sentences: JSON read and write dominate, "
            "so corpus and cli changes show and engine changes barely do",
            20000,
            sparse_short,
        ),
        Workload(
            "dense-long",
            "30-60 tokens plus 4-10 cues of every type: trie match and scope "
            "resolution dominate, so matcher and engine changes show",
            4000,
            dense_long,
        ),
        Workload(
            "multi-concept",
            "each sentence repeats as 4-8 records with different concepts: "
            "work shared across concepts shows, and a per-sentence cache pays off only here",
            8000,
            multi_concept,
        ),
    )
}


def generate(name: str, seed: int, cues: list[Cue]) -> list[Record]:
    workload = WORKLOADS[name]
    return workload.make(random.Random(f"cuescope-bench:{name}:{seed}"), cues, workload.records)


def dumps_jsonl(records: list[Record]) -> str:
    return "".join(
        json.dumps({"tokens": tokens, "concept": concept}, separators=(",", ":")) + "\n"
        for tokens, concept in records
    )


def repeat_share(records: list[Record]) -> float:
    """Share of records whose tokens equal the previous record's."""
    repeats = sum(1 for prev, cur in zip(records, records[1:]) if prev[0] == cur[0])
    return repeats / len(records)


def properties(records: list[Record], rules: str) -> dict:
    """Records, tokens and trie matches per record, and the repeat share."""
    from cuescope import build_trie, find_matches_trie, load_rules

    trie = build_trie(load_rules(io.StringIO(rules)))
    matches = sum(len(find_matches_trie(trie, tokens)) for tokens, _ in records)
    tokens = sum(len(tokens) for tokens, _ in records)
    return {
        "records": len(records),
        "tokens_per_record": tokens / len(records),
        "matches_per_record": matches / len(records),
        "repeat_share": repeat_share(records),
    }


def write_inputs(out: Path, seed: int, names=tuple(WORKLOADS)) -> dict[str, list[Record]]:
    """Write ``rules.tsv``, ``empty.jsonl`` and ``<name>.jsonl`` for each
    named workload; return the records."""
    out.mkdir(parents=True, exist_ok=True)
    rules = rules_text()
    (out / "rules.tsv").write_text(rules, encoding="utf-8")
    (out / "empty.jsonl").write_text("", encoding="utf-8")
    cues = parse_cues(rules)
    corpora = {name: generate(name, seed, cues) for name in names}
    for name, records in corpora.items():
        (out / f"{name}.jsonl").write_text(dumps_jsonl(records), encoding="utf-8")
    return corpora


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "inputs")
    args = parser.parse_args(argv)
    if not (SRC / "cuescope").is_dir():
        print(f"error: no cuescope sources under {SRC}", file=sys.stderr)
        return 2
    corpora = write_inputs(args.out, args.seed)
    rules = (args.out / "rules.tsv").read_text(encoding="utf-8")
    print(f"{'workload':<14} {'records':>8} {'tokens/rec':>10} {'matches/rec':>11} {'repeat':>6}  why")
    for name, workload in WORKLOADS.items():
        p = properties(corpora[name], rules)
        print(
            f"{name:<14} {p['records']:>8} {p['tokens_per_record']:>10.1f} "
            f"{p['matches_per_record']:>11.2f} {p['repeat_share']:>6.2f}  {workload.why}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
