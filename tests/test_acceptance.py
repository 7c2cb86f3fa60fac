"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
benchmark table.  The timing criteria (C2, C3) share one ramp run at the
reference configuration and dominate the suite's wall time.
"""

import io
import random

import pytest

from cuescope.bench import BenchConfig, emit_report, run_accuracy_ramp, run_ramp, spearman
from cuescope.corpus import (
    GeneratorConfig,
    generate_corpus,
    generate_rules,
    iter_corpus,
    write_corpus,
)
from cuescope.engine import (
    ConceptSpan,
    ExperiencerStatus,
    NegationStatus,
    TemporalityStatus,
    annotate,
)
from cuescope.evaluate import ClassMetrics, score
from cuescope.matcher import build_trie, find_matches_naive, find_matches_trie
from cuescope.rules import (
    WILDCARD,
    ContextRule,
    CueType,
    Direction,
    RuleSet,
    RuleValue,
    load_rules,
    parse_rule_line,
    serialize_rules,
)


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# --- C1: oracle equivalence on randomized cases -------------------------

def _random_ruleset(rng: random.Random, size: int, vocab: list[str]) -> RuleSet:
    rules, seen = [], set()
    while len(rules) < size:
        length = rng.choices((1, 2, 3, 4, 5), weights=(30, 30, 20, 12, 8))[0]
        phrase = tuple(
            WILDCARD if rng.random() < 0.08 else rng.choice(vocab)
            for _ in range(length)
        )
        rule = ContextRule(
            id=len(rules),
            phrase=phrase,
            direction=rng.choice(tuple(Direction)),
            cue_type=rng.choice(tuple(CueType)),
            value=rng.choice(tuple(RuleValue)),
            window=rng.randint(0, 8),
        )
        if rule.key() in seen:
            continue
        seen.add(rule.key())
        rules.append(rule)
    return RuleSet.from_rules(rules)


def _random_sentence(rng: random.Random, ruleset: RuleSet, vocab: list[str]) -> list[str]:
    tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 60))]
    # splice in real rule phrases so matches, overlaps and wildcard binds
    # are exercised densely
    for _ in range(rng.randint(0, 2)):
        phrase = rng.choice(ruleset.rules).phrase
        concrete = [rng.choice(vocab) if t == WILDCARD else t for t in phrase]
        at = rng.randint(0, len(tokens))
        tokens[at:at] = concrete
    return tokens[:60]


def test_c1_oracle_equivalence():
    rng = random.Random(0xC1)
    vocab = [f"v{i}" for i in range(40)]
    sizes = [rng.randint(1, 50) for _ in range(70)]
    sizes += [rng.randint(51, 300) for _ in range(20)]
    sizes += [rng.randint(301, 1000) for _ in range(10)]
    cases = 0
    for size in sizes:
        ruleset = _random_ruleset(rng, size, vocab)
        trie = build_trie(ruleset)
        for _ in range(100):
            tokens = _random_sentence(rng, ruleset, vocab)
            assert find_matches_trie(trie, tokens) == find_matches_naive(ruleset, tokens)
            start = rng.randrange(len(tokens))
            end = rng.randint(start + 1, len(tokens))
            concept = ConceptSpan(start, end)
            assert annotate(tokens, concept, ruleset, trie) == \
                annotate(tokens, concept, ruleset, None)
            cases += 1
    _criterion("C1 oracle-equivalence", cases >= 10_000, f"{cases} cases, all equal")


# --- C2/C3: scaling shape and relative speedup ---------------------------

@pytest.fixture(scope="module")
def reference_ramp():
    report = run_ramp(BenchConfig())  # reference configuration
    print()
    print(emit_report(report, "table"))
    return report


def _means(report, engine):
    return {row.rule_count: row.mean_ms for row in report.rows if row.engine == engine}


def test_c2_scaling_shape(reference_ramp):
    naive = _means(reference_ramp, "naive")
    trie = _means(reference_ramp, "trie")
    counts = sorted(naive)
    assert counts == [409, 459, 509, 559, 609, 659, 709, 759, 809, 849]
    naive_ratio = naive[849] / naive[409]
    trie_ratio = trie[849] / trie[409]
    rho = spearman(counts, [naive[c] for c in counts])
    ok = naive_ratio >= 1.5 and trie_ratio <= 1.3 and rho >= 0.9
    _criterion(
        "C2 scaling-shape", ok,
        f"naive 849/409 = {naive_ratio:.2f} (>=1.5), "
        f"trie 849/409 = {trie_ratio:.2f} (<=1.3), spearman = {rho:.3f} (>=0.9)",
    )


def test_c3_relative_speedup(reference_ramp):
    naive = _means(reference_ramp, "naive")
    trie = _means(reference_ramp, "trie")
    speedup = naive[849] / trie[849]
    _criterion("C3 relative-speedup", speedup >= 10.0, f"{speedup:.1f}x at 849 rules (>=10x)")


# --- C4: rule semantics suite --------------------------------------------

def _trigger(phrase, direction, window, value=RuleValue.NEGATED, rule_id=0):
    return ContextRule(rule_id, tuple(phrase.split()), direction, CueType.TRIGGER, value, window)


def test_c4_rule_semantics(starter_rules, hand_gold):
    checks: list[tuple[str, bool]] = []

    # window boundaries, exact at w and w+1
    for w in (1, 4, 9):
        rs = RuleSet.from_rules([_trigger("cue", Direction.FORWARD, w)])
        tokens = ["cue"] + [f"t{i}" for i in range(w + 2)]
        at_w = annotate(tokens, ConceptSpan(w, w + 1), rs).negation
        past_w = annotate(tokens, ConceptSpan(w + 1, w + 2), rs).negation
        checks.append((f"forward w={w}", at_w is NegationStatus.NEGATED
                       and past_w is NegationStatus.AFFIRMED))

        rs = RuleSet.from_rules([_trigger("cue", Direction.BACKWARD, w)])
        tokens = [f"t{i}" for i in range(w + 2)] + ["cue"]
        cue_at = w + 2
        at_w = annotate(tokens, ConceptSpan(cue_at - w, cue_at - w + 1), rs).negation
        past_w = annotate(tokens, ConceptSpan(cue_at - w - 1, cue_at - w), rs).negation
        checks.append((f"backward w={w}", at_w is NegationStatus.NEGATED
                       and past_w is NegationStatus.AFFIRMED))

        rs = RuleSet.from_rules([_trigger("cue", Direction.BIDIRECTIONAL, w)])
        tokens = [f"a{i}" for i in range(w + 1)] + ["cue"] + [f"b{i}" for i in range(w + 1)]
        cue_at = w + 1
        affected = {
            i for i in range(len(tokens))
            if annotate(tokens, ConceptSpan(i, i + 1), rs).negation is NegationStatus.NEGATED
        }
        expected = set(range(cue_at - w, cue_at)) | set(range(cue_at + 1, cue_at + 1 + w))
        checks.append((f"bidirectional w={w}", affected == expected))

    # termination truncation: scope stops at the termination's first token
    rs = RuleSet.from_rules([
        _trigger("no", Direction.FORWARD, 30),
        ContextRule(1, ("although",), Direction.FORWARD, CueType.TERMINATION,
                    RuleValue.NEGATED, 30),
    ])
    tokens = ["no", "c1", "c2", "although", "c4", "c5"]
    cut = [annotate(tokens, ConceptSpan(i, i + 1), rs).negation for i in (1, 2, 4, 5)]
    checks.append(("termination truncation",
                   cut == [NegationStatus.NEGATED, NegationStatus.NEGATED,
                           NegationStatus.AFFIRMED, NegationStatus.AFFIRMED]))

    # pseudo suppression: "false negative" silences the "negative" trigger
    rs = RuleSet.from_rules([
        _trigger("negative", Direction.BACKWARD, 30),
        ContextRule(1, ("false", "negative"), Direction.BIDIRECTIONAL,
                    CueType.PSEUDO, RuleValue.NEGATED, 30),
    ])
    tokens = ["the", "test", "was", "false", "negative"]
    suppressed = annotate(tokens, ConceptSpan(1, 2), rs).negation
    without_pseudo = annotate(
        tokens, ConceptSpan(1, 2), RuleSet.from_rules(rs.rules[:1])
    ).negation
    checks.append(("pseudo suppression",
                   suppressed is NegationStatus.AFFIRMED
                   and without_pseudo is NegationStatus.NEGATED))

    # defaults with empty rules
    empty = annotate(["plain", "words"], ConceptSpan(0, 1), RuleSet(rules=()))
    checks.append(("defaults", (empty.negation, empty.experiencer, empty.temporality)
                   == (NegationStatus.AFFIRMED, ExperiencerStatus.PATIENT,
                       TemporalityStatus.RECENT)))

    # rule-order permutation invariance over the hand corpus
    rng = random.Random(0xC4)
    invariant = True
    for _ in range(5):
        shuffled = list(starter_rules.rules)
        rng.shuffle(shuffled)
        permuted = RuleSet.from_rules(shuffled)
        for record in hand_gold:
            a = annotate(record.tokens, record.concept, starter_rules)
            b = annotate(record.tokens, record.concept, permuted)
            same_values = (a.negation, a.experiencer, a.temporality) == \
                (b.negation, b.experiencer, b.temporality)
            same_spans = {d: (c.start, c.end) for d, c in a.evidence.items()} == \
                {d: (c.start, c.end) for d, c in b.evidence.items()}
            if not (same_values and same_spans):
                invariant = False
    checks.append(("order permutation invariance", invariant))

    failed = [name for name, ok in checks if not ok]
    _criterion("C4 rule-semantics", not failed,
               f"{len(checks)} checks" + (f"; failed: {failed}" if failed else ""))


# --- C5: metrics arithmetic ----------------------------------------------

def test_c5_metrics_arithmetic():
    exact = ClassMetrics(tp=2, fp=1, fn=1)
    zero = ClassMetrics(0, 0, 0)
    perfect = ClassMetrics(tp=5, fp=0, fn=0)
    ok = (
        exact.f == pytest.approx(2 / 3)
        and exact.precision == pytest.approx(2 / 3)
        and zero.precision == zero.recall == zero.f == 0.0
        and ClassMetrics(0, 3, 0).f == 0.0
        and perfect.f == 1.0
    )
    _criterion("C5 metrics-arithmetic", ok, "F(2,1,1)=2/3, zero-denominator=0, perfect=1")


# --- C6: accuracy-ramp shape ----------------------------------------------

def test_c6_accuracy_ramp(starter_rules, hand_gold):
    full = generate_rules(7, 849)
    records = generate_corpus(
        GeneratorConfig(seed=29, sentence_count=400, cue_injection_rate=0.35), full
    )
    steps = run_accuracy_ramp(full, records, base=409, step=50, ramp_seed=11)
    series = [step.report.classes["negated"].f for step in steps]
    non_decreasing = all(b >= a for a, b in zip(series, series[1:]))
    reaches_one = series[-1] == 1.0

    # fixed hand gold, rules halved: F strictly below 1.0 with frozen counts
    half = RuleSet.from_rules(starter_rules.rules[: len(starter_rules) // 2])
    predictions = [annotate(r.tokens, r.concept, half) for r in hand_gold]
    report = score(zip(predictions, hand_gold))
    negated = report.classes["negated"]
    drops = (
        negated.f < 1.0
        and (negated.tp, negated.fp, negated.fn) == (17, 7, 0)
        and report.classes["possible"].tp == 8
        and report.classes["other"].fn == 6
    )
    _criterion(
        "C6 accuracy-ramp", non_decreasing and reaches_one and drops,
        f"negated-F {series[0]:.3f} -> {series[-1]:.3f} non-decreasing; "
        f"halved rules: F={negated.f:.3f}, tp/fp/fn = 17/7/0",
    )


# --- C7: format round-trips -----------------------------------------------

PAPER_LINES = [
    "can rule out\tforward\ttrigger\tnegated\t10",
    "although\tforward\ttermination\tnegated\t30",
    "false negative\tboth\tpseudo\tnegated\t30",
]


def test_c7_format_round_trips(hand_gold_path):
    first = parse_rule_line(PAPER_LINES[0])
    second = parse_rule_line(PAPER_LINES[1])
    third = parse_rule_line(PAPER_LINES[2])
    fields_ok = (
        first.phrase == ("can", "rule", "out")
        and first.direction is Direction.FORWARD
        and first.cue_type is CueType.TRIGGER
        and first.value is RuleValue.NEGATED
        and first.window == 10
        and second.cue_type is CueType.TERMINATION
        and second.window == 30
        and third.direction is Direction.BIDIRECTIONAL
        and third.cue_type is CueType.PSEUDO
    )
    ruleset = load_rules(io.StringIO("\n".join(PAPER_LINES) + "\n"))
    lines = serialize_rules(ruleset).splitlines()
    serialization_ok = (
        lines[0] == PAPER_LINES[0]
        and lines[1] == PAPER_LINES[1]
        and lines[2] == PAPER_LINES[2].replace("both", "bidirectional")
    )
    def jsonl(records):
        out = io.StringIO()
        write_corpus(records, out)
        return out.getvalue()

    hand_text = hand_gold_path.read_text(encoding="utf-8")
    corpus_ok = jsonl(iter_corpus(io.StringIO(hand_text))) == hand_text
    generated = generate_corpus(
        GeneratorConfig(seed=8, sentence_count=40), generate_rules(8, 60)
    )
    corpus_ok = corpus_ok and list(iter_corpus(io.StringIO(jsonl(generated)))) == generated
    _criterion(
        "C7 format-round-trips", fields_ok and serialization_ok and corpus_ok,
        "rule lines bit-exact modulo both->bidirectional; corpus JSONL fixed point",
    )
