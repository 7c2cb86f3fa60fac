"""Speed and accuracy harnesses over an incremental rule ramp.

The speed harness runs the paper's scaling experiment: it times
:func:`engine.annotate_records` over a whole corpus with both matchers,
naive and trie, at each rule-count step, repeating each measurement and
reporting mean/stddev milliseconds.  The ramp starts from a base rule set
kept in file order and grows it with rules drawn in seeded random order
from an extension pool, so the schedule is replayable.  Trie construction
happens once per step and is reported separately (``build_ms``), never
inside the timed region; the timed region is strictly single-threaded.

The seeds are fixed: the rule set is ``generate rules --seed 7``, the ramp
adds rules in the order seed 11 gives, and the corpus, unless one is read
from a file, is ``generate corpus --seed 97 --rule-count BASE``.  Any other
corpus is written with ``generate corpus`` and passed as ``corpus_path``.

The accuracy harness walks the same ramp but scores each step's
predictions against fixed gold labels instead of timing it.
"""

from __future__ import annotations

import gc
import io
import csv
import math
import platform
import random
import statistics
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterator, Sequence

from .corpus import (
    RULE_SEED, ConfigError, CorpusRecord, GeneratorConfig, generate_corpus, generate_rules,
    iter_corpus,
)
from .engine import ConceptSpan, annotate_records
from .evaluate import EvalReport, score
from .matcher import build_trie
from .rules import ContextRule, RuleSet

#: Seeds of the order the ramp adds rules in and of the generated corpus
#: (the rule set's is ``corpus.RULE_SEED``).
RAMP_SEED = 11
CORPUS_SEED = 97

# Default thresholds enforced by --check: the naive matcher must slow down
# noticeably over the ramp while the trie stays near-flat and at least an
# order of magnitude faster at the final step.
NAIVE_RATIO_MIN = 1.5
TRIE_RATIO_MAX = 1.3
TRIE_FLATNESS_MAX = 1.5
SPEARMAN_MIN = 0.9
FINAL_SPEEDUP_MIN = 10.0


@dataclass(frozen=True)
class BenchConfig:
    """The ramp from ``base_rule_count`` to ``final_rule_count`` rules, and
    the corpus it times: the file at ``corpus_path``, or else
    ``corpus_size`` generated sentences."""

    base_rule_count: int = 409
    final_rule_count: int = 849
    step: int = 50
    runs_per_step: int = 20
    warmup_runs: int = 2
    corpus_path: str | None = None
    corpus_size: int = 1000

    def __post_init__(self) -> None:
        if self.runs_per_step < 1:
            raise ConfigError("runs_per_step must be >= 1")
        if self.warmup_runs < 0:
            raise ConfigError("warmup_runs must be >= 0")


@dataclass(frozen=True)
class BenchRow:
    rule_count: int
    engine: str
    mean_ms: float
    stddev_ms: float
    build_ms: float
    speedup_vs_naive: float | None = None


@dataclass(frozen=True)
class BenchReport:
    """A ramp's rows: a naive row, then a trie row, per step in ramp order."""

    rows: tuple[BenchRow, ...]
    environment: str
    started: str


def step_schedule(base: int, final: int, step: int) -> list[int]:
    """Rule counts per step: base, base+step, ... final (last step may be
    shorter).  Every ramp goes through here, and so through its checks.

    >>> step_schedule(409, 849, 50)[:3]
    [409, 459, 509]
    """
    if not (1 <= base <= final):
        raise ConfigError("need 1 <= base_rule_count <= final_rule_count")
    if step < 1:
        raise ConfigError("step must be >= 1")
    counts = [base]
    while counts[-1] < final:
        counts.append(min(counts[-1] + step, final))
    return counts


def ramp_rule_sets(
    full: RuleSet, base: int, step: int, ramp_seed: int
) -> Iterator[tuple[int, RuleSet]]:
    """Yield (rule_count, RuleSet) per step.

    The first ``base`` rules keep their order; the rest are appended in a
    seeded random order, each step extending the previous one.
    """
    base_rules: list[ContextRule] = list(full.rules[:base])
    pool = list(full.rules[base:])
    random.Random(ramp_seed).shuffle(pool)
    for count in step_schedule(base, len(full), step):
        rules = base_rules + pool[: count - base]
        yield count, RuleSet.from_rules(rules)


def _load_bench_corpus(config: BenchConfig, full: RuleSet) -> list[CorpusRecord]:
    if config.corpus_path is not None:
        return list(iter_corpus(config.corpus_path))
    # Inject cues from the base rules only: the workload stays fixed over
    # the ramp (as with a natural corpus and a growing lexicon), so per-step
    # time differences come from the matchers, not from extra matches.
    base = RuleSet.from_rules(full.rules[: config.base_rule_count])
    return generate_corpus(GeneratorConfig(CORPUS_SEED, config.corpus_size), base)


def _stdev(times_ms: list[float]) -> float:
    return statistics.stdev(times_ms) if len(times_ms) > 1 else 0.0


def run_ramp(config: BenchConfig) -> BenchReport:
    """Run the timed ramp and return a naive and a trie row per step.

    Timed runs are interleaved round-robin across all (step, matcher)
    cells, so slow phases of the host machine spread evenly over the ramp
    instead of biasing the steps that happen to run last.
    """
    # a bad ramp fails before the rules and the corpus are generated
    step_schedule(config.base_rule_count, config.final_rule_count, config.step)
    full = generate_rules(RULE_SEED, config.final_rule_count)
    records = _load_bench_corpus(config, full)
    pairs: list[tuple[list[str], ConceptSpan]] = [(r.tokens, r.concept) for r in records]

    steps = []  # (count, build_ms, naive times_ms, trie times_ms)
    cells = []  # (ruleset, trie or None, times_ms): a naive and a trie cell per step
    for count, ruleset in ramp_rule_sets(full, config.base_rule_count, config.step, RAMP_SEED):
        t0 = time.perf_counter()
        trie = build_trie(ruleset)
        build_ms = (time.perf_counter() - t0) * 1000.0
        naive_ms, trie_ms = [], []
        steps.append((count, build_ms, naive_ms, trie_ms))
        cells += (ruleset, None, naive_ms), (ruleset, trie, trie_ms)
    for _ in range(config.warmup_runs):
        for ruleset, trie, _ in cells:
            list(annotate_records(pairs, ruleset, trie))
    for _ in range(config.runs_per_step):
        for ruleset, trie, times_ms in cells:
            gc.collect()
            t0 = time.perf_counter()
            list(annotate_records(pairs, ruleset, trie))
            times_ms.append((time.perf_counter() - t0) * 1000.0)

    rows: list[BenchRow] = []
    for count, build_ms, naive_ms, trie_ms in steps:
        naive_mean, trie_mean = statistics.fmean(naive_ms), statistics.fmean(trie_ms)
        rows.append(BenchRow(count, "naive", naive_mean, _stdev(naive_ms), 0.0))
        rows.append(BenchRow(
            count, "trie", trie_mean, _stdev(trie_ms), build_ms, naive_mean / trie_mean
        ))
    environment = (
        f"{platform.node()} {platform.system()} {platform.release()} "
        f"Python {platform.python_version()}"
    )
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return BenchReport(rows=tuple(rows), environment=environment, started=started)


def emit_report(report: BenchReport, fmt: str = "csv") -> str:
    """Render a report as CSV (fixed columns) or a per-step text table."""
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["rule_count", "engine", "mean_ms", "stddev_ms", "speedup_vs_naive"])
        for row in report.rows:
            speedup = "" if row.speedup_vs_naive is None else f"{row.speedup_vs_naive:.2f}"
            writer.writerow([
                row.rule_count, row.engine, f"{row.mean_ms:.3f}", f"{row.stddev_ms:.3f}", speedup,
            ])
        return out.getvalue()
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [
        f"# environment: {report.environment}",
        f"# started: {report.started}",
        "# mean processing time per run (ms), stddev in parens; trie build time separate",
        f"{'rules':>6}  {'naive':>20}  {'trie':>20}  {'build_ms':>9}  {'speedup':>8}",
    ]
    rows = iter(report.rows)
    for naive, trie in zip(rows, rows):
        means = "  ".join(f"{row.mean_ms:>12.1f} ({row.stddev_ms:>4.1f})" for row in (naive, trie))
        lines.append(
            f"{naive.rule_count:>6}  {means}  {trie.build_ms:>9.2f}  {trie.speedup_vs_naive:>8.1f}"
        )
    return "\n".join(lines) + "\n"


def check_report(report: BenchReport) -> list[str]:
    """Scaling-shape assertions; returns a list of failure descriptions."""
    failures: list[str] = []
    naive = {row.rule_count: row.mean_ms for row in report.rows if row.engine == "naive"}
    trie = {row.rule_count: row.mean_ms for row in report.rows if row.engine == "trie"}
    if len(naive) > 1:
        first, last = min(naive), max(naive)
        ratio = naive[last] / naive[first]
        if ratio < NAIVE_RATIO_MIN:
            failures.append(
                f"naive mean ratio {last}/{first} = {ratio:.2f} < {NAIVE_RATIO_MIN}"
            )
        counts = sorted(naive)
        rho = spearman(counts, [naive[c] for c in counts])
        if not rho >= SPEARMAN_MIN:  # NaN, from constant means, fails too
            failures.append(f"spearman(rule_count, naive mean) = {rho:.3f} < {SPEARMAN_MIN}")
        ratio = trie[last] / trie[first]
        if ratio > TRIE_RATIO_MAX:
            failures.append(
                f"trie mean ratio {last}/{first} = {ratio:.2f} > {TRIE_RATIO_MAX}"
            )
        flatness = max(trie.values()) / min(trie.values())
        if flatness > TRIE_FLATNESS_MAX:
            failures.append(f"trie max/min over ramp = {flatness:.2f} > {TRIE_FLATNESS_MAX}")
    final = report.rows[-1]  # the trie row of the last step
    if final.speedup_vs_naive < FINAL_SPEEDUP_MIN:
        failures.append(
            f"trie speedup at {final.rule_count} rules = "
            f"{final.speedup_vs_naive:.1f}x < {FINAL_SPEEDUP_MIN}x"
        )
    return failures


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation, tied values sharing their average rank.

    NaN when either input is constant, as ``scipy.stats.spearmanr`` gives.
    """
    try:
        return statistics.correlation(_ranks(xs), _ranks(ys))
    except statistics.StatisticsError:
        return math.nan


def _ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks of ``values``; a run of equal values gets their mean rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and values[order[end]] == values[order[start]]:
            end += 1
        for k in order[start:end]:
            ranks[k] = (start + end + 1) / 2
        start = end
    return ranks


@dataclass(frozen=True)
class AccuracyStep:
    rule_count: int
    report: EvalReport


def run_accuracy_ramp(
    full: RuleSet,
    records: Sequence[CorpusRecord],
    *,
    base: int,
    step: int,
    ramp_seed: int,
) -> list[AccuracyStep]:
    """Score each ramp step's predictions against the records' gold labels."""
    pairs = [(r.tokens, r.concept) for r in records]
    steps = []
    for count, ruleset in ramp_rule_sets(full, base, step, ramp_seed):
        predictions = annotate_records(pairs, ruleset, build_trie(ruleset))
        steps.append(AccuracyStep(rule_count=count, report=score(zip(predictions, records))))
    return steps
