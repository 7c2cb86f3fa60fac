"""Speed and accuracy harnesses over an incremental rule ramp.

The speed harness times :func:`engine.annotate_records` over a whole corpus,
per rule-count step and per matcher, repeating each measurement and
reporting mean/stddev milliseconds.  The ramp starts from a base rule set
kept in file order and grows it with rules drawn in seeded random order
from an extension pool, so the schedule is replayable.  Trie construction
happens once per step and is reported separately (``build_ms``), never
inside the timed region; the timed region is strictly single-threaded.

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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterator, Sequence

from .corpus import ConfigError, CorpusRecord, GeneratorConfig, generate_corpus, generate_rules
from .engine import ConceptSpan, annotate_records
from .evaluate import EvalReport, score
from .matcher import build_trie
from .rules import ContextRule, RuleSet

ENGINES = ("naive", "trie")

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
    base_rule_count: int = 409
    final_rule_count: int = 849
    step: int = 50
    runs_per_step: int = 20
    warmup_runs: int = 2
    engines: tuple[str, ...] = ENGINES
    rule_seed: int = 7
    ramp_seed: int = 11
    corpus_path: str | None = None
    corpus: GeneratorConfig = field(
        default_factory=lambda: GeneratorConfig(seed=97, sentence_count=1000)
    )

    def __post_init__(self) -> None:
        if not (1 <= self.base_rule_count <= self.final_rule_count):
            raise ConfigError("need 1 <= base_rule_count <= final_rule_count")
        if self.step < 1:
            raise ConfigError("step must be >= 1")
        if self.runs_per_step < 1:
            raise ConfigError("runs_per_step must be >= 1")
        if self.warmup_runs < 0:
            raise ConfigError("warmup_runs must be >= 0")
        unknown = set(self.engines) - set(ENGINES)
        if unknown or not self.engines:
            raise ConfigError(f"engines must be a non-empty subset of {ENGINES}")


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
    rows: tuple[BenchRow, ...]
    environment: str
    started: str


def step_schedule(base: int, final: int, step: int) -> list[int]:
    """Rule counts per step: base, base+step, ... final (last step may be
    shorter).

    >>> step_schedule(409, 849, 50)[:3]
    [409, 459, 509]
    """
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
        from .corpus import read_corpus

        return read_corpus(config.corpus_path)
    # Inject cues from the base rules only: the workload stays fixed over
    # the ramp (as with a natural corpus and a growing lexicon), so per-step
    # time differences come from the matchers, not from extra matches.
    base = RuleSet.from_rules(full.rules[: config.base_rule_count])
    return generate_corpus(config.corpus, base)


def run_ramp(config: BenchConfig) -> BenchReport:
    """Run the timed ramp and return one row per (step, engine).

    Timed runs are interleaved round-robin across all (step, engine)
    cells, so slow phases of the host machine spread evenly over the ramp
    instead of biasing the steps that happen to run last.
    """
    full = generate_rules(config.rule_seed, config.final_rule_count)
    records = _load_bench_corpus(config, full)
    pairs: list[tuple[list[str], ConceptSpan]] = [(r.tokens, r.concept) for r in records]

    cells = []  # (count, engine, ruleset, trie, build_ms, times_ms)
    for count, ruleset in ramp_rule_sets(
        full, config.base_rule_count, config.step, config.ramp_seed
    ):
        for engine_name in config.engines:
            build_ms = 0.0
            trie = None
            if engine_name == "trie":
                t0 = time.perf_counter()
                trie = build_trie(ruleset)
                build_ms = (time.perf_counter() - t0) * 1000.0
            cells.append((count, engine_name, ruleset, trie, build_ms, []))
    for _ in range(config.warmup_runs):
        for _, _, ruleset, trie, _, _ in cells:
            list(annotate_records(pairs, ruleset, trie))
    for _ in range(config.runs_per_step):
        for _, _, ruleset, trie, _, times_ms in cells:
            gc.collect()
            t0 = time.perf_counter()
            list(annotate_records(pairs, ruleset, trie))
            times_ms.append((time.perf_counter() - t0) * 1000.0)

    by_cell: dict[tuple[int, str], BenchRow] = {}
    for count, engine_name, _, _, build_ms, times_ms in cells:
        mean = statistics.fmean(times_ms)
        stddev = statistics.stdev(times_ms) if len(times_ms) > 1 else 0.0
        by_cell[(count, engine_name)] = BenchRow(
            rule_count=count, engine=engine_name,
            mean_ms=mean, stddev_ms=stddev, build_ms=build_ms,
        )
    rows: list[BenchRow] = []
    for count in step_schedule(config.base_rule_count, config.final_rule_count, config.step):
        naive_row = by_cell.get((count, "naive"))
        for engine_name in config.engines:
            row = by_cell[(count, engine_name)]
            if engine_name == "trie" and naive_row is not None:
                row = BenchRow(
                    rule_count=row.rule_count, engine=row.engine,
                    mean_ms=row.mean_ms, stddev_ms=row.stddev_ms,
                    build_ms=row.build_ms,
                    speedup_vs_naive=naive_row.mean_ms / row.mean_ms,
                )
            rows.append(row)
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
    by_count: dict[int, dict[str, BenchRow]] = {}
    for row in report.rows:
        by_count.setdefault(row.rule_count, {})[row.engine] = row
    engines = [name for name in ENGINES if any(name in v for v in by_count.values())]
    lines = [
        f"# environment: {report.environment}",
        f"# started: {report.started}",
        "# mean processing time per run (ms), stddev in parens; trie build time separate",
    ]
    header = ["rules"] + [f"{e:>20}" for e in engines]
    if "trie" in engines:
        header += [f"{'build_ms':>9}", f"{'speedup':>8}"]
    lines.append("  ".join(f"{header[0]:>6}" if i == 0 else col for i, col in enumerate(header)))
    for count in sorted(by_count):
        cells = [f"{count:>6}"]
        for engine_name in engines:
            row = by_count[count].get(engine_name)
            cells.append(
                f"{'-':>20}" if row is None
                else f"{row.mean_ms:>12.1f} ({row.stddev_ms:>4.1f})"
            )
        trie_row = by_count[count].get("trie")
        if "trie" in engines:
            cells.append(f"{trie_row.build_ms:>9.2f}" if trie_row else f"{'-':>9}")
            speedup = trie_row.speedup_vs_naive if trie_row else None
            cells.append(f"{speedup:>8.1f}" if speedup is not None else f"{'-':>8}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


def _means(report: BenchReport, engine_name: str) -> dict[int, float]:
    return {
        row.rule_count: row.mean_ms for row in report.rows if row.engine == engine_name
    }


def check_report(report: BenchReport) -> list[str]:
    """Scaling-shape assertions; returns a list of failure descriptions."""
    failures: list[str] = []
    naive = _means(report, "naive")
    trie = _means(report, "trie")
    if naive and len(naive) > 1:
        first, last = min(naive), max(naive)
        ratio = naive[last] / naive[first]
        if ratio < NAIVE_RATIO_MIN:
            failures.append(
                f"naive mean ratio {last}/{first} = {ratio:.2f} < {NAIVE_RATIO_MIN}"
            )
        counts = sorted(naive)
        rho = spearman(counts, [naive[c] for c in counts])
        if rho < SPEARMAN_MIN:
            failures.append(f"spearman(rule_count, naive mean) = {rho:.3f} < {SPEARMAN_MIN}")
    if trie and len(trie) > 1:
        first, last = min(trie), max(trie)
        ratio = trie[last] / trie[first]
        if ratio > TRIE_RATIO_MAX:
            failures.append(
                f"trie mean ratio {last}/{first} = {ratio:.2f} > {TRIE_RATIO_MAX}"
            )
        flatness = max(trie.values()) / min(trie.values())
        if flatness > TRIE_FLATNESS_MAX:
            failures.append(f"trie max/min over ramp = {flatness:.2f} > {TRIE_FLATNESS_MAX}")
    if naive and trie:
        last = max(trie)
        if last in naive:
            speedup = naive[last] / trie[last]
            if speedup < FINAL_SPEEDUP_MIN:
                failures.append(
                    f"trie speedup at {last} rules = {speedup:.1f}x < {FINAL_SPEEDUP_MIN}x"
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
    use_trie: bool = True,
) -> list[AccuracyStep]:
    """Score each ramp step's predictions against the records' gold labels."""
    pairs = [(r.tokens, r.concept) for r in records]
    steps = []
    for count, ruleset in ramp_rule_sets(full, base, step, ramp_seed):
        trie = build_trie(ruleset) if use_trie else None
        predictions = list(annotate_records(pairs, ruleset, trie))
        steps.append(AccuracyStep(rule_count=count, report=score(predictions, records)))
    return steps
