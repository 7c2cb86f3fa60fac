"""Scoring engine output against gold labels.

Only the non-default classes are scored: "negated" and "possible" on the
negation dimension and "other" on the experiencer dimension.  Records
lacking gold for a dimension are skipped for that dimension's classes.
Temporality is never scored.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass, field
from typing import Iterable

from .corpus import CorpusError, CorpusRecord
from .engine import ContextAnnotation, InvalidSpan

#: class name -> dimension it is read from
SCORED_CLASSES = {
    "negated": "negation",
    "possible": "negation",
    "other": "experiencer",
}


@dataclass
class ClassMetrics:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class EvalReport:
    classes: dict[str, ClassMetrics] = field(default_factory=dict)
    records: int = 0
    skipped: dict[str, int] = field(default_factory=dict)

    def render_text(self) -> str:
        lines = [f"records={self.records}"]
        for name, metrics in self.classes.items():
            lines.append(f"{name}.tp={metrics.tp}")
            lines.append(f"{name}.fp={metrics.fp}")
            lines.append(f"{name}.fn={metrics.fn}")
            lines.append(f"{name}.skipped={self.skipped.get(name, 0)}")
            lines.append(f"{name}.precision={metrics.precision:.6f}")
            lines.append(f"{name}.recall={metrics.recall:.6f}")
            lines.append(f"{name}.f={metrics.f:.6f}")
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["class", "tp", "fp", "fn", "precision", "recall", "f"])
        for name, m in self.classes.items():
            writer.writerow([
                name, m.tp, m.fp, m.fn,
                f"{m.precision:.6f}", f"{m.recall:.6f}", f"{m.f:.6f}",
            ])
        return out.getvalue()


def score(pairs: Iterable[tuple[ContextAnnotation | InvalidSpan, CorpusRecord]]) -> EvalReport:
    """Accumulate tp/fp/fn per scored class over ``(prediction, record)``
    pairs, counting each pair as it arrives.

    An :class:`InvalidSpan` prediction is a data error: it raises
    :class:`CorpusError`, prefixed ``line N: `` when the record has a line
    number, once the pairs before it are scored."""
    report = EvalReport(
        classes={name: ClassMetrics() for name in SCORED_CLASSES},
        skipped={name: 0 for name in SCORED_CLASSES},
    )
    for prediction, record in pairs:
        if type(prediction) is InvalidSpan:
            where = "" if record.line_no is None else f"line {record.line_no}: "
            raise CorpusError(f"{where}{prediction}")
        report.records += 1
        predicted = {
            "negation": prediction.negation.value,
            "experiencer": prediction.experiencer.value,
        }
        for name, dimension in SCORED_CLASSES.items():
            gold_value = (record.gold or {}).get(dimension)
            if gold_value is None:
                report.skipped[name] += 1
                continue
            metrics = report.classes[name]
            if predicted[dimension] == name:
                if gold_value == name:
                    metrics.tp += 1
                else:
                    metrics.fp += 1
            elif gold_value == name:
                metrics.fn += 1
    return report
