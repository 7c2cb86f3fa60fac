import pytest
from hypothesis import given, strategies as st

from cuescope.corpus import CorpusError, CorpusRecord
from cuescope.engine import (
    ConceptSpan,
    ContextAnnotation,
    ExperiencerStatus,
    InvalidSpan,
    NegationStatus,
    annotate,
)
from cuescope.evaluate import ClassMetrics, score
from cuescope.rules import RuleSet


def ann(negation="affirmed", experiencer="patient"):
    return ContextAnnotation(
        negation=NegationStatus(negation), experiencer=ExperiencerStatus(experiencer),
    )


def rec(negation=None, experiencer=None):
    gold = {}
    if negation is not None:
        gold["negation"] = negation
    if experiencer is not None:
        gold["experiencer"] = experiencer
    return CorpusRecord(["tok"], ConceptSpan(0, 1), gold or None)


def test_f_arithmetic_two_thirds():
    m = ClassMetrics(tp=2, fp=1, fn=1)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f == pytest.approx(2 / 3)


def test_zero_denominator_convention():
    assert ClassMetrics(0, 0, 0).precision == 0.0
    assert ClassMetrics(0, 0, 0).recall == 0.0
    assert ClassMetrics(0, 0, 0).f == 0.0
    assert ClassMetrics(0, 5, 0).f == 0.0
    assert ClassMetrics(0, 0, 5).f == 0.0


def test_score_counts_and_classes():
    predictions = [ann("negated"), ann("negated"), ann("negated"), ann("affirmed")]
    gold = [rec("negated"), rec("negated"), rec("affirmed"), rec("negated")]
    report = score(zip(predictions, gold))
    negated = report.classes["negated"]
    assert (negated.tp, negated.fp, negated.fn) == (2, 1, 1)
    assert negated.f == pytest.approx(2 / 3)
    assert set(report.classes) == {"negated", "possible", "other"}


def test_perfect_predictions_give_f_one_per_class():
    predictions = [ann("negated"), ann("possible"), ann(experiencer="other"), ann()]
    gold = [rec("negated"), rec("possible"), rec(experiencer="other"),
            rec("affirmed", "patient")]
    report = score(zip(predictions, gold))
    for name in ("negated", "possible", "other"):
        assert report.classes[name].f == 1.0


def test_default_classes_never_scored():
    # all-affirmed, all-patient: no tp anywhere, and nothing counts as fp
    predictions = [ann(), ann()]
    gold = [rec("affirmed", "patient"), rec("affirmed", "patient")]
    report = score(zip(predictions, gold))
    for metrics in report.classes.values():
        assert (metrics.tp, metrics.fp, metrics.fn) == (0, 0, 0)


def test_missing_gold_dimension_is_skipped():
    predictions = [ann("negated"), ann("negated")]
    gold = [rec("negated"), rec(experiencer="other")]
    report = score(zip(predictions, gold))
    assert report.skipped["negated"] == 1
    assert report.skipped["possible"] == 1
    assert report.skipped["other"] == 1
    assert report.classes["negated"].tp == 1


def test_score_permutation_invariant():
    predictions = [ann("negated"), ann("possible"), ann(), ann("negated")]
    gold = [rec("negated"), rec("negated"), rec("possible"), rec("affirmed")]
    direct = score(zip(predictions, gold))
    order = [2, 0, 3, 1]
    shuffled = score(zip([predictions[i] for i in order], [gold[i] for i in order]))
    # a one-shot generator, read once as the CLI's stream is
    streamed = score((predictions[i], gold[i]) for i in order)
    for report in (shuffled, streamed):
        assert report.records == direct.records == 4
        for name in direct.classes:
            assert (direct.classes[name].tp, direct.classes[name].fp, direct.classes[name].fn) == \
                (report.classes[name].tp, report.classes[name].fp, report.classes[name].fn)


def test_render_text_and_csv_shape():
    report = score([(ann("negated"), rec("negated"))])
    text = report.render_text()
    assert "records=1" in text
    assert "negated.f=1.000000" in text
    lines = report.render_csv().splitlines()
    assert lines[0] == "class,tp,fp,fn,precision,recall,f"
    assert len(lines) == 4


def test_an_invalid_span_is_a_data_error_named_by_its_line():
    invalid = InvalidSpan("concept [3, 5) outside token range of length 1")
    read = CorpusRecord(["a"], ConceptSpan(3, 5), {"negation": "negated"}, line_no=7)
    with pytest.raises(CorpusError) as err:
        score([(ann("negated"), rec("negated")), (invalid, read)])
    assert str(err.value) == "line 7: concept [3, 5) outside token range of length 1"
    # a record built in code has no line to name
    with pytest.raises(CorpusError) as err:
        score([(invalid, CorpusRecord(["a"], ConceptSpan(3, 5)))])
    assert str(err.value) == "concept [3, 5) outside token range of length 1"
    assert "line None" not in str(err.value)


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_f_bounds(tp, fp, fn):
    m = ClassMetrics(tp, fp, fn)
    assert 0.0 <= m.f <= 1.0
    assert m.f <= 2 * min(m.precision, m.recall) + 1e-12


# --- hand gold corpus against the naive engine ---

def _predict(ruleset, records):
    return [annotate(r.tokens, r.concept, ruleset, None) for r in records]


def test_hand_gold_scores_perfectly(starter_rules, hand_gold):
    report = score(zip(_predict(starter_rules, hand_gold), hand_gold))
    assert report.records == len(hand_gold) >= 50
    for name in ("negated", "possible", "other"):
        metrics = report.classes[name]
        assert metrics.tp > 0, f"hand gold should exercise class {name}"
        assert metrics.f == 1.0


def test_hand_gold_f_drops_with_half_the_rules(starter_rules, hand_gold):
    half = RuleSet.from_rules(starter_rules.rules[: len(starter_rules) // 2])
    predictions = _predict(half, hand_gold)
    report = score(zip(predictions, hand_gold))

    # independent recount with plain loops
    recount = {name: [0, 0, 0] for name in ("negated", "possible", "other")}
    for prediction, record in zip(predictions, hand_gold):
        predicted = {
            "negated": prediction.negation.value == "negated",
            "possible": prediction.negation.value == "possible",
            "other": prediction.experiencer.value == "other",
        }
        dims = {"negated": "negation", "possible": "negation", "other": "experiencer"}
        for name, dim in dims.items():
            gold_value = (record.gold or {}).get(dim)
            if gold_value is None:
                continue
            if predicted[name] and gold_value == name:
                recount[name][0] += 1
            elif predicted[name]:
                recount[name][1] += 1
            elif gold_value == name:
                recount[name][2] += 1
    for name, (tp, fp, fn) in recount.items():
        metrics = report.classes[name]
        assert (metrics.tp, metrics.fp, metrics.fn) == (tp, fp, fn)
    assert report.classes["negated"].f < 1.0
