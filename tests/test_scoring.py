from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from accessfix import scoring
from accessfix.errors import EmptyDatasetError, UndefinedBaselineError
from accessfix.rules import Violation
from accessfix.scoring import (
    AuditReport,
    dataset_average,
    improvement_percent,
    per_rule_correction_rate,
    rule_distribution,
    url_score,
)


def make_violation(rule_id="image-alt", impact="critical"):
    return Violation(rule_id, impact, "d", "h", "<p></p>", None, "url")


def test_url_score_empty_is_zero():
    assert url_score([]) == 0


def test_url_score_sums_weights():
    vs = [make_violation(impact="critical"), make_violation(impact="minor")]
    assert url_score(vs) == 7


def test_url_score_additive():
    a = [make_violation(impact="serious")] * 3
    b = [make_violation(impact="cosmetic")] * 2
    assert url_score(a + b) == url_score(a) + url_score(b)


def test_audit_report_counts_and_scores_its_violations():
    vs = [make_violation(impact="critical"), make_violation(impact="minor")]
    report = AuditReport.from_violations(vs)
    assert report.violations == vs and report.violations is not vs
    assert report.num_violations == 2
    assert report.score == 7


def test_dataset_average_single_report():
    assert dataset_average(10, 1) == 10


def test_dataset_average_reference_values():
    assert dataset_average(614 + 0 * 24, 25) * 25 == 614
    assert dataset_average(24 * 11 + 25 * 14, 25) == Fraction(614, 25)
    assert float(Fraction(614, 25)) == 24.56
    assert float(Fraction(299, 25)) == 11.96


def test_dataset_average_identical_reports():
    assert dataset_average(7 * 9, 9) == 7


def test_dataset_average_empty_errors():
    with pytest.raises(EmptyDatasetError):
        dataset_average(0, 0)


def test_improvement_percent_reference_rows():
    assert float(improvement_percent(Fraction(2456, 100), Fraction(1196, 100))) \
        == pytest.approx(51.303, abs=5e-4)
    assert float(improvement_percent(Fraction(2456, 100), Fraction(1336, 100))) \
        == pytest.approx(45.603, abs=5e-4)
    assert float(improvement_percent(Fraction(2456, 100), Fraction(1488, 100))) \
        == pytest.approx(39.414, abs=5e-4)


def test_improvement_percent_no_change_is_zero():
    assert improvement_percent(5, 5) == 0


def test_improvement_percent_full_fix_is_100():
    assert improvement_percent(Fraction(17, 3), 0) == 100


def test_improvement_percent_can_be_negative():
    assert improvement_percent(10, 12) == -20


def test_improvement_percent_zero_baseline_errors():
    with pytest.raises(UndefinedBaselineError):
        improvement_percent(0, 1)


@given(st.integers(1, 20), st.lists(
    st.sampled_from(["cosmetic", "minor", "moderate", "serious", "critical"]),
    min_size=1, max_size=30,
))
def test_scaling_weights_leaves_improvement_unchanged(k, impacts):
    weights = dict(cosmetic=1, minor=2, moderate=3, serious=4, critical=5)
    scaled = {name: w * k for name, w in weights.items()}
    vs = [make_violation(impact=i) for i in impacts]
    assert url_score(vs, scaled) == k * url_score(vs, weights)
    before = AuditReport.from_violations(vs, weights)
    before_k = AuditReport.from_violations(vs, scaled)
    half = vs[: len(vs) // 2]
    after = AuditReport.from_violations(half, weights)
    after_k = AuditReport.from_violations(half, scaled)
    if before.score:
        assert improvement_percent(before.score, after.score) == \
            improvement_percent(before_k.score, after_k.score)


def test_per_rule_correction_rate():
    before = [make_violation("label")] * 2 + [make_violation("region")] * 8
    after = [make_violation("region")] * 3
    rates = per_rule_correction_rate(before, after)
    assert rates["label"] == 100
    assert rates["region"] == Fraction(125, 2)  # 62.5%


def test_per_rule_correction_rate_floors_regressions():
    before = [make_violation("x-rule")]
    after = [make_violation("x-rule")] * 2
    assert per_rule_correction_rate(before, after)["x-rule"] == 0


def test_per_rule_correction_rate_omits_new_rules():
    rates = per_rule_correction_rate([], [make_violation("label")])
    assert rates == {}


def test_rule_distribution():
    vs = [make_violation("a"), make_violation("b")]
    assert rule_distribution(vs) == {"a": 50, "b": 50}
    region = [make_violation("region")] * 21
    rest = [make_violation("other")] * 150
    dist = rule_distribution(region + rest)
    assert float(dist["region"]) == pytest.approx(12.28, abs=0.005)
    assert sum(dist.values()) == 100


def test_rule_distribution_single_rule():
    assert rule_distribution([make_violation("only")]) == {"only": 100}


def test_display_formatting():
    assert scoring.fmt2(Fraction(614, 25)) == "24.56"
    assert scoring.fmt3(Fraction(31500, 614)) == "51.303"
