"""Severity scoring: per-URL sums, dataset averages, and improvement."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EmptyDatasetError, UndefinedBaselineError
from .rules import DEFAULT_WEIGHTS


def url_score(violations, weights=None) -> int:
    """Sum of impact weights over a URL's violations."""
    weights = weights or DEFAULT_WEIGHTS
    return sum(weights[v.impact] for v in violations)


@dataclass
class AuditReport:
    violations: list
    score: int

    @property
    def num_violations(self) -> int:
        return len(self.violations)

    @classmethod
    def from_violations(cls, violations, weights=None):
        return cls(list(violations), url_score(violations, weights))


def dataset_average(total, m) -> Fraction:
    """Average score per URL, exact: a summed ``total`` over ``m`` URLs."""
    if m <= 0:
        raise EmptyDatasetError("dataset_average over zero URLs")
    return Fraction(total, m)


def improvement_percent(r_initial, r_final) -> Fraction:
    """(1 - final/initial) * 100; negative when fixes add violations."""
    r_initial = Fraction(r_initial)
    r_final = Fraction(r_final)
    if r_initial == 0:
        raise UndefinedBaselineError("initial average is zero")
    return (1 - r_final / r_initial) * 100


def per_rule_correction_rate(before, after) -> dict:
    """Percent of each rule's violations removed, floored at 0 on regressions."""
    before_counts = Counter(v.rule_id for v in before)
    after_counts = Counter(v.rule_id for v in after)
    rates = {}
    for rule_id, count in before_counts.items():
        corrected = max(count - after_counts.get(rule_id, 0), 0)
        rates[rule_id] = Fraction(corrected * 100, count)
    return rates


def rule_distribution(violations) -> dict:
    """Percent share of each rule among all violations."""
    counts = Counter(v.rule_id for v in violations)
    total = sum(counts.values())
    if total == 0:
        return {}
    return {rule: Fraction(c * 100, total) for rule, c in counts.items()}


@dataclass
class BenchmarkResult:
    m: int
    total_initial: int
    total_final: int
    r_initial: Fraction
    r_final: Fraction
    improvement_percent: Fraction
    per_rule_correction_rate: dict = field(default_factory=dict)
    rule_distribution: dict = field(default_factory=dict)
    model_name: str = ""
    strategy: str = ""

    def to_json_dict(self) -> dict:
        return {
            "model": self.model_name,
            "strategy": self.strategy,
            "urlCount": self.m,
            "totalInitial": self.total_initial,
            "totalFinal": self.total_final,
            "rInitial": fmt2(self.r_initial),
            "rFinal": fmt2(self.r_final),
            "improvementPercent": fmt3(self.improvement_percent),
            "perRuleCorrectionRate": {
                k: fmt2(v) for k, v in sorted(self.per_rule_correction_rate.items())
            },
            "ruleDistribution": {
                k: fmt2(v) for k, v in sorted(self.rule_distribution.items())
            },
        }


def aggregate(initial_scores, final_scores, before, after,
              model_name: str = "", strategy: str = "") -> BenchmarkResult:
    """Fold per-URL scores and the violations before and after correction
    (anything with a ``rule_id``) into one benchmark result.

    An empty dataset averages to 0, and a zero initial average reports a 0%
    improvement rather than raising.
    """
    initial_scores, final_scores = list(initial_scores), list(final_scores)
    m = len(initial_scores)
    total_initial, total_final = sum(initial_scores), sum(final_scores)
    r_initial = dataset_average(total_initial, m) if m else Fraction(0)
    r_final = dataset_average(total_final, m) if m else Fraction(0)
    return BenchmarkResult(
        m=m,
        total_initial=total_initial,
        total_final=total_final,
        r_initial=r_initial,
        r_final=r_final,
        improvement_percent=(
            improvement_percent(r_initial, r_final)
            if r_initial > 0 else Fraction(0)
        ),
        per_rule_correction_rate=per_rule_correction_rate(before, after),
        rule_distribution=rule_distribution(before),
        model_name=model_name,
        strategy=strategy,
    )


def fmt2(value) -> str:
    """Display form for averages: 2 decimals."""
    return f"{float(value):.2f}"


def fmt3(value) -> str:
    """Display form for improvement percentages: 3 decimals."""
    return f"{float(value):.3f}"
