"""Run metrics and report files.

Collects the per-run quantities worth comparing across dispatch objectives:
how many requests were served, how income spread out over drivers, and how
service rates spread out over neighborhoods. Neighborhoods that saw no
requests are reported as absent rather than as rate 0, so minima are not
artificially dragged down. Every report is written deterministically, byte
for byte, twice: as the structured `report.json` and as the flat
`metric,scope,value` lines of `report.csv`.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, NamedTuple

from .objectives import NeighborhoodTallies, left_sum, pairwise_sum, population_variance

if TYPE_CHECKING:
    from .simulate import SimResult

REPORT_VERSION = 1

__all__ = [
    "REPORT_VERSION",
    "MetricsReport",
    "metrics_from_parts",
    "fairness_metrics",
    "income_value_spread",
    "write_reports",
]


class MetricsReport(NamedTuple):
    total_requests: int
    total_serviced: int
    total_income: float
    overall_success_rate: float | None  # None when there were no requests
    neighborhood_rates: dict[int, float]  # only neighborhoods with demand
    min_success_rate: float | None
    success_rate_var: float | None
    incomes: dict[int, float]
    income_min: float
    income_var: float
    report_version: int = REPORT_VERSION


def metrics_from_parts(incomes: dict[int, float], tallies: NeighborhoodTallies) -> MetricsReport:
    """Metrics from per-driver incomes and per-neighborhood tallies, the
    parts `report` rebuilds from artifacts without a travel closure."""
    rates: dict[int, float] = {}
    total_requests = total_serviced = 0
    for j, (k, h) in enumerate(zip(tallies.requested[1:], tallies.serviced[1:]), start=1):
        total_requests += k
        total_serviced += h
        if k > 0:
            rates[j] = h / k
    income_values = list(incomes.values())
    rate_values = list(rates.values())
    return MetricsReport(
        total_requests=total_requests,
        total_serviced=total_serviced,
        total_income=pairwise_sum(income_values),
        overall_success_rate=(total_serviced / total_requests) if total_requests else None,
        neighborhood_rates=rates,
        min_success_rate=min(rate_values) if rates else None,
        success_rate_var=population_variance(rate_values) if rates else None,
        incomes=incomes,
        income_min=min(income_values),
        income_var=population_variance(income_values),
    )


def fairness_metrics(result: SimResult) -> MetricsReport:
    return metrics_from_parts(result.incomes(), result.tallies)


def income_value_spread(q, v) -> float:
    """Population standard deviation of the payout-to-value ratios q_i/v_i.

    Both sums fold left to right from 0.0 (`left_sum`), unlike the pairwise
    order of the report's variances: the `std_q_over_v` column of
    redistribution_summary.csv is this value, and its bits were fixed in that
    order."""
    if len(q) != len(v):
        raise ValueError(f"payout and value vectors differ in length: {len(q)} vs {len(v)}")
    zero = [i for i, v_i in enumerate(v) if v_i == 0]
    if zero:
        raise ValueError(f"ratio undefined for zero-value drivers at indices {zero}")
    if len(v) == 0:
        return 0.0
    ratios = [q_i / v_i for q_i, v_i in zip(q, v)]
    mean = left_sum(ratios) / len(ratios)
    return (left_sum((x - mean) ** 2 for x in ratios) / len(ratios)) ** 0.5


def _tabular_rows(report: MetricsReport) -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = [
        ("report_version", "overall", repr(report.report_version)),
        ("total_requests", "overall", repr(report.total_requests)),
        ("total_serviced", "overall", repr(report.total_serviced)),
        ("total_income", "overall", repr(report.total_income)),
    ]
    if report.overall_success_rate is not None:
        rows.append(("success_rate", "overall", repr(report.overall_success_rate)))
    for j in sorted(report.neighborhood_rates):
        rows.append(("success_rate", str(j), repr(report.neighborhood_rates[j])))
    if report.min_success_rate is not None:
        rows.append(("success_rate_min", "overall", repr(report.min_success_rate)))
    if report.success_rate_var is not None:
        rows.append(("success_rate_var", "overall", repr(report.success_rate_var)))
    for d in sorted(report.incomes):
        rows.append(("income", str(d), repr(report.incomes[d])))
    rows.append(("income_min", "overall", repr(report.income_min)))
    rows.append(("income_var", "overall", repr(report.income_var)))
    return rows


def write_reports(report: MetricsReport, out_dir: str) -> None:
    """Write `report.json` and `report.csv` into `out_dir`."""
    lines = ["metric,scope,value"] + [",".join(row) for row in _tabular_rows(report)]
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(json.dumps(report._asdict(), sort_keys=True, indent=2) + "\n")
    with open(os.path.join(out_dir, "report.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
