"""Run metrics and their deterministic serialization."""

import json

import pytest

from fairpool.fleet import init_fleet
from fairpool.objectives import ObjectiveSpec, ObjectiveState, NeighborhoodTallies, eval_objective
from fairpool.reporting import (
    MetricsReport,
    income_value_spread,
    metrics_from_parts,
    write_reports,
)

import numpy as np


def make_tallies(num_neighborhoods, per_label):
    """per_label: {neighborhood label: (requested, serviced)}"""
    tallies = NeighborhoodTallies.empty(num_neighborhoods)
    for label, (k, h) in per_label.items():
        tallies.requested[label] = k
        tallies.serviced[label] = h
    return tallies


def test_metrics_hand_rates():
    # two neighborhoods: rates 0.2 and 0.4
    report = metrics_from_parts({0: 30.0}, make_tallies(2, {1: (5, 1), 2: (5, 2)}))
    assert report.total_requests == 10
    assert report.total_serviced == 3
    assert report.overall_success_rate == 0.3
    assert report.neighborhood_rates == {1: 0.2, 2: 0.4}
    assert report.min_success_rate == 0.2
    assert report.success_rate_var == pytest.approx(0.01, abs=1e-12)


def test_metrics_all_serviced():
    report = metrics_from_parts({0: 10.0, 1: 4.0}, make_tallies(2, {1: (2, 2), 2: (3, 3)}))
    assert report.overall_success_rate == 1.0
    assert report.min_success_rate == 1.0
    assert report.success_rate_var == 0.0


def test_metrics_equal_incomes_have_zero_variance():
    report = metrics_from_parts({0: 12.0, 1: 12.0, 2: 12.0}, make_tallies(1, {1: (1, 1)}))
    assert report.income_var == 0.0
    assert report.income_min == 12.0


def test_metrics_no_requests():
    report = metrics_from_parts({0: 0.0}, NeighborhoodTallies.empty(2))
    assert report.total_requests == 0
    assert report.overall_success_rate is None
    assert report.neighborhood_rates == {}
    assert report.min_success_rate is None
    assert report.success_rate_var is None


def test_neighborhoods_without_demand_are_absent_not_zero():
    report = metrics_from_parts({0: 6.0}, make_tallies(2, {1: (4, 1)}))  # all demand in neighborhood 1
    assert set(report.neighborhood_rates) == {1}
    assert report.min_success_rate == 0.25


def test_total_income_agrees_with_income_objective(grid55):
    from fairpool.demand import batch_requests, synth_demand
    from fairpool.simulate import run_simulation

    stream = synth_demand(grid55, rate_per_epoch=2.0, num_epochs=12, hotspot_skew=0.5, seed=3)
    fleet = init_fleet(grid55, 3, 4, seed=3)
    result = run_simulation(grid55, batch_requests(stream), fleet, ObjectiveSpec(name="income"))
    report = metrics_from_parts(result.incomes(), result.tallies)
    objective_value = eval_objective(
        ObjectiveSpec(name="income"),
        ObjectiveState.from_fleet(result.fleet, result.tallies),
    )
    assert report.total_income == pytest.approx(objective_value, abs=1e-9)
    assert report.total_income == pytest.approx(sum(result.incomes().values()), abs=1e-9)
    if report.overall_success_rate is not None:
        assert report.overall_success_rate == pytest.approx(
            report.total_serviced / report.total_requests
        )


def test_income_value_spread_values():
    assert income_value_spread([5.0, 10.0], [5.0, 10.0]) == 0.0
    # ratios 0.5 and 1.5 have standard deviation exactly one half
    assert income_value_spread([1.0, 3.0], [2.0, 2.0]) == 0.5
    # left-to-right sums, as written to redistribution_summary.csv; numpy's
    # var/sqrt gives 1.3844373104863457 here
    assert income_value_spread([11.0, 3.0, 12.0, 4.0, 13.0, 5.0, 14.0, 6.0], [3.0] * 8) == (
        1.3844373104863459
    )
    with pytest.raises(ValueError, match="indices \\[1\\]"):
        income_value_spread([1.0, 1.0], [2.0, 0.0])
    with pytest.raises(ValueError, match="differ in length"):
        income_value_spread([1.0], [2.0, 2.0])


def sample_report():
    return MetricsReport(
        total_requests=10,
        total_serviced=3,
        total_income=45.5,
        overall_success_rate=0.3,
        neighborhood_rates={1: 0.2, 2: 0.4},
        min_success_rate=0.2,
        success_rate_var=0.01,
        incomes={0: 30.0, 1: 15.5},
        income_min=15.5,
        income_var=52.5625,
    )


def load_report(path):
    """The report a `report.json` holds; its integer keys come back as strings."""
    with open(path) as fh:
        payload = json.load(fh)
    for field in ("neighborhood_rates", "incomes"):
        payload[field] = {int(k): v for k, v in payload[field].items()}
    return MetricsReport(**payload)


def test_structured_report_round_trip(tmp_path):
    report = sample_report()
    write_reports(report, tmp_path)
    assert load_report(tmp_path / "report.json") == report


def test_report_writes_are_byte_deterministic(tmp_path):
    report = sample_report()
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    write_reports(report, a)
    write_reports(report, b)
    for name in ("report.json", "report.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_tabular_report_shape(tmp_path):
    report = sample_report()
    write_reports(report, tmp_path)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "metric,scope,value"
    metrics = {line.split(",")[0] for line in lines[1:]}
    assert "total_income" in metrics
    assert "neighborhood_rate" in metrics or "success_rate" in metrics


def test_report_with_none_rates_round_trips(tmp_path):
    report = metrics_from_parts({0: 0.0}, NeighborhoodTallies.empty(1))
    write_reports(report, tmp_path)
    assert load_report(tmp_path / "report.json") == report
