"""Run metrics and their deterministic serialization."""

import pytest

import helpers
from fairpool.demand import RequestBatch, RequestLog, RideRequest
from fairpool.fleet import init_fleet
from fairpool.objectives import ObjectiveSpec, ObjectiveState, NeighborhoodTallies, eval_objective
from fairpool.reporting import (
    REPORT_VERSION,
    MetricsReport,
    income_value_spread,
    metrics_from_parts,
    read_report,
    write_reports,
)

import numpy as np


def make_log(graph, per_neighborhood):
    """per_neighborhood: {origin_location: (requested, serviced)}"""
    log = RequestLog()
    rid = 0
    reqs = []
    serviced = []
    for origin, (k, h) in per_neighborhood.items():
        destination = 0 if origin != 0 else 1
        for i in range(k):
            reqs.append(
                RideRequest(request_id=rid, origin=origin, destination=destination,
                            created_at=float(rid))
            )
            if i < h:
                serviced.append(rid)
            rid += 1
    log.add_batch(RequestBatch(epoch_index=0, requests=tuple(reqs), window_end=60.0))
    for r in serviced:
        log.mark_serviced(r, driver_id=0)
    return log


def test_metrics_hand_rates():
    # two one-location neighborhoods: rates 0.2 and 0.4
    graph = helpers.line_city([9.0], num_neighborhoods=2)
    log = make_log(graph, {0: (5, 1), 1: (5, 2)})
    report = metrics_from_parts({0: 30.0}, log, graph.neighborhoods)
    assert report.total_requests == 10
    assert report.total_serviced == 3
    assert report.overall_success_rate == 0.3
    assert report.neighborhood_rates == {1: 0.2, 2: 0.4}
    assert report.min_success_rate == 0.2
    assert report.success_rate_var == pytest.approx(0.01, abs=1e-12)


def test_metrics_all_serviced():
    graph = helpers.line_city([9.0], num_neighborhoods=2)
    log = make_log(graph, {0: (2, 2), 1: (3, 3)})
    report = metrics_from_parts({0: 10.0, 1: 4.0}, log, graph.neighborhoods)
    assert report.overall_success_rate == 1.0
    assert report.min_success_rate == 1.0
    assert report.success_rate_var == 0.0


def test_metrics_equal_incomes_have_zero_variance():
    graph = helpers.line_city([9.0])
    log = make_log(graph, {0: (1, 1)})
    report = metrics_from_parts({0: 12.0, 1: 12.0, 2: 12.0}, log, graph.neighborhoods)
    assert report.income_var == 0.0
    assert report.income_min == 12.0


def test_metrics_no_requests():
    graph = helpers.line_city([9.0], num_neighborhoods=2)
    report = metrics_from_parts({0: 0.0}, RequestLog(), graph.neighborhoods)
    assert report.total_requests == 0
    assert report.overall_success_rate is None
    assert report.neighborhood_rates == {}
    assert report.min_success_rate is None
    assert report.success_rate_var is None


def test_neighborhoods_without_demand_are_absent_not_zero():
    graph = helpers.line_city([9.0], num_neighborhoods=2)
    log = make_log(graph, {0: (4, 1)})  # all demand in neighborhood 1
    report = metrics_from_parts({0: 6.0}, log, graph.neighborhoods)
    assert set(report.neighborhood_rates) == {1}
    assert report.min_success_rate == 0.25


def test_total_income_agrees_with_income_objective(grid55):
    from fairpool.demand import batch_requests, synth_demand
    from fairpool.simulate import run_simulation

    stream = synth_demand(grid55, rate_per_epoch=2.0, num_epochs=12, hotspot_skew=0.5, seed=3)
    fleet = init_fleet(grid55, 3, 4, seed=3)
    result = run_simulation(grid55, batch_requests(stream), fleet, ObjectiveSpec(name="income"))
    report = metrics_from_parts(result.incomes(), result.log, grid55.neighborhoods)
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
        redistribution={"r": 0.5, "mode": "keep_income"},
    )


def test_structured_report_round_trip(tmp_path):
    report = sample_report()
    write_reports(report, tmp_path)
    assert read_report(tmp_path / "report.json") == report


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


def test_read_report_rejects_other_versions(tmp_path):
    report = sample_report()
    write_reports(report, tmp_path)
    path = tmp_path / "report.json"
    text = path.read_text().replace(
        f'"report_version": {REPORT_VERSION}', '"report_version": 999'
    )
    path.write_text(text)
    with pytest.raises(ValueError, match="unsupported report_version"):
        read_report(path)


def test_report_with_none_rates_round_trips(tmp_path):
    graph = helpers.line_city([9.0])
    report = metrics_from_parts({0: 0.0}, RequestLog(), graph.neighborhoods)
    write_reports(report, tmp_path)
    assert read_report(tmp_path / "report.json") == report
