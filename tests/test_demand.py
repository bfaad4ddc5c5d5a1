"""Request stream generation, epoch batching, and trip-file ingestion."""

import math

import pytest

from fairpool.demand import (
    RideRequest,
    RequestBatch,
    RequestLog,
    batch_requests,
    ingest_trips,
    synth_demand,
    write_trips,
)


def req(i, t, origin=0, destination=1):
    return RideRequest(request_id=i, origin=origin, destination=destination, created_at=t)


def test_batch_windows_are_half_open():
    stream = [req(0, 0.0), req(1, 59.9), req(2, 60.0), req(3, 125.0), req(4, 300.0)]
    batches = batch_requests(stream)
    assert [b.epoch_index for b in batches] == [0, 1, 2, 3, 4, 5]
    assert [r.request_id for r in batches[0].requests] == [0, 1]
    # a request created exactly on the boundary belongs to the later epoch
    assert [r.request_id for r in batches[1].requests] == [2]
    assert batches[2].requests == (req(3, 125.0),)
    assert batches[3].requests == ()
    assert batches[4].requests == ()
    assert batches[5].requests == (req(4, 300.0),)
    flattened = [r for b in batches for r in b.requests]
    assert flattened == stream


def test_batch_rejects_unsorted_stream():
    with pytest.raises(ValueError, match="sorted"):
        batch_requests([req(0, 70.0), req(1, 10.0)])


def test_batch_empty_stream():
    assert batch_requests([]) == []


def test_batch_custom_epoch_length():
    stream = [req(0, 0.0), req(1, 29.0), req(2, 30.0)]
    batches = batch_requests(stream, epoch_len_seconds=30.0)
    assert len(batches) == 2
    assert len(batches[0].requests) == 2
    assert len(batches[1].requests) == 1


def test_synth_demand_deterministic(grid55):
    a = synth_demand(grid55, rate_per_epoch=3.0, num_epochs=10, hotspot_skew=0.5, seed=11)
    b = synth_demand(grid55, rate_per_epoch=3.0, num_epochs=10, hotspot_skew=0.5, seed=11)
    assert a == b
    c = synth_demand(grid55, rate_per_epoch=3.0, num_epochs=10, hotspot_skew=0.5, seed=12)
    assert a != c


def test_synth_demand_shape(grid55):
    stream = synth_demand(grid55, rate_per_epoch=4.0, num_epochs=20, hotspot_skew=0.6, seed=3)
    assert stream, "expected a nonempty stream at this rate"
    times = [r.created_at for r in stream]
    assert times == sorted(times)
    assert all(0.0 <= t < 20 * 60.0 for t in times)
    assert all(r.origin != r.destination for r in stream)
    assert [r.request_id for r in stream] == list(range(len(stream)))


def test_synth_demand_full_skew_single_origin_neighborhood(grid55):
    stream = synth_demand(grid55, rate_per_epoch=5.0, num_epochs=12, hotspot_skew=1.0, seed=5)
    labels = {grid55.neighborhoods.labels[r.origin] for r in stream}
    assert len(labels) == 1


def test_synth_demand_zero_rate(grid55):
    assert synth_demand(grid55, rate_per_epoch=0.0, num_epochs=10, hotspot_skew=0.5, seed=1) == []


def test_synth_demand_rejects_bad_params(grid55):
    with pytest.raises(ValueError):
        synth_demand(grid55, rate_per_epoch=-1.0, num_epochs=5, hotspot_skew=0.5, seed=1)
    with pytest.raises(ValueError):
        synth_demand(grid55, rate_per_epoch=1.0, num_epochs=5, hotspot_skew=1.5, seed=1)


def test_ingest_roundtrip_through_trip_file(tmp_path, grid55):
    stream = synth_demand(grid55, rate_per_epoch=3.0, num_epochs=8, hotspot_skew=0.4, seed=9)
    path = tmp_path / "trips.csv"
    write_trips(stream, grid55, path)
    result = ingest_trips(path, grid55)
    assert result.dropped == 0
    assert result.requests == stream


def test_ingest_drops_degenerate_rows(tmp_path, grid55):
    path = tmp_path / "trips.csv"
    path.write_text(
        "pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,epoch_seconds\n"
        "0.0,0.0,0.1,0.1,5.0\n"  # both endpoints snap to location 0
        "0.0,0.0,4.0,4.0,6.0\n"
    )
    result = ingest_trips(path, grid55)
    assert result.dropped == 1
    assert len(result.requests) == 1


def test_ingest_requires_exact_header(tmp_path, grid55):
    path = tmp_path / "trips.csv"
    path.write_text("lat,lon,dlat,dlon,t\n0,0,1,1,0\n")
    with pytest.raises(ValueError, match="header"):
        ingest_trips(path, grid55)


def test_ingest_reports_malformed_row_line(tmp_path, grid55):
    path = tmp_path / "trips.csv"
    path.write_text(
        "pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,epoch_seconds\n"
        "0.0,0.0,4.0,4.0,5.0\n"
        "0.0,0.0,4.0,4.0,oops\n"
    )
    with pytest.raises(ValueError, match=":3:"):
        ingest_trips(path, grid55)


def test_ingest_rejects_negative_time(tmp_path, grid55):
    path = tmp_path / "trips.csv"
    path.write_text(
        "pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,epoch_seconds\n"
        "0.0,0.0,4.0,4.0,-1.0\n"
    )
    with pytest.raises(ValueError, match="negative"):
        ingest_trips(path, grid55)


TRIP_COLUMNS = ["pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon", "epoch_seconds"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", TRIP_COLUMNS)
def test_ingest_rejects_non_finite_values(tmp_path, grid55, column, value):
    """A non-finite time once failed without a line number, and a non-finite
    coordinate silently snapped to location 0."""
    row = dict(zip(TRIP_COLUMNS, ["0.0", "0.0", "4.0", "4.0", "5.0"]))
    row[column] = value
    path = tmp_path / "trips.csv"
    path.write_text(
        ",".join(TRIP_COLUMNS) + "\n" "4.0,4.0,0.0,0.0,1.0\n" + ",".join(row.values()) + "\n"
    )
    with pytest.raises(ValueError, match=f"trips.csv:3: non-finite {column} {value}$"):
        ingest_trips(path, grid55)


def test_ingest_sorts_by_time(tmp_path, grid55):
    path = tmp_path / "trips.csv"
    path.write_text(
        "pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,epoch_seconds\n"
        "0.0,0.0,4.0,4.0,90.0\n"
        "1.0,1.0,3.0,0.0,10.0\n"
    )
    result = ingest_trips(path, grid55)
    assert [r.created_at for r in result.requests] == [10.0, 90.0]
    assert [r.request_id for r in result.requests] == [0, 1]


def test_ingest_snaps_a_tie_to_the_lowest_location_id(tmp_path, grid55):
    """(0.5, 0.5) is as near to locations 0, 1, 5 and 6, and (3.5, 2.0) to
    17 and 22, of the 5x5 grid (id = row * 5 + col, lat = row, lon = col)."""
    path = tmp_path / "trips.csv"
    path.write_text(
        "pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,epoch_seconds\n"
        "0.5,0.5,3.5,2.0,1.0\n"
    )
    [request] = ingest_trips(path, grid55).requests
    assert (request.origin, request.destination) == (0, 17)


def test_request_validation():
    with pytest.raises(ValueError, match="origin equals destination"):
        RideRequest(request_id=0, origin=3, destination=3, created_at=0.0)
    with pytest.raises(ValueError, match="negative"):
        RideRequest(request_id=0, origin=0, destination=1, created_at=-2.0)


@pytest.mark.parametrize("created_at", [math.nan, math.inf])
def test_request_rejects_a_non_finite_creation_time(created_at):
    """A nan time would pass the negative check (nan < 0 is false) and make
    every route search reject the request without an error."""
    with pytest.raises(ValueError, match=f"^request 7: non-finite creation time {created_at}$"):
        RideRequest(request_id=7, origin=0, destination=1, created_at=created_at)


def test_request_log_counts_by_neighborhood():
    log = RequestLog()
    log.add_batch(RequestBatch(epoch_index=0, requests=(req(0, 1.0), req(1, 2.0)), window_end=60.0))
    log.add_batch(RequestBatch(epoch_index=1, requests=(req(2, 61.0),), window_end=120.0))
    log.mark_serviced(1, driver_id=0)
    assert log.assigned_driver == {1: 0}
    assert [r.request_id for r in log.all_requests] == [0, 1, 2]
