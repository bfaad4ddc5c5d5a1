"""Request streams: trip-CSV ingestion, synthetic demand, and per-minute batching.

Batching cuts a stream into epochs and stamps each batch with its window
end, the clock at which the episode loop dispatches it, so the epoch length
is read only where streams are drawn and cut. A request that is not matched
in its own batch is permanently rejected; it still counts toward
per-neighborhood demand totals, but never re-enters a later batch.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .city import CityGraph
from .csvio import read_rows, write_rows
from .seeds import substream

__all__ = [
    "RideRequest",
    "RequestBatch",
    "RequestLog",
    "IngestResult",
    "ingest_trips",
    "batch_requests",
    "synth_demand",
    "write_trips",
]

EPOCH_SECONDS = 60.0
TRIP_HEADER = ("pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon", "epoch_seconds")
TRIP_COLUMNS = tuple((name, float) for name in TRIP_HEADER)


class _RideRequest(NamedTuple):
    request_id: int
    origin: int
    destination: int
    created_at: float  # seconds since run start


class RideRequest(_RideRequest):
    __slots__ = ()

    def __new__(cls, request_id: int, origin: int, destination: int, created_at: float) -> RideRequest:
        if origin == destination:
            raise ValueError(f"request {request_id}: origin equals destination")
        if created_at < 0:
            raise ValueError(f"request {request_id}: negative creation time")
        if not math.isfinite(created_at):
            raise ValueError(f"request {request_id}: non-finite creation time {created_at}")
        return tuple.__new__(cls, (request_id, origin, destination, created_at))


class RequestBatch(NamedTuple):
    epoch_index: int
    requests: tuple[RideRequest, ...]
    window_end: float  # dispatch clock: the end of the epoch's window


class RequestLog:
    """Append-only record of every batched request, and of the driver each
    serviced request went to: a request is serviced when it has one."""

    __slots__ = ("all_requests", "assigned_driver")

    def __init__(self) -> None:
        self.all_requests: list[RideRequest] = []
        self.assigned_driver: dict[int, int] = {}

    def add_batch(self, batch: RequestBatch) -> None:
        self.all_requests.extend(batch.requests)

    def mark_serviced(self, request_id: int, driver_id: int) -> None:
        self.assigned_driver[request_id] = driver_id


class IngestResult(NamedTuple):
    requests: list[RideRequest]
    dropped: int  # rows discarded because origin == destination after snapping


def _snap(lat: float, lon: float, coords: list[tuple[float, float]]) -> int:
    """Nearest location by squared distance; ties go to the lower id."""
    best, best_d2 = 0, math.inf
    for i, (x, y) in enumerate(coords):
        d2 = (x - lat) * (x - lat) + (y - lon) * (y - lon)
        if d2 < best_d2:
            best, best_d2 = i, d2
    return best


def ingest_trips(path: str, graph: CityGraph) -> IngestResult:
    """Read trip rows, snap endpoints to locations, and emit a t-sorted stream.

    Rows whose pickup and dropoff snap to the same location are dropped and
    tallied. Rows that break the input-CSV rules (see csvio) and negative
    times raise with their line number.
    """
    coords = [(loc.lat, loc.lon) for loc in graph.locations]
    raw: list[tuple[float, int, int]] = []
    dropped = 0
    for line, values in read_rows(path, TRIP_COLUMNS):
        pickup_lat, pickup_lon, dropoff_lat, dropoff_lon, t = values
        if t < 0:
            raise ValueError(f"{path}:{line}: negative epoch_seconds")
        g = _snap(pickup_lat, pickup_lon, coords)
        e = _snap(dropoff_lat, dropoff_lon, coords)
        if g == e:
            dropped += 1
            continue
        raw.append((t, g, e))
    raw.sort(key=lambda item: item[0])
    requests = [
        RideRequest(request_id=i, origin=g, destination=e, created_at=t)
        for i, (t, g, e) in enumerate(raw)
    ]
    return IngestResult(requests=requests, dropped=dropped)


def batch_requests(
    stream: list[RideRequest], epoch_len_seconds: float = EPOCH_SECONDS
) -> list[RequestBatch]:
    """Partition a t-sorted stream into half-open windows [k*len, (k+1)*len),
    batch k to be dispatched at its window end (k+1)*len.

    Empty epochs up to the last request are emitted as empty batches; an empty
    stream yields no batches.
    """
    if not stream:
        return []
    for prev, cur in zip(stream, stream[1:]):
        if cur.created_at < prev.created_at:
            raise ValueError("request stream is not sorted by creation time")
    last_epoch = int(stream[-1].created_at // epoch_len_seconds)
    buckets: list[list[RideRequest]] = [[] for _ in range(last_epoch + 1)]
    for req in stream:
        buckets[int(req.created_at // epoch_len_seconds)].append(req)
    return [
        RequestBatch(epoch_index=k, requests=tuple(reqs), window_end=(k + 1) * epoch_len_seconds)
        for k, reqs in enumerate(buckets)
    ]


def synth_demand(
    graph: CityGraph,
    rate_per_epoch: float,
    num_epochs: int,
    hotspot_skew: float,
    seed: int,
    epoch_len_seconds: float = EPOCH_SECONDS,
) -> list[RideRequest]:
    """Poisson demand with a seeded hot neighborhood.

    Each epoch draws Poisson(rate) requests. With probability `hotspot_skew`
    an origin is uniform over the hot neighborhood's locations, otherwise
    uniform over all locations; destinations are uniform over the rest.
    """
    if rate_per_epoch < 0:
        raise ValueError("rate_per_epoch must be nonnegative")
    if not 0.0 <= hotspot_skew <= 1.0:
        raise ValueError("hotspot_skew must lie in [0, 1]")
    n = graph.num_locations
    if n < 2:
        return []  # no origin/destination pair exists
    rng = substream(seed, "demand")
    labels = graph.neighborhoods.labels
    hot_label = rng.integers(1, graph.neighborhoods.num_neighborhoods + 1)
    hot_locations = [i for i in range(n) if labels[i] == hot_label]

    requests: list[RideRequest] = []
    next_id = 0
    for epoch in range(num_epochs):
        count = rng.poisson(rate_per_epoch)
        times = sorted(rng.uniform(0.0, epoch_len_seconds, size=count))
        for t_off in times:
            if rng.uniform() < hotspot_skew:
                origin = hot_locations[rng.integers(len(hot_locations))]
            else:
                origin = rng.integers(n)
            dest = rng.integers(n - 1)
            if dest >= origin:
                dest += 1
            requests.append(
                RideRequest(
                    request_id=next_id,
                    origin=origin,
                    destination=dest,
                    created_at=epoch * epoch_len_seconds + t_off,
                )
            )
            next_id += 1
    return requests


def write_trips(requests: list[RideRequest], graph: CityGraph, path: str) -> None:
    """Export a stream in the trip-CSV format so runs can be replayed from file."""
    loc = graph.locations
    ends = ((loc[r.origin], loc[r.destination], r.created_at) for r in requests)
    rows = ((repr(g.lat), repr(g.lon), repr(e.lat), repr(e.lon), repr(t)) for g, e, t in ends)
    write_rows(path, TRIP_HEADER, rows)
