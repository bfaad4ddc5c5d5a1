"""City model: locations, travel-time closure, trip pricing, and neighborhoods.

Travel times are stored as the all-pairs shortest-path closure (in minutes, as
edge files give them), as plain Python float rows
``graph.travel_minutes[origin][destination]``, so the duration of any leg is
a single lookup. The simulation clock runs in seconds, so a graph also keeps
the closure in seconds, ``graph.travel_secs[origin][destination]``, built
once; each entry is ``minutes * 60.0``. Every reader indexes the rows
directly.

The closure is exact to the bit. Each entry is the minimum, over all paths,
of the path's edge times summed left to right from the origin. Dijkstra
relaxes only ``dist[v] = dist[u] + w``, which extends such a sum by one edge,
and round-to-nearest addition is monotone (``a <= b`` implies
``fl(a + w) <= fl(b + w)``) and never decreases with ``w >= 0``. So a settled
``dist[u]`` is the smallest fold of any path to ``u``, and its extension is
the smallest fold of any path through ``u`` to ``v``: every correct Dijkstra
returns the same bits. Floyd-Warshall, or any min-plus matrix form, adds
``d[i][k] + d[k][j]`` in another association and can differ in the last bit.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

from .csvio import read_rows, write_rows
from .seeds import Generator

__all__ = [
    "Location",
    "NeighborhoodMap",
    "CityGraph",
    "build_travel_closure",
    "fare",
    "kmeans_neighborhoods",
    "grid_components",
    "gen_grid_city",
    "build_city",
    "city_neighborhoods",
    "load_locations",
    "load_edges",
    "write_locations",
    "write_edges",
    "write_neighborhoods",
]


class Location(NamedTuple):
    id: int
    lat: float
    lon: float


class NeighborhoodMap(NamedTuple):
    """Assignment of each location to a neighborhood label in [1, H]."""

    labels: tuple[int, ...]
    num_neighborhoods: int


class CityGraph:
    """A city: locations by id, the travel-time closure in minutes as float
    rows (``travel_minutes[origin][destination]``), the flat fare component
    and the neighborhood map. ``travel_secs`` holds the same closure in
    seconds, derived once."""

    __slots__ = ("locations", "travel_minutes", "delta", "neighborhoods", "travel_secs")

    def __init__(
        self,
        locations: list[Location],
        travel_minutes: list[list[float]],  # closure rows, |L| x |L|
        delta: float,  # flat fare component, currency units
        neighborhoods: NeighborhoodMap,
    ) -> None:
        n = len(locations)
        if len(travel_minutes) != n or any(len(row) != n for row in travel_minutes):
            raise ValueError(f"travel matrix is not {n} x {n}, one row and column per location")
        if not math.isfinite(delta):
            raise ValueError(f"delta must be finite, got {delta!r}")
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        if len(neighborhoods.labels) != n:
            raise ValueError("neighborhood map does not cover all locations")
        self.locations = locations
        self.travel_minutes = travel_minutes
        self.delta = delta
        self.neighborhoods = neighborhoods
        self.travel_secs = [[m * 60.0 for m in row] for row in travel_minutes]

    @property
    def num_locations(self) -> int:
        return len(self.locations)


def build_travel_closure(
    num_locations: int, edges: list[tuple[int, int, float]]
) -> list[list[float]]:
    """All-pairs shortest travel times (minutes) from a sparse edge list.

    Edges are directed; pass both directions for a symmetric network. Raises if
    any weight is non-finite or negative, names an unknown location, or some
    ordered pair stays unreachable. One Dijkstra search per source; each entry
    is the exact minimum, over all paths, of the path's left-to-right sum.
    """
    if num_locations < 1:
        raise ValueError("need at least one location")
    # cheapest parallel edge per ordered pair; self-loops never shorten a path
    adjacency: list[dict[int, float]] = [{} for _ in range(num_locations)]
    for src, dst, minutes in edges:
        if not math.isfinite(minutes):
            raise ValueError(f"edge ({src}, {dst}) has non-finite travel time {minutes}")
        if minutes < 0:
            raise ValueError(f"edge ({src}, {dst}) has negative travel time {minutes}")
        if not (0 <= src < num_locations and 0 <= dst < num_locations):
            raise ValueError(f"edge ({src}, {dst}) references an unknown location")
        if src != dst and minutes < adjacency[src].get(dst, math.inf):
            adjacency[src][dst] = float(minutes)
    neighbors = [list(out.items()) for out in adjacency]
    push, pop = heapq.heappush, heapq.heappop
    rows = []
    for source in range(num_locations):
        dist = [math.inf] * num_locations
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue  # stale entry: u was settled at a smaller time
            for v, w in neighbors[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    push(heap, (nd, v))
        if math.inf in dist:
            raise ValueError(
                f"graph is not strongly connected: no path from {source} to {dist.index(math.inf)}"
            )
        rows.append(dist)
    return rows


def fare(graph: CityGraph, origin: int, destination: int) -> float:
    """Price of a trip: travel minutes plus the flat component delta."""
    return graph.travel_minutes[origin][destination] + graph.delta


def _sq_dists(coords: list[tuple[float, float]], x: float, y: float) -> list[float]:
    """Squared distance of every point to (x, y)."""
    return [(px - x) * (px - x) + (py - y) * (py - y) for px, py in coords]


def _first_max(values: list[float]) -> int:
    return values.index(max(values))


def _farthest_point_seeds(coords: list[tuple[float, float]], k: int, rng: Generator) -> list[list[float]]:
    """Pick k seed centroids: a random first point, then farthest-point
    traversal (ties to the lowest index)."""
    first = rng.integers(len(coords))
    chosen = [first]
    min_d2 = _sq_dists(coords, *coords[first])
    while len(chosen) < k:
        nxt = _first_max(min_d2)
        chosen.append(nxt)
        min_d2 = [min(a, b) for a, b in zip(min_d2, _sq_dists(coords, *coords[nxt]))]
    return [list(coords[i]) for i in chosen]


def _centroid(members: list[tuple[float, float]]) -> list[float]:
    """Mean of the points, each coordinate summed left to right from 0.0
    and divided by the count: the bits of numpy's ``mean(axis=0)`` over the
    rows of an (m, 2) array, which adds row by row rather than pairwise."""
    sx = sy = 0.0
    for x, y in members:
        sx += x
        sy += y
    return [sx / len(members), sy / len(members)]


def kmeans_neighborhoods(locations: list[Location], num_neighborhoods: int, seed: int) -> NeighborhoodMap:
    """Cluster locations on (lat, lon) with Lloyd iterations.

    Deterministic for a fixed seed: farthest-point seeding from a seeded first
    point, ties broken by lowest index, and final labels renumbered 1..H by
    ascending centroid latitude then longitude. Stops when no label changes or
    after 100 iterations. Raises if a neighborhood ends with no location,
    which coincident locations can cause.
    """
    n = len(locations)
    h = num_neighborhoods
    if h <= 0:
        raise ValueError("neighborhood count must be positive")
    if h > n:
        raise ValueError(f"cannot split {n} locations into {h} neighborhoods")
    coords = [(loc.lat, loc.lon) for loc in locations]
    centroids = _farthest_point_seeds(coords, h, Generator(seed))

    assign: list[int] = []
    for _ in range(100):
        new_assign = []
        for x, y in coords:
            d2 = _sq_dists(centroids, x, y)
            new_assign.append(d2.index(min(d2)))
        if new_assign == assign:
            break
        assign = new_assign
        for k in range(h):
            members = [point for point, label in zip(coords, assign) if label == k]
            if members:
                centroids[k] = _centroid(members)
            else:
                # relocate an empty cluster to the point farthest from its centroid
                dist_own = [
                    (x - centroids[a][0]) * (x - centroids[a][0])
                    + (y - centroids[a][1]) * (y - centroids[a][1])
                    for (x, y), a in zip(coords, assign)
                ]
                centroids[k] = list(coords[_first_max(dist_own)])
    if len(set(assign)) < h:
        raise ValueError(
            f"k-means left a neighborhood empty: {h} neighborhoods over {n} locations "
            f"with {len(set(coords))} distinct coordinates"
        )

    # renumber clusters 1..H by centroid geography so labels are report-stable
    order = sorted(range(h), key=lambda k: (centroids[k][0], centroids[k][1]))
    relabel = {old: new + 1 for new, old in enumerate(order)}
    labels = tuple(relabel[a] for a in assign)
    return NeighborhoodMap(labels=labels, num_neighborhoods=h)


def _sorted_locations(locations: list[Location]) -> list[Location]:
    """Locations ordered by id, after checking the ids are 0..n-1 and every
    coordinate is finite."""
    ids = sorted(loc.id for loc in locations)
    if ids != list(range(len(locations))):
        raise ValueError("location ids must be dense and unique, 0..n-1")
    for loc in locations:
        if not (math.isfinite(loc.lat) and math.isfinite(loc.lon)):
            raise ValueError(f"location {loc.id} has non-finite coordinates")
    return sorted(locations, key=lambda loc: loc.id)


def build_city(
    locations: list[Location],
    edges: list[tuple[int, int, float]],
    delta: float,
    num_neighborhoods: int,
    seed: int,
) -> CityGraph:
    """Assemble a CityGraph: validate ids, compute the closure, cluster neighborhoods."""
    by_id = _sorted_locations(locations)
    closure = build_travel_closure(len(locations), edges)
    nbhd = kmeans_neighborhoods(by_id, num_neighborhoods, seed)
    return CityGraph(locations=by_id, travel_minutes=closure, delta=delta, neighborhoods=nbhd)


def city_neighborhoods(locations: list[Location], num_neighborhoods: int, seed: int) -> NeighborhoodMap:
    """The neighborhood map `build_city` gives these locations, without
    building the travel closure."""
    return kmeans_neighborhoods(_sorted_locations(locations), num_neighborhoods, seed)


def grid_components(
    width: int, height: int, edge_minutes: float
) -> tuple[list[Location], list[tuple[int, int, float]]]:
    """Locations and raw (pre-closure) edges of a width x height grid with
    4-neighbor links of uniform cost. Location id = row * width + col."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be at least 1x1")
    locations = [
        Location(id=row * width + col, lat=float(row), lon=float(col))
        for row in range(height)
        for col in range(width)
    ]
    edges: list[tuple[int, int, float]] = []
    for row in range(height):
        for col in range(width):
            src = row * width + col
            if col + 1 < width:
                dst = src + 1
                edges.append((src, dst, edge_minutes))
                edges.append((dst, src, edge_minutes))
            if row + 1 < height:
                dst = src + width
                edges.append((src, dst, edge_minutes))
                edges.append((dst, src, edge_minutes))
    return locations, edges


def gen_grid_city(
    width: int,
    height: int,
    edge_minutes: float,
    delta: float,
    num_neighborhoods: int,
    seed: int,
) -> CityGraph:
    """Synthetic width x height grid city with 4-neighbor edges of uniform cost."""
    locations, edges = grid_components(width, height, edge_minutes)
    return build_city(locations, edges, delta, num_neighborhoods, seed)


def load_locations(path: str) -> list[Location]:
    """Read a `id,lat,lon` CSV into Location records."""
    columns = (("id", int), ("lat", float), ("lon", float))
    return [Location(id=i, lat=lat, lon=lon) for _, (i, lat, lon) in read_rows(path, columns)]


def load_edges(path: str) -> list[tuple[int, int, float]]:
    """Read a `src,dst,minutes` CSV into an edge list."""
    columns = (("src", int), ("dst", int), ("minutes", float))
    return [(src, dst, minutes) for _, (src, dst, minutes) in read_rows(path, columns)]


def write_locations(locations: list[Location], path: str) -> None:
    rows = ((loc.id, repr(loc.lat), repr(loc.lon)) for loc in locations)
    write_rows(path, ["id", "lat", "lon"], rows)


def write_edges(edges: list[tuple[int, int, float]], path: str) -> None:
    write_rows(path, ["src", "dst", "minutes"], ((s, d, repr(float(m))) for s, d, m in edges))


def write_neighborhoods(neighborhoods: NeighborhoodMap, path: str) -> None:
    """Export the location -> neighborhood assignment as `location_id,neighborhood`."""
    write_rows(path, ["location_id", "neighborhood"], enumerate(neighborhoods.labels))
