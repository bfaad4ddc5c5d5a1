"""City graph construction, shortest-path closure, fares, clustering, CSV io."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fairpool.city import (
    Location,
    _centroid,
    build_city,
    build_travel_closure,
    fare,
    gen_grid_city,
    grid_components,
    kmeans_neighborhoods,
    load_edges,
    load_locations,
    write_edges,
    write_locations,
)
from fairpool.demand import batch_requests, synth_demand
from fairpool.fleet import init_fleet
from fairpool.matching import DelayConstraints
from fairpool.objectives import ObjectiveSpec
from fairpool.simulate import audit_journal, run_simulation


def test_grid_closure_is_manhattan_distance():
    locations, edges = grid_components(4, 3, edge_minutes=2.0)
    closure = build_travel_closure(len(locations), edges)
    for a in locations:
        for b in locations:
            manhattan = abs(a.lat - b.lat) + abs(a.lon - b.lon)
            assert closure[a.id][b.id] == 2.0 * manhattan


def test_closure_matches_floyd_warshall_on_random_digraph():
    rng = np.random.default_rng(42)
    n = 8
    edges = [(i, (i + 1) % n, float(rng.integers(1, 10))) for i in range(n)]
    for _ in range(20):
        src, dst = rng.integers(0, n, size=2)
        if src != dst:
            edges.append((int(src), int(dst), float(rng.integers(1, 10))))
    closure = build_travel_closure(n, edges)
    reference = helpers.floyd_warshall(n, edges)
    # integer weights keep both algorithms exact, so equality is strict
    assert np.array_equal(closure, reference)


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError, match="strongly connected"):
        build_travel_closure(3, [(0, 1, 1.0), (1, 0, 1.0)])


def test_negative_edge_rejected():
    with pytest.raises(ValueError):
        build_travel_closure(2, [(0, 1, -1.0), (1, 0, 1.0)])


def test_edge_to_unknown_location_rejected():
    with pytest.raises(ValueError):
        build_travel_closure(2, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])


CLOSURE_WEIGHTS = [0.0, 0.1, 0.2, 0.3, 0.7, 1 / 3]


@settings(max_examples=300)
@given(data=st.data())
def test_closure_is_the_smallest_left_fold_over_simple_paths(data):
    """Bit for bit, on graphs with parallel edges and self-loops, and on a
    graph that is not strongly connected the error names the first
    unreachable pair in row-major order."""
    n = data.draw(st.integers(min_value=1, max_value=6))
    node = st.integers(min_value=0, max_value=n - 1)
    weight = st.sampled_from(CLOSURE_WEIGHTS)
    edges = []
    if data.draw(st.booleans()):  # a ring makes most draws strongly connected
        edges += [(i, (i + 1) % n, data.draw(weight)) for i in range(n)]
    edges += data.draw(st.lists(st.tuples(node, node, weight), max_size=20))
    want = helpers.travel_closure_reference(n, edges)
    unreachable = np.argwhere(np.isinf(want))
    if len(unreachable):
        i, j = unreachable[0]
        message = f"graph is not strongly connected: no path from {i} to {j}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_travel_closure(n, edges)
        return
    closure = build_travel_closure(n, edges)
    assert all(type(x) is float for row in closure for x in row)
    got = np.array(closure, dtype=np.float64)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


LINE3 = [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (0, [], "need at least one location"),
        (2, [(0, 1, -1.0), (1, 0, 1.0)], "edge (0, 1) has negative travel time -1.0"),
        (2, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)], "edge (1, 2) references an unknown location"),
        (3, [(0, 1, 1.0), (1, 0, 1.0)], "graph is not strongly connected: no path from 0 to 2"),
        (3, LINE3 + [(0, 2, float("nan"))], "edge (0, 2) has non-finite travel time nan"),
        (3, LINE3 + [(0, 2, float("inf"))], "edge (0, 2) has non-finite travel time inf"),
        (3, LINE3 + [(2, 0, float("-inf"))], "edge (2, 0) has non-finite travel time -inf"),
    ],
)
def test_closure_error_messages(n, edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_travel_closure(n, edges)


def test_one_location_closure_is_zero():
    for edges in ([], [(0, 0, 2.5)]):
        closure = build_travel_closure(1, edges)
        assert closure == [[0.0]]
        assert type(closure[0][0]) is float
    graph = build_city([Location(id=0, lat=0.0, lon=0.0)], [], delta=5.0, num_neighborhoods=1, seed=0)
    assert graph.travel_secs == [[0.0]]


def test_fare_is_minutes_plus_delta():
    graph = helpers.line_city([3.0, 4.0], delta=5.0)
    assert fare(graph, 0, 2) == 12.0
    assert fare(graph, 2, 0) == 12.0
    assert graph.travel_secs[0][2] == 7.0 * 60.0


@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_non_finite_delta_rejected(delta):
    with pytest.raises(ValueError, match="finite"):
        helpers.line_city([1.0], delta=delta)


def test_travel_seconds_rows_are_bit_identical_to_scalar_conversion(tmp_path):
    """The float rows route search reads equal float(minutes) * 60.0 bit for
    bit on a CSV city with fractional edge times, and a run over that city
    still passes the journal audit, which reads the same rows."""
    locations = [Location(id=i, lat=float(i // 3), lon=float(i % 3)) for i in range(6)]
    minutes = [0.1, 0.7, 0.3, 1.1, 0.7, 0.1, 2.3]
    pairs = [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5), (3, 4), (4, 5)]
    edges = []
    for (a, b), m in zip(pairs, minutes):
        edges += [(a, b, m), (b, a, m)]
    write_locations(locations, str(tmp_path / "locations.csv"))
    write_edges(edges, str(tmp_path / "edges.csv"))
    graph = build_city(
        load_locations(str(tmp_path / "locations.csv")),
        load_edges(str(tmp_path / "edges.csv")),
        delta=5.0, num_neighborhoods=2, seed=0,
    )
    assert any(
        (float(graph.travel_minutes[i][j]) * 60.0) % 1.0 != 0.0
        for i in range(6) for j in range(6)
    ), "want legs whose seconds are not whole"
    for i in range(6):
        for j in range(6):
            want = (float(graph.travel_minutes[i][j]) * 60.0).hex()
            assert type(graph.travel_secs[i][j]) is float
            assert graph.travel_secs[i][j].hex() == want

    batches = batch_requests(synth_demand(graph, 3.0, 12, 0.5, seed=4))
    constraints = DelayConstraints()
    result = run_simulation(
        graph, batches, init_fleet(graph, 3, 2, seed=4), ObjectiveSpec(name="income"), constraints
    )
    assert result.log.assigned_driver
    assert audit_journal(graph, result.fleet, result.log, constraints) == []


def test_kmeans_labels_deterministic_and_complete(grid55):
    labels_again = kmeans_neighborhoods(grid55.locations, 4, seed=7)
    assert labels_again.labels == grid55.neighborhoods.labels
    assert set(grid55.neighborhoods.labels) == {1, 2, 3, 4}


def test_kmeans_splits_separated_line_clusters():
    locations = [
        Location(id=0, lat=0.0, lon=0.0),
        Location(id=1, lat=8.0, lon=0.0),
        Location(id=2, lat=9.0, lon=0.0),
    ]
    for seed in range(5):
        nbhd = kmeans_neighborhoods(locations, 2, seed=seed)
        # labels are renumbered by centroid position, so the split is stable
        assert nbhd.labels == (1, 2, 2)


def test_kmeans_rejects_an_empty_neighborhood():
    """Two coincident pairs cannot fill three neighborhoods. The empty label
    once reached synth_demand, which failed on it at some seeds and drew
    demand around it at the others."""
    locations = [Location(id=i, lat=lat, lon=0.0) for i, lat in enumerate((0.0, 0.0, 1.0, 1.0))]
    for seed in range(6):
        with pytest.raises(
            ValueError, match="3 neighborhoods over 4 locations with 2 distinct coordinates"
        ):
            kmeans_neighborhoods(locations, 3, seed=seed)


coordinate = st.one_of(
    st.integers(-3, 3).map(float),  # repeated points: ties and empty clusters
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kmeans_labels_match_the_numpy_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=60))
    points = data.draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n))
    k = data.draw(st.integers(min_value=1, max_value=min(n, 8)))
    seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
    locations = [Location(id=i, lat=lat, lon=lon) for i, (lat, lon) in enumerate(points)]
    want = helpers.kmeans_labels_reference(points, k, seed)
    if len(set(want)) < k:  # the reference left a cluster empty
        with pytest.raises(ValueError, match="left a neighborhood empty"):
            kmeans_neighborhoods(locations, k, seed)
    else:
        assert kmeans_neighborhoods(locations, k, seed).labels == want


wide = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(points=st.lists(st.tuples(wide, wide), min_size=1, max_size=300))
def test_centroid_is_numpys_mean_over_rows_bit_for_bit(points):
    """numpy's mean(axis=0) over an (m, 2) array adds row by row, not in the
    pairwise order of a contiguous reduction; past eight rows the two differ."""
    with np.errstate(all="ignore"):
        want = np.array(points, dtype=np.float64).mean(axis=0).tolist()
    assert [x.hex() for x in _centroid(points)] == [x.hex() for x in want]


def test_build_city_rejects_bad_ids():
    locs = [Location(id=0, lat=0.0, lon=0.0), Location(id=2, lat=1.0, lon=0.0)]
    with pytest.raises(ValueError):
        build_city(locs, [(0, 2, 1.0), (2, 0, 1.0)], 5.0, 1, 0)


def test_location_csv_roundtrip(tmp_path):
    locations, edges = grid_components(3, 2, edge_minutes=1.5)
    loc_path = tmp_path / "locations.csv"
    edge_path = tmp_path / "edges.csv"
    write_locations(locations, loc_path)
    write_edges(edges, edge_path)
    assert load_locations(loc_path) == locations
    assert load_edges(edge_path) == edges


def test_load_locations_rejects_bad_header(tmp_path):
    p = tmp_path / "locations.csv"
    p.write_text("id,lat\n0,0.0\n")
    with pytest.raises(ValueError, match="header"):
        load_locations(p)


def test_load_edges_reports_line_number(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_text("src,dst,minutes\n0,1,1.0\n1,zero,1.0\n")
    with pytest.raises(ValueError, match=":3:"):
        load_edges(p)


@pytest.mark.parametrize("minutes", ["nan", "inf", "-inf"])
def test_load_edges_rejects_non_finite_minutes(tmp_path, minutes):
    p = tmp_path / "edges.csv"
    p.write_text(f"src,dst,minutes\n0,1,1.0\n1,0,{minutes}\n")
    with pytest.raises(ValueError, match=f"edges.csv:3: non-finite minutes {minutes}$"):
        load_edges(p)


@settings(max_examples=30)
@given(
    w=st.integers(min_value=1, max_value=5),
    h=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_closure_triangle_inequality(w, h, data):
    """Shortest-path times never improve by forcing an intermediate stop."""
    locations, edges = grid_components(w, h, edge_minutes=1.0)
    if not edges:
        return
    closure = build_travel_closure(len(locations), edges)
    n = len(locations)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert closure[i][k] <= closure[i][j] + closure[j][k]


def test_gen_grid_city_end_to_end():
    graph = gen_grid_city(3, 3, edge_minutes=1.0, delta=2.0, num_neighborhoods=3, seed=1)
    assert len(graph.locations) == 9
    assert graph.delta == 2.0
    assert graph.neighborhoods.num_neighborhoods == 3
    assert fare(graph, 0, 8) == 4.0 + 2.0
