"""The contract's two ends, checked on every family at once.

Input: a vertex id is an integer in range — anything else is refused
with one of two typed errors, the same whichever family answers and
whichever surface (scalar, batch, session) carried the pair in.
Output: one SPG type; a directed answer is the same type with ordered
endpoints. And the policy lives in two modules: no family-side module
checks an id for itself.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    QueryOptions,
    QuerySession,
    ShortestPathGraph,
    available_methods,
    bidirectional_spg,
    build_index,
    spg_oracle,
)
from repro.directed import DiGraph
from repro.engine import get_index_class
from repro.errors import QueryError, ReproError, VertexError
from repro.graph import erdos_renyi
from repro.serving import QueryService, make_server

from _corpus import shared_arrays

N = 24
_PARAMS = {"qbs": {"num_landmarks": 3}, "qbs-directed": {"num_landmarks": 3},
           "sharded": {"num_shards": 2}}


@pytest.fixture(scope="module")
def indexes():
    graph = erdos_renyi(N, 0.2, seed=4)
    built = {}
    for method in available_methods():
        over = shared_arrays(graph) if get_index_class(method).directed \
            else graph
        built[method] = build_index(over, method,
                                    **_PARAMS.get(method, {}))
    return built


def _surfaces(index):
    """``name -> callable(u, v)`` for every way a pair reaches a family."""
    by_mode = {mode: QuerySession(index, QueryOptions(mode=mode,
                                                      cache_size=8))
               for mode in ("distance", "spg")}
    surfaces = {
        "distance": index.distance,
        "query": index.query,
        "query_with_stats": lambda u, v: index.query_with_stats(u, v)[0],
        "distance_many": lambda u, v: index.distance_many([(u, v)])[0],
        "distance_many/mixed": lambda u, v: index.distance_many(
            [(0, 1), (u, v)])[1],
    }
    for mode, session in by_mode.items():
        surfaces[f"session.query/{mode}"] = \
            lambda u, v, s=session: s.query(u, v).value
        surfaces[f"session.query_many/{mode}"] = \
            lambda u, v, s=session: s.query_many([(u, v)])[0].value
    return surfaces


MALFORMED = [(-1, VertexError), (N, VertexError), (1.5, QueryError),
             (2.0, QueryError), ("3", QueryError), (None, QueryError)]


@pytest.mark.parametrize("method", sorted(available_methods()))
def test_malformed_ids_raise_one_type_everywhere(indexes, method):
    for name, ask in _surfaces(indexes[method]).items():
        for bad, expected in MALFORMED:
            for pair in ((bad, 3), (3, bad)):
                with pytest.raises(ReproError) as raised:
                    ask(*pair)
                assert type(raised.value) is expected, \
                    (method, name, pair, raised.value)


@pytest.mark.parametrize("method", sorted(available_methods()))
def test_integer_spellings_and_trivial_pairs(indexes, method):
    index = indexes[method]
    for name, ask in _surfaces(index).items():
        plain = ask(1, 3)
        assert plain is not None, "pick a connected pair"
        for u, v in ((True, 3), (np.int64(1), np.int32(3)),
                     (np.uint8(1), 3)):
            assert ask(u, v) == plain, (method, name, u, v)
        same = ask(5, 5)
        if isinstance(plain, ShortestPathGraph):
            assert same == ShortestPathGraph.trivial(5, index.directed)
            assert same.directed is index.directed
        else:
            assert same == 0, (method, name)
    assert index.distance_many([]) == []
    assert index.distance_many(np.zeros((0, 2), dtype=np.int64)) == []
    batch = np.array([[1, 3], [5, 5], [3, 1]], dtype=np.int32)
    assert index.distance_many(batch) \
        == [index.distance(1, 3), 0, index.distance(3, 1)]
    for bad in ([(1, 2, 3)], [1, 2], [(1, 2), (3,)],
                np.array([[1.0, 3.0]])):
        with pytest.raises(QueryError):
            index.distance_many(bad)


def test_bibfs_and_ppl_agree_on_true(indexes):
    assert indexes["bibfs"].distance(True, 3) \
        == indexes["ppl"].distance(1, 3) is not None


@pytest.mark.parametrize("method", ["ppl", "qbs-directed"])
def test_served_surfaces_refuse_the_same_way(indexes, method):
    """Through the query service the two types, over HTTP ``400``."""
    import json
    import urllib.error
    import urllib.request

    index = indexes[method]
    with QueryService(index, num_workers=1,
                      options=QueryOptions(mode="distance")) as service:
        for bad, expected in MALFORMED:
            for submit in (lambda pair: service.submit(*pair),
                           lambda pair: service.submit_many([(0, 1), pair])):
                with pytest.raises(ReproError) as raised:
                    submit((bad, 3))
                assert type(raised.value) is expected, (bad, raised.value)
        assert service.query(True, np.int64(3)).value \
            == index.distance(1, 3)
        assert service.query(5, 5, mode="spg").value \
            == ShortestPathGraph.trivial(5, index.directed)
        server = make_server(service)
        server.serve_in_background()
        host, port = server.server_address[:2]
        try:
            for bad, _ in MALFORMED:
                request = urllib.request.Request(
                    f"http://{host}:{port}/query",
                    data=json.dumps({"u": 3, "v": bad}).encode())
                with pytest.raises(urllib.error.HTTPError) as refused:
                    urllib.request.urlopen(request, timeout=30)
                assert refused.value.code == 400, bad
                refused.value.close()
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# One answer type
# ----------------------------------------------------------------------

def test_directed_spg_is_ordered_and_oriented():
    #   0 -> 1 -> 3,  0 -> 2 -> 3,  3 -> 4 -> 0
    graph = DiGraph.from_arcs([(0, 1), (1, 3), (0, 2), (2, 3),
                               (3, 4), (4, 0)])
    index = build_index(graph, "qbs-directed", num_landmarks=1)
    for u in range(5):
        for v in range(5):
            answer, truth = index.query(u, v), spg_oracle(graph, u, v)
            assert type(answer) is ShortestPathGraph and answer.directed
            assert (answer.source, answer.target) == (u, v) \
                == (truth.source, truth.target)
            assert answer.distance == truth.distance
            assert sorted(answer.arcs) == sorted(truth.arcs)
            assert answer == truth and hash(answer) == hash(truth)
    forward, back = index.query(0, 3), index.query(3, 0)
    assert forward.arcs == {(0, 1), (1, 3), (0, 2), (2, 3)}
    assert back.arcs == {(3, 4), (4, 0)}
    assert forward != back
    assert forward.count_paths() == 2 and back.count_paths() == 1
    assert all(graph.has_arc(a, b) for a, b in forward.arcs | back.arcs)


def test_directed_and_undirected_answers_never_compare_equal():
    arcs = [(0, 1), (1, 2)]
    directed = ShortestPathGraph(0, 2, 2, arcs, directed=True)
    undirected = ShortestPathGraph(0, 2, 2, arcs)
    assert directed != undirected
    assert undirected == ShortestPathGraph(2, 0, 2, arcs)
    assert directed != ShortestPathGraph(2, 0, 2, arcs, directed=True)
    # The orientation is the source's, not the spelling's.
    assert ShortestPathGraph(0, 2, 2, [(1, 0), (2, 1)],
                             directed=True) == directed
    assert directed.arcs == undirected.arcs == {(0, 1), (1, 2)}
    assert ShortestPathGraph.trivial(1, directed=True) \
        != ShortestPathGraph.trivial(1)
    symmetric = shared_arrays(erdos_renyi(12, 0.3, seed=2))
    assert bidirectional_spg(symmetric, 0, 5, directed=True) \
        == spg_oracle(symmetric, 0, 5)


# ----------------------------------------------------------------------
# One place
# ----------------------------------------------------------------------

def test_no_family_checks_an_id_for_itself():
    """``PathIndex`` and ``pairs_to_arrays`` are the front door. The
    graph classes guard their own accessors, and the BFS oracle stays
    self-contained; nobody else mentions a vertex check."""
    source = Path(repro.__file__).parent
    exempt = {source / "directed" / "digraph.py",
              source / "dynamic" / "delta.py",
              source / "baselines" / "oracle.py"}
    offenders = []
    for package in ("core", "baselines", "directed", "dynamic", "shard"):
        for path in sorted((source / package).rglob("*.py")):
            if path in exempt:
                continue
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if re.search(r"_check_vertex|VertexError\(", line):
                    offenders.append(f"{path.relative_to(source)}:{number}")
    assert not offenders, offenders
    for gone in ("directed/spg.py", "directed/oracle.py"):
        assert not (source / gone).exists()
