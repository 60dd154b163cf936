"""The contract's two ends, checked on every family at once.

Input: a vertex id is an integer in range — anything else is refused
with one of two typed errors, the same whichever family answers and
whichever surface (scalar, batch, session) carried the pair in.
Output: one SPG type; a directed answer is the same type with ordered
endpoints; a distance batch is an int32 array until the front door
boxes it. And the policy lives in two modules: no family-side module
checks an id, or boxes a distance, for itself.
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
from repro._util import UNREACHED
from repro.directed import DiGraph
from repro.engine import get_index_class
from repro.engine import batch as batch_module
from repro.errors import QueryError, ReproError, VertexError
from repro.graph import Graph, bfs_distances, erdos_renyi
from repro.serving import QueryService, make_server
from repro.store import open_store_index, pack_index_store

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
# Output: an int32 array from the kernel to the front door
# ----------------------------------------------------------------------

SEAM_N = 41
_SEAM_PARAMS = {**_PARAMS, "dynamic": {"rebuild_threshold": 0}}


@pytest.fixture(scope="module")
def seam_indexes(tmp_path_factory):
    """Every family (and a store-backed ``ppl``) over one graph with
    the seams in it: a 30-vertex component, a 10-ring apart from it,
    an isolated vertex; the dynamic index carries pending phantoms."""
    core = erdos_renyi(30, 0.15, seed=4)
    ring = [(30 + i, 30 + (i + 1) % 10) for i in range(10)]
    graph = Graph.from_edges(list(core.edges()) + ring,
                             num_vertices=SEAM_N)
    built = {}
    for method in available_methods():
        over = shared_arrays(graph) if get_index_class(method).directed \
            else graph
        built[method] = build_index(over, method,
                                    **_SEAM_PARAMS.get(method, {}))
    dynamic = built["dynamic"]
    for edge in list(core.edges())[:4]:
        assert dynamic.remove_edge(*edge)
    assert dynamic.insert_edge(0, 35)
    path = tmp_path_factory.mktemp("seams") / "ppl.store"
    pack_index_store(built["ppl"], path)
    with open_store_index(path, cache_bytes=1 << 14,
                          block_bytes=1 << 9) as stored:
        built["ppl/store"] = stored
        yield built


@pytest.mark.parametrize(
    "case", sorted(available_methods()) + ["ppl/store"])
def test_distance_batches_are_int32_arrays_until_boxed(seam_indexes,
                                                       case):
    index = seam_indexes[case]
    graph = index.graph
    truth = np.stack([bfs_distances(graph, u) for u in range(SEAM_N)])
    # Every ordered pair of distinct vertices — so every landmark,
    # boundary vertex, phantom endpoint and cross-component pair is an
    # endpoint — repeated past the kernels' 4,096-pair chunk.
    distinct = np.argwhere(~np.eye(SEAM_N, dtype=bool))
    pairs = np.resize(distinct, (batch_module._CHUNK_PAIRS + 1, 2))
    us, vs = np.ascontiguousarray(pairs.T)
    assert (truth[us, vs] == UNREACHED).any()
    if case == "qbs":
        assert len(index.landmarks)
    if case == "dynamic":
        assert index.stats["phantom_edges"] == 4
    if case == "sharded":
        assert index.overlay.num_boundary

    dist = index._distance_many(us, vs)
    assert type(dist) is np.ndarray and dist.dtype == np.int32
    assert dist.shape == (len(pairs),)
    assert np.array_equal(dist, truth[us, vs])
    empty = index._distance_many(us[:0], vs[:0])
    assert empty.dtype == np.int32 and empty.shape == (0,)

    boxed = index.distance_many(pairs)
    assert {type(value) for value in boxed} == {int, type(None)}
    assert boxed[:len(distinct)] \
        == [index.distance(u, v) for u, v in distinct.tolist()] \
        == [None if d == UNREACHED else d
            for d in truth[distinct[:, 0], distinct[:, 1]].tolist()]
    same = index.distance_many([(v, v) for v in range(SEAM_N)])
    assert same == [0] * SEAM_N and {type(v) for v in same} == {int}
    assert index.distance_many([]) == []


# ----------------------------------------------------------------------
# One place
# ----------------------------------------------------------------------

def test_no_family_checks_an_id_for_itself():
    """``PathIndex`` and ``pairs_to_arrays`` are the front door. The
    graph classes guard their own accessors, and the BFS oracle stays
    self-contained; nobody else mentions a vertex check. The way out
    is as narrow: no family boxes (or unboxes) a distance batch, and
    the composing families never go back through an inner index's
    public ``distance_many``."""
    source = Path(repro.__file__).parent
    exempt = {source / "directed" / "digraph.py",
              source / "dynamic" / "delta.py",
              source / "baselines" / "oracle.py"}
    offenders = []
    for package in ("core", "baselines", "directed", "dynamic", "shard"):
        banned = [r"finalize_distances|distances_to_float"]
        if package in ("dynamic", "shard"):
            banned.append(r"\.distance_many\(")
        for path in sorted((source / package).rglob("*.py")):
            patterns = banned if path in exempt else \
                banned + [r"_check_vertex|VertexError\("]
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if re.search("|".join(patterns), line):
                    offenders.append(f"{path.relative_to(source)}:{number}")
    assert not offenders, offenders
    assert not hasattr(batch_module, "distances_to_float")
    for gone in ("directed/spg.py", "directed/oracle.py"):
        assert not (source / gone).exists()
