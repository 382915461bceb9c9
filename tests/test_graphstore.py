"""Dataset loading, validation, snapshots, and the synthetic generator."""
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotham.graphstore import (CSDTable, DatasetBundle, DatasetError,
                               LabelTable, SessionSpec, StreamSchedule,
                               build_snapshot, graph_at, load_dataset,
                               synth_generate, write_dataset)


def write_toy_dataset(d, edges, features, labels, schedule, csd=None):
    with open(d / "edges.tsv", "w") as fh:
        for u, v in edges:
            fh.write(f"{u}\t{v}\n")
    with open(d / "features.tsv", "w") as fh:
        for row in features:
            fh.write(" ".join(str(x) for x in row) + "\n")
    with open(d / "labels.tsv", "w") as fh:
        for n, c in labels:
            fh.write(f"{n}\t{c}\n")
    if csd is not None:
        with open(d / "csd.tsv", "w") as fh:
            for c, vec in csd:
                fh.write(f"{c}\t" + " ".join(str(x) for x in vec) + "\n")
    with open(d / "schedule.json", "w") as fh:
        json.dump(schedule, fh)


def path3_schedule():
    return {"base_classes": [0, 1], "sessions": [], "mode": "gfscil"}


def test_path_graph_degrees_with_self_loops(tmp_path):
    write_toy_dataset(tmp_path, [(0, 1), (1, 2)],
                      [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                      [(0, 0), (2, 1)], path3_schedule())
    bundle = load_dataset(tmp_path)
    np.testing.assert_array_equal(bundle.graph.degree, [2, 3, 2])


def test_asymmetric_edges_symmetrized(tmp_path):
    write_toy_dataset(tmp_path, [(0, 1), (1, 2)],
                      [[1.0], [2.0], [3.0]], [(0, 0)], path3_schedule())
    bundle = load_dataset(tmp_path)
    assert 0 in bundle.graph.neighbors(1)
    assert 1 in bundle.graph.neighbors(0)


def test_mixed_direction_export_warns(tmp_path):
    # (0,1) listed both ways but (1,2) only one way: looks like a directed dump
    write_toy_dataset(tmp_path, [(0, 1), (1, 0), (1, 2)],
                      [[1.0], [2.0], [3.0]], [(0, 0)], path3_schedule())
    with pytest.warns(UserWarning, match="symmetrized"):
        bundle = load_dataset(tmp_path)
    assert 1 in bundle.graph.neighbors(2)


def test_duplicate_edges_deduped():
    edges = np.array([[0, 1], [1, 0], [0, 1]])
    g = build_snapshot(2, edges, np.ones((2, 1)))
    np.testing.assert_array_equal(g.degree, [2, 2])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), data=st.data())
def test_snapshot_rows_strictly_ascend(n, data):
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node), max_size=4 * n))
    # duplicates, reversed copies and self-loops of the drawn edges
    edges = edges + edges[: len(edges) // 2] + [(v, u) for u, v in edges[::3]] \
        + [(u, u) for u, _ in edges[::4]]
    hidden = data.draw(st.sets(node, max_size=n - 1))
    visible = sorted(set(range(n)) - hidden)
    g = build_snapshot(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                       np.ones((n, 1)), visible)
    for u in range(n):
        row = g.neighbors(u)
        assert np.all(np.diff(row) > 0)
        assert g.degree[u] == row.size
    assert snapshot_edge_set(g) == induced_subgraph_oracle(edges, visible)


def test_labels_nodes_of_sorted_per_class():
    labels = LabelTable({7: 1, 2: 0, 5: 1, 0: 1, 9: 0})
    np.testing.assert_array_equal(labels.nodes_of(1), [0, 5, 7])
    np.testing.assert_array_equal(labels.nodes_of(0), [2, 9])
    assert labels.nodes_of(3).dtype == np.int64 and labels.nodes_of(3).size == 0
    labels.nodes_of(1)[0] = 99          # callers get their own array
    np.testing.assert_array_equal(labels.nodes_of(1), [0, 5, 7])


def test_missing_file_errors(tmp_path):
    with pytest.raises(DatasetError, match="features.tsv"):
        write_toy_dataset(tmp_path, [(0, 1)], [[1.0], [1.0]], [(0, 0)],
                          path3_schedule())
        (tmp_path / "features.tsv").unlink()
        load_dataset(tmp_path)


def write_text_dataset(d, features, edges="0\t1\n", labels="0\t0\n"):
    write_toy_dataset(d, [], [], [], path3_schedule())
    (d / "features.tsv").write_text(features)
    (d / "edges.tsv").write_text(edges)
    (d / "labels.tsv").write_text(labels)


@pytest.mark.parametrize("files,match", [
    ({"features": ""}, "features.tsv is empty"),
    ({"features": "\n  \n"}, "features.tsv is empty"),
    ({"features": "1 2\n3\n4 5\n"}, r"inconsistent feature widths \[1, 2\]"),
    ({"features": "1\n2\n", "edges": "0\t1\t1\n"}, "edges.tsv rows need 2 fields"),
    ({"features": "1\n2\n", "edges": "0\t1\n1\n"}, r"inconsistent edge widths"),
    ({"features": "1\n2\n", "labels": "0\n"}, "labels.tsv rows need 2 fields"),
])
def test_malformed_tables_raise_dataset_errors(tmp_path, files, match):
    write_text_dataset(tmp_path, **files)
    with pytest.raises(DatasetError, match=match):
        load_dataset(tmp_path)


def test_tables_parse_blank_lines_and_empty_edges(tmp_path):
    write_text_dataset(tmp_path, "1.5 -2e-3\n\n0.1 7\n", edges="",
                       labels="1\t1\n0\t0\n\n1\t0\n")
    bundle = load_dataset(tmp_path)
    np.testing.assert_array_equal(bundle.graph.features, [[1.5, -2e-3], [0.1, 7.0]])
    assert bundle.raw_edges.shape == (0, 2) and bundle.raw_edges.dtype == np.int64
    # a repeated node keeps its first position and its last class
    assert list(bundle.labels.by_node.items()) == [(1, 0), (0, 0)]


def asymmetry_oracle(edges):
    """The former set scan: (pairs lacking a reverse, any pair with one)."""
    fwd = set(map(tuple, edges.tolist()))
    missing = sum((v, u) not in fwd for u, v in fwd if u != v)
    has_bidir = any((v, u) in fwd for u, v in fwd if u != v)
    return missing, has_bidir


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 10), data=st.data())
def test_asymmetry_warning_matches_set_scan(n, data):
    node = st.integers(0, n - 1)
    edges = np.asarray(data.draw(st.lists(st.tuples(node, node), max_size=4 * n)),
                       dtype=np.int64).reshape(-1, 2)
    missing, has_bidir = asymmetry_oracle(edges)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_snapshot(n, edges, np.ones((n, 1)), warn_asymmetric=True)
    messages = [str(w.message) for w in caught]
    if missing and has_bidir:
        assert messages == [f"{missing} edge(s) lacked a reverse counterpart; "
                            "symmetrized"]
    else:
        assert messages == []


def test_label_class_missing_from_schedule_errors(tmp_path):
    write_toy_dataset(tmp_path, [(0, 1), (1, 2)], [[1.0], [1.0], [1.0]],
                      [(0, 9)], path3_schedule())
    with pytest.raises(DatasetError, match="absent from schedule"):
        load_dataset(tmp_path)


def test_overlapping_novel_sets_rejected():
    sched = StreamSchedule(base_classes=(0, 1),
                           sessions=(SessionSpec((2,), (), 5),
                                     SessionSpec((2,), (), 5)))
    with pytest.raises(DatasetError, match="overlap"):
        sched.validate()


def test_novel_overlapping_base_rejected():
    sched = StreamSchedule(base_classes=(0, 1),
                           sessions=(SessionSpec((1,), (), 5),))
    with pytest.raises(DatasetError, match="overlap"):
        sched.validate()


def test_schedule_prefix_identity():
    sched = StreamSchedule(base_classes=(0, 1, 2),
                           sessions=(SessionSpec((3,), (4,), 5),
                                     SessionSpec((5, 6), (), 5),
                                     SessionSpec((), (7,), 5)),
                           mode="gcl")
    sched.validate()
    expect = 3
    for t in range(len(sched.sessions) + 1):
        if t > 0:
            s = sched.sessions[t - 1]
            expect += len(s.few_shot) + len(s.zero_shot)
        assert len(sched.classes_at(t)) == expect


# -- graph_at -----------------------------------------------------------------

def arrivals_bundle():
    # 10 nodes; node 9 arrives at session 1, node 8 at session 2
    rng = np.random.default_rng(0)
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7],
                      [7, 9], [9, 0], [8, 2], [8, 9]])
    feats = rng.standard_normal((10, 3))
    labels = {i: 0 if i < 5 else 1 for i in range(10)}
    sched = StreamSchedule(base_classes=(0, 1),
                           sessions=(SessionSpec((), (), 5, arrivals=(9,)),
                                     SessionSpec((), (), 5, arrivals=(8,))))
    graph = build_snapshot(10, edges, feats)
    return DatasetBundle(graph=graph, labels=LabelTable(labels),
                         csds=CSDTable({}), schedule=sched, raw_edges=edges)


def induced_subgraph_oracle(edges, visible):
    """Brute-force induced edge set among visible nodes (plus self-loops)."""
    vis = set(visible)
    out = {(u, u) for u in vis}
    for u, v in edges:
        if u in vis and v in vis:
            out.add((u, v))
            out.add((v, u))
    return out


def snapshot_edge_set(g):
    out = set()
    for u in g.visible:
        for v in g.neighbors(u):
            out.add((int(u), int(v)))
    return out


def test_graph_at_base_excludes_arrivals():
    b = arrivals_bundle()
    g0 = graph_at(b, 0)
    assert set(g0.visible.tolist()) == set(range(8))
    assert snapshot_edge_set(g0) == induced_subgraph_oracle(b.raw_edges.tolist(),
                                                            range(8))


def test_graph_at_arrival_brings_its_edges():
    b = arrivals_bundle()
    g1 = graph_at(b, 1)
    assert 9 in g1.visible
    assert 8 not in g1.visible
    expected = induced_subgraph_oracle(b.raw_edges.tolist(),
                                       set(range(8)) | {9})
    assert snapshot_edge_set(g1) == expected
    # v9's edges into visible nodes are present, its edge to 8 is not
    assert 7 in g1.neighbors(9) and 0 in g1.neighbors(9)
    assert 8 not in g1.neighbors(9)


def test_graph_at_full_and_monotone():
    b = arrivals_bundle()
    prev_nodes, prev_edges = set(), set()
    for t in range(3):
        g = graph_at(b, t)
        nodes = set(g.visible.tolist())
        edges = snapshot_edge_set(g)
        assert prev_nodes <= nodes and prev_edges <= edges
        prev_nodes, prev_edges = nodes, edges
    assert prev_nodes == set(range(10))


def test_graph_at_out_of_range():
    b = arrivals_bundle()
    with pytest.raises(DatasetError):
        graph_at(b, 3)


def test_graph_at_builds_each_session_once():
    b = arrivals_bundle()
    for t in range(3):
        assert graph_at(b, t) is graph_at(b, t)
    assert graph_at(b, 0) is not graph_at(b, 1)


def test_replaced_schedule_gets_its_own_snapshots():
    b = arrivals_bundle()
    g1 = graph_at(b, 1)
    # the same nodes arrive in the opposite order
    swapped = dataclasses.replace(
        b.schedule, sessions=(SessionSpec((), (), 5, arrivals=(8,)),
                              SessionSpec((), (), 5, arrivals=(9,))))
    b2 = dataclasses.replace(b, schedule=swapped)
    h1 = graph_at(b2, 1)
    assert h1 is not g1
    assert 8 in h1.visible and 9 not in h1.visible
    assert graph_at(b, 1) is g1 and 9 in g1.visible


def test_visible_from_takes_the_first_listing_session():
    sched = StreamSchedule(base_classes=(0,), sessions=(
        SessionSpec((), (), 1, arrivals=(3, 1)), SessionSpec((), (), 1),
        SessionSpec((), (), 1, arrivals=(1, 4))))
    np.testing.assert_array_equal(sched.visible_from(6), [0, 1, 0, 1, 3, 0])
    with pytest.raises(DatasetError, match="out of range"):
        sched.visible_from(4)
    b = arrivals_bundle()
    for t in range(3):
        np.testing.assert_array_equal(
            graph_at(b, t).visible,
            np.flatnonzero(b.schedule.visible_from(10) <= t))


def test_visible_mask_is_read_only():
    g = graph_at(arrivals_bundle(), 0)
    np.testing.assert_array_equal(np.flatnonzero(g.visible_mask), g.visible)
    with pytest.raises(ValueError):
        g.visible_mask[9] = True


# -- synth --------------------------------------------------------------------

def test_synth_counts():
    b = synth_generate(1, 3, 30, 0.5, 0.1, 8)
    assert b.graph.num_nodes == 90
    assert sorted(b.schedule.class_universe) == [0, 1, 2]
    assert all(b.labels.by_node[i] == i // 30 for i in range(90))


def test_synth_disjoint_cliques_limit():
    b = synth_generate(2, 3, 10, 1.0, 0.0, 4)
    g = b.graph
    for u in range(30):
        block = u // 10
        nbrs = set(g.neighbors(u).tolist())
        assert nbrs == set(range(block * 10, (block + 1) * 10))


def test_synth_deterministic(tmp_path):
    b1 = synth_generate(7, 4, 12, 0.4, 0.05, 6)
    b2 = synth_generate(7, 4, 12, 0.4, 0.05, 6)
    np.testing.assert_array_equal(b1.graph.indices, b2.graph.indices)
    np.testing.assert_array_equal(b1.graph.features, b2.graph.features)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_dataset(b1, d1)
    write_dataset(b2, d2)
    for name in ("edges.tsv", "features.tsv", "labels.tsv", "csd.tsv",
                 "schedule.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_synth_mean_separation():
    sep = 4.0
    b = synth_generate(3, 5, 10, 0.5, 0.1, 8, mean_separation=sep)
    mus = np.stack([b.csds.vectors[c] for c in range(5)])
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(mus[i] - mus[j]) == pytest.approx(sep, rel=1e-9)


def test_synth_rejects_bad_probs():
    with pytest.raises(DatasetError):
        synth_generate(0, 3, 10, 0.1, 0.5, 4)


def test_roundtrip_semantically_identical(tmp_path):
    b = synth_generate(5, 3, 8, 0.6, 0.1, 4, n_base=2, k_shot=2)
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    write_dataset(b, d1)
    loaded = load_dataset(d1)
    write_dataset(loaded, d2)
    reloaded = load_dataset(d2)
    np.testing.assert_array_equal(loaded.graph.indptr, reloaded.graph.indptr)
    np.testing.assert_array_equal(loaded.graph.indices, reloaded.graph.indices)
    np.testing.assert_array_equal(loaded.graph.features, reloaded.graph.features)
    assert loaded.labels.by_node == reloaded.labels.by_node
    assert loaded.schedule == reloaded.schedule
    for c in loaded.csds.vectors:
        np.testing.assert_array_equal(loaded.csds.vectors[c],
                                      reloaded.csds.vectors[c])
    # and the original bundle survives the trip exactly
    np.testing.assert_array_equal(b.graph.features, loaded.graph.features)
    np.testing.assert_array_equal(b.graph.indices, loaded.graph.indices)


def test_gcl_mode_requires_full_csd_table(tmp_path):
    write_toy_dataset(tmp_path, [(0, 1), (1, 2)], [[1.0], [1.0], [1.0]],
                      [(0, 0), (1, 1), (2, 2)],
                      {"base_classes": [0, 1],
                       "sessions": [{"few_shot": [], "zero_shot": [2], "k": 0}],
                       "mode": "gcl"},
                      csd=[(0, [1.0, 0.0])])
    with pytest.raises(DatasetError, match="CSD"):
        load_dataset(tmp_path)
