"""Dataset loading, validation, snapshots, and the synthetic generator."""
import dataclasses
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gotham import graphstore
from gotham.graphstore import (CSDTable, DatasetBundle, DatasetError,
                               LabelTable, SessionSpec, StreamSchedule,
                               build_snapshot, graph_at, load_dataset,
                               synth_generate, unique_ids, write_dataset)


def write_toy_dataset(d, edges, features, labels, schedule, csd=None):
    with open(d / "edges.tsv", "w") as fh:
        for u, v in edges:
            fh.write(f"{u}\t{v}\n")
    np.save(d / "features.npy", np.asarray(features, dtype=np.float64))
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
    return {"base_classes": [0, 1], "sessions": []}


def test_path_graph_degrees_with_self_loops(tmp_path):
    write_toy_dataset(tmp_path, [(0, 1), (1, 2)],
                      [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                      [(0, 0), (2, 1)], path3_schedule())
    bundle = load_dataset(tmp_path)
    np.testing.assert_array_equal(bundle.graph.degree, [2, 3, 2])


def test_degree_is_a_cached_read_only_view_of_the_row_counts():
    g = build_snapshot(4, np.array([[0, 1], [1, 2]]), np.ones((4, 1))).restrict(
        np.array([True, True, True, False]))
    assert "degree" not in vars(g)
    degree = g.degree
    assert g.degree is degree
    np.testing.assert_array_equal(degree, [2, 3, 2, 0])
    np.testing.assert_array_equal(degree, np.diff(g.indptr))
    with pytest.raises(ValueError):
        degree[0] = 5


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
                       np.ones((n, 1))).restrict(np.isin(np.arange(n), visible))
    for u in range(n):
        row = g.neighbors(u)
        assert np.all(np.diff(row) > 0)
        assert g.degree[u] == row.size
    assert snapshot_edge_set(g) == induced_subgraph_oracle(edges, visible)


def former_build_snapshot(num_nodes, edges, features, *, warn_asymmetric=False):
    """The former three-sort build: one sort of the listed pairs, one of them
    and their reverses for the asymmetry check, and one to build the CSR."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    visible = np.arange(num_nodes, dtype=np.int64)
    if warn_asymmetric and edges.size:
        pairs = edges[edges[:, 0] != edges[:, 1]]
        fwd = unique_ids(pairs[:, 0] * num_nodes + pairs[:, 1])
        rev = (fwd % num_nodes) * num_nodes + fwd // num_nodes
        keys = np.sort(np.concatenate([fwd, rev]))
        reversed_pairs = int(np.count_nonzero(keys[1:] == keys[:-1]))
        missing = fwd.size - reversed_pairs
        if missing and reversed_pairs:
            warnings.warn(f"{missing} edge(s) lacked a reverse counterpart; "
                          "symmetrized", stacklevel=2)
    loops = np.stack([visible, visible], axis=1)
    both = np.concatenate([edges, edges[:, ::-1], loops], axis=0)
    key = unique_ids(both[:, 0] * num_nodes + both[:, 1])
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // num_nodes, minlength=num_nodes), out=indptr[1:])
    return indptr, key % num_nodes


def built_with_warnings(build, n, edges, **flags):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = build(n, edges, np.ones((n, 1)), **flags)
    return got, [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), data=st.data())
@example(n=1, data=None)
def test_one_tagged_sort_equals_the_former_three_sort_build(n, data):
    node = st.integers(0, n - 1)
    edges = [] if data is None else data.draw(
        st.lists(st.tuples(node, node), max_size=4 * n))
    if data is not None and data.draw(st.booleans()):
        # repeats, self-loops and pairs listed both ways, beside one-way pairs
        edges = edges + edges[::2] + [(v, u) for u, v in edges[1::3]] \
            + [(u, u) for u, _ in edges[::4]]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    got, warned = built_with_warnings(build_snapshot, n, edges)
    (indptr, indices), former_warned = built_with_warnings(
        former_build_snapshot, n, edges, warn_asymmetric=True)
    np.testing.assert_array_equal(got.indptr, indptr)
    np.testing.assert_array_equal(got.indices, indices)
    assert got.indptr.dtype == got.indices.dtype == np.int64
    assert warned == former_warned


@pytest.mark.parametrize("edges,message", [
    # an (m, 3) array was read as 3m/2 pairs
    (np.array([[0, 1, 2], [3, 4, 5]]), "edges must be an (m, 2) array, not shape (2, 3)"),
    # an odd-length flat array raised numpy's reshape error
    (np.array([0, 1, 2]), "edges must be an (m, 2) array, not shape (3,)"),
    (np.array([0, 1]), "edges must be an (m, 2) array, not shape (2,)"),
    (np.zeros((1, 2, 2), np.int64), "edges must be an (m, 2) array, not shape (1, 2, 2)"),
    # a float array was truncated to its integer parts
    (np.array([[0.5, 1.9]]), "edges must hold integers, not float64"),
    (np.array([[True, False]]), "edges must hold integers, not bool"),
    (np.array([["0", "1"]]), "edges must hold integers, not <U1"),
], ids=["m-by-3", "odd-flat", "flat-pair", "3-d", "float", "bool", "str"])
def test_build_snapshot_rejects_a_malformed_edge_array(edges, message):
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        build_snapshot(6, edges, np.ones((6, 1)))


@pytest.mark.parametrize("edges", [
    [], np.empty(0), np.empty((0, 3)), np.empty((2, 0), np.int64),
    np.empty((0, 2), np.float64)], ids=["list", "flat", "0-by-3", "2-by-0", "float"])
def test_build_snapshot_reads_an_empty_edge_array_of_any_shape_as_no_edges(edges):
    g = build_snapshot(3, edges, np.ones((3, 1)))
    np.testing.assert_array_equal(g.indptr, [0, 1, 2, 3])
    np.testing.assert_array_equal(g.indices, [0, 1, 2])


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.int64])
def test_build_snapshot_reads_any_integer_edge_dtype(dtype):
    g = build_snapshot(3, np.array([[0, 2]], dtype=dtype), np.ones((3, 1)))
    np.testing.assert_array_equal(g.indices, [0, 2, 1, 0, 2])
    assert g.indices.dtype == np.int64


def test_labels_nodes_of_sorted_per_class():
    labels = LabelTable({7: 1, 2: 0, 5: 1, 0: 1, 9: 0})
    np.testing.assert_array_equal(labels.nodes_of(1), [0, 5, 7])
    np.testing.assert_array_equal(labels.nodes_of(0), [2, 9])
    assert labels.nodes_of(3).dtype == np.int64 and labels.nodes_of(3).size == 0
    labels.nodes_of(1)[0] = 99          # callers get their own array
    np.testing.assert_array_equal(labels.nodes_of(1), [0, 5, 7])


def test_missing_file_errors(tmp_path):
    with pytest.raises(DatasetError, match="features.npy"):
        write_toy_dataset(tmp_path, [(0, 1)], [[1.0], [1.0]], [(0, 0)],
                          path3_schedule())
        (tmp_path / "features.npy").unlink()
        load_dataset(tmp_path)


def test_a_former_features_tsv_is_not_read(tmp_path):
    write_toy_dataset(tmp_path, [(0, 1)], [[1.0], [1.0]], [(0, 0)],
                      path3_schedule())
    (tmp_path / "features.npy").unlink()
    (tmp_path / "features.tsv").write_text("1.0\n1.0\n")
    with pytest.raises(DatasetError, match=r"features\.npy.*features\.tsv"):
        load_dataset(tmp_path)


def npy_bytes(array, **kwargs):
    """The bytes ``np.save`` writes for ``array``."""
    buf = io.BytesIO()
    np.save(buf, array, **kwargs)
    return buf.getvalue()


def npz_bytes(**arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def npy_header(shape):
    """A version 1.0 ``.npy`` header of float64 rows of ``shape``."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buf.getvalue()


def write_text_dataset(d, features, edges="0\t1\n", labels="0\t0\n", csd=None):
    """A dataset of the given tables; ``features`` is either the bytes of
    ``features.npy`` or the rows that ``np.save`` writes there."""
    write_toy_dataset(d, [], [], [], path3_schedule())
    if isinstance(features, bytes):
        (d / "features.npy").write_bytes(features)
    else:
        np.save(d / "features.npy", np.asarray(features, dtype=np.float64))
    (d / "edges.tsv").write_text(edges)
    (d / "labels.tsv").write_text(labels)
    if csd is not None:
        (d / "csd.tsv").write_text(csd)


UNREADABLE = r"^features\.npy: not a readable \.npy array \("
WHOLE_NPY = npy_bytes(np.ones((4, 3)))


def not_2d_float(got):
    return ("^features\\.npy must hold a non-empty 2-D float64 array, "
            f"not {re.escape(got)}$")


MALFORMED_TABLES = [
    # features.npy, whatever it holds, if not one non-empty 2-D float64 array
    ({"features": b""}, UNREADABLE),
    ({"features": WHOLE_NPY[:len(WHOLE_NPY) // 2]}, UNREADABLE),
    ({"features": npy_bytes(np.ones(2))}, not_2d_float("float64 of shape (2,)")),
    ({"features": [[1], [2]], "edges": "0\t1\t1\n"}, "edges.tsv rows need 2 fields"),
    ({"features": [[1], [2]], "edges": "0\t1\n1\n"}, r"inconsistent edge widths"),
    ({"features": [[1], [2]], "labels": "0\n"}, "labels.tsv rows need 2 fields"),
    ({"features": [[1], [2]], "csd": "0\t1 2\n1 1 2\n"},
     "csd.tsv line 2: expected class_id<TAB>vector"),
    ({"features": [[1], [2]], "csd": "0\t1 2\n\nx\t1 2\n"},
     "csd.tsv line 3: invalid literal for int"),
    ({"features": [[1], [2]], "csd": "0\t1 two\n"},
     "csd.tsv line 1: could not convert string to float: 'two'"),
    ({"features": [[1], [np.nan]]}, "non-finite feature value"),
    ({"features": [[1], [2]], "edges": "0\t2\n"}, "edge endpoint out of range"),
    ({"features": [[1], [2]], "labels": "0\t0\n2\t1\n"}, "labeled node 2 out of range"),
    ({"features": [[1], [2]], "csd": "0\t1 2\n1\t1\n"},
     r"CSD vectors have mixed dimensions \[1, 2\]"),
    ({"features": [[1], [2]], "csd": "0\t1 2\n1\t1 inf\n"},
     "non-finite CSD entry for class 1"),
    # a value the column's type cannot hold names its file and 1-based line,
    # blank lines counted
    ({"features": [[1], [2]], "edges": "0\t1\n\n1.5\t1\n"},
     r"^edges\.tsv line 3: could not convert '1\.5\\t1' to int64$"),
    ({"features": [[1], [2]], "labels": "0\t0\n1\tx\n"},
     r"^labels\.tsv line 2: could not convert '1\\tx' to int64$"),
    # a text table where the binary array belongs
    ({"features": b"1 2\n3 y\n"}, UNREADABLE),
    ({"features": WHOLE_NPY[:-8]}, UNREADABLE),
    ({"features": npy_bytes(np.array([1.0, None], dtype=object), allow_pickle=True)},
     UNREADABLE),
    ({"features": npz_bytes(x=np.ones((2, 1)))},
     r"^features\.npy is an \.npz archive, not one \.npy array$"),
    ({"features": npy_bytes(np.ones((2, 1), dtype=np.int64))},
     not_2d_float("int64 of shape (2, 1)")),
    ({"features": npy_bytes(np.ones((0, 3)))}, not_2d_float("float64 of shape (0, 3)")),
    ({"features": npy_bytes(np.ones((2, 0)))}, not_2d_float("float64 of shape (2, 0)")),
    # a header that claims more rows than any address space holds
    ({"features": npy_header((2**50, 1)) + bytes(8)}, UNREADABLE),
]
# every features.npy the loader refuses, as its bytes
BAD_FEATURES = [files["features"] for files, _ in MALFORMED_TABLES
                if isinstance(files["features"], bytes)]


@pytest.mark.parametrize("files,match", MALFORMED_TABLES)
def test_malformed_tables_raise_dataset_errors(tmp_path, files, match):
    write_text_dataset(tmp_path, **files)
    with pytest.raises(DatasetError, match=match):
        load_dataset(tmp_path)


def test_features_npy_keeps_every_bit(tmp_path):
    """Signed zeros, subnormals and the largest magnitudes survive a write
    and a load bit for bit."""
    sub = np.nextafter(0.0, 1.0)        # the smallest subnormal
    features = np.array([[-0.0, 0.0, sub, -sub],
                         [1e308, -1e308, np.finfo(np.float64).max, 3 * sub],
                         [1.0 / 3.0, -2e-3, -1e-310, np.pi]])
    bundle = synth_generate(0, 3, 1, 0.9, 0.1, 4)
    bundle = dataclasses.replace(bundle, graph=build_snapshot(
        3, bundle.graph.edges(), features))
    write_dataset(bundle, tmp_path)
    loaded = load_dataset(tmp_path).graph.features
    assert loaded.dtype == np.float64 and loaded.shape == features.shape
    np.testing.assert_array_equal(np.signbit(loaded), np.signbit(features))
    np.testing.assert_array_equal(loaded.view(np.uint64), features.view(np.uint64))


def test_tables_parse_blank_lines_and_empty_edges(tmp_path):
    write_text_dataset(tmp_path, [[1.5, -2e-3], [0.1, 7.0]], edges="",
                       labels="1\t1\n0\t0\n\n1\t0\n")
    bundle = load_dataset(tmp_path)
    np.testing.assert_array_equal(bundle.graph.features, [[1.5, -2e-3], [0.1, 7.0]])
    # no edges: each node's only CSR entry is its self-loop
    np.testing.assert_array_equal(bundle.graph.indptr, [0, 1, 2])
    np.testing.assert_array_equal(bundle.graph.indices, [0, 1])
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
        build_snapshot(n, edges, np.ones((n, 1)))
    messages = [str(w.message) for w in caught]
    if missing and has_bidir:
        assert messages == [f"{missing} edge(s) lacked a reverse counterpart; "
                            "symmetrized"]
    else:
        assert messages == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.one_of(
    # few distinct values: repeats are the rule
    st.lists(st.integers(-3, 3), max_size=40),
    # the whole int64 range, no value twice
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=40, unique=True),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=40)),
    rows=st.booleans())
@example(values=[], rows=False)
@example(values=[-2**63], rows=False)
def test_unique_ids_equals_np_unique(values, rows):
    ids = np.asarray(values, dtype=np.int64)
    if rows and ids.size % 2 == 0:     # an (m, 2) edge array flattens
        ids = ids.reshape(-1, 2)
    got, want = unique_ids(ids), np.unique(ids)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("labels,match", [
    # the first offending label in file order is named, whatever its fault
    ("0\t9\n5\t0\n", "label class 9 absent from schedule"),
    ("5\t0\n0\t9\n", "labeled node 5 out of range"),
    ("0\t0\n-1\t0\n1\t9\n", "labeled node -1 out of range"),
    # a label at fault twice names its node
    ("1\t0\n4\t9\n", "labeled node 4 out of range"),
    # a node listed again keeps its first position and its last class
    ("1\t9\n5\t0\n1\t0\n", "labeled node 5 out of range"),
])
def test_validate_names_the_first_bad_label_in_file_order(tmp_path, labels,
                                                          match):
    write_toy_dataset(tmp_path, [(0, 1), (1, 2)], [[1.0], [1.0], [1.0]],
                      [], path3_schedule())
    (tmp_path / "labels.tsv").write_text(labels, encoding="utf-8")
    with pytest.raises(DatasetError, match=f"^{match}$"):
        load_dataset(tmp_path)


def validate_labels_oracle(bundle):
    """The former per-label scan: the first bad label in ``by_node`` order."""
    universe = set(bundle.schedule.classes_at(bundle.schedule.num_sessions))
    for node, cls in bundle.labels.by_node.items():
        if not 0 <= node < bundle.graph.num_nodes:
            return f"labeled node {node} out of range"
        if cls not in universe:
            return f"label class {cls} absent from schedule"
    return None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 6),
       labels=st.dictionaries(st.integers(-3, 9), st.integers(-2, 5), max_size=8))
def test_validate_labels_matches_the_per_label_scan(n, labels):
    bundle = DatasetBundle(
        graph=build_snapshot(n, np.empty((0, 2), np.int64), np.ones((n, 1))),
        labels=LabelTable(labels), csds=CSDTable({}),
        schedule=StreamSchedule(base_classes=(0, 1), sessions=(
            SessionSpec(few_shot=(2,), zero_shot=(3,), k=1),)))
    want = validate_labels_oracle(bundle)
    if want is None:
        bundle.validate()
    else:
        with pytest.raises(DatasetError, match=f"^{want}$"):
            bundle.validate()


def test_label_class_missing_from_schedule_errors(tmp_path):
    write_toy_dataset(tmp_path, [(0, 1), (1, 2)], [[1.0], [1.0], [1.0]],
                      [(0, 9)], path3_schedule())
    with pytest.raises(DatasetError, match="absent from schedule"):
        load_dataset(tmp_path)


def test_overlapping_novel_sets_rejected():
    sched = StreamSchedule(base_classes=(0, 1),
                           sessions=(SessionSpec((2,), (), 5),
                                     SessionSpec((2,), (), 5)))
    with pytest.raises(DatasetError, match="^session 2 few_shot lists class 2, "
                                           "which session 1 few_shot lists$"):
        sched.validate()


def test_novel_overlapping_base_rejected():
    sched = StreamSchedule(base_classes=(0, 1),
                           sessions=(SessionSpec((1,), (), 5),))
    with pytest.raises(DatasetError, match="^session 1 few_shot lists class 1, "
                                           "which base_classes lists$"):
        sched.validate()


def test_schedule_prefix_identity():
    sched = StreamSchedule(base_classes=(0, 1, 2),
                           sessions=(SessionSpec((3,), (4,), 5),
                                     SessionSpec((5, 6), (), 5),
                                     SessionSpec((), (7,), 5)))
    sched.validate()
    expect = 3
    for t in range(len(sched.sessions) + 1):
        if t > 0:
            s = sched.sessions[t - 1]
            expect += len(s.few_shot) + len(s.zero_shot)
        assert len(sched.classes_at(t)) == expect


# -- graph_at -----------------------------------------------------------------

# the edges of arrivals_bundle(), as its generator lists them
ARRIVAL_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                 (7, 9), (9, 0), (8, 2), (8, 9)]


def arrivals_bundle():
    # 10 nodes; node 9 arrives at session 1, node 8 at session 2
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((10, 3))
    labels = {i: 0 if i < 5 else 1 for i in range(10)}
    sched = StreamSchedule(base_classes=(0, 1),
                           sessions=(SessionSpec((), (), 5, arrivals=(9,)),
                                     SessionSpec((), (), 5, arrivals=(8,))))
    graph = build_snapshot(10, np.array(ARRIVAL_EDGES), feats)
    return DatasetBundle(graph=graph, labels=LabelTable(labels),
                         csds=CSDTable({}), schedule=sched)


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
    assert snapshot_edge_set(g0) == induced_subgraph_oracle(ARRIVAL_EDGES,
                                                            range(8))


def test_graph_at_arrival_brings_its_edges():
    b = arrivals_bundle()
    g1 = graph_at(b, 1)
    assert 9 in g1.visible
    assert 8 not in g1.visible
    expected = induced_subgraph_oracle(ARRIVAL_EDGES, set(range(8)) | {9})
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


def test_a_bundle_built_directly_cuts_its_snapshots_from_its_graph():
    """A bundle holds no edge list beside its graph: each session's snapshot
    is the induced subgraph of the full graph's edges, whoever built it."""
    rng = np.random.default_rng(3)
    pairs = rng.integers(0, 30, size=(80, 2))
    edges = [tuple(e) for e in pairs.tolist()]
    sched = StreamSchedule(base_classes=(0, 1), sessions=(
        SessionSpec((2,), (), 2, arrivals=tuple(range(20, 25))),
        SessionSpec((), (), 2, arrivals=tuple(range(25, 30)))))
    b = DatasetBundle(graph=build_snapshot(30, pairs, rng.standard_normal((30, 2))),
                      labels=LabelTable({i: i // 10 for i in range(30)}),
                      csds=CSDTable({}), schedule=sched)
    for t, n_visible in enumerate((20, 25, 30)):
        g = graph_at(b, t)
        np.testing.assert_array_equal(g.visible, np.arange(n_visible))
        assert snapshot_edge_set(g) == induced_subgraph_oracle(edges,
                                                               range(n_visible))
    # the last session sees every node, so its CSR is the full graph's
    np.testing.assert_array_equal(graph_at(b, 2).indptr, b.graph.indptr)
    np.testing.assert_array_equal(graph_at(b, 2).indices, b.graph.indices)


def graph_at_oracle(n, edges, visible):
    """(indptr, indices, visible) of the snapshot induced by ``visible``: the
    sorted unique keys ``u * n + v`` of its symmetrized edges and of its
    self-loops, one CSR entry each."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    visible = np.asarray(visible, dtype=np.int64)
    inside = edges[np.isin(edges, visible).all(axis=1)]
    key = np.unique(np.concatenate([inside[:, 0] * n + inside[:, 1],
                                    inside[:, 1] * n + inside[:, 0],
                                    visible * n + visible]))
    return np.searchsorted(key, np.arange(n + 1) * n), key % n, visible


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 16), data=st.data())
def test_graph_at_equals_the_induced_subgraph_oracle_at_every_session(n, data):
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node), max_size=4 * n))
    # duplicates, reversed copies and self-loops of the drawn edges
    edges = edges + edges[: len(edges) // 2] + [(v, u) for u, v in edges[::3]] \
        + [(u, u) for u, _ in edges[::4]]
    # a node may be listed again after it arrived; its first listing counts
    arrivals = data.draw(st.lists(st.lists(node, unique=True, max_size=n),
                                  max_size=3))
    sched = StreamSchedule(base_classes=(0,), sessions=tuple(
        SessionSpec((), (), 1, arrivals=tuple(a)) for a in arrivals))
    b = DatasetBundle(
        graph=build_snapshot(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                             np.arange(n, dtype=np.float64)[:, None]),
        labels=LabelTable({}), csds=CSDTable({}), schedule=sched)
    first = {}
    for t, nodes in enumerate(arrivals, start=1):
        for u in nodes:
            first.setdefault(u, t)
    for t in range(len(arrivals) + 1):
        g = graph_at(b, t)
        want = graph_at_oracle(n, edges, [u for u in range(n)
                                          if first.get(u, 0) <= t])
        for got, expected in zip((g.indptr, g.indices, g.visible), want):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        assert g.num_nodes == n and g.features is b.graph.features


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


def test_mean_features_is_lazy_cached_read_only_and_equal_to_m_x():
    b = arrivals_bundle()
    for t in range(3):
        g = graph_at(b, t)
        # neither graph_at nor build_snapshot computes it
        assert "mean_features" not in vars(g)
        mx = g.mean_features
        assert g.mean_features is mx
        assert mx.tobytes() == (g.mean_adjacency @ g.features).tobytes()
        with pytest.raises(ValueError):
            mx[0, 0] = 1.0
    # rows of nodes not yet arrived have no CSR entries and stay zero
    assert not graph_at(b, 0).mean_features[[8, 9]].any()


def test_schedule_rejects_a_few_shot_session_with_k_0():
    sched = StreamSchedule(base_classes=(0, 1),
                           sessions=(SessionSpec((), (2,), 0),
                                     SessionSpec((3,), (), 0)))
    with pytest.raises(DatasetError, match=r"session 2 .*k=0"):
        sched.validate()
    # a session of zero-shot classes only takes no shots
    dataclasses.replace(sched, sessions=sched.sessions[:1]).validate()


def test_a_stream_without_base_classes_is_rejected(tmp_path):
    write_dataset(synth_generate(0, 3, 4, 0.9, 0.1, 3, n_base=1), tmp_path)
    schedule = json.loads((tmp_path / "schedule.json").read_text())
    schedule["base_classes"] = []
    schedule["sessions"].insert(0, {"few_shot": [0], "k": 1})
    (tmp_path / "schedule.json").write_text(json.dumps(schedule))
    with pytest.raises(DatasetError, match="at least one base class"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("edit,message", [
    (lambda s: {**s, "base_classes": [0, 0, 1]}, "base_classes lists class 0 twice"),
    (lambda s: {**s, "sessions": [{"few_shot": [2, 3, 2], "k": 1}]},
     "session 1 few_shot lists class 2 twice"),
    (lambda s: {**s, "sessions": [{"few_shot": [2], "k": 1},
                                  {"zero_shot": [3, 3]}]},
     "session 2 zero_shot lists class 3 twice"),
    # the negative id is named, not its repeat
    (lambda s: {**s, "base_classes": [0, -1, -1]},
     "base_classes lists negative class -1; class ids are >= 0"),
], ids=["base", "few-shot", "zero-shot", "negative"])
def test_a_class_listed_twice_in_one_list_is_rejected(tmp_path, edit, message):
    """A repeat would let a task of n_way draws hold fewer distinct classes."""
    write_dataset(synth_generate(0, 4, 10, 0.9, 0.1, 4, n_base=2), tmp_path)
    schedule = json.loads((tmp_path / "schedule.json").read_text())
    (tmp_path / "schedule.json").write_text(json.dumps(edit(schedule)))
    with pytest.raises(DatasetError, match=f"^{message}$"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("base,sessions,message", [
    ((0, 1, -1), (), "base_classes lists negative class -1"),
    ((0, 1), (SessionSpec((2, -2), (), 1),),
     "session 1 few_shot lists negative class -2"),
    ((0, 1), (SessionSpec((2,), (), 1), SessionSpec((), (3, -3), 0)),
     "session 2 zero_shot lists negative class -3"),
], ids=["base", "few-shot", "zero-shot"])
def test_a_negative_class_id_is_rejected(base, sessions, message):
    """A class id seeds its walks through ``np.random.SeedSequence``, which
    takes no negative entry, so validate names the list and the id."""
    with pytest.raises(DatasetError, match=f"^{message}; class ids are >= 0$"):
        StreamSchedule(base_classes=base, sessions=sessions).validate()
    # the same lists without the negative id pass
    def keep(ids):
        return tuple(c for c in ids if c >= 0)
    StreamSchedule(keep(base), tuple(
        SessionSpec(keep(s.few_shot), keep(s.zero_shot), s.k) for s in sessions)).validate()


MALFORMED_SCHEDULES = [
    ([0, 1], "the top level must be an object"),
    ({"sessions": []}, "base_classes is missing"),
    ({"base_classes": 0}, "base_classes must be a list of integers"),
    ({"base_classes": [0, None]}, "base_classes must be a list of integers"),
    ({"base_classes": [0], "sessions": [1, 2]}, "sessions must be a list of objects"),
    ({"base_classes": [0], "sessions": {"k": 1}}, "sessions must be a list of objects"),
    ({"base_classes": [0], "sessions": [{"few_shot": 1, "k": 1}]},
     "session 1: few_shot must be a list of integers"),
    ({"base_classes": [0], "sessions": [{"zero_shot": "1"}]},
     "session 1: zero_shot must be a list of integers"),
    ({"base_classes": [0], "sessions": [{"few_shot": [1], "k": 1},
                                        {"arrivals": 2}]},
     "session 2: arrivals must be a list of integers"),
    ({"base_classes": [0], "sessions": [{"few_shot": [1], "k": 1.5}]},
     "session 1: k must be an integer, got 1.5"),
    ({"base_classes": [0], "sessions": [{"few_shot": [1], "k": "2"}]},
     "session 1: k must be an integer, got '2'"),
]


def schedule_with(key, value):
    """A valid schedule of a two-node graph with ``value`` as its ``key``."""
    schedule = {"base_classes": [0], "sessions": [{"few_shot": [1], "k": 1}]}
    (schedule if key == "base_classes" else schedule["sessions"][0])[key] = value
    return schedule


ID_LISTS = {"base_classes": "", "few_shot": "session 1: ",
            "zero_shot": "session 1: ", "arrivals": "session 1: "}
BAD_ID_VALUES = {"bool": [True], "bool-after-int": [0, False], "float": [1.0],
                 "float-after-int": [0, 1.5], "str": ["1"], "null": [0, None],
                 "nested": [[0]], "int-not-list": 0, "str-not-list": "0",
                 "object-not-list": {"0": 0}}
BAD_IDS = [pytest.param(schedule_with(key, value),
                        f"{where}{key} must be a list of integers", id=f"{key}-{name}")
           for key, where in ID_LISTS.items()
           for name, value in BAD_ID_VALUES.items()] + [
    pytest.param(schedule_with("arrivals", value),
                 "session 1: arrivals must be node ids in [0, 2)", id=f"arrivals-{name}")
    for name, value in {"negative": [-1], "n": [2], "past-n-among-valid": [1, 0, 5],
                        "negative-among-valid": [0, -3, 1], "huge": [2**63]}.items()]


@pytest.mark.parametrize("schedule,message", BAD_IDS)
def test_schedule_id_lists_are_checked_by_type_and_range(tmp_path, schedule, message):
    write_toy_dataset(tmp_path, [(0, 1)], [[1.0], [1.0]], [(0, 0), (1, 1)],
                      schedule)
    with pytest.raises(DatasetError, match=f"^{re.escape('schedule.json: ' + message)}$"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("schedule,message", MALFORMED_SCHEDULES,
                         ids=[m for _, m in MALFORMED_SCHEDULES])
def test_malformed_schedule_raises_a_dataset_error_naming_the_file(
        tmp_path, schedule, message):
    write_toy_dataset(tmp_path, [(0, 1)], [[1.0], [1.0]], [(0, 0), (1, 1)],
                      schedule)
    with pytest.raises(DatasetError, match=f"^schedule.json: {message}$"):
        load_dataset(tmp_path)


# -- synth --------------------------------------------------------------------

def test_synth_rejects_k_shot_below_1_for_few_shot_sessions():
    with pytest.raises(DatasetError, match="k_shot=0"):
        synth_generate(0, 4, 10, 0.5, 0.1, 4, n_base=2, k_shot=0)
    with pytest.raises(DatasetError, match="k_shot=0"):
        synth_generate(0, 4, 10, 0.5, 0.1, 4, n_base=2, zero_shot_classes=(3,),
                       k_shot=0)
    # no streamed class, or only zero-shot ones: k is never used
    synth_generate(0, 4, 10, 0.5, 0.1, 4, k_shot=0)
    b = synth_generate(0, 4, 10, 0.5, 0.1, 4, n_base=2,
                       zero_shot_classes=(2, 3), k_shot=0)
    assert [s.k for s in b.schedule.sessions] == [0, 0]


@pytest.mark.parametrize("n_base", [0, -2, 9])
def test_synth_rejects_base_classes_outside_1_to_blocks(n_base):
    with pytest.raises(DatasetError, match=f"blocks=8, got {n_base}"):
        synth_generate(0, 8, 4, 0.5, 0.1, 8, n_base=n_base)
    for n in (1, 8):
        assert len(synth_generate(0, 8, 4, 0.5, 0.1, 8,
                                  n_base=n).schedule.base_classes) == n


@pytest.mark.parametrize("n", [0, -1])
def test_synth_rejects_fewer_than_one_novel_class_per_session(n):
    with pytest.raises(DatasetError, match=f"at least 1, got {n}"):
        synth_generate(0, 8, 4, 0.5, 0.1, 8, n_base=4, novel_per_session=n)


@pytest.mark.parametrize("kwargs,message", [
    ({"mean_separation": -1.0}, "mean_separation must be finite and >= 0, got -1.0"),
    ({"mean_separation": float("nan")}, "mean_separation must be finite and >= 0, got nan"),
    ({"mean_separation": float("-inf")},
     "mean_separation must be finite and >= 0, got -inf"),
])
def test_synth_rejects_a_bad_separation_or_sigma(kwargs, message):
    """Block means sit ``mean_separation`` apart in units of the
    unit-variance feature noise, which needs a finite separation >= 0."""
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        synth_generate(0, 4, 5, 0.5, 0.1, 4, **kwargs)
    # coinciding means are a valid, if unseparable, stream
    b = synth_generate(0, 4, 5, 0.5, 0.1, 4, mean_separation=0.0)
    assert not np.any(np.stack(list(b.csds.vectors.values())))


def test_synth_counts():
    b = synth_generate(1, 3, 30, 0.5, 0.1, 8)
    assert b.graph.num_nodes == 90
    assert b.schedule.classes_at(b.schedule.num_sessions) == [0, 1, 2]
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
    for name in ("edges.tsv", "features.npy", "labels.tsv", "csd.tsv",
                 "schedule.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_tables_keep_the_bytes_of_one_format_per_line(tmp_path):
    b = synth_generate(2, 4, 30, 0.5, 0.05, 4, n_base=2)
    # nodes listed out of order, two of them with ids of more digits
    labels = {**{n: b.labels.by_node[n] for n in reversed(b.labels.by_node)},
              1000: 3, 123456: 1}
    write_dataset(dataclasses.replace(b, labels=LabelTable(labels)), tmp_path)
    edges = "".join(f"{u}\t{v}\n" for u, v in b.graph.edges().tolist())
    assert (tmp_path / "edges.tsv").read_text(encoding="utf-8") == edges
    assert (tmp_path / "labels.tsv").read_text(encoding="utf-8") == "".join(
        f"{n}\t{labels[n]}\n" for n in sorted(labels))


@pytest.mark.parametrize("rows", [0, 1, 65_536, 65_537, 2 * 65_536 + 1])
def test_pairs_are_written_a_block_at_a_time_with_no_seam(tmp_path, rows):
    # rows on, just past and two blocks past the block size
    assert graphstore._PAIR_BLOCK == 65_536
    pairs = np.arange(2 * rows, dtype=np.int64).reshape(-1, 2) * 7 - 3
    graphstore._write_pairs(tmp_path / "t.tsv", pairs)
    assert (tmp_path / "t.tsv").read_bytes() == "".join(
        f"{a}\t{b}\n" for a, b in pairs.tolist()).encode()


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


@pytest.mark.parametrize("zero_shot", [(), (2,)], ids=["few-shot", "zero-shot"])
def test_a_schedule_mode_key_is_ignored(tmp_path, zero_shot):
    """A schedule holds no run mode: an old ``"mode"`` key, whatever its
    value, loads to the schedule the file gives without it, and
    ``write_dataset`` writes no such key."""
    write_dataset(synth_generate(5, 3, 8, 0.6, 0.1, 4, n_base=1,
                                 zero_shot_classes=zero_shot, k_shot=2), tmp_path)
    path = tmp_path / "schedule.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert "mode" not in raw
    want = load_dataset(tmp_path).schedule
    assert want.unseen_at(want.num_sessions) == list(zero_shot)
    for mode in ("gcl", "gfscil"):
        path.write_text(json.dumps({**raw, "mode": mode}), encoding="utf-8")
        assert load_dataset(tmp_path).schedule == want
