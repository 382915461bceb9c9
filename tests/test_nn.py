"""Forward-pass oracles, locality, equivariance, updates, checkpoints."""
import dataclasses
import json
import struct
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gotham import autodiff as ad
from gotham import nn as network
from gotham.graphstore import build_snapshot, graph_at, synth_generate
from test_autodiff import same_bits
from test_graphstore import MIXED_EDGES


def dense_mean_adjacency(graph):
    """D^-1 A from the dense adjacency (every node visible), one CSR row at a
    time."""
    adj = np.zeros((graph.num_nodes, graph.num_nodes))
    for u in range(graph.num_nodes):
        adj[u, graph.indices[graph.indptr[u]:graph.indptr[u + 1]]] += 1.0
    return adj / adj.sum(axis=1, keepdims=True)


def dense_forward_oracle(graph, layers, slope):
    """Independent dense implementation: H <- act(D^-1 A (H W) + b)."""
    m = dense_mean_adjacency(graph)
    h = graph.features.copy()
    for i, (w, b) in enumerate(layers):
        z = m @ (h @ w) + b
        h = z if i == len(layers) - 1 else np.where(z >= 0, z, slope * z)
    return h


def star_graph(n_leaves=3, d=4, seed=0):
    rng = np.random.default_rng(seed)
    edges = np.array([[0, i + 1] for i in range(n_leaves)])
    feats = rng.standard_normal((n_leaves + 1, d))
    return build_snapshot(n_leaves + 1, edges, feats)


def test_mean_adjacency_matches_dense_oracle():
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [4, 4]])
    g = build_snapshot(6, edges, np.ones((6, 1)))
    for graph in (g, star_graph(n_leaves=5)):
        np.testing.assert_array_equal(graph.mean_adjacency.toarray(),
                                      dense_mean_adjacency(graph))
    assert g.mean_adjacency is g.mean_adjacency


def test_single_node_identity_layer_returns_feature():
    feats = np.array([[1.5, -2.0, 0.5]])
    g = build_snapshot(1, np.zeros((0, 2), dtype=np.int64), feats)
    layer = network.Layer(ad.parameter(np.eye(3)), ad.parameter(np.zeros(3)))
    params = network.GnnParams([layer], negative_slope=1.0)
    out = network.gnn_forward(params, g, [0])
    np.testing.assert_allclose(out.data, feats, atol=1e-15)


def test_equal_features_two_connected_nodes_equal_embeddings():
    feats = np.array([[1.0, 2.0], [1.0, 2.0]])
    g = build_snapshot(2, np.array([[0, 1]]), feats)
    params = network.init_gnn([2, 3, 2], np.random.default_rng(0))
    out = network.gnn_forward(params, g, [0, 1]).data
    np.testing.assert_allclose(out[0], out[1], rtol=1e-14)


class RecordingRng:
    """A generator that keeps every array its ``uniform`` draws."""

    def __init__(self, seed):
        self.rng, self.drawn = np.random.default_rng(seed), []

    def uniform(self, *args, **kwargs):
        self.drawn.append(self.rng.uniform(*args, **kwargs))
        return self.drawn[-1]


@pytest.mark.parametrize("backbone", ["mean", "attention"])
def test_init_keeps_each_fresh_draw_as_its_parameter_without_a_copy(backbone):
    rng = RecordingRng(5)
    params = network.init_gnn([3, 4, 2], rng, backbone=backbone)
    tensors = [getattr(layer, name) for layer in params.layers
               for name in ("weight", "bias", "att_src", "att_dst")
               if getattr(layer, name) is not None]
    assert len(tensors) == len(rng.drawn) == (8 if backbone == "attention" else 4)
    assert all(t.data is a and t.requires_grad for t, a in zip(tensors, rng.drawn))


def test_star_matches_dense_oracle():
    g = star_graph()
    rng = np.random.default_rng(7)
    params = network.init_gnn([4, 6, 3], rng, negative_slope=0.01)
    layers = [(l.weight.data, l.bias.data) for l in params.layers]
    expected = dense_forward_oracle(g, layers, 0.01)
    got = network.gnn_forward(params, g, np.arange(4)).data
    np.testing.assert_allclose(got, expected[:4], rtol=1e-10)


def test_forward_subset_matches_full():
    g = star_graph(n_leaves=5, seed=3)
    params = network.init_gnn([4, 5, 2], np.random.default_rng(1))
    full = network.gnn_forward(params, g, np.arange(6)).data
    some = network.gnn_forward(params, g, [4, 2]).data
    np.testing.assert_allclose(some, full[[4, 2]], rtol=1e-12)


def test_locality_far_node_has_exactly_no_effect():
    # path 0-1-2-3-4; embeddings of node 0 with 2 layers reach only hops <= 2
    edges = np.array([[i, i + 1] for i in range(4)])
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((5, 3))
    params = network.init_gnn([3, 4, 2], np.random.default_rng(2))
    g1 = build_snapshot(5, edges, feats)
    out1 = network.gnn_forward(params, g1, [0]).data
    feats2 = feats.copy()
    feats2[4] += 100.0          # 4 hops away from node 0
    feats2[3] += 50.0           # 3 hops away
    g2 = build_snapshot(5, edges, feats2)
    out2 = network.gnn_forward(params, g2, [0]).data
    np.testing.assert_array_equal(out1, out2)


def test_permutation_equivariance():
    rng = np.random.default_rng(11)
    n, d = 7, 3
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 0],
                      [1, 4]])
    feats = rng.standard_normal((n, d))
    params = network.init_gnn([d, 5, 4], np.random.default_rng(3))
    perm = rng.permutation(n)
    g = build_snapshot(n, edges, feats)
    pg = build_snapshot(n, perm[edges], feats[np.argsort(perm)])
    out = network.gnn_forward(params, g, np.arange(n)).data
    pout = network.gnn_forward(params, pg, perm).data
    np.testing.assert_allclose(pout, out, rtol=1e-12)


def test_attention_backbone_runs_and_is_local():
    g = star_graph(n_leaves=4, seed=9)
    params = network.init_gnn([4, 5, 3], np.random.default_rng(4),
                              backbone="attention")
    out = network.gnn_forward(params, g, np.arange(5)).data
    assert out.shape == (5, 3)
    assert np.all(np.isfinite(out))
    sub = network.gnn_forward(params, g, [2, 0]).data
    np.testing.assert_allclose(sub, out[[2, 0]], rtol=1e-12)


# -- vectorised neighbourhoods against per-node loop oracles -------------------

def hop_sets_oracle(graph, nodes, depth):
    needed = [None] * (depth + 1)
    needed[depth] = nodes
    current = nodes
    for l in range(depth - 1, -1, -1):
        nbrs = [graph.indices[graph.indptr[u]:graph.indptr[u + 1]] for u in current]
        nbrs.append(current)
        current = np.unique(np.concatenate(nbrs))
        needed[l] = current
    return needed


def csc_backward_product(m, h):
    """``m @ h`` with ``m`` in CSR form and a backward through its ``.T``
    (CSC), as every sparse product was computed before forward plans."""
    return ad.sparse_matmul(m.tocsr(), h)


def mean_agg_oracle(graph, rows, cols):
    col_pos = {int(c): i for i, c in enumerate(cols)}
    indptr = [0]
    indices = []
    data = []
    for u in rows:
        nbrs = graph.indices[graph.indptr[u]:graph.indptr[u + 1]]
        inv = 1.0 / graph.degree[u]
        for v in nbrs:
            indices.append(col_pos[int(v)])
            data.append(inv)
        indptr.append(len(indices))
    return sp.csr_matrix((np.asarray(data), np.asarray(indices, dtype=np.int64),
                          np.asarray(indptr, dtype=np.int64)),
                         shape=(rows.size, cols.size))


def attention_aggregate_oracle(params, layer, graph, rows, cols, h):
    """Each row's softmax over its own neighbours, one row at a time, then the
    weighted sum of their rows of ``h``."""
    col_pos = {int(c): i for i, c in enumerate(cols)}
    a_src = layer.weight @ layer.att_src.reshape(-1, 1)
    a_dst = layer.weight @ layer.att_dst.reshape(-1, 1)
    out = []
    for u in rows:
        nbrs = ad.gather_rows(h, [col_pos[int(v)] for v in graph.neighbors(u)])
        scores = ad.leaky_relu(ad.gather_rows(h, [col_pos[int(u)]]) @ a_src
                               + nbrs @ a_dst, params.negative_slope)
        weights = ad.exp(scores - ad.constant(scores.data.max()))
        out.append((weights / weights.sum()).transpose() @ nbrs)
    return ad.vstack(out)


def dense_mask_attention_oracle(params, layer, graph, rows, cols, z):
    """Softmax of ``z``'s scores over a dense rows x cols neighbour mask, then
    ``attn @ z``."""
    col_pos = {int(c): i for i, c in enumerate(cols)}
    mask = np.zeros((rows.size, cols.size))
    for i, u in enumerate(rows):
        for v in graph.neighbors(u):
            mask[i, col_pos[int(v)]] = 1.0
    row_idx = np.asarray([col_pos[int(u)] for u in rows], dtype=np.int64)
    zr = ad.gather_rows(z, row_idx)
    scores = (zr @ layer.att_src.reshape(-1, 1)) + \
             (z @ layer.att_dst.reshape(-1, 1)).transpose()
    scores = ad.leaky_relu(scores, params.negative_slope)
    shift = (scores.data * mask).max(axis=1, keepdims=True)
    weights = ad.exp(scores - ad.constant(shift)) * ad.constant(mask)
    denom = weights.sum(axis=1).reshape(-1, 1)
    return (weights / denom) @ z


def gnn_forward_oracle(params, graph, nodes, transform_first=False):
    """Loop-built ``agg(H) W + b`` layers; with ``transform_first``, the
    ``M (H W) + b`` form with a dense attention mask instead."""
    nodes = np.asarray(nodes, dtype=np.int64)
    depth = len(params.layers)
    needed = hop_sets_oracle(graph, nodes, depth)
    h = ad.constant(graph.features[needed[0]])
    for l, layer in enumerate(params.layers):
        rows, cols = needed[l + 1], needed[l]
        if transform_first and params.backbone == "mean":
            z = csc_backward_product(mean_agg_oracle(graph, rows, cols), h @ layer.weight)
        elif transform_first:
            z = dense_mask_attention_oracle(params, layer, graph, rows, cols,
                                            h @ layer.weight)
        elif params.backbone == "mean":
            z = csc_backward_product(mean_agg_oracle(graph, rows, cols), h) @ layer.weight
        else:
            z = attention_aggregate_oracle(params, layer, graph, rows, cols,
                                           h) @ layer.weight
        z = z + layer.bias
        h = z if l == depth - 1 else ad.leaky_relu(z, params.negative_slope)
    pos = {int(u): i for i, u in enumerate(needed[depth])}
    return ad.gather_rows(h, [pos[int(u)] for u in nodes])


@st.composite
def graphs_with_hidden_nodes(draw):
    """A random snapshot with some nodes not yet arrived, plus visible query
    nodes in random order and an encoder depth."""
    n = draw(st.integers(1, 24))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    hidden = draw(st.sets(node, max_size=n - 1))
    visible = sorted(set(range(n)) - hidden)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # cut from the full graph, as graph_at cuts a session's snapshot
    graph = build_snapshot(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                           rng.standard_normal((n, 3))).restrict(
                               np.isin(np.arange(n), visible))
    order = draw(st.permutations(visible))
    nodes = np.asarray(order[:draw(st.integers(1, len(order)))], dtype=np.int64)
    return graph, nodes, draw(st.integers(1, 3))


ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@MIXED_EDGES
@ORACLE_SETTINGS
@given(graphs_with_hidden_nodes())
def test_hop_sets_and_mean_blocks_equal_loop_oracles(case):
    graph, nodes, depth = case
    needed = network._hop_sets(graph, nodes, depth)
    expected = hop_sets_oracle(graph, nodes, depth)
    for got, want in zip(needed, expected):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for l in range(depth):
        got = network._restricted_mean_agg(graph, needed[l + 1], needed[l])
        want = mean_agg_oracle(graph, needed[l + 1], needed[l])
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)


@MIXED_EDGES
@ORACLE_SETTINGS
@given(graphs_with_hidden_nodes())
def test_hop_sets_equal_the_np_unique_formula(case):
    """Each hop set deduplicated by one sort equals ``np.unique`` over the
    same CSR entries, value for value and in dtype."""
    graph, nodes, depth = case
    needed = network._hop_sets(graph, nodes, depth)
    current = nodes
    for l in range(depth - 1, -1, -1):
        _, take = network._row_entries(graph, current)
        current = np.unique(np.concatenate([graph.indices[take], current]))
        assert needed[l].dtype == current.dtype
        np.testing.assert_array_equal(needed[l], current)


def layer_params(params):
    return {f"{i}.{k}": t for i, layer in enumerate(params.layers)
            for k, t in vars(layer).items() if t is not None}


def forward_and_gradients(forward, params, graph, nodes, weights):
    out = forward(params, graph, nodes)
    return out.data, network.compute_gradients(layer_params(params),
                                                (out * weights).sum())


def assert_gradients_close(got, want, rtol):
    """Each gradient within ``rtol`` of its own largest entry, except the
    attention score vectors'.

    A score gradient sums terms that cancel: all of them for a softmax over one
    entry, and for att_src in every row, whose softmax is invariant to the
    source score added to all of its entries except through the leaky-ReLU
    kink. What is left of those sums is rounding, held against the largest
    gradient entry of any parameter.
    """
    scale = max(np.abs(w).max() for w in want.values())
    for name, w in want.items():
        ref = scale if name.endswith(("att_src", "att_dst")) else np.abs(w).max()
        assert np.abs(got[name] - w).max() <= rtol * max(ref, 1e-300), name


@MIXED_EDGES
@ORACLE_SETTINGS
@given(graphs_with_hidden_nodes(), st.sampled_from(["mean", "attention"]))
def test_gnn_forward_and_gradients_equal_loop_oracle(case, backbone):
    graph, nodes, depth = case
    params = network.init_gnn([3] + [4] * depth, np.random.default_rng(depth),
                              backbone=backbone)
    weights = np.random.default_rng(1).standard_normal((nodes.size, 4))
    got, got_grads = forward_and_gradients(network.gnn_forward, params, graph,
                                           nodes, weights)
    want, want_grads = forward_and_gradients(gnn_forward_oracle, params, graph,
                                             nodes, weights)
    if backbone == "mean":
        # the same products in the same order
        np.testing.assert_array_equal(got, want)
        for name in want_grads:
            np.testing.assert_array_equal(got_grads[name], want_grads[name])
    else:
        # the oracle's row-at-a-time products sum in other orders
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert_gradients_close(got_grads, want_grads, 1e-12)


@MIXED_EDGES
@ORACLE_SETTINGS
@given(graphs_with_hidden_nodes(), st.sampled_from(["mean", "attention"]))
def test_gnn_forward_and_gradients_match_transform_first_oracle(case, backbone):
    # (A H) W and A (H W) are one product summed in two orders
    graph, nodes, depth = case
    params = network.init_gnn([3] + [4] * depth, np.random.default_rng(depth),
                              backbone=backbone)
    weights = np.random.default_rng(1).standard_normal((nodes.size, 4))
    got, got_grads = forward_and_gradients(network.gnn_forward, params, graph,
                                           nodes, weights)
    want, want_grads = forward_and_gradients(
        lambda *args: gnn_forward_oracle(*args, transform_first=True),
        params, graph, nodes, weights)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert_gradients_close(got_grads, want_grads, 1e-12)


@pytest.mark.parametrize("depth", [2, 3])
def test_a_taped_mean_forward_frees_its_hidden_activations(depth, monkeypatch,
                                                           refcount_only):
    """A hidden layer is one ``affine`` node that applies its leaky ReLU in
    its own buffer, so it makes one array, and no ``leaky_relu`` runs. No
    backward reads that array: the node keeps its slope mask and the next
    layer's sparse product its operator. Every hidden layer's array, layer
    0's included, is freed before ``gnn_forward`` returns, and the gradients
    still equal the loop oracle's bit for bit."""
    graph = graph_at(synth_generate(0, 3, 10, 0.5, 0.1, 4), 0)
    nodes = np.arange(0, 30, 3)
    params = network.init_gnn([4] + [5] * depth, np.random.default_rng(depth))
    weights = np.random.default_rng(1).standard_normal((nodes.size, 5))
    made = []

    def spy(fn):
        def taped(*args):
            out = fn(*args)
            made.append(weakref.ref(out.data))
            return out
        return taped

    def no_relu(*args):
        raise AssertionError("a hidden layer ran a leaky_relu node of its own")

    monkeypatch.setattr(ad, "affine", spy(ad.affine))
    monkeypatch.setattr(ad, "leaky_relu", no_relu)
    out = network.gnn_forward(params, graph, nodes)
    # h_0, ..., h_{L-2}, then the output: one array a layer, and the
    # output's is the only one alive
    assert [ref() is None for ref in made] == [True] * (depth - 1) + [False]
    got = network.compute_gradients(layer_params(params), (out * weights).sum())
    monkeypatch.undo()
    _, want = forward_and_gradients(gnn_forward_oracle, params, graph, nodes,
                                    weights)
    for name in want:
        np.testing.assert_array_equal(got[name], want[name])


@pytest.mark.parametrize("depth", [2, 3])
def test_a_tape_free_mean_forward_drops_each_layer_as_it_moves_on(
        depth, monkeypatch, refcount_only):
    """Under ``no_grad`` nothing keeps a layer's arrays: when an operation of
    the forward starts, the only arrays it made earlier that are alive are
    the operation's operands and the last layer output, the input of the
    aggregate being transformed, so at most two: that input and its
    aggregate. A layer's aggregate dies while the forward still runs, and
    only the output outlives it."""
    graph = graph_at(synth_generate(0, 3, 10, 0.5, 0.1, 4), 0)
    nodes = np.arange(0, 30, 3)
    params = network.init_gnn([4] + [5] * depth, np.random.default_rng(depth))
    made, layer_out, calls = [], [], []

    def spy(fn, layer=False):
        def run(*args):
            allowed = {id(a.data) for a in args if isinstance(a, ad.Tensor)}
            if layer_out:
                allowed.add(id(layer_out[-1]()))
            alive = {id(ref()) for ref in made if ref() is not None}
            assert alive <= allowed and len(alive) <= 2, fn.__name__
            calls.append(fn.__name__)
            out = fn(*args)
            assert out._node is None
            made.append(weakref.ref(out.data))
            if layer:
                layer_out.append(made[-1])
            return out
        return run

    monkeypatch.setattr(ad, "sparse_matmul", spy(ad.sparse_matmul))
    monkeypatch.setattr(ad, "affine", spy(ad.affine, layer=True))
    monkeypatch.setattr(ad, "leaky_relu", spy(ad.leaky_relu))
    with ad.no_grad():
        out = network.gnn_forward(params, graph, nodes)
    monkeypatch.undo()
    # layer 0 aggregates nothing; each later layer multiplies by M first;
    # no layer runs a leaky_relu of its own
    assert calls == ["affine"] + ["sparse_matmul", "affine"] * (depth - 1)
    assert [ref() is None for ref in made] == [True] * (len(made) - 1) + [False]
    taped = network.gnn_forward(params, graph, nodes)
    assert out.data.tobytes() == taped.data.tobytes()


@pytest.mark.parametrize("backbone", ["mean", "attention"])
def test_compute_gradients_frees_what_the_backward_captured(backbone,
                                                            monkeypatch,
                                                            refcount_only):
    """Each layer's backward captures its aggregate; once
    ``compute_gradients`` returns, the spent tape holds none of them, though
    the forward's output tensor and loss are still alive."""
    graph = graph_at(synth_generate(0, 3, 10, 0.5, 0.1, 4), 0)
    nodes = np.arange(0, 30, 3)
    params = network.init_gnn([4, 5, 5], np.random.default_rng(2),
                              backbone=backbone)
    captured, affine = [], ad.affine

    def spy(x, *args):
        captured.append(weakref.ref(x.data))
        return affine(x, *args)

    monkeypatch.setattr(ad, "affine", spy)
    out = network.gnn_forward(params, graph, nodes)
    loss = (out * out).sum()
    monkeypatch.undo()
    assert len(captured) == 2 and all(ref() is not None for ref in captured)
    network.compute_gradients(layer_params(params), loss)
    assert all(ref() is None for ref in captured)
    assert out.data is not None and loss.item() > 0.0


@pytest.mark.parametrize("backbone", ["mean", "attention"])
def test_training_after_a_tape_free_forward_gives_the_same_gradients(backbone):
    graph = graph_at(synth_generate(0, 3, 10, 0.5, 0.1, 4), 0)
    nodes, others = np.arange(0, 30, 3), np.arange(1, 30, 4)
    weights = np.random.default_rng(1).standard_normal((nodes.size, 5))
    results = []
    for tape_free_first in (False, True):
        params = network.init_gnn([4, 5, 5], np.random.default_rng(2),
                                  backbone=backbone)
        if tape_free_first:
            with ad.no_grad():
                for rows in (nodes, others):
                    free = network.gnn_forward(params, graph, rows)
                    assert not free.requires_grad
                assert all(t.requires_grad for t in layer_params(params).values())
        out, grads = forward_and_gradients(network.gnn_forward, params, graph,
                                           nodes, weights)
        results.append((out.tobytes(), {k: g.tobytes() for k, g in grads.items()}))
    assert results[0] == results[1]


def test_a_model_and_its_tape_are_freed_by_reference_counting(refcount_only):
    """Nothing points from a tape node back to a parameter, so a model, and a
    tape built from it, die without the cyclic collector."""
    model = network.init_model(4, 6, 5, 2, seed=0, csd_dim=3,
                               backbone="attention")
    graph = graph_at(synth_generate(0, 3, 10, 0.5, 0.1, 4), 0)
    loss = (network.gnn_forward(model.gnn, graph, np.arange(8)).sum()
            + network.mlp_forward(model.mlp, np.ones((2, 3))).sum())
    params = network.named_parameters(model)
    grads = network.compute_gradients(params, loss)
    model_ref = weakref.ref(model)
    arrays = [weakref.ref(t.data) for t in params.values()]
    arrays += [weakref.ref(g) for g in grads.values()]
    del model, params
    assert model_ref() is None
    del loss, grads
    assert all(ref() is None for ref in arrays)


def former_mean_forward(params, graph, nodes):
    """The mean forward as it was before layer 0 read ``mean_features``: L
    hops, the input rows gathered from the features, a row block of M on
    every layer."""
    depth = len(params.layers)
    needed = network._hop_sets(graph, nodes, depth)
    h = ad.constant(graph.features[needed[0]])
    for l, layer in enumerate(params.layers):
        block = network._restricted_mean_agg(graph, needed[l + 1], needed[l])
        z = ad.affine(csc_backward_product(block, h), layer.weight, layer.bias)
        h = z if l == depth - 1 else ad.leaky_relu(z, params.negative_slope)
    return h


def arrivals_snapshots():
    """Sessions 0 and 1 of a 100-node stream whose class-3 nodes (75-99)
    arrive at session 1."""
    bundle = synth_generate(0, 4, 25, 0.2, 0.03, 6, n_base=3, k_shot=3)
    spec = dataclasses.replace(bundle.schedule.sessions[0],
                               arrivals=tuple(range(75, 100)))
    bundle = dataclasses.replace(bundle, schedule=dataclasses.replace(
        bundle.schedule, sessions=(spec,)))
    return graph_at(bundle, 0), graph_at(bundle, 1)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_mean_forward_equals_the_former_two_hop_form(depth, monkeypatch):
    params = network.init_gnn([6] + [32] * depth, np.random.default_rng(depth))
    rng = np.random.default_rng(7)
    hops = []
    hop_sets = network._hop_sets
    monkeypatch.setattr(network, "_hop_sets", lambda graph, nodes, depth:
                        hops.append(depth) or hop_sets(graph, nodes, depth))
    for graph in arrivals_snapshots():
        nodes = rng.permutation(graph.visible)[:30]
        weights = rng.standard_normal((nodes.size, 32))
        hops.clear()
        got, got_grads = forward_and_gradients(network.gnn_forward, params,
                                               graph, nodes, weights)
        assert hops == [depth - 1]     # one hop fewer than the layers
        want, want_grads = forward_and_gradients(former_mean_forward, params,
                                                 graph, nodes, weights)
        assert got.tobytes() == want.tobytes()
        for name in want_grads:
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), name


def former_attention_aggregate(params, layer, graph, rows, cols, h):
    """The attention aggregate as it was before forward plans: every operator
    built on each call, every backward through ``m.T`` (CSC)."""
    indptr, take = network._row_entries(graph, rows)
    pos = network._positions(graph, cols)
    col_idx = pos[graph.indices[take]]
    nnz, counts = indptr[-1], np.diff(indptr)
    att = ad.vstack([layer.att_src, layer.att_dst]).transpose()
    s = (h @ (layer.weight @ att)).reshape(-1, 1)
    pick = np.stack([2 * np.repeat(pos[rows], counts), 2 * col_idx + 1], axis=1)
    both = sp.csr_matrix((np.ones(2 * nnz), pick.ravel(),
                          np.arange(0, 2 * nnz + 1, 2)), shape=(nnz, 2 * cols.size))
    scores = ad.leaky_relu(csc_backward_product(both, s), params.negative_slope)
    shift = np.repeat(np.maximum.reduceat(scores.data[:, 0], indptr[:-1]), counts)
    weights = ad.exp(scores - ad.constant(shift[:, None]))
    segment = sp.csr_matrix((np.ones(nnz), np.arange(nnz), indptr),
                            shape=(rows.size, nnz))
    denom = csc_backward_product(segment, weights)
    attn = weights / csc_backward_product(segment.T, denom)
    return ad.csr_matmul(attn, col_idx, indptr, h,
                         np.repeat(np.arange(rows.size), counts))


def former_forward(params, graph, nodes):
    """The forward as it was before forward plans, on either backbone."""
    if params.backbone == "mean":
        return former_mean_forward(params, graph, nodes)
    depth = len(params.layers)
    needed = network._hop_sets(graph, nodes, depth)
    h = ad.constant(graph.features[needed[0]])
    for l, layer in enumerate(params.layers):
        agg = former_attention_aggregate(params, layer, graph, needed[l + 1],
                                         needed[l], h)
        z = ad.affine(agg, layer.weight, layer.bias)
        h = z if l == depth - 1 else ad.leaky_relu(z, params.negative_slope)
    return h


@pytest.mark.parametrize("backbone", ["mean", "attention"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_plan_driven_forward_equals_a_fresh_forward(depth, backbone):
    """One plan serves forward after forward while the parameters move; each
    gives the outputs and parameter gradients, bit for bit, of a forward that
    builds its own plan and of the former per-call form."""
    params = network.init_gnn([6] + [32] * depth, np.random.default_rng(depth),
                              backbone=backbone)
    rng = np.random.default_rng(11)
    for graph in arrivals_snapshots():
        nodes = rng.permutation(graph.visible)[:30]
        weights = rng.standard_normal((nodes.size, 32))
        plan = network.forward_plan(params, graph, nodes)
        for _ in range(2):
            got, got_grads = forward_and_gradients(
                lambda p, g, n: network.gnn_forward(p, g, plan), params, graph,
                nodes, weights)
            for forward in (network.gnn_forward, former_forward):
                want, want_grads = forward_and_gradients(forward, params, graph,
                                                         nodes, weights)
                assert got.tobytes() == want.tobytes()
                assert got_grads.keys() == want_grads.keys()
                for name in want_grads:
                    assert got_grads[name].tobytes() == want_grads[name].tobytes(), name
            # the next forward runs on moved parameters
            network.apply_update(layer_params(params), got_grads, 0.5)


def test_invisible_nodes_are_rejected_and_plans_stay_with_their_snapshot():
    before, after = arrivals_snapshots()          # nodes 75-99 arrive at t=1
    params = network.init_gnn([6, 8, 4], np.random.default_rng(0),
                              backbone="attention")
    message = r"nodes \[80, 99\] are not visible in this snapshot"
    for build in (network.gnn_forward, network.forward_plan):
        with pytest.raises(ValueError, match=message):
            build(params, before, [3, 80, 99])
    plan = network.forward_plan(params, after, [3, 80, 99])
    mean = network.init_gnn([6, 8, 4], np.random.default_rng(0))
    for other, graph in ((params, before), (mean, after),
                         (network.init_gnn([6, 4], np.random.default_rng(0),
                                           backbone="attention"), after)):
        with pytest.raises(ValueError, match="another snapshot or encoder"):
            network.gnn_forward(other, graph, plan)


@pytest.mark.parametrize("backbone", ["mean", "attention"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_an_empty_node_list_embeds_to_no_rows(depth, backbone):
    """No node gives a (0, d_out) embedding, with a tape and without, and a
    loss over it a zero gradient of every parameter."""
    _, graph = arrivals_snapshots()
    model = network.init_model(6, 8, 4, depth, 0, backbone=backbone)
    with ad.no_grad():
        assert network.gnn_forward(model.gnn, graph, []).shape == (0, 4)
    emb = network.gnn_forward(model.gnn, graph, np.empty(0, dtype=np.int64))
    assert emb.shape == (0, 4) and emb.requires_grad
    params = network.named_parameters(model)
    grads = network.compute_gradients(params, emb.sum())
    assert sorted(grads) == sorted(params)
    assert all(not g.any() for g in grads.values())


def union_rows(params, graph, sets):
    """Each set's rows of one forward over the union of ``sets``, as
    ``prototypes.build_prototype_tensors`` embeds the supports of a task."""
    union, position = np.unique(np.concatenate(sets), return_inverse=True)
    emb = network.gnn_forward(params, graph, union)
    ends = np.cumsum([s.size for s in sets])
    return [ad.gather_rows(emb, p) for p in np.split(position, ends[:-1])]


@ORACLE_SETTINGS
@given(graphs_with_hidden_nodes(), st.sampled_from(["mean", "attention"]),
       st.data())
@MIXED_EDGES
def test_union_forward_rows_equal_per_set_forwards(case, backbone, data):
    graph, _, depth = case
    assume(graph.visible.size >= 2)
    # overlapping sets of visible nodes, as the classes' extended supports
    # are; a set of two or more nodes keeps every dense product at two or more
    # rows (a one-row product takes numpy's vector path, which sums in
    # another order; see the test below)
    sets = [np.asarray(data.draw(st.lists(st.sampled_from(graph.visible.tolist()),
                                          min_size=2, max_size=8, unique=True)),
                       dtype=np.int64)
            for _ in range(data.draw(st.integers(1, 4)))]
    params = network.init_gnn([3] + [4] * depth, np.random.default_rng(depth),
                              backbone=backbone)
    weights = [np.random.default_rng(i).standard_normal((s.size, 4))
               for i, s in enumerate(sets)]
    results = []
    for rows in (union_rows(params, graph, sets),
                 [network.gnn_forward(params, graph, s) for s in sets]):
        loss = sum(((r * w).sum() for r, w in zip(rows, weights)), ad.constant(0.0))
        results.append(([r.data for r in rows],
                        network.compute_gradients(layer_params(params), loss)))
    (got, got_grads), (want, want_grads) = results
    # a row, mean or attention, reads only its own CSR entries
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    # the backward pass sums the shared rows in another order
    assert_gradients_close(got_grads, want_grads, 1e-12)


def test_self_loop_only_row_is_its_own_affine_map():
    # node 2 is visible with no edges: its one CSR entry is its self-loop, so
    # its mean weight and its softmax weight are exactly 1; it sits between
    # rows of three and two entries, so the softmax segments must line up
    edges = np.array([[0, 1], [0, 3], [1, 3], [3, 4]])
    feats = np.random.default_rng(6).standard_normal((5, 3))
    g = build_snapshot(5, edges, feats)
    nodes = np.array([0, 2, 4])
    for backbone in ("mean", "attention"):
        params = network.init_gnn([3, 4], np.random.default_rng(8),
                                  backbone=backbone)
        layer = params.layers[0]
        out = network.gnn_forward(params, g, nodes).data
        want = feats[nodes] @ layer.weight.data + layer.bias.data
        np.testing.assert_array_equal(out[1], want[1])
        assert not np.array_equal(out[[0, 2]], want[[0, 2]])


def test_union_forward_of_a_one_node_set_is_within_rounding():
    g = star_graph(n_leaves=5, seed=2)
    sets = [np.array([3]), np.array([0, 1, 4])]
    params = network.init_gnn([4, 6, 3], np.random.default_rng(5))
    rows = union_rows(params, g, sets)
    for r, s in zip(rows, sets):
        want = network.gnn_forward(params, g, s).data
        np.testing.assert_allclose(r.data, want, rtol=1e-14, atol=1e-15)


# -- semantic encoder ---------------------------------------------------------

def test_mlp_zero_params_zero_output():
    layers = [network.Layer(ad.parameter(np.zeros((3, 4))), ad.parameter(np.zeros(4)))]
    params = network.GnnParams(layers)
    out = network.mlp_forward(params, np.ones((2, 3)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_mlp_identity_map():
    layers = [network.Layer(ad.parameter(np.eye(3)), ad.parameter(np.zeros(3))),
              network.Layer(ad.parameter(np.eye(3)), ad.parameter(np.zeros(3)))]
    params = network.GnnParams(layers, negative_slope=1.0)
    x = np.array([[1.0, -2.0, 3.0]])
    np.testing.assert_allclose(network.mlp_forward(params, x).data, x)


def test_mlp_matches_dense_oracle():
    rng = np.random.default_rng(21)
    params = network.init_gnn([2, 3, 2], rng, negative_slope=0.01)
    x = rng.standard_normal((3, 2))
    h = x.copy()
    for i, layer in enumerate(params.layers):
        z = h @ layer.weight.data + layer.bias.data
        h = z if i == len(params.layers) - 1 else np.where(z >= 0, z, 0.01 * z)
    np.testing.assert_allclose(network.mlp_forward(params, x).data, h, rtol=1e-10)


# -- gradients / updates ------------------------------------------------------

def test_compute_gradients_quadratic():
    model = network.init_model(3, 4, 2, 2, seed=0)
    params = network.named_parameters(model)
    w = params["gnn.0.weight"]
    loss = ((w * w).sum()) * 0.5
    grads = network.compute_gradients(params, loss)
    np.testing.assert_allclose(grads["gnn.0.weight"], w.data)
    np.testing.assert_array_equal(grads["gnn.1.bias"],
                                  np.zeros_like(params["gnn.1.bias"].data))


def test_returned_gradients_survive_the_next_step():
    """``apply_update`` consumes the gradients it is given: each array
    becomes its parameter's new data, and the parameter array it replaced is
    not written. The next step moves every parameter onto that step's
    gradient arrays and leaves the first ones, the parameters it replaced,
    as they were."""
    model = network.init_model(3, 4, 2, 2, seed=0)
    params = network.named_parameters(model)
    w = params["gnn.0.weight"]
    old = {k: t.data for k, t in params.items()}
    kept = {k: a.copy() for k, a in old.items()}
    first = network.compute_gradients(params, (w * w).sum())
    network.apply_update(params, first, lr=0.1)
    for name, t in params.items():
        assert t.data is first[name]
        assert same_bits(old[name], kept[name])
    kept = {k: g.copy() for k, g in first.items()}
    second = network.compute_gradients(params, (w * w * w).sum())
    network.apply_update(params, second, lr=0.1)
    for name, g in first.items():
        assert params[name].data is second[name]
        assert same_bits(g, kept[name])
        assert not np.shares_memory(g, second[name])


def test_compute_gradients_rejects_nonfinite():
    model = network.init_model(2, 2, 2, 1, seed=0)
    params = network.named_parameters(model)
    with np.errstate(divide="ignore"):
        bad = ad.log(ad.constant(0.0)) + params["gnn.0.weight"].sum()
    with pytest.raises(network.NonFiniteError):
        network.compute_gradients(params, bad)


def test_apply_update_arithmetic():
    t = ad.parameter(np.array([1.0]))
    params = {"w": t}
    network.apply_update(params, {"w": np.array([1.0])}, lr=0.1, weight_decay=0.0)
    assert t.data[0] == pytest.approx(0.9)

    t2 = ad.parameter(np.array([2.0]))
    network.apply_update({"w": t2}, {"w": np.zeros(1)}, lr=0.1, weight_decay=0.5)
    assert t2.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    t3 = ad.parameter(np.array([3.0]))
    network.apply_update({"w": t3}, {"w": np.ones(1)}, lr=0.0, weight_decay=0.5)
    assert t3.data[0] == 3.0


def test_apply_update_rejects_nonfinite():
    t = ad.parameter(np.array([1.0]))
    with pytest.raises(network.NonFiniteError, match="w"):
        network.apply_update({"w": t}, {"w": np.array([np.inf])}, lr=0.1)


def test_apply_update_is_all_or_nothing():
    a, b = ad.parameter(np.array([1.0, 2.0])), ad.parameter(np.array([3.0]))
    before = a.data
    grads = {"a": np.array([0.5, -0.5]), "b": np.array([np.nan])}
    with pytest.raises(network.NonFiniteError, match="b"):
        network.apply_update({"a": a, "b": b}, grads, lr=0.1)
    # the first parameter's step was finite, yet it did not move either
    assert a.data is before
    np.testing.assert_array_equal(a.data, [1.0, 2.0])
    np.testing.assert_array_equal(b.data, [3.0])


UPDATE_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, np.inf,
                  -np.inf, np.nan, 1.0, -1.5]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.data())
def test_apply_update_equals_formula_bit_for_bit(n, data):
    """The new value is the formula's, bit for bit, written into the
    gradient array, which becomes the parameter's data; the old parameter
    array is not written. A non-finite value moves no parameter, not even
    one whose finite step was already written into its gradient."""
    values = st.one_of(st.floats(-4, 4), st.sampled_from(UPDATE_SPECIAL))
    p0, g0 = (np.asarray(data.draw(st.lists(values, min_size=n, max_size=n)))
              for _ in range(2))
    lr = data.draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 3.0]))
    wd = data.draw(st.sampled_from([0.0, 5e-3, 0.5, 1.0]))
    want = p0 - lr * (g0 + wd * p0)
    # a finite step first, so an all-or-nothing update must undo nothing
    a, t = ad.parameter(np.ones(2)), ad.parameter(p0)
    grads = {"a": np.full(2, 0.5), "w": g0.copy()}
    olds = (a.data, t.data)
    if np.isfinite(want).all():
        network.apply_update({"a": a, "w": t}, grads, lr, wd)
        assert t.data is grads["w"] and a.data is grads["a"]
        assert same_bits(t.data, want)
    else:
        with pytest.raises(network.NonFiniteError, match="w"):
            network.apply_update({"a": a, "w": t}, grads, lr, wd)
        assert a.data is olds[0] and t.data is olds[1]
    # neither old parameter array was written to
    assert same_bits(olds[0], np.ones(2)) and same_bits(olds[1], p0)


# -- checkpoints ---------------------------------------------------------------

@pytest.mark.parametrize("backbone,csd_dim", [("mean", 3), ("attention", None),
                                              ("mean", 5)],
                         ids=["projection", "no-semantic-encoder",
                              "no-projection"])
def test_a_checkpoint_is_its_header_then_every_parameter_and_the_projection(
        tmp_path, backbone, csd_dim):
    """Magic, the header's ``<I`` length, a sorted-key JSON header of the
    keys ``save_model`` writes, then the ``<f8`` bytes of ``named_parameters``
    in order and last of the projection; nothing after them."""
    model = network.init_model(5, 8, 4, 2, seed=42, csd_dim=csd_dim,
                               negative_slope=0.2, backbone=backbone)
    path = tmp_path / "m.ckpt"
    network.save_model(model, path)
    raw = path.read_bytes()
    magic = b"GOTHAM1\n"
    assert raw.startswith(magic)
    start = len(magic) + 4
    (hlen,) = struct.unpack("<I", raw[len(magic):start])
    text = raw[start:start + hlen]
    header = json.loads(text)
    assert text == json.dumps(header, sort_keys=True).encode("utf-8")
    params = network.named_parameters(model)
    proj = model.csd_projection
    assert header == {
        "params": [{"name": k, "shape": list(v.data.shape)}
                   for k, v in params.items()],
        "gnn_negative_slope": 0.2,
        "gnn_backbone": backbone,
        "mlp_negative_slope": None if csd_dim is None else 0.2,
        "csd_projection_shape": None if proj is None else [3, 5],
    }
    assert (proj is None) == (csd_dim != 3)
    assert any(k.startswith("mlp.") for k in params) == (csd_dim is not None)
    arrays = [v.data for v in params.values()] + ([] if proj is None else [proj])
    assert raw[start + hlen:] == b"".join(a.astype("<f8").tobytes()
                                          for a in arrays)
