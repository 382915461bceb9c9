"""Prototype construction oracles and the kind of each row."""
import dataclasses

import numpy as np
import pytest

from gotham import autodiff as ad
from gotham import nn as network
from gotham.graphstore import CSDTable, build_snapshot, graph_at, synth_generate
from gotham.prototypes import (add_unseen_prototypes, build_prototype_tensors,
                               encode_csds, plan_supports)
from gotham.sampler import build_class_split, session_supports


def linear_gnn(w, slope=1.0):
    layer = network.Layer(ad.parameter(w), ad.parameter(np.zeros(w.shape[1])))
    return network.GnnParams([layer], negative_slope=slope)


def build_of(model, bundle, supports, t=0, distill=None):
    """The prototypes of ``supports`` at session t, planned as the trainer
    plans a session's supports."""
    plan = plan_supports(model.gnn, graph_at(bundle, t), supports, distill)
    return build_prototype_tensors(model, bundle, t, plan)


def small_bundle(seed=5):
    # 3 classes of 10 nodes, 4-dim features, all three classes in the base
    return synth_generate(seed, 3, 10, 0.6, 0.1, 4)


def plain_model(bundle, sizes=(5, 3), seed=1):
    return network.init_model(bundle.graph.features.shape[1], sizes[0],
                              sizes[-1], len(sizes), seed=seed)


def one_node_forward(params, vector):
    """The graph encoder on ``vector`` as a one-node self-loop graph."""
    g = build_snapshot(1, np.zeros((0, 2), dtype=np.int64), vector[None, :])
    return network.gnn_forward(params, g, [0]).data[0]


def with_unseen(model, bundle, csds, seen=(1, 2)):
    """A gfscil_plain build over ``seen`` plus unseen rows for ``csds``."""
    supports = {c: frozenset(range(10 * c, 10 * c + 3)) for c in seen}
    build = build_of(model, bundle, supports)
    add_unseen_prototypes(build, model, csds, csds)
    return build


def test_singleton_support_equals_embedding():
    b = small_bundle()
    model = plain_model(b)
    plan = plan_supports(model.gnn, graph_at(b, 0), {0: frozenset({1})})
    build = build_prototype_tensors(model, b, 0, plan)
    emb = network.gnn_forward(model.gnn, graph_at(b, 0), [1]).data[0]
    np.testing.assert_array_equal(build.final.data[0], emb)
    assert build.kinds == ["seen"] and plan.membership[0].nnz == 1


def test_opposite_embeddings_cancel():
    # two isolated nodes with opposite features under a linear encoder
    b = small_bundle()
    feats = np.ones((b.graph.num_nodes, 4))
    feats[0], feats[1] = [2.0, -3.0, 0.5, 1.0], [-2.0, 3.0, -0.5, -1.0]
    b = dataclasses.replace(b, graph=build_snapshot(
        b.graph.num_nodes, np.zeros((0, 2), dtype=np.int64), feats))
    w = np.random.default_rng(3).standard_normal((4, 2))
    model = network.ModelState(gnn=linear_gnn(w), mlp=None)
    build = build_of(model, b, {0: frozenset({0, 1})})
    np.testing.assert_array_equal(build.final.data[0], [0.0, 0.0])


def test_seen_prototype_matches_column_mean_oracle():
    b = small_bundle()
    model = plain_model(b)
    support = {0, 3, 7, 12, 25}
    build = build_of(model, b, {0: frozenset(support)})
    emb = network.gnn_forward(model.gnn, b.graph, sorted(support)).data
    np.testing.assert_allclose(build.final.data[0], emb.mean(axis=0), atol=1e-12)
    np.testing.assert_array_equal(build.embeddings.data, emb)


@pytest.mark.parametrize("seed", range(10))
def test_seen_prototypes_equal_column_means_bit_for_bit(seed):
    """The membership product, a sum of each class's rows in node order then
    one scale, is the tape's ``emb.mean(axis=0)`` of those rows exactly (a sum
    times 1/n; numpy's mean divides by n instead)."""
    b = small_bundle()
    model = plain_model(b, (6, 5), seed=seed)
    rng = np.random.default_rng(seed)
    supports = {c: frozenset(rng.choice(np.arange(10 * c, 10 * c + 10),
                                        size=rng.integers(1, 8), replace=False)
                             .tolist())
                for c in range(3)}
    distill = np.sort(rng.choice(30, size=5, replace=False))
    plan = plan_supports(model.gnn, b.graph, supports, distill)
    build = build_prototype_tensors(model, b, 0, plan)
    assert plan.classes.tolist() == [0, 1, 2] and build.seen.shape[0] == 3
    for row, c in enumerate(plan.classes):
        rows = build.embeddings.data[plan.membership[row].indices]
        np.testing.assert_array_equal(build.seen.data[row],
                                      ad.constant(rows).mean(axis=0).data)
        # the member rows are the class's support, in ascending node order
        want = network.gnn_forward(model.gnn, b.graph, sorted(supports[c])).data
        np.testing.assert_allclose(rows, want, rtol=1e-12, atol=1e-14)
    want = network.gnn_forward(model.gnn, b.graph, distill).data
    np.testing.assert_allclose(build.distill.data, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("backbone", ["mean", "attention"])
def test_a_plan_serves_builds_as_a_fresh_plan_does(backbone):
    """Builds that share one plan give what a build on a fresh plan gives,
    bit for bit, also after the parameters move."""
    b = small_bundle()
    model = network.init_model(4, 6, 5, 2, seed=2, csd_dim=4, backbone=backbone)
    supports = {0: frozenset({0, 3, 7}), 1: frozenset({12, 15}),
                2: frozenset({21, 22, 28})}
    distill = np.array([3, 12, 21])
    plan = plan_supports(model.gnn, graph_at(b, 0), supports, distill)
    np.testing.assert_array_equal(plan.forward.nodes,
                                  sorted(set().union(*supports.values())))
    np.testing.assert_array_equal(plan.forward.nodes[plan.distill], distill)
    for _ in range(2):
        builds = [build_prototype_tensors(model, b, 0, p)
                  for p in (plan, plan_supports(model.gnn, graph_at(b, 0),
                                                supports, distill))]
        for name in ("final", "seen", "embeddings", "distill"):
            got, want = (getattr(build, name).data for build in builds)
            assert got.tobytes() == want.tobytes(), name
        params = network.named_parameters(model)
        grads = network.compute_gradients(params, builds[0].final.sum()
                                          + builds[0].distill.sum())
        network.apply_update(params, grads, 0.5)


def test_a_plan_of_another_snapshot_or_unseen_nodes_is_rejected():
    b = small_bundle()
    model = plain_model(b)
    hidden = dataclasses.replace(b.graph, visible=np.arange(20))
    plan = plan_supports(model.gnn, hidden, {0: frozenset({0, 3}),
                                             1: frozenset({12})})
    with pytest.raises(ValueError, match="another snapshot or encoder"):
        build_prototype_tensors(model, b, 0, plan)
    with pytest.raises(ValueError,
                       match=r"nodes \[25\] are not visible in this snapshot"):
        plan_supports(model.gnn, hidden, {0: frozenset({0, 3}),
                                          2: frozenset({25})})


def test_empty_support_rejected():
    b = small_bundle(6)
    with pytest.raises(ValueError, match="empty"):
        build_of(plain_model(b, (3,)), b, {0: frozenset()})


def test_merged_is_midpoint():
    b = small_bundle()
    model = network.init_model(4, 5, 3, 2, seed=1, csd_dim=b.csds.dim)
    supports = {0: frozenset({0, 3, 7}), 1: frozenset({11, 14}),
                2: frozenset({21, 22, 28})}
    build = build_of(model, b, supports)
    assert build.classes.tolist() == sorted(supports)
    for row in range(len(supports)):
        seen, enc = build.seen.data[row], build.encoded.data[row]
        got = build.final.data[row]
        np.testing.assert_array_equal(got, (seen + enc) * 0.5)
        assert build.kinds[row] == "merged"
        # exact midpoint: equidistant from both ends
        assert np.linalg.norm(got - seen) == pytest.approx(
            np.linalg.norm(got - enc), rel=1e-12)


def test_unseen_single_linear_layer():
    w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    csd = np.array([1.0, 0.0, -1.0, 0.5])
    model = network.ModelState(gnn=linear_gnn(w), mlp=None)
    b = small_bundle()
    build = with_unseen(model, b, {0: csd})
    seen = with_unseen(model, b, {}).final.data
    # the zero-shot row is permuted in front of the seen rows it precedes
    assert build.classes.tolist() == [0, 1, 2]
    assert build.kinds == ["unseen_semantic", "seen", "seen"]
    np.testing.assert_allclose(build.final.data[0], csd @ w, atol=1e-14)
    np.testing.assert_array_equal(build.final.data[1:], seen)
    # the zero-shot class averages no support: it has no row of ``seen``,
    # whose rows are those of classes 1 and 2
    assert build.seen.shape[0] == 2
    np.testing.assert_array_equal(build.seen.data, build.final.data[1:])


def test_unseen_zero_vector_zero_output():
    model = network.ModelState(gnn=linear_gnn(np.ones((4, 2))), mlp=None)
    build = with_unseen(model, small_bundle(), {5: np.zeros(4)})
    assert build.classes.tolist() == [1, 2, 5]
    np.testing.assert_array_equal(build.final.data[2], np.zeros(2))


def test_unseen_matches_explicit_one_node_graph():
    # a node whose only CSR entry is its self-loop: its mean weight and its
    # softmax weight are exactly 1, so each layer is a plain affine map
    for backbone in ("mean", "attention"):
        rng = np.random.default_rng(4)
        params = network.init_gnn([4, 6, 3], rng, backbone=backbone)
        csd = rng.standard_normal(4)
        model = network.ModelState(gnn=params, mlp=None)
        build = with_unseen(model, small_bundle(), {7: csd})
        np.testing.assert_array_equal(build.final.data[2],
                                      one_node_forward(params, csd))


def test_several_unseen_rows_match_one_node_graphs():
    # one product over several rows may sum in another order than a one-row
    # product, so several classes agree within rounding only
    for backbone in ("mean", "attention"):
        rng = np.random.default_rng(9)
        params = network.init_gnn([4, 6, 3], rng, backbone=backbone)
        csds = {c: rng.standard_normal(4) for c in (0, 3, 5, 7)}
        model = network.ModelState(gnn=params, mlp=None)
        build = with_unseen(model, small_bundle(), csds)
        assert build.classes.tolist() == [0, 1, 2, 3, 5, 7]
        for c, v in csds.items():
            got = build.final.data[build.classes.tolist().index(c)]
            want = one_node_forward(params, v)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_linear_scaling_property():
    # with a linear backbone, scaling all support features scales the prototype
    b = small_bundle(8)
    w = np.random.default_rng(5).standard_normal((4, 2))
    model = network.ModelState(gnn=linear_gnn(w), mlp=None)
    scaled = dataclasses.replace(
        b, graph=dataclasses.replace(b.graph, features=2.5 * b.graph.features))
    support = {0: frozenset({0, 1, 2})}
    p1 = build_of(model, b, support).final.data[0]
    p2 = build_of(model, scaled, support).final.data[0]
    np.testing.assert_allclose(p2, 2.5 * p1, rtol=1e-12)


def test_permutation_invariance_over_support():
    b = synth_generate(7, 2, 8, 0.8, 0.1, 4)
    model = plain_model(b, (3,), seed=7)
    p1 = build_of(model, b, {0: (3, 1, 9)}).final.data[0]
    p2 = build_of(model, b, {0: (9, 3, 1)}).final.data[0]
    np.testing.assert_array_equal(p1, p2)


# -- full prototype sets -------------------------------------------------------

def fixture(zero_shot=False):
    zero = [4] if zero_shot else []
    b = synth_generate(21, 5, 16, 0.6, 0.05, 8, n_base=3,
                       zero_shot_classes=zero, k_shot=3)
    split = build_class_split(b, 3, anchor_seed=0)
    model = network.init_model(8, 10, 6, 2, seed=1, csd_dim=8)
    t = b.schedule.num_sessions
    extended = session_supports(b, t, split, walk_length=2, walks_per_seed=3,
                                seed=2)
    return b, model, t, extended


def test_gfscil_plain_mode_all_seen():
    """A model without a semantic encoder gives every class a seen row."""
    b, _, t, supports = fixture()
    build = build_of(plain_model(b, (10, 6)), b, supports, t)
    assert build.classes.tolist() == [0, 1, 2, 3, 4]
    assert build.final.shape == (5, 6)
    assert set(build.kinds) == {"seen"}
    assert build.encoded is None


def test_gfscil_semantic_mode_all_merged():
    b, model, t, supports = fixture()
    build = build_of(model, b, supports, t)
    assert build.classes.tolist() == [0, 1, 2, 3, 4]
    assert set(build.kinds) == {"merged"}


def test_gcl_mode_one_unseen():
    b, model, t, supports = fixture(zero_shot=True)
    plan = plan_supports(model.gnn, graph_at(b, t), supports)
    build = build_prototype_tensors(model, b, t, plan)
    kinds = dict(zip(build.classes.tolist(), build.kinds))
    assert kinds[4] == "unseen_semantic"
    assert all(k == "merged" for c, k in kinds.items() if c != 4)
    # exactly |seen| + |unseen| prototypes, rows in ascending class id
    assert plan.classes.tolist() == b.schedule.seen_at(t)
    assert build.seen.shape[0] == len(b.schedule.seen_at(t))
    assert build.classes.tolist() == b.schedule.classes_at(t)
    assert build.final.shape[0] == len(build.classes)


def test_gcl_unseen_prototype_projects_the_csd():
    b, _, t, supports = fixture(zero_shot=True)
    # semantic vectors narrower than the node features need the projection
    csds = {c: np.random.default_rng(c).standard_normal(5)
            for c in b.csds.vectors}
    b = dataclasses.replace(b, csds=CSDTable(csds))
    model = network.init_model(8, 10, 6, 2, seed=1, csd_dim=5)
    assert model.csd_projection is not None
    build = build_of(model, b, supports, t)
    expected = one_node_forward(model.gnn, csds[4] @ model.csd_projection)
    row = build.classes.tolist().index(4)
    np.testing.assert_array_equal(build.final.data[row], expected)


def test_missing_csd_rejected():
    b, model, t, supports = fixture(zero_shot=True)
    csds = {c: v for c, v in b.csds.vectors.items() if c != 4}
    b = dataclasses.replace(b, csds=CSDTable(csds))
    with pytest.raises(ValueError, match="semantic vector"):
        build_of(model, b, supports, t)


def test_gcl_rows_stay_aligned_around_a_zero_shot_class():
    """A zero-shot class among few-shot ones (4 beside 5 and 6) shifts no
    semantic row: row i of ``seen`` and ``encoded`` is class
    ``plan.classes[i]``'s, its merged row is their midpoint, and the unseen
    row is the one-node forward of class 4's CSD."""
    b = synth_generate(21, 7, 16, 0.6, 0.05, 8, n_base=4, novel_per_session=3,
                       zero_shot_classes=(4,), k_shot=3)
    assert b.schedule.unseen_at(1) == [4]
    assert b.schedule.classes_at(1) == [0, 1, 2, 3, 4, 5, 6]
    model = network.init_model(8, 10, 6, 2, seed=1, csd_dim=8)
    assert model.csd_projection is None
    supports = session_supports(b, 1, build_class_split(b, 3, anchor_seed=0),
                                walk_length=2, walks_per_seed=3, seed=2)
    plan = plan_supports(model.gnn, graph_at(b, 1), supports)
    build = build_prototype_tensors(model, b, 1, plan)
    assert plan.classes.tolist() == [0, 1, 2, 3, 5, 6]
    rows = build.classes.tolist()
    for i, cls in enumerate(plan.classes.tolist()):
        seen, encoded = build.seen.data[i], build.encoded.data[i]
        alone = encode_csds(model, [cls], b.csds.vectors).data[0]
        np.testing.assert_allclose(encoded, alone, rtol=0, atol=1e-12)
        support = network.gnn_forward(model.gnn, graph_at(b, 1),
                                      sorted(supports[cls])).data
        np.testing.assert_allclose(seen, support.mean(axis=0), rtol=0, atol=1e-12)
        assert build.kinds[rows.index(cls)] == "merged"
        np.testing.assert_array_equal(build.final.data[rows.index(cls)],
                                      (seen + encoded) * 0.5)
    assert build.kinds[rows.index(4)] == "unseen_semantic"
    np.testing.assert_array_equal(build.final.data[rows.index(4)],
                                  one_node_forward(model.gnn, b.csds.vectors[4]))
