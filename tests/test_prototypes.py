"""Prototype construction oracles and mode behavior."""
import dataclasses

import numpy as np
import pytest

from gotham import autodiff as ad
from gotham import nn as network
from gotham.graphstore import CSDTable, build_snapshot, graph_at, synth_generate
from gotham.prototypes import (build_prototype_tensors, encode_csds,
                               seen_prototype_tensor, unseen_prototype_tensor)
from gotham.sampler import (Episode, WalkConfig, build_class_split, sample_episode,
                            session_supports)


def linear_gnn(w, slope=1.0):
    layer = network.Layer(ad.parameter(w), ad.parameter(np.zeros(w.shape[1])))
    return network.GnnParams([layer], negative_slope=slope)


def eval_episode(supports, session=0):
    """An episode that only carries extended supports, as evaluation builds."""
    return Episode(session=session, support={}, extended_support=supports,
                   query=())


def small_bundle(seed=5):
    # 3 classes of 10 nodes, 4-dim features, all three classes in the base
    return synth_generate(seed, 3, 10, 0.6, 0.1, 4)


def plain_model(bundle, sizes=(5, 3), seed=1):
    return network.init_model(bundle.graph.features.shape[1], sizes[0],
                              sizes[-1], len(sizes), seed=seed)


def test_singleton_support_equals_embedding():
    b = small_bundle()
    model = plain_model(b)
    build = build_prototype_tensors(model, b, eval_episode({0: frozenset({1})}),
                                    "gfscil_plain")
    emb = network.gnn_forward(model.gnn, graph_at(b, 0), [1]).data[0]
    np.testing.assert_array_equal(build.final[0].data, emb)
    p = build.as_prototypes()[0]
    assert p.kind == "seen" and p.support_size == 1


def test_opposite_embeddings_cancel():
    e = ad.constant(np.array([[2.0, -3.0], [-2.0, 3.0]]))
    np.testing.assert_array_equal(seen_prototype_tensor(e).data, [0.0, 0.0])


def test_seen_prototype_matches_column_mean_oracle():
    b = small_bundle()
    model = plain_model(b)
    support = {0, 3, 7, 12, 25}
    build = build_prototype_tensors(model, b, eval_episode({0: frozenset(support)}),
                                    "gfscil_plain")
    emb = network.gnn_forward(model.gnn, b.graph, sorted(support)).data
    np.testing.assert_allclose(build.final[0].data, emb.mean(axis=0), atol=1e-12)
    np.testing.assert_array_equal(build.embeddings[0].data, emb)


def test_empty_support_rejected():
    b = small_bundle(6)
    with pytest.raises(ValueError, match="empty"):
        build_prototype_tensors(plain_model(b, (3,)), b,
                                eval_episode({0: frozenset()}), "gfscil_plain")
    with pytest.raises(ValueError, match="empty"):
        seen_prototype_tensor(ad.constant(np.zeros((0, 3))))


def test_merged_is_midpoint():
    b = small_bundle()
    model = network.init_model(4, 5, 3, 2, seed=1, csd_dim=b.csds.dim)
    supports = {0: frozenset({0, 3, 7}), 1: frozenset({11, 14}),
                2: frozenset({21, 22, 28})}
    build = build_prototype_tensors(model, b, eval_episode(supports),
                                    "gfscil_semantic")
    for c in supports:
        seen, enc = build.seen[c].data, build.encoded[c].data
        got = build.final[c].data
        np.testing.assert_array_equal(got, (seen + enc) * 0.5)
        assert build.kinds[c] == "merged"
        # exact midpoint: equidistant from both ends
        assert np.linalg.norm(got - seen) == pytest.approx(
            np.linalg.norm(got - enc), rel=1e-12)


def test_unseen_single_linear_layer():
    w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    csd = np.array([1.0, 0.0, -1.0])
    got = unseen_prototype_tensor(linear_gnn(w), csd).data
    np.testing.assert_allclose(got, csd @ w, atol=1e-14)


def test_unseen_zero_vector_zero_output():
    got = unseen_prototype_tensor(linear_gnn(np.ones((2, 2))), np.zeros(2)).data
    np.testing.assert_array_equal(got, np.zeros(2))


def test_unseen_matches_explicit_one_node_graph():
    rng = np.random.default_rng(4)
    params = network.init_gnn([4, 6, 3], rng)
    csd = rng.standard_normal(4)
    got = unseen_prototype_tensor(params, csd).data
    g = build_snapshot(1, np.zeros((0, 2), dtype=np.int64), csd[None, :])
    expected = network.gnn_forward(params, g, [0]).data[0]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_linear_scaling_property():
    # with a linear backbone, scaling all support features scales the prototype
    b = small_bundle(8)
    w = np.random.default_rng(5).standard_normal((4, 2))
    model = network.ModelState(gnn=linear_gnn(w), mlp=None)
    scaled = dataclasses.replace(
        b, graph=dataclasses.replace(b.graph, features=2.5 * b.graph.features))
    episode = eval_episode({0: frozenset({0, 1, 2})})
    p1 = build_prototype_tensors(model, b, episode, "gfscil_plain").final[0].data
    p2 = build_prototype_tensors(model, scaled, episode, "gfscil_plain").final[0].data
    np.testing.assert_allclose(p2, 2.5 * p1, rtol=1e-12)


def test_permutation_invariance_over_support():
    b = synth_generate(7, 2, 8, 0.8, 0.1, 4)
    model = plain_model(b, (3,), seed=7)
    p1 = build_prototype_tensors(model, b, eval_episode({0: (3, 1, 9)}),
                                 "gfscil_plain").final[0].data
    p2 = build_prototype_tensors(model, b, eval_episode({0: (9, 3, 1)}),
                                 "gfscil_plain").final[0].data
    np.testing.assert_array_equal(p1, p2)


# -- full prototype sets -------------------------------------------------------

def fixture(mode_zero_shot=False):
    zero = [4] if mode_zero_shot else []
    b = synth_generate(21, 5, 16, 0.6, 0.05, 8, n_base=3,
                       zero_shot_classes=zero, k_shot=3)
    split = build_class_split(b, 3, anchor_seed=0)
    model = network.init_model(8, 10, 6, 2, seed=1, csd_dim=8)
    t = b.schedule.num_sessions
    ep = sample_episode(b, t, 1, rng_seed=2, query_per_class=3, split=split,
                        extended=session_supports(b, t, split, WalkConfig(2, 3), 2))
    return b, model, ep


def test_gfscil_plain_mode_all_seen():
    b, model, ep = fixture()
    build = build_prototype_tensors(model, b, ep, "gfscil_plain")
    assert sorted(build.final) == [0, 1, 2, 3, 4]
    assert set(build.kinds.values()) == {"seen"}
    assert build.encoded == {}


def test_gfscil_semantic_mode_all_merged():
    b, model, ep = fixture()
    build = build_prototype_tensors(model, b, ep, "gfscil_semantic")
    assert sorted(build.final) == [0, 1, 2, 3, 4]
    assert set(build.kinds.values()) == {"merged"}


def test_gcl_mode_one_unseen():
    b, model, ep = fixture(mode_zero_shot=True)
    build = build_prototype_tensors(model, b, ep, "gcl")
    assert build.kinds[4] == "unseen_semantic"
    assert all(k == "merged" for c, k in build.kinds.items() if c != 4)
    # exactly |seen| + |unseen| prototypes, seen classes inserted first
    assert list(build.final) == b.schedule.seen_at(ep.session) + [4]
    assert sorted(build.final) == b.schedule.classes_at(ep.session)


def test_gcl_unseen_prototype_projects_the_csd():
    b, _, ep = fixture(mode_zero_shot=True)
    # semantic vectors narrower than the node features need the projection
    csds = {c: np.random.default_rng(c).standard_normal(5)
            for c in b.csds.vectors}
    b = dataclasses.replace(b, csds=CSDTable(csds))
    model = network.init_model(8, 10, 6, 2, seed=1, csd_dim=5)
    assert model.csd_projection is not None
    build = build_prototype_tensors(model, b, ep, "gcl")
    expected = unseen_prototype_tensor(model.gnn, csds[4] @ model.csd_projection)
    np.testing.assert_array_equal(build.final[4].data, expected.data)


def test_missing_csd_rejected():
    b, model, ep = fixture(mode_zero_shot=True)
    csds = {c: v for c, v in b.csds.vectors.items() if c != 4}
    b = dataclasses.replace(b, csds=CSDTable(csds))
    with pytest.raises(ValueError, match="semantic vector"):
        build_prototype_tensors(model, b, ep, "gcl")


def test_unknown_mode_rejected():
    b, model, ep = fixture()
    with pytest.raises(ValueError, match="unknown mode"):
        build_prototype_tensors(model, b, ep, "gfscil")


def test_unseen_mlp_encoder_flag():
    b, model, ep = fixture(mode_zero_shot=True)
    build = build_prototype_tensors(model, b, ep, "gcl", unseen_encoder="mlp")
    assert build.kinds[4] == "unseen_semantic"
    enc = encode_csds(model, {4: b.csds.vectors[4]})[4].data
    np.testing.assert_allclose(build.final[4].data, enc, atol=1e-12)
