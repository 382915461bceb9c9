"""Random-walk support extension and episode assembly."""
import dataclasses
import hashlib

import numpy as np
import pytest

from gotham.config import RunConfig
from gotham.graphstore import (DatasetBundle, DatasetError, build_snapshot,
                               graph_at, synth_generate)
from gotham.sampler import (Episode, build_class_split, draw_queries,
                            extend_support, sample_episode, session_supports,
                            task_pool)
from gotham.trainer import _episode_rng, run_split


def path_graph(n=3):
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    return build_snapshot(n, edges, np.ones((n, 1)))


def test_zero_length_walk_returns_seeds():
    g = path_graph(5)
    out = extend_support(g, {1, 3}, walk_length=0, walks_per_seed=4, rng=np.random.default_rng(0))
    assert out == {1, 3}


def test_isolated_seed_stays_put():
    g = build_snapshot(3, np.array([[1, 2]]), np.ones((3, 1)))
    out = extend_support(g, {0}, walk_length=5, walks_per_seed=10, rng=np.random.default_rng(1))
    assert out == {0}


def test_path_two_hops_covers_line():
    # enumerating length-2 walks from a: a->b->{a|c}; with many walks the
    # chance of never stepping to c is 0.5**60
    g = path_graph(3)
    out = extend_support(g, {0}, walk_length=2, walks_per_seed=60, rng=np.random.default_rng(2))
    assert out == {0, 1, 2}


def test_walks_exclude_self_loop_step():
    # node 1's neighbors incl. self-loop are {0, 1, 2}; a single hop must
    # never stay at 1
    g = path_graph(3)
    for seed in range(20):
        out = extend_support(g, {1}, walk_length=1, walks_per_seed=1, rng=np.random.default_rng(seed))
        assert out in ({0, 1}, {1, 2})


def test_extend_support_deterministic():
    b = synth_generate(3, 3, 20, 0.5, 0.05, 4)
    seeds = {0, 25, 41}
    a = extend_support(b.graph, seeds, 3, 5, rng=np.random.default_rng(9))
    bb = extend_support(b.graph, seeds, 3, 5, rng=np.random.default_rng(9))
    assert a == bb


def test_extend_support_size_bound():
    b = synth_generate(4, 3, 20, 0.5, 0.05, 4)
    seeds = {0, 21}
    out = extend_support(b.graph, seeds, 3, 5, rng=np.random.default_rng(3))
    assert len(out) <= len(seeds) * (5 * 3 + 1)


def test_unknown_seed_rejected():
    g = path_graph(3)
    with pytest.raises(ValueError, match="99"):
        extend_support(g, {99}, 1, 1, rng=np.random.default_rng(0))


# -- episodes -----------------------------------------------------------------

def gcl_bundle():
    return synth_generate(11, 5, 20, 0.6, 0.02, 8, n_base=3,
                          zero_shot_classes=[4], k_shot=3)


def supports_at(b, t, split, walk=(2, 3)):
    """Session t's extended supports (walk seed 0); ``walk`` is
    (walk_length, walks_per_seed)."""
    return session_supports(b, t, split, *walk, 0)


def draw(b, t, split, n_way, seed, query_per_class, **kwargs):
    """One episode at session t and its queries, drawn on one rng as the
    trainer's telemetry draws them: the classes first, then the queries."""
    rng = np.random.default_rng(seed)
    episode = sample_episode(b, t, n_way, rng, **kwargs)
    return episode, draw_queries(b, split, episode, query_per_class, rng)


def test_base_episode_shape():
    b = gcl_bundle()
    split = build_class_split(b, 3, anchor_seed=0)
    ep, query = draw(b, 0, split, n_way=2, seed=0, query_per_class=4)
    assert len(ep.classes) == 2 and list(ep.classes) == sorted(ep.classes)
    assert {c for _, c in query} == set(ep.classes)
    supports = supports_at(b, 0, split)
    for cls in ep.classes:
        assert split.anchors[cls].size == 3
        assert set(split.anchors[cls].tolist()) <= supports[cls]
    # all base classes covered by extended supports for prototype building
    assert set(supports) == {0, 1, 2}


def test_finetune_episode_covers_all_seen_and_queries_zero_shot():
    b = gcl_bundle()
    split = build_class_split(b, 3, anchor_seed=1)
    t = b.schedule.num_sessions          # final session: class 4 is zero-shot
    ep, query = draw(b, t, split, n_way=1, seed=5, query_per_class=4)
    seen = b.schedule.seen_at(t)
    assert list(ep.classes) == seen
    assert sorted(supports_at(b, t, split)) == seen
    assert 4 not in ep.classes
    query_classes = {c for _, c in query}
    assert 4 in query_classes


def test_support_query_disjoint_and_labels_true():
    """In every session, queries (zero-shot classes' too) are labeled true
    and never hit any class's anchors."""
    b = gcl_bundle()
    split = build_class_split(b, 3, anchor_seed=2)
    anchors = set(np.concatenate(list(split.anchors.values())).tolist())
    for t in range(b.schedule.num_sessions + 1):
        for seed in range(5):
            _, query = draw(b, t, split, n_way=1, seed=seed, query_per_class=5)
            assert query
            for node, cls in query:
                assert node not in anchors
                assert b.labels.by_node[node] == cls


def test_extended_supports_hold_their_anchors_in_every_session():
    b = with_arrivals(novel_bundle())
    split = build_class_split(b, 3, anchor_seed=8)
    for t in range(b.schedule.num_sessions + 1):
        for walk in ((0, 1), (2, 3), (4, 5)):
            supports = supports_at(b, t, split, walk)
            assert sorted(supports) == b.schedule.seen_at(t)
            for cls, nodes in supports.items():
                assert set(split.anchors[cls].tolist()) <= nodes
            if walk == (0, 1):
                assert all(nodes == set(split.anchors[cls].tolist())
                           for cls, nodes in supports.items())


def test_supports_are_disjoint_across_classes():
    b = gcl_bundle()
    split = build_class_split(b, 3, anchor_seed=3)
    seen_nodes: set[int] = set()
    for nodes in split.anchors.values():
        assert not (set(nodes.tolist()) & seen_nodes)
        seen_nodes.update(nodes.tolist())


def test_episode_deterministic():
    b = gcl_bundle()
    split = build_class_split(b, 3, anchor_seed=4)
    e1 = draw(b, 0, split, 2, seed=42, query_per_class=4)
    e2 = draw(b, 0, split, 2, seed=42, query_per_class=4)
    assert e1 == e2
    assert supports_at(b, 1, split, (3, 5)) == supports_at(b, 1, split, (3, 5))


def test_insufficient_labels_names_class():
    b = synth_generate(12, 2, 6, 0.9, 0.1, 4, k_shot=3)
    split = build_class_split(b, 3, eval_fraction=0.2, anchor_seed=0)
    # pool ~5 nodes per class; k + q = 3 + 5 = 8 > 5
    with pytest.raises(DatasetError, match="class [01]"):
        draw(b, 0, split, 1, seed=0, query_per_class=5)
    # without queries the k anchors suffice
    assert draw(b, 0, split, 1, seed=0, query_per_class=0)[1] == []


def test_n_way_too_large_rejected():
    b = gcl_bundle()
    split = build_class_split(b, 3, anchor_seed=5)
    with pytest.raises(DatasetError, match="n_way"):
        draw(b, 0, split, n_way=4, seed=0, query_per_class=2)
    with pytest.raises(DatasetError, match=r"^n_way=4 exceeds \|base classes\|=3$"):
        task_pool(b.schedule, 0, 4)


def with_arrivals(b):
    """Each streamed class's nodes arrive in the session that introduces it."""
    sessions = tuple(dataclasses.replace(spec, arrivals=tuple(
        n for n, c in sorted(b.labels.by_node.items())
        if c in spec.few_shot + spec.zero_shot)) for spec in b.schedule.sessions)
    return dataclasses.replace(b, schedule=dataclasses.replace(
        b.schedule, sessions=sessions))


def novel_bundle():
    """Two novel few-shot classes (3 and 4) at session 1, one (5) at session 2."""
    return synth_generate(11, 6, 20, 0.6, 0.02, 8, n_base=3,
                          novel_per_session=2, k_shot=3)


def test_novel_only_task_draws_the_session_novel_classes():
    b = novel_bundle()
    split = build_class_split(b, 3, anchor_seed=7)
    novel, seen = b.schedule.novel_few_shot_at(1), b.schedule.seen_at(1)
    assert novel == [3, 4]
    drawn = set()
    for seed in range(8):
        ep, query = draw(b, 1, split, n_way=1, seed=seed, query_per_class=3,
                         episode_class_pool="novel_only")
        assert len(ep.classes) == 1 and set(ep.classes) <= set(novel)
        assert {c for _, c in query} == set(ep.classes)
        drawn |= set(ep.classes)
    assert drawn == {3, 4}
    ep, _ = draw(b, 1, split, n_way=2, seed=0, query_per_class=3,
                 episode_class_pool="novel_only")
    assert list(ep.classes) == novel
    # prototypes still span every seen class
    assert sorted(supports_at(b, 1, split)) == seen


@pytest.mark.parametrize("t,n_way", [(1, 3), (2, 2)])
def test_novel_only_n_way_beyond_the_session_novel_classes_rejected(t, n_way):
    b = novel_bundle()
    split = build_class_split(b, 3, anchor_seed=7)
    with pytest.raises(DatasetError, match="n_way=.* exceeds novel few-shot"):
        draw(b, t, split, n_way=n_way, seed=0, query_per_class=3,
             episode_class_pool="novel_only")
    novel = len(b.schedule.novel_few_shot_at(t))
    with pytest.raises(DatasetError, match=rf"^n_way={n_way} exceeds novel few-shot "
                                           rf"classes at session {t} \({novel}\)$"):
        task_pool(b.schedule, t, n_way, "novel_only")


@pytest.mark.parametrize("t,pool,n_way,want", [
    (0, "all_seen", 3, ([0, 1, 2], True)),
    # the pool names the classes of a finetune session only
    (0, "novel_only", 1, ([0, 1, 2], True)),
    # all_seen covers every seen class, so n_way is not read
    (1, "all_seen", 99, ([0, 1, 2, 3, 4], False)),
    (2, "all_seen", 1, ([0, 1, 2, 3, 4, 5], False)),
    (1, "novel_only", 2, ([3, 4], True)),
    (2, "novel_only", 1, ([5], True)),
])
def test_task_pool_per_session_and_pool(t, pool, n_way, want):
    b = novel_bundle()
    assert task_pool(b.schedule, t, n_way, pool) == want
    split = build_class_split(b, 3, anchor_seed=7)
    ep, _ = draw(b, t, split, n_way=n_way, seed=0, query_per_class=3,
                 episode_class_pool=pool)
    classes, drawn = want
    assert set(ep.classes) <= set(classes)
    assert len(ep.classes) == (n_way if drawn else len(classes))


def test_task_pool_rejects_an_out_of_range_session_and_an_unknown_pool():
    sched = novel_bundle().schedule
    with pytest.raises(DatasetError, match=r"session index 3 out of range \[0, 2\]"):
        task_pool(sched, 3, 1)
    with pytest.raises(DatasetError, match="session index -1 out of range"):
        task_pool(sched, -1, 1)
    with pytest.raises(ValueError, match="unknown episode_class_pool 'novel'"):
        task_pool(sched, 1, 1, "novel")


def test_zero_shot_class_never_has_anchors():
    b = gcl_bundle()
    split = build_class_split(b, 3, anchor_seed=6)
    assert split.anchors[4].size == 0
    assert split.pool[4].size > 0


# sha256 of the sorted extended supports of every session of gcl_bundle() and
# the queries of its episode 0, drawn with a run's seeds (the queries on the
# episode's rng after its classes); integers only, so it holds across BLAS
# builds
GOLDEN_DRAWS = "312cd17263bc3a06ab26cb27b88f585e28472e4509edf023ba9f3a256f50d9f3"


def test_walk_and_query_draws_are_pinned():
    b = gcl_bundle()
    cfg = RunConfig(mode="gcl", n_way=2, k_shot=3, query_per_class=4, seed=3)
    split = run_split(b, cfg)
    h = hashlib.sha256()
    for t in range(b.schedule.num_sessions + 1):
        extended = session_supports(b, t, split, cfg.walk_length,
                                    cfg.walks_per_seed, cfg.seed)
        rng = _episode_rng(cfg, t, 0)
        ep = sample_episode(b, t, cfg.n_way, rng)
        query = draw_queries(b, split, ep, cfg.query_per_class, rng)
        h.update(repr(sorted((c, sorted(nodes)) for c, nodes in
                             extended.items())).encode())
        h.update(repr(sorted(query)).encode())
    assert h.hexdigest() == GOLDEN_DRAWS


def test_queries_come_from_the_visible_pool_minus_anchors():
    """A task class's queries, drawn as many as its pool holds, are exactly
    its pool nodes visible at t minus its anchors; one more is rejected.
    Zero-shot classes give as many as they have, up to the same count."""
    b = with_arrivals(gcl_bundle())
    split = build_class_split(b, 3, anchor_seed=1)
    for t in range(b.schedule.num_sessions + 1):
        visible = graph_at(b, t).visible_mask
        want = {}
        for cls in b.schedule.classes_at(t):
            pool = split.pool[cls][visible[split.pool[cls]]]
            want[cls] = set(pool.tolist()) - set(split.anchors[cls].tolist())
        for cls in b.schedule.seen_at(t):
            episode = Episode(t, (cls,))
            rng = np.random.default_rng(t)
            n_q = len(want[cls])
            query = draw_queries(b, split, episode, n_q, rng)
            assert {n for n, c in query if c == cls} == want[cls]
            for zero in b.schedule.unseen_at(t):
                got = {n for n, c in query if c == zero}
                assert got <= want[zero] and len(got) == min(n_q, len(want[zero]))
            with pytest.raises(DatasetError, match=f"class {cls} has only"):
                draw_queries(b, split, episode, len(want[cls]) + 1, rng)
    # arrivals shrink the early pools of the streamed classes
    assert not graph_at(b, 0).visible_mask[split.pool[4]].any()


def former_class_split(bundle, k_shot, split_seed=1234, anchor_seed=0):
    """The former split: each class's pool by ``np.setdiff1d``."""
    sched = bundle.schedule
    shots = {cls: (0, k_shot) for cls in sched.base_classes}
    for t, s in enumerate(sched.sessions, start=1):
        shots.update((cls, (t, s.k)) for cls in s.few_shot)
    visible_from = sched.visible_from(bundle.graph.num_nodes)
    split_rng = np.random.default_rng(split_seed)
    anchor_rng = np.random.default_rng(anchor_seed)
    eval_nodes, pool, anchors = {}, {}, {}
    for cls in sched.classes_at(sched.num_sessions):
        nodes = bundle.labels.nodes_of(cls)
        n_eval = max(1, int(round(0.2 * nodes.size)))
        if n_eval >= nodes.size:
            n_eval = nodes.size - 1 if nodes.size > 1 else 0
        picked = split_rng.choice(nodes, size=n_eval, replace=False) if n_eval else \
            np.empty(0, dtype=np.int64)
        eval_nodes[cls] = np.sort(picked.astype(np.int64))
        pool[cls] = rest = np.setdiff1d(nodes, eval_nodes[cls], assume_unique=True)
        if cls not in shots:
            anchors[cls] = np.empty(0, dtype=np.int64)
        else:
            t, k = shots[cls]
            rest = rest[visible_from[rest] <= t]
            anchors[cls] = np.sort(anchor_rng.choice(rest, size=k,
                                                     replace=False).astype(np.int64))
    return eval_nodes, pool, anchors


@pytest.mark.parametrize("arrivals", [False, True], ids=["static", "arrivals"])
@pytest.mark.parametrize("seed", range(4))
def test_class_split_equals_the_setdiff1d_form(seed, arrivals):
    b = synth_generate(seed, 6, 1 + 4 * seed, 0.6, 0.02, 8, n_base=3,
                       zero_shot_classes=[5], k_shot=1)
    if arrivals:
        b = with_arrivals(b)
    split = build_class_split(b, 1, anchor_seed=seed)
    for got, want in zip((split.eval_nodes, split.pool, split.anchors),
                         former_class_split(b, 1, anchor_seed=seed)):
        assert list(got) == list(want)
        for cls in want:
            assert got[cls].dtype == want[cls].dtype == np.int64
            np.testing.assert_array_equal(got[cls], want[cls])
