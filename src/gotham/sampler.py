"""Support-set extension by random walks and episodic task assembly.

A class's labeled shots are its anchor nodes; walks from each anchor gather
unlabeled neighbors into the extended support set. ``session_supports`` draws
those walks once per session; the trainer plans that draw once
(``prototypes.SupportPlan``) and every episode and the evaluation of the
session read the plan. An episode is only its class draw: fresh randomness
per episode over the same anchors, so the labeled budget per class never
exceeds k. ``draw_queries`` draws an episode's query nodes; only the
trainer's telemetry calls it, after the episode's update, on the rng that
drew the episode's classes.

``task_pool`` alone states the task policy, which classes a task at session
t draws ``n_way`` from or covers; ``sample_episode`` and the trainer's pre-run
check read it. A ``ClassSplit`` holds per class ``eval_nodes``, ``pool`` and
``anchors`` (k of them, the one record of k); which nodes are visible at t
is the session snapshot's ``visible_mask`` (``graph_at``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphstore import (DatasetBundle, DatasetError, GraphSnapshot,
                         StreamSchedule, graph_at)

__all__ = ["Episode", "ClassSplit", "extend_support", "build_class_split",
           "session_supports", "check_query_supply", "task_pool",
           "sample_episode", "draw_queries"]


@dataclass(frozen=True)
class Episode:
    """One task at a session: the classes it trains."""
    session: int
    classes: tuple[int, ...]              # ascending


def extend_support(graph: GraphSnapshot, seeds, walk_length: int,
                   walks_per_seed: int,
                   rng: np.random.Generator) -> frozenset[int]:
    """Seeds plus every node visited by uniform random walks from each seed.

    A step picks uniformly among the current node's neighbors excluding
    itself; a node whose only neighbor is its self-loop stays put.
    """
    seeds = sorted(int(s) for s in seeds)
    if not seeds:
        raise ValueError("extend_support requires at least one seed")
    if walk_length < 0:
        raise ValueError("walk_length must be >= 0")
    vis = graph.visible_mask
    for s in seeds:
        if not (0 <= s < graph.num_nodes) or not vis[s]:
            raise ValueError(f"seed node {s} is not in the graph")
    visited: set[int] = set(seeds)
    for s in seeds:
        for _ in range(walks_per_seed):
            u = s
            for _ in range(walk_length):
                nbrs = graph.neighbors(u)
                nbrs = nbrs[nbrs != u]
                if nbrs.size == 0:
                    break
                u = int(nbrs[rng.integers(nbrs.size)])
                visited.add(u)
    return frozenset(visited)


@dataclass(frozen=True)
class ClassSplit:
    """Per-class node bookkeeping, fixed for a whole run.

    ``eval_nodes`` is the held-out query split used in session reports;
    ``anchors`` are the k labeled shots a seen class trains from, drawn from
    nodes visible when the class is introduced; ``pool`` is everything
    labeled except the eval split (episode queries at session t draw from the
    pool nodes visible at t, minus anchors). Zero-shot classes have empty
    anchors.
    """
    eval_nodes: dict[int, np.ndarray]
    pool: dict[int, np.ndarray]
    anchors: dict[int, np.ndarray]


def build_class_split(bundle: DatasetBundle, k_shot: int, *,
                      eval_fraction: float = 0.2, split_seed: int = 1234,
                      anchor_seed: int = 0) -> ClassSplit:
    """Stratified eval split plus seeded k-shot anchors per class.

    Base classes get ``k_shot`` anchors; a streamed class gets its session's
    k. Anchors come from the nodes visible at the session that introduces
    the class (t=0 for base classes), so later arrivals never seed walks
    before they exist. The eval split depends only on ``split_seed`` so
    reports stay comparable across training seeds; anchors depend on
    ``anchor_seed`` (typically the master seed).
    """
    sched = bundle.schedule
    # (session that introduces the class, its k) per class with shots
    shots = {cls: (0, k_shot) for cls in sched.base_classes}
    for t, s in enumerate(sched.sessions, start=1):
        shots.update((cls, (t, s.k)) for cls in s.few_shot)
    visible_from = sched.visible_from(bundle.graph.num_nodes)
    split_rng = np.random.default_rng(split_seed)
    anchor_rng = np.random.default_rng(anchor_seed)
    eval_nodes: dict[int, np.ndarray] = {}
    pool: dict[int, np.ndarray] = {}
    anchors: dict[int, np.ndarray] = {}
    for cls in sched.classes_at(sched.num_sessions):
        nodes = bundle.labels.nodes_of(cls)
        if nodes.size == 0:
            raise DatasetError(f"class {cls} has no labeled nodes")
        n_eval = max(1, int(round(eval_fraction * nodes.size)))
        if n_eval >= nodes.size:
            n_eval = nodes.size - 1 if nodes.size > 1 else 0
        picked = split_rng.choice(nodes, size=n_eval, replace=False) if n_eval else \
            np.empty(0, dtype=np.int64)
        eval_nodes[cls] = np.sort(picked.astype(np.int64))
        # eval_nodes is a sorted subset of the sorted nodes: mask its places
        keep = np.ones(nodes.size, dtype=bool)
        keep[np.searchsorted(nodes, eval_nodes[cls])] = False
        rest = nodes[keep]
        pool[cls] = rest
        if cls not in shots:  # zero-shot
            anchors[cls] = np.empty(0, dtype=np.int64)
        else:
            t, k = shots[cls]
            rest = rest[visible_from[rest] <= t]
            if rest.size < k:
                raise DatasetError(f"class {cls} has {rest.size} trainable "
                                   f"labeled nodes visible at session {t}, "
                                   f"fewer than k={k}")
            anchors[cls] = np.sort(anchor_rng.choice(rest, size=k,
                                                     replace=False).astype(np.int64))
    return ClassSplit(eval_nodes=eval_nodes, pool=pool, anchors=anchors)


def session_supports(bundle: DatasetBundle, t: int, split: ClassSplit,
                     walk_length: int, walks_per_seed: int,
                     seed: int) -> dict[int, frozenset[int]]:
    """Extended support of every class seen at session t.

    Each class extends its anchors with an rng seeded by (session seed,
    class), where the session seed derives from the run's ``seed`` and t. The
    draw depends on nothing else, so every episode and the evaluation of
    session t share it and the losses optimize toward stable prototype
    targets. Zero-shot classes have no anchors and get no support.
    """
    graph = graph_at(bundle, t)    # rejects an out-of-range t before seeding
    session_seed = int(np.random.SeedSequence([seed, 2, t]).generate_state(1)[0])
    return {cls: extend_support(graph, split.anchors[cls], walk_length,
                                walks_per_seed, np.random.default_rng(
                                    np.random.SeedSequence([session_seed, cls])))
            for cls in bundle.schedule.seen_at(t)}


def check_query_supply(bundle: DatasetBundle, split: ClassSplit, cls: int,
                       t: int, query_per_class: int) -> None:
    """Reject a task class at session t with fewer than k + ``query_per_class``
    trainable labeled nodes visible. Its anchors are visible at t, so this
    binds only when queries are drawn."""
    available = int(graph_at(bundle, t).visible_mask[split.pool[cls]].sum())
    need = split.anchors[cls].size + query_per_class
    if available < need:
        raise DatasetError(
            f"class {cls} has only {available} trainable labeled nodes "
            f"visible at session {t}; need k + query_per_class = {need}")


def task_pool(schedule: StreamSchedule, t: int, n_way: int,
              episode_class_pool: str = "all_seen") -> tuple[list[int], bool]:
    """The classes a task at session t is taken from, ascending, and whether
    it draws ``n_way`` of them (True) or covers them all (False).

    At t=0 a task draws ``n_way`` of the base classes; at t>=1 it covers all
    currently-seen classes ("all_seen") or draws ``n_way`` of the session's
    novel few-shot classes ("novel_only"). A draw larger than its pool is
    rejected.
    """
    schedule._check_t(t)
    if t == 0:
        pool = sorted(schedule.base_classes)
        if n_way > len(pool):
            raise DatasetError(f"n_way={n_way} exceeds |base classes|={len(pool)}")
        return pool, True
    if episode_class_pool == "all_seen":
        return schedule.seen_at(t), False
    if episode_class_pool == "novel_only":
        novel = schedule.novel_few_shot_at(t)
        if n_way > len(novel):
            raise DatasetError(f"n_way={n_way} exceeds novel few-shot classes "
                               f"at session {t} ({len(novel)})")
        return novel, True
    raise ValueError(f"unknown episode_class_pool {episode_class_pool!r}")


def sample_episode(bundle: DatasetBundle, t: int, n_way: int,
                   rng: np.random.Generator, *,
                   episode_class_pool: str = "all_seen") -> Episode:
    """Draw one task at session t, its classes per ``task_pool``.

    Prototypes span every seen class whatever the task, from the session's
    supports. ``rng`` draws the classes only.
    """
    pool, draw = task_pool(bundle.schedule, t, n_way, episode_class_pool)
    classes = (sorted(rng.choice(pool, size=n_way, replace=False).tolist())
               if draw else pool)
    return Episode(session=t, classes=tuple(classes))


def draw_queries(bundle: DatasetBundle, split: ClassSplit, episode: Episode,
                 query_per_class: int,
                 rng: np.random.Generator) -> list[tuple[int, int]]:
    """``query_per_class`` (node, true class) queries per task class of
    ``episode``, from its pool nodes visible at the episode's session minus
    its anchors; each zero-shot class announced by then gives as many as it
    has, up to ``query_per_class``."""
    t = episode.session
    visible = graph_at(bundle, t).visible_mask

    def pool_of(cls):
        pool = split.pool[cls]
        return pool[visible[pool] & ~np.isin(pool, split.anchors[cls])]

    query: list[tuple[int, int]] = []
    for cls in episode.classes:
        check_query_supply(bundle, split, cls, t, query_per_class)
        picked = rng.choice(pool_of(cls), size=query_per_class, replace=False)
        query.extend((int(n), cls) for n in np.sort(picked))

    for cls in bundle.schedule.unseen_at(t):
        qpool = pool_of(cls)
        n_q = min(query_per_class, qpool.size)
        if n_q:
            picked = rng.choice(qpool, size=n_q, replace=False)
            query.extend((int(n), cls) for n in np.sort(picked))
    return query
