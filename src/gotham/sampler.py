"""Support-set extension by random walks and episodic task assembly.

A class's labeled shots are its anchor nodes; walks from each anchor gather
unlabeled neighbors into the extended support set. ``session_supports`` draws
those walks once per session, so every episode of the session and its
evaluation share one extended support per class. Episodes carry fresh class
and query randomness but reuse the anchors, so the labeled budget per class
never exceeds k.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphstore import DatasetBundle, DatasetError, GraphSnapshot, graph_at

__all__ = ["WalkConfig", "Episode", "ClassSplit", "extend_support",
           "build_class_split", "session_supports", "sample_episode"]


@dataclass(frozen=True)
class WalkConfig:
    walk_length: int = 3
    walks_per_seed: int = 5


@dataclass(frozen=True)
class Episode:
    """One task: per-class support and walk-extended support, plus queries.

    ``support`` holds only the classes sampled into this task;
    ``extended_support`` additionally covers every other currently-seen class
    (from its anchors) so prototypes span the full class set.
    """
    session: int
    support: dict[int, tuple[int, ...]]
    extended_support: dict[int, frozenset[int]]
    query: tuple[tuple[int, int], ...]    # (node, true class)

    def validate(self) -> None:
        query_nodes = {n for n, _ in self.query}
        for cls, nodes in self.support.items():
            if set(nodes) & query_nodes:
                raise ValueError(f"support/query overlap for class {cls}")
            if not set(nodes) <= self.extended_support.get(cls, frozenset()):
                raise ValueError(f"extended support does not cover support "
                                 f"for class {cls}")


def _as_rng(rng_seed) -> np.random.Generator:
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    return np.random.default_rng(rng_seed)


def extend_support(graph: GraphSnapshot, seeds, walk_length: int,
                   walks_per_seed: int, rng_seed) -> frozenset[int]:
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
    rng = _as_rng(rng_seed)
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
    pool nodes visible at t, minus anchors). ``visible_from`` is the
    schedule's first session of visibility per node. Zero-shot classes have
    empty anchors.
    """
    k_by_class: dict[int, int]
    eval_nodes: dict[int, np.ndarray]
    pool: dict[int, np.ndarray]
    anchors: dict[int, np.ndarray]
    visible_from: np.ndarray

    def visible_pool(self, cls: int, t: int) -> np.ndarray:
        pool = self.pool[cls]
        return pool[self.visible_from[pool] <= t]

    def query_pool(self, cls: int, t: int) -> np.ndarray:
        pool = self.visible_pool(cls, t)
        return pool[~np.isin(pool, self.anchors[cls])]


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
    zero_shot = sched.zero_shot_classes()
    k_by_class = {cls: k_shot for cls in sched.base_classes}
    introduced = {cls: 0 for cls in sched.base_classes}
    for t, s in enumerate(sched.sessions, start=1):
        for cls in s.few_shot:
            k_by_class[cls] = s.k
            introduced[cls] = t
        for cls in s.zero_shot:
            k_by_class[cls] = 0
    visible_from = sched.visible_from(bundle.graph.num_nodes)
    split_rng = np.random.default_rng(split_seed)
    anchor_rng = np.random.default_rng(anchor_seed)
    eval_nodes: dict[int, np.ndarray] = {}
    pool: dict[int, np.ndarray] = {}
    anchors: dict[int, np.ndarray] = {}
    visible = bundle.graph.visible_mask
    for cls in sorted(sched.class_universe):
        nodes = bundle.labels.nodes_of(cls)
        nodes = nodes[visible[nodes]]
        if nodes.size == 0:
            raise DatasetError(f"class {cls} has no labeled nodes")
        n_eval = max(1, int(round(eval_fraction * nodes.size)))
        if n_eval >= nodes.size:
            n_eval = nodes.size - 1 if nodes.size > 1 else 0
        picked = split_rng.choice(nodes, size=n_eval, replace=False) if n_eval else \
            np.empty(0, dtype=np.int64)
        eval_nodes[cls] = np.sort(picked.astype(np.int64))
        rest = np.setdiff1d(nodes, eval_nodes[cls])
        pool[cls] = rest
        k = k_by_class[cls]
        if cls in zero_shot:
            anchors[cls] = np.empty(0, dtype=np.int64)
        else:
            t = introduced[cls]
            rest = rest[visible_from[rest] <= t]
            if rest.size < k:
                raise DatasetError(f"class {cls} has {rest.size} trainable "
                                   f"labeled nodes visible at session {t}, "
                                   f"fewer than k={k}")
            anchors[cls] = np.sort(anchor_rng.choice(rest, size=k,
                                                     replace=False).astype(np.int64))
    return ClassSplit(k_by_class=k_by_class, eval_nodes=eval_nodes, pool=pool,
                      anchors=anchors, visible_from=visible_from)


def session_supports(bundle: DatasetBundle, t: int, split: ClassSplit,
                     walk_cfg: WalkConfig, seed: int) -> dict[int, frozenset[int]]:
    """Extended support of every class seen at session t.

    Each class extends its anchors with an rng seeded by (session seed,
    class), where the session seed derives from the run's ``seed`` and t. The
    draw depends on nothing else, so every episode and the evaluation of
    session t share it and the losses optimize toward stable prototype
    targets. Zero-shot classes have no anchors and get no support.
    """
    graph = graph_at(bundle, t)    # rejects an out-of-range t before seeding
    session_seed = int(np.random.SeedSequence([seed, 2, t]).generate_state(1)[0])
    return {cls: extend_support(graph, split.anchors[cls], walk_cfg.walk_length,
                                walk_cfg.walks_per_seed,
                                np.random.default_rng(
                                    np.random.SeedSequence([session_seed, cls])))
            for cls in bundle.schedule.seen_at(t)}


def sample_episode(bundle: DatasetBundle, t: int, n_way: int, rng_seed,
                   query_per_class: int = 10, *, split: ClassSplit,
                   extended: dict[int, frozenset[int]],
                   episode_class_pool: str = "all_seen") -> Episode:
    """Draw one task at session t.

    At t=0 the task covers ``n_way`` classes sampled from the base set; at
    t>=1 it covers all currently-seen classes ("all_seen") or ``n_way`` of
    the session's novel few-shot classes ("novel_only"). Every seen class
    carries its extended support from ``extended``, the session's draw from
    ``session_supports``, so the prototype set spans C^t. ``rng_seed`` drives
    only the class and query draws, and queries come only from nodes visible
    at t. In GCL mode, zero-shot classes contribute query nodes only.
    """
    sched = bundle.schedule
    sched._check_t(t)
    rng = _as_rng(rng_seed)

    seen = sched.seen_at(t)
    if t == 0:
        pool_classes = sorted(sched.base_classes)
        if n_way > len(pool_classes):
            raise DatasetError(f"n_way={n_way} exceeds |base classes|={len(pool_classes)}")
        task_classes = sorted(rng.choice(pool_classes, size=n_way,
                                         replace=False).tolist())
    elif episode_class_pool == "all_seen":
        task_classes = seen
    elif episode_class_pool == "novel_only":
        novel = sched.novel_few_shot_at(t)
        if n_way > len(novel):
            raise DatasetError(f"n_way={n_way} exceeds novel few-shot classes "
                               f"at session {t} ({len(novel)})")
        task_classes = sorted(rng.choice(novel, size=n_way, replace=False).tolist())
    else:
        raise ValueError(f"unknown episode_class_pool {episode_class_pool!r}")

    support: dict[int, tuple[int, ...]] = {}
    query: list[tuple[int, int]] = []

    for cls in task_classes:
        k = split.k_by_class[cls]
        available = split.visible_pool(cls, t).size
        if available < k + query_per_class:
            raise DatasetError(
                f"class {cls} has only {available} trainable labeled nodes "
                f"visible at session {t}; need k + query_per_class = "
                f"{k + query_per_class}")
        support[cls] = tuple(int(n) for n in split.anchors[cls])
        picked = rng.choice(split.query_pool(cls, t), size=query_per_class,
                            replace=False)
        query.extend((int(n), cls) for n in np.sort(picked))

    if sched.mode == "gcl":
        for cls in sched.unseen_at(t):
            qpool = split.query_pool(cls, t)
            n_q = min(query_per_class, qpool.size)
            if n_q:
                picked = rng.choice(qpool, size=n_q, replace=False)
                query.extend((int(n), cls) for n in np.sort(picked))

    ep = Episode(session=t, support=support,
                 extended_support={cls: extended[cls] for cls in seen},
                 query=tuple(query))
    ep.validate()
    return ep
