"""Finite-difference audit of every training loss on a tiny fixture.

Builds a 12-node synthetic bundle with one zero-shot class, freezes one
episode per session, and checks the analytic gradient of each loss (and both
composite objectives) against central differences. ``inject_bug`` adds a
term the tape cannot see, proving the check fails when gradients are wrong.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import nn as network
from .graphstore import graph_at, synth_generate
from .losses import (LossParts, LossWeights, loss_cluster, loss_finetune_total,
                     loss_kd_align, loss_kd_emb, loss_seg, loss_sem,
                     loss_train_total)
from .prototypes import build_prototype_tensors, encode_csds
from .sampler import (WalkConfig, build_class_split, sample_episode,
                      session_supports)

__all__ = ["run_gradcheck", "GRADCHECK_LOSSES"]

GRADCHECK_LOSSES = ("cluster_mean_hinge", "cluster_self_normalized", "seg",
                    "sem", "kd_emb", "kd_align", "train_total", "finetune_total")


def _fixture(seed: int):
    bundle = synth_generate(seed, blocks=3, nodes_per_block=4, p_in=0.9,
                            p_out=0.2, d=4, n_base=2, zero_shot_classes=[2],
                            k_shot=2, mean_separation=3.0)
    split = build_class_split(bundle, k_shot=2, eval_fraction=0.2,
                              split_seed=seed + 1, anchor_seed=seed + 2)
    model = network.init_model(feature_dim=4, hidden=6, out=5, num_layers=2,
                               seed=seed + 3, csd_dim=4)
    walk = WalkConfig(walk_length=2, walks_per_seed=3)
    extended = session_supports(bundle, 1, split, walk, seed + 4)
    episode = sample_episode(bundle, 1, 1, np.random.default_rng(seed + 4),
                             query_per_class=1, split=split, extended=extended)
    teacher = network.init_model(feature_dim=4, hidden=6, out=5, num_layers=2,
                                 seed=seed + 5, csd_dim=4)
    return bundle, split, model, episode, teacher


def run_gradcheck(seed: int = 0, h: float = 1e-4, tol: float = 1e-4,
                  n_coords: int = 60, inject_bug: bool = False
                  ) -> dict[str, network.FiniteDiffReport]:
    bundle, split, model, episode, teacher = _fixture(seed)
    graph = graph_at(bundle, episode.session)
    weights = LossWeights(gamma=0.01)
    params = network.named_parameters(model)
    csds = bundle.csds.vectors

    distill_nodes = np.sort(np.concatenate(
        [split.anchors[c] for c in bundle.schedule.seen_at(0)]))
    teacher_emb = network.gnn_forward(teacher.gnn, graph, distill_nodes).data.copy()
    teacher_classes = bundle.schedule.seen_at(0)
    t_enc = encode_csds(teacher, {c: csds[c] for c in teacher_classes})
    teacher_enc = np.stack([t_enc[c].data for c in teacher_classes])

    def build():
        return build_prototype_tensors(model, bundle, episode, "gcl")

    def student_emb():
        return network.gnn_forward(model.gnn, graph, distill_nodes)

    def student_enc():
        enc = encode_csds(model, {c: csds[c] for c in teacher_classes})
        return ad.vstack([enc[c].reshape(1, -1) for c in teacher_classes])

    def parts_for():
        b = build()
        p = LossParts(
            cluster=loss_cluster(b.embeddings, b.seen, weights.gamma, "mean_hinge"),
            seg=loss_seg(b.final, weights.epsilon_log),
            sem=loss_sem(b.encoded, b.seen),
            kd_emb=loss_kd_emb(teacher_emb, student_emb()),
            kd_align=loss_kd_align(teacher_enc, student_enc(), weights.epsilon_log))
        return p

    losses = {
        "cluster_mean_hinge": lambda: (lambda b: loss_cluster(
            b.embeddings, b.seen, weights.gamma, "mean_hinge"))(build()),
        "cluster_self_normalized": lambda: (lambda b: loss_cluster(
            b.embeddings, b.seen, weights.gamma, "self_normalized"))(build()),
        "seg": lambda: loss_seg(build().final, weights.epsilon_log),
        "sem": lambda: (lambda b: loss_sem(b.encoded, b.seen))(build()),
        "kd_emb": lambda: loss_kd_emb(teacher_emb, student_emb()),
        "kd_align": lambda: loss_kd_align(teacher_enc, student_enc(),
                                          weights.epsilon_log),
        "train_total": lambda: loss_train_total(parts_for(), weights),
        "finetune_total": lambda: loss_finetune_total(parts_for(), weights),
    }

    bug_param = params["gnn.0.weight"]

    def with_bug(fn):
        def wrapped():
            # forward-visible, tape-invisible term: FD sees it, autodiff cannot
            return fn() + ad.constant(0.05 * float(bug_param.data.sum()))
        return wrapped

    rng = np.random.default_rng(seed + 10)
    reports: dict[str, network.FiniteDiffReport] = {}
    for name in GRADCHECK_LOSSES:
        fn = losses[name]
        if inject_bug:
            fn = with_bug(fn)
        reports[name] = network.finite_diff_check(params, fn, h=h, tol=tol,
                                                  rng=rng, n_coords=n_coords)
    return reports
