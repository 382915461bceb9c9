"""Class prototypes: support-set averages, semantic merges, semantic-only.

Three kinds exist. A *seen* prototype averages the embeddings of a class's
extended support set. A *merged* prototype is the midpoint of the seen
prototype and the encoded class-semantic vector. An *unseen_semantic*
prototype is the graph encoder applied to the semantic vector as a one-node
self-loop graph (mean aggregation degenerates to the identity there).

``build_prototype_tensors`` is the one place that decides which kind each
class in C^t gets: ``gfscil_plain`` gives every seen class a seen prototype,
``gfscil_semantic`` and ``gcl`` give them merged ones, and ``gcl`` adds an
unseen_semantic prototype for each zero-shot class announced by session t.
Training, evaluation, export and the gradient audit all call it.

All seen classes' support rows, and the student's distillation rows when a
training episode asks for them, come from one ``nn.gnn_forward_sets`` call:
one encoder forward per episode on the mean backbone, one per node set on the
attention backbone (whose union forward would not be bit-identical).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import nn as network
from .config import MODES, is_semantic
from .graphstore import DatasetBundle, GraphSnapshot, build_snapshot, graph_at
from .sampler import Episode

__all__ = ["Prototype", "PrototypeBuild", "seen_prototype_tensor",
           "unseen_prototype_tensor", "encode_csds", "build_prototype_tensors"]


@dataclass(frozen=True)
class Prototype:
    class_id: int
    vector: np.ndarray
    kind: str                 # "seen" | "merged" | "unseen_semantic"
    support_size: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.vector)):
            raise ValueError(f"non-finite prototype for class {self.class_id}")
        if self.kind == "unseen_semantic" and self.support_size != 0:
            raise ValueError("unseen prototypes average no support nodes")


def seen_prototype_tensor(embeddings: Tensor) -> Tensor:
    """Arithmetic mean of the extended-support embedding rows."""
    if embeddings.shape[0] == 0:
        raise ValueError("empty support set")
    return embeddings.mean(axis=0)


def _self_loop_graph(vector: np.ndarray) -> GraphSnapshot:
    v = np.asarray(vector, dtype=np.float64).reshape(1, -1)
    return build_snapshot(1, np.zeros((0, 2), dtype=np.int64), v)


def unseen_prototype_tensor(params: network.GnnParams,
                            csd_vector: np.ndarray) -> Tensor:
    graph = _self_loop_graph(csd_vector)
    return network.gnn_forward(params, graph, [0]).reshape(-1)


def project_csd(model: network.ModelState, vec: np.ndarray) -> np.ndarray:
    """Map a semantic vector into graph-feature space when dims differ."""
    vec = np.asarray(vec, dtype=np.float64)
    if model.csd_projection is not None:
        return vec @ model.csd_projection
    return vec


def encode_csds(model: network.ModelState, csd_by_class: dict[int, np.ndarray]) -> dict[int, Tensor]:
    """Semantic-encoder output per class (rows kept separate per class id)."""
    if model.mlp is None:
        raise ValueError("model has no semantic encoder")
    classes = sorted(csd_by_class)
    if not classes:
        return {}
    mat = np.stack([csd_by_class[c] for c in classes])
    enc = network.mlp_forward(model.mlp, mat)
    return {c: ad.gather_rows(enc, [i]).reshape(-1) for i, c in enumerate(classes)}


@dataclass
class PrototypeBuild:
    """Differentiable prototype tensors plus bookkeeping for the losses."""
    seen: dict[int, Tensor]               # seen prototypes (support average)
    final: dict[int, Tensor]              # mode-dependent set over C^t
    encoded: dict[int, Tensor]            # semantic-encoder outputs (seen classes)
    embeddings: dict[int, Tensor]         # extended-support embeddings per class
    kinds: dict[int, str]
    distill: Tensor | None = None         # rows of the requested distill nodes

    def as_prototypes(self) -> dict[int, Prototype]:
        """Detached prototypes; a support size counts extended-support rows."""
        return {c: Prototype(class_id=c, vector=t.data.copy(), kind=self.kinds[c],
                             support_size=(self.embeddings[c].shape[0]
                                           if c in self.embeddings else 0))
                for c, t in self.final.items()}


def build_prototype_tensors(model: network.ModelState, bundle: DatasetBundle,
                            episode: Episode, mode: str,
                            unseen_encoder: str = "gnn", *,
                            distill_nodes=None) -> PrototypeBuild:
    """One prototype per class in C^t, per ``mode``, on the autodiff tape.

    Seen classes come from the episode's extended supports on the session's
    graph; in ``gcl`` mode the session's zero-shot classes follow them. The
    student embeddings of ``distill_nodes``, when given, come from the same
    forward and land in ``distill``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    semantic = is_semantic(mode)
    graph = graph_at(bundle, episode.session)
    csds = bundle.csds.vectors

    classes = sorted(episode.extended_support)
    node_sets = [np.asarray(sorted(episode.extended_support[cls]), dtype=np.int64)
                 for cls in classes]
    if distill_nodes is not None:
        node_sets.append(distill_nodes)
    rows = network.gnn_forward_sets(model.gnn, graph, node_sets)
    embeddings = dict(zip(classes, rows))
    seen = {cls: seen_prototype_tensor(emb) for cls, emb in embeddings.items()}

    encoded: dict[int, Tensor] = {}
    if semantic:
        missing = [c for c in seen if c not in csds]
        if missing:
            raise ValueError(f"mode {mode} requires semantic vectors; "
                             f"missing for classes {missing}")
        encoded = encode_csds(model, {c: csds[c] for c in sorted(seen)})

    final: dict[int, Tensor] = {}
    kinds: dict[int, str] = {}
    for cls, proto in seen.items():
        if semantic:
            final[cls] = (proto + encoded[cls]) * 0.5
            kinds[cls] = "merged"
        else:
            final[cls] = proto
            kinds[cls] = "seen"
    build = PrototypeBuild(seen=seen, final=final, encoded=encoded,
                           embeddings=embeddings, kinds=kinds,
                           distill=rows[-1] if distill_nodes is not None else None)
    if mode == "gcl":
        add_unseen_prototypes(build, model,
                              bundle.schedule.unseen_at(episode.session),
                              csds, unseen_encoder)
    return build


def add_unseen_prototypes(build: PrototypeBuild, model: network.ModelState,
                          unseen_classes, csds: dict[int, np.ndarray],
                          unseen_encoder: str = "gnn") -> None:
    for cls in sorted(unseen_classes):
        if cls not in csds:
            raise ValueError(f"zero-shot class {cls} has no semantic vector")
        if unseen_encoder == "gnn":
            vec = project_csd(model, csds[cls])
            build.final[cls] = unseen_prototype_tensor(model.gnn, vec)
        elif unseen_encoder == "mlp":
            build.final[cls] = encode_csds(model, {cls: csds[cls]})[cls]
        else:
            raise ValueError(f"unknown unseen_encoder {unseen_encoder!r}")
        build.kinds[cls] = "unseen_semantic"
