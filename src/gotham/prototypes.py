"""Class prototypes: support-set averages, semantic merges, semantic-only.

Three kinds exist. A *seen* prototype averages the embeddings of a class's
extended support set. A *merged* prototype is the midpoint of the seen
prototype and the encoded class-semantic vector. An *unseen_semantic*
prototype is the graph encoder applied to the semantic vector as a one-node
self-loop graph (mean aggregation degenerates to the identity there).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import nn as network
from .config import MODES
from .graphstore import DatasetBundle, GraphSnapshot, build_snapshot, graph_at
from .sampler import Episode

__all__ = ["Prototype", "PrototypeBuild", "prototype_seen", "prototype_merged",
           "prototype_unseen", "unseen_prototype_tensor", "encode_csds",
           "build_prototype_set", "build_prototype_tensors"]


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


def prototype_seen(params: network.GnnParams, graph: GraphSnapshot,
                   extended_support, class_id: int = -1) -> Prototype:
    nodes = np.asarray(sorted(extended_support), dtype=np.int64)
    if nodes.size == 0:
        raise ValueError("empty support set")
    emb = network.gnn_forward(params, graph, nodes)
    return Prototype(class_id=class_id, vector=seen_prototype_tensor(emb).data.copy(),
                     kind="seen", support_size=int(nodes.size))


def prototype_merged(seen: Prototype, encoded_csd: np.ndarray) -> Prototype:
    encoded_csd = np.asarray(encoded_csd, dtype=np.float64).reshape(-1)
    if encoded_csd.shape != seen.vector.shape:
        raise ValueError("encoded semantic vector dimension mismatch")
    return Prototype(class_id=seen.class_id,
                     vector=(seen.vector + encoded_csd) / 2.0,
                     kind="merged", support_size=seen.support_size)


def _self_loop_graph(vector: np.ndarray) -> GraphSnapshot:
    v = np.asarray(vector, dtype=np.float64).reshape(1, -1)
    return build_snapshot(1, np.zeros((0, 2), dtype=np.int64), v)


def unseen_prototype_tensor(params: network.GnnParams,
                            csd_vector: np.ndarray) -> Tensor:
    graph = _self_loop_graph(csd_vector)
    return network.gnn_forward(params, graph, [0]).reshape(-1)


def prototype_unseen(params: network.GnnParams, csd_vector,
                     class_id: int = -1) -> Prototype:
    if csd_vector is None:
        raise ValueError(f"class {class_id} has no semantic vector")
    vec = unseen_prototype_tensor(params, np.asarray(csd_vector)).data.copy()
    return Prototype(class_id=class_id, vector=vec, kind="unseen_semantic",
                     support_size=0)


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

    def as_prototypes(self, support_sizes: dict[int, int]) -> dict[int, Prototype]:
        return {c: Prototype(class_id=c, vector=t.data.copy(), kind=self.kinds[c],
                             support_size=support_sizes.get(c, 0))
                for c, t in self.final.items()}


def build_prototype_tensors(model: network.ModelState, graph: GraphSnapshot,
                            episode: Episode, mode: str,
                            csds: dict[int, np.ndarray]) -> PrototypeBuild:
    """All prototypes for the episode's class coverage, on the autodiff tape."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    semantic = mode in ("gfscil_semantic", "gcl")

    embeddings: dict[int, Tensor] = {}
    seen: dict[int, Tensor] = {}
    for cls in sorted(episode.extended_support):
        nodes = np.asarray(sorted(episode.extended_support[cls]), dtype=np.int64)
        emb = network.gnn_forward(model.gnn, graph, nodes)
        embeddings[cls] = emb
        seen[cls] = seen_prototype_tensor(emb)

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
    return PrototypeBuild(seen=seen, final=final, encoded=encoded,
                          embeddings=embeddings, kinds=kinds)


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


def build_prototype_set(model: network.ModelState, bundle: DatasetBundle,
                        episode: Episode, mode: str,
                        unseen_encoder: str = "gnn") -> dict[int, Prototype]:
    """One prototype per class in C^t, per the requested mode."""
    graph = graph_at(bundle, episode.session)
    build = build_prototype_tensors(model, graph, episode, mode,
                                    bundle.csds.vectors)
    if mode == "gcl":
        unseen = bundle.schedule.unseen_at(episode.session)
        add_unseen_prototypes(build, model, unseen, bundle.csds.vectors,
                              unseen_encoder)
    sizes = {c: len(s) for c, s in episode.extended_support.items()}
    return build.as_prototypes(sizes)
