"""Class prototypes as one matrix: support averages, semantic merges, semantic-only.

A prototype set is a ``(C x d)`` tensor, one row per class in ascending class
id, with the ids in an array beside it; ``PrototypeBuild`` owns both. A *seen*
row averages the embeddings of a class's extended support set. A *merged* row
is the midpoint of the seen row and the encoded class-semantic vector. An
*unseen_semantic* row is the graph encoder applied to the class's semantic
vector (projected into graph-feature space when the widths differ) as a
one-node self-loop graph; no other encoder makes zero-shot rows.

``build_prototype_tensors`` is the one place that decides which kind each
class in C^t gets, reading no run mode: a model without a semantic encoder
gives every seen class a seen row, one with it a merged row, and each
zero-shot class the schedule announces by session t an unseen_semantic row.
Training, evaluation and the gradient audit all call it. One
``nn.gnn_forward`` over the union of the seen classes' supports and of any
distillation nodes gives every row the losses read: one encoder forward per
episode on either backbone.

Everything of that build that no parameter touches is a ``SupportPlan``, the
only carrier of a session's supports: the union, each class's rows in it,
the distillation rows, the membership CSR that averages a class's rows
beside its CSR transpose, and the union's ``nn.ForwardPlan``. The trainer
builds one per session from ``sampler.session_supports``; the teacher reads
its distillation rows from it, and every episode and the session's
evaluation prototypes build from it. A ``PrototypeBuild`` holds only the
rows that depend on the parameters; the class of each ``seen`` row and each
class's rows in ``embeddings`` are the plan's ``classes`` and ``members``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from . import nn as network
from .graphstore import DatasetBundle, graph_at

__all__ = ["PrototypeBuild", "SupportPlan", "plan_supports", "encode_csds",
           "build_prototype_tensors", "add_unseen_prototypes"]


def _csd_matrix(csds: dict[int, np.ndarray], classes) -> np.ndarray:
    missing = [int(c) for c in classes if c not in csds]
    if missing:
        raise ValueError(f"no semantic vector for classes {missing}")
    return np.stack([csds[c] for c in classes])


def encode_csds(model: network.ModelState, classes,
                csds: dict[int, np.ndarray]) -> Tensor:
    """Semantic-encoder output for ``classes``, one row per class in that order."""
    if model.mlp is None:
        raise ValueError("model has no semantic encoder")
    return network.mlp_forward(model.mlp, _csd_matrix(csds, classes))


@dataclass
class PrototypeBuild:
    """One prototype matrix on the autodiff tape plus what the losses read.

    ``final`` row i is the prototype of class ``classes[i]``, ascending.
    ``seen`` and ``encoded`` share rows, those of the plan's ``classes``.
    """
    classes: np.ndarray           # class id of each row of ``final``
    final: Tensor                 # (C x d) prototypes over C^t, kinds as built
    kinds: list[str]              # kind of each row of ``final``
    seen: Tensor                  # (S x d) extended-support averages
    encoded: Tensor | None        # (S x d) semantic-encoder outputs, if model.mlp
    embeddings: Tensor            # the forward's rows: supports and distill nodes
    distill: Tensor | None = None  # rows of the plan's distill nodes


@dataclass(frozen=True, eq=False)
class SupportPlan:
    """The parameter-free part of ``build_prototype_tensors`` for a set of
    extended supports, and optionally distill nodes, on one snapshot.

    The union, ``forward.nodes``, holds every support and distill node once,
    ascending; the forward's row i is its node i. Nothing in the plan is
    written after ``plan_supports`` returns.
    """
    classes: np.ndarray           # seen classes, ascending: rows of ``seen``
    inv_sizes: np.ndarray         # (S x 1) one over each support's size
    members: list[np.ndarray]     # union rows per class, ascending
    membership: sp.csr_matrix     # (S x |union|) ones: class i's rows in row i
    membership_t: sp.csr_matrix   # its CSR transpose, for the backward
    distill: np.ndarray | None    # union rows of the distill nodes
    forward: network.ForwardPlan  # the union's encoder forward; nodes = union


def plan_supports(gnn: network.GnnParams, graph, supports: dict,
                  distill_nodes=None) -> SupportPlan:
    """The plan of ``gnn``'s prototype forward over ``supports``, a class ->
    extended support mapping, and ``distill_nodes`` on ``graph``."""
    classes = np.asarray(sorted(supports), dtype=np.int64)
    nodes = [np.asarray(sorted(supports[c]), dtype=np.int64) for c in classes]
    sizes = np.array([s.size for s in nodes])
    if (sizes == 0).any():
        raise ValueError(f"empty support set for classes {classes[sizes == 0]}")
    extra = [] if distill_nodes is None else [distill_nodes]
    union, position = np.unique(np.concatenate(nodes + extra), return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    n_support = indptr[-1]
    # row i of this CSR of ones adds class i's support rows in ascending node
    # order, as the tape's emb.mean(axis=0) does before it scales by 1/n, so
    # each seen prototype equals that mean bit for bit
    membership = sp.csr_matrix((np.ones(n_support), position[:n_support], indptr),
                               shape=(classes.size, union.size))
    return SupportPlan(
        classes=classes, inv_sizes=1.0 / sizes[:, None],
        members=np.split(position[:n_support], indptr[1:-1]),
        membership=membership, membership_t=membership.T.tocsr(),
        distill=position[n_support:] if distill_nodes is not None else None,
        forward=network.forward_plan(gnn, graph, union))


def build_prototype_tensors(model: network.ModelState, bundle: DatasetBundle,
                            t: int, plan: SupportPlan) -> PrototypeBuild:
    """One prototype per class in C^t on the autodiff tape.

    ``plan`` is a ``SupportPlan`` of the seen classes' extended supports on
    session t's graph; the student embeddings of its distill nodes come from
    the same forward and land in ``distill``. Seen rows are merged with the
    encoded semantics when ``model.mlp`` is set, and the zero-shot classes
    of ``bundle.schedule.unseen_at(t)`` join them as unseen_semantic rows.
    """
    csds = bundle.csds.vectors
    classes = plan.classes
    embeddings = network.gnn_forward(model.gnn, graph_at(bundle, t), plan.forward)
    seen = (ad.sparse_matmul(plan.membership, embeddings, plan.membership_t)
            * plan.inv_sizes)

    encoded = None
    final, kinds = seen, ["seen"] * classes.size
    if model.mlp is not None:
        encoded = encode_csds(model, classes, csds)
        final, kinds = (seen + encoded) * 0.5, ["merged"] * classes.size
    build = PrototypeBuild(
        classes=classes, final=final, kinds=kinds, seen=seen, encoded=encoded,
        embeddings=embeddings,
        distill=(ad.gather_rows(embeddings, plan.distill)
                 if plan.distill is not None else None))
    add_unseen_prototypes(build, model, bundle.schedule.unseen_at(t), csds)
    return build


def add_unseen_prototypes(build: PrototypeBuild, model: network.ModelState,
                          unseen_classes, csds: dict[int, np.ndarray]) -> None:
    """Add an unseen_semantic row to ``build.final`` per zero-shot class,
    the graph encoder applied to its CSD, keeping the rows in ascending
    class id."""
    unseen = np.asarray(sorted(unseen_classes), dtype=np.int64)
    if unseen.size == 0:
        return
    vectors = _csd_matrix(csds, unseen)
    if model.csd_projection is not None:     # into graph-feature space
        vectors = vectors @ model.csd_projection
    # on either backbone a node whose only CSR entry is its self-loop passes
    # each layer as a plain affine map, so the graph encoder on a one-node
    # graph is its layers applied as an MLP
    rows = network.mlp_forward(model.gnn, vectors)
    classes = np.concatenate([build.classes, unseen])
    kinds = build.kinds + ["unseen_semantic"] * unseen.size
    order = np.argsort(classes, kind="stable")
    build.final = ad.gather_rows(ad.vstack([build.final, rows]), order)
    build.classes = classes[order]
    build.kinds = [kinds[i] for i in order]
