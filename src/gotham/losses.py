"""Scalar training losses and the objective that weighs them.

All norms are Euclidean. Every function takes autodiff tensors (or constants)
and returns a scalar tensor, so gradients flow to both encoders through the
prototypes. Prototypes arrive as one (C x d) matrix, a row per class, as
``prototypes.PrototypeBuild`` holds them; embeddings, encoded semantics and
teacher outputs are matrices with a row per node or class.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
import warnings

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig

__all__ = ["LossParts", "loss_cluster", "loss_seg", "loss_sem", "loss_kd_emb",
           "loss_kd_align", "loss_total"]


def _row_norms(diff: Tensor) -> Tensor:
    return ad.sqrt((diff * diff).sum(axis=1))


def loss_cluster(embeddings: Tensor, members: sp.csr_matrix,
                 prototypes: Tensor, gamma: float,
                 variant: str = "mean_hinge") -> Tensor:
    """Pull extended-support embeddings inside a gamma-ball of their prototype.

    Row i of the CSR ``members`` lists the rows of ``embeddings`` in the
    extended support of the class whose prototype is row i of ``prototypes``
    (its entries are not read); the loss averages over those classes.
    ``mean_hinge`` averages the hinge distances; ``self_normalized`` keeps
    the printed per-class normalization but squares the numerator so the
    weights carry a usable gradient (the un-squared form sums to a constant
    1 per class whenever any hinge is active).

    One expression covers every class, so the tape does not grow with their
    count: constant products pick each member's embedding and prototype, and
    ``sums``, ``members`` with one column per member, sums each class's hinges.
    """
    if variant not in ("mean_hinge", "self_normalized"):
        raise ValueError(f"unknown cluster-loss variant {variant!r}")
    sizes = np.diff(members.indptr)
    if sizes.size == 0:
        raise ValueError("loss_cluster needs at least one class")
    if not sizes.all():
        raise ValueError(f"prototype rows {np.flatnonzero(sizes == 0).tolist()} "
                         "have no extended-support embeddings")
    n = members.indptr[-1]
    ones, each = np.ones(n), np.arange(n + 1)
    pick = sp.csr_matrix((ones, members.indices, each), shape=(n, embeddings.shape[0]))
    sums = sp.csr_matrix((ones, each[:-1], members.indptr))
    diff = ad.sparse_matmul(pick, embeddings) - ad.sparse_matmul(sums.T, prototypes)
    h = ad.maximum(_row_norms(diff) - gamma, 0.0)
    if variant == "mean_hinge":
        per_class = ad.sparse_matmul(sums, h) * (1.0 / sizes)
    else:
        per_class = (ad.sparse_matmul(sums, h * h)
                     / ad.maximum(ad.sparse_matmul(sums, h), 1e-300))
    return per_class.mean()


def loss_seg(prototypes: Tensor, epsilon_log: float) -> Tensor:
    """Negative mean log pairwise distance over ordered pairs of the rows of
    the (C x d) ``prototypes``.

    Distances are clamped below at ``epsilon_log`` before the log so
    coincident prototypes stay finite.
    """
    c = prototypes.shape[0]
    if c < 2:
        warnings.warn("loss_seg needs >= 2 prototypes; returning 0", stacklevel=2)
        return ad.constant(0.0)
    # each unordered pair once, from its difference p_i - p_j (a +1/-1 row of
    # an incidence matrix, exact in a product): |p_i|^2 + |p_j|^2 - 2 p_i.p_j
    # cancels when two prototypes nearly coincide
    i, j = np.triu_indices(c, 1)
    incidence = np.zeros((i.size, c))
    incidence[np.arange(i.size), i] = 1.0
    incidence[np.arange(i.size), j] = -1.0
    diff = ad.constant(incidence) @ prototypes
    d = ad.sqrt(ad.maximum((diff * diff).sum(axis=1), epsilon_log ** 2))
    return ad.log(d).sum() * (-2.0 / c)


def loss_sem(encoded: Tensor, seen: Tensor) -> Tensor:
    """Sum of distances between encoded semantics and seen prototypes, row
    by row: row i of both belongs to one class."""
    if encoded.shape != seen.shape:
        raise ValueError(f"encoded semantics {encoded.shape} and seen "
                         f"prototypes {seen.shape} differ in shape")
    return _row_norms(encoded - seen).sum()


def loss_kd_emb(teacher_embeddings, student_embeddings: Tensor) -> Tensor:
    """Mean embedding distance between frozen teacher and student.

    A session's first finetune episode starts with the student equal to the
    teacher (the same plan's forward of the same parameters), so every
    distance is exactly 0; a zero row gets zero gradient, a subgradient of
    the norm at 0, through ``autodiff._SQRT_GUARD``, as in ``loss_cluster``.
    """
    teacher = np.asarray(teacher_embeddings, dtype=np.float64)
    if teacher.shape[0] == 0:
        return ad.constant(0.0)
    if teacher.shape != student_embeddings.shape:
        raise ValueError("teacher/student embedding shapes differ")
    return _row_norms(student_embeddings - ad.constant(teacher)).mean()


def loss_kd_align(teacher_encoded, student_encoded: Tensor,
                  epsilon_log: float = 1e-8) -> Tensor:
    """Mean cosine distance between teacher and student semantic encodings.

    Rows where either vector is shorter than ``epsilon_log`` contribute the
    constant 1 (cosine treated as 0).
    """
    teacher = np.asarray(teacher_encoded, dtype=np.float64)
    if teacher.shape[0] == 0:
        return ad.constant(0.0)
    if teacher.shape != student_encoded.shape:
        raise ValueError("teacher/student encoding shapes differ")
    t_norm = np.linalg.norm(teacher, axis=1)
    s_norm_t = _row_norms(student_encoded)
    good = (t_norm >= epsilon_log) & (s_norm_t.data >= epsilon_log)
    dots = (student_encoded * ad.constant(teacher)).sum(axis=1)
    denom = ad.maximum(s_norm_t * ad.constant(np.maximum(t_norm, epsilon_log)),
                       epsilon_log ** 2)
    cos = dots / denom
    terms = ad.constant(np.ones(teacher.shape[0])) - cos * ad.constant(good.astype(np.float64))
    return terms.mean()


@dataclass
class LossParts:
    cluster: Tensor | None = None
    seg: Tensor | None = None
    sem: Tensor | None = None
    kd_emb: Tensor | None = None
    kd_align: Tensor | None = None

    def values(self) -> dict[str, float | None]:
        """Each part's value; a part that was never computed reads None."""
        return {f.name: None if (t := getattr(self, f.name)) is None
                else float(t.data) for f in fields(self)}


def loss_total(parts: LossParts, cfg: RunConfig) -> Tensor:
    """alpha1 * cluster + alpha2 * seg + alpha3 * sem, plus
    alpha4 * (lambda1 * kd_emb + lambda2 * kd_align) once a teacher exists.

    A term counts when its part is set: the trainer sets ``sem`` and
    ``kd_align`` only for a model with a semantic encoder and ``kd_emb`` only
    from session 1 on, so without one distillation acts on node embeddings.
    """
    total = cfg.alpha1 * parts.cluster + cfg.alpha2 * parts.seg
    if parts.sem is not None:
        total = total + cfg.alpha3 * parts.sem
    if parts.kd_emb is None:
        return total
    kd = cfg.lambda1 * parts.kd_emb
    if parts.kd_align is not None:
        kd = kd + cfg.lambda2 * parts.kd_align
    return total + cfg.alpha4 * kd
