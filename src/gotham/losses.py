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

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig

__all__ = ["LossParts", "loss_cluster", "loss_seg", "loss_sem", "loss_kd_emb",
           "loss_kd_align", "loss_total"]

_KD_ZERO_RTOL = 1e-12


def _row_norms(diff: Tensor) -> Tensor:
    return ad.sqrt((diff * diff).sum(axis=1))


def _hinges(embeddings: Tensor, prototype: Tensor, gamma: float) -> Tensor:
    return ad.maximum(_row_norms(embeddings - prototype) - gamma, 0.0)


def loss_cluster(embeddings: Tensor, members: dict[int, np.ndarray],
                 prototypes: Tensor, gamma: float,
                 variant: str = "mean_hinge") -> Tensor:
    """Pull extended-support embeddings inside a gamma-ball of their prototype.

    ``members`` maps a row of ``prototypes`` to the rows of ``embeddings`` in
    that class's extended support; the loss averages over those classes, in
    ascending row order. ``mean_hinge`` averages the hinge distances;
    ``self_normalized`` keeps the printed per-class normalization but squares
    the numerator so the weights carry a usable gradient (the un-squared form
    sums to a constant 1 per class whenever any hinge is active).
    """
    if variant not in ("mean_hinge", "self_normalized"):
        raise ValueError(f"unknown cluster-loss variant {variant!r}")
    if not members:
        raise ValueError("loss_cluster needs at least one class")
    total = None
    for row in sorted(members):
        if len(members[row]) == 0:
            raise ValueError(f"prototype row {row} has no extended-support embeddings")
        h = _hinges(ad.gather_rows(embeddings, members[row]),
                    ad.gather_rows(prototypes, [row]), gamma)
        if variant == "mean_hinge":
            term = h.mean()
        else:
            denom = ad.maximum(h.sum(), 1e-300)
            term = (h * h).sum() / denom
        total = term if total is None else total + term
    return total * (1.0 / len(members))


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

    A row whose distance is within rounding noise of 0 (at most
    ``_KD_ZERO_RTOL`` times the teacher row's norm) counts as 0 and gets zero
    gradient, a valid subgradient of the norm at 0. Otherwise the norm's
    gradient there is a unit vector along the noise: a session's first
    finetune episode starts with the student equal to the teacher.
    """
    teacher = np.asarray(teacher_embeddings, dtype=np.float64)
    if teacher.shape[0] == 0:
        return ad.constant(0.0)
    if teacher.shape != student_embeddings.shape:
        raise ValueError("teacher/student embedding shapes differ")
    dist = _row_norms(student_embeddings - ad.constant(teacher))
    noise = dist.data <= _KD_ZERO_RTOL * np.linalg.norm(teacher, axis=1)
    return (dist * ad.constant(~noise)).mean()


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
