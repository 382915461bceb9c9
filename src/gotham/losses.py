"""Scalar training losses and the two composite objectives.

All norms are Euclidean. Every function takes autodiff tensors (or constants)
and returns a scalar tensor, so gradients flow to both encoders through the
prototypes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = ["LossWeights", "LossParts", "loss_cluster", "loss_seg", "loss_sem",
           "loss_kd_emb", "loss_kd_align", "loss_train_total",
           "loss_finetune_total"]


@dataclass(frozen=True)
class LossWeights:
    alpha1: float = 1.0
    alpha2: float = 0.25
    alpha3: float = 1.0
    alpha4: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    gamma: float = 0.01
    epsilon_log: float = 1e-8

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.epsilon_log <= 0:
            raise ValueError("epsilon_log must be > 0")
        for name in ("alpha1", "alpha2", "alpha3", "alpha4", "lambda1", "lambda2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


_KD_ZERO_RTOL = 1e-12


def _row_norms(diff: Tensor) -> Tensor:
    return ad.sqrt((diff * diff).sum(axis=1))


def _hinges(embeddings: Tensor, prototype: Tensor, gamma: float) -> Tensor:
    diff = embeddings - prototype.reshape(1, -1)
    return ad.maximum(_row_norms(diff) - gamma, 0.0)


def loss_cluster(embeddings_by_class: dict[int, Tensor],
                 prototypes: dict[int, Tensor], gamma: float,
                 variant: str = "mean_hinge") -> Tensor:
    """Pull extended-support embeddings inside a gamma-ball of their prototype.

    ``mean_hinge`` averages the hinge distances; ``self_normalized`` keeps the
    printed per-class normalization but squares the numerator so the weights
    carry a usable gradient (the un-squared form sums to a constant 1 per
    class whenever any hinge is active).
    """
    if variant not in ("mean_hinge", "self_normalized"):
        raise ValueError(f"unknown cluster-loss variant {variant!r}")
    classes = sorted(embeddings_by_class)
    if not classes:
        raise ValueError("loss_cluster needs at least one class")
    total = None
    for cls in classes:
        emb = embeddings_by_class[cls]
        if emb.shape[0] == 0:
            raise ValueError(f"class {cls} has no extended-support embeddings")
        h = _hinges(emb, prototypes[cls], gamma)
        if variant == "mean_hinge":
            term = h.mean()
        else:
            denom = ad.maximum(h.sum(), 1e-300)
            term = (h * h).sum() / denom
        total = term if total is None else total + term
    return total * (1.0 / len(classes))


def loss_seg(prototypes: dict[int, Tensor], epsilon_log: float) -> Tensor:
    """Negative mean log pairwise prototype distance over ordered pairs.

    Distances are clamped below at ``epsilon_log`` before the log so
    coincident prototypes stay finite.
    """
    classes = sorted(prototypes)
    c = len(classes)
    if c < 2:
        warnings.warn("loss_seg needs >= 2 prototypes; returning 0", stacklevel=2)
        return ad.constant(0.0)
    pm = ad.vstack([prototypes[cls].reshape(1, -1) for cls in classes])
    # each unordered pair once, from its difference p_i - p_j (a +1/-1 row of
    # an incidence matrix, exact in a product): |p_i|^2 + |p_j|^2 - 2 p_i.p_j
    # cancels when two prototypes nearly coincide
    i, j = np.triu_indices(c, 1)
    incidence = np.zeros((i.size, c))
    incidence[np.arange(i.size), i] = 1.0
    incidence[np.arange(i.size), j] = -1.0
    diff = ad.constant(incidence) @ pm
    d = ad.sqrt(ad.maximum((diff * diff).sum(axis=1), epsilon_log ** 2))
    return ad.log(d).sum() * (-2.0 / c)


def loss_sem(encoded_csds: dict[int, Tensor], prototypes: dict[int, Tensor]) -> Tensor:
    """Sum of distances between encoded semantics and seen prototypes."""
    classes = sorted(prototypes)
    missing = [c for c in classes if c not in encoded_csds]
    if missing:
        raise ValueError(f"no encoded semantics for classes {missing}")
    enc = ad.vstack([encoded_csds[c].reshape(1, -1) for c in classes])
    pro = ad.vstack([prototypes[c].reshape(1, -1) for c in classes])
    return _row_norms(enc - pro).sum()


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

    def values(self) -> dict[str, float]:
        out = {}
        for name in ("cluster", "seg", "sem", "kd_emb", "kd_align"):
            t = getattr(self, name)
            out[name] = float(t.data) if t is not None else 0.0
        return out


def loss_train_total(parts: LossParts, weights: LossWeights) -> Tensor:
    """alpha1 * cluster + alpha2 * seg + alpha3 * sem (sem skipped when unset)."""
    total = weights.alpha1 * parts.cluster + weights.alpha2 * parts.seg
    if parts.sem is not None:
        total = total + weights.alpha3 * parts.sem
    return total


def loss_finetune_total(parts: LossParts, weights: LossWeights) -> Tensor:
    """Training terms plus alpha4 * (lambda1 * kd_emb + lambda2 * kd_align).

    A term counts when its part is set; the trainer sets ``sem`` and
    ``kd_align`` only in semantic modes, so in plain mode distillation acts
    on node embeddings only.
    """
    total = loss_train_total(parts, weights)
    kd = weights.lambda1 * parts.kd_emb
    if parts.kd_align is not None:
        kd = kd + weights.lambda2 * parts.kd_align
    return total + weights.alpha4 * kd
