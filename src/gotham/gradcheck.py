"""Finite-difference audit of every training loss on a tiny fixture.

Builds a 12-node synthetic bundle with one zero-shot class, freezes one
finetune episode, and checks, on both backbones, the analytic gradient of each
loss part and of the weighted total as ``trainer._episode_step`` computes
them: without a teacher for ``train_total``, with a teacher cache of an
unrelated model for the distillation terms and ``finetune_total``. Both
cases forward one session plan that holds the distillation nodes.
``inject_bug`` adds a term the tape cannot see, proving the check fails when
gradients are wrong.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn as network
from . import trainer
from .config import RunConfig
from .graphstore import synth_generate
from .sampler import build_class_split, sample_episode

__all__ = ["run_gradcheck", "GRADCHECK_LOSSES", "finite_diff_check",
           "FiniteDiffReport"]

# loss -> (cluster variant, with a teacher, the LossParts field or "total")
_SOURCES = {
    "cluster_mean_hinge": ("mean_hinge", False, "cluster"),
    "cluster_self_normalized": ("self_normalized", False, "cluster"),
    "seg": ("mean_hinge", False, "seg"),
    "sem": ("mean_hinge", False, "sem"),
    "kd_emb": ("mean_hinge", True, "kd_emb"),
    "kd_align": ("mean_hinge", True, "kd_align"),
    "train_total": ("mean_hinge", False, "total"),
    "finetune_total": ("mean_hinge", True, "total"),
}
GRADCHECK_LOSSES = tuple(_SOURCES)


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    worst: tuple[str, int] | None
    n_checked: int
    n_kink_skipped: int
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.n_checked > 0 and self.max_rel_err < self.tol)


def finite_diff_check(params: dict[str, ad.Tensor], loss_fn,
                      rng: np.random.Generator, h: float = 1e-4,
                      tol: float = 1e-4, n_coords: int = 50,
                      denom_floor: float = 1e-2) -> FiniteDiffReport:
    """Central-difference check of analytic gradients on sampled coordinates.

    Coordinates whose one-sided slopes disagree by more than 1% (a hinge or
    activation kink inside the +-h window) are skipped, not failed. A
    coordinate whose perturbed losses, slopes or analytic gradient are not
    finite fails with an infinite error.
    """
    grads = network.compute_gradients(params, loss_fn())

    flat: list[tuple[str, int]] = []
    for name, t in params.items():
        flat.extend((name, i) for i in range(t.data.size))
    if len(flat) > n_coords:
        chosen = rng.choice(len(flat), size=n_coords, replace=False)
        coords = [flat[i] for i in sorted(chosen)]
    else:
        coords = flat

    f0 = loss_fn().item()
    max_rel, worst, kinks, checked = 0.0, None, 0, 0
    for name, idx in coords:
        t = params[name]
        orig = t.data.flat[idx]
        t.data.flat[idx] = orig + h
        fp = loss_fn().item()
        t.data.flat[idx] = orig - h
        fm = loss_fn().item()
        t.data.flat[idx] = orig

        d_plus = (fp - f0) / h
        d_minus = (f0 - fm) / h
        fd = (fp - fm) / (2.0 * h)
        analytic = grads[name].flat[idx]
        if not np.isfinite([fp, fm, d_plus, d_minus, fd, analytic]).all():
            rel = np.inf
        else:
            slope_scale = max(abs(d_plus), abs(d_minus), denom_floor)
            if abs(d_plus - d_minus) > 1e-2 * slope_scale:
                kinks += 1
                continue
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), denom_floor)
        checked += 1
        if rel > max_rel:
            max_rel, worst = rel, (name, idx)
    return FiniteDiffReport(max_rel_err=max_rel, worst=worst, n_checked=checked,
                            n_kink_skipped=kinks, tol=tol)


def _fixture(seed: int):
    bundle = synth_generate(seed, blocks=3, nodes_per_block=4, p_in=0.9,
                            p_out=0.2, d=4, n_base=2, zero_shot_classes=[2],
                            k_shot=2, mean_separation=3.0)
    split = build_class_split(bundle, k_shot=2, eval_fraction=0.2,
                              split_seed=seed + 1, anchor_seed=seed + 2)
    episode = sample_episode(bundle, 1, 1, np.random.default_rng(seed + 4))
    return bundle, split, episode


def run_gradcheck(seed: int = 0, h: float = 1e-4, tol: float = 1e-4,
                  n_coords: int = 60, inject_bug: bool = False
                  ) -> dict[str, FiniteDiffReport]:
    """One report per backbone and loss, keyed ``"<backbone>/<loss>"``."""
    if n_coords < 1:
        raise ValueError(f"n_coords must be >= 1, got {n_coords}")
    for name, value in (("h", h), ("tol", tol)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    bundle, split, episode = _fixture(seed)
    rng = np.random.default_rng(seed + 10)
    reports: dict[str, FiniteDiffReport] = {}
    for backbone in ("mean", "attention"):
        model, teacher = (network.init_model(
            feature_dim=4, hidden=6, out=5, num_layers=2, seed=s, csd_dim=4,
            backbone=backbone) for s in (seed + 3, seed + 5))
        cfg = RunConfig(backbone=backbone, walk_length=2,
                        walks_per_seed=3, seed=seed + 4)
        plan = trainer.session_plan(model, bundle, cfg, split, episode.session)
        cache = trainer._TeacherCache(teacher, bundle, plan, episode.session)
        params = network.named_parameters(model)
        bug_param = params["gnn.0.weight"]

        def loss_fn(variant, distil, part):
            run_cfg = cfg.replace(cluster_variant=variant)

            def fn():
                parts, total, _ = trainer._episode_step(
                    model, bundle, episode, run_cfg, cache if distil else None,
                    plan)
                loss = total if part == "total" else getattr(parts, part)
                if inject_bug:
                    # forward-visible, tape-invisible term: FD sees it,
                    # autodiff cannot
                    loss = loss + ad.constant(0.05 * float(bug_param.data.sum()))
                return loss
            return fn

        for name, source in _SOURCES.items():
            reports[f"{backbone}/{name}"] = finite_diff_check(
                params, loss_fn(*source), h=h, tol=tol, rng=rng,
                n_coords=n_coords)
    return reports
