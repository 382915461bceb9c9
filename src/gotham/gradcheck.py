"""Finite-difference audit of every training loss on a tiny fixture.

Builds a 12-node synthetic bundle with one zero-shot class, freezes one
finetune episode, and checks, on both backbones, the analytic gradient of each
loss part and of the weighted total as ``trainer._episode_step`` computes
them: without a teacher for ``train_total``, with a teacher cache of an
unrelated model for the distillation terms and ``finetune_total``. Both
cases forward one session plan that holds the distillation nodes. The
negative control, a loss with a term the tape cannot see, lives in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

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
_STEP = 1e-4         # central-difference step
_TOL = 1e-4          # largest relative error that passes
_DENOM_FLOOR = 1e-2  # least slope scale and relative-error denominator


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    worst: tuple[str, int] | None
    n_checked: int
    n_kink_skipped: int

    @property
    def passed(self) -> bool:
        return bool(self.n_checked > 0 and self.max_rel_err < _TOL)


def finite_diff_check(params: dict[str, ad.Tensor], loss_fn,
                      rng: np.random.Generator, n_coords: int) -> FiniteDiffReport:
    """Central-difference check of analytic gradients on sampled coordinates.

    Coordinates whose one-sided slopes disagree by more than 1% (a hinge or
    activation kink inside the +-``_STEP`` window) are skipped, not failed. A
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
        t.data.flat[idx] = orig + _STEP
        fp = loss_fn().item()
        t.data.flat[idx] = orig - _STEP
        fm = loss_fn().item()
        t.data.flat[idx] = orig

        d_plus = (fp - f0) / _STEP
        d_minus = (f0 - fm) / _STEP
        fd = (fp - fm) / (2.0 * _STEP)
        analytic = grads[name].flat[idx]
        if not np.isfinite([fp, fm, d_plus, d_minus, fd, analytic]).all():
            rel = np.inf
        else:
            slope_scale = max(abs(d_plus), abs(d_minus), _DENOM_FLOOR)
            if abs(d_plus - d_minus) > 1e-2 * slope_scale:
                kinks += 1
                continue
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), _DENOM_FLOOR)
        checked += 1
        if rel > max_rel:
            max_rel, worst = rel, (name, idx)
    return FiniteDiffReport(max_rel_err=max_rel, worst=worst, n_checked=checked,
                            n_kink_skipped=kinks)


def _fixture(seed: int):
    bundle = synth_generate(seed, blocks=3, nodes_per_block=4, p_in=0.9,
                            p_out=0.2, d=4, n_base=2, zero_shot_classes=[2],
                            k_shot=2, mean_separation=3.0)
    split = build_class_split(bundle, k_shot=2, eval_fraction=0.2,
                              split_seed=seed + 1, anchor_seed=seed + 2)
    episode = sample_episode(bundle, 1, 1, np.random.default_rng(seed + 4))
    return bundle, split, episode


def run_gradcheck(seed: int = 0, n_coords: int = 60) -> dict[str, FiniteDiffReport]:
    """One report per backbone and loss, keyed ``"<backbone>/<loss>"``."""
    if n_coords < 1:
        raise ValueError(f"n_coords must be >= 1, got {n_coords}")
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

        def loss_fn(variant, distil, part):
            run_cfg = replace(cfg, cluster_variant=variant)

            def fn():
                parts, total, _ = trainer._episode_step(
                    model, bundle, episode, run_cfg, cache if distil else None,
                    plan)
                return total if part == "total" else getattr(parts, part)
            return fn

        for name, source in _SOURCES.items():
            reports[f"{backbone}/{name}"] = finite_diff_check(
                params, loss_fn(*source), rng=rng, n_coords=n_coords)
    return reports
