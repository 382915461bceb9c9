"""Run configuration with lossless JSON round-trips.

Defaults follow the published hyperparameter table: loss weights
(1, 0.25, 1), distillation weights (1, 1), boundary 0.01, learning rates
1e-3 (the table's 1e-5 is set through ``meta_lr`` and ``ft_lr``), weight
decay 5e-3, 512-wide encoders, walk lengths 2-4 with default 3. ``RunConfig`` is the run's one settings object:
``losses.loss_total`` weighs the loss parts by its fields, and the trainer
passes its walk settings to ``sampler.session_supports`` as they are.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, fields
from pathlib import Path

__all__ = ["RunConfig", "MODES", "is_semantic"]

# plain or semantic (``is_semantic``): gfscil_semantic and gcl name one run,
# kept as two names for the configs that use either
MODES = ("gfscil_plain", "gfscil_semantic", "gcl")


def is_semantic(mode: str) -> bool:
    """Whether ``mode`` merges prototypes with encoded class semantics."""
    return mode in ("gfscil_semantic", "gcl")


# the values each enumerated field may take
_CHOICES = dict(mode=MODES, episode_class_pool=("all_seen", "novel_only"),
                cluster_variant=("mean_hinge", "self_normalized"),
                backbone=("mean", "attention"))
# the least value of each bounded numeric field; it must also be finite
_LEAST = dict(n_way=1, k_shot=1, query_per_class=1, hidden_dim=1, out_dim=1,
              num_layers=1, walk_length=0, walks_per_seed=0, episodes_base=0,
              episodes_finetune=0, alpha1=0.0, alpha2=0.0, alpha3=0.0,
              alpha4=0.0, lambda1=0.0, lambda2=0.0, gamma=0.0, meta_lr=0.0,
              ft_lr=0.0, weight_decay=0.0, seed=0, split_seed=0)


@dataclass
class RunConfig:
    """Every setting of a run; each field takes its default's type.

    ``telemetry`` turns on diagnostics that cost time but change no training
    output: with it off (the default) the post-update query accuracy of each
    episode is not computed and ``SessionReport.episode_query_acc`` is None.
    """

    dataset: str = ""
    mode: str = "gfscil_plain"
    out_dir: str = "runs/out"

    n_way: int = 1
    k_shot: int = 5
    walk_length: int = 3
    walks_per_seed: int = 5
    query_per_class: int = 10
    episode_class_pool: str = "all_seen"   # "all_seen" | "novel_only"

    alpha1: float = 1.0
    alpha2: float = 0.25
    alpha3: float = 1.0
    alpha4: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    gamma: float = 0.01
    epsilon_log: float = 1e-8
    cluster_variant: str = "mean_hinge"    # "mean_hinge" | "self_normalized"

    meta_lr: float = 1e-3
    ft_lr: float = 1e-3
    weight_decay: float = 5e-3
    episodes_base: int = 200
    episodes_finetune: int = 50

    hidden_dim: int = 512
    out_dim: int = 512
    num_layers: int = 2
    negative_slope: float = 0.01
    backbone: str = "mean"                 # "mean" | "attention"

    seed: int = 0
    split_seed: int = 1234
    eval_fraction: float = 0.2
    telemetry: bool = False

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # a field takes its default's type; an int is a float, a bool no
            # number and no number a bool
            kind = (int, float) if type(f.default) is float else type(f.default)
            if (isinstance(value, bool) != (kind is bool)
                    or not isinstance(value, kind)):
                raise ValueError(f"{f.name} must be of type {f.type}, "
                                 f"got {value!r}")
            if f.name in _CHOICES and value not in _CHOICES[f.name]:
                raise ValueError(f"{f.name} must be one of {_CHOICES[f.name]}, "
                                 f"got {value!r}")
            least = _LEAST.get(f.name)
            if least is not None and not least <= value < math.inf:
                raise ValueError(f"{f.name} must be finite and >= {least}, "
                                 f"got {value!r}")
        # also the range where leaky ReLU's arithmetic scale is exact
        if not 0.0 <= self.negative_slope <= 1.0:
            raise ValueError(f"negative_slope must lie in [0, 1], got "
                             f"{self.negative_slope!r}")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ValueError("eval_fraction must lie in (0, 1)")
        if not 0.0 < self.epsilon_log < math.inf:
            raise ValueError(f"epsilon_log must be finite and > 0, got "
                             f"{self.epsilon_log!r}")

    def to_json(self, path=None) -> str:
        text = json.dumps(asdict(self), indent=1, sort_keys=True) + "\n"
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        """The validated config in the JSON file at ``path``."""
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError(f"a config must be a JSON object, got "
                             f"{type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg
