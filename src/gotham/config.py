"""Run configuration with lossless JSON round-trips.

Defaults follow the published hyperparameter table: loss weights
(1, 0.25, 1), distillation weights (1, 1), boundary 0.01, learning rates
1e-3 (1e-5 preset available), weight decay 5e-3, 512-wide encoders, walk
lengths 2-4 with default 3.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields
from pathlib import Path

__all__ = ["RunConfig", "MODES", "is_semantic"]

MODES = ("gfscil_plain", "gfscil_semantic", "gcl")


def is_semantic(mode: str) -> bool:
    """Whether ``mode`` merges prototypes with encoded class semantics."""
    return mode in ("gfscil_semantic", "gcl")


@dataclass
class RunConfig:
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
    unseen_encoder: str = "gnn"            # "gnn" | "mlp"

    seed: int = 0
    split_seed: int = 1234
    eval_fraction: float = 0.2

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.walk_length < 0 or self.walks_per_seed < 0:
            raise ValueError("walk settings must be >= 0")
        if self.n_way < 1:
            raise ValueError("n_way must be >= 1")
        if self.k_shot < 1:
            raise ValueError("k_shot must be >= 1")
        if self.episode_class_pool not in ("all_seen", "novel_only"):
            raise ValueError("episode_class_pool must be all_seen or novel_only")
        if self.backbone not in ("mean", "attention"):
            raise ValueError("backbone must be mean or attention")
        # also the range where leaky ReLU's arithmetic scale is exact
        if not 0.0 <= self.negative_slope <= 1.0:
            raise ValueError(f"negative_slope must lie in [0, 1], got "
                             f"{self.negative_slope!r}")
        if self.unseen_encoder not in ("gnn", "mlp"):
            raise ValueError("unseen_encoder must be gnn or mlp")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ValueError("eval_fraction must lie in (0, 1)")

    def to_json(self, path=None) -> str:
        text = json.dumps(asdict(self), indent=1, sort_keys=True) + "\n"
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, source) -> "RunConfig":
        if isinstance(source, (str, Path)) and Path(source).exists():
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        else:
            raw = json.loads(source)
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def replace(self, **kwargs) -> "RunConfig":
        data = asdict(self)
        data.update(kwargs)
        return RunConfig(**data)
