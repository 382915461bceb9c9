"""The benchmark's workloads: one synthetic class stream each, made from a seed.

Each workload fixes a stochastic-block graph, a run mode and a backbone. The
seed drives both the graph generator and the training seed, so one seed
always gives the same inputs and the same outputs. Why each workload exists
is written next to it and in README.md.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from gotham.config import RunConfig
from gotham.graphstore import DatasetBundle, synth_generate

# 73 base + 4 x 8 finetune episodes give 100 gaps between consecutive
# episodes of one session, so the 90th percentile has ten samples beyond it.
# Base episodes are the cheapest, so most gaps are spent there. Episodes get
# dearer session by session; with these counts the median falls among base
# episodes and the 90th percentile mid-way through session 3's, not on the
# edge between two sessions' times.
EPISODES_BASE = 73
EPISODES_FINETUNE = 8
FEATURE_DIM = 16
BASE_CLASSES = 4
K_SHOT = 5


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: int
    nodes_per_block: int
    p_in: float
    p_out: float
    mode: str
    backbone: str = "mean"
    zero_shot: tuple[int, ...] = ()
    # schedule every streamed class's nodes to arrive with that class
    arrivals: bool = False

    def dataset(self, seed: int) -> DatasetBundle:
        bundle = synth_generate(seed, self.blocks, self.nodes_per_block,
                                self.p_in, self.p_out, FEATURE_DIM,
                                n_base=BASE_CLASSES,
                                zero_shot_classes=self.zero_shot,
                                k_shot=K_SHOT)
        if not self.arrivals:
            return bundle
        sessions = []
        for spec in bundle.schedule.sessions:
            classes = set(spec.few_shot) | set(spec.zero_shot)
            nodes = sorted(n for n, c in bundle.labels.by_node.items()
                           if c in classes)
            sessions.append(dataclasses.replace(spec, arrivals=tuple(nodes)))
        schedule = dataclasses.replace(bundle.schedule, sessions=tuple(sessions))
        return dataclasses.replace(bundle, schedule=schedule)

    def config(self, seed: int, dataset_dir, *,
               episodes_base: int = EPISODES_BASE,
               episodes_finetune: int = EPISODES_FINETUNE) -> RunConfig:
        return RunConfig(dataset=str(dataset_dir), mode=self.mode, n_way=3,
                         k_shot=K_SHOT, backbone=self.backbone, seed=seed,
                         episodes_base=episodes_base,
                         episodes_finetune=episodes_finetune)


WORKLOADS = {w.name: w for w in (
    # The baseline stream: every 2-hop set covers nearly the whole graph, so
    # dense matmul and backward dominate and graph_at is a no-op.
    Workload("gcl-dense-240", 8, 30, 0.3, 0.02, "gcl", zero_shot=(6,)),
    # A sparse graph that grows from 2000 to 4000 nodes: graph_at rebuilds
    # snapshots, hop sets cover a fraction of the graph, set-up is heaviest.
    Workload("plain-growing-4k", 8, 500, 0.01, 0.0002, "gfscil_plain",
             arrivals=True),
    # The only stream through the attention backbone and the semantic MLP.
    Workload("semantic-attn-480", 8, 60, 0.15, 0.02, "gfscil_semantic",
             backbone="attention"),
)}
