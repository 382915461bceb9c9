"""End-to-end streams through ``run_stream``: artifacts, logging, determinism."""
import dataclasses
import json

import pytest

from gotham import autodiff as ad
from gotham import nn as network
from gotham import trainer
from gotham.config import RunConfig
from gotham.graphstore import graph_at, synth_generate
from gotham.trainer import run_stream

EPISODES = {"episodes_base": 3, "episodes_finetune": 1}
ARTIFACTS = ("summary.tsv", "loss_log.jsonl", "model.ckpt")


def tiny_bundle(zero_shot=()):
    # 5 classes of 20 nodes: 3 base classes, then one streamed class per session
    return synth_generate(0, 5, 20, 0.3, 0.02, 8, n_base=3,
                          zero_shot_classes=zero_shot, k_shot=3)


def with_arrivals(bundle):
    """Each streamed class's nodes arrive in the session that introduces it."""
    sessions = []
    for spec in bundle.schedule.sessions:
        classes = set(spec.few_shot) | set(spec.zero_shot)
        nodes = sorted(n for n, c in bundle.labels.by_node.items() if c in classes)
        sessions.append(dataclasses.replace(spec, arrivals=tuple(nodes)))
    schedule = dataclasses.replace(bundle.schedule, sessions=tuple(sessions))
    return dataclasses.replace(bundle, schedule=schedule)


def tiny_config(mode, backbone):
    return RunConfig(mode=mode, backbone=backbone, n_way=2, k_shot=3,
                     query_per_class=3, hidden_dim=16, out_dim=8, seed=3,
                     **EPISODES)


def stream(bundle, cfg, out_dir):
    records = []
    reports = run_stream(bundle, cfg, out_dir=out_dir, log_fn=records.append)
    return reports, records


def assert_every_step_logged(bundle, cfg, out_dir, records):
    sessions = [0] * cfg.episodes_base
    for t in range(1, bundle.num_sessions + 1):
        sessions += [t] * cfg.episodes_finetune
    logged = [json.loads(line) for line in
              (out_dir / "loss_log.jsonl").read_text(encoding="utf-8").splitlines()]
    assert logged == records
    assert [r["step"] for r in logged] == list(range(len(sessions)))
    assert [r["session"] for r in logged] == sessions


@pytest.mark.parametrize("mode,backbone,zero_shot", [
    ("gcl", "mean", (4,)),
    ("gfscil_semantic", "attention", ()),
])
def test_run_stream_is_byte_identical_on_rerun(tmp_path, mode, backbone, zero_shot):
    bundle = tiny_bundle(zero_shot)
    cfg = tiny_config(mode, backbone)
    first, records = stream(bundle, cfg, tmp_path / "a")
    stream(tiny_bundle(zero_shot), cfg, tmp_path / "b")
    assert [r.session for r in first] == [0, 1, 2]
    assert_every_step_logged(bundle, cfg, tmp_path / "a", records)
    for name in ARTIFACTS + ("config.json",):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_run_stream_with_streamed_class_arrivals(tmp_path):
    bundle = with_arrivals(tiny_bundle())
    cfg = tiny_config("gfscil_plain", "mean")
    reports, records = stream(bundle, cfg, tmp_path)
    assert_every_step_logged(bundle, cfg, tmp_path, records)
    visible = [graph_at(bundle, t).visible.size for t in range(3)]
    assert visible == [60, 80, 100]
    assert [r.n_classes for r in reports] == [3, 4, 5]
    assert all(0.0 <= r.overall <= 1.0 for r in reports)
    for name in ARTIFACTS:
        assert (tmp_path / name).stat().st_size > 0


def test_episodes_and_evaluation_share_the_session_supports(monkeypatch):
    bundle = tiny_bundle((4,))
    sched = bundle.schedule
    cfg = tiny_config("gcl", "mean").replace(episodes_finetune=2)
    supports = {t: [] for t in range(sched.num_sessions + 1)}
    build = trainer.build_prototype_tensors

    def spy(model, bundle, episode, *args, **kwargs):
        supports[episode.session].append(episode.extended_support)
        return build(model, bundle, episode, *args, **kwargs)

    monkeypatch.setattr(trainer, "build_prototype_tensors", spy)
    run_stream(bundle, cfg)
    assert any(sched.unseen_at(t) for t in supports)
    for t, draws in supports.items():
        episodes = cfg.episodes_base if t == 0 else cfg.episodes_finetune
        assert len(draws) == episodes + 1          # the episodes, then evaluation
        assert all(d == draws[0] for d in draws)
        # zero-shot classes have no anchors, so they get no support
        assert sorted(draws[0]) == sched.seen_at(t)
        assert not set(draws[0]) & set(sched.unseen_at(t))


@pytest.mark.parametrize("mode,backbone,zero_shot", [
    ("gcl", "mean", (4,)),
    ("gfscil_semantic", "attention", ()),
])
def test_episode_forwards_per_backbone(monkeypatch, mode, backbone, zero_shot):
    """One encoder forward per training episode serves every seen class and
    the distillation rows, on either backbone."""
    bundle = tiny_bundle(zero_shot)
    cfg = tiny_config(mode, backbone)
    forward, step = network.gnn_forward, trainer._episode_step
    counts = []

    def count_forward(params, graph, nodes):
        # zero-shot prototypes run on their own one-node graphs
        if counts and graph is counts[-1][1]:
            counts[-1][2] += 1
        return forward(params, graph, nodes)

    def count_step(model, bundle, episode, cfg, weights, cache):
        counts.append([episode.session, graph_at(bundle, episode.session), 0])
        try:
            return step(model, bundle, episode, cfg, weights, cache)
        finally:
            counts[-1][1] = None      # the query-accuracy forward is not counted

    monkeypatch.setattr(network, "gnn_forward", count_forward)
    monkeypatch.setattr(trainer, "_episode_step", count_step)
    run_stream(bundle, cfg)
    assert len(counts) == cfg.episodes_base + bundle.num_sessions * cfg.episodes_finetune
    assert all(n == 1 for _, _, n in counts)


def test_base_class_arrivals_run_to_completion(tmp_path, monkeypatch):
    """Nodes 0-9 of base class 0 arrive at session 2: anchors come from the
    nodes visible at t=0 and episode queries from the nodes visible at t."""
    bundle = synth_generate(0, 6, 30, 0.3, 0.02, 8, n_base=3, k_shot=5)
    sessions = list(bundle.schedule.sessions)
    sessions[1] = dataclasses.replace(sessions[1], arrivals=tuple(range(10)))
    bundle = dataclasses.replace(bundle, schedule=dataclasses.replace(
        bundle.schedule, sessions=tuple(sessions)))
    queried = []
    sample = trainer.sample_episode

    def spy(bundle, t, *args, **kwargs):
        episode = sample(bundle, t, *args, **kwargs)
        queried.append((t, [n for n, _ in episode.query]))
        return episode

    monkeypatch.setattr(trainer, "sample_episode", spy)
    for seed in (0, 1, 2):
        cfg = tiny_config("gfscil_plain", "mean").replace(
            seed=seed, k_shot=5, episodes_finetune=2)
        split = trainer.run_split(bundle, cfg)
        assert not set(split.anchors[0].tolist()) & set(range(10))
        reports, records = stream(bundle, cfg, tmp_path / str(seed))
        assert_every_step_logged(bundle, cfg, tmp_path / str(seed), records)
        assert [r.n_classes for r in reports] == [3, 4, 5, 6]
    assert all(not set(nodes) & set(range(10)) for t, nodes in queried if t < 2)
    assert any(set(nodes) & set(range(10)) for t, nodes in queried if t >= 2)


def test_nonfinite_loss_names_the_session_episode_and_loss_parts(monkeypatch):
    cfg = tiny_config("gfscil_plain", "mean").replace(episodes_finetune=2)
    seg, calls = trainer.loss_seg, []

    def nan_on_fifth_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:         # session 1's second episode
            return ad.constant(float("nan"))
        return seg(*args, **kwargs)

    monkeypatch.setattr(trainer, "loss_seg", nan_on_fifth_call)
    with pytest.raises(network.NonFiniteError) as info:
        run_stream(tiny_bundle(), cfg)
    msg = str(info.value)
    assert msg.startswith("session 1, episode 1: loss is nan")
    assert "'seg': nan" in msg
    for part in ("cluster", "sem", "kd_emb", "kd_align"):
        assert f"'{part}': " in msg
