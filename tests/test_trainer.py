"""End-to-end streams through ``run_stream``: artifacts, logging, determinism."""
import copy
import dataclasses
import json
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotham import autodiff as ad
from gotham import nn as network
from gotham import sampler, trainer
from gotham.config import RunConfig
from gotham.graphstore import DatasetError, LabelTable, graph_at, synth_generate
from gotham.prototypes import encode_csds
from gotham.trainer import classify, run_stream

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


def tiny_config(mode, backbone, **changes):
    return dataclasses.replace(
        RunConfig(mode=mode, backbone=backbone, n_way=2, k_shot=3,
                  query_per_class=3, hidden_dim=16, out_dim=8, seed=3,
                  **EPISODES), **changes)


def stream(bundle, cfg, out_dir):
    records = []
    reports = run_stream(bundle, cfg, out_dir=out_dir, log_fn=records.append)
    return reports, records


def assert_every_step_logged(bundle, cfg, out_dir, records):
    sessions = [0] * cfg.episodes_base
    for t in range(1, bundle.schedule.num_sessions + 1):
        sessions += [t] * cfg.episodes_finetune
    logged = [json.loads(line) for line in
              (out_dir / "loss_log.jsonl").read_text(encoding="utf-8").splitlines()]
    assert logged == records
    assert [r["step"] for r in logged] == list(range(len(sessions)))
    assert [r["session"] for r in logged] == sessions


@pytest.mark.parametrize("mode,backbone,zero_shot,telemetry", [
    ("gcl", "mean", (4,), False),
    ("gfscil_semantic", "attention", (), False),
    ("gcl", "mean", (4,), True),
], ids=["gcl-mean-zero_shot0", "gfscil_semantic-attention-zero_shot1",
        "gcl-mean-telemetry"])
def test_run_stream_is_byte_identical_on_rerun(tmp_path, mode, backbone, zero_shot,
                                               telemetry):
    """A rerun writes the same bytes; under telemetry, the queries drawn after
    each update repeat too, so each session report, but for its wall time,
    is the same."""
    bundle = tiny_bundle(zero_shot)
    cfg = tiny_config(mode, backbone, telemetry=telemetry)
    first, records = stream(bundle, cfg, tmp_path / "a")
    stream(tiny_bundle(zero_shot), cfg, tmp_path / "b")
    assert [r.session for r in first] == [0, 1, 2]
    assert_every_step_logged(bundle, cfg, tmp_path / "a", records)
    written = sorted(p.name for p in (tmp_path / "a" / "prototypes").iterdir())
    assert written == [f"session_{t}.tsv" for t in range(3)]
    for name in ARTIFACTS + ("config.json",) + tuple(f"prototypes/{w}" for w in written):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
    for t in range(3):
        a, b = (json.loads((tmp_path / run / "reports" / f"session_{t}.json")
                           .read_text(encoding="utf-8")) for run in "ab")
        del a["wall_time"], b["wall_time"]
        assert a == b
        assert isinstance(a["episode_query_acc"], float) == telemetry


@pytest.mark.parametrize("backbone", ["mean", "attention"])
def test_zero_shot_classes_alone_make_a_gcl_stream(tmp_path, backbone):
    """``gcl`` and ``gfscil_semantic`` name one semantic run: on a stream with
    zero-shot classes and on one without, they write the same bytes. The
    schedule, not the mode's name, makes a stream zero-shot; only
    ``gfscil_plain``, which cannot embed CSDs, rejects one, before any
    output."""
    for zero_shot in ((), (4,)):
        for mode in ("gcl", "gfscil_semantic"):
            run_stream(tiny_bundle(zero_shot), tiny_config(mode, backbone),
                       out_dir=tmp_path / f"{mode}-{len(zero_shot)}")
    out = tmp_path / "gfscil_plain-1"
    with pytest.raises(DatasetError, match=r"^schedule contains zero-shot "
                                           r"classes; mode gfscil_plain cannot "
                                           r"embed their CSDs$"):
        run_stream(tiny_bundle((4,)), tiny_config("gfscil_plain", backbone),
                   out_dir=out)
    assert not out.exists()
    for name in ("gcl-1", "gfscil_semantic-1"):
        assert "unseen_semantic" in (tmp_path / name / "prototypes" /
                                     "session_2.tsv").read_text(encoding="utf-8")
    for n in (0, 1):
        gcl, semantic = tmp_path / f"gcl-{n}", tmp_path / f"gfscil_semantic-{n}"
        written = sorted(p.name for p in (gcl / "prototypes").iterdir())
        assert written == [f"session_{t}.tsv" for t in range(3)]
        for name in ARTIFACTS + tuple(f"prototypes/{w}" for w in written):
            assert (gcl / name).read_bytes() == (semantic / name).read_bytes(), name


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


def test_episodes_and_evaluation_share_the_session_supports(monkeypatch,
                                                            tmp_path):
    bundle = tiny_bundle((4,))
    sched = bundle.schedule
    cfg = tiny_config("gcl", "mean", episodes_finetune=2)
    draw, plan = trainer.session_supports, trainer.plan_supports
    build = trainer.build_prototype_tensors
    draws, plans = [], []
    built = {t: [] for t in range(sched.num_sessions + 1)}

    def count_draws(bundle, t, *args, **kwargs):
        draws.append((t, draw(bundle, t, *args, **kwargs)))
        return draws[-1][1]

    def spy_plan(gnn, graph, supports, distill_nodes=None):
        plans.append((supports, plan(gnn, graph, supports, distill_nodes)))
        return plans[-1][1]

    def spy_build(model, bundle, t, plan, *args):
        built[t].append(plan)
        return build(model, bundle, t, plan, *args)

    monkeypatch.setattr(trainer, "session_supports", count_draws)
    monkeypatch.setattr(trainer, "plan_supports", spy_plan)
    monkeypatch.setattr(trainer, "build_prototype_tensors", spy_build)
    run_stream(bundle, cfg, out_dir=tmp_path)
    # one walk draw and one plan of it per session serve its episodes and
    # its evaluation
    assert [t for t, _ in draws] == list(range(sched.num_sessions + 1))
    assert len(plans) == len(draws)
    assert any(sched.unseen_at(t) for t in built)
    for (t, supports), (planned, session_plan) in zip(draws, plans):
        assert planned is supports
        episodes = cfg.episodes_base if t == 0 else cfg.episodes_finetune
        assert len(built[t]) == episodes + 1       # the episodes, then evaluation
        assert all(p is session_plan for p in built[t])
        # zero-shot classes have no anchors, so they get no support
        assert sorted(supports) == sched.seen_at(t)
        assert session_plan.classes.tolist() == sched.seen_at(t)
        assert not set(supports) & set(sched.unseen_at(t))


@pytest.mark.parametrize("mode,backbone,zero_shot", [
    ("gcl", "mean", (4,)),
    ("gfscil_semantic", "attention", ()),
])
def test_teacher_cache_equals_a_frozen_copy_of_the_previous_session(
        monkeypatch, mode, backbone, zero_shot, tmp_path):
    """The cache read from the live model at the start of session t holds,
    bit for bit, what a frozen copy taken after session t-1 computes on the
    session's plan; the first finetune episode's student rows equal it, so
    its embedding distillation is exactly 0."""
    bundle = tiny_bundle(zero_shot)
    sched = bundle.schedule
    cfg = tiny_config(mode, backbone)
    run_session, cache_cls = trainer._run_session, trainer._TeacherCache
    step = trainer._episode_step
    frozen, caches, first = {}, {}, {}

    def spy_session(model, bundle, cfg, split, t, log_fn):
        report = run_session(model, bundle, cfg, split, t, log_fn)
        frozen[t] = (copy.deepcopy(model), split)
        for tensor in network.named_parameters(frozen[t][0]).values():
            tensor.requires_grad = False
        return report

    class SpyCache(cache_cls):
        def __init__(self, model, bundle, plan, t):
            super().__init__(model, bundle, plan, t)
            caches[t] = (self, plan)

    def spy_step(model, bundle, episode, cfg, cache, plan):
        parts, total, build = step(model, bundle, episode, cfg, cache, plan)
        first.setdefault(episode.session, build.distill)
        return parts, total, build

    monkeypatch.setattr(trainer, "_run_session", spy_session)
    monkeypatch.setattr(trainer, "_TeacherCache", SpyCache)
    monkeypatch.setattr(trainer, "_episode_step", spy_step)
    _, records = stream(bundle, cfg, tmp_path)
    assert sorted(caches) == list(range(1, sched.num_sessions + 1))
    for t, (cache, plan) in caches.items():
        teacher, split = frozen[t - 1]
        assert list(cache.classes) == sched.seen_at(t - 1)
        np.testing.assert_array_equal(
            plan.forward.nodes[plan.distill],
            np.unique(np.concatenate([split.anchors[c]
                                      for c in sched.seen_at(t - 1)])))
        want = network.gnn_forward(teacher.gnn, graph_at(bundle, t), plan.forward)
        assert not want.requires_grad
        assert cache.embeddings.tobytes() == want.data[plan.distill].tobytes()
        assert first[t].data.tobytes() == cache.embeddings.tobytes()
        encoded = encode_csds(teacher, cache.classes, bundle.csds.vectors).data
        assert cache.encodings.shape == (len(cache.classes), cfg.out_dim)
        assert cache.encodings.tobytes() == encoded.tobytes()
    assert first[0] is None
    firsts = [next(r for r in records if r["session"] == t)
              for t in range(1, sched.num_sessions + 1)]
    assert [r["l_emb"] for r in firsts] == [0.0] * sched.num_sessions


@pytest.mark.parametrize("mode,backbone,zero_shot", [
    ("gcl", "mean", (4,)),
    ("gfscil_semantic", "attention", ()),
])
def test_episode_forwards_per_backbone(monkeypatch, mode, backbone, zero_shot,
                                       tmp_path):
    """One encoder forward per training episode serves every seen class and
    the distillation rows, on either backbone."""
    bundle = tiny_bundle(zero_shot)
    cfg = tiny_config(mode, backbone)
    forward, step = network.gnn_forward, trainer._episode_step
    counts = []

    def count_forward(params, graph, nodes):
        # zero-shot prototypes take no graph forward at all
        if counts and counts[-1][1] is not None:
            assert graph is counts[-1][1]
            counts[-1][2] += 1
        return forward(params, graph, nodes)

    def count_step(model, bundle, episode, cfg, cache, plan):
        counts.append([episode.session, graph_at(bundle, episode.session), 0])
        try:
            return step(model, bundle, episode, cfg, cache, plan)
        finally:
            counts[-1][1] = None      # the query-accuracy forward is not counted

    monkeypatch.setattr(network, "gnn_forward", count_forward)
    monkeypatch.setattr(trainer, "_episode_step", count_step)
    run_stream(bundle, cfg, out_dir=tmp_path)
    assert len(counts) == cfg.episodes_base + bundle.schedule.num_sessions * cfg.episodes_finetune
    assert all(n == 1 for _, _, n in counts)


@pytest.mark.parametrize("mode,backbone,zero_shot", [
    ("gcl", "mean", (4,)),
    ("gfscil_semantic", "attention", ()),
])
def test_only_training_episodes_build_a_tape(monkeypatch, mode, backbone,
                                             zero_shot, tmp_path):
    """The teacher, the evaluation prototypes, evaluation and telemetry's
    query accuracy run their encoders without a tape; every encoder forward
    of an episode's loss has one."""
    bundle = tiny_bundle(zero_shot)
    cfg = tiny_config(mode, backbone, telemetry=True)
    forward, mlp, step = network.gnn_forward, network.mlp_forward, trainer._episode_step
    in_step, taped = [], {True: [], False: []}

    def spy(fn):
        def run(*args):
            out = fn(*args)
            taped[bool(in_step)].append(out.requires_grad)
            return out
        return run

    def spy_step(*args):
        in_step.append(True)
        try:
            return step(*args)
        finally:
            in_step.pop()

    monkeypatch.setattr(network, "gnn_forward", spy(forward))
    monkeypatch.setattr(network, "mlp_forward", spy(mlp))
    monkeypatch.setattr(trainer, "_episode_step", spy_step)
    run_stream(bundle, cfg, out_dir=tmp_path)
    episodes = cfg.episodes_base + bundle.schedule.num_sessions * cfg.episodes_finetune
    assert len(taped[True]) >= episodes and all(taped[True])
    # per session an evaluation-prototype forward and evaluation's, per
    # episode a query forward, and from t = 1 the teacher's
    assert len(taped[False]) >= 2 * 3 + episodes + 2 and not any(taped[False])


@pytest.mark.parametrize("mode,backbone,zero_shot", [
    ("gcl", "mean", (4,)),
    ("gfscil_semantic", "attention", ()),
])
def test_one_plan_per_session_is_freed_when_the_session_returns(
        monkeypatch, mode, backbone, zero_shot, tmp_path):
    """The teacher, every episode and the evaluation prototypes of a session
    read one plan, and nothing holds it once ``_run_session`` returns."""
    bundle = with_arrivals(tiny_bundle(zero_shot))
    cfg = tiny_config(mode, backbone)
    make_plan, run_session = trainer.plan_supports, trainer._run_session
    build, cache_cls = trainer.build_prototype_tensors, trainer._TeacherCache
    plans, used = [], []

    def spy_plan(*args):
        plan = make_plan(*args)
        plans.append((weakref.ref(plan), weakref.ref(plan.forward)))
        return plan

    def spy_build(model, bundle, t, plan, *args):
        used.append(id(plan))
        return build(model, bundle, t, plan, *args)

    class SpyCache(cache_cls):
        def __init__(self, model, bundle, plan, t):
            used.append(id(plan))
            super().__init__(model, bundle, plan, t)

    def spy_session(model, bundle, cfg, split, t, log_fn):
        used.clear()
        report = run_session(model, bundle, cfg, split, t, log_fn)
        episodes = cfg.episodes_base if t == 0 else cfg.episodes_finetune
        # the teacher (t >= 1), the episodes, then evaluation
        assert len(used) == (t > 0) + episodes + 1 and len(set(used)) == 1
        assert all(ref() is None for ref in plans[-1])
        return report

    monkeypatch.setattr(trainer, "plan_supports", spy_plan)
    monkeypatch.setattr(trainer, "build_prototype_tensors", spy_build)
    monkeypatch.setattr(trainer, "_TeacherCache", SpyCache)
    monkeypatch.setattr(trainer, "_run_session", spy_session)
    run_stream(bundle, cfg, out_dir=tmp_path)
    assert len(plans) == bundle.schedule.num_sessions + 1


@pytest.mark.parametrize("mode,backbone,zero_shot", [
    ("gcl", "mean", (4,)),
    ("gfscil_semantic", "attention", ()),
])
def test_no_episode_outlives_its_update(monkeypatch, refcount_only, mode,
                                        backbone, zero_shot, tmp_path):
    """When an episode's forward starts, the previous episode's prototype
    build and gradient arrays are gone, freed by reference counting alone;
    evaluation's prototypes find the session's last episode gone too."""
    bundle = with_arrivals(tiny_bundle(zero_shot))
    cfg = tiny_config(mode, backbone, telemetry=True)
    step, gradients = trainer._episode_step, network.compute_gradients
    evaluate = trainer._eval_prototypes
    alive, steps = [], []

    def assert_previous_freed():
        assert all(ref() is None for ref in alive)
        alive.clear()

    def spy_step(*args):
        assert_previous_freed()
        steps.append(None)
        parts, total, build = step(*args)
        alive.append(weakref.ref(build.embeddings.data))
        return parts, total, build

    def spy_gradients(params, loss):
        grads = gradients(params, loss)
        alive.extend(weakref.ref(g) for g in grads.values())
        return grads

    def spy_eval(*args):
        assert_previous_freed()
        return evaluate(*args)

    monkeypatch.setattr(trainer, "_episode_step", spy_step)
    monkeypatch.setattr(network, "compute_gradients", spy_gradients)
    monkeypatch.setattr(trainer, "_eval_prototypes", spy_eval)
    run_stream(bundle, cfg, out_dir=tmp_path)
    assert len(steps) == cfg.episodes_base + bundle.schedule.num_sessions * cfg.episodes_finetune


@pytest.mark.parametrize("mode,backbone,zero_shot", [
    ("gcl", "mean", (4,)),
    ("gfscil_semantic", "attention", ()),
])
def test_forward_plans_are_built_per_session_and_per_evaluation_only(
        monkeypatch, mode, backbone, zero_shot, tmp_path):
    """A stream builds one forward plan per session plan and one for each
    evaluation forward: none per episode and none for the teacher."""
    bundle = with_arrivals(tiny_bundle(zero_shot))
    cfg = tiny_config(mode, backbone)
    make_forward, make_plan = network.forward_plan, trainer.plan_supports
    built, planning = [], []

    def spy_forward(params, graph, nodes):
        built.append("session" if planning else "evaluation")
        return make_forward(params, graph, nodes)

    def spy_plan(*args):
        planning.append(True)
        try:
            return make_plan(*args)
        finally:
            planning.pop()

    monkeypatch.setattr(network, "forward_plan", spy_forward)
    monkeypatch.setattr(trainer, "plan_supports", spy_plan)
    run_stream(bundle, cfg, out_dir=tmp_path)
    assert built == ["session", "evaluation"] * (bundle.schedule.num_sessions + 1)


def test_base_class_arrivals_run_to_completion(tmp_path, monkeypatch):
    """Nodes 0-9 of base class 0 arrive at session 2: anchors come from the
    nodes visible at t=0 and episode queries from the nodes visible at t."""
    bundle = synth_generate(0, 6, 30, 0.3, 0.02, 8, n_base=3, k_shot=5)
    sessions = list(bundle.schedule.sessions)
    sessions[1] = dataclasses.replace(sessions[1], arrivals=tuple(range(10)))
    bundle = dataclasses.replace(bundle, schedule=dataclasses.replace(
        bundle.schedule, sessions=tuple(sessions)))
    queried = []
    draw = trainer.draw_queries

    def spy(bundle, split, episode, *args):
        query = draw(bundle, split, episode, *args)
        queried.append((episode.session, [n for n, _ in query]))
        return query

    monkeypatch.setattr(trainer, "draw_queries", spy)
    for seed in (0, 1, 2):
        # queries are drawn only under telemetry
        cfg = tiny_config("gfscil_plain", "mean", seed=seed, k_shot=5,
                          episodes_finetune=2, telemetry=True)
        split = trainer.run_split(bundle, cfg)
        assert not set(split.anchors[0].tolist()) & set(range(10))
        reports, records = stream(bundle, cfg, tmp_path / str(seed))
        assert_every_step_logged(bundle, cfg, tmp_path / str(seed), records)
        assert [r.n_classes for r in reports] == [3, 4, 5, 6]
    assert all(not set(nodes) & set(range(10)) for t, nodes in queried if t < 2)
    assert any(set(nodes) & set(range(10)) for t, nodes in queried if t >= 2)


def test_nonfinite_loss_names_the_session_episode_and_loss_parts(monkeypatch,
                                                                 tmp_path):
    cfg = tiny_config("gfscil_plain", "mean", episodes_finetune=2)
    seg, calls = trainer.loss_seg, []

    def nan_on_fifth_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:         # session 1's second episode
            return ad.constant(float("nan"))
        return seg(*args, **kwargs)

    monkeypatch.setattr(trainer, "loss_seg", nan_on_fifth_call)
    with pytest.raises(network.NonFiniteError) as info:
        run_stream(tiny_bundle(), cfg, out_dir=tmp_path)
    msg = str(info.value)
    assert msg.startswith("session 1, episode 1: loss is nan")
    assert "'seg': nan" in msg
    # a gfscil_plain finetune episode computes no sem and no kd_align
    for part in ("cluster", "kd_emb"):
        assert f"'{part}': " in msg
    for part in ("sem", "kd_align"):
        assert f"'{part}'" not in msg


@pytest.mark.parametrize("backbone", ["mean", "attention"])
def test_an_overflowing_run_raises_its_own_error_and_no_numpy_warning(
        tmp_path, backbone):
    """A finetune rate that overflows the weights: numpy's overflow and
    invalid-value warnings stay quiet, the run raises ``NonFiniteError``,
    and its directory says so in ``FAILED``."""
    cfg = tiny_config("gfscil_plain", backbone, ft_lr=1e305)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(network.NonFiniteError, match="^session 1: "):
            run_stream(tiny_bundle(), cfg, out_dir=tmp_path)
    assert (tmp_path / trainer.FAILED).read_text(encoding="utf-8").startswith(
        "NonFiniteError: session 1: ")


@pytest.mark.parametrize("mode,semantic", [("gfscil_plain", False),
                                           ("gfscil_semantic", True)])
def test_loss_log_writes_null_for_parts_never_computed(tmp_path, mode, semantic):
    bundle = tiny_bundle()
    _, records = stream(bundle, tiny_config(mode, "mean"), tmp_path)
    logged = [json.loads(line) for line in
              (tmp_path / "loss_log.jsonl").read_text(encoding="utf-8").splitlines()]
    assert logged == records
    for rec in logged:
        finetune = rec["session"] > 0
        assert isinstance(rec["l_cls"], float) and isinstance(rec["l_seg"], float)
        assert isinstance(rec["l_sem"], float) if semantic else rec["l_sem"] is None
        # base records have no teacher: no distillation term is computed
        assert isinstance(rec["l_emb"], float) if finetune else rec["l_emb"] is None
        if finetune and semantic:
            assert isinstance(rec["l_align"], float)
        else:
            assert rec["l_align"] is None
    assert {r["session"] for r in logged} == {0, 1, 2}


def test_reports_write_null_for_a_class_without_held_out_nodes(tmp_path):
    """A class whose one labelled node is its anchor holds out no node, so its
    accuracy is nan; its report reads null, strict JSON, as summary.tsv
    leaves its cell empty."""
    bundle = synth_generate(0, 4, 10, 0.5, 0.05, 8, n_base=3, k_shot=1)
    keep = bundle.labels.nodes_of(3)[0]
    bundle = dataclasses.replace(bundle, labels=LabelTable(
        {n: c for n, c in bundle.labels.by_node.items() if c != 3 or n == keep}))
    run_stream(bundle, RunConfig(n_way=2, k_shot=1, hidden_dim=8, out_dim=4,
                                 episodes_base=1, episodes_finetune=1),
               out_dir=tmp_path)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    base, first = (json.loads((tmp_path / "reports" / f"session_{t}.json").read_text(
        encoding="utf-8"), parse_constant=refuse) for t in (0, 1))
    assert first["per_class"]["3"] is None
    assert all(isinstance(first["per_class"][c], float) for c in "012")
    assert (tmp_path / "summary.tsv").read_text(encoding="utf-8").count("nan") == 0


@pytest.mark.parametrize("mode", ["gfscil_plain", "gfscil_semantic"])
@pytest.mark.parametrize("variant", ["mean_hinge", "self_normalized"])
def test_an_episode_tape_does_not_grow_with_the_seen_classes(monkeypatch, mode,
                                                             variant, tmp_path):
    """A finetune task covers every seen class; its backward tape holds as
    many nodes at 12 seen classes as at 6."""
    bundle = synth_generate(0, 12, 10, 0.5, 0.05, 12, n_base=3, novel_per_session=3,
                            k_shot=2)
    cfg = RunConfig(mode=mode, cluster_variant=variant, n_way=2, k_shot=2,
                    hidden_dim=8, out_dim=4, episodes_base=1, episodes_finetune=2)
    step, nodes = trainer._episode_step, {}

    def count_step(model, bundle, episode, cfg, cache, plan):
        parts, total, build = step(model, bundle, episode, cfg, cache, plan)
        nodes.setdefault(episode.session, set()).add(len(ad._tape(total)))
        return parts, total, build

    monkeypatch.setattr(trainer, "_episode_step", count_step)
    run_stream(bundle, cfg, out_dir=tmp_path)
    assert [len(bundle.schedule.seen_at(t)) for t in (1, 3)] == [6, 12]
    assert len(nodes[1]) == 1 and nodes[1] == nodes[2] == nodes[3]


def test_kd_align_student_rows_equal_a_separate_encoding(monkeypatch, tmp_path):
    """The student's semantic rows for distillation are gathered from the
    prototypes' own semantic forward, not recomputed."""
    bundle = tiny_bundle()
    cfg = tiny_config("gfscil_semantic", "mean")
    step, align = trainer._episode_step, trainer.loss_kd_align
    current, checked = {}, []

    def spy_step(model, bundle, episode, cfg, cache, plan):
        current.update(model=model, cache=cache)
        return step(model, bundle, episode, cfg, cache, plan)

    def spy_align(teacher, student, eps):
        want = encode_csds(current["model"], current["cache"].classes,
                           bundle.csds.vectors).data
        assert student.shape == want.shape
        assert np.abs(student.data - want).max() <= 1e-12 * np.abs(want).max()
        checked.append(len(current["cache"].classes))
        return align(teacher, student, eps)

    monkeypatch.setattr(trainer, "_episode_step", spy_step)
    monkeypatch.setattr(trainer, "loss_kd_align", spy_align)
    run_stream(bundle, cfg, out_dir=tmp_path)
    assert checked == [3, 4]      # one finetune episode per session


# -- telemetry ------------------------------------------------------------------

def test_telemetry_adds_query_accuracy_and_changes_no_artifact(tmp_path,
                                                               monkeypatch):
    bundle = tiny_bundle((4,))
    cfg = tiny_config("gcl", "mean")
    query_acc, calls = trainer._episode_query_accuracy, []

    def spy(*args):
        calls.append(args[2].session)
        return query_acc(*args)

    monkeypatch.setattr(trainer, "_episode_query_accuracy", spy)
    off, _ = stream(bundle, cfg, tmp_path / "off")
    assert calls == []
    on, _ = stream(bundle, dataclasses.replace(cfg, telemetry=True),
                   tmp_path / "on")
    assert len(calls) == cfg.episodes_base + bundle.schedule.num_sessions * cfg.episodes_finetune
    for name in ARTIFACTS:
        assert (tmp_path / "off" / name).read_bytes() == \
            (tmp_path / "on" / name).read_bytes(), name
    for r_off, r_on in zip(off, on):
        assert r_off.episode_query_acc is None
        assert isinstance(r_on.episode_query_acc, float)
        written = json.loads((tmp_path / "off" / "reports" /
                              f"session_{r_off.session}.json").read_text())
        assert written["episode_query_acc"] is None


def test_episodes_draw_queries_only_under_telemetry(monkeypatch, tmp_path):
    bundle = tiny_bundle((4,))
    cfg = tiny_config("gcl", "mean")
    sample, episodes = trainer.sample_episode, []
    draw, queries = trainer.draw_queries, []

    def spy_sample(*args, **kwargs):
        episodes.append(sample(*args, **kwargs))
        return episodes[-1]

    def spy_draw(*args):
        queries.append(draw(*args))
        return queries[-1]

    monkeypatch.setattr(trainer, "sample_episode", spy_sample)
    monkeypatch.setattr(trainer, "draw_queries", spy_draw)
    run_stream(bundle, cfg, out_dir=tmp_path)
    off, episodes[:] = list(episodes), []
    assert queries == []
    run_stream(bundle, dataclasses.replace(cfg, telemetry=True),
               out_dir=tmp_path)
    assert len(off) == len(episodes) == len(queries) > 0
    for quiet, queried, query in zip(off, episodes, queries):
        assert quiet.classes == queried.classes
        assert {c for _, c in query} >= set(queried.classes)


def test_no_query_is_drawn_or_checked_without_telemetry(monkeypatch, tmp_path):
    """Without telemetry no episode draws queries or checks their supply;
    with it, each episode draws them once, after its update."""
    bundle = tiny_bundle((4,))
    cfg = tiny_config("gcl", "mean", episodes_finetune=2)
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for module in (trainer, sampler):
        monkeypatch.setattr(module, "check_query_supply",
                            spy("check", module.check_query_supply))
    monkeypatch.setattr(trainer, "draw_queries",
                        spy("draw", trainer.draw_queries))
    monkeypatch.setattr(network, "apply_update",
                        spy("update", network.apply_update))
    run_stream(bundle, cfg, out_dir=tmp_path)
    assert set(calls) == {"update"}
    calls.clear()
    run_stream(bundle, dataclasses.replace(cfg, telemetry=True),
               out_dir=tmp_path)
    episodes = calls.count("update")
    assert episodes == cfg.episodes_base + 2 * cfg.episodes_finetune
    trained = [c for c in calls if c != "check"]
    assert trained == ["update", "draw"] * episodes


# -- n_way checked before training ------------------------------------------------

@pytest.mark.parametrize("changes,message", [
    ({"n_way": 4}, r"n_way=4 exceeds \|base classes\|=3"),
    ({"episode_class_pool": "novel_only"},
     r"n_way=2 exceeds novel few-shot classes at session 1 \(1\)"),
])
def test_n_way_beyond_a_session_is_rejected_before_the_first_episode(
        changes, message, tmp_path):
    records = []
    for telemetry in (False, True):
        with pytest.raises(DatasetError, match=message):
            run_stream(tiny_bundle(), tiny_config(
                "gfscil_plain", "mean", telemetry=telemetry, **changes),
                out_dir=tmp_path / "run", log_fn=records.append)
    assert records == []
    assert not (tmp_path / "run").exists()


def test_n_way_is_not_checked_for_sessions_that_train_no_episode(tmp_path):
    cfg = tiny_config("gfscil_plain", "mean", n_way=4, episodes_base=0,
                      episode_class_pool="novel_only", episodes_finetune=0)
    assert len(run_stream(tiny_bundle(), cfg, out_dir=tmp_path)) == 3


# -- nearest-prototype classification -------------------------------------------

# tails of 1 and 3 rows, just under and just over half a block, and a count
# below one block, with the blocks each count is embedded in
EVAL_BLOCKS = {100: [100], 257: [257], 259: [259], 383: [383], 385: [256, 129],
               449: [256, 193]}


def test_eval_blocks_merge_a_tail_shorter_than_half_a_block():
    assert trainer._EVAL_ROWS == 256
    for n, sizes in EVAL_BLOCKS.items():
        blocks = trainer._eval_blocks(n)
        assert [b.stop - b.start for b in blocks] == sizes
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert trainer._eval_blocks(512) == [slice(0, 256), slice(256, 512)]


@pytest.mark.parametrize("backbone", ["mean", "attention"])
def test_row_blocked_evaluation_reports_what_one_forward_reports(
        monkeypatch, backbone):
    """``evaluate_session`` embeds its held-out nodes a block at a time; for
    every eval count its report equals the report of one forward over all
    of them, and no forward covers more than a block and a short tail."""
    # 3 base classes of 150 nodes, nodes of class c at 150c..150c+149
    bundle = synth_generate(0, 4, 150, 0.05, 0.005, 8, n_base=3, k_shot=3)
    cfg = tiny_config("gfscil_plain", backbone)
    model = network.init_model(8, 16, 8, 2, seed=0, backbone=backbone)
    graph = graph_at(bundle, 0)
    forward = network.gnn_forward
    whole = forward(model.gnn, graph, np.arange(450)).data
    # class means of the embeddings: accuracies strictly between 0 and 1
    prototypes = np.stack([whole[150 * c:150 * (c + 1)].mean(axis=0)
                           for c in range(3)])
    blocks = trainer._eval_blocks
    for n, sizes in EVAL_BLOCKS.items():
        nodes = np.arange(n)
        split = dataclasses.replace(trainer.run_split(bundle, cfg), eval_nodes={
            c: nodes[nodes // 150 == c] for c in range(3)})
        reports, rows = [], []

        def spy(params, graph, nodes):
            out = forward(params, graph, nodes)
            assert not out.requires_grad
            rows.append(out.data)
            return out

        monkeypatch.setattr(network, "gnn_forward", spy)
        for one_forward in (False, True):
            if one_forward:
                monkeypatch.setattr(trainer, "_eval_blocks", lambda n: [slice(0, n)])
            reports.append(trainer.evaluate_session(
                model, bundle, 0, [0, 1, 2], prototypes, split).to_dict())
        monkeypatch.setattr(trainer, "_eval_blocks", blocks)
        monkeypatch.setattr(network, "gnn_forward", forward)
        assert reports[0]["n_queries"] == n
        assert 0.0 < reports[0]["overall"] < 1.0
        assert json.dumps(reports[0], sort_keys=True) == \
            json.dumps(reports[1], sort_keys=True), n
        assert [r.shape[0] for r in rows] == sizes + [n]
        blocked = np.concatenate(rows[:-1])
        assert np.abs(blocked - rows[-1]).max() <= 1e-12 * np.abs(rows[-1]).max()


@pytest.mark.parametrize("poison", ["prototypes", "embeddings"])
def test_evaluation_refuses_non_finite_prototypes_or_embeddings(poison):
    """``classify`` would label a NaN or infinite row by an argmin over NaN
    distances; the prediction path raises instead, naming the session."""
    bundle = tiny_bundle()
    model = network.init_model(8, 16, 8, 2, seed=0)
    split = trainer.run_split(bundle, tiny_config("gfscil_plain", "mean"))
    prototypes = np.zeros((3, 8))
    if poison == "prototypes":
        prototypes[1, 2] = np.nan
    else:
        model.gnn.layers[-1].bias.data[0] = np.inf
    with pytest.raises(network.NonFiniteError,
                       match=f"^session 0: non-finite {poison}"):
        trainer.evaluate_session(model, bundle, 0, [0, 1, 2], prototypes, split)


def test_classify_in_row_blocks_equals_the_one_shot_formula():
    rng = np.random.default_rng(0)
    # small integers make exact ties common; two classes share a prototype
    protos = rng.integers(-2, 3, size=(6, 5)).astype(np.float64)
    protos[4] = protos[1]
    # two blocks of 256 rows and a tail, as the former form blocked them
    n = 2 * 256 + 37
    queries = rng.integers(-2, 3, size=(n, 5)).astype(np.float64)
    queries[::7] = protos[1]
    classes = np.array([1, 3, 4, 8, 9, 12])
    d2 = ((queries[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
    ties = (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1
    assert ties[:256].any() and ties[-37:].any()
    np.testing.assert_array_equal(classify(queries, classes, protos),
                                  classes[d2.argmin(axis=1)])


def former_classify(queries, classes, prototypes):
    """``classify`` as it was: every query's distances to every prototype
    in one rows x C x d array."""
    d2 = ((queries[:, None, :] - prototypes[None, :, :]) ** 2).sum(axis=2)
    return np.asarray(classes)[d2.argmin(axis=1)]


@st.composite
def classify_cases(draw):
    """Queries, ascending classes and prototypes; a prototype repeats an
    earlier one and some queries sit on it, so exact ties are planted."""
    rows, c = draw(st.integers(1, 60)), draw(st.integers(1, 12))
    d = draw(st.sampled_from([1, 3, 8, 9, 17, 64, 129, 300, 512]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):      # small integers: ties beyond the planted ones
        protos = rng.integers(-2, 3, size=(c, d)).astype(np.float64)
        queries = rng.integers(-2, 3, size=(rows, d)).astype(np.float64)
    else:
        scale = 10.0 ** draw(st.integers(-3, 3))
        protos = scale * rng.standard_normal((c, d))
        queries = scale * rng.standard_normal((rows, d))
    if c > 1:
        i, j = np.sort(rng.choice(c, size=2, replace=False))
        protos[j] = protos[i]
        queries[::draw(st.integers(1, 5))] = protos[i]
    classes = np.sort(rng.choice(1000, size=c, replace=False))
    return queries, classes, protos


@settings(max_examples=300, deadline=None, derandomize=True)
@given(classify_cases())
def test_classify_equals_the_former_rows_x_classes_form_bit_for_bit(case):
    queries, classes, protos = case
    np.testing.assert_array_equal(classify(queries, classes, protos),
                                  former_classify(queries, classes, protos))


def test_classify_at_40_classes_peaks_below_four_copies_of_its_queries():
    """OGBN-Arxiv's 40 classes against 383 rows (the largest evaluation
    block) of 512: distances one prototype at a time keep the peak near
    one query copy, where a rows x C x d array took 40 MiB."""
    rng = np.random.default_rng(0)
    queries = rng.standard_normal((383, 512))
    protos = rng.standard_normal((40, 512))
    tracemalloc.start()
    try:
        classify(queries, np.arange(40), protos)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * queries.nbytes


def test_classify_tie_goes_to_the_smallest_class_id():
    protos = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    # (1, 0) is 1 from all three; (1.5, 0.5) is sqrt(0.5) from classes 8 and 9
    queries = np.array([[1.0, 0.0], [1.5, 0.5], [1.0, 0.9]])
    np.testing.assert_array_equal(classify(queries, [3, 8, 9], protos), [3, 8, 9])


def test_classify_one_dimensional_query():
    protos = np.array([[0.0, 0.0], [4.0, 4.0]])
    np.testing.assert_array_equal(classify(np.array([3.0, 3.5]), [2, 7], protos),
                                  [7])


def test_classify_rejects_an_empty_or_unsorted_prototype_set():
    with pytest.raises(ValueError, match="empty"):
        classify(np.zeros((2, 3)), [], np.zeros((0, 3)))
    with pytest.raises(ValueError, match="ascending"):
        classify(np.zeros((2, 3)), [4, 1], np.zeros((2, 3)))
