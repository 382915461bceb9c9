"""Episodic training across streaming sessions with nearest-prototype eval.

Base training optimizes clustering/segregation (plus semantic alignment when
class semantics are available) over sampled tasks. Each later session loads
the frozen previous-session model as a teacher, adds distillation terms, and
finetunes on tasks covering all currently-seen classes. Classification is
nearest prototype in embedding space with ties going to the smallest class
id.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn as network
from .config import RunConfig, is_semantic
from .graphstore import DatasetBundle, DatasetError, graph_at
from .losses import (LossParts, LossWeights, loss_cluster, loss_finetune_total,
                     loss_kd_align, loss_kd_emb, loss_seg, loss_sem,
                     loss_train_total)
from .prototypes import Prototype, build_prototype_tensors, encode_csds
from .sampler import (ClassSplit, Episode, WalkConfig, build_class_split,
                      sample_episode, session_supports)

__all__ = ["TeacherSnapshot", "SessionReport", "classify", "run_split",
           "base_train", "finetune_session", "evaluate_session", "run_stream",
           "write_reports", "summary_tsv"]


@dataclass(frozen=True)
class TeacherSnapshot:
    """Frozen previous-session model plus the class set it covers."""
    params: dict[str, np.ndarray]
    classes: tuple[int, ...]
    distill_nodes: np.ndarray
    captured_at: int

    @classmethod
    def capture(cls, model: network.ModelState, classes, split: ClassSplit,
                t: int) -> "TeacherSnapshot":
        classes = tuple(sorted(classes))
        nodes = [split.anchors[c] for c in classes if split.anchors[c].size]
        distill = (np.sort(np.unique(np.concatenate(nodes)))
                   if nodes else np.empty(0, dtype=np.int64))
        return cls(params=network.clone_params(model), classes=classes,
                   distill_nodes=distill, captured_at=t)

    def materialize(self, like: network.ModelState) -> network.ModelState:
        """Rebuild a frozen model with this snapshot's parameter values."""
        import copy
        frozen = copy.deepcopy(like)
        for name, tensor in network.named_parameters(frozen).items():
            tensor.data = self.params[name].copy()
            tensor.requires_grad = False
        return frozen


@dataclass
class SessionReport:
    session: int
    n_classes: int
    overall: float
    seen_acc: float
    unseen_acc: float | None
    per_class: dict[int, float]
    n_queries: int
    episode_losses: list[float] = field(default_factory=list)
    episode_query_acc: float | None = None
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "session": self.session,
            "n_classes": self.n_classes,
            "overall": self.overall,
            "seen_acc": self.seen_acc,
            "unseen_acc": self.unseen_acc,
            "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
            "n_queries": self.n_queries,
            "episode_losses": self.episode_losses,
            "episode_query_acc": self.episode_query_acc,
            "wall_time": self.wall_time,
        }


def classify(query_embeddings, prototypes: dict[int, "Prototype | np.ndarray"]) -> np.ndarray:
    """Nearest-prototype labels; ties break toward the smallest class id."""
    if not prototypes:
        raise ValueError("empty prototype set")
    classes = sorted(prototypes)
    mat = np.stack([_vec(prototypes[c]) for c in classes])
    q = np.asarray(query_embeddings, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    d2 = ((q[:, None, :] - mat[None, :, :]) ** 2).sum(axis=2)
    picks = d2.argmin(axis=1)          # argmin returns the first (smallest id)
    lookup = np.asarray(classes, dtype=np.int64)
    return lookup[picks]


def _vec(p) -> np.ndarray:
    return p.vector if isinstance(p, Prototype) else np.asarray(p, dtype=np.float64)


# -- internals ----------------------------------------------------------------


def _weights(cfg: RunConfig) -> LossWeights:
    return LossWeights(alpha1=cfg.alpha1, alpha2=cfg.alpha2, alpha3=cfg.alpha3,
                       alpha4=cfg.alpha4, lambda1=cfg.lambda1,
                       lambda2=cfg.lambda2, gamma=cfg.gamma,
                       epsilon_log=cfg.epsilon_log)


def _episode_rng(cfg: RunConfig, t: int, episode: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, t, episode]))


class _TeacherCache:
    """Teacher outputs are constant within a session; compute them once."""

    def __init__(self, teacher: TeacherSnapshot, model: network.ModelState,
                 bundle: DatasetBundle, t: int, mode: str):
        frozen = teacher.materialize(model)
        graph = graph_at(bundle, t)
        self.nodes = teacher.distill_nodes
        self.classes = teacher.classes
        if self.nodes.size:
            self.embeddings = network.gnn_forward(frozen.gnn, graph,
                                                  self.nodes).data.copy()
        else:
            self.embeddings = np.zeros((0, model.gnn.out_dim))
        self.encodings = np.zeros((0, model.gnn.out_dim))
        if is_semantic(mode) and frozen.mlp is not None and self.classes:
            enc = encode_csds(frozen, {c: bundle.csds.vectors[c]
                                       for c in self.classes})
            self.encodings = np.stack([enc[c].data for c in self.classes])


def _episode_step(model: network.ModelState, bundle: DatasetBundle,
                  episode: Episode, cfg: RunConfig, weights: LossWeights,
                  teacher_cache: "_TeacherCache | None") -> tuple[LossParts, object, dict]:
    """Forward all loss parts for one episode; returns (parts, total, protos)."""
    # the teacher's distill nodes are anchors of classes seen at t-1, so the
    # prototypes' forward already holds their rows
    distill = (teacher_cache.nodes if teacher_cache is not None
               and teacher_cache.nodes.size else None)
    build = build_prototype_tensors(model, bundle, episode, cfg.mode,
                                    cfg.unseen_encoder, distill_nodes=distill)

    parts = LossParts()
    # clustering acts on the task's support classes; the remaining seen
    # classes still contribute anchor-built prototypes to segregation and
    # alignment, so in "novel_only" mode old classes are shielded only by
    # distillation
    cluster_emb = {c: build.embeddings[c] for c in episode.support}
    parts.cluster = loss_cluster(cluster_emb, build.seen, weights.gamma,
                                 cfg.cluster_variant)
    parts.seg = loss_seg(build.final, weights.epsilon_log)
    if is_semantic(cfg.mode):
        parts.sem = loss_sem(build.encoded, build.seen)

    if teacher_cache is not None:
        parts.kd_emb = loss_kd_emb(teacher_cache.embeddings, build.distill)
        if is_semantic(cfg.mode) and teacher_cache.classes:
            enc = encode_csds(model, {c: bundle.csds.vectors[c]
                                      for c in teacher_cache.classes})
            student_enc = ad.vstack([enc[c].reshape(1, -1)
                                     for c in teacher_cache.classes])
            parts.kd_align = loss_kd_align(teacher_cache.encodings, student_enc,
                                           weights.epsilon_log)
        total = loss_finetune_total(parts, weights)
    else:
        total = loss_train_total(parts, weights)
    return parts, total, build


def _episode_query_accuracy(model: network.ModelState, bundle: DatasetBundle,
                            episode: Episode, build) -> float | None:
    if not episode.query:
        return None
    graph = graph_at(bundle, episode.session)
    nodes = np.asarray([n for n, _ in episode.query], dtype=np.int64)
    truth = np.asarray([c for _, c in episode.query], dtype=np.int64)
    emb = network.gnn_forward(model.gnn, graph, nodes).data
    protos = {c: t.data for c, t in build.final.items()}
    pred = classify(emb, protos)
    return float((pred == truth).mean())


def _train_session(model, bundle, cfg, split, t, episodes, lr, teacher,
                   log_fn=None, step_offset=0) -> tuple[list[float], list[float]]:
    weights = _weights(cfg)
    extended = session_supports(bundle, t, split, WalkConfig(
        cfg.walk_length, cfg.walks_per_seed), cfg.seed)
    params = network.named_parameters(model)
    cache = (_TeacherCache(teacher, model, bundle, t, cfg.mode)
             if teacher is not None else None)
    totals: list[float] = []
    query_accs: list[float] = []
    for e in range(episodes):
        rng = _episode_rng(cfg, t, e)
        episode = sample_episode(bundle, t, cfg.n_way, rng,
                                 cfg.query_per_class, split=split,
                                 extended=extended,
                                 episode_class_pool=cfg.episode_class_pool)
        parts, total, build = _episode_step(model, bundle, episode, cfg,
                                            weights, cache)
        try:
            grads = network.compute_gradients(params, total)
            network.apply_update(params, grads, lr, cfg.weight_decay)
        except network.NonFiniteError as exc:
            raise network.NonFiniteError(
                f"session {t}, episode {e}: {exc}; loss parts "
                f"{parts.values()}") from exc
        totals.append(total.item())
        acc = _episode_query_accuracy(model, bundle, episode, build)
        if acc is not None:
            query_accs.append(acc)
        if log_fn is not None:
            vals = parts.values()
            log_fn({"step": step_offset + e, "session": t,
                    "l_cls": vals["cluster"], "l_seg": vals["seg"],
                    "l_sem": vals["sem"], "l_emb": vals["kd_emb"],
                    "l_align": vals["kd_align"], "total": total.item()})
    return totals, query_accs


def _run_session(model, bundle, cfg, split, t, episodes, lr, teacher,
                 log_fn=None, step_offset=0) -> SessionReport:
    """Train session t for ``episodes`` episodes, then evaluate it."""
    start = time.perf_counter()
    # training returns before evaluation so the last episode's tape, gradients
    # and teacher cache are freed first, which keeps peak memory down
    totals, q_accs = _train_session(model, bundle, cfg, split, t, episodes, lr,
                                    teacher, log_fn, step_offset)
    protos = _eval_prototypes(model, bundle, cfg, split, t)
    report = evaluate_session(model, bundle, t, protos, split)
    report.episode_losses = totals
    report.episode_query_acc = float(np.mean(q_accs)) if q_accs else None
    report.wall_time = time.perf_counter() - start
    return report


def _eval_prototypes(model, bundle, cfg, split, t) -> dict[int, Prototype]:
    """Prototypes for evaluation, from the session's extended supports: the
    sets training optimized toward."""
    extended = session_supports(bundle, t, split, WalkConfig(
        cfg.walk_length, cfg.walks_per_seed), cfg.seed)
    episode = Episode(session=t, support={}, extended_support=extended, query=())
    build = build_prototype_tensors(model, bundle, episode, cfg.mode,
                                    cfg.unseen_encoder)
    return build.as_prototypes()


def evaluate_session(model: network.ModelState, bundle: DatasetBundle, t: int,
                     prototypes: dict[int, Prototype],
                     split: ClassSplit) -> SessionReport:
    """Accuracy on the fixed held-out split over all classes through t."""
    sched = bundle.schedule
    graph = graph_at(bundle, t)
    vis = graph.visible_mask
    seen = set(sched.seen_at(t))
    classes = sched.classes_at(t)
    nodes, truth = [], []
    for cls in classes:
        ev = split.eval_nodes[cls]
        ev = ev[vis[ev]]
        nodes.extend(int(n) for n in ev)
        truth.extend([cls] * ev.size)
    if not nodes:
        raise DatasetError(f"empty evaluation split at session {t}")
    emb = network.gnn_forward(model.gnn, graph,
                              np.asarray(nodes, dtype=np.int64)).data
    pred = classify(emb, prototypes)
    truth_arr = np.asarray(truth, dtype=np.int64)
    correct = pred == truth_arr

    per_class: dict[int, float] = {}
    for cls in classes:
        mask = truth_arr == cls
        per_class[cls] = float(correct[mask].mean()) if mask.any() else float("nan")
    seen_mask = np.isin(truth_arr, sorted(seen))
    unseen_mask = ~seen_mask
    return SessionReport(
        session=t,
        n_classes=len(classes),
        overall=float(correct.mean()),
        seen_acc=float(correct[seen_mask].mean()) if seen_mask.any() else float("nan"),
        unseen_acc=(float(correct[unseen_mask].mean()) if unseen_mask.any() else None),
        per_class=per_class,
        n_queries=len(nodes),
    )


# -- public orchestration ------------------------------------------------------


def run_split(bundle: DatasetBundle, cfg: RunConfig) -> ClassSplit:
    """The anchors and held-out eval nodes of a run with ``cfg``."""
    return build_class_split(bundle, cfg.k_shot, eval_fraction=cfg.eval_fraction,
                             split_seed=cfg.split_seed, anchor_seed=cfg.seed)


def base_train(bundle: DatasetBundle, model: network.ModelState,
               cfg: RunConfig, *, split: ClassSplit,
               log_fn=None) -> SessionReport:
    """Episodic training on the base session (t=0) plus its evaluation."""
    return _run_session(model, bundle, cfg, split, 0, cfg.episodes_base,
                        cfg.meta_lr, teacher=None, log_fn=log_fn)


def finetune_session(bundle: DatasetBundle, model: network.ModelState,
                     teacher: TeacherSnapshot, t: int, cfg: RunConfig, *,
                     split: ClassSplit,
                     log_fn=None) -> tuple[SessionReport, TeacherSnapshot]:
    """One streaming session: distill from the teacher, adapt, re-freeze."""
    if t < 1:
        raise ValueError("finetune sessions start at t=1")
    if teacher.captured_at != t - 1:
        raise ValueError(f"teacher was captured at session {teacher.captured_at}, "
                         f"expected {t - 1}")
    step_offset = cfg.episodes_base + (t - 1) * cfg.episodes_finetune
    report = _run_session(model, bundle, cfg, split, t, cfg.episodes_finetune,
                          cfg.ft_lr, teacher=teacher, log_fn=log_fn,
                          step_offset=step_offset)
    next_teacher = TeacherSnapshot.capture(model, bundle.schedule.seen_at(t),
                                           split, t)
    return report, next_teacher


def run_stream(bundle: DatasetBundle, cfg: RunConfig, *, out_dir=None,
               log_fn=None) -> list[SessionReport]:
    """Base training followed by every scheduled session; writes artifacts."""
    cfg.validate()
    _check_mode(bundle, cfg)
    split = run_split(bundle, cfg)
    csd_dim = bundle.csds.dim if is_semantic(cfg.mode) else None
    model = network.init_model(bundle.graph.features.shape[1], cfg.hidden_dim,
                               cfg.out_dim, cfg.num_layers, cfg.seed,
                               csd_dim=csd_dim,
                               negative_slope=cfg.negative_slope,
                               backbone=cfg.backbone)

    sink = None
    emit = log_fn
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        sink = open(out / "loss_log.jsonl", "w", encoding="utf-8")

        def emit(rec, _user=log_fn):
            sink.write(json.dumps(rec, sort_keys=True) + "\n")
            if _user is not None:
                _user(rec)

    try:
        reports = [base_train(bundle, model, cfg, split=split, log_fn=emit)]
        teacher = TeacherSnapshot.capture(model, bundle.schedule.seen_at(0),
                                          split, 0)
        for t in range(1, bundle.schedule.num_sessions + 1):
            report, teacher = finetune_session(bundle, model, teacher, t, cfg,
                                               split=split, log_fn=emit)
            reports.append(report)
    finally:
        if sink is not None:
            sink.close()

    if out_dir is not None:
        write_reports(reports, out_dir)
        network.save_model(model, Path(out_dir) / "model.ckpt")
        cfg.to_json(Path(out_dir) / "config.json")
    return reports


def _check_mode(bundle: DatasetBundle, cfg: RunConfig) -> None:
    sched_mode = bundle.schedule.mode
    if sched_mode == "gcl" and cfg.mode != "gcl":
        raise DatasetError("schedule contains zero-shot classes; run mode must be gcl")
    if cfg.mode == "gcl" and sched_mode != "gcl":
        raise DatasetError("gcl run mode requires a gcl schedule")
    if is_semantic(cfg.mode):
        missing = [c for c in bundle.schedule.class_universe
                   if not bundle.csds.has(c)]
        if missing:
            raise DatasetError(f"mode {cfg.mode} requires CSD vectors; "
                               f"missing for classes {sorted(missing)}")


def write_reports(reports: list[SessionReport], out_dir) -> None:
    out = Path(out_dir)
    rep_dir = out / "reports"
    rep_dir.mkdir(parents=True, exist_ok=True)
    for r in reports:
        with open(rep_dir / f"session_{r.session}.json", "w", encoding="utf-8") as fh:
            json.dump(r.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    (out / "summary.tsv").write_text(summary_tsv(reports), encoding="utf-8")


def summary_tsv(reports: list[SessionReport]) -> str:
    """Session columns, accuracy rows; deterministic text for a fixed run."""
    cols = ["base" if r.session == 0 else f"s{r.session}" for r in reports]
    lines = ["metric\t" + "\t".join(cols)]

    def row(name, vals):
        cells = []
        for v in vals:
            cells.append("" if v is None or (isinstance(v, float) and np.isnan(v))
                         else f"{v:.6f}")
        lines.append(name + "\t" + "\t".join(cells))

    row("overall", [r.overall for r in reports])
    row("seen", [r.seen_acc for r in reports])
    row("unseen", [r.unseen_acc for r in reports])
    lines.append("n_classes\t" + "\t".join(str(r.n_classes) for r in reports))
    lines.append("n_queries\t" + "\t".join(str(r.n_queries) for r in reports))
    return "\n".join(lines) + "\n"
