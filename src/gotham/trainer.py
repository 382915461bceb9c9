"""Episodic training across streaming sessions with nearest-prototype eval.

``run_stream`` runs one session loop over t = 0..S and always writes the
run to its ``out_dir``. Base training (t = 0) optimizes clustering/
segregation (plus semantic alignment when class semantics are available)
over sampled tasks. Each later session distils from a frozen teacher, the
model that finished session t-1, then finetunes on tasks covering all
currently-seen classes.

``_run_session`` reads session t top to bottom. ``session_plan`` draws its
random walks once (``session_supports``) and plans them once: the
``prototypes.SupportPlan`` holds the union of the extended supports and of
the distillation nodes (the anchors of the classes seen at t-1), and
everything of its forward that no parameter touches. The live model still
holds the teacher's parameters when session t starts, so the teacher's
outputs are its forward on that plan, read before the first update. Every
episode, which is only a class draw, and the session's evaluation
prototypes build from the same plan; it is dropped before evaluation's
forward. An episode runs in ``_train_episode``, which returns only floats,
so its autodiff tape, prototype build and gradients die before the next
forward: at most one tape is alive at a time.

Only training builds a tape. The teacher's outputs, the evaluation
prototypes (which the run keeps as ``prototypes/session_<t>.tsv``) and
every prediction run under ``autodiff.no_grad``. Evaluation and
telemetry's query accuracy predict through one path, ``_predict``: it
embeds ``_EVAL_ROWS`` nodes a forward and labels each by its nearest
prototype (``classify``), ties going to the smallest class id, and
refuses non-finite embeddings or prototypes. Only
``telemetry`` draws queries (``sampler.draw_queries``), after the
episode's update, on the rng that drew its classes.

Before any output, one pass over the sessions that train rejects a run that
``sample_episode`` or ``draw_queries`` would reject mid-stream: a session's
``sampler.task_pool`` must hold its ``n_way`` draw and, under ``telemetry``,
each of its classes k + ``query_per_class`` trainable nodes visible.
"""
from __future__ import annotations

import ctypes
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn as network
from .config import RunConfig, is_semantic
from .graphstore import DatasetBundle, DatasetError, graph_at, unique_ids
from .losses import (LossParts, loss_cluster, loss_kd_align, loss_kd_emb,
                     loss_seg, loss_sem, loss_total)
from .prototypes import (PrototypeBuild, SupportPlan, build_prototype_tensors,
                         encode_csds, plan_supports)
from .sampler import (ClassSplit, Episode, build_class_split,
                      check_query_supply, draw_queries, sample_episode,
                      session_supports, task_pool)

__all__ = ["SessionReport", "classify", "run_split", "session_plan",
           "evaluate_session", "run_stream", "write_reports", "summary_tsv",
           "prototype_files"]


@dataclass
class SessionReport:
    """One session's evaluation on the held-out split, plus its training."""

    session: int                 # t; 0 is base training
    n_classes: int               # classes evaluated: every class through t
    overall: float               # accuracy over all held-out nodes of those classes
    seen_acc: float              # accuracy on classes with anchors; nan (null) if none
    unseen_acc: float | None     # accuracy on zero-shot classes; None if none
    per_class: dict[int, float]  # accuracy per class id; nan (null) for an empty split
    n_queries: int               # held-out nodes classified
    # mean post-update accuracy on the episodes' own query draws, each
    # classified against that episode's prototypes; None unless the run's
    # ``telemetry`` is on, or when no episode drew queries
    episode_query_acc: float | None = None
    # seconds spent on the session: training plus evaluation
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        """JSON values: a nan accuracy (an empty split) reads None."""
        return {**{k: _none_if_nan(v) for k, v in asdict(self).items()},
                "per_class": {str(k): _none_if_nan(v)
                              for k, v in sorted(self.per_class.items())}}


def _none_if_nan(v):
    return None if isinstance(v, float) and np.isnan(v) else v


# held-out nodes per evaluation forward (``_eval_blocks``)
_EVAL_ROWS = 256


def classify(query_embeddings, classes, prototypes) -> np.ndarray:
    """Nearest-prototype labels; row i of the (C x d) ``prototypes`` belongs
    to ``classes[i]``, strictly ascending, so ties go to the smallest id.
    Distances are formed one prototype at a time, so no temporary is larger
    than the queries."""
    classes = np.asarray(classes, dtype=np.int64)
    if classes.size == 0:
        raise ValueError("empty prototype set")
    if (np.diff(classes) <= 0).any():
        raise ValueError("prototype classes must be strictly ascending")
    q = np.atleast_2d(np.asarray(query_embeddings, dtype=np.float64))
    d2 = np.stack([((q - p) ** 2).sum(axis=1)
                   for p in np.asarray(prototypes, dtype=np.float64)])
    return classes[d2.argmin(axis=0)]   # first: smallest id


# -- internals ----------------------------------------------------------------


def _episode_rng(cfg: RunConfig, t: int, episode: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, t, episode]))


class _TeacherCache:
    """The teacher's outputs for session t >= 1, read once before its first
    update.

    The teacher is the model that finished session t-1, which is ``model``
    itself when session t starts, so nothing is copied. It covers the
    classes seen at t-1 and the distill rows of session t's ``plan``.
    """

    def __init__(self, model: network.ModelState, bundle: DatasetBundle,
                 plan: SupportPlan, t: int):
        self.classes = bundle.schedule.seen_at(t - 1)
        with ad.no_grad():
            self.embeddings = network.gnn_forward(
                model.gnn, graph_at(bundle, t), plan.forward).data[plan.distill]
            self.encodings = (encode_csds(model, self.classes,
                                          bundle.csds.vectors).data
                              if model.mlp is not None else None)


def _episode_step(model: network.ModelState, bundle: DatasetBundle,
                  episode: Episode, cfg: RunConfig,
                  teacher_cache: "_TeacherCache | None",
                  plan: SupportPlan) -> tuple[LossParts, object, dict]:
    """Forward all loss parts for one episode; returns (parts, total, protos).
    ``plan`` is the session's, whose distill rows the teacher read."""
    build = build_prototype_tensors(model, bundle, episode.session, plan)

    parts = LossParts()
    # clustering reads the task's rows of the plan's membership and of
    # build.seen (the plan's classes, the teacher's among them); the other
    # seen classes still give prototypes to segregation and alignment, so in
    # "novel_only" mode old classes are shielded only by distillation.
    task = np.searchsorted(plan.classes, episode.classes)
    parts.cluster = loss_cluster(build.embeddings, plan.membership[task],
                                 ad.gather_rows(build.seen, task), cfg.gamma,
                                 cfg.cluster_variant)
    parts.seg = loss_seg(build.final, cfg.epsilon_log)
    if build.encoded is not None:
        parts.sem = loss_sem(build.encoded, build.seen)

    if teacher_cache is not None:
        parts.kd_emb = loss_kd_emb(teacher_cache.embeddings, build.distill)
        if teacher_cache.encodings is not None:
            student_enc = ad.gather_rows(build.encoded, np.searchsorted(
                plan.classes, teacher_cache.classes))
            parts.kd_align = loss_kd_align(teacher_cache.encodings, student_enc,
                                           cfg.epsilon_log)
    return parts, loss_total(parts, cfg), build


def _episode_query_accuracy(model: network.ModelState, bundle: DatasetBundle,
                            episode: Episode, build, split: ClassSplit,
                            query_per_class: int,
                            rng: np.random.Generator) -> float | None:
    """Accuracy of the updated model on queries ``rng`` draws for
    ``episode``, against its prototypes ``build``; None without queries."""
    query = draw_queries(bundle, split, episode, query_per_class, rng)
    if not query:
        return None
    nodes, truth = (np.array(col, dtype=np.int64) for col in zip(*query))
    pred = _predict(model, graph_at(bundle, episode.session), episode.session,
                    nodes, build.classes, build.final.data)
    return float((pred == truth).mean())


def _train_episode(model, bundle, cfg, split, t, e, cache, plan, params,
                   lr) -> tuple[float, dict[str, float | None], float | None]:
    """Episode e of session t: its draw, forward, update and telemetry. Only
    floats leave it: the loss total, the loss parts and the query accuracy
    (None unless ``telemetry`` and queries were drawn), so its tape,
    prototype build and gradients are freed when it returns, before the next
    episode's forward."""
    rng = _episode_rng(cfg, t, e)
    episode = sample_episode(bundle, t, cfg.n_way, rng,
                             episode_class_pool=cfg.episode_class_pool)
    parts, total, build = _episode_step(model, bundle, episode, cfg, cache, plan)
    values = parts.values()
    try:
        grads = network.compute_gradients(params, total)
        network.apply_update(params, grads, lr, cfg.weight_decay)
    except network.NonFiniteError as exc:
        computed = {k: v for k, v in values.items() if v is not None}
        raise network.NonFiniteError(
            f"session {t}, episode {e}: {exc}; loss parts "
            f"{computed}") from exc
    acc = (_episode_query_accuracy(model, bundle, episode, build, split,
                                   cfg.query_per_class, rng)
           if cfg.telemetry else None)
    return total.item(), values, acc


def session_plan(model: network.ModelState, bundle: DatasetBundle,
                 cfg: RunConfig, split: ClassSplit, t: int) -> SupportPlan:
    """Session t's one plan: its walks, drawn once, and from t = 1 its
    distill nodes, the anchors of the classes seen at t-1, which its supports
    already hold. Its teacher, every episode and its evaluation prototypes
    read it."""
    extended = session_supports(bundle, t, split, cfg.walk_length,
                                cfg.walks_per_seed, cfg.seed)
    distill = None if t == 0 else unique_ids(np.concatenate(
        [split.anchors[c] for c in bundle.schedule.seen_at(t - 1)]))
    return plan_supports(model.gnn, graph_at(bundle, t), extended, distill)


def _run_session(model, bundle, cfg, split, t, log_fn):
    """Session t: its plan, teacher, episodes and evaluation on the same walk
    draw; ``log_fn`` takes each episode's loss record. Returns the report and
    the (classes, kinds, prototypes) evaluation classified with."""
    start = time.perf_counter()
    plan = session_plan(model, bundle, cfg, split, t)
    # the teacher is read before the first update
    cache = _TeacherCache(model, bundle, plan, t) if t else None
    episodes, lr = ((cfg.episodes_base, cfg.meta_lr) if t == 0
                    else (cfg.episodes_finetune, cfg.ft_lr))
    step_offset = 0 if t == 0 else cfg.episodes_base + (t - 1) * cfg.episodes_finetune
    params = network.named_parameters(model)
    q_accs = []
    # every episode's tape, prototype build and gradients die before the
    # next episode's forward, the last one's before evaluation's, so no two
    # tapes are ever alive at once
    for e in range(episodes):
        total, vals, acc = _train_episode(model, bundle, cfg, split, t, e,
                                          cache, plan, params, lr)
        if acc is not None:
            q_accs.append(acc)
        log_fn({"step": step_offset + e, "session": t,
                "l_cls": vals["cluster"], "l_seg": vals["seg"],
                "l_sem": vals["sem"], "l_emb": vals["kd_emb"],
                "l_align": vals["kd_align"], "total": total})
    del cache
    build = _eval_prototypes(model, bundle, t, plan)
    classes, kinds, prototypes = build.classes, build.kinds, build.final.data
    # frees the build and the session's plan before evaluation's forward
    del build, plan
    report = evaluate_session(model, bundle, t, classes, prototypes, split)
    report.episode_query_acc = float(np.mean(q_accs)) if q_accs else None
    report.wall_time = time.perf_counter() - start
    return report, (classes, kinds, prototypes)


def _eval_prototypes(model, bundle, t, plan: SupportPlan) -> PrototypeBuild:
    """Prototypes for evaluation from ``plan``, a plan of session t's
    extended supports: the sets training optimized toward. Its distill rows
    are not read. No tape is built."""
    with ad.no_grad():
        return build_prototype_tensors(model, bundle, t, plan)


def _eval_blocks(n: int) -> list[slice]:
    """Blocks of ``_EVAL_ROWS`` over n rows; a tail shorter than half a
    block joins the previous block, since a forward of a few rows may round
    its last bits apart from the same rows in a larger one."""
    starts = list(range(0, n, _EVAL_ROWS))
    if len(starts) > 1 and n - starts[-1] < _EVAL_ROWS // 2:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _predict(model, graph, t: int, nodes: np.ndarray, classes, prototypes) -> np.ndarray:
    """Nearest-prototype labels of ``nodes`` on session t's ``graph``: embedded
    without a tape and classified a block (``_eval_blocks``) at a time; a
    non-finite prototype or embedding raises, naming the session."""
    if not np.isfinite(prototypes).all():
        raise network.NonFiniteError(f"session {t}: non-finite prototypes")
    pred = np.empty(nodes.size, dtype=np.int64)
    with ad.no_grad():
        for rows in _eval_blocks(nodes.size):
            emb = network.gnn_forward(model.gnn, graph, nodes[rows]).data
            if not np.isfinite(emb).all():
                raise network.NonFiniteError(f"session {t}: non-finite embeddings")
            pred[rows] = classify(emb, classes, prototypes)
    return pred


def evaluate_session(model: network.ModelState, bundle: DatasetBundle, t: int,
                     classes, prototypes, split: ClassSplit) -> SessionReport:
    """Accuracy on the fixed held-out split over all classes through t, by
    nearest prototype (``_predict``): row i of the (C x d) ``prototypes``
    belongs to ``classes[i]``, ascending, as in ``classify``."""
    sched = bundle.schedule
    graph = graph_at(bundle, t)
    session_classes = sched.classes_at(t)
    held_out = [split.eval_nodes[c] for c in session_classes]
    held_out = [ev[graph.visible_mask[ev]] for ev in held_out]
    nodes = np.concatenate(held_out)
    if not nodes.size:
        raise DatasetError(f"empty evaluation split at session {t}")
    truth = np.repeat(np.asarray(session_classes, dtype=np.int64),
                      [ev.size for ev in held_out])
    correct = _predict(model, graph, t, nodes, classes, prototypes) == truth

    def accuracy(mask):
        return float(correct[mask].mean()) if mask.any() else float("nan")

    seen = np.isin(truth, sched.seen_at(t))
    return SessionReport(
        session=t, n_classes=len(session_classes),
        overall=float(correct.mean()), seen_acc=accuracy(seen),
        unseen_acc=accuracy(~seen) if not seen.all() else None,
        per_class={cls: accuracy(truth == cls) for cls in session_classes},
        n_queries=nodes.size)


# -- public orchestration ------------------------------------------------------


def run_split(bundle: DatasetBundle, cfg: RunConfig) -> ClassSplit:
    """The anchors and held-out eval nodes of a run with ``cfg``."""
    return build_class_split(bundle, cfg.k_shot, eval_fraction=cfg.eval_fraction,
                             split_seed=cfg.split_seed, anchor_seed=cfg.seed)


# the file a run that raised leaves in its run directory
FAILED = "FAILED"


def _steady_heap() -> None:
    """Fix glibc's malloc thresholds for the whole process (no-op elsewhere):
    the adaptive defaults hand the heap's free top back to the kernel after
    some episodes and not others, and the next episode faults it back in."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
        libc.mallopt(-1, 128 << 20)   # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


def run_stream(bundle: DatasetBundle, cfg: RunConfig, *, out_dir,
               log_fn=None) -> list[SessionReport]:
    """Base training followed by every scheduled session, written to
    ``out_dir``. Once the run is valid, the artifacts an earlier run left
    there go; this run's follow. Each loss record goes to
    ``loss_log.jsonl``, then to ``log_fn`` if one is given. A run that
    raises after that leaves ``out_dir/FAILED``, holding the exception's
    type and message, beside its partial ``loss_log.jsonl``.

    The sessions run under ``np.errstate(over="ignore", invalid="ignore")``:
    an overflow or NaN reaches ``compute_gradients``, ``apply_update`` or
    ``_predict``, which raise ``NonFiniteError`` on it, so numpy's warning
    would only repeat that error ahead of it."""
    cfg.validate()
    _check_mode(bundle, cfg)
    _steady_heap()
    split = run_split(bundle, cfg)
    _check_tasks(bundle, cfg, split)
    csd_dim = bundle.csds.dim if is_semantic(cfg.mode) else None
    model = network.init_model(bundle.graph.features.shape[1], cfg.hidden_dim,
                               cfg.out_dim, cfg.num_layers, cfg.seed,
                               csd_dim=csd_dim,
                               negative_slope=cfg.negative_slope,
                               backbone=cfg.backbone)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # no file of an earlier run outlives a run that fails
    for stale in [*map(out.joinpath, ("config.json", "model.ckpt", "summary.tsv",
                                      FAILED)),
                  *out.glob("reports/session_*.json"),
                  *out.glob("prototypes/session_*.tsv")]:
        stale.unlink(missing_ok=True)
    try:
        with (open(out / "loss_log.jsonl", "w", encoding="utf-8") as sink,
              np.errstate(over="ignore", invalid="ignore")):
            def emit(rec):
                sink.write(json.dumps(rec, sort_keys=True) + "\n")
                if log_fn is not None:
                    log_fn(rec)

            reports, tables = zip(*[
                _run_session(model, bundle, cfg, split, t, emit)
                for t in range(bundle.schedule.num_sessions + 1)])
        write_reports(reports, tables, out)
        network.save_model(model, out / "model.ckpt")
        cfg.to_json(out / "config.json")
    except BaseException as exc:
        (out / FAILED).write_text(f"{type(exc).__name__}: {exc}\n",
                                  encoding="utf-8")
        raise
    return list(reports)


def _check_mode(bundle: DatasetBundle, cfg: RunConfig) -> None:
    """The one relation of run mode to dataset: zero-shot classes need a
    semantic mode (``is_semantic``), and a semantic mode needs every class's
    CSD. ``gfscil_plain`` has no semantic encoder to embed those CSDs."""
    sched = bundle.schedule
    if sched.unseen_at(sched.num_sessions) and not is_semantic(cfg.mode):
        raise DatasetError(f"schedule contains zero-shot classes; mode "
                           f"{cfg.mode} cannot embed their CSDs")
    if is_semantic(cfg.mode):
        missing = [c for c in sched.classes_at(sched.num_sessions)
                   if c not in bundle.csds.vectors]
        if missing:
            raise DatasetError(f"mode {cfg.mode} requires CSD vectors; "
                               f"missing for classes {missing}")


def _check_tasks(bundle: DatasetBundle, cfg: RunConfig,
                 split: ClassSplit) -> None:
    """Reject before any output a run whose episodes would be rejected at
    some session that trains: an ``n_way`` larger than the session's task
    pool (``sample_episode``), or under ``telemetry`` a pool class short of
    k + ``query_per_class`` trainable nodes visible (``draw_queries``)."""
    for t in range(bundle.schedule.num_sessions + 1):
        if not (cfg.episodes_base if t == 0 else cfg.episodes_finetune):
            continue
        pool, _ = task_pool(bundle.schedule, t, cfg.n_way,
                            cfg.episode_class_pool)
        if cfg.telemetry:
            for cls in pool:
                check_query_supply(bundle, split, cls, t,
                                   cfg.query_per_class)


def write_reports(reports: list[SessionReport], tables, out_dir) -> None:
    """Each session t's ``reports/session_<t>.json`` and, from its (classes,
    kinds, prototypes), the tab-separated ``prototypes/session_<t>.tsv``,
    whose ``repr`` entries read back exact; then ``summary.tsv``."""
    out = Path(out_dir)
    for name in ("reports", "prototypes"):
        (out / name).mkdir(exist_ok=True)
    for r, (classes, kinds, prototypes) in zip(reports, tables):
        (out / "reports" / f"session_{r.session}.json").write_text(
            json.dumps(r.to_dict(), indent=1, sort_keys=True, allow_nan=False) + "\n",
            encoding="utf-8")
        rows = "".join(f"{c}\t{k}\t{' '.join(map(repr, v))}\n"
                       for c, k, v in zip(classes, kinds, prototypes.tolist()))
        (out / "prototypes" / f"session_{r.session}.tsv").write_text(
            "class_id\tkind\tvector\n" + rows, encoding="utf-8")
    (out / "summary.tsv").write_text(summary_tsv(reports), encoding="utf-8")


def prototype_files(run_dir) -> dict[int, Path]:
    """Session t -> the ``prototypes/session_<t>.tsv`` in ``run_dir``; a run
    that failed raises a ValueError quoting its ``FAILED``."""
    failed = Path(run_dir) / FAILED
    if failed.is_file():
        raise ValueError(f"{failed}: the run failed: "
                         f"{failed.read_text(encoding='utf-8').strip()}")
    paths = (Path(run_dir) / "prototypes").glob("session_*.tsv")
    return {int(p.stem[8:]): p for p in paths if p.stem[8:].isdecimal()}


def summary_tsv(reports: list[SessionReport]) -> str:
    """Session columns, accuracy rows; deterministic text for a fixed run."""
    cols = ["base" if r.session == 0 else f"s{r.session}" for r in reports]
    lines = ["metric\t" + "\t".join(cols)]

    def row(name, vals):
        cells = ("" if v is None else f"{v:.6f}" for v in map(_none_if_nan, vals))
        lines.append(name + "\t" + "\t".join(cells))

    row("overall", [r.overall for r in reports])
    row("seen", [r.seen_acc for r in reports])
    row("unseen", [r.unseen_acc for r in reports])
    lines.append("n_classes\t" + "\t".join(str(r.n_classes) for r in reports))
    lines.append("n_queries\t" + "\t".join(str(r.n_queries) for r in reports))
    return "\n".join(lines) + "\n"
