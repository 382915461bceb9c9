"""Closed-loop stream benchmark: set-up, streams, output check, metrics.

One run makes a workload's dataset from the seed, times set-up several
times, then runs whole streams back to back (each starts when the previous
one ends) until the time budget is spent, checking every stream's outputs.
A traced run adds one stream with every layer wrapped by ``tracing.Tracer``.
"""
from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from gotham import graphstore, nn, sampler, trainer

import tracing
from workloads import EPISODES_BASE, EPISODES_FINETUNE, WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
# set-up is timed before and after the streams, each time at least this
# often and for at least this long
SETUP_REPEATS = 5
SETUP_SECONDS = 0.25
LOSS_RTOL = 1e-9

END_TO_END_UNITS = {
    "setup_s": "s",
    "stream_s": "s",
    "episode_ms_p50": "ms",
    "episode_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "final_acc": "fraction",
}


@dataclass
class Stream:
    """One ``run_stream`` call: its timings, outputs and check result."""
    seconds: float = 0.0
    gaps_ms: list[float] = field(default_factory=list)
    totals: list[float] = field(default_factory=list)
    summary: str = ""
    final_acc: float = math.nan
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    refs = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return refs.get(workload, {}).get(str(seed))


def setup(data_dir: Path, cfg):
    """The work before the first episode: load, split, initialise."""
    bundle = graphstore.load_dataset(data_dir)
    split = sampler.build_class_split(bundle, cfg.k_shot,
                                      eval_fraction=cfg.eval_fraction,
                                      split_seed=cfg.split_seed,
                                      anchor_seed=cfg.seed)
    csd_dim = bundle.csds.dim if cfg.mode != "gfscil_plain" else None
    model = nn.init_model(bundle.graph.features.shape[1], cfg.hidden_dim,
                          cfg.out_dim, cfg.num_layers, cfg.seed,
                          csd_dim=csd_dim, negative_slope=cfg.negative_slope,
                          backbone=cfg.backbone)
    return bundle, split, model


def time_setup(data_dir: Path, cfg) -> list[float]:
    """Seconds per ``setup`` call."""
    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        setup(data_dir, cfg)
        times.append(time.perf_counter() - start)
    return times


def run_one_stream(bundle, cfg, out_dir: Path, tracer=None) -> Stream:
    """Run one stream, time each episode by its log record, check outputs."""
    stamps: list[tuple[int, float, float]] = []

    def log_fn(rec):
        stamps.append((rec["session"], time.perf_counter(), rec["total"]))
        if tracer is not None:
            tracer.episode += 1

    stream = Stream()
    start = time.perf_counter()
    try:
        reports = trainer.run_stream(bundle, cfg, out_dir=out_dir, log_fn=log_fn)
    except Exception:
        traceback.print_exc()
        stream.problems.append("run_stream raised")
        return stream
    stream.seconds = time.perf_counter() - start
    stream.gaps_ms = [1e3 * (b[1] - a[1]) for a, b in zip(stamps, stamps[1:])
                      if a[0] == b[0]]
    stream.totals = [s[2] for s in stamps]
    stream.final_acc = reports[-1].overall
    stream.summary = (out_dir / "summary.tsv").read_text(encoding="utf-8")
    stream.problems = check_outputs(stream, reports, out_dir, cfg,
                                    bundle.schedule.num_sessions)
    return stream


def check_outputs(stream: Stream, reports, out_dir: Path, cfg,
                  sessions: int) -> list[str]:
    """Problems with one stream's artifacts, independent of any reference."""
    problems = []
    expected = cfg.episodes_base + sessions * cfg.episodes_finetune
    lines = (out_dir / "loss_log.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    if [r["step"] for r in records] != list(range(expected)):
        problems.append(f"loss_log.jsonl steps are not 0..{expected - 1}")
    if [r["total"] for r in records] != stream.totals:
        problems.append("loss_log.jsonl totals differ from the logged records")
    if not all(math.isfinite(t) for t in stream.totals):
        problems.append("non-finite loss total")
    if stream.summary != trainer.summary_tsv(reports):
        problems.append("summary.tsv differs from the returned reports")
    if len(reports) != sessions + 1:
        problems.append(f"{len(reports)} session reports, expected {sessions + 1}")
    if not all(0.0 <= r.overall <= 1.0 for r in reports):
        problems.append("overall accuracy outside [0, 1]")
    return problems


def compare(stream: Stream, summary: str, totals: list[float], what: str) -> None:
    """Record a problem unless ``stream`` matches the given outputs."""
    if stream.summary != summary:
        stream.problems.append(f"summary.tsv differs from {what}")
    if len(stream.totals) != len(totals) or not all(
            math.isclose(a, b, rel_tol=LOSS_RTOL) for a, b in zip(stream.totals, totals)):
        stream.problems.append(f"loss totals differ from {what} beyond {LOSS_RTOL} relative")


def p90(values: list[float]) -> float:
    """The 90th percentile, as ``statistics.quantiles`` cuts it."""
    return statistics.quantiles(values, n=10)[-1]


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path, *,
        episodes_base: int = EPISODES_BASE,
        episodes_finetune: int = EPISODES_FINETUNE,
        trace_path: Path | None = None) -> dict:
    """One benchmark run; returns the result document and human-readable notes.

    The reference for (workload, seed) applies only at the default episode
    counts. Without one, streams are checked against each other and the
    traced stream against the untraced ones.
    """
    wl = WORKLOADS[workload]
    data_dir = work_dir / "data"
    graphstore.write_dataset(wl.dataset(seed), data_dir)
    cfg = wl.config(seed, data_dir, episodes_base=episodes_base,
                    episodes_finetune=episodes_finetune)

    setup_times = [] if trace else time_setup(data_dir, cfg)
    bundle, _, _ = setup(data_dir, cfg)

    default = (episodes_base, episodes_finetune) == (EPISODES_BASE, EPISODES_FINETUNE)
    reference = load_reference(workload, seed) if default else None
    streams: list[Stream] = []
    start = time.perf_counter()
    # whole streams only: start another while the longest so far still fits
    while not streams or (time.perf_counter() - start
                          + max(s.seconds for s in streams) <= seconds):
        out = work_dir / f"stream-{len(streams)}"
        streams.append(run_one_stream(bundle, cfg, out))
        shutil.rmtree(out, ignore_errors=True)
    if not trace:
        # set-up again after the streams, so its median spans the run
        setup_times += time_setup(data_dir, cfg)
    for s in streams:
        if reference is not None:
            compare(s, reference["summary_tsv"], reference["loss_totals"], "the reference")
        elif s is not streams[0] and streams[0].summary:
            compare(s, streams[0].summary, streams[0].totals, "the run's first stream")

    notes = [f"reference: {'recorded' if reference else 'none'} for seed {seed}"]
    done = [s for s in streams if s.summary]
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        tracer = tracing.Tracer()
        with tracer:
            bundle, _, _ = setup(data_dir, cfg)
            out = work_dir / "stream-traced"
            traced = run_one_stream(bundle, cfg, out, tracer)
            shutil.rmtree(out, ignore_errors=True)
        if done:
            compare(traced, done[0].summary, done[0].totals, "the untraced stream")
        streams.append(traced)
        if trace_path is not None:
            tracer.write(trace_path)
            notes.append(f"spans written to {trace_path}")
        if traced.ok and done:
            metrics = tracer.metrics(len(traced.totals))
            overhead = traced.seconds - statistics.median(s.seconds for s in done)
            metrics["trace.overhead_s"] = (overhead, "s")
    elif done:
        gaps = [g for s in done for g in s.gaps_ms]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "stream_s": statistics.median(s.seconds for s in done),
            "episode_ms_p50": statistics.median(gaps),
            "episode_ms_p90": p90(gaps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_acc": done[0].final_acc,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        notes.append(f"episode samples: {len(gaps)} gaps over {len(done)} stream(s)")

    failed = sum(not s.ok for s in streams)
    for i, s in enumerate(streams):
        for p in s.problems:
            notes.append(f"stream {i}: {p}")
    notes.append(f"failed_frac: {failed / len(streams)} ({failed}/{len(streams)} streams)")
    return {"correct": failed == 0, "attempted": len(streams), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "notes": notes}
