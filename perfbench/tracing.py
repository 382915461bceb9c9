"""Per-layer tracing of a gotham stream, installed from outside the program.

``Tracer`` replaces the functions of each gotham layer with wrappers that
record one span per call (layer, start, end, parent span, episode) plus a few
counts, and puts every original back on exit. A function that another module
imported by value (``from .graphstore import graph_at``) is replaced there
too; holders are found by identity across every loaded ``gotham`` module.

A layer's self time is the duration of its spans minus the time their direct
child spans cover, so ``gnn_forward`` run inside prototype building, the
teacher cache or evaluation is charged to ``nn.gnn_forward`` alone. Work the
tracer itself does in a hook is recorded as a ``trace.hook`` span, which
keeps it out of the caller's self time.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from gotham import autodiff, graphstore, losses, nn, prototypes, sampler, trainer

# (module, function, layer); several functions may share one layer
LAYERS = (
    (graphstore, "graph_at", "graphstore.graph_at"),
    (graphstore, "load_dataset", "graphstore.load_dataset"),
    (sampler, "sample_episode", "sampler.sample_episode"),
    (sampler, "build_class_split", "sampler.build_class_split"),
    (nn, "gnn_forward", "nn.gnn_forward"),
    (nn, "_hop_sets", "nn.hop_sets"),
    (nn, "_restricted_mean_agg", "nn.mean_agg_build"),
    (nn, "_attention_aggregate", "nn.attention_agg"),
    (nn, "compute_gradients", "nn.compute_gradients"),
    (nn, "apply_update", "nn.apply_update"),
    (autodiff, "backward", "autodiff.backward"),
    (autodiff, "sparse_matmul", "autodiff.sparse_matmul"),
    (prototypes, "build_prototype_tensors", "prototypes.build"),
    (prototypes, "add_unseen_prototypes", "prototypes.unseen"),
    (prototypes, "encode_csds", "prototypes.encode_csds"),
    (losses, "loss_cluster", "losses.cluster"),
    (losses, "loss_seg", "losses.seg"),
    (losses, "loss_sem", "losses.sem"),
    (losses, "loss_kd_emb", "losses.kd_emb"),
    (losses, "loss_kd_align", "losses.kd_align"),
    (trainer, "_episode_step", "trainer.episode_step"),
    (trainer, "_episode_query_accuracy", "trainer.query_acc"),
    (trainer, "_eval_prototypes", "trainer.eval"),
    (trainer, "evaluate_session", "trainer.eval"),
    (trainer, "classify", "trainer.classify"),
)
# counted, not timed: walks are part of the sampling or eval that calls them
COUNTED = ((sampler, "extend_support", "sampler.extend_support"),)
# a class, so its constructor is wrapped in place
TEACHER_CACHE = (trainer._TeacherCache, "__init__", "trainer.teacher_cache")

HOOK = "trace.hook"

# per-layer metric -> layer whose self time it reports, in ms per episode
PER_EPISODE_MS = {
    "graphstore.graph_at_ms": "graphstore.graph_at",
    "sampler.sample_episode_ms": "sampler.sample_episode",
    "nn.gnn_forward_ms": "nn.gnn_forward",
    "nn.hop_sets_ms": "nn.hop_sets",
    "nn.mean_agg_build_ms": "nn.mean_agg_build",
    "nn.attention_agg_ms": "nn.attention_agg",
    "nn.compute_gradients_ms": "nn.compute_gradients",
    "nn.apply_update_ms": "nn.apply_update",
    "autodiff.backward_ms": "autodiff.backward",
    "autodiff.sparse_matmul_ms": "autodiff.sparse_matmul",
    "prototypes.build_ms": "prototypes.build",
    "prototypes.unseen_ms": "prototypes.unseen",
    "prototypes.encode_csds_ms": "prototypes.encode_csds",
    "losses.cluster_ms": "losses.cluster",
    "losses.seg_ms": "losses.seg",
    "losses.sem_ms": "losses.sem",
    "losses.kd_emb_ms": "losses.kd_emb",
    "losses.kd_align_ms": "losses.kd_align",
    "trainer.episode_step_ms": "trainer.episode_step",
    "trainer.query_acc_ms": "trainer.query_acc",
    "trainer.teacher_cache_ms": "trainer.teacher_cache",
    "trainer.eval_ms": "trainer.eval",
    "trainer.classify_ms": "trainer.classify",
}
# set-up layers, in ms per call
PER_CALL_MS = {
    "graphstore.load_dataset_ms": "graphstore.load_dataset",
    "sampler.build_class_split_ms": "sampler.build_class_split",
}


def _gotham_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gotham" or name.startswith("gotham."))]


def _tape_size(loss) -> int:
    """Nodes on the autodiff tape reachable from ``loss``."""
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class Tracer:
    """Context manager that traces every layer in ``LAYERS`` while active."""

    def __init__(self):
        self.spans: list[list] = []      # [layer, start, end, parent, episode]
        self.calls: Counter = Counter()
        self.episode = 0                 # advanced by the caller's log_fn
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._session = None
        self._walk_keys: set = set()
        self._snapshot_builds = 0
        self._rows_requested = 0
        self._rows_layer0 = 0
        self._rows_visible = 0
        self._tape_nodes = 0

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self) -> None:
        hooks = {"graphstore.graph_at": (None, self._after_graph_at),
                 "nn.hop_sets": (None, self._after_hop_sets),
                 "autodiff.backward": (self._before_backward, None),
                 "sampler.extend_support": (None, self._after_extend_support)}
        modules = _gotham_modules()
        for entries, timed in ((LAYERS, True), (COUNTED, False)):
            for owner, attr, layer in entries:
                original = getattr(owner, attr)
                before, after = hooks.get(layer, (None, None))
                wrapper = self._wrap(layer, original, before, after, timed)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
        cls, attr, layer = TEACHER_CACHE
        self._patch(cls, attr, self._wrap(layer, getattr(cls, attr), None, None))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans ----------------------------------------------------------------

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, 0.0, 0.0, parent, self.episode])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    def _hook(self, fn, *args) -> None:
        idx = self._open(HOOK)
        start = time.perf_counter()
        try:
            fn(*args)
        finally:
            self._close(idx, start)

    def _wrap(self, layer, fn, before, after, timed=True):
        """``fn`` counted under ``layer``, in a span when ``timed``, with hooks."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            if before is not None:
                tracer._hook(before, args)
            if timed:
                idx = tracer._open(layer)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx, start)
            else:
                result = fn(*args, **kwargs)
            if after is not None:
                tracer._hook(after, args, result)
            return result
        return wrapper

    # -- hooks -----------------------------------------------------------------

    def _after_graph_at(self, args, result) -> None:
        bundle, t = args[0], args[1]
        self._session = t
        if result is not bundle.graph:
            self._snapshot_builds += 1

    def _after_extend_support(self, args, result) -> None:
        seeds = tuple(sorted(int(s) for s in args[1]))
        self._walk_keys.add((self._session, seeds))

    def _after_hop_sets(self, args, result) -> None:
        graph, nodes = args[0], args[1]
        self._rows_requested += len(nodes)
        self._rows_layer0 += len(result[0])
        self._rows_visible += graph.visible.size

    def _before_backward(self, args) -> None:
        self._tape_nodes += _tape_size(args[0])

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer, hook spans excluded."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            if layer != HOOK:
                out[layer] += end - start - covered[i]
        return dict(out)

    def metrics(self, episodes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``.

        Times are ms of self time per training episode, except set-up layers,
        which are ms per call. Counts are totals over what was traced.
        """
        own = self.self_times()
        out = {name: (1e3 * own.get(layer, 0.0) / episodes, "ms")
               for name, layer in PER_EPISODE_MS.items()}
        for name, layer in PER_CALL_MS.items():
            calls = self.calls[layer]
            out[name] = (1e3 * own.get(layer, 0.0) / calls if calls else 0.0, "ms")
        walks = self.calls["sampler.extend_support"]
        backwards = self.calls["autodiff.backward"]
        out.update({
            "graphstore.graph_at_calls": (self.calls["graphstore.graph_at"], "count"),
            "graphstore.snapshot_builds": (self._snapshot_builds, "count"),
            "sampler.extend_support_calls": (walks, "count"),
            "sampler.walk_reuse": (len(self._walk_keys) / walks if walks else 0.0,
                                   "ratio"),
            "nn.gnn_forward_calls": (self.calls["nn.gnn_forward"], "count"),
            "nn.rows_computed_per_requested": (
                self._rows_layer0 / self._rows_requested
                if self._rows_requested else 0.0, "ratio"),
            "nn.hop_coverage": (self._rows_layer0 / self._rows_visible
                                if self._rows_visible else 0.0, "ratio"),
            "autodiff.tape_nodes": (self._tape_nodes / backwards if backwards else 0.0,
                                    "count"),
        })
        return out

    def write(self, path) -> None:
        """Spans and counts as one JSON document."""
        doc = {"fields": ["layer", "start", "end", "parent", "episode"],
               "spans": self.spans,
               "calls": dict(sorted(self.calls.items())),
               "self_s": dict(sorted(self.self_times().items()))}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
