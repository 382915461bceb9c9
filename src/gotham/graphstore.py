"""Graph snapshots, labels, class-semantic descriptors and stream schedules.

Datasets live in a directory of UTF-8 TSV files plus one JSON schedule:

    edges.tsv     one edge per line, ``u<TAB>v`` (0-indexed, undirected)
    features.tsv  line i holds the space-separated feature row of node i
    labels.tsv    ``node_id<TAB>class_id`` for each labeled node
    csd.tsv       ``class_id<TAB>f1 f2 ...`` (optional)
    schedule.json base classes, per-session novel class sets, k, arrivals

Snapshots keep the full node universe; a sorted ``visible`` array encodes
which nodes exist at a given session. Adjacency is symmetric CSR with a
self-loop on every visible node, so visible degrees are always >= 1.
Per-session graph state has one owner: ``graph_at`` memoises each session's
snapshot on the bundle, and each snapshot caches its derived arrays
(``visible_mask`` and M = D^-1 A as ``mean_adjacency``) on first use.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = ["DatasetError", "GraphSnapshot", "LabelTable", "CSDTable",
           "SessionSpec", "StreamSchedule", "DatasetBundle",
           "build_snapshot", "load_dataset", "write_dataset", "graph_at",
           "synth_generate"]


class DatasetError(ValueError):
    """Raised when dataset files or schedule constraints are invalid."""


@dataclass(frozen=True)
class GraphSnapshot:
    """Immutable undirected graph with self-loops on visible nodes."""

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    visible: np.ndarray          # sorted node ids present in this snapshot
    degree: np.ndarray           # row counts incl. self-loop; 0 if not visible

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    @cached_property
    def visible_mask(self) -> np.ndarray:
        """Boolean mask over the node universe; read-only, shared by callers."""
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[self.visible] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def mean_adjacency(self) -> sp.csr_matrix:
        """M = D^-1 A, stored entry for entry in the snapshot's CSR layout."""
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
        data = 1.0 / self.degree[rows]
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.num_nodes, self.num_nodes))

    def adjacency(self) -> sp.csr_matrix:
        data = np.ones(self.indices.size, dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.num_nodes, self.num_nodes))

    def validate(self) -> None:
        if self.features.shape[0] != self.num_nodes:
            raise DatasetError("feature row count does not match num_nodes")
        if not np.all(np.isfinite(self.features)):
            raise DatasetError("non-finite feature value")
        adj = self.adjacency()
        if (adj != adj.T).nnz:
            raise DatasetError("adjacency is not symmetric")
        if np.any(self.degree[self.visible] < 1):
            raise DatasetError("visible node with degree 0")


def build_snapshot(num_nodes: int, edges: np.ndarray, features: np.ndarray,
                   visible: np.ndarray | None = None, *,
                   warn_asymmetric: bool = False) -> GraphSnapshot:
    """Symmetrize, deduplicate, add self-loops and pack into CSR.

    ``edges`` is an (m, 2) int array; edges touching non-visible nodes are
    rejected. Self-loops present in the input are merged with the injected
    ones.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise DatasetError(f"features must be ({num_nodes}, d)")
    if not np.all(np.isfinite(features)):
        raise DatasetError("non-finite feature value")
    if visible is None:
        visible = np.arange(num_nodes, dtype=np.int64)
    else:
        visible = np.unique(np.asarray(visible, dtype=np.int64))
        if visible.size and (visible[0] < 0 or visible[-1] >= num_nodes):
            raise DatasetError("visible node id out of range")

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= num_nodes:
            raise DatasetError("edge endpoint out of range")
        vis_mask = np.zeros(num_nodes, dtype=bool)
        vis_mask[visible] = True
        keep = vis_mask[edges[:, 0]] & vis_mask[edges[:, 1]]
        edges = edges[keep]

    if warn_asymmetric and edges.size:
        # a file listing each undirected edge once is canonical; only a mixed
        # export (some pairs in both directions, some not) looks directed
        pairs = edges[edges[:, 0] != edges[:, 1]]
        fwd = np.unique(pairs[:, 0] * num_nodes + pairs[:, 1])
        rev = (fwd % num_nodes) * num_nodes + fwd // num_nodes
        has_reverse = np.isin(rev, fwd)
        missing = int((~has_reverse).sum())
        if missing and has_reverse.any():
            warnings.warn(f"{missing} edge(s) lacked a reverse counterpart; "
                          "symmetrized", stacklevel=2)

    loops = np.stack([visible, visible], axis=1)
    both = np.concatenate([edges, edges[:, ::-1], loops], axis=0)
    # sorted unique keys are row-major: rows ascend, columns ascend per row
    key = np.unique(both[:, 0] * num_nodes + both[:, 1])
    rows = key // num_nodes
    indices = key % num_nodes
    counts = np.bincount(rows, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return GraphSnapshot(num_nodes=num_nodes, indptr=indptr, indices=indices,
                         features=features, visible=visible,
                         degree=counts.astype(np.int64))


@dataclass(frozen=True)
class LabelTable:
    by_node: dict[int, int]

    @cached_property
    def _nodes_by_class(self) -> dict[int, np.ndarray]:
        nodes = np.fromiter(self.by_node, dtype=np.int64, count=len(self.by_node))
        classes = np.fromiter(self.by_node.values(), dtype=np.int64, count=nodes.size)
        order = np.lexsort((nodes, classes))
        keys, starts = np.unique(classes[order], return_index=True)
        return dict(zip(keys.tolist(), np.split(nodes[order], starts[1:])))

    def nodes_of(self, class_id: int) -> np.ndarray:
        """Sorted labeled nodes of ``class_id``, in a fresh array."""
        return self._nodes_by_class.get(class_id, np.empty(0, np.int64)).copy()


@dataclass(frozen=True)
class CSDTable:
    vectors: dict[int, np.ndarray]

    @property
    def dim(self) -> int | None:
        for v in self.vectors.values():
            return int(v.shape[0])
        return None

    def has(self, class_id: int) -> bool:
        return class_id in self.vectors

    def validate(self) -> None:
        dims = {v.shape[0] for v in self.vectors.values()}
        if len(dims) > 1:
            raise DatasetError(f"CSD vectors have mixed dimensions {sorted(dims)}")
        for c, v in self.vectors.items():
            if not np.all(np.isfinite(v)):
                raise DatasetError(f"non-finite CSD entry for class {c}")


@dataclass(frozen=True)
class SessionSpec:
    few_shot: tuple[int, ...]
    zero_shot: tuple[int, ...]
    k: int
    arrivals: tuple[int, ...] = ()


@dataclass(frozen=True)
class StreamSchedule:
    base_classes: tuple[int, ...]
    sessions: tuple[SessionSpec, ...]
    mode: str = "gfscil"   # "gfscil" | "gcl"

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    @property
    def class_universe(self) -> set[int]:
        u = set(self.base_classes)
        for s in self.sessions:
            u.update(s.few_shot)
            u.update(s.zero_shot)
        return u

    def seen_at(self, t: int) -> list[int]:
        """Classes with labeled shots available by session t, ascending."""
        self._check_t(t)
        out = set(self.base_classes)
        for s in self.sessions[:t]:
            out.update(s.few_shot)
        return sorted(out)

    def unseen_at(self, t: int) -> list[int]:
        self._check_t(t)
        out: set[int] = set()
        for s in self.sessions[:t]:
            out.update(s.zero_shot)
        return sorted(out)

    def classes_at(self, t: int) -> list[int]:
        return sorted(set(self.seen_at(t)) | set(self.unseen_at(t)))

    def novel_few_shot_at(self, t: int) -> list[int]:
        self._check_t(t)
        if t == 0:
            return sorted(self.base_classes)
        return sorted(self.sessions[t - 1].few_shot)

    def visible_from(self, num_nodes: int) -> np.ndarray:
        """First session at which each node is visible: the first session
        that lists it as an arrival, 0 for a node that none lists."""
        first = np.zeros(num_nodes, dtype=np.int64)
        for t in range(len(self.sessions), 0, -1):     # earlier sessions win
            arrivals = np.asarray(self.sessions[t - 1].arrivals, dtype=np.int64)
            if arrivals.size and (arrivals.min() < 0 or arrivals.max() >= num_nodes):
                raise DatasetError("visible node id out of range")
            first[arrivals] = t
        return first

    def zero_shot_classes(self) -> set[int]:
        out: set[int] = set()
        for s in self.sessions:
            out.update(s.zero_shot)
        return out

    def _check_t(self, t: int) -> None:
        if not 0 <= t <= len(self.sessions):
            raise DatasetError(f"session index {t} out of range "
                               f"[0, {len(self.sessions)}]")

    def validate(self) -> None:
        if self.mode not in ("gfscil", "gcl"):
            raise DatasetError(f"unknown schedule mode {self.mode!r}")
        seen_sets = [set(self.base_classes)]
        for s in self.sessions:
            novel = set(s.few_shot) | set(s.zero_shot)
            if set(s.few_shot) & set(s.zero_shot):
                raise DatasetError("class listed as both few-shot and zero-shot")
            for prev in seen_sets:
                overlap = prev & novel
                if overlap:
                    raise DatasetError(
                        f"novel classes {sorted(overlap)} overlap an earlier session")
            if s.k < 0:
                raise DatasetError("negative k")
            seen_sets.append(novel)
        if self.mode == "gfscil" and self.zero_shot_classes():
            raise DatasetError("gfscil schedule contains zero-shot classes")


@dataclass(frozen=True)
class DatasetBundle:
    graph: GraphSnapshot          # full graph (all arrivals applied)
    labels: LabelTable
    csds: CSDTable
    schedule: StreamSchedule
    raw_edges: np.ndarray = field(repr=False, default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    # graph_at's memo by session; init=False, so dataclasses.replace starts empty
    _snapshots: dict[int, GraphSnapshot] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    @property
    def num_sessions(self) -> int:
        return self.schedule.num_sessions

    def validate(self) -> None:
        self.graph.validate()
        self.csds.validate()
        self.schedule.validate()
        universe = self.schedule.class_universe
        for node, cls in self.labels.by_node.items():
            if not 0 <= node < self.graph.num_nodes:
                raise DatasetError(f"labeled node {node} out of range")
            if cls not in universe:
                raise DatasetError(f"label class {cls} absent from schedule")
        if self.csds.vectors:
            if self.schedule.mode == "gcl":
                missing = universe - set(self.csds.vectors)
                if missing:
                    raise DatasetError(
                        f"gcl mode requires a CSD for every class; missing {sorted(missing)}")
        elif self.schedule.mode == "gcl":
            raise DatasetError("gcl mode requires a CSD table")


def graph_at(bundle: DatasetBundle, t: int) -> GraphSnapshot:
    """Snapshot of the graph as of session t (0 = base graph).

    Visible nodes are the base nodes plus every arrival scheduled at
    sessions 1..t; edges are restricted to the visible set. Each session's
    snapshot is built once and memoised on the bundle.
    """
    sched = bundle.schedule
    sched._check_t(t)
    if t in bundle._snapshots:
        return bundle._snapshots[t]
    graph = bundle.graph
    if any(s.arrivals for s in sched.sessions):
        visible = np.flatnonzero(sched.visible_from(graph.num_nodes) <= t)
        graph = build_snapshot(graph.num_nodes, bundle.raw_edges, graph.features,
                               visible)
    bundle._snapshots[t] = graph
    return graph


# -- directory I/O -----------------------------------------------------------

def _require(path: Path) -> Path:
    if not path.exists():
        raise DatasetError(f"missing dataset file: {path}")
    return path


def _read_table(path: Path, dtype, what: str, width: int | None = None) -> np.ndarray:
    """Rows of whitespace-separated numbers, blank lines skipped; an empty
    file gives ``(0, width or 1)``."""
    _require(path)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            table = np.loadtxt(path, dtype=dtype, comments=None,
                               ndmin=2, encoding="utf-8")
        except ValueError:
            with open(path, encoding="utf-8") as fh:
                widths = {len(line.split()) for line in fh if line.strip()}
            if len(widths) > 1:
                raise DatasetError(
                    f"inconsistent {what} widths {sorted(widths)}") from None
            raise
    if width is None:
        return table
    if table.size == 0:
        return table.reshape(0, width)
    if table.shape[1] != width:
        raise DatasetError(f"{path.name} rows need {width} fields, "
                           f"not {table.shape[1]}")
    return table


def load_dataset(directory) -> DatasetBundle:
    """Load and validate a dataset directory. Node order follows the files."""
    d = Path(directory)
    if not d.is_dir():
        raise DatasetError(f"dataset directory not found: {d}")

    features = _read_table(d / "features.tsv", np.float64, "feature")
    if features.size == 0:
        raise DatasetError("features.tsv is empty")
    num_nodes = features.shape[0]
    edge_arr = _read_table(d / "edges.tsv", np.int64, "edge", width=2)
    label_arr = _read_table(d / "labels.tsv", np.int64, "label", width=2)
    # later lines win, as when the file is read line by line
    labels = dict(zip(label_arr[:, 0].tolist(), label_arr[:, 1].tolist()))

    vectors: dict[int, np.ndarray] = {}
    csd_path = d / "csd.tsv"
    if csd_path.exists():
        with open(csd_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                cls, vec = line.split("\t")
                vectors[int(cls)] = np.asarray([float(x) for x in vec.split()],
                                               dtype=np.float64)

    with open(_require(d / "schedule.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    sessions = tuple(
        SessionSpec(few_shot=tuple(int(c) for c in s.get("few_shot", [])),
                    zero_shot=tuple(int(c) for c in s.get("zero_shot", [])),
                    k=int(s.get("k", 0)),
                    arrivals=tuple(int(n) for n in s.get("arrivals", [])))
        for s in raw.get("sessions", []))
    schedule = StreamSchedule(
        base_classes=tuple(int(c) for c in raw["base_classes"]),
        sessions=sessions,
        mode=raw.get("mode", "gfscil"))

    graph = build_snapshot(num_nodes, edge_arr, features, warn_asymmetric=True)
    bundle = DatasetBundle(graph=graph, labels=LabelTable(labels),
                           csds=CSDTable(vectors), schedule=schedule,
                           raw_edges=edge_arr)
    bundle.validate()
    return bundle


def _fmt(x: float) -> str:
    return repr(float(x))


def write_dataset(bundle: DatasetBundle, directory) -> None:
    """Write a bundle back to the TSV/JSON layout (full float precision)."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)

    g = bundle.graph
    with open(d / "edges.tsv", "w", encoding="utf-8") as fh:
        for u in range(g.num_nodes):
            for v in g.neighbors(u):
                if u < v:
                    fh.write(f"{u}\t{v}\n")
    with open(d / "features.tsv", "w", encoding="utf-8") as fh:
        for row in g.features:
            fh.write(" ".join(_fmt(x) for x in row) + "\n")
    with open(d / "labels.tsv", "w", encoding="utf-8") as fh:
        for node in sorted(bundle.labels.by_node):
            fh.write(f"{node}\t{bundle.labels.by_node[node]}\n")
    if bundle.csds.vectors:
        with open(d / "csd.tsv", "w", encoding="utf-8") as fh:
            for cls in sorted(bundle.csds.vectors):
                vec = " ".join(_fmt(x) for x in bundle.csds.vectors[cls])
                fh.write(f"{cls}\t{vec}\n")
    sched = bundle.schedule
    payload = {
        "base_classes": list(sched.base_classes),
        "sessions": [{"few_shot": list(s.few_shot),
                      "zero_shot": list(s.zero_shot),
                      "k": s.k,
                      "arrivals": list(s.arrivals)} for s in sched.sessions],
        "mode": sched.mode,
    }
    with open(d / "schedule.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


# -- synthetic fixtures ------------------------------------------------------

def synth_generate(seed: int, blocks: int, nodes_per_block: int,
                   p_in: float, p_out: float, d: int, *,
                   mean_separation: float = 4.0, feature_sigma: float = 1.0,
                   n_base: int | None = None, novel_per_session: int = 1,
                   zero_shot_classes=(), k_shot: int = 5,
                   mode: str | None = None) -> DatasetBundle:
    """Class-separable stochastic block model with Gaussian features.

    Node i belongs to block i // nodes_per_block; block means sit at pairwise
    distance ``mean_separation * feature_sigma`` along orthonormal directions,
    and each class's CSD vector is its population feature mean. Classes
    ``n_base..blocks-1`` stream in ``novel_per_session`` at a time; ids in
    ``zero_shot_classes`` stream without labeled shots.
    """
    if blocks < 1 or nodes_per_block < 1:
        raise DatasetError("degenerate block sizes")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise DatasetError("require 0 <= p_out < p_in <= 1")
    if d < blocks:
        raise DatasetError("feature dim must be >= number of blocks")

    rng = np.random.default_rng(seed)
    n = blocks * nodes_per_block
    block_of = np.repeat(np.arange(blocks), nodes_per_block)

    # orthonormal class directions -> exact pairwise mean separation
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    scale = mean_separation * feature_sigma / np.sqrt(2.0)
    means = basis[:blocks] * scale
    features = means[block_of] + feature_sigma * rng.standard_normal((n, d))

    rows = []
    for u in range(n):
        probs = np.where(block_of[u + 1:] == block_of[u], p_in, p_out)
        hits = np.nonzero(rng.random(n - u - 1) < probs)[0]
        for h in hits:
            rows.append((u, u + 1 + h))
    edges = np.asarray(rows, dtype=np.int64).reshape(-1, 2)

    labels = {i: int(block_of[i]) for i in range(n)}
    csds = {c: means[c].copy() for c in range(blocks)}

    if n_base is None:
        n_base = blocks
    zero = set(int(c) for c in zero_shot_classes)
    streamed = [c for c in range(n_base, blocks)]
    bad = zero - set(streamed)
    if bad:
        raise DatasetError(f"zero-shot classes {sorted(bad)} are not streamed")
    sessions = []
    for i in range(0, len(streamed), novel_per_session):
        chunk = streamed[i:i + novel_per_session]
        sessions.append(SessionSpec(
            few_shot=tuple(c for c in chunk if c not in zero),
            zero_shot=tuple(c for c in chunk if c in zero),
            k=k_shot))
    if mode is None:
        mode = "gcl" if zero else "gfscil"
    schedule = StreamSchedule(base_classes=tuple(range(n_base)),
                              sessions=tuple(sessions), mode=mode)

    graph = build_snapshot(n, edges, features)
    bundle = DatasetBundle(graph=graph, labels=LabelTable(labels),
                           csds=CSDTable(csds), schedule=schedule,
                           raw_edges=edges)
    bundle.validate()
    return bundle
