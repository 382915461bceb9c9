"""Graph snapshots, labels, class-semantic descriptors and stream schedules.

Datasets live in a directory of UTF-8 TSV files, a .npy array and a schedule:

    edges.tsv     one edge per line, ``u<TAB>v`` (0-indexed, undirected)
    features.npy  N x F float64 .npy array (read without pickles); row i is node i
    labels.tsv    ``node_id<TAB>class_id`` for each labeled node; class ids
                  here and below are non-negative integers
    csd.tsv       ``class_id<TAB>f1 f2 ...`` (optional)
    schedule.json base classes, per-session few-shot and zero-shot classes
                  (each class in one list, once), k, arrivals; no run mode
                  (an old ``"mode"`` key is ignored)

Snapshots keep the full node universe; a sorted ``visible`` array encodes
which nodes exist at a given session. Adjacency is symmetric CSR with a
self-loop on every visible node, so visible degrees are always >= 1. Only
the full graph is built from an edge list (``build_snapshot``, which
symmetrizes, deduplicates, sorts and adds a self-loop to every node). One
sort of tagged edge keys, each pair's own and its reverse's, builds that CSR
and checks whether the list was symmetric. Ids elsewhere are deduplicated by
one sort (``unique_ids``). Neither uses ``np.unique``: numpy >= 2.3's
flag-less ``np.unique`` hashes its input before it sorts the distinct
values, which on mostly distinct ids costs many times one sort and, at
OGBN-Arxiv's size (169,343 nodes, 1.2M edges), most of a snapshot build.
Per-session graph state has one owner: ``graph_at`` cuts each session's
snapshot from the bundle's full graph with ``GraphSnapshot.restrict``, which
keeps the CSR entries whose endpoints are both visible, so a snapshot is
never rebuilt, re-sorted or re-checked, and memoises it on the bundle. Each
snapshot caches its derived arrays (``degree``, ``visible_mask``, M = D^-1 A
as ``mean_adjacency`` and M X as ``mean_features``) on first use.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = ["DatasetError", "GraphSnapshot", "LabelTable", "CSDTable",
           "SessionSpec", "StreamSchedule", "DatasetBundle",
           "build_snapshot", "load_dataset", "write_dataset", "graph_at",
           "synth_generate", "unique_ids"]


class DatasetError(ValueError):
    """Raised when dataset files or schedule constraints are invalid."""


@dataclass(frozen=True)
class GraphSnapshot:
    """Immutable undirected graph with self-loops on visible nodes."""

    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    visible: np.ndarray          # sorted node ids present in this snapshot

    @property
    def num_nodes(self) -> int:
        return self.indptr.size - 1

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def edges(self) -> np.ndarray:
        """Each undirected edge once as (u, v) with u < v, in CSR order."""
        rows = np.repeat(np.arange(self.num_nodes), self.degree)
        upper = rows < self.indices
        return np.stack([rows[upper], self.indices[upper]], axis=1)

    def restrict(self, visible_mask: np.ndarray) -> GraphSnapshot:
        """The subgraph induced by the nodes of ``visible_mask``: the CSR
        entries whose row and column are both visible, in order, over the same
        node universe and ``features``. On a graph that holds every node's
        self-loop, as ``build_snapshot``'s do, each visible node keeps its own."""
        keep = np.repeat(visible_mask, self.degree) & visible_mask[self.indices]
        # a row's new start counts the kept entries before its old start
        kept = np.concatenate([[0], np.cumsum(keep)])
        return GraphSnapshot(indptr=kept[self.indptr], indices=self.indices[keep],
                             features=self.features,
                             visible=np.flatnonzero(visible_mask))

    @cached_property
    def degree(self) -> np.ndarray:
        """Row counts incl. self-loop, 0 if not visible; read-only."""
        degree = np.diff(self.indptr)
        degree.flags.writeable = False
        return degree

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
        rows = np.repeat(np.arange(self.num_nodes), self.degree)
        data = 1.0 / self.degree[rows]
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.num_nodes, self.num_nodes))

    @cached_property
    def mean_features(self) -> np.ndarray:
        """M X, the mean backbone's first aggregate; read-only. Each row sums
        its CSR entries in order, as a row block of M does on the same rows."""
        out = self.mean_adjacency @ self.features
        out.flags.writeable = False
        return out


def unique_ids(ids: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``ids``, flattened, in its dtype: what
    flag-less ``np.unique`` gives, by one sort and an adjacent-difference
    mask. numpy >= 2.3's ``np.unique`` hashes first and sorts the distinct
    values after, which on mostly distinct ids costs far more than this."""
    ids = np.sort(ids, axis=None)
    keep = np.empty(ids.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def build_snapshot(num_nodes: int, edges: np.ndarray,
                   features: np.ndarray) -> GraphSnapshot:
    """Symmetrize, deduplicate, add self-loops and pack into CSR.

    ``edges`` is an integer (m, 2) array, or an empty array of any shape;
    every node is visible. Self-loops present in the input are merged with
    the injected ones. One sort of tagged keys builds the CSR and checks
    symmetry: ``2 * (u * n + v)`` for each listed pair, ``2 * (v * n + u) + 1``
    for its implied reverse and ``2 * (i * n + i)`` for each self-loop. The
    sorted keys shifted right by one are the CSR entries, row-major, each run
    of equal entries once; an off-diagonal entry that holds both an even and
    an odd key was listed both ways. A list with pairs given both ways
    beside pairs given one way warns how many lacked their reverse; a list
    of each pair once, or of both ways throughout, does not. No step hashes.
    The largest key, ``2 * (n * n - 1) + 1``, fits int64 up to ``num_nodes``
    = 2**31.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise DatasetError(f"features must be ({num_nodes}, d)")
    if num_nodes > 2 ** 31:
        raise DatasetError(f"{num_nodes} nodes exceed the 2**31 a snapshot holds")
    if not np.all(np.isfinite(features)):
        raise DatasetError("non-finite feature value")
    edges = np.asarray(edges)
    if not edges.size:
        edges = np.empty((0, 2), dtype=np.int64)
    elif edges.ndim != 2 or edges.shape[1] != 2:
        raise DatasetError(f"edges must be an (m, 2) array, not shape {edges.shape}")
    elif not np.issubdtype(edges.dtype, np.integer):
        raise DatasetError(f"edges must hold integers, not {edges.dtype}")
    edges = edges.astype(np.int64, copy=False)
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise DatasetError("edge endpoint out of range")

    visible = np.arange(num_nodes, dtype=np.int64)
    m, n2 = edges.shape[0], 2 * num_nodes
    tagged = np.empty(2 * m + num_nodes, dtype=np.int64)
    listed, implied, loops = tagged[:m], tagged[m:2 * m], tagged[2 * m:]
    np.multiply(edges[:, 0], n2, out=listed)
    listed += 2 * edges[:, 1]
    np.multiply(edges[:, 1], n2, out=implied)
    implied += 2 * edges[:, 0] + 1
    np.multiply(visible, n2 + 2, out=loops)
    tagged.sort()
    # sorted, two keys share an entry when they differ in the tag bit at most
    step = tagged[1:] ^ tagged[:-1]
    first = np.empty(tagged.size, dtype=bool)
    first[:1] = True
    np.greater(step, 1, out=first[1:])

    # a file listing each undirected edge once is canonical; only a mixed
    # export (some pairs in both directions, some not) looks directed. An
    # entry with both tags was listed both ways, or is a listed self-loop:
    # a diagonal entry, a multiple of n + 1
    both = tagged[1:][step == 1] >> 1
    reversed_pairs = int(np.count_nonzero(both % (num_nodes + 1)))
    # the other off-diagonal entries pair up: listed one way, implied back
    missing = (int(np.count_nonzero(first)) - num_nodes - reversed_pairs) // 2
    if missing and reversed_pairs:
        warnings.warn(f"{missing} edge(s) lacked a reverse counterpart; "
                      "symmetrized", stacklevel=2)

    key = tagged[first] >> 1      # row-major: rows ascend, columns per row
    rows = key // num_nodes
    indices = key - rows * num_nodes
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return GraphSnapshot(indptr=indptr, indices=indices, features=features,
                         visible=visible)


@dataclass(frozen=True)
class LabelTable:
    by_node: dict[int, int]

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(nodes, classes)``: ``by_node``'s keys and values in its order,
        as read-only int64 arrays."""
        nodes = np.fromiter(self.by_node, dtype=np.int64, count=len(self.by_node))
        classes = np.fromiter(self.by_node.values(), dtype=np.int64, count=nodes.size)
        nodes.flags.writeable = classes.flags.writeable = False
        return nodes, classes

    @cached_property
    def _nodes_by_class(self) -> dict[int, np.ndarray]:
        nodes, classes = self.arrays
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

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

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
        that lists it as an arrival, 0 for a node that none lists. Arrivals
        are node ids in [0, num_nodes), as ``load_dataset`` checks."""
        first = np.zeros(num_nodes, dtype=np.int64)
        for t in range(len(self.sessions), 0, -1):     # earlier sessions win
            first[np.asarray(self.sessions[t - 1].arrivals, dtype=np.int64)] = t
        return first

    def _check_t(self, t: int) -> None:
        if not 0 <= t <= len(self.sessions):
            raise DatasetError(f"session index {t} out of range "
                               f"[0, {len(self.sessions)}]")

    def validate(self) -> None:
        """One pass over every class list, base first, checks that no id is
        negative or listed twice; then each session's k."""
        if not self.base_classes:
            raise DatasetError("a stream needs at least one base class")
        lists = [("base_classes", self.base_classes)] + [
            (f"session {t} {key}", getattr(s, key))
            for t, s in enumerate(self.sessions, start=1)
            for key in ("few_shot", "zero_shot")]
        first: dict[int, str] = {}      # class -> the list that first names it
        for where, ids in lists:
            if min(ids, default=0) < 0:
                raise DatasetError(f"{where} lists negative class {min(ids)}; "
                                   "class ids are >= 0")
            for c in ids:
                if first.get(c) == where:
                    raise DatasetError(f"{where} lists class {c} twice")
                if c in first:
                    raise DatasetError(f"{where} lists class {c}, which "
                                       f"{first[c]} lists")
                first[c] = where
        for t, s in enumerate(self.sessions, start=1):
            if s.k < 0:
                raise DatasetError("negative k")
            if s.few_shot and s.k == 0:
                raise DatasetError(f"session {t} lists few-shot "
                                   f"classes {list(s.few_shot)} with k=0; "
                                   "few-shot classes need k >= 1")


@dataclass(frozen=True)
class DatasetBundle:
    graph: GraphSnapshot          # full graph (all arrivals applied)
    labels: LabelTable
    csds: CSDTable
    schedule: StreamSchedule
    # graph_at's memo by session; init=False, so dataclasses.replace starts empty
    _snapshots: dict[int, GraphSnapshot] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def validate(self) -> None:
        self.csds.validate()
        self.schedule.validate()
        nodes, classes = self.labels.arrays
        out_of_range = (nodes < 0) | (nodes >= self.graph.num_nodes)
        absent = ~np.isin(classes, self.schedule.classes_at(self.schedule.num_sessions))
        bad = np.flatnonzero(out_of_range | absent)
        if bad.size:    # the first offending label in file order, node first
            i = bad[0]
            if out_of_range[i]:
                raise DatasetError(f"labeled node {nodes[i]} out of range")
            raise DatasetError(f"label class {classes[i]} absent from schedule")


def graph_at(bundle: DatasetBundle, t: int) -> GraphSnapshot:
    """Snapshot of the graph as of session t (0 = base graph).

    Visible nodes are the base nodes plus every arrival scheduled at
    sessions 1..t; the snapshot is the full graph's cut to them. Each
    session's snapshot is cut once and memoised on the bundle.
    """
    sched = bundle.schedule
    sched._check_t(t)
    if t in bundle._snapshots:
        return bundle._snapshots[t]
    graph = bundle.graph
    if any(s.arrivals for s in sched.sessions):
        graph = graph.restrict(sched.visible_from(graph.num_nodes) <= t)
    bundle._snapshots[t] = graph
    return graph


# -- directory I/O -----------------------------------------------------------

def _require(path: Path) -> Path:
    if not path.exists():
        raise DatasetError(f"missing dataset file: {path}")
    return path


def _read_table(path: Path, what: str) -> np.ndarray:
    """Rows of two whitespace-separated integers, blank lines skipped; an
    empty file gives ``(0, 2)``. A line that does not parse raises a
    DatasetError naming the file and the line, counted from 1."""
    _require(path)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            table = np.loadtxt(path, dtype=np.int64, comments=None,
                               ndmin=2, encoding="utf-8")
        except ValueError:
            with open(path, encoding="utf-8") as fh:
                rows = [(n, line) for n, line in enumerate(fh, start=1)
                        if line.strip()]
            widths = {len(line.split()) for _, line in rows}
            if len(widths) > 1:
                raise DatasetError(f"{path.name}: inconsistent {what} widths "
                                   f"{sorted(widths)}") from None
            for n, line in rows:    # the first line loadtxt cannot read alone
                try:
                    np.loadtxt([line], dtype=np.int64, comments=None)
                except ValueError:
                    raise DatasetError(
                        f"{path.name} line {n}: could not convert "
                        f"{line.strip()!r} to int64") from None
            raise
    if table.size == 0:
        return table.reshape(0, 2)
    if table.shape[1] != 2:
        raise DatasetError(f"{path.name} rows need 2 fields, not {table.shape[1]}")
    return table


def _read_features(d: Path) -> np.ndarray:
    """``features.npy`` as a non-empty 2-D float64 array, read without
    pickles; any other content raises a DatasetError that names the file."""
    path = d / "features.npy"
    if not path.exists() and (d / "features.tsv").exists():
        raise DatasetError(f"missing dataset file: {path}; features.tsv is "
                           "the former text layout, write the dataset again")
    _require(path)
    try:
        with open(path, "rb") as fh:
            features = np.load(fh, allow_pickle=False)
    except (OSError, EOFError, ValueError, MemoryError) as exc:  # a header may claim any size
        raise DatasetError(f"{path.name}: not a readable .npy array ({exc})") from None
    if not isinstance(features, np.ndarray):        # an .npz archive
        raise DatasetError(f"{path.name} is an .npz archive, not one .npy array")
    if features.ndim != 2 or features.dtype.type is not np.float64 or not features.size:
        raise DatasetError(f"{path.name} must hold a non-empty 2-D float64 array, "
                           f"not {features.dtype} of shape {features.shape}")
    return features


def _read_schedule(path: Path, num_nodes: int) -> StreamSchedule:
    """The schedule in ``path`` of a graph of ``num_nodes`` nodes; a malformed
    one raises a DatasetError that names the file, before any field is read
    as the wrong type."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise DatasetError(f"schedule.json: {what}")

    def ids(obj: dict, key: str, where: str = "") -> tuple[int, ...]:
        value = obj.get(key, [])
        # exact types, so a bool, a subclass of int, is no id
        check(isinstance(value, list) and set(map(type, value)) <= {int},
              f"{where}{key} must be a list of integers")
        return tuple(value)

    check(isinstance(raw, dict), "the top level must be an object")
    check("base_classes" in raw, "base_classes is missing")
    sessions = raw.get("sessions", [])
    check(isinstance(sessions, list) and all(isinstance(s, dict) for s in sessions),
          "sessions must be a list of objects")
    specs = []
    for t, s in enumerate(sessions, start=1):
        where, k = f"session {t}: ", s.get("k", 0)
        check(type(k) is int, f"{where}k must be an integer, got {k!r}")
        arrivals = ids(s, "arrivals", where)
        check(not arrivals or (min(arrivals) >= 0 and max(arrivals) < num_nodes),
              f"{where}arrivals must be node ids in [0, {num_nodes})")
        specs.append(SessionSpec(ids(s, "few_shot", where),
                                 ids(s, "zero_shot", where), k, arrivals))
    return StreamSchedule(base_classes=ids(raw, "base_classes"),
                          sessions=tuple(specs))


def load_dataset(directory) -> DatasetBundle:
    """Load and validate a dataset directory; node i is row i of features.npy."""
    d = Path(directory)
    if not d.is_dir():
        raise DatasetError(f"dataset directory not found: {d}")

    features = _read_features(d)
    num_nodes = features.shape[0]
    edge_arr = _read_table(d / "edges.tsv", "edge")
    label_arr = _read_table(d / "labels.tsv", "label")
    # later lines win, as when the file is read line by line
    labels = dict(zip(label_arr[:, 0].tolist(), label_arr[:, 1].tolist()))

    vectors: dict[int, np.ndarray] = {}
    csd_path = d / "csd.tsv"
    if csd_path.exists():
        with open(csd_path, encoding="utf-8") as fh:
            for n, line in enumerate(fh, start=1):
                cls, tab, vec = line.strip().partition("\t")
                if not cls:
                    continue
                if not tab:
                    raise DatasetError(f"csd.tsv line {n}: expected "
                                       "class_id<TAB>vector")
                try:        # a class id or a vector entry that is no number
                    vectors[int(cls)] = np.asarray(
                        [float(x) for x in vec.split()], dtype=np.float64)
                except ValueError as exc:
                    raise DatasetError(f"csd.tsv line {n}: {exc}") from None

    schedule = _read_schedule(_require(d / "schedule.json"), num_nodes)
    graph = build_snapshot(num_nodes, edge_arr, features)
    bundle = DatasetBundle(graph=graph, labels=LabelTable(labels),
                           csds=CSDTable(vectors), schedule=schedule)
    bundle.validate()
    return bundle


_PAIR_BLOCK = 1 << 16  # rows per %-format in _write_pairs


def _write_pairs(path: Path, rows: np.ndarray) -> None:
    """One ``a<TAB>b`` line per row of the (m, 2) int array ``rows``; each
    block of ``_PAIR_BLOCK`` rows is one %-format, not one format per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(rows), _PAIR_BLOCK):
            part = rows[start:start + _PAIR_BLOCK]
            fh.write(("%d\t%d\n" * len(part)) % tuple(part.ravel().tolist()))


def write_dataset(bundle: DatasetBundle, directory) -> None:
    """Write a bundle to the dataset layout; features.npy keeps their bits."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)

    g = bundle.graph
    _write_pairs(d / "edges.tsv", g.edges())
    np.save(d / "features.npy", g.features, allow_pickle=False)
    nodes, classes = bundle.labels.arrays
    order = np.argsort(nodes)
    _write_pairs(d / "labels.tsv", np.stack([nodes[order], classes[order]], axis=1))
    if bundle.csds.vectors:
        with open(d / "csd.tsv", "w", encoding="utf-8") as fh:
            for cls in sorted(bundle.csds.vectors):
                vec = " ".join(repr(float(x)) for x in bundle.csds.vectors[cls])
                fh.write(f"{cls}\t{vec}\n")
    with open(d / "schedule.json", "w", encoding="utf-8") as fh:
        # the schedule's fields in their declared order, tuples as lists
        json.dump(asdict(bundle.schedule), fh, indent=1)
        fh.write("\n")


# -- synthetic fixtures ------------------------------------------------------

def synth_generate(seed: int, blocks: int, nodes_per_block: int,
                   p_in: float, p_out: float, d: int, *,
                   mean_separation: float = 4.0, n_base: int | None = None,
                   novel_per_session: int = 1, zero_shot_classes=(),
                   k_shot: int = 5) -> DatasetBundle:
    """Class-separable stochastic block model with Gaussian features.

    Node i belongs to block i // nodes_per_block; its features are its block
    mean plus unit-variance Gaussian noise. Block means sit at pairwise
    distance ``mean_separation``, in units of that noise, along orthonormal
    directions, and each class's CSD vector is its population feature mean.
    Classes ``n_base..blocks-1`` stream in ``novel_per_session`` at a time;
    ids in ``zero_shot_classes`` stream without labeled shots.
    """
    if blocks < 1 or nodes_per_block < 1:
        raise DatasetError("degenerate block sizes")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise DatasetError("require 0 <= p_out < p_in <= 1")
    if d < blocks:
        raise DatasetError("feature dim must be >= number of blocks")
    if n_base is None:
        n_base = blocks
    if not 1 <= n_base <= blocks:
        raise DatasetError(f"base classes must number 1 to blocks={blocks}, "
                           f"got {n_base}")
    if not (np.isfinite(mean_separation) and mean_separation >= 0):
        raise DatasetError(f"mean_separation must be finite and >= 0, "
                           f"got {mean_separation}")
    if novel_per_session < 1:
        raise DatasetError(f"novel_per_session must be at least 1, "
                           f"got {novel_per_session}")
    zero = set(int(c) for c in zero_shot_classes)
    streamed = [c for c in range(n_base, blocks)]
    bad = zero - set(streamed)
    if bad:
        raise DatasetError(f"zero-shot classes {sorted(bad)} are not streamed")
    if k_shot < 1 and set(streamed) - zero:
        raise DatasetError(f"k_shot={k_shot}: few-shot sessions need k >= 1")

    rng = np.random.default_rng(seed)
    n = blocks * nodes_per_block
    block_of = np.repeat(np.arange(blocks), nodes_per_block)

    # orthonormal class directions -> exact pairwise mean separation
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    means = basis[:blocks] * (mean_separation / np.sqrt(2.0))
    features = means[block_of] + rng.standard_normal((n, d))

    rows = []
    for u in range(n):
        probs = np.where(block_of[u + 1:] == block_of[u], p_in, p_out)
        hits = np.nonzero(rng.random(n - u - 1) < probs)[0]
        for h in hits:
            rows.append((u, u + 1 + h))
    edges = np.asarray(rows, dtype=np.int64).reshape(-1, 2)

    labels = {i: int(block_of[i]) for i in range(n)}
    csds = {c: means[c].copy() for c in range(blocks)}

    sessions = []
    for i in range(0, len(streamed), novel_per_session):
        chunk = streamed[i:i + novel_per_session]
        sessions.append(SessionSpec(
            few_shot=tuple(c for c in chunk if c not in zero),
            zero_shot=tuple(c for c in chunk if c in zero),
            k=k_shot))
    schedule = StreamSchedule(base_classes=tuple(range(n_base)),
                              sessions=tuple(sessions))

    graph = build_snapshot(n, edges, features)
    bundle = DatasetBundle(graph=graph, labels=LabelTable(labels),
                           csds=CSDTable(csds), schedule=schedule)
    bundle.validate()
    return bundle
